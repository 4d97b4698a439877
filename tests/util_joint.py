"""Reference joints for the detector kernels.

Content values are support positions 0..n-1, as in the kernel.
``dense_joint`` expands a ``kernels.Mix`` into its n x n matrix.
``dense_frechet_mix`` builds the joint as an n x n matrix from rectangle
differences of the Frechet bound, a route to the same joint that shares
no code with the staircase kernel. ``exact_joint`` is the oracle: the
Frechet-extreme staircase in exact rational arithmetic from integer
counts, and the joint entropy summed over all n x n cells of the
mixture, not through the staircase decomposition the kernel uses.
"""

import bisect
import math
from fractions import Fraction

import numpy as np

from flashcrowd.kernels import MIX_CLAMPED, MIX_DEGENERATE, MIX_OK


def _marginal(counts):
    total = sum(counts)
    if total == 0:
        return [Fraction(1, len(counts))] * len(counts)
    return [Fraction(c, total) for c in counts]


def _cumulative(p):
    out, acc = [], Fraction(0)
    for v in p:
        acc += v
        out.append(acc)
    return out


def exact_staircase(f, g, upper):
    """Cells {(i, j): mass} of the upper (comonotone) or lower
    (countermonotone) Frechet extreme of exact marginals f and g."""
    F, G = _cumulative(f), _cumulative(g)
    # Column j of the lower extreme covers u in [1 - G[j], 1 - G[j-1]).
    cols = G if upper else [1 - v for v in G]
    points = sorted(set([Fraction(0), Fraction(1)] + F + cols))
    cells = {}
    for a, b in zip(points, points[1:]):
        i = bisect.bisect_right(F, a)
        if upper:
            j = bisect.bisect_right(G, a)
        else:
            # First j with 1 - G[j] <= a, that is G[j] >= 1 - a.
            j = bisect.bisect_left(G, 1 - a)
        cells[(i, j)] = b - a
    return cells


def _phi_sum(values):
    v = np.asarray(values, dtype=np.float64)
    v = v[v > 0.0]
    return -math.fsum(v * np.log2(v))


def exact_joint(c_prev, c_now, rho):
    """(rho_bound, theta, H(X, Y)) of the detector's joint for two count
    vectors over a common support, ordinal values, sample correlation rho."""
    f, g = _marginal(c_prev), _marginal(c_now)
    fl_f = np.array([float(v) for v in f])
    fl_g = np.array([float(v) for v in g])
    rho_bound, theta, cells = 0.0, Fraction(0), {}
    if rho != 0.0:
        cells = exact_staircase(f, g, upper=rho > 0)
        ex = sum(i * v for i, v in enumerate(f))
        ey = sum(j * v for j, v in enumerate(g))
        vx = sum(i * i * v for i, v in enumerate(f)) - ex * ex
        vy = sum(j * j * v for j, v in enumerate(g)) - ey * ey
        num = sum(i * j * s for (i, j), s in cells.items()) - ex * ey
        if vx > 0 and vy > 0 and num != 0:
            rho_bound = math.copysign(math.sqrt(float(num * num / (vx * vy))), num)
        if rho_bound != 0.0:
            theta = Fraction(min(max(rho / rho_bound, 0.0), 1.0))
    if theta == 0:
        cells = {}
    product = float(1 - theta) * np.outer(fl_f, fl_g)
    stair = []
    for (i, j), s in cells.items():
        product[i, j] = 0.0
        stair.append(float(theta * s + (1 - theta) * f[i] * g[j]))
    h_xy = _phi_sum(product.ravel()) + _phi_sum(stair)
    return rho_bound, float(theta), h_xy


def dense_joint(mix, f, g):
    """The n x n matrix of a ``kernels.Mix`` of marginals f and g."""
    p = (1.0 - mix.theta) * np.outer(f, g)
    p[mix.rows, mix.cols] += mix.theta * mix.mass
    return p


def dense_rho_of_joint(p, f, g):
    """Pearson coefficient of a dense joint ``p`` with marginals f and g."""
    vals = np.arange(f.shape[0], dtype=np.float64)
    ex = float(np.dot(vals, f))
    ex2 = float(np.dot(vals * vals, f))
    ey = float(np.dot(vals, g))
    ey2 = float(np.dot(vals * vals, g))
    vx = ex2 - ex * ex
    vy = ey2 - ey * ey
    if vx <= 1e-300 or vy <= 1e-300:
        return 0.0
    exy = math.fsum((np.outer(vals, vals) * p).ravel())
    return (exy - ex * ey) / (math.sqrt(vx) * math.sqrt(vy))


def dense_frechet_mix(f, g, rho):
    """(p, theta, rho_bound, status) of the mixture, p dense n x n."""
    n = f.shape[0]
    if rho == 0.0:
        return np.outer(f, g), 0.0, 0.0, MIX_OK
    F = np.cumsum(f)
    G = np.cumsum(g)
    pad = np.zeros((n + 1, n + 1))
    if rho < 0.0:
        pad[1:, 1:] = np.maximum(F[:, None] + G[None, :] - 1.0, 0.0)
    else:
        pad[1:, 1:] = np.minimum(F[:, None], G[None, :])
    pb = pad[1:, 1:] - pad[:-1, 1:] - pad[1:, :-1] + pad[:-1, :-1]
    np.maximum(pb, 0.0, out=pb)
    rho_b = dense_rho_of_joint(pb, f, g)
    if rho_b == 0.0:
        return np.outer(f, g), 0.0, 0.0, MIX_DEGENERATE
    theta = rho / rho_b
    status = MIX_OK
    if theta < 0.0 or theta > 1.0:
        theta = min(max(theta, 0.0), 1.0)
        status = MIX_CLAMPED
    return theta * pb + (1.0 - theta) * np.outer(f, g), theta, rho_b, status


def dense_entropy_bits(p):
    """Entropy in bits of a dense joint, summed over all its cells."""
    return _phi_sum(np.asarray(p).ravel())
