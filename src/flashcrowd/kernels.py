"""Hot numeric kernels: the beta sampler and the detector's joint model.

The beta sampler is plain Python over a counter-based uniform stream, so
each trace is a pure function of its seed.

The detector kernels are numpy. ``frechet_mix`` models the joint of two
marginals f and g (cumulative F and G) as theta * P_b + (1 - theta) * f g^T,
where P_b is a Frechet-Hoeffding extreme, and returns its entropy without
building the n x n matrix. A content's value in the moments is its
position in the support, 0..n-1, in both marginals.

Each extreme is a staircase: draw U uniform on (0, 1] and put X in row i
when F[i-1] < U <= F[i]; the upper (comonotone) extreme puts Y in column j
when G[j-1] < U <= G[j], the lower (countermonotone) one when
1 - G[j] <= U < 1 - G[j-1]. Between two consecutive breakpoints of the
merged sets the cell (i, j) is fixed, so P_b has at most 2n - 1 nonzero
cells, found with ``np.searchsorted``. The lower extreme's breakpoints are
taken as 1 - G, not as cumulative sums of the reversed g: the rectangle
form max(F + G - 1, 0) of that bound puts its cell edges exactly at
F = 1 - G.

With phi(x) = -x log2 x, every cell off the staircase holds
(1 - theta) f_i g_j, and summing phi of that over all cells gives
phi(1 - theta) + (1 - theta) (H(f) + H(g)). The entropy of the mixture is
that plus, over the staircase cells only,
phi(theta s_ij + (1 - theta) f_i g_j) - phi((1 - theta) f_i g_j).
Everything is O(n log n) in the support size n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Always False: no kernel is compiled. Benchmark results still record it in
# their environment block.
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Counter-based uniform stream (SplitMix64).
#
# Every uniform is a pure function of (key, counter), so sampling is
# reproducible across platforms and independent of how the stream is read.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """Derive an independent stream key from a master seed and stream index."""
    return mix64((seed & _MASK64) ^ mix64((stream + 1) * _GAMMA))


def unit_block(key: int, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for counters start..start+count-1 of a stream."""
    ctr = np.arange(1, count + 1, dtype=np.uint64) + np.uint64(start & _MASK64)
    z = np.uint64(key) + ctr * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)


class _Uniforms:
    """Reads a stream in order, a block at a time, counting what it hands out."""

    BLOCK = 512

    def __init__(self, key: int, counter: int) -> None:
        self.key = key
        self.fetched = counter  # stream position after the last block
        self.rest: list[float] = []  # unread uniforms of that block, last first

    def next(self) -> float:
        if not self.rest:
            self.rest = unit_block(self.key, self.fetched, self.BLOCK)[::-1].tolist()
            self.fetched += self.BLOCK
        return self.rest.pop()

    @property
    def counter(self) -> int:
        """Stream position after the last uniform handed out."""
        return self.fetched - len(self.rest)


# ---------------------------------------------------------------------------
# Beta sampling (Johnk for both shapes <= 1, Cheng BB/BC otherwise).
#
# Each attempt reads two uniforms, so the stream position after a draw
# depends only on the draw, never on how the stream is read.
# ---------------------------------------------------------------------------

_LOG4 = 1.3862943611198906


def _draw_beta(a, b, u):
    """One Beta(a, b) variate; ``u()`` returns the stream's next uniform."""
    if a <= 1.0 and b <= 1.0:
        while True:
            x = u() ** (1.0 / a)
            y = u() ** (1.0 / b)
            s = x + y
            if s <= 1.0 and s > 0.0:
                return x / s
    elif a > 1.0 and b > 1.0:
        # Cheng's BB rejection algorithm.
        a0 = a if a <= b else b
        b0 = b if a <= b else a
        al = a0 + b0
        be = math.sqrt((al - 2.0) / (2.0 * a0 * b0 - al))
        ga = a0 + 1.0 / be
        while True:
            u1 = u()
            u2 = u()
            if u1 <= 0.0:
                continue
            v = be * math.log(u1 / (1.0 - u1))
            w = a0 * math.exp(v)
            if w > 1e300:
                w = 1e300
            z = u1 * u1 * u2
            r = ga * v - _LOG4
            s = a0 + r - w
            if z > 0.0 and s + 2.609437912434100 < 5.0 * z:
                t = math.log(z)
                if s < t and r + al * math.log(al / (b0 + w)) < t:
                    continue
            if a <= b:
                return w / (b0 + w)
            return b0 / (b0 + w)
    else:
        # Cheng's BC: one shape <= 1 < the other.
        a0 = a if a >= b else b
        b0 = b if a >= b else a
        al = a0 + b0
        be = 1.0 / b0
        de = 1.0 + a0 - b0
        k1 = de * (0.0138889 + 0.0416667 * b0) / (a0 * be - 0.777778)
        k2 = 0.25 + (0.5 + 0.25 / de) * b0
        while True:
            u1 = u()
            u2 = u()
            if u1 <= 0.0 or u2 <= 0.0:
                continue
            quick = False  # accepted without the final log test
            if u1 < 0.5:
                y = u1 * u2
                z = u1 * y
                if 0.25 * u2 + z - y >= k1:
                    continue
            else:
                z = u1 * u1 * u2
                quick = z <= 0.25
                if not quick and z >= k2:
                    continue
            v = be * math.log(u1 / (1.0 - u1))
            # exp overflows past v = 709.78, and a0 * exp(709) > 1e300 (a0 > 1).
            w = a0 * math.exp(v) if v < 709.0 else 1e300
            if w > 1e300:
                w = 1e300
            if quick or al * (math.log(al / (b0 + w)) + v) - _LOG4 >= math.log(z):
                if a >= b:
                    return w / (b0 + w)
                return b0 / (b0 + w)


def beta_counts(alphas, betas, u_max, key, counter):
    """Scaled/rounded beta draws for each (alpha, beta) pair in sequence.

    Each draw v becomes round(v * u_max), rounded half to even. Returns
    (int64 counts array, counter after the last consumed uniform).
    """
    stream = _Uniforms(key, counter)
    u_max = int(u_max)
    counts = [
        round(_draw_beta(a, b, stream.next) * u_max)
        for a, b in zip(
            np.asarray(alphas, dtype=np.float64).tolist(),
            np.asarray(betas, dtype=np.float64).tolist(),
        )
    ]
    return np.array(counts, dtype=np.int64), stream.counter


# ---------------------------------------------------------------------------
# Detector kernels: Pearson coefficient, the staircase Frechet mixture and
# entropies.
# ---------------------------------------------------------------------------


def pearson_counts(c1, c2):
    """Pearson coefficient of two count vectors; 0 when either is constant."""
    d1 = c1 - c1.mean()
    d2 = c2 - c2.mean()
    v1 = float(np.dot(d1, d1))
    v2 = float(np.dot(d2, d2))
    if v1 <= 0.0 or v2 <= 0.0:
        return 0.0
    return float(np.dot(d1, d2)) / (math.sqrt(v1) * math.sqrt(v2))


def entropy_bits(p):
    """Shannon entropy in bits of the probabilities in ``p`` (0 log 0 := 0)."""
    flat = np.asarray(p).ravel()
    nz = flat[flat > 0.0]
    if nz.size == 0:
        return 0.0
    return -float(np.sum(nz * np.log2(nz)))


def _phi(x):
    """-x log2 x elementwise, with 0 at x = 0."""
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log2(x[pos])
    return out


def staircase(f, g, upper):
    """Nonzero cells of the upper or lower Frechet extreme of f and g.

    Returns (rows, cols, mass): the extreme puts mass[k] on cell
    (rows[k], cols[k]) and nothing elsewhere.
    """
    n = f.shape[0]
    F = np.cumsum(f)
    G = np.cumsum(g)
    if upper:
        col_edges = G
        lo, hi = 0.0, min(F[-1], G[-1])
    else:
        col_edges = 1.0 - G[::-1]  # ascending: 1 - G[n-1], ..., 1 - G[0]
        lo, hi = max(0.0, col_edges[0]), min(F[-1], 1.0)
    # Merge the two ascending edge sets by rank rather than by sorting:
    # the first np.sort of a process maps about 0.3 MB of code that the
    # detector otherwise never touches.
    u = np.empty(2 * n)
    k = np.arange(n)
    u[k + np.searchsorted(col_edges, F, side="left")] = F
    u[k + np.searchsorted(F, col_edges, side="right")] = col_edges
    u = np.concatenate(((lo,), u[(u > lo) & (u < hi)], (hi,)))
    # Each interval between distinct breakpoints is one cell.
    mass = np.diff(u)
    keep = mass > 0.0
    left = u[:-1][keep]
    rows = np.searchsorted(F, left, side="right")
    cols = np.searchsorted(col_edges, left, side="right")
    if not upper:
        cols = n - cols
    return rows, cols, mass[keep]


# Status codes for frechet_mix.
MIX_OK = 0
MIX_DEGENERATE = 1  # rho_bound == 0 while rho != 0; fell back to f*g
MIX_CLAMPED = 2  # |rho| exceeded |rho_bound|; theta clamped to [0, 1]


class Mix(NamedTuple):
    """The joint theta * P_b + (1 - theta) * f g^T and its entropies.

    P_b puts ``mass[k]`` on cell (``rows[k]``, ``cols[k]``); the cell
    arrays are empty when rho is 0 or the bound is degenerate.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    theta: float
    rho_bound: float
    h_x: float
    h_y: float
    h_xy: float
    status: int


_NO_CELLS = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))


def frechet_mix(f, g, rho):
    """Mix of the product and the Frechet extreme whose correlation is rho.

    The extreme is the lower one for rho < 0 and the upper one otherwise;
    rho_bound is its Pearson coefficient with support positions 0..n-1 as
    the values of both variables, and theta = rho / rho_bound clamped to
    [0, 1]. A product joint (rho == 0, rho_bound == 0 or theta clamped to
    0) has h_xy = h_x + h_y exactly.
    """
    h_x = entropy_bits(f)
    h_y = entropy_bits(g)
    product = Mix(*_NO_CELLS, 0.0, 0.0, h_x, h_y, h_x + h_y, MIX_OK)
    if rho == 0.0:
        return product
    vals = np.arange(f.shape[0], dtype=np.float64)
    ex = float(np.dot(vals, f))
    ey = float(np.dot(vals, g))
    vx = float(np.dot(vals * vals, f)) - ex * ex
    vy = float(np.dot(vals * vals, g)) - ey * ey
    if vx <= 1e-300 or vy <= 1e-300:
        return product._replace(status=MIX_DEGENERATE)
    rows, cols, mass = staircase(f, g, upper=rho > 0.0)
    exy = float(np.dot(vals[rows] * vals[cols], mass))
    rho_b = (exy - ex * ey) / (math.sqrt(vx) * math.sqrt(vy))
    if rho_b == 0.0:
        return product._replace(status=MIX_DEGENERATE)
    theta = rho / rho_b
    status = MIX_OK
    if theta < 0.0 or theta > 1.0:
        theta = min(max(theta, 0.0), 1.0)
        status = MIX_CLAMPED
    if theta == 0.0:
        return Mix(rows, cols, mass, 0.0, rho_b, h_x, h_y, h_x + h_y, status)
    rest = 1.0 - theta
    q = rest * f[rows] * g[cols]
    h_xy = rest * (h_x + h_y) + float(np.sum(_phi(theta * mass + q) - _phi(q)))
    if rest > 0.0:
        h_xy -= rest * math.log2(rest)
    return Mix(rows, cols, mass, theta, rho_b, h_x, h_y, h_xy, status)
