"""Staircase joint against the dense reference, and sampler correctness."""

import hashlib

import numpy as np
import pytest
import scipy.stats

from flashcrowd import kernels
from flashcrowd.kernels import (
    _draw_beta,
    _Uniforms,
    beta_counts,
    frechet_mix,
    pearson_counts,
    stream_key,
    unit_block,
)
from util_joint import dense_entropy_bits, dense_frechet_mix, dense_rho_of_joint


def random_marginal(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


def test_unit_block_range_and_determinism():
    key = stream_key(1234, 7)
    a = unit_block(key, 0, 1000)
    b = unit_block(key, 0, 1000)
    assert np.array_equal(a, b)
    assert ((a >= 0.0) & (a < 1.0)).all()
    # Counter-based: a later window is a slice of the same stream.
    c = unit_block(key, 500, 100)
    assert np.array_equal(a[500:600], c)


def test_stream_keys_differ_across_streams_and_seeds():
    keys = {stream_key(s, i) for s in (0, 1, 2) for i in range(50)}
    assert len(keys) == 150


def dense_of(mix, f, g):
    p = (1.0 - mix.theta) * np.outer(f, g)
    p[mix.rows, mix.cols] += mix.theta * mix.mass
    return p


def test_staircase_matches_dense_reference():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 20):
        f = random_marginal(rng, n)
        g = random_marginal(rng, n)
        xv = np.arange(n, dtype=np.float64)
        for rho in (-0.9, -0.3, 0.0, 0.4, 1.0):
            mix = frechet_mix(f, g, rho, xv, xv)
            p_ref, th_ref, rb_ref, st_ref = dense_frechet_mix(f, g, rho, xv, xv)
            assert mix.status == st_ref
            assert abs(mix.theta - th_ref) < 1e-12
            assert abs(mix.rho_bound - rb_ref) < 1e-12
            p = dense_of(mix, f, g)
            assert np.max(np.abs(p - p_ref)) < 1e-12
            assert abs(mix.h_xy - dense_entropy_bits(p_ref)) < 1e-10
            rho_p = dense_rho_of_joint(p, f, g, xv, xv)
            assert abs(rho_p - dense_rho_of_joint(p_ref, f, g, xv, xv)) < 1e-12
        c1 = rng.integers(0, 20, n).astype(np.float64)
        c2 = rng.integers(0, 20, n).astype(np.float64)
        want = np.corrcoef(c1, c2)[0, 1] if c1.std() > 0 and c2.std() > 0 else 0.0
        assert abs(pearson_counts(c1, c2) - want) < 1e-12


def test_staircase_cells_cover_each_extreme_once():
    # At most 2n - 1 cells, each distinct, rows and columns monotone, and
    # the cell masses sum to the marginals.
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 200):
        f = random_marginal(rng, n)
        g = random_marginal(rng, n)
        if n > 1:
            f[rng.integers(0, n)] = 0.0  # a zero-mass row must get no cell
            f /= f.sum()
        for upper in (True, False):
            rows, cols, mass = kernels.staircase(f, g, upper)
            assert len(rows) <= 2 * n - 1
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            assert (np.diff(rows) >= 0).all()
            assert (np.diff(cols) >= 0).all() if upper else (np.diff(cols) <= 0).all()
            assert (mass > 0.0).all()
            assert np.allclose(np.bincount(rows, mass, n), f, atol=1e-12)
            assert np.allclose(np.bincount(cols, mass, n), g, atol=1e-12)


def test_product_joint_entropy_is_exactly_the_marginal_sum():
    rng = np.random.default_rng(9)
    xv = np.arange(6, dtype=np.float64)
    f = random_marginal(rng, 6)
    g = random_marginal(rng, 6)
    mix = frechet_mix(f, g, 0.0, xv, xv)
    assert mix.status == kernels.MIX_OK and len(mix.rows) == 0
    assert mix.h_xy == mix.h_x + mix.h_y
    point = np.zeros(6)
    point[2] = 1.0
    mix = frechet_mix(point, g, 0.5, xv, xv)
    assert mix.status == kernels.MIX_DEGENERATE
    assert mix.h_x + mix.h_y - mix.h_xy == 0.0


def test_beta_counts_chunk_independent():
    # Drawing in two calls, the second starting at the counter the first
    # returned, must give the same counts and final counter as one call.
    alphas = np.full(200, 0.4)
    betas = np.full(200, 6.0)
    key = stream_key(5, 0)
    ref, ref_ctr = beta_counts(alphas, betas, 50, key, 0)
    ends = [0]
    for k in range(200):
        ends.append(beta_counts(alphas[k : k + 1], betas[k : k + 1], 50, key, ends[-1])[1])
    assert ends[-1] == ref_ctr
    # The draw whose rejection loop reads across the first 512-uniform block.
    edge = next(k for k in range(200) if ends[k] < 512 < ends[k + 1])
    for split in (0, 1, edge, edge + 1, 199, 200):
        head, ctr = beta_counts(alphas[:split], betas[:split], 50, key, 0)
        assert ctr == ends[split]
        tail, ctr = beta_counts(alphas[split:], betas[split:], 50, key, ctr)
        assert np.array_equal(np.concatenate((head, tail)), ref)
        assert ctr == ref_ctr


@pytest.mark.parametrize(
    "a,b",
    [(0.5, 0.5), (1.0, 1.0), (0.4, 0.9), (2.0, 5.0), (8.0, 2.0), (0.5, 4.0), (6.0, 0.7)],
)
def test_beta_sampler_matches_reference_distribution(a, b):
    # Kolmogorov-Smirnov against scipy's beta CDF; fixed seed, generous level.
    key = stream_key(2024, int(a * 10 + b))
    n = 20000
    u = _Uniforms(key, 0).next
    values = [_draw_beta(a, b, u) for _ in range(n)]
    stat = scipy.stats.kstest(values, scipy.stats.beta(a, b).cdf)
    assert stat.pvalue > 1e-3, f"KS p={stat.pvalue} for Beta({a},{b})"


# Ten mixed-shape pairs, then the seven shapes of the KS test above.
SAMPLER_PAIRS = [
    (0.5, 0.5), (0.5, 8.0), (2.0, 5.0), (2.0, 0.7), (8.0, 2.0),
    (0.3, 0.3), (3.0, 3.0), (1.0, 1.0), (1.0, 9.0), (5.0, 1.0),
    (0.5, 0.5), (1.0, 1.0), (0.4, 0.9), (2.0, 5.0), (8.0, 2.0), (0.5, 4.0), (6.0, 0.7),
]


def test_beta_counts_digest():
    # Pins every count and the stream position after each batch, so a
    # sampler rewrite must read the same uniforms in the same order.
    h = hashlib.sha256()
    for i, (a, b) in enumerate(SAMPLER_PAIRS):
        counts, ctr = beta_counts(
            np.full(2000, a), np.full(2000, b), 1_000_000, stream_key(99, i), 0
        )
        h.update(counts.astype("<i8").tobytes())
        h.update(ctr.to_bytes(8, "little"))
    assert h.hexdigest() == "3d499af2a2fab6f8213b7f08d5a8797a48e8481a98368bf378f2026527c26c9a"


def test_beta_counts_bounds_and_mean():
    alphas = np.full(100000, 2.0)
    betas = np.full(100000, 8.0)
    counts, _ = beta_counts(alphas, betas, 60, stream_key(7, 0), 0)
    assert counts.min() >= 0 and counts.max() <= 60
    mean = counts.mean()
    assert abs(mean - 60 * 0.2) / (60 * 0.2) < 0.02
