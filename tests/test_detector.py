import contextlib
import math

import numpy as np
import pytest

from flashcrowd.detector import (
    DegenerateBound,
    Detector,
    EmptyBin,
    FlagConfig,
    build_distributions,
    detect,
    entropies,
    frechet_joint,
    point_at,
    sample_rho,
)
from flashcrowd.generator import (
    ContentProfile,
    GeneratorConfig,
    PhaseKind,
    PhaseSchedule,
    generate,
)
from flashcrowd.trace import BinnedTrace
from util_joint import dense_rho_of_joint, exact_joint


def trace_of(*bins, width=1.0):
    return BinnedTrace(width, [dict(b) for b in bins], set())


def expect_degenerate(pair, rho):
    """Expect DegenerateBound exactly when rho != 0 and a marginal is a point
    mass: its variance is 0, so no Frechet extreme can correlate."""
    if rho != 0.0 and max(pair.f.max(), pair.g.max()) == 1.0:
        return pytest.warns(DegenerateBound)
    return contextlib.nullcontext()


class TestBuildDistributions:
    def test_single_content(self):
        pair = build_distributions(trace_of({7: 4}, {7: 4}), 1, 1)
        assert pair.support == (7,)
        assert pair.f.tolist() == [1.0] and pair.g.tolist() == [1.0]

    def test_normalization(self):
        pair = build_distributions(trace_of({1: 3, 2: 1}, {1: 1, 2: 3}), 1, 1)
        assert pair.f.tolist() == [0.75, 0.25]
        assert pair.g.tolist() == [0.25, 0.75]

    def test_disjoint_supports(self):
        pair = build_distributions(trace_of({1: 2}, {2: 2}), 1, 1)
        assert pair.support == (1, 2)
        assert pair.f.tolist() == [1.0, 0.0]
        assert pair.g.tolist() == [0.0, 1.0]

    def test_empty_pair_raises(self):
        with pytest.raises(EmptyBin):
            build_distributions(trace_of({}, {}), 1, 1)

    def test_one_sided_empty_bin_uniform(self):
        pair = build_distributions(trace_of({}, {1: 2, 5: 2}), 1, 1)
        assert pair.f.tolist() == [0.5, 0.5]

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            prev = {int(c): int(n) for c, n in zip(rng.integers(0, 30, 6), rng.integers(1, 9, 6))}
            now = {int(c): int(n) for c, n in zip(rng.integers(0, 30, 6), rng.integers(1, 9, 6))}
            pair = build_distributions(trace_of(prev, now), 1, 1)
            assert abs(pair.f.sum() - 1) < 1e-12 and abs(pair.g.sum() - 1) < 1e-12


class TestSampleRho:
    def test_antithetic_counts(self):
        # Direct evaluation of the correlation formula gives -1.
        assert sample_rho(trace_of({0: 3, 1: 1}, {0: 1, 1: 3}), 1, 1) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_identical_counts(self):
        assert sample_rho(trace_of({0: 3, 1: 1}, {0: 3, 1: 1}), 1, 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_variance_rule(self):
        assert sample_rho(trace_of({0: 2, 1: 2}, {0: 1, 1: 3}), 1, 1) == 0.0


class TestFrechetJoint:
    def test_independent_product(self):
        pair = build_distributions(trace_of({1: 3, 2: 1}, {1: 1, 2: 3}), 1, 1)
        joint = frechet_joint(pair, 0.0)
        assert np.allclose(joint.p, np.outer(pair.f, pair.g), atol=0)
        assert joint.theta == 0.0

    def test_antithetic_lower_bound(self):
        # Hand evaluation: f=[.75,.25], g=[.25,.75], rho=-1 puts all mass on
        # the antidiagonal and the lower-extreme correlation is exactly -1.
        pair = build_distributions(trace_of({1: 3, 2: 1}, {1: 1, 2: 3}), 1, 1)
        joint = frechet_joint(pair, -1.0)
        assert joint.rho_bound == pytest.approx(-1.0, abs=1e-12)
        assert joint.theta == pytest.approx(1.0, abs=1e-12)
        expected = np.array([[0.0, 0.75], [0.25, 0.0]])
        assert np.allclose(joint.p, expected, atol=1e-12)

    def test_comonotone_upper_bound(self):
        # f = g and rho = 1: the upper extreme is the diagonal coupling.
        pair = build_distributions(trace_of({1: 1, 2: 3}, {1: 1, 2: 3}), 1, 1)
        joint = frechet_joint(pair, 1.0)
        assert joint.theta == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(joint.p, np.diag(pair.f), atol=1e-12)

    def test_marginals_preserved_and_rho_targeted(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            cp = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
            cn = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
            if sum(cp.values()) == 0 and sum(cn.values()) == 0:
                continue
            pair = build_distributions(trace_of(cp, cn), 1, 1)
            with expect_degenerate(pair, -1e-9):
                lo = frechet_joint(pair, -1e-9).rho_bound
            with expect_degenerate(pair, 1e-9):
                hi = frechet_joint(pair, 1e-9).rho_bound
            assert lo <= 0.0 <= hi
            for bound, sign in ((lo, -1), (hi, 1)):
                if bound == 0.0:
                    continue
                rho = sign * float(rng.random()) * abs(bound)
                joint = frechet_joint(pair, rho)
                m = len(pair.support)
                assert np.max(np.abs(joint.p.sum(axis=1) - pair.f)) < 1e-9
                assert np.max(np.abs(joint.p.sum(axis=0) - pair.g)) < 1e-9
                assert abs(joint.p.sum() - 1.0) < 1e-9
                assert 0.0 <= joint.theta <= 1.0
                xv = np.arange(m, dtype=np.float64)
                rho_hat = dense_rho_of_joint(joint.p, pair.f, pair.g, xv, xv)
                assert abs(rho_hat - rho) < 1e-6

    def test_componentwise_bound_chain(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            f = rng.random(n) + 1e-3
            f /= f.sum()
            g = rng.random(n) + 1e-3
            g /= g.sum()
            F, G = np.cumsum(f), np.cumsum(g)
            PL = np.maximum(F[:, None] + G[None, :] - 1.0, 0.0)
            PU = np.minimum(F[:, None], G[None, :])
            assert (PL <= PU + 1e-12).all()

    def test_theta_clamped_when_rho_exceeds_bound(self):
        # Proportional-plus-offset counts: sample rho is 1 but the ordinal
        # upper bound is weaker, so theta clamps to 1.
        pair = build_distributions(trace_of({0: 1, 1: 2}, {0: 2, 1: 3}), 1, 1)
        rho = sample_rho(trace_of({0: 1, 1: 2}, {0: 2, 1: 3}), 1, 1)
        assert rho == pytest.approx(1.0)
        joint = frechet_joint(pair, rho)
        assert abs(joint.rho_bound) < 1.0
        assert joint.theta == 1.0
        assert (joint.p >= -1e-15).all()

    def test_degenerate_bound_warns_and_falls_back(self):
        pair = build_distributions(trace_of({1: 4}, {1: 4}), 1, 1)
        with pytest.warns(DegenerateBound):
            joint = frechet_joint(pair, 0.5)
        assert joint.p.tolist() == [[1.0]]


class TestEntropies:
    def test_single_content_all_zero(self):
        pair = build_distributions(trace_of({0: 5}, {0: 2}), 1, 1)
        joint = frechet_joint(pair, 0.0)
        pt = entropies(pair, joint)
        assert pt.h_x == pt.h_y == pt.h_xy == pt.c_xy == 0.0
        assert pt.n == 1

    def test_independent_uniform_n4(self):
        pair = build_distributions(
            trace_of({0: 2, 1: 2, 2: 2, 3: 2}, {0: 3, 1: 3, 2: 3, 3: 3}), 1, 1
        )
        pt = entropies(pair, frechet_joint(pair, 0.0))
        assert pt.h_x == pytest.approx(2.0, abs=1e-12)
        assert pt.h_y == pytest.approx(2.0, abs=1e-12)
        assert pt.h_xy == pytest.approx(4.0, abs=1e-12)
        assert pt.c_xy == pytest.approx(0.0, abs=1e-12)

    def test_antithetic_case_entropy(self):
        # H(X) = H(Y) = H(X,Y) = -(3/4 log 3/4 + 1/4 log 1/4) ~ 0.8113 bits.
        pair = build_distributions(trace_of({1: 3, 2: 1}, {1: 1, 2: 3}), 1, 1)
        pt = entropies(pair, frechet_joint(pair, -1.0))
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert pt.h_x == pytest.approx(h, abs=1e-12)
        assert pt.h_xy == pytest.approx(h, abs=1e-12)
        assert pt.c_xy == pytest.approx(h, abs=1e-12)

    def test_entropy_bounds_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            cp = {i: int(c) for i, c in enumerate(rng.integers(0, 8, n))}
            cn = {i: int(c) for i, c in enumerate(rng.integers(0, 8, n))}
            tr = trace_of(cp, cn)
            try:
                pair = build_distributions(tr, 1, 1)
            except EmptyBin:
                continue
            with expect_degenerate(pair, sample_rho(tr, 1, 1)):
                pt = point_at(tr, 1, 1)
            bound = math.log2(pt.n) if pt.n > 1 else 0.0
            assert pt.h_x <= bound + 1e-9 and pt.h_y <= bound + 1e-9
            assert pt.h_xy <= 2 * bound + 1e-9
            assert pt.c_xy >= -1e-9
            if pt.n > 1:
                assert pt.c_xy < 2 * bound
            else:
                assert pt.c_xy == 0.0


def flash_config(seed, n_total=20, n_hot=5, horizon=3000, up=(800, 1000), down=(2000, 2200)):
    hot = [
        ContentProfile(
            i, 60, 1.5, 28.5,
            (
                PhaseSchedule(up[0], up[1], 0.02, PhaseKind.RAMP_UP),
                PhaseSchedule(down[0], down[1], 0.02, PhaseKind.RAMP_DOWN),
            ),
        )
        for i in range(n_hot)
    ]
    cold = [ContentProfile(100 + i, 12, 2.0, 10.0) for i in range(n_total - n_hot)]
    return GeneratorConfig(hot + cold, horizon=horizon, bin_width=1.0, seed=seed)


class TestDetect:
    def test_constant_trace_no_events(self):
        bins = [{0: 5, 1: 5, 2: 5} for _ in range(400)]
        series = detect(BinnedTrace(1.0, bins, set()), w=1, flag_cfg=FlagConfig(warmup=50))
        cs = {round(p.c_xy, 12) for p in series.points}
        assert len(cs) == 1
        assert series.events == []

    def test_detect_is_pure(self):
        trace = generate(flash_config(3))
        a = detect(trace, w=1, flag_cfg=FlagConfig(warmup=100))
        b = detect(trace, w=1, flag_cfg=FlagConfig(warmup=100))
        assert a.points == b.points and a.events == b.events

    def test_flags_flash_crowd_window(self):
        cfg = flash_config(5)
        series = detect(generate(cfg), w=1, flag_cfg=FlagConfig(m=6, warmup=400))
        assert len(series.events) == 1
        (start, end), (true_start, true_end) = series.events[0], (800, 2200)
        assert abs(start - true_start) <= 150
        assert abs(end - true_end) <= 150

    def test_two_events_merge_rule(self):
        hot = [
            ContentProfile(
                i, 60, 1.5, 28.5,
                (
                    PhaseSchedule(600, 700, 0.03, PhaseKind.RAMP_UP),
                    PhaseSchedule(1000, 1100, 0.03, PhaseKind.RAMP_DOWN),
                    PhaseSchedule(1400, 1500, 0.03, PhaseKind.RAMP_UP),
                    PhaseSchedule(1800, 1900, 0.03, PhaseKind.RAMP_DOWN),
                ),
            )
            for i in range(5)
        ]
        cold = [ContentProfile(100 + i, 12, 2.0, 10.0) for i in range(15)]
        cfg = GeneratorConfig(hot + cold, horizon=2400, bin_width=1.0, seed=8)
        trace = generate(cfg)
        split = detect(trace, w=1, flag_cfg=FlagConfig(m=6, warmup=400, gap_merge=5))
        merged = detect(trace, w=1, flag_cfg=FlagConfig(m=6, warmup=400, gap_merge=500))
        assert len(split.events) == 2
        assert len(merged.events) == 1
        assert merged.events[0][0] == split.events[0][0]
        assert merged.events[0][1] == split.events[1][1]

    def test_empty_bins_skipped(self):
        # Only the both-empty pair at t=2 is skipped; a one-sided empty bin
        # is modeled as uniform over the populated side's support.
        bins = [{0: 3, 1: 2}, {}, {}, {0: 2, 1: 3}, {0: 3, 1: 2}]
        series = detect(BinnedTrace(1.0, bins, set()), w=1)
        assert [p.t for p in series.points] == [1, 3, 4]

    def test_product_joint_after_zero_warmup_opens_no_event(self):
        # Identical uniform bins give C = 0 through the warm-up, so sigma is
        # 0 and any C > 0 would flag. The last pair has a constant side
        # (rho = 0): its joint is the product and C must be exactly 0.
        bins = [{0: 1, 1: 1}] * 6 + [{0: 1, 1: 4}]
        series = detect(BinnedTrace(1.0, bins, set()), w=1, flag_cfg=FlagConfig(m=1, warmup=5))
        assert [p.c_xy for p in series.points] == [0.0] * 6
        assert series.events == []

    def test_event_after_zero_warmup_ends_before_last_bin(self):
        # C is 0 through the warm-up, so the threshold frozen at onset is 0.
        # C is never negative: the event must end when C returns to 0.
        quiet, hot = {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 3}
        bins = [quiet] * 6 + [hot, {0: 2, 1: 3, 2: 5}, hot] + [quiet] * 4
        series = detect(BinnedTrace(1.0, bins, set()), w=1, flag_cfg=FlagConfig(m=2, warmup=5))
        assert [p.c_xy for p in series.points[:6]] == [0.0] * 6
        assert series.events == [(7, 9)]

    def test_online_matches_batch(self):
        trace = generate(flash_config(2, horizon=600, up=(200, 260), down=(420, 480)))
        det = Detector(w=1, flag_cfg=FlagConfig(warmup=80))
        for t in range(trace.horizon):
            det.update(trace.bins[t])
        online = det.series()
        batch = detect(trace, w=1, flag_cfg=FlagConfig(warmup=80))
        assert online.points == batch.points and online.events == batch.events


class TestExactOracle:
    """rho_bound, theta and H(X, Y) against the rational staircase oracle."""

    @pytest.mark.filterwarnings("ignore::flashcrowd.detector.DegenerateBound")
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 300])
    def test_matches_exact_staircase(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3 if n < 300 else 1):
            prev = {i: int(c) for i, c in enumerate(rng.integers(0, 40, n))}
            now = {i: int(c) for i, c in enumerate(rng.integers(0, 40, n))}
            prev[0] += 1
            pair = build_distributions(trace_of(prev, now), 1, 1)
            counts = (pair.c_prev.astype(int).tolist(), pair.c_now.astype(int).tolist())
            for rho in (-1.0, -0.3, -1e-3, 0.0, 0.2, 1.0):
                joint = frechet_joint(pair, rho)
                rho_bound, theta, h_xy = exact_joint(*counts, rho)
                assert abs(joint.rho_bound - rho_bound) < 1e-12
                assert abs(joint.theta - theta) < 1e-12
                assert abs(entropies(pair, joint).h_xy - h_xy) < 1e-12
