import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from flashcrowd import detector, kernels
from flashcrowd.detector import DetectionPoint, Detector, FlagConfig, detect
from flashcrowd.generator import (
    ContentProfile,
    GeneratorConfig,
    PhaseKind,
    PhaseSchedule,
    generate,
)
from flashcrowd.trace import BinnedTrace
from util_joint import dense_joint, dense_rho_of_joint, exact_joint


def trace_of(*bins, width=1.0):
    return BinnedTrace(width, [dict(b) for b in bins], set())


Pair = namedtuple("Pair", "support c_prev c_now f g")


def pair_of(prev, now):
    """The support, count vectors and marginals that ``Detector.update``
    compares for the bins (prev, now)."""
    support = detector._support(prev, now)
    c_prev = np.array([prev.get(c, 0) for c in support], dtype=np.float64)
    c_now = np.array([now.get(c, 0) for c in support], dtype=np.float64)
    f, g = detector._marginal(c_prev), detector._marginal(c_now)
    return Pair(tuple(support), c_prev, c_now, f, g)


def sample_rho(prev, now):
    """Pearson coefficient of the count vectors the detector compares."""
    pair = pair_of(prev, now)
    return kernels.pearson_counts(pair.c_prev, pair.c_now)


def point_of(prev, now):
    """The detector's only point on the two-bin trace (prev, now)."""
    (point,) = detect(trace_of(prev, now), w=1).points
    assert point.t == 1
    return point


def expect_degenerate(pair, rho):
    """A degenerate mix is expected exactly when rho != 0 and a marginal is a
    point mass: its variance is 0, so no Frechet extreme can correlate."""
    return rho != 0.0 and max(pair.f.max(), pair.g.max()) == 1.0


class TestBuildDistributions:
    def test_single_content(self):
        pair = pair_of({7: 4}, {7: 4})
        assert pair.support == (7,)
        assert pair.f.tolist() == [1.0] and pair.g.tolist() == [1.0]

    def test_normalization(self):
        pair = pair_of({1: 3, 2: 1}, {1: 1, 2: 3})
        assert pair.f.tolist() == [0.75, 0.25]
        assert pair.g.tolist() == [0.25, 0.75]

    def test_disjoint_supports(self):
        pair = pair_of({1: 2}, {2: 2})
        assert pair.support == (1, 2)
        assert pair.f.tolist() == [1.0, 0.0]
        assert pair.g.tolist() == [0.0, 1.0]

    def test_empty_pair_has_empty_support(self):
        # Detector.update gives no point for such a pair.
        assert detector._support({}, {}) == []
        assert detector._support({3: 0}, {3: 0, 5: 0}) == []

    def test_one_sided_empty_bin_uniform(self):
        pair = pair_of({}, {1: 2, 5: 2})
        assert pair.f.tolist() == [0.5, 0.5]

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            prev = {int(c): int(n) for c, n in zip(rng.integers(0, 30, 6), rng.integers(1, 9, 6))}
            now = {int(c): int(n) for c, n in zip(rng.integers(0, 30, 6), rng.integers(1, 9, 6))}
            pair = pair_of(prev, now)
            assert abs(pair.f.sum() - 1) < 1e-12 and abs(pair.g.sum() - 1) < 1e-12


class TestSampleRho:
    def test_antithetic_counts(self):
        # Direct evaluation of the correlation formula gives -1.
        assert sample_rho({0: 3, 1: 1}, {0: 1, 1: 3}) == pytest.approx(-1.0, abs=1e-12)

    def test_identical_counts(self):
        assert sample_rho({0: 3, 1: 1}, {0: 3, 1: 1}) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rule(self):
        assert sample_rho({0: 2, 1: 2}, {0: 1, 1: 3}) == 0.0


class TestFrechetJoint:
    def test_independent_product(self):
        pair = pair_of({1: 3, 2: 1}, {1: 1, 2: 3})
        joint = kernels.frechet_mix(pair.f, pair.g, 0.0)
        assert np.allclose(dense_joint(joint, pair.f, pair.g), np.outer(pair.f, pair.g), atol=0)
        assert joint.theta == 0.0

    def test_antithetic_lower_bound(self):
        # Hand evaluation: f=[.75,.25], g=[.25,.75], rho=-1 puts all mass on
        # the antidiagonal and the lower-extreme correlation is exactly -1.
        pair = pair_of({1: 3, 2: 1}, {1: 1, 2: 3})
        joint = kernels.frechet_mix(pair.f, pair.g, -1.0)
        assert joint.rho_bound == pytest.approx(-1.0, abs=1e-12)
        assert joint.theta == pytest.approx(1.0, abs=1e-12)
        expected = np.array([[0.0, 0.75], [0.25, 0.0]])
        assert np.allclose(dense_joint(joint, pair.f, pair.g), expected, atol=1e-12)

    def test_comonotone_upper_bound(self):
        # f = g and rho = 1: the upper extreme is the diagonal coupling.
        pair = pair_of({1: 1, 2: 3}, {1: 1, 2: 3})
        joint = kernels.frechet_mix(pair.f, pair.g, 1.0)
        assert joint.theta == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dense_joint(joint, pair.f, pair.g), np.diag(pair.f), atol=1e-12)

    def test_marginals_preserved_and_rho_targeted(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            cp = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
            cn = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
            if sum(cp.values()) == 0 and sum(cn.values()) == 0:
                continue
            pair = pair_of(cp, cn)
            lo_mix = kernels.frechet_mix(pair.f, pair.g, -1e-9)
            hi_mix = kernels.frechet_mix(pair.f, pair.g, 1e-9)
            for mix, rho in ((lo_mix, -1e-9), (hi_mix, 1e-9)):
                assert (mix.status == kernels.MIX_DEGENERATE) == expect_degenerate(pair, rho)
            lo, hi = lo_mix.rho_bound, hi_mix.rho_bound
            assert lo <= 0.0 <= hi
            for bound, sign in ((lo, -1), (hi, 1)):
                if bound == 0.0:
                    continue
                rho = sign * float(rng.random()) * abs(bound)
                joint = kernels.frechet_mix(pair.f, pair.g, rho)
                p = dense_joint(joint, pair.f, pair.g)
                assert np.max(np.abs(p.sum(axis=1) - pair.f)) < 1e-9
                assert np.max(np.abs(p.sum(axis=0) - pair.g)) < 1e-9
                assert abs(p.sum() - 1.0) < 1e-9
                assert 0.0 <= joint.theta <= 1.0
                rho_hat = dense_rho_of_joint(p, pair.f, pair.g)
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
        pair = pair_of({0: 1, 1: 2}, {0: 2, 1: 3})
        rho = sample_rho({0: 1, 1: 2}, {0: 2, 1: 3})
        assert rho == pytest.approx(1.0)
        joint = kernels.frechet_mix(pair.f, pair.g, rho)
        assert abs(joint.rho_bound) < 1.0
        assert joint.theta == 1.0
        assert (dense_joint(joint, pair.f, pair.g) >= -1e-15).all()

    def test_degenerate_bound_warns_and_falls_back(self):
        pair = pair_of({1: 4}, {1: 4})
        joint = kernels.frechet_mix(pair.f, pair.g, 0.5)
        assert joint.status == kernels.MIX_DEGENERATE
        assert dense_joint(joint, pair.f, pair.g).tolist() == [[1.0]]


class TestEntropies:
    """Entropies and C of the points that ``detect`` reports."""

    def test_single_content_all_zero(self):
        pt = point_of({0: 5}, {0: 2})
        assert pt.h_x == pt.h_y == pt.h_xy == pt.c_xy == 0.0
        assert pt.n == 1

    def test_independent_uniform_n4(self):
        pt = point_of({0: 2, 1: 2, 2: 2, 3: 2}, {0: 3, 1: 3, 2: 3, 3: 3})
        assert pt.h_x == pytest.approx(2.0, abs=1e-12)
        assert pt.h_y == pytest.approx(2.0, abs=1e-12)
        assert pt.h_xy == pytest.approx(4.0, abs=1e-12)
        assert pt.c_xy == pytest.approx(0.0, abs=1e-12)

    def test_antithetic_case_entropy(self):
        # H(X) = H(Y) = H(X,Y) = -(3/4 log 3/4 + 1/4 log 1/4) ~ 0.8113 bits.
        pt = point_of({1: 3, 2: 1}, {1: 1, 2: 3})
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
            if not any(cp.values()) and not any(cn.values()):
                assert detect(trace_of(cp, cn), w=1).points == []
                continue
            pt = point_of(cp, cn)
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
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="^window w must be positive$"):
            Detector(w=0)

    def test_trace_no_longer_than_the_window_is_rejected(self):
        with pytest.raises(ValueError, match="^trace horizon must exceed the window w$"):
            detect(trace_of({0: 1}, {0: 2}), w=2)

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

    def test_event_open_at_the_last_point_ends_there(self):
        # The same onset, but the hot bins run to the end of the trace: the
        # event never closes, so it ends at the last point's t.
        quiet, hot = {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 3}
        bins = [quiet] * 6 + [hot, {0: 2, 1: 3, 2: 5}] * 4
        series = detect(BinnedTrace(1.0, bins, set()), w=1, flag_cfg=FlagConfig(m=2, warmup=5))
        assert series.events == [(7, 13)]

    def test_degenerate_pair_counted_not_warned(self):
        # f is a point mass and the sample rho is -1: no extreme correlates,
        # so the detector counts the point and warns nothing.
        trace = trace_of({0: 3}, {0: 1, 1: 2})
        det = Detector(w=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = [det.update(counts) for counts in trace.bins]
        assert caught == []
        assert det.degenerate_points == 1 and points[0] is None and points[1] is not None
        pair = pair_of(*trace.bins)
        assert kernels.frechet_mix(pair.f, pair.g, -1.0).status == kernels.MIX_DEGENERATE

    def test_online_matches_batch(self):
        trace = generate(flash_config(2, horizon=600, up=(200, 260), down=(420, 480)))
        det = Detector(w=1, flag_cfg=FlagConfig(warmup=80))
        online = [det.update(trace.bins[t]) for t in range(trace.horizon)]
        batch = detect(trace, w=1, flag_cfg=FlagConfig(warmup=80))
        assert [p for p in online if p is not None] == batch.points
        assert det.events() == batch.events

    @pytest.mark.parametrize("gap_merge", [0, 1, 60])
    def test_event_active_holds_gap_merge_bins_past_the_last_in_event_bin(self, gap_merge):
        # The replay once kept this rule itself: the bin t (1-based) is
        # active while t is within gap_merge bins of the last bin after whose
        # update the flagger was in an event. Three empty bins in a row give
        # skipped pairs, in events and between them.
        bins = list(generate(flash_config(2, horizon=600, up=(200, 260), down=(420, 480))).bins)
        for start in (150, 178, 300, 481, 522):
            bins[start:start + 3] = [{}] * 3
        det = Detector(w=1, flag_cfg=FlagConfig(k=2.0, m=2, warmup=80, gap_merge=gap_merge))
        last_in_event, held = -(10**9), 0
        for t, counts in enumerate(bins, start=1):
            det.update(counts)
            if det._flagger.in_event:
                last_in_event = t
            assert det.event_active == (t - last_in_event <= gap_merge), t
            held += det.event_active and not det._flagger.in_event
        assert len(det.events()) == (7 if gap_merge < 60 else 1)
        assert held == {0: 0, 1: 7, 60: 193}[gap_merge]


def kernel_point(prev, now):
    """The point at t = 1 of the pair (prev, now) by the kernel path:
    marginals, Pearson coefficient and Frechet mix; with the mix's status."""
    pair = pair_of(prev, now)
    mix = kernels.frechet_mix(pair.f, pair.g, kernels.pearson_counts(pair.c_prev, pair.c_now))
    c_xy = mix.h_x + mix.h_y - mix.h_xy
    return DetectionPoint(1, mix.h_x, mix.h_y, mix.h_xy, c_xy, len(pair.support)), mix.status


class TestOneContentPoint:
    """A pair whose support is one content gives the kernel path's point,
    zero signs included, without calling a kernel."""

    PAIRS = [
        ({4: 3}, {}),  # in the previous bin only
        ({}, {4: 3}),  # in the current bin only
        ({4: 3}, {4: 5}),  # in both
        ({4: 3, 1: 0}, {2: 0}),  # zero-count entries for other contents
        ({0: 0, 9: 0}, {4: 2}),
        ({4: 1, 7: 0}, {7: 0, 4: 6, 2: 0}),
    ]

    @staticmethod
    def signed(point):
        return [(f, math.copysign(1.0, getattr(point, f))) for f in ("h_x", "h_y", "h_xy", "c_xy")]

    @pytest.mark.parametrize("prev, now", PAIRS)
    def test_matches_kernel_path(self, prev, now, monkeypatch):
        expected, status = kernel_point(prev, now)
        assert status == kernels.MIX_OK and expected.n == 1

        def no_kernel(*_args):
            raise AssertionError("a one-content point calls no kernel")

        monkeypatch.setattr(kernels, "frechet_mix", no_kernel)
        monkeypatch.setattr(kernels, "pearson_counts", no_kernel)
        det = Detector(w=1)
        assert det.update(prev) is None
        point = det.update(now)
        assert repr(point) == repr(expected)
        assert self.signed(point) == self.signed(expected)
        assert det.degenerate_points == 0

    def test_all_zero_pair_gives_no_point(self):
        det = Detector(w=1)
        assert det.update({3: 0}) is None
        assert det.update({3: 0, 5: 0}) is None
        assert det.degenerate_points == 0


def random_pairs(count, seed=23):
    """count seeded pairs of 2-12 contents whose support has two or more."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 13))
        prev = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
        now = {i: int(c) for i, c in enumerate(rng.integers(0, 10, n))}
        if sum(1 for i in range(n) if prev[i] or now[i]) >= 2:
            pairs.append((prev, now))
    return pairs


class TestManyContentPoint:
    """A pair whose support is two or more contents gives the kernel path's
    point, and a degenerate mix is counted."""

    PAIRS = [
        ({}, {1: 2, 5: 2}),  # a one-sided empty bin
        ({0: 3}, {0: 1, 1: 2}),  # degenerate
        ({0: 1, 1: 2}, {0: 2, 1: 3}),  # clamped
        ({1: 3, 2: 1}, {1: 1, 2: 3}),  # antithetic
        *random_pairs(20),
    ]

    @pytest.mark.parametrize("prev, now", PAIRS)
    def test_matches_kernel_path(self, prev, now):
        expected, status = kernel_point(prev, now)
        assert expected.n >= 2
        det = Detector(w=1)
        assert det.update(prev) is None
        assert repr(det.update(now)) == repr(expected)
        assert det.degenerate_points == (status == kernels.MIX_DEGENERATE)

    def test_pairs_cover_every_status(self):
        statuses = [kernel_point(prev, now)[1] for prev, now in self.PAIRS]
        assert statuses[1:3] == [kernels.MIX_DEGENERATE, kernels.MIX_CLAMPED]
        assert set(statuses) == {kernels.MIX_OK, kernels.MIX_DEGENERATE, kernels.MIX_CLAMPED}


class TestExactOracle:
    """rho_bound, theta and H(X, Y) against the rational staircase oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 300])
    def test_matches_exact_staircase(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3 if n < 300 else 1):
            prev = {i: int(c) for i, c in enumerate(rng.integers(0, 40, n))}
            now = {i: int(c) for i, c in enumerate(rng.integers(0, 40, n))}
            prev[0] += 1
            pair = pair_of(prev, now)
            counts = (pair.c_prev.astype(int).tolist(), pair.c_now.astype(int).tolist())
            for rho in (-1.0, -0.3, -1e-3, 0.0, 0.2, 1.0):
                joint = kernels.frechet_mix(pair.f, pair.g, rho)
                rho_bound, theta, h_xy = exact_joint(*counts, rho)
                assert abs(joint.rho_bound - rho_bound) < 1e-12
                assert abs(joint.theta - theta) < 1e-12
                assert abs(joint.h_xy - h_xy) < 1e-12
