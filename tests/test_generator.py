import math

import numpy as np
import pytest
import scipy.stats

from flashcrowd import kernels
from flashcrowd.generator import (
    ContentProfile,
    GeneratorConfig,
    OutOfWindow,
    PhaseKind,
    PhaseSchedule,
    flash_windows,
    generate,
    mixing_weight,
    read_generator_config,
    shape_at,
)

UP = PhaseKind.RAMP_UP
DOWN = PhaseKind.RAMP_DOWN


class TestMixingWeight:
    def test_ramp_up_endpoints(self):
        ph = PhaseSchedule(10, 20, 0.3, UP)
        assert mixing_weight(ph, 10) == 1.0
        assert mixing_weight(ph, 20) == 0.0

    def test_ramp_down_endpoints(self):
        ph = PhaseSchedule(10, 20, 0.3, DOWN)
        assert mixing_weight(ph, 10) == 0.0
        assert mixing_weight(ph, 20) == 1.0

    def test_ramp_down_midpoint_value(self):
        # Direct evaluation of the exponential schedule.
        ph = PhaseSchedule(0, 10, 0.5, DOWN)
        expected = (math.exp(0.5 * 5) - 1) / (math.exp(0.5 * 10) - 1)
        assert mixing_weight(ph, 5) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.07585818, abs=1e-8)

    def test_out_of_window(self):
        ph = PhaseSchedule(10, 20, 0.3, UP)
        with pytest.raises(OutOfWindow):
            mixing_weight(ph, 9)
        with pytest.raises(OutOfWindow):
            mixing_weight(ph, 21)

    def test_monotone_over_windows(self):
        up = PhaseSchedule(0, 50, 0.07, UP)
        down = PhaseSchedule(0, 50, 0.07, DOWN)
        yu = [mixing_weight(up, t) for t in range(51)]
        yd = [mixing_weight(down, t) for t in range(51)]
        assert all(a >= b for a, b in zip(yu, yu[1:]))
        assert all(a <= b for a, b in zip(yd, yd[1:]))

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            PhaseSchedule(5, 5, 0.1, UP)
        with pytest.raises(ValueError):
            PhaseSchedule(0, 5, 0.0, UP)


class TestShapeAt:
    def prof(self, phases=()):
        return ContentProfile(content=0, u_max=10, alpha0=2.0, beta0=8.0, phases=phases)

    def test_convex_combination_endpoints(self):
        prof = self.prof((PhaseSchedule(10, 20, 0.5, UP),))
        assert shape_at(prof, 10) == (2.0, 8.0)  # y = 1
        assert shape_at(prof, 20) == (8.0, 2.0)  # y = 0: swapped pair

    def test_midpoint_combination(self):
        # y = 0.5 would give (5, 5); check via a symmetric schedule value.
        prof = self.prof((PhaseSchedule(0, 10, 0.5, UP),))
        y = mixing_weight(prof.phases[0], 4)
        a, b = shape_at(prof, 4)
        assert a == pytest.approx(y * 2.0 + (1 - y) * 8.0)
        assert a + b == pytest.approx(10.0)

    def test_before_between_and_after_phases(self):
        prof = self.prof(
            (PhaseSchedule(10, 20, 0.5, UP), PhaseSchedule(40, 50, 0.5, DOWN))
        )
        assert shape_at(prof, 0) == (2.0, 8.0)
        assert shape_at(prof, 30) == (8.0, 2.0)  # sustained: holds surge shape
        assert shape_at(prof, 60) == (2.0, 8.0)  # back to baseline

    def test_sum_invariant_through_all_phases(self):
        prof = self.prof(
            (PhaseSchedule(5, 15, 0.2, UP), PhaseSchedule(25, 35, 0.2, DOWN))
        )
        for t in range(40):
            a, b = shape_at(prof, t)
            assert a + b == pytest.approx(10.0, abs=1e-12)
            assert a > 0 and b > 0


class TestSampleCount:
    def test_support_bound(self):
        counts, _ = kernels.beta_counts(
            np.full(200, 0.5), np.full(200, 6.0), 23, kernels.stream_key(1, 0), 0
        )
        assert ((0 <= counts) & (counts <= 23)).all()

    def test_moment_against_beta_mean(self):
        # Empirical mean over 1e5 draws vs u_max * a/(a+b).
        a, b, u = 8.0, 2.0, 60
        counts, _ = kernels.beta_counts(
            np.full(100000, a), np.full(100000, b), u, kernels.stream_key(11, 3), 0
        )
        assert abs(counts.mean() - u * a / (a + b)) / (u * a / (a + b)) < 0.02

    def test_uniform_case_chi_square(self):
        # a = b = 1: rounding v*U makes half-width cells at both edges.
        u_max = 10
        counts, _ = kernels.beta_counts(
            np.full(50000, 1.0), np.full(50000, 1.0), u_max, kernels.stream_key(4, 0), 0
        )
        observed = np.bincount(counts, minlength=u_max + 1)
        expected = np.full(u_max + 1, 1.0 / u_max)
        expected[0] = expected[-1] = 0.5 / u_max
        chi = scipy.stats.chisquare(observed, expected * observed.sum())
        assert chi.pvalue > 0.01


class TestGenerate:
    def config(self, seed=42):
        hot = [
            ContentProfile(
                i, 40, 1.5, 28.5,
                (PhaseSchedule(50, 80, 0.1, UP), PhaseSchedule(150, 180, 0.1, DOWN)),
            )
            for i in range(4)
        ]
        cold = [ContentProfile(10 + i, 40, 1.5, 28.5) for i in range(8)]
        return GeneratorConfig(hot + cold, horizon=220, bin_width=1.0, seed=seed)

    def test_deterministic(self):
        assert generate(self.config()) == generate(self.config())

    def test_seed_changes_output(self):
        assert generate(self.config(1)) != generate(self.config(2))

    def test_zero_contents(self):
        trace = generate(GeneratorConfig([], horizon=5, bin_width=1.0, seed=0))
        assert trace.horizon == 5 and trace.total_count() == 0

    def test_flash_contents_mean_rises_by_design_ratio(self):
        cfg = self.config()
        trace = generate(cfg)
        hot_ids = {p.content for p in cfg.contents if p.phases}
        pre = [
            sum(trace.bins[t].get(c, 0) for c in hot_ids) / len(hot_ids)
            for t in range(0, 50)
        ]
        sustained = [
            sum(trace.bins[t].get(c, 0) for c in hot_ids) / len(hot_ids)
            for t in range(80, 150)
        ]
        # Design means: 40 * 1.5/30 = 2 before, 40 * 28.5/30 = 38 during.
        assert abs(np.mean(pre) - 2.0) < 0.5
        assert abs(np.mean(sustained) - 38.0) < 0.5

    def test_phase_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(
                [ContentProfile(0, 5, 1, 2, (PhaseSchedule(1, 10, 0.1, UP),))],
                horizon=5,
                bin_width=1.0,
                seed=0,
            )

    def test_flash_windows(self):
        cfg = self.config()
        assert flash_windows(cfg) == [(50, 180)]


def test_read_generator_config(tmp_path):
    text = """
[generator]
horizon = 100
bin_width = 2
seed = 9

[content.0]
u_max = 30
alpha0 = 1.5
beta0 = 28.5
phases = up:10:20:0.1 down:60:70:0.1
replicate = 3

[content.10]
u_max = 30
alpha0 = 1.5
beta0 = 28.5
"""
    path = tmp_path / "gen.ini"
    path.write_text(text)
    cfg = read_generator_config(str(path))
    assert cfg.horizon == 100 and cfg.bin_width == 2.0 and cfg.seed == 9
    assert [p.content for p in cfg.contents] == [0, 1, 2, 10]
    assert cfg.contents[0].phases[0].kind is UP
    assert cfg.contents[3].phases == ()
    assert generate(cfg) == generate(read_generator_config(str(path)))
    override = read_generator_config(str(path), seed=77)
    assert override.seed == 77
