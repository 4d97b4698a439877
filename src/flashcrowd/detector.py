"""Flash-crowd detection via total correlation of access distributions.

For each bin t the detector compares the content-access distribution at t
with the one at t - w: it builds both marginals, estimates the Pearson
coefficient of the raw count vectors, models the joint distribution as a
convex combination of the independent product and the matching
Frechet-bound extreme (lower bound for negative correlation, upper for
positive), and reports marginal/joint entropies plus the total correlation
C = H(X) + H(Y) - H(X, Y). Flash crowds surface as sustained jumps of C
above an exponentially-weighted baseline.
"""

from __future__ import annotations

import logging
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .trace import BinnedTrace

logger = logging.getLogger(__name__)


class EmptyBin(ValueError):
    """Both bins of a comparison pair have zero accesses."""


class DegenerateBound(UserWarning):
    """Frechet-extreme correlation was 0 while the sample one was not."""


@dataclass(frozen=True)
class DistributionPair:
    """Marginals of the accesses at t - w (f) and t (g).

    The support is the ascending union of contents with nonzero counts in
    either bin; a content's position in it is its value in the moments.
    A bin with zero total is represented as uniform over the support.
    """

    support: tuple[int, ...]
    c_prev: np.ndarray
    c_now: np.ndarray
    f: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class JointModel:
    """theta * P_b + (1 - theta) * f g^T and its entropies in bits.

    P_b, the Frechet extreme, is kept as its staircase: ``mass[k]`` on cell
    (``rows[k]``, ``cols[k]``), nothing elsewhere.
    """

    rho: float
    rho_bound: float
    theta: float
    h_x: float
    h_y: float
    h_xy: float
    f: np.ndarray
    g: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """The dense n x n joint, for inspection; detection never builds it."""
        p = (1.0 - self.theta) * np.outer(self.f, self.g)
        p[self.rows, self.cols] += self.theta * self.mass
        return p


@dataclass(frozen=True)
class DetectionPoint:
    t: int
    h_x: float
    h_y: float
    h_xy: float
    c_xy: float
    n: int


@dataclass(frozen=True)
class FlagConfig:
    """Event-flagging knobs (the detection math itself has none).

    Onset: C above mu + k*sigma of the running baseline for m consecutive
    points; end: C at or below the threshold frozen at onset for m
    consecutive points; events closer than gap_merge bins are merged; the
    baseline needs warmup points before flagging starts.
    """

    k: float = 3.0
    m: int = 3
    gap_merge: int | None = None
    warmup: int = 200

    @property
    def merge_gap(self) -> int:
        return 5 * self.m if self.gap_merge is None else self.gap_merge


@dataclass
class DetectionSeries:
    window: int
    points: list[DetectionPoint] = field(default_factory=list)
    events: list[tuple[int, int]] = field(default_factory=list)


def _marginal(counts: np.ndarray) -> np.ndarray:
    total = counts.sum()
    if total == 0:
        return np.full(counts.shape, 1.0 / counts.shape[0])
    return counts / total


def _pair_from_bins(prev: dict[int, int], now: dict[int, int]) -> DistributionPair:
    support = sorted(
        {c for c, n in prev.items() if n > 0} | {c for c, n in now.items() if n > 0}
    )
    if not support:
        raise EmptyBin("no accesses in either bin")
    c_prev = np.array([prev.get(c, 0) for c in support], dtype=np.float64)
    c_now = np.array([now.get(c, 0) for c in support], dtype=np.float64)
    return DistributionPair(
        support=tuple(support),
        c_prev=c_prev,
        c_now=c_now,
        f=_marginal(c_prev),
        g=_marginal(c_now),
    )


def build_distributions(trace: BinnedTrace, t: int, w: int) -> DistributionPair:
    if w <= 0:
        raise ValueError("window w must be positive")
    if t < w or t >= trace.horizon:
        raise ValueError(f"need w <= t < horizon, got t={t}")
    return _pair_from_bins(trace.bins[t - w], trace.bins[t])


def sample_rho(trace: BinnedTrace, t: int, w: int) -> float:
    """Pearson coefficient of the two count vectors over the union support.

    Zero variance on either side yields 0 (no measurable association).
    """
    pair = build_distributions(trace, t, w)
    return float(kernels.pearson_counts(pair.c_prev, pair.c_now))


def _joint(pair: DistributionPair, rho: float) -> tuple[JointModel, int]:
    """The joint model and the ``kernels.MIX_*`` status of its construction."""
    vals = np.arange(len(pair.support), dtype=np.float64)
    mix = kernels.frechet_mix(pair.f, pair.g, rho, vals, vals)
    if mix.status == kernels.MIX_CLAMPED:
        logger.debug(
            "sample rho %.4g beyond attainable bound %.4g; theta clamped", rho, mix.rho_bound
        )
    joint = JointModel(
        rho=rho,
        rho_bound=mix.rho_bound,
        theta=mix.theta,
        h_x=mix.h_x,
        h_y=mix.h_y,
        h_xy=mix.h_xy,
        f=pair.f,
        g=pair.g,
        rows=mix.rows,
        cols=mix.cols,
        mass=mix.mass,
    )
    return joint, mix.status


def frechet_joint(pair: DistributionPair, rho: float) -> JointModel:
    """Joint model targeting the sample correlation.

    With rho < 0 the lower Frechet extreme is mixed with the independent
    product, with rho > 0 the upper one; theta is chosen so the Pearson
    coefficient of the constructed joint equals rho. Content values in the
    moment computation are positions in the support. A sample rho beyond
    the attainable extreme clamps theta to 1; a zero extreme with nonzero
    rho falls back to the product and warns.
    """
    joint, status = _joint(pair, float(rho))
    if status == kernels.MIX_DEGENERATE:
        warnings.warn(
            f"degenerate Frechet bound (rho={rho:.4g}); using independent joint",
            DegenerateBound,
            stacklevel=2,
        )
    return joint


def entropies(pair: DistributionPair, joint: JointModel, t: int = 0) -> DetectionPoint:
    """Marginal/joint entropies in bits (0 log 0 := 0) and total correlation."""
    return DetectionPoint(
        t=t,
        h_x=joint.h_x,
        h_y=joint.h_y,
        h_xy=joint.h_xy,
        c_xy=joint.h_x + joint.h_y - joint.h_xy,
        n=len(pair.support),
    )


def point_at(trace: BinnedTrace, t: int, w: int) -> DetectionPoint:
    """Full per-bin computation: distributions, rho, joint, entropies."""
    pair = build_distributions(trace, t, w)
    rho = float(kernels.pearson_counts(pair.c_prev, pair.c_now))
    joint = frechet_joint(pair, rho)
    return entropies(pair, joint, t)


class _Flagger:
    """Sequential event flagging over the C series."""

    def __init__(self, cfg: FlagConfig) -> None:
        self.cfg = cfg
        self.mu = 0.0
        self.var = 0.0
        self.seen = 0
        self.alpha = 2.0 / (cfg.warmup + 1.0)
        self.in_event = False
        self.frozen_threshold = 0.0
        self.streak = 0
        self.streak_start = -1
        self.events: list[tuple[int, int]] = []
        self._open_start = -1

    def _update_baseline(self, c: float) -> None:
        if self.seen == 0:
            self.mu = c
            self.var = 0.0
        else:
            diff = c - self.mu
            incr = self.alpha * diff
            self.mu += incr
            self.var = (1.0 - self.alpha) * (self.var + diff * incr)
        self.seen += 1

    def observe(self, t: int, c: float) -> None:
        threshold = self.mu + self.cfg.k * self.var**0.5
        if self.in_event:
            if c <= self.frozen_threshold:
                if self.streak == 0:
                    self.streak_start = t
                self.streak += 1
                if self.streak >= self.cfg.m:
                    self.events.append((self._open_start, self.streak_start))
                    self.in_event = False
                    self.streak = 0
            else:
                self.streak = 0
            return
        if self.seen >= self.cfg.warmup and c > threshold:
            if self.streak == 0:
                self.streak_start = t
                self.frozen_threshold = threshold
            self.streak += 1
            if self.streak >= self.cfg.m:
                self._open_start = self.streak_start
                self.in_event = True
                self.streak = 0
            return
        self.streak = 0
        self._update_baseline(c)

    def finalize(self, last_t: int) -> list[tuple[int, int]]:
        events = list(self.events)
        if self.in_event:
            events.append((self._open_start, last_t))
        merged: list[tuple[int, int]] = []
        for s, e in events:
            if merged and s - merged[-1][1] < self.cfg.merge_gap:
                merged[-1] = (merged[-1][0], e)
            else:
                merged.append((s, e))
        return merged


class Detector:
    """Incremental detector; feed bins in order, read points and events."""

    def __init__(self, w: int = 1, flag_cfg: FlagConfig | None = None) -> None:
        if w <= 0:
            raise ValueError("window w must be positive")
        self.w = w
        self.cfg = flag_cfg or FlagConfig()
        self.points: list[DetectionPoint] = []
        self.degenerate_points = 0
        self._flagger = _Flagger(self.cfg)
        self._history: deque[dict[int, int]] = deque(maxlen=w + 1)
        self._t = -1

    def update(self, counts: dict[int, int]) -> DetectionPoint | None:
        """Consume the next bin; returns its point once t >= w.

        An empty comparison pair is skipped: no point is recorded and the
        flagging streaks are left untouched.
        """
        self._t += 1
        self._history.append(counts)
        if self._t < self.w:
            return None
        try:
            pair = _pair_from_bins(self._history[0], self._history[-1])
        except EmptyBin:
            return None
        rho = float(kernels.pearson_counts(pair.c_prev, pair.c_now))
        joint, status = _joint(pair, rho)
        # Point-mass marginals collapse the bound correlation to 0 on sparse
        # bins; that is routine in long replays, so count instead of warn.
        if status == kernels.MIX_DEGENERATE:
            self.degenerate_points += 1
        point = entropies(pair, joint, self._t)
        self.points.append(point)
        self._flagger.observe(point.t, point.c_xy)
        return point

    @property
    def event_active(self) -> bool:
        return self._flagger.in_event

    def series(self) -> DetectionSeries:
        last_t = self.points[-1].t if self.points else self.w
        return DetectionSeries(
            window=self.w,
            points=list(self.points),
            events=self._flagger.finalize(last_t),
        )


def detect(
    trace: BinnedTrace, w: int = 1, flag_cfg: FlagConfig | None = None
) -> DetectionSeries:
    """Run the detector over a full trace.

    Pure function of its inputs: identical arguments give an identical
    series. Bins whose comparison pair is empty are skipped.
    """
    if trace.horizon <= w:
        raise ValueError("trace horizon must exceed the window w")
    det = Detector(w=w, flag_cfg=flag_cfg)
    for t in range(trace.horizon):
        det.update(trace.bins[t])
    return det.series()


def write_points_csv(series: DetectionSeries, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,h_x,h_y,h_xy,c_xy\n")
        for p in series.points:
            fh.write(f"{p.t},{p.h_x:.12g},{p.h_y:.12g},{p.h_xy:.12g},{p.c_xy:.12g}\n")


def write_events_csv(series: DetectionSeries, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("start,end\n")
        for s, e in series.events:
            fh.write(f"{s},{e}\n")
