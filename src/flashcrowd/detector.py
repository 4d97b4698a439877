"""Flash-crowd detection via total correlation of access distributions.

For each bin t the detector compares the content-access distribution at t
with the one at t - w: it builds both marginals, estimates the Pearson
coefficient of the raw count vectors, models the joint distribution as a
convex combination of the independent product and the matching
Frechet-bound extreme (lower bound for negative correlation, upper for
positive), and reports marginal/joint entropies plus the total correlation
C = H(X) + H(Y) - H(X, Y). A content's value in the moments is its position
in the support. Flash crowds surface as sustained jumps of C above an
exponentially-weighted baseline.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .trace import BinnedTrace

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionPoint:
    """Entropies in bits at bin t, C = h_x + h_y - h_xy, support size n."""

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
    points: list[DetectionPoint]
    events: list[tuple[int, int]]


def _marginal(counts: np.ndarray) -> np.ndarray:
    """A bin's access distribution over the support; a bin with zero total
    is represented as uniform over the support."""
    total = counts.sum()
    if total == 0:
        return np.full(counts.shape, 1.0 / counts.shape[0])
    return counts / total


def _support(prev: dict[int, int], now: dict[int, int]) -> list[int]:
    """The ascending contents with nonzero counts in either bin, empty when
    neither has one; a content's position is its value in the moments."""
    return sorted({c for c, n in prev.items() if n > 0} | {c for c, n in now.items() if n > 0})


# The mix of every one-content pair: both marginals are [1.0], and the
# Pearson coefficient of two one-entry count vectors is 0.
_ONE_CONTENT_MIX = kernels.frechet_mix(np.ones(1), np.ones(1), 0.0)


class _Flagger:
    """Sequential event flagging over the C series."""

    def __init__(self, cfg: FlagConfig) -> None:
        self.cfg = cfg
        self.mu = 0.0
        self.var = 0.0
        self.seen = 0
        self.alpha = 2.0 / (cfg.warmup + 1.0)
        self.in_event = False
        self.closed_at = -(10**9)  # t of the point that closed the last event
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
                    self.closed_at = t
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
    """Incremental detector over the last w + 1 bins: feed bins in order,
    read each point as ``update`` returns it and the events from ``events``."""

    def __init__(self, w: int = 1, flag_cfg: FlagConfig | None = None) -> None:
        if w <= 0:
            raise ValueError("window w must be positive")
        self.w = w
        self.cfg = flag_cfg or FlagConfig()
        self.degenerate_points = 0
        self._flagger = _Flagger(self.cfg)
        self._history: deque[dict[int, int]] = deque(maxlen=w + 1)
        self._t = -1
        self._last_point_t = w

    def update(self, counts: dict[int, int]) -> DetectionPoint | None:
        """Consume the next bin; returns its point once t >= w.

        A pair of two empty bins has an empty support and is skipped: no
        point is recorded and the flagging streaks are left untouched. A
        pair whose support is one content has both marginals [1.0] and a
        Pearson coefficient of 0, so its point is the same for every such
        pair: it takes the mix the kernels give once at import (C = 0,
        status OK) and calls none.
        """
        self._t += 1
        self._history.append(counts)
        if self._t < self.w:
            return None
        prev, now = self._history[0], self._history[-1]
        support = _support(prev, now)
        if not support:
            return None
        if len(support) == 1:
            mix = _ONE_CONTENT_MIX
        else:
            c_prev = np.array([prev.get(c, 0) for c in support], dtype=np.float64)
            c_now = np.array([now.get(c, 0) for c in support], dtype=np.float64)
            rho = kernels.pearson_counts(c_prev, c_now)
            mix = kernels.frechet_mix(_marginal(c_prev), _marginal(c_now), rho)
            if mix.status == kernels.MIX_CLAMPED:
                logger.debug(
                    "sample rho %.4g beyond attainable bound %.4g; theta clamped",
                    rho, mix.rho_bound,
                )
        # Point-mass marginals collapse the bound correlation to 0 on sparse
        # bins; that is routine in long replays, so count instead of warn.
        if mix.status == kernels.MIX_DEGENERATE:
            self.degenerate_points += 1
        point = DetectionPoint(
            t=self._t,
            h_x=mix.h_x,
            h_y=mix.h_y,
            h_xy=mix.h_xy,
            c_xy=mix.h_x + mix.h_y - mix.h_xy,
            n=len(support),
        )
        self._last_point_t = point.t
        self._flagger.observe(point.t, point.c_xy)
        return point

    @property
    def event_active(self) -> bool:
        """True in an event and for gap_merge bins after the point that
        closed the last one, so that short dips between spikes do not flap
        capacity."""
        return self._flagger.in_event or self._t - self._flagger.closed_at < self.cfg.merge_gap

    def events(self) -> list[tuple[int, int]]:
        """The events so far, merged; one still open ends at the last point."""
        return self._flagger.finalize(self._last_point_t)


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
    points = [p for p in map(det.update, trace.bins) if p is not None]
    return DetectionSeries(points, det.events())
