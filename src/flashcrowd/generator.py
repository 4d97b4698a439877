"""Synthetic flash-crowd trace generator.

Per-bin access counts are drawn from beta distributions whose shape drifts
through ramp-up, sustained, and ramp-down phases: inside a ramp window the
shape pair is a convex combination of the baseline (alpha0, beta0) and its
swap (beta0, alpha0), weighted by an exponential schedule. Draws are scaled
by the content's u_max and rounded half-to-even.

Sampling runs on a counter-based stream keyed by (seed, content position),
so output is identical across runs and platforms.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .trace import BinnedTrace


class OutOfWindow(ValueError):
    """Queried a mixing weight outside the phase window."""


class BadValue(ValueError):
    """A generator value out of range; ``key`` names the INI key that sets it."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


class PhaseKind(enum.Enum):
    RAMP_UP = "up"
    RAMP_DOWN = "down"


@dataclass(frozen=True)
class PhaseSchedule:
    t0: int
    t1: int
    gamma: float
    kind: PhaseKind

    def __post_init__(self) -> None:
        if self.t0 >= self.t1:
            raise ValueError("phase requires t0 < t1")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


def mixing_weight(phase: PhaseSchedule, t: int) -> float:
    """Weight y in [0, 1] placing the shape between baseline and surge.

    Ramp-up decays from 1 at t0 to 0 at t1 so that 1 - y grows
    exponentially; ramp-down mirrors it, growing from 0 to 1.
    """
    if t < phase.t0 or t > phase.t1:
        raise OutOfWindow(f"t={t} outside [{phase.t0}, {phase.t1}]")
    g = phase.gamma
    span = math.exp(g * (phase.t1 - phase.t0)) - 1.0
    if phase.kind is PhaseKind.RAMP_UP:
        return (math.exp(g * (phase.t1 - phase.t0)) - math.exp(g * (t - phase.t0))) / span
    return (math.exp(g * (t - phase.t0)) - 1.0) / span


@dataclass(frozen=True)
class ContentProfile:
    content: int
    u_max: int
    alpha0: float
    beta0: float
    phases: tuple[PhaseSchedule, ...] = ()

    def __post_init__(self) -> None:
        if not self.u_max > 0:
            raise BadValue("u_max", "u_max must be a positive integer")
        if not (self.alpha0 > 0 and self.beta0 > 0):
            key = "beta0" if self.alpha0 > 0 else "alpha0"
            raise BadValue(key, "alpha0 and beta0 must be positive")
        last_end = -1
        for ph in self.phases:
            if ph.t0 <= last_end:
                raise BadValue("phases", "phases must be ordered and non-overlapping")
            last_end = ph.t1


def shape_at(profile: ContentProfile, t: int) -> tuple[float, float]:
    """Beta shape (alpha_t, beta_t) of a content at bin t.

    Before any phase the baseline holds; inside a window the convex
    combination applies; between windows the shape holds the last window's
    endpoint (so a ramp-up hands the surged shape to the sustained stretch).
    alpha_t + beta_t is invariant.
    """
    a0, b0 = profile.alpha0, profile.beta0
    alpha = a0
    for ph in profile.phases:
        if t < ph.t0:
            break
        if t <= ph.t1:
            y = mixing_weight(ph, t)
            alpha = y * a0 + (1.0 - y) * b0
        else:
            alpha = b0 if ph.kind is PhaseKind.RAMP_UP else a0
    return alpha, a0 + b0 - alpha


@dataclass
class GeneratorConfig:
    contents: list[ContentProfile]
    horizon: int
    bin_width: float
    seed: int

    def __post_init__(self) -> None:
        if not self.horizon >= 0:
            raise BadValue("horizon", "horizon must be nonnegative")
        if not self.bin_width > 0:
            raise BadValue("bin_width", "bin_width must be positive")
        for prof in self.contents:
            for ph in prof.phases:
                if ph.t1 >= self.horizon:
                    raise BadValue(
                        "horizon",
                        f"phase [{ph.t0}, {ph.t1}] of content {prof.content} "
                        f"exceeds horizon {self.horizon}"
                    )


def generate(config: GeneratorConfig) -> BinnedTrace:
    """Sample a full trace; deterministic given config.seed."""
    bins: list[dict[int, int]] = [dict() for _ in range(config.horizon)]
    catalog: set[int] = set()
    for idx, prof in enumerate(config.contents):
        catalog.add(prof.content)
        if config.horizon == 0:
            continue
        shapes = np.array([shape_at(prof, t) for t in range(config.horizon)])
        counts, _ = kernels.beta_counts(
            shapes[:, 0], shapes[:, 1], prof.u_max,
            kernels.stream_key(config.seed, idx), 0,
        )
        for t in range(config.horizon):
            c = int(counts[t])
            if c > 0:
                bins[t][prof.content] = c
    return BinnedTrace(bin_width=config.bin_width, bins=bins, catalog=catalog)


def flash_windows(config: GeneratorConfig) -> list[tuple[int, int]]:
    """Ground-truth surge windows: per-event (first ramp-up t0, ramp-down t1).

    Consecutive (up, down) phase pairs of any content form one event;
    overlapping events across contents are coalesced.
    """
    spans: list[tuple[int, int]] = []
    for prof in config.contents:
        start: int | None = None
        for ph in prof.phases:
            if ph.kind is PhaseKind.RAMP_UP and start is None:
                start = ph.t0
            elif ph.kind is PhaseKind.RAMP_DOWN and start is not None:
                spans.append((start, ph.t1))
                start = None
    spans.sort()
    merged: list[tuple[int, int]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(e, merged[-1][1]))
        else:
            merged.append((s, e))
    return merged


# ---------------------------------------------------------------------------
# Declarative config file (INI):
#
#   [generator]
#   horizon = 20000
#   bin_width = 1
#   seed = 42
#
#   [content.0]
#   u_max = 60
#   alpha0 = 2
#   beta0 = 28
#   phases = up:5000:7000:0.002 down:13000:15000:0.002
#   replicate = 10          ; optional: ids 0..9 share this profile
#
# `phases` is a whitespace-separated list of kind:t0:t1:gamma descriptors.
# ---------------------------------------------------------------------------


def _number(path: str, section, key: str, kind: type, default=None, text: str | None = None):
    """``[section] key`` of the file at ``path`` read as a finite ``kind``;
    an absent key gives ``default`` or, with no default, fails. ``text`` is
    a number taken from inside the key's compound value or from the section
    name."""
    if text is None:
        text = section.get(key)
        if text is None:
            if default is None:
                raise ValueError(f"{path}: missing key {key!r} in [{section.name}]")
            return default
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:  # false for nan too
        raise ValueError(f"{path}: [{section.name}] {key}: bad number {text!r}")
    return value


def _parse_phases(path: str, section) -> tuple[PhaseSchedule, ...]:
    phases = []
    for item in section.get("phases", "").split():
        parts = item.split(":")
        if len(parts) != 4:
            raise ValueError(f"{path}: [{section.name}] phases: bad phase descriptor {item!r}")
        kind, t0, t1, gamma = parts
        t0 = _number(path, section, "phases", int, text=t0)
        t1 = _number(path, section, "phases", int, text=t1)
        gamma = _number(path, section, "phases", float, text=gamma)
        try:
            phases.append(PhaseSchedule(t0, t1, gamma, PhaseKind(kind)))
        except ValueError as exc:
            raise ValueError(f"{path}: [{section.name}] phases: {exc}") from None
    return tuple(phases)


def read_generator_config(path: str, seed: int | None = None) -> GeneratorConfig:
    cp = configparser.ConfigParser(interpolation=None)  # a '%' in a value is text
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(str(exc)) from None  # names the file and line
    if "generator" not in cp:
        raise ValueError(f"{path}: missing [generator] section")
    gen = cp["generator"]
    contents: list[ContentProfile] = []
    for section in cp.sections():
        if not section.startswith("content."):
            continue
        sec = cp[section]
        base_id = _number(path, sec, "section id", int, text=section.split(".", 1)[1])
        replicate = _number(path, sec, "replicate", int, 1)
        if replicate < 1:
            raise ValueError(f"{path}: [{section}] replicate: replicate must be a positive integer")
        for offset in range(replicate):
            try:
                contents.append(
                    ContentProfile(
                        content=base_id + offset,
                        u_max=_number(path, sec, "u_max", int),
                        alpha0=_number(path, sec, "alpha0", float),
                        beta0=_number(path, sec, "beta0", float),
                        phases=_parse_phases(path, sec),
                    )
                )
            except BadValue as exc:
                raise ValueError(f"{path}: [{section}] {exc.key}: {exc}") from None
    contents.sort(key=lambda p: p.content)
    ids = [p.content for p in contents]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate content ids in generator config")
    try:
        return GeneratorConfig(
            contents=contents,
            horizon=_number(path, gen, "horizon", int),
            bin_width=_number(path, gen, "bin_width", float, 1.0),
            seed=seed if seed is not None else _number(path, gen, "seed", int, 0),
        )
    except BadValue as exc:
        raise ValueError(f"{path}: [generator] {exc.key}: {exc}") from None
