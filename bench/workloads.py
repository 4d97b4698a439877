"""The benchmark's three workloads.

Each workload splits its work the same way:

* ``setup_inputs`` and ``pass_inputs``: the benchmark's own input
  generation, never timed;
* ``prepare``: program-side set-up before the timed pass, timed as part of
  ``setup_s``;
* ``instrument``: patches the module attributes whose calls a pass counts
  (all of them when the pass is traced) and returns the pass's probe;
* ``run_pass``: one timed pass;
* ``check``, ``digest`` and ``outcome``: untimed output checks, the value
  compared between repeated passes, and the deterministic results;
* ``layer_metrics``: per-layer numbers from the traced passes.

The workloads call into the program through module attributes (``sim.``,
``trace.``, ``ils.``), so the patches installed by ``instrument`` apply.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from flashcrowd import detector, generator, ils, kernels, model, sim, trace
from flashcrowd.model import Infeasible, PlanningInstance

from plan_instances import INSTANCE_SEEDS, midsize_args

HERE = pathlib.Path(__file__).resolve().parent


def tail_percentile(values: list[float]) -> float:
    """The highest of a few percentiles (50 to 99.9) that has at least ten
    samples beyond it; the median when there are fewer than 20 samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    level = 50.0
    for candidate in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (1.0 - candidate / 100.0) >= 10:
            level = candidate
    pos = level / 100.0 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def window_scores(windows, events) -> tuple[int, int]:
    """(detection delay in bins, false events) of events against true windows.

    A window's delay runs from its start to the start of the first event
    that overlaps it (0 if that event began earlier); a missed window counts
    its full length. An event that overlaps no window is false.
    """
    delay = 0
    for start, end in windows:
        hits = [s for s, e in events if s <= end and e >= start]
        delay += max(0, min(hits) - start) if hits else end - start + 1
    false = sum(
        1 for s, e in events if not any(s <= we and e >= ws for ws, we in windows)
    )
    return delay, false


# ---------------------------------------------------------------------------
# Probes shared by the replay and ingest workloads.
# ---------------------------------------------------------------------------


@dataclass
class Probe:
    """What the patched calls of one pass saw."""

    detectors: dict[int, object] = field(default_factory=dict)
    support_sizes: list[int] = field(default_factory=list)
    replans: list[list[bool]] = field(default_factory=list)  # per replan: ILS call succeeded?
    solves: list[tuple[PlanningInstance, tuple]] = field(default_factory=list)
    units: list[float] = field(default_factory=list)  # seconds of each unit of the pass

    @contextmanager
    def unit(self):
        """Time one unit of a pass: a scenario, a stage or a search."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.units.append(time.perf_counter() - started)

    @property
    def degenerate_points(self) -> int:
        return sum(d.degenerate_points for d in self.detectors.values())


def _wrap_detector(tracer, probe: Probe) -> None:
    def after_update(args, point, exc):
        probe.detectors[id(args[0])] = args[0]
        if point is not None:
            probe.support_sizes.append(point.n)

    tracer.wrap(detector.Detector, "update", "detector.update", after=after_update)
    tracer.wrap(kernels, "frechet_mix", "kernels.frechet_mix")
    tracer.wrap(kernels, "entropy_bits", "kernels.entropy_bits")


def _per_parent_ms(totals, name: str) -> list[float]:
    """Milliseconds spent in span ``name`` under each parent span."""
    entry = totals.get(name, {"durations": [], "parents": []})
    sums: dict[int, float] = {}
    for parent, duration in zip(entry["parents"], entry["durations"]):
        sums[parent] = sums.get(parent, 0.0) + duration * 1e3
    return list(sums.values())


def _detector_metrics(totals, probes: list[Probe]) -> dict:
    """Detector numbers; kernel times are per detector update, which may
    call a kernel several times (entropy: once per distribution)."""
    update = [d * 1e3 for d in totals.get("detector.update", {}).get("durations", [])]
    sizes = [n for p in probes for n in p.support_sizes]
    return {
        "detector.update_ms": _median(update),
        "detector.update_tail_ms": tail_percentile(update),
        "kernels.frechet_mix_ms": _median(_per_parent_ms(totals, "kernels.frechet_mix")),
        "kernels.entropy_ms": _median(_per_parent_ms(totals, "kernels.entropy_bits")),
        "detector.support_n": sum(sizes) / len(sizes) if sizes else 0.0,
        "detector.degenerate_points": probes[0].degenerate_points,
    }


def _ils_metrics(totals, stats: list[dict], n_passes: int) -> dict:
    """ILS numbers from the solve spans of ``n_passes`` traced passes and
    the ``SearchStats`` dicts of one of them (every pass repeats them)."""
    durations = totals.get("ils.solve", {}).get("durations", [])
    tried = sum(s["moves_tried"] for s in stats)
    accepted = sum(s["moves_accepted"] for s in stats)
    return {
        "ils.calls": len(durations) / n_passes,
        "ils.solve_ms": _median(durations) * 1e3,
        "ils.solve_tail_ms": tail_percentile(durations) * 1e3,
        "ils.moves_per_s": tried * n_passes / sum(durations) if durations else 0.0,
        "ils.moves_tried": tried,
        "ils.moves_accepted": accepted,
        "ils.accept_ratio": accepted / tried if tried else 0.0,
        "ils.perturbations": sum(s["perturbations"] for s in stats),
    }


def _solution_failures(inst, solution, cost) -> tuple[int, list[str]]:
    """Corrected-mode violations of one ILS answer, and check failures."""
    violations = model.check_feasibility(inst, solution, "corrected")
    failures = [f"ILS solution violates {v}" for v in violations[:3]]
    total = model.evaluate(inst, solution).total
    if total != cost.total:
        failures.append(f"ILS returned cost {cost.total!r}, evaluate gives {total!r}")
    return len(violations), failures


# ---------------------------------------------------------------------------
# replay-flash
# ---------------------------------------------------------------------------

_GENERATOR_INI = """\
[generator]
horizon = 330
bin_width = 60
seed = {seed}

[content.0]
u_max = 4
alpha0 = 1
beta0 = 11

[content.1]
u_max = 4
alpha0 = 1
beta0 = 11

[content.2]
u_max = 8
alpha0 = 0.6
beta0 = 11.4
phases = up:100:150:0.06 down:260:310:0.06
"""

_SCENARIO_INI = """\
[scenario]
seed = {seed}
replan_interval = 5
plan_window = 3
max_new_instances = 4
plan_bandwidth_margin = 0.25

[trace]
generator = {generator}

[demand]
sizes = 0:1900,1:1500,2:900
default_size = 900
client_bandwidth = 900
attend_cost = 1
penalty = 5
copy_cost = 1

[servers]
owned = large:2
owned_billing = 0.14
types = large:storage=4300,bandwidth=2600,cost=0.14 small:storage=1000,bandwidth=1000,cost=0.06
billing_granularity = 30
replication_delay = 1
provisioning_delay = 1

[detector]
w = 1
k = 1.5
m = 1
gap_merge = 60
warmup = 80

[ils]
iters = 1
levels = 0
d = 1
swap_frac = 0.05

[autoscaling]
vm_type = large
threshold = 0.7
cooldown = 2
min = 2
max = 40
"""


def _report_digest(report) -> tuple:
    """Everything in a run report except its detector timings."""
    rows = tuple(
        (r.period, r.offered, r.attended, r.backlog, r.owned, r.hired_active,
         r.hired_pending, r.cost_delta, r.cost_total)
        for r in report.rows
    )
    return (
        report.policy, report.provenance, report.seed, tuple(report.events),
        report.total_cost, report.total_offered, report.total_attended,
        report.backlog_periods, report.peak_fleet, report.plan_solves,
        report.unserved_bytes, rows,
    )


def lost_bytes(report) -> float:
    """Bytes offered but neither attended nor left unserved."""
    return report.total_offered - report.total_attended - report.unserved_bytes


def conservation_failures(report) -> list[str]:
    """Bytes offered must equal bytes attended plus bytes left unserved."""
    if abs(lost_bytes(report)) > 1e-6 * max(1.0, report.total_offered):
        return [
            f"{report.policy} seed {report.seed}: offered {report.total_offered!r} != "
            f"attended {report.total_attended!r} + unserved {report.unserved_bytes!r}"
        ]
    return []


class ReplayFlash:
    """The paper's end-to-end loop on the three-content flash scenario."""

    name = "replay-flash"

    def __init__(self, scenarios: int = 8) -> None:
        self.scenarios = scenarios

    def scenario_seeds(self, seed: int) -> list[int]:
        return [seed * self.scenarios + i for i in range(self.scenarios)]

    def seed_record(self, seed: int) -> dict:
        return {"scenario_seeds": self.scenario_seeds(seed)}

    def setup_inputs(self, seed: int, out_dir: pathlib.Path) -> list[str]:
        paths = []
        for s in self.scenario_seeds(seed):
            gen = out_dir / f"gen-{s}.ini"
            gen.write_text(_GENERATOR_INI.format(seed=s))
            scenario = out_dir / f"scenario-{s}.ini"
            scenario.write_text(_SCENARIO_INI.format(seed=s, generator=gen))
            paths.append(str(scenario))
        return paths

    def pass_inputs(self, seed: int, out_dir: pathlib.Path):
        return None

    def prepare(self, paths: list[str]):
        scenarios = [sim.read_scenario(p) for p in paths]
        detector.Detector(w=scenarios[0].detector_w, flag_cfg=scenarios[0].flag_cfg)
        return scenarios

    def instrument(self, tracer, traced: bool) -> Probe:
        probe = Probe()

        def before_replan(args):
            probe.replans.append([])

        def after_solve(args, result, exc):
            probe.replans[-1].append(exc is None)
            if traced and exc is None:
                probe.solves.append((args[0], result))

        tracer.wrap(sim, "_replan", "sim.replan", before=before_replan)
        tracer.wrap(sim, "ils_solve", "ils.solve", after=after_solve)
        if traced:
            tracer.wrap(sim, "generate", "generator.generate")
            _wrap_detector(tracer, probe)
        return probe

    def run_pass(self, scenarios, data, tracer, probe):
        out = []
        for sc in scenarios:
            with probe.unit():
                out.append(self._replay(sc, tracer))
        return out

    def _replay(self, sc, tracer):
        try:
            with tracer.span("sim.run_pipeline"):
                pipeline = sim.run_pipeline(sc)
        except Infeasible:
            return sc, None, None, "replay aborted on Infeasible"
        with tracer.span("sim.run_baseline"):
            baseline = sim.run_baseline(sc)
        try:
            with tracer.span("sim.compare"):
                sim.compare(pipeline, baseline)
        except sim.ProvenanceMismatch as exc:
            return sc, pipeline, baseline, f"compare raised ProvenanceMismatch: {exc}"
        return sc, pipeline, baseline, None

    def check(self, scenarios, data, out, probe, first: bool) -> tuple[int, list[str]]:
        failures = []
        for _sc, pipeline, baseline, error in out:
            if pipeline is None:
                continue
            if error:
                failures.append(error)
            # The baseline report is left out: run_baseline drops the demand
            # that falls due after the last bin, so it loses bytes whenever a
            # multi-period download starts near the end. That gap is reported
            # as baseline_lost_bytes instead of failing most seeds.
            failures += conservation_failures(pipeline)
        violations = 0
        if first:
            for inst, (solution, cost, _stats) in probe.solves:
                count, found = _solution_failures(inst, solution, cost)
                violations += count
                failures += found
        return violations, failures

    def digest(self, out) -> tuple:
        return tuple(
            (None if p is None else _report_digest(p), None if b is None else _report_digest(b))
            for _sc, p, b, _e in out
        )

    def outcome(self, scenarios, data, out, probe) -> tuple[dict, int, int]:
        done = [(sc, p, b) for sc, p, b, _e in out if p is not None]
        delay = false = 0
        for sc, p, _b in done:
            d, f = window_scores(generator.flash_windows(sc.generator), p.events)
            delay += d
            false += f
        attempted = max(1, sum(1 for calls in probe.replans if calls))
        infeasible_first = sum(1 for calls in probe.replans if calls and not calls[0])
        aborted = len(out) - len(done)
        offered = sum(p.total_offered for _sc, p, _b in done)
        metrics = {
            "pipeline_cost": sum(p.total_cost for _sc, p, _b in done),
            "baseline_cost": sum(b.total_cost for _sc, _p, b in done),
            "backlog_periods": sum(p.backlog_periods for _sc, p, _b in done),
            "unserved_share": sum(p.unserved_bytes for _sc, p, _b in done) / offered,
            "baseline_lost_bytes": sum(lost_bytes(b) for _sc, _p, b in done),
            "detect_delay_bins": delay,
            "false_events": false,
            "failed_share": (infeasible_first + aborted) / attempted,
        }
        # A replan whose first solve was infeasible but whose retry succeeded
        # counts in failed_share; only a replan left without any plan, which
        # aborts its replay, counts as a failed operation.
        return metrics, attempted, aborted

    def layer_metrics(self, scenarios, data, out, totals, probes, n_passes) -> dict:
        def per_call(name, scale=1.0):
            entry = totals.get(name)
            if not entry:
                return 0.0, 0.0
            n = len(entry["durations"])
            return sum(entry["durations"]) / n * scale, entry["self_s"] / n * scale

        pipeline_s, loop_self_s = per_call("sim.run_pipeline")
        stats = [result[2] for _inst, result in probes[0].solves]
        metrics = {
            "generator.generate_ms": per_call("generator.generate", 1e3)[0],
            "sim.pipeline_s": pipeline_s,
            "sim.baseline_s": per_call("sim.run_baseline")[0],
            "sim.loop_self_s": loop_self_s,
            "sim.replan_self_ms": per_call("sim.replan", 1e3)[1],
            "sim.replans": len(totals.get("sim.replan", {}).get("durations", [])) / n_passes,
            "ils.infeasible_retries": sum(
                1 for calls in probes[0].replans if calls and not calls[0]
            ),
        }
        metrics.update(_detector_metrics(totals, probes))
        metrics.update(_ils_metrics(totals, stats, n_passes))
        return metrics


# ---------------------------------------------------------------------------
# ingest-wide
# ---------------------------------------------------------------------------

BIN_WIDTH = 60.0
INGEST_BINS = 16
INGEST_FLAG = detector.FlagConfig(k=3.0, m=2, gap_merge=2, warmup=4)
# Kinds of malformed line; the workload injects MALFORMED_PER_KIND of each.
_MALFORMED = (
    "",
    "   ",
    "not a log line at all",
    '10.9.9.9 - - [05/Xyz/2017:10:00:00 +0000] "GET /c/1.html HTTP/1.1" 200 10',
    '10.9.9.9 - - [31/Feb/2017:10:00:00 +0000] "GET /c/1.html HTTP/1.1" 200 10',
    '10.9.9.9 - - [14/Jul/2017:10:00:00 +0000] "GET /c/1.html HTTP/1.1" 999 10',
    '10.9.9.9 - - [14/Jul/2017:10:00:00 +0000] "GET /c/1.html HTTP/1.1" 200 12kb',
    '10.9.9.9 - - [14/Jul/2017:10:00:00 +0000] "GET" 200 10',
)
MALFORMED_PER_KIND = 25
C_SAMPLE_BINS = 2
_ORIGIN = 1_500_000_000 - 1_500_000_000 % 60


@dataclass
class IngestData:
    config: generator.GeneratorConfig
    generated: trace.BinnedTrace
    lines: list[str]
    injected: int
    sample_bins: list[int]


def ingest_generator_config(seed: int, contents: int) -> generator.GeneratorConfig:
    """A wide catalog: a tenth of the contents surge together mid-trace."""
    rng = random.Random(seed)
    flash = set(rng.sample(range(contents), contents // 10))
    surge = (
        generator.PhaseSchedule(6, 8, 0.5, generator.PhaseKind.RAMP_UP),
        generator.PhaseSchedule(11, 13, 0.5, generator.PhaseKind.RAMP_DOWN),
    )
    profiles = [
        generator.ContentProfile(c, 40, 0.3, 8.0, surge)
        if c in flash
        else generator.ContentProfile(c, 12, 2.0, 2.0)
        for c in range(contents)
    ]
    return generator.GeneratorConfig(profiles, INGEST_BINS, BIN_WIDTH, seed)


def render_clf(binned, seed: int) -> list[str]:
    """One Common-Log-Format line per access, in time order within each bin.

    Some paths carry a query string and some responses are 304s with no
    size, which the parser must normalize and accept.
    """
    rng = random.Random(seed)
    stamps = {}
    lines = []
    for t, counts in enumerate(binned.bins):
        entries = []
        for cid, n in counts.items():
            for i in range(n):
                entries.append((rng.randrange(60), cid, i))
        entries.sort()
        for sec, cid, i in entries:
            ts = _ORIGIN + int(t * BIN_WIDTH) + sec
            stamp = stamps.get(ts)
            if stamp is None:
                stamp = datetime.fromtimestamp(ts, timezone.utc).strftime(
                    "%d/%b/%Y:%H:%M:%S +0000"
                )
                stamps[ts] = stamp
            query = f"?ref={i}" if i % 3 == 1 else ""
            tail = "304 -" if i % 5 == 4 else f"200 {1000 + cid}"
            lines.append(
                f'10.{cid % 250}.{i % 250}.{t} - - [{stamp}] '
                f'"GET /c/{cid}.html{query} HTTP/1.1" {tail}'
            )
    return lines


def dense_total_correlation(prev: dict[int, int], now: dict[int, int]) -> float:
    """Reference C = H(X) + H(Y) - H(X, Y) of one bin pair, ordinal values.

    Written apart from the program's kernels: the Frechet extreme is built
    from interval overlaps of the two cumulative distributions instead of
    rectangle differences, and sums are plain numpy sums.
    """
    support = sorted({c for c, n in prev.items() if n > 0} | {c for c, n in now.items() if n > 0})
    a = np.array([prev.get(c, 0) for c in support], dtype=float)
    b = np.array([now.get(c, 0) for c in support], dtype=float)
    n = len(support)
    f = a / a.sum() if a.sum() > 0 else np.full(n, 1.0 / n)
    g = b / b.sum() if b.sum() > 0 else np.full(n, 1.0 / n)

    def pearson(x, y):
        dx, dy = x - x.mean(), y - y.mean()
        vx, vy = float(np.sum(dx * dx)), float(np.sum(dy * dy))
        if vx <= 0 or vy <= 0:
            return 0.0
        return float(np.sum(dx * dy)) / math.sqrt(vx * vy)

    def entropy(p):
        p = p[p > 0]
        return float(-np.sum(p * np.log2(p)))

    rho = pearson(a, b)
    product = np.outer(f, g)
    joint = product
    if rho != 0.0:
        F = np.cumsum(f)
        G = np.cumsum(g)
        F0 = F - f
        if rho > 0:  # comonotone: overlap of [F0, F] and [G0, G]
            lo_y, hi_y = G - g, G
        else:  # countermonotone: overlap of [F0, F] and [1 - G, 1 - G0]
            lo_y, hi_y = 1.0 - G, 1.0 - (G - g)
        extreme = np.clip(
            np.minimum(F[:, None], hi_y[None, :]) - np.maximum(F0[:, None], lo_y[None, :]),
            0.0,
            None,
        )
        x = np.arange(n, dtype=float)
        ex, ey = float(x @ f), float(x @ g)
        vx, vy = float((x * x) @ f) - ex * ex, float((x * x) @ g) - ey * ey
        rho_bound = 0.0
        if vx > 1e-300 and vy > 1e-300:
            rho_bound = (float(x @ extreme @ x) - ex * ey) / math.sqrt(vx * vy)
        if rho_bound != 0.0:
            theta = min(max(rho / rho_bound, 0.0), 1.0)
            joint = theta * extreme + (1.0 - theta) * product
    return entropy(f) + entropy(g) - entropy(joint)


def trace_failures(generated, binned, paths: dict[str, int]) -> list[str]:
    """The binned log must equal the generated trace, ids mapped back."""
    to_content = {cid: int(path[len("/c/"):-len(".html")]) for path, cid in paths.items()}
    if binned.horizon != generated.horizon:
        return [f"binned horizon {binned.horizon} != generated {generated.horizon}"]
    for t, (got, want) in enumerate(zip(binned.bins, generated.bins)):
        mapped = {to_content[cid]: n for cid, n in got.items() if n}
        if mapped != {c: n for c, n in want.items() if n}:
            return [f"bin {t}: binned counts differ from the generated trace"]
    return []


def c_failures(binned, points, sample_bins: list[int]) -> list[str]:
    """Detector C on sample bins must match the dense reference to 1e-9 bits.

    The reference reads the detector's own input: content ids order the
    support, so C depends on the ids the interner assigned.
    """
    by_t = {p.t: p.c_xy for p in points}
    failures = []
    for t in sample_bins:
        want = dense_total_correlation(binned.bins[t - 1], binned.bins[t])
        got = by_t.get(t)
        if got is None or abs(got - want) > 1e-9:
            failures.append(f"C at bin {t}: detector {got!r}, reference {want!r}")
    return failures


class IngestWide:
    """Log lines to events at a wide catalog."""

    name = "ingest-wide"

    def __init__(self, contents: int = 1000) -> None:
        self.contents = contents

    def seed_record(self, seed: int) -> dict:
        return {"generator_seed": seed, "malformed_line_seed": seed + 1}

    def setup_inputs(self, seed: int, out_dir: pathlib.Path):
        return None

    def pass_inputs(self, seed: int, out_dir: pathlib.Path) -> IngestData:
        config = ingest_generator_config(seed, self.contents)
        generated = generator.generate(config)
        lines = render_clf(generated, seed)
        rng = random.Random(seed + 1)
        bad = [line for line in _MALFORMED for _ in range(MALFORMED_PER_KIND)]
        for line in bad:
            lines.insert(rng.randrange(len(lines) + 1), line)
        sample = rng.sample(range(1, INGEST_BINS), C_SAMPLE_BINS)
        return IngestData(config, generated, lines, len(bad), sorted(sample))

    def prepare(self, _inputs):
        detector.Detector(w=1, flag_cfg=INGEST_FLAG)
        return None

    def instrument(self, tracer, traced: bool) -> Probe:
        probe = Probe()
        if traced:
            tracer.wrap(trace, "parse_clf_lines", "trace.parse_clf_lines")
            tracer.wrap(trace, "bin_records", "trace.bin_records")
            _wrap_detector(tracer, probe)
        return probe

    def run_pass(self, _prepared, data: IngestData, tracer, probe):
        interner = trace.ContentInterner()
        with probe.unit():
            records, skipped = trace.parse_clf_lines(data.lines, interner)
        with probe.unit():
            binned = trace.bin_records(records, BIN_WIDTH, interner)
        with probe.unit(), tracer.span("detector.detect"):
            series = detector.detect(binned, 1, INGEST_FLAG)
        return interner.paths(), skipped, binned, series

    def check(self, _prepared, data: IngestData, out, probe, first: bool):
        paths, skipped, binned, series = out
        failures = []
        if skipped != data.injected:
            failures.append(f"parser skipped {skipped} lines, {data.injected} were malformed")
        if first:
            failures += trace_failures(data.generated, binned, paths)
            failures += c_failures(binned, series.points, data.sample_bins)
        return 0, failures

    def digest(self, out) -> tuple:
        _paths, skipped, _binned, series = out
        return skipped, tuple((p.t, p.c_xy) for p in series.points), tuple(series.events)

    def outcome(self, _prepared, data: IngestData, out, probe):
        _paths, skipped, binned, series = out
        delay, false = window_scores(generator.flash_windows(data.config), series.events)
        with_point = {p.t for p in series.points}
        missing = sum(1 for t in range(1, binned.horizon) if t not in with_point)
        failed = max(0, skipped - data.injected) + missing
        metrics = {
            "detect_delay_bins": delay,
            "false_events": false,
            "failed_share": failed / len(data.lines),
        }
        return metrics, len(data.lines), failed

    def layer_metrics(self, _prepared, data: IngestData, out, totals, probes, n_passes) -> dict:
        parse = totals.get("trace.parse_clf_lines", {}).get("durations", [])
        binning = totals.get("trace.bin_records", {}).get("durations", [])
        metrics = {
            "trace.parse_lines_per_s": len(data.lines) * len(parse) / sum(parse),
            "trace.bin_s": sum(binning) / len(binning),
            "trace.skipped_lines": data.injected,
        }
        metrics.update(_detector_metrics(totals, probes))
        return metrics


# ---------------------------------------------------------------------------
# plan-midsize
# ---------------------------------------------------------------------------

PLAN_PARAMS = dict(iter_max=2, level_max=2)
# Searches per instance in a pass, each with its own ILS seed: the moves
# one search tries vary by about 10% between seeds, and averaging two
# keeps that variation below the wall-time bound.
SEARCHES_PER_INSTANCE = 2


def stored_optima() -> dict[int, float | None]:
    data = json.loads((HERE / "data" / "plan_optima.json").read_text())
    return {int(k): v for k, v in data["optima"].items()}


class PlanMidsize:
    """ILS at planning scale, on a fixed set of instances."""

    name = "plan-midsize"

    def __init__(self, instance_seeds=INSTANCE_SEEDS) -> None:
        self.instance_seeds = tuple(instance_seeds)

    def instance_order(self, seed: int) -> list[int]:
        order = list(self.instance_seeds)
        random.Random(seed).shuffle(order)
        return order

    def ils_seeds(self, seed: int) -> list[int]:
        return [seed * SEARCHES_PER_INSTANCE + i for i in range(SEARCHES_PER_INSTANCE)]

    def seed_record(self, seed: int) -> dict:
        return {"instance_seeds": self.instance_order(seed), "ils_seeds": self.ils_seeds(seed)}

    def setup_inputs(self, seed: int, out_dir: pathlib.Path):
        args = [(s, midsize_args(s)) for s in self.instance_order(seed)]
        return args, [ils.IlsParams(seed=x, **PLAN_PARAMS) for x in self.ils_seeds(seed)]

    def pass_inputs(self, seed: int, out_dir: pathlib.Path):
        return None

    def prepare(self, inputs):
        args, params = inputs
        return [(s, PlanningInstance(**a)) for s, a in args], params

    def instrument(self, tracer, traced: bool) -> Probe:
        probe = Probe()
        if traced:
            tracer.wrap(ils, "solve", "ils.solve")
            tracer.wrap(model, "check_feasibility", "model.check_feasibility")
        return probe

    def run_pass(self, prepared, data, tracer, probe):
        """One (instance seed, solution, cost, stats, violations) per search."""
        instances, searches = prepared
        out = []
        for s, inst in instances:
            for params in searches:
                with probe.unit():
                    out.append(self._search(s, inst, params))
        return out

    def _search(self, s, inst, params):
        try:
            solution, cost, stats = ils.solve(inst, params)
        except Infeasible:
            return s, None, None, None, None
        violations = model.check_feasibility(inst, solution, "corrected")
        return s, solution, cost, stats, violations

    def check(self, prepared, data, out, probe, first: bool):
        """Check the first pass's solutions; later passes must repeat them."""
        if not first:
            return 0, []
        instances = dict(prepared[0])
        violations = 0
        failures = []
        for s, solution, cost, _stats, _found in out:
            if solution is not None:
                count, found = _solution_failures(instances[s], solution, cost)
                violations += count
                failures += [f"instance {s}: {f}" for f in found]
        return violations, failures

    def digest(self, out) -> tuple:
        return tuple(
            (s, None if cost is None else (cost.attend, cost.backlog, cost.replication,
                                           cost.financial_normalized),
             None if stats is None else stats["moves_tried"])
            for s, _sol, cost, stats, _v in out
        )

    def outcome(self, prepared, data, out, probe):
        failed = sum(1 for _s, sol, _c, _st, v in out if sol is None or v)
        metrics = {
            "plan_cost": sum(c.total for _s, _sol, c, _st, _v in out if c is not None),
            "failed_share": failed / len(out),
        }
        return metrics, len(out), failed

    def gap_pct(self, out) -> tuple[float, int, int]:
        """ILS cost above the stored HiGHS optimum, in percent, over the
        searches whose instance has a known optimum; with the counts of
        searches on instances with a known and an unknown optimum."""
        optima = stored_optima()
        known = [(c.total, optima[s]) for s, _sol, c, _st, _v in out
                 if c is not None and optima.get(s) is not None]
        if not known:
            return 0.0, 0, len(out)
        ils_total = sum(a for a, _b in known)
        opt_total = sum(b for _a, b in known)
        return 100.0 * (ils_total - opt_total) / opt_total, len(known), len(out) - len(known)

    def layer_metrics(self, prepared, data, out, totals, probes, n_passes) -> dict:
        stats = [st for _s, _sol, _c, st, _v in out if st is not None]
        metrics = _ils_metrics(totals, stats, n_passes)
        metrics["ils.gap_pct"] = self.gap_pct(out)[0]
        return metrics


WORKLOADS = {w.name: w for w in (ReplayFlash, IngestWide, PlanMidsize)}
