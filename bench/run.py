"""Benchmark of flashcrowd: one workload per run, timed from outside.

    python3 bench/run.py --workload replay-flash --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py):

* ``replay-flash``: the paper's loop, trace to detector to ILS re-plans,
  replayed against threshold autoscaling;
* ``ingest-wide``: access-log lines to flash-crowd events at a catalog of
  about 1000 contents;
* ``plan-midsize``: ILS on planning instances of up to 50 requests.

A run imports the package from ``src/`` next to this directory, times its
set-up (the median of several), then repeats one pass over the workload's
inputs for ``--seconds``. The first pass is a warm-up; every pass is
checked and must repeat the first one's outputs exactly. A pass is made of
units (a scenario, a stage, a search) and ``wall_s`` sums each unit's
fastest time over the passes. ``--trace 1`` alternates untraced and traced
passes and reports per-layer numbers from the traced ones; otherwise the
end-to-end numbers come from untraced passes. The run prints every metric
with its unit and direction, writes the full result (and the spans, when
traced) under ``.bench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when an
output check fails.
"""

from __future__ import annotations

import os

# One BLAS thread: each workload is a single-threaded process. Set before
# numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import Tracer, span_totals  # noqa: E402

# Imported, and timed, as the first part of set-up.
PROGRAM_MODULES = (
    "flashcrowd.trace",
    "flashcrowd.kernels",
    "flashcrowd.generator",
    "flashcrowd.detector",
    "flashcrowd.model",
    "flashcrowd.instances",
    "flashcrowd.ils",
    "flashcrowd.baseline",
    "flashcrowd.sim",
)
WORKLOAD_NAMES = ("replay-flash", "ingest-wide", "plan-midsize")
SETUP_SAMPLES = 5  # set-ups per run: this process plus SETUP_SAMPLES - 1 fresh ones
MIN_TIMED_PASSES = 3  # per kind (untraced, traced) after the warm-up pass

# name -> (unit, better[, bound]). Only END_TO_END metrics carry a bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
# Deterministic results of a pass. They repeat exactly for a seed and some
# are 0 on every seed today, so they are reported with the per-layer
# numbers; a workload where one does not apply reports 0.
OUTCOMES = {
    "pipeline_cost": ("cost", "lower"),
    "baseline_cost": ("cost", "lower"),
    "backlog_periods": ("byte-periods", "lower"),
    "unserved_share": ("ratio", "lower"),
    "baseline_lost_bytes": ("bytes", "lower"),
    "detect_delay_bins": ("bins", "lower"),
    "false_events": ("count", "lower"),
    "plan_cost": ("cost", "lower"),
    "failed_share": ("ratio", "lower"),
}
LAYERS = {
    "trace.parse_lines_per_s": ("1/s", "higher"),
    "trace.bin_s": ("s", "lower"),
    "trace.skipped_lines": ("count", "lower"),
    "detector.update_ms": ("ms", "lower"),
    "detector.update_tail_ms": ("ms", "lower"),
    "kernels.frechet_mix_ms": ("ms", "lower"),
    "kernels.entropy_ms": ("ms", "lower"),
    "detector.support_n": ("count", "lower"),
    "detector.degenerate_points": ("count", "lower"),
    "generator.generate_ms": ("ms", "lower"),
    "sim.pipeline_s": ("s", "lower"),
    "sim.baseline_s": ("s", "lower"),
    "sim.loop_self_s": ("s", "lower"),
    "sim.replan_self_ms": ("ms", "lower"),
    "sim.replans": ("count", "lower"),
    "ils.calls": ("count", "lower"),
    "ils.solve_ms": ("ms", "lower"),
    "ils.solve_tail_ms": ("ms", "lower"),
    "ils.moves_per_s": ("1/s", "higher"),
    "ils.moves_tried": ("count", "lower"),
    "ils.moves_accepted": ("count", "higher"),
    "ils.accept_ratio": ("ratio", "higher"),
    "ils.perturbations": ("count", "lower"),
    "ils.infeasible_retries": ("count", "lower"),
    "ils.violations": ("count", "lower"),
    "ils.gap_pct": ("%", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.unspanned_s": ("s", "lower"),
}
# Every span a pass may record; each gets a "<span>.self_s" metric.
SPANS = (
    "trace.parse_clf_lines",
    "trace.bin_records",
    "detector.detect",
    "detector.update",
    "kernels.frechet_mix",
    "kernels.entropy_bits",
    "generator.generate",
    "sim.run_pipeline",
    "sim.replan",
    "ils.solve",
    "sim.run_baseline",
    "sim.compare",
    "model.check_feasibility",
)
SELF_TIMES = {f"{span}.self_s": ("s", "lower") for span in SPANS}
PER_LAYER = {**OUTCOMES, **LAYERS, **SELF_TIMES}


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_setup(name: str, seed: int, out_dir: pathlib.Path, sizes: dict):
    """Import the program and run the workload's program-side set-up.

    Returns the workload, its prepared state and the set-up seconds, which
    leave out the benchmark's own input generation.
    """
    started = time.perf_counter()
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    import_s = time.perf_counter() - started
    from workloads import WORKLOADS

    workload = WORKLOADS[name](**sizes)
    inputs = workload.setup_inputs(seed, out_dir)
    started = time.perf_counter()
    prepared = workload.prepare(inputs)
    return workload, prepared, import_s + time.perf_counter() - started


def fresh_setup_s(name: str, seed: int) -> float:
    """Set-up seconds measured in a new interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(workload, seed: int) -> dict:
    from flashcrowd import kernels

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_enabled": kernels.NUMBA_ENABLED,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "seeds": workload.seed_record(seed),
    }


@dataclass
class Passes:
    """What the passes of one run produced."""

    tracer: Tracer = field(default_factory=Tracer)
    walls: dict = field(default_factory=lambda: {False: [], True: []})  # per pass, by traced
    units: dict = field(default_factory=lambda: {False: [], True: []})  # unit times per pass
    failures: list = field(default_factory=list)
    outcome: tuple = ()  # (deterministic metrics, attempted, failed) of the first pass
    violations: int = 0  # ILS violations found by the first checked pass of the reported kind
    traced_probes: list = field(default_factory=list)
    traced_out: object = None


def pass_estimate(unit_lists: list[list[float]]) -> float:
    """Pass time: each unit's fastest time over the passes, summed.

    The host's speed drifts by up to 2x in phases of ten seconds or more,
    which can cover most of a run, so a median of pass times follows the
    phases. Interference only adds time; the fastest time of each short
    unit is the run's best estimate of the program's own cost.
    """
    return sum(min(times) for times in zip(*unit_lists))


def run_passes(workload, prepared, data, seconds: float, trace: bool) -> Passes:
    """Warm-up pass, then timed passes until ``seconds`` have gone by.

    With ``trace``, untraced and traced passes alternate. Every pass is
    checked and must repeat the first pass's outputs.
    """
    runs = Passes()
    tracer = runs.tracer
    first_digest = None
    started = time.perf_counter()
    n = 0
    while True:
        traced = trace and n % 2 == 0 and n > 0
        probe = workload.instrument(tracer, traced)
        tracer.recording = traced
        try:
            t0 = time.perf_counter()
            with tracer.span("pass"):
                out = workload.run_pass(prepared, data, tracer, probe)
            wall = time.perf_counter() - t0
        finally:
            tracer.recording = False
            tracer.restore()
        first_of_kind = n == 0 or (traced and not runs.traced_probes)
        found, problems = workload.check(prepared, data, out, probe, first_of_kind)
        runs.failures += [f"pass {n}: {p}" for p in problems]
        digest = workload.digest(out)
        if n == 0:
            first_digest = digest
            runs.outcome = workload.outcome(prepared, data, out, probe)
            runs.violations = found
        else:
            if digest != first_digest:
                runs.failures.append(f"pass {n}: outputs differ from the first pass")
            runs.walls[traced].append(wall)
            runs.units[traced].append(probe.units)
        if traced:
            if not runs.traced_probes:
                runs.violations = found
            runs.traced_probes.append(probe)
            runs.traced_out = out
        n += 1
        enough = len(runs.walls[False]) >= MIN_TIMED_PASSES and (
            not trace or len(runs.walls[True]) >= MIN_TIMED_PASSES
        )
        # Stop at the pass boundary nearest to the time budget.
        typical = _median(runs.walls[False] + runs.walls[True])
        if enough and time.perf_counter() - started + typical / 2 >= seconds:
            return runs


def layer_metrics(workload, prepared, data, runs: Passes):
    """Per-layer numbers of the traced passes; 0 where a layer does not run."""
    totals = span_totals(runs.tracer.spans)
    n = len(runs.walls[True])
    metrics = {name: 0.0 for name in LAYERS}
    metrics.update(
        workload.layer_metrics(prepared, data, runs.traced_out, totals, runs.traced_probes, n)
    )
    metrics["ils.violations"] = runs.violations
    for span in SPANS:
        metrics[f"{span}.self_s"] = totals.get(span, {"self_s": 0.0})["self_s"] / n
    metrics["bench.traced_wall_s"] = sum(totals["pass"]["durations"]) / n
    metrics["bench.unspanned_s"] = totals["pass"]["self_s"] / n
    metrics["bench.trace_overhead"] = (
        pass_estimate(runs.units[True]) / pass_estimate(runs.units[False]) - 1.0
    )
    failures = []
    unknown = set(totals) - set(SPANS) - {"pass"}
    if unknown:
        failures.append(f"spans without a self-time metric: {sorted(unknown)}")
    accounted = sum(entry["self_s"] for entry in totals.values()) / n
    if abs(accounted - metrics["bench.traced_wall_s"]) > 1e-9 * max(1.0, accounted):
        failures.append("layer self times do not add up to the traced wall time")
    return metrics, failures


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                  setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the full result (see ``final_line``)."""
    out_dir = OUT_DIR / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload, prepared, setup_s = timed_setup(name, seed, out_dir, sizes or {})
    setups = [setup_s] + [fresh_setup_s(name, seed) for _ in range(setup_samples - 1)]
    data = workload.pass_inputs(seed, out_dir)
    runs = run_passes(workload, prepared, data, seconds, trace)
    failures = runs.failures
    outcomes, attempted, failed = runs.outcome
    untraced = runs.walls[False]
    quartiles = statistics.quantiles(untraced, n=4) if len(untraced) > 1 else untraced * 3
    metrics = {
        "setup_s": _median(setups),
        "wall_s": pass_estimate(runs.units[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update({key: 0.0 for key in OUTCOMES})
    metrics.update(outcomes)
    if trace:
        layers, problems = layer_metrics(workload, prepared, data, runs)
        metrics.update(layers)
        failures += problems
        runs.tracer.write_jsonl(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    catalog = {**END_TO_END, **PER_LAYER}
    return {
        "environment": environment(workload, seed),
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "trace": trace,
        "applies": sorted(outcomes),
        "setup_samples_s": setups,
        "wall_samples_s": {"untraced": untraced, "traced": runs.walls[True]},
        "unit_samples_s": runs.units[False],
        "wall_quartiles_s": quartiles,
        "metrics": {
            key: {"value": value, "unit": catalog[key][0], "better": catalog[key][1]}
            for key, value in metrics.items()
        },
    }


def final_line(result: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when traced."""
    names = PER_LAYER if result["trace"] else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": result["metrics"][key]["value"], "unit": result["metrics"][key]["unit"]}
            for key in names
        },
    }


def report(result: dict) -> str:
    env = result["environment"]
    walls = result["wall_samples_s"]
    lines = [
        f"workload {env['workload']}  seed {env['seed']}  seeds {json.dumps(env['seeds'])}",
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"numba {env['numba_enabled']}  nproc {env['nproc']}  "
        f"blas threads {env['blas_threads']}  commit {env['git_commit']}",
        f"{'metric':<34} {'value':>16}  {'unit':<12} better",
    ]
    notes = {
        "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
        "wall_s": "sum of unit minima over {} passes; pass quartiles {:.4f} {:.4f} {:.4f} s".format(
            len(walls["untraced"]), *result["wall_quartiles_s"]
        ),
    }
    shown = list(END_TO_END) + result["applies"]
    if result["trace"]:
        shown += [key for key in PER_LAYER if key not in shown]
    for key in shown:
        m = result["metrics"][key]
        lines.append(
            f"{key:<34} {m['value']:>16.6f}  {m['unit']:<12} {m['better']:<6} {notes.get(key, '')}"
        )
    lines.append(f"operations: {result['failed']} failed of {result['attempted']} attempted")
    if result["correct"]:
        lines.append("checks: all passed")
    else:
        lines += ["checks: FAILED"] + [f"  {f}" for f in result["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time one set-up and print it (used by the benchmark itself)")
    args = parser.parse_args(argv)
    if args.probe_setup:
        out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed, out_dir, {})[2]}))
        return 0
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    trace_tag = 1 if args.trace else 0
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{trace_tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(report(result))
    print(json.dumps(final_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
