"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Runs each workload at a tiny size through the same harness as the command
line, and feeds the output checks deliberately wrong outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from flashcrowd import detector, generator, ils, sim  # noqa: E402
from flashcrowd.model import CostBreakdown, PlanningInstance  # noqa: E402

TINY = {
    "replay-flash": {"scenarios": 1},
    "ingest-wide": {"contents": 60},
    "plan-midsize": {"instance_seeds": (4, 6)},
}
# The metrics the benchmark's specification names.
NAMED_END_TO_END = (
    "setup_s", "wall_s", "peak_rss_mb", "failed_share", "pipeline_cost", "baseline_cost",
    "backlog_periods", "unserved_share", "detect_delay_bins", "false_events", "plan_cost",
)
NAMED_PER_LAYER = (
    "trace.parse_lines_per_s", "trace.bin_s", "trace.skipped_lines", "detector.update_ms",
    "detector.update_tail_ms", "kernels.frechet_mix_ms", "kernels.entropy_ms",
    "detector.support_n", "detector.degenerate_points", "generator.generate_ms",
    "sim.pipeline_s", "sim.baseline_s", "sim.loop_self_s", "sim.replan_self_ms", "sim.replans",
    "ils.calls", "ils.solve_ms", "ils.solve_tail_ms", "ils.moves_per_s", "ils.moves_tried",
    "ils.moves_accepted", "ils.accept_ratio", "ils.perturbations", "ils.infeasible_retries",
    "ils.violations", "ils.gap_pct", "bench.trace_overhead",
)
# Numbers that must be positive where the workload exercises their layer.
POSITIVE = {
    "replay-flash": ("pipeline_cost", "baseline_cost", "sim.pipeline_s", "sim.replans",
                     "ils.moves_tried", "detector.update_ms", "generator.generate_ms"),
    "ingest-wide": ("trace.parse_lines_per_s", "trace.bin_s", "trace.skipped_lines",
                    "detector.update_ms", "kernels.frechet_mix_ms", "detector.support_n"),
    "plan-midsize": ("plan_cost", "ils.calls", "ils.moves_tried", "ils.moves_per_s"),
}


@pytest.fixture(scope="module", params=list(TINY))
def traced(request):
    name = request.param
    return name, run.run_benchmark(
        name, seed=3, seconds=0, trace=True, sizes=TINY[name], setup_samples=1
    )


def test_every_named_metric_is_emitted_with_unit_and_direction(traced):
    name, result = traced
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for key in NAMED_END_TO_END + NAMED_PER_LAYER:
        metric = result["metrics"][key]
        assert metric["unit"], key
        assert metric["better"] in ("lower", "higher"), key
        assert math.isfinite(metric["value"]), key
    for key in POSITIVE[name]:
        assert result["metrics"][key]["value"] > 0, key


def test_final_line_follows_the_contract(traced):
    _name, result = traced
    per_layer = run.final_line(result)
    end_to_end = run.final_line({**result, "trace": False})
    for line, names in ((per_layer, run.PER_LAYER), (end_to_end, run.END_TO_END)):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(names)
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
        json.dumps(line)


def test_layer_self_times_add_up_to_the_traced_wall(traced):
    _name, result = traced
    values = {k: m["value"] for k, m in result["metrics"].items()}
    self_sum = sum(values[f"{span}.self_s"] for span in run.SPANS) + values["bench.unspanned_s"]
    assert self_sum == pytest.approx(values["bench.traced_wall_s"], rel=1e-9)


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_setup_is_timed_in_a_fresh_interpreter():
    assert run.fresh_setup_s("plan-midsize", 0) > 0


def test_broken_byte_conservation_fails_the_check():
    kept = sim.RunReport("pipeline", "p", 0, total_offered=10.0, total_attended=7.0,
                         unserved_bytes=3.0)
    assert workloads.conservation_failures(kept) == []
    lost = dataclasses.replace(kept, total_attended=6.0)
    assert workloads.conservation_failures(lost)


def test_perturbed_c_fails_the_reference_check():
    binned = generator.generate(workloads.ingest_generator_config(3, 60))
    series = detector.detect(binned, 1, workloads.INGEST_FLAG)
    assert workloads.c_failures(binned, series.points, [3, 9]) == []
    bumped = [dataclasses.replace(p, c_xy=p.c_xy + 1e-6) for p in series.points]
    assert len(workloads.c_failures(binned, bumped, [3, 9])) == 2


def test_altered_bin_fails_the_trace_check():
    generated = generator.generate(workloads.ingest_generator_config(3, 60))
    paths = {f"/c/{cid}.html": cid for cid in sorted(generated.catalog)}
    assert workloads.trace_failures(generated, generated, paths) == []
    altered = dataclasses.replace(generated, bins=[dict(b) for b in generated.bins])
    cid = next(iter(altered.bins[4]))
    altered.bins[4][cid] += 1
    assert workloads.trace_failures(generated, altered, paths)


def test_wrong_ils_cost_fails_the_plan_check():
    plan = workloads.PlanMidsize(instance_seeds=(4,))
    prepared = plan.prepare(plan.setup_inputs(0, None))
    (seed, inst), params = prepared[0][0], prepared[1][0]
    solution, cost, stats = ils.solve(inst, params)
    assert isinstance(inst, PlanningInstance)
    good = [(seed, solution, cost, stats, [])]
    assert plan.check(prepared, None, good, None, True) == (0, [])
    wrong = CostBreakdown(cost.attend + 1.0, cost.backlog, cost.replication,
                          cost.financial_normalized)
    assert plan.check(prepared, None, [(seed, solution, wrong, stats, [])], None, True)[1]


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "plan-midsize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
