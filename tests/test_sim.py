"""Replay reports of the pipeline and baseline policies."""

import dataclasses
import math
import re

import pytest

from flashcrowd import sim
from flashcrowd.model import Infeasible
from flashcrowd.sim import (
    ProvenanceMismatch,
    ScenarioInvalid,
    compare,
    read_scenario,
    run_baseline,
    run_pipeline,
)
from flashcrowd.trace import write_csv_trace
from util_scenarios import flat_scenario_ini, scenario1_ini

POLICIES = {"pipeline": run_pipeline, "baseline": run_baseline}
FIXTURES = {"scenario1": scenario1_ini, "flat": flat_scenario_ini}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    return {
        name: read_scenario(str(make(tmp_path_factory.mktemp(name))))
        for name, make in FIXTURES.items()
    }


@pytest.fixture(scope="module")
def reports(scenarios):
    return {
        (fixture, policy): run(scenario)
        for fixture, scenario in scenarios.items()
        for policy, run in POLICIES.items()
    }


def without_timings(report):
    rows = [dataclasses.replace(r, detector_ms=0.0) for r in report.rows]
    replans = [dataclasses.replace(r, solve_ms=0.0) for r in report.replans]
    return dataclasses.replace(report, rows=rows, replans=replans)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_bytes_conserved(reports, fixture, policy):
    report = reports[fixture, policy]
    assert report.total_offered > 0
    assert report.total_offered == pytest.approx(
        report.total_attended + report.unserved_bytes, rel=1e-12
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_same_seed_same_report(scenarios, reports, policy):
    again = POLICIES[policy](scenarios["scenario1"])
    assert without_timings(again) == without_timings(reports["scenario1", policy])


def test_compare_rejects_mismatched_runs(tmp_path, reports):
    other = run_baseline(read_scenario(str(scenario1_ini(tmp_path, seed=8))))
    with pytest.raises(ProvenanceMismatch):
        compare(reports["scenario1", "pipeline"], other)
    with pytest.raises(ProvenanceMismatch):
        compare(reports["scenario1", "pipeline"], reports["flat", "pipeline"])
    same = compare(reports["scenario1", "pipeline"], reports["scenario1", "baseline"])
    assert same.value("total_cost")[0] == reports["scenario1", "pipeline"].total_cost
    # The baseline has no detector: its missing event is NaN, not (0, 0).
    assert reports["scenario1", "baseline"].events == []
    start, end = reports["scenario1", "pipeline"].events[0]
    for metric, first in (("event_start", start), ("event_end", end)):
        a, b, delta = same.value(metric)
        assert a == first and math.isnan(b) and math.isnan(delta)


def test_flat_scenario_hires_nothing(scenarios, reports):
    report = reports["flat", "pipeline"]
    assert all(r.hired_active == 0 and r.hired_pending == 0 for r in report.rows)
    assert report.peak_fleet == scenarios["flat"].owned_count
    assert report.final_backlog() == 0.0


def test_one_record_per_replan(reports):
    report = reports["scenario1", "pipeline"]
    assert report.plan_solves > 0
    assert len(report.replans) == report.plan_solves
    times = [r.t for r in report.replans]
    assert times == sorted(set(times))
    for r in report.replans:
        assert r.requests > 0 and r.servers > 0 and r.solve_ms > 0 and r.plan_cost > 0
        assert r.moves_screened + r.moves_accepted <= r.moves_tried
    # Every hired instance, active or provisioning, was spawned by a replan.
    assert sum(r.hires for r in report.replans) >= max(
        r.hired_active + r.hired_pending for r in report.rows
    )
    assert reports["scenario1", "baseline"].replans == []


def count_solves(monkeypatch, solve=None):
    """Route sim.ils_solve through ``solve`` (default: the real one) and
    return the list that gets one entry per call."""
    calls = []
    solve = solve or sim.ils_solve

    def counted(inst, params):
        calls.append(inst)
        return solve(inst, params)

    monkeypatch.setattr(sim, "ils_solve", counted)
    return calls


def record_replan_inputs(monkeypatch):
    """Wrap sim._replan and return the list that gets, for each replan that
    leaves a record, what its instance reads that changes within a run."""
    keys = []
    replan = sim._replan

    def recorded(scenario, t, pending, owned, hired, incoming, origins, report,
                 recent_counts, plans):
        key = (
            tuple(s.type.name for s in owned + hired),
            tuple((r.content, r.remaining) for r in pending if r.server is None),
            tuple(sorted(recent_counts.items())),
        )
        before = len(report.replans)
        replan(scenario, t, pending, owned, hired, incoming, origins, report,
               recent_counts, plans)
        if len(report.replans) > before:
            keys.append(key)

    monkeypatch.setattr(sim, "_replan", recorded)
    return keys


def test_each_distinct_replan_is_solved_once(monkeypatch, scenarios, reports):
    calls = count_solves(monkeypatch)
    keys = record_replan_inputs(monkeypatch)
    report = run_pipeline(scenarios["scenario1"])
    assert without_timings(report) == without_timings(reports["scenario1", "pipeline"])
    fresh = [r for r in report.replans if not r.reused]
    assert (len(calls), len(fresh), len(report.replans)) == (30, 30, 43)
    assert len(keys) == len(report.replans)
    first = {}
    for key, record in zip(keys, report.replans):
        assert record.reused == (key in first)
        first.setdefault(key, record)
        # A reused record is the first solve's, but for its time and t.
        assert dataclasses.replace(record, t=0, solve_ms=0.0, reused=False) == (
            dataclasses.replace(first[key], t=0, solve_ms=0.0, reused=False)
        )


def test_no_plan_is_shared_between_runs(monkeypatch, scenarios):
    calls = count_solves(monkeypatch)
    run_pipeline(scenarios["scenario1"])
    once = len(calls)
    run_pipeline(scenarios["scenario1"])
    assert once > 0 and len(calls) == 2 * once


def test_infeasible_replans_keep_the_current_fleet(monkeypatch, scenarios):
    def infeasible(inst, params):
        raise Infeasible("no plan")

    calls = count_solves(monkeypatch, infeasible)
    keys = record_replan_inputs(monkeypatch)
    report = run_pipeline(scenarios["scenario1"])
    assert report.replans
    # Each failed key was solved once: the window and the widened window.
    assert len(calls) == 2 * len(set(keys)) == 2 * sum(not r.reused for r in report.replans)
    assert all(r.failed and r.widened and r.plan_cost is None for r in report.replans)
    assert all(r.moves_tried == 0 and r.hires == 0 for r in report.replans)
    assert report.plan_solves == 0
    assert all(r.hired_active == 0 and r.hired_pending == 0 for r in report.rows)
    assert report.total_offered == pytest.approx(
        report.total_attended + report.unserved_bytes, rel=1e-12
    )


def test_failed_replan_is_not_solved_again(monkeypatch, scenarios):
    def infeasible(inst, params):
        raise Infeasible("no plan")

    calls = count_solves(monkeypatch, infeasible)
    scenario = scenarios["scenario1"]
    large = scenario.types[scenario.owned_type]
    owned = [sim._Server(large, scenario.owned_billing, 0, frozenset({0, 1, 2}))] * 2
    report = sim.RunReport("pipeline", "none", scenario.seed)
    plans = {}
    for t in (10, 15):
        pending = [sim._SimRequest(2, 900.0), sim._SimRequest(0, 1900.0)]
        sim._replan(scenario, t, pending, owned, [], set(), {0: 0, 1: 1, 2: 0}, report,
                    {2: 3}, plans)
    assert len(calls) == 2 and len(plans) == 1
    first, again = report.replans
    assert first.failed and first.widened and not first.reused
    assert again.reused and again.t == 15
    assert dataclasses.replace(again, t=10, solve_ms=first.solve_ms, reused=False) == first


def edited_scenario1(tmp_path, key, value=None):
    """The scenario1 fixture with the line of ``key`` set to ``value``, or
    deleted when value is None; "section.key" edits the key in that section,
    and adds it there when the fixture does not set it."""
    path = scenario1_ini(tmp_path)
    lines = path.read_text().splitlines()
    section, _, key = key.rpartition(".")
    start = lines.index(f"[{section}]") if section else 0
    at = next((i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = ")), None)
    if at is None:
        lines.insert(start + 1, f"{key} = {value}")
    elif value is None:
        del lines[at]
    else:
        lines[at] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("billing_granularity", "0"),
        ("plan_bandwidth_margin", "1.0"),
        ("plan_bandwidth_margin", "-0.1"),
        ("replication_delay", "-1"),
        ("provisioning_delay", "-1"),
        ("client_bandwidth", "0"),
        ("w", "0"),
        ("autoscaling.threshold", "0"),
        ("autoscaling.threshold", "1"),
        ("autoscaling.max", "0"),
        ("autoscaling.min", "-1"),
        ("autoscaling.cooldown", "-1"),
        ("autoscaling.lb_cost", "-1"),
        ("sizes", "0:-1900,1:1500,2:900"),
        ("sizes", "0:1900,1:0,2:900"),
        ("default_size", "0"),
        ("copy_cost", "-1"),
        ("attend_cost", "-1"),
        ("penalty", "-5"),
        ("owned", "large:0"),
        ("owned", "large:-1"),
        ("max_new_instances", "-1"),
        ("plan_window", "0"),
        ("plan_window", "-1"),
        ("owned_billing", "-1"),
        ("types", "large:storage=0,bandwidth=2600,cost=0.14"),
        ("types", "large:storage=4300,bandwidth=0,cost=0.14"),
        ("types", "large:storage=4300,bandwidth=-1,cost=0.14"),
        ("types", "large:storage=4300,bandwidth=2600,cost=-0.14"),
        ("types", "large:storage=4300,bandwidth=2600"),
        ("types", "large"),
        ("types", "large:storage=big,bandwidth=2600,cost=0.14"),
        ("sizes", "0:x"),
        ("owned", "large:two"),
        ("penalty", "x"),
        ("replan_interval", "five"),
        ("detector.w", "x"),
        ("warmup", "-1"),
        ("gap_merge", "-5"),
        ("detector.m", "0"),
        ("detector.m", "-2"),
        ("generator", None),
        ("iters", "-1"),
        ("levels", "-1"),
        ("ils.d", "0"),
        ("swap_frac", "2"),
    ],
)
def test_bad_scenario_values_rejected_at_load(tmp_path, key, value):
    # Each of these once failed a replay midway, or ran on silently, instead
    # of failing at load; a client bandwidth of 0 made the demand schedule
    # grow until memory ran out, a negative penalty paid the plan to delay, a
    # negative warmup divided by zero and a negative gap_merge never re-planned.
    with pytest.raises(ScenarioInvalid):
        read_scenario(edited_scenario1(tmp_path, key, value))


@pytest.mark.parametrize(
    "value,missing",
    [("large:storage=4300,bandwidth=2600", "cost"), ("large", "storage, bandwidth, cost")],
)
def test_server_type_missing_field_is_named(tmp_path, value, missing):
    with pytest.raises(ScenarioInvalid, match=f"server type 'large' is missing {missing}$"):
        read_scenario(edited_scenario1(tmp_path, "types", value))


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("types", "large:storage=big,bandwidth=2600,cost=0.14",
         "[servers] types: bad number 'big'"),
        ("sizes", "0:x", "[demand] sizes: bad number 'x'"),
        ("owned", "large:two", "[servers] owned: bad number 'two'"),
        ("penalty", "x", "[demand] penalty: bad number 'x'"),
        ("replan_interval", "five", "[scenario] replan_interval: bad number 'five'"),
        ("detector.w", "x", "[detector] w: bad number 'x'"),
        ("iters", "-1", "[ils] iters: iter_max must be >= 1"),
        ("levels", "-1", "[ils] levels: level_max must be >= 0"),
        ("ils.d", "0", "[ils] d: d must be nonzero"),
        ("swap_frac", "2", "[ils] swap_frac: swap_sample_fraction in (0, 1]"),
        ("detector.m", "-2", "detector m must be >= 1"),
        ("autoscaling.lb_cost", "-0.5", "autoscaling lb_cost must be >= 0"),
    ],
)
def test_bad_number_names_its_key(tmp_path, key, value, named):
    with pytest.raises(ScenarioInvalid, match=f"^{re.escape(named)}$"):
        read_scenario(edited_scenario1(tmp_path, key, value))


@pytest.mark.parametrize(
    "line,edited,named",
    [
        ("u_max = 4", "u_max = x", "[content.0] u_max: bad number 'x'"),
        ("alpha0 = 0.6", "alpha0 = low", "[content.2] alpha0: bad number 'low'"),
        ("horizon = 330", "horizon = long", "[generator] horizon: bad number 'long'"),
        ("[content.1]", "[content.one]", "[content.one] section id: bad number 'one'"),
        ("up:100:150:0.06", "up:100:end:0.06", "[content.2] phases: bad number 'end'"),
        ("u_max = 4\n", "", "missing key 'u_max' in [content.0]"),
    ],
)
def test_bad_generator_number_names_file_section_and_key(tmp_path, line, edited, named):
    path = scenario1_ini(tmp_path)
    gen = tmp_path / "gen.ini"
    gen.write_text(gen.read_text().replace(line, edited, 1))
    with pytest.raises(ScenarioInvalid, match=f"^{re.escape(f'{gen}: {named}')}$"):
        read_scenario(str(path))


@pytest.mark.parametrize("key", ["client_bandwidth", "owned", "types", "vm_type"])
def test_missing_required_key_is_named(tmp_path, key):
    with pytest.raises(ScenarioInvalid, match=f"missing key '{key}'"):
        read_scenario(edited_scenario1(tmp_path, key))


def test_csv_trace_replays_like_its_generator(tmp_path, scenarios, reports):
    # The same bins read from a `[trace] file` CSV instead of `generator`.
    csv_path = tmp_path / "trace.csv"
    write_csv_trace(scenarios["scenario1"].load_trace(), str(csv_path))
    ini = scenario1_ini(tmp_path)
    ini.write_text(re.sub(r"(?m)^generator = .*$", f"file = {csv_path}", ini.read_text()))
    from_csv = read_scenario(str(ini))
    assert from_csv.generator is None
    for policy, run in POLICIES.items():
        got = without_timings(run(from_csv))
        want = without_timings(reports["scenario1", policy])
        # The CSV carries no bin width, so it reads as 1 instead of 60.
        assert got.provenance != want.provenance
        assert dataclasses.replace(got, provenance=want.provenance) == want
