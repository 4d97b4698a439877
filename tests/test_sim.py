"""Replay reports of the pipeline and baseline policies."""

import dataclasses

import pytest

from flashcrowd.sim import ProvenanceMismatch, compare, read_scenario, run_baseline, run_pipeline
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
    return dataclasses.replace(report, rows=rows, max_detector_ms=0.0)


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


def test_flat_scenario_hires_nothing(scenarios, reports):
    report = reports["flat", "pipeline"]
    assert all(r.hired_active == 0 and r.hired_pending == 0 for r in report.rows)
    assert report.peak_fleet == scenarios["flat"].owned_count
    assert report.final_backlog() == 0.0
