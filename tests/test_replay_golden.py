"""Pinned replay reports on the scenario fixtures.

``data/replay_golden.json`` holds, for each fixture, seed and policy, the
whole run report except its timings: every period row (without
``detector_ms``), the events, the totals, ``peak_fleet``,
``unserved_bytes``, ``plan_solves`` and every replan record (without
``solve_ms``). A refactor of the replay must reproduce it: floats to 1e-9
relative, integers and flags exactly. Each case names the row and record
fields it pins, so a field added to the report later is not pinned until
the file is rewritten. Rewrite it only for a change that is meant to move
the replay, with

    PYTHONPATH=src python tests/test_replay_golden.py
"""

import dataclasses
import json
import math
import pathlib
import tempfile

import pytest

from flashcrowd.sim import PeriodRow, ReplanRecord, read_scenario, run_baseline, run_pipeline
from util_scenarios import flat_scenario_ini, scenario1_ini

PATH = pathlib.Path(__file__).parent / "data" / "replay_golden.json"
FIXTURES = {"scenario1": scenario1_ini, "flat": flat_scenario_ini}
POLICIES = {"pipeline": run_pipeline, "baseline": run_baseline}
CASES = [
    (fixture, seed, policy)
    for fixture, seed in (("scenario1", 7), ("scenario1", 94), ("flat", 3))
    for policy in POLICIES
]
TOTALS = ("total_cost", "total_offered", "total_attended", "backlog_periods",
          "peak_fleet", "unserved_bytes", "plan_solves")
UNTIMED_ROW = [f.name for f in dataclasses.fields(PeriodRow) if f.name != "detector_ms"]
UNTIMED_REPLAN = [f.name for f in dataclasses.fields(ReplanRecord) if f.name != "solve_ms"]


def replay(tmp_path, fixture, seed, policy):
    scenario = read_scenario(str(FIXTURES[fixture](tmp_path, seed=seed)))
    report = POLICIES[policy](scenario)
    return {
        "fixture": fixture,
        "seed": seed,
        "policy": policy,
        "events": [list(e) for e in report.events],
        "totals": {name: getattr(report, name) for name in TOTALS},
        "row_fields": UNTIMED_ROW,
        "rows": [[getattr(r, f) for f in UNTIMED_ROW] for r in report.rows],
        "replan_fields": UNTIMED_REPLAN,
        "replans": [[getattr(r, f) for f in UNTIMED_REPLAN] for r in report.replans],
    }, report


def same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("fixture,seed,policy", CASES)
def test_report_matches_golden(tmp_path, fixture, seed, policy):
    golden = json.loads(PATH.read_text())[CASES.index((fixture, seed, policy))]
    assert (golden["fixture"], golden["seed"], golden["policy"]) == (fixture, seed, policy)
    _record, report = replay(tmp_path, fixture, seed, policy)
    assert [list(e) for e in report.events] == golden["events"]
    for name, want in golden["totals"].items():
        assert same(getattr(report, name), want), name
    assert len(report.rows) == len(golden["rows"])
    for row, want in zip(report.rows, golden["rows"]):
        got = [getattr(row, f) for f in golden["row_fields"]]
        assert all(map(same, got, want)), (row.period, got, want)
    assert len(report.replans) == len(golden["replans"])
    for rec, want in zip(report.replans, golden["replans"]):
        got = [getattr(rec, f) for f in golden["replan_fields"]]
        assert all(map(same, got, want)), (rec.t, got, want)


def _dump(records) -> str:
    """JSON with one line per period row and per replan record."""
    def lines(items):
        return "[\n   " + ",\n   ".join(json.dumps(i) for i in items) + "\n  ]" if items else "[]"

    cases = []
    for rec in records:
        body = [f'  "{k}": {json.dumps(v)}' for k, v in rec.items() if k not in ("rows", "replans")]
        body += [f'  "rows": {lines(rec["rows"])}', f'  "replans": {lines(rec["replans"])}']
        cases.append(" {\n" + ",\n".join(body) + "\n }")
    return "[\n" + ",\n".join(cases) + "\n]\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for i, case in enumerate(CASES):
            where = pathlib.Path(tmp) / str(i)
            where.mkdir()
            records.append(replay(where, *case)[0])
    PATH.write_text(_dump(records))
