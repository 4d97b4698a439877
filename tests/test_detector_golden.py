"""Pinned detector series on the scenario fixtures.

``data/detector_golden.json`` holds, for each fixture and seed, the
detector points (t, C) and the flagged events as the dense n x n joint
computed them. Kernel rewrites must reproduce C to 1e-9 bits and the
same points and events.

One event differs from the dense kernel's: on scenario1 seed 94 it gave
C = 2.2e-16 instead of 0 on the product joint at t = 122, after an all-zero
warm-up, and opened the event there; C on a product joint is now exactly
0 and the event opens at t = 123.
"""

import json
import pathlib

import pytest

from flashcrowd.detector import detect
from flashcrowd.sim import read_scenario
from util_scenarios import flat_scenario_ini, scenario1_ini

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "detector_golden.json").read_text())
FIXTURES = {"scenario1": scenario1_ini, "flat": flat_scenario_ini}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['fixture']}-{c['seed']}")
def test_series_matches_golden(tmp_path, case):
    cfg = read_scenario(str(FIXTURES[case["fixture"]](tmp_path, seed=case["seed"])))
    series = detect(cfg.load_trace(), cfg.detector_w, cfg.flag_cfg)
    assert [p.t for p in series.points] == [t for t, _ in case["points"]]
    worst = max(abs(p.c_xy - c) for p, (_, c) in zip(series.points, case["points"]))
    assert worst <= 1e-9
    assert [list(e) for e in series.events] == case["events"]
