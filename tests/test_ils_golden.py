"""Pinned ILS searches on seeded midsize instances.

``data/ils_golden.json`` holds, for each (instance seed, search seed), the
final cost and the search counters of ``ils.solve`` with exact move
rollback. A change to how moves are evaluated or screened must reproduce
the same search: cost to 1e-9 and identical counters. Rewrite the file
only for a change that is meant to move the search, with

    PYTHONPATH=src python tests/test_ils_golden.py
"""

import json
import pathlib
import random

import pytest

from flashcrowd.ils import IlsParams, solve
from util_instances import random_midsize_instance

PATH = pathlib.Path(__file__).parent / "data" / "ils_golden.json"
CASES = ((0, 0), (4, 1), (5, 0), (7, 1), (8, 0), (11, 1))
PINNED = ("moves_tried", "moves_accepted", "moves_screened", "moves_failed", "perturbations")


def search(instance_seed: int, search_seed: int) -> dict:
    inst = random_midsize_instance(random.Random(instance_seed))
    _sol, cost, stats = solve(inst, IlsParams(iter_max=2, level_max=2, seed=search_seed))
    record = {"instance_seed": instance_seed, "search_seed": search_seed, "cost": cost.total}
    record.update((name, stats[name]) for name in PINNED)
    return record


@pytest.mark.parametrize("instance_seed,search_seed", CASES)
def test_search_matches_golden(instance_seed, search_seed):
    golden = json.loads(PATH.read_text())
    case = golden[CASES.index((instance_seed, search_seed))]
    got = search(instance_seed, search_seed)
    assert (case["instance_seed"], case["search_seed"]) == (instance_seed, search_seed)
    assert abs(got["cost"] - case["cost"]) <= 1e-9
    assert {n: got[n] for n in PINNED} == {n: case[n] for n in PINNED}


if __name__ == "__main__":
    PATH.write_text(json.dumps([search(*c) for c in CASES], indent=1) + "\n")
