"""Pinned optima of seeded tiny planning instances.

``data/exact_golden.json`` holds, for each case and both constraint modes,
the optimal objective, or null when no solution exists. The file was
written by an exhaustive enumerator, an exact solver independent of the
MILP, and stands in for it as the reference ``solve_exact`` is checked
against. A case (seed, draw) is the instance that ``random_tiny_instance``
returns on its draw-th call (from 0) on ``random.Random(seed)``: seeds
0-39 at draw 0, and draws 1-4 of seed 23, the random stream the two exact
solvers were first compared on. Rewrite the file only for a change meant
to move an optimum, with

    PYTHONPATH=src python tests/test_exact_golden.py
"""

import json
import pathlib
import random

import pytest

from flashcrowd.lpio import assignment_to_solution, build_model, solve_exact, solve_model
from flashcrowd.model import Infeasible, check_feasibility, evaluate
from util_instances import random_tiny_instance

PATH = pathlib.Path(__file__).parent / "data" / "exact_golden.json"
CASES = tuple((seed, 0) for seed in range(40)) + tuple((23, draw) for draw in range(1, 5))
MODES = ("literal", "corrected")


def instance(seed: int, draw: int):
    rng = random.Random(seed)
    for _ in range(draw):
        random_tiny_instance(rng)
    return random_tiny_instance(rng)


def optimum(inst, mode: str) -> float | None:
    try:
        return solve_exact(inst, mode)[1].total
    except Infeasible:
        return None


@pytest.fixture(scope="module")
def golden():
    return {(c["seed"], c["draw"]): c for c in json.loads(PATH.read_text())}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed,draw", CASES)
def test_optimum_matches_golden(golden, seed, draw, mode):
    inst = instance(seed, draw)
    want = golden[seed, draw][mode]
    if want is None:
        with pytest.raises(Infeasible):
            solve_exact(inst, mode)
        return
    objective, values = solve_model(build_model(inst, mode))
    sol = assignment_to_solution(inst, values)
    assert check_feasibility(inst, sol, mode) == []
    assert abs(evaluate(inst, sol).total - objective) <= 1e-9
    assert abs(objective - want) <= 1e-9


if __name__ == "__main__":
    records = [
        {"seed": s, "draw": d, **{m: optimum(instance(s, d), m) for m in MODES}}
        for s, d in CASES
    ]
    PATH.write_text(json.dumps(records, indent=1) + "\n")
