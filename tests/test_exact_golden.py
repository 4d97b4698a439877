"""Pinned optima of seeded tiny planning instances.

``data/exact_golden.json`` holds, for each case, the optimal objective
under the "corrected" constraints, or null when no solution exists. Its
values were first written by an exhaustive enumerator, an exact solver
independent of the MILP that is no longer in the package; they agreed with
``solve_exact`` on every case. Each case also keeps, under "literal", the
enumerator's optimum under the source model's printed r10/r11 (the erratum
in ``flashcrowd.model``), which the package no longer encodes: r10c/r11c
only drop copy obligations, so the optimum ``solve_exact`` finds never
exceeds it. A case (seed, draw) is the instance that
``random_tiny_instance`` returns on its draw-th call (from 0) on
``random.Random(seed)``: seeds 0-39 at draw 0, and draws 1-4 of seed 23,
the random stream the two exact solvers were first compared on.

    PYTHONPATH=src python tests/test_exact_golden.py

rewrites the "corrected" values from ``solve_exact``, the solver the file
checks, and carries the "literal" ones over. So that a rewrite cannot take
in a fault of that solver unchecked, each new optimum must have zero
violations under ``check_feasibility``, an ``evaluate`` total equal to the
MILP objective, and no more than its case's "literal" bound (and exist
wherever that bound does). The rewrite prints every case whose optimum
moves and writes nothing if any check fails. On an unchanged solver it
reproduces the file byte for byte; rewrite it only for a change meant to
move an optimum.
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
MODE = "corrected"  # the file keys each optimum by it, and each test id names it
PRINTED = "literal"  # the key and test id of the printed r10/r11 optimum


def instance(seed: int, draw: int):
    rng = random.Random(seed)
    for _ in range(draw):
        random_tiny_instance(rng)
    return random_tiny_instance(rng)


def optimum(inst) -> float | None:
    try:
        return solve_exact(inst)[1].total
    except Infeasible:
        return None


@pytest.fixture(scope="module")
def golden():
    return {(c["seed"], c["draw"]): c for c in json.loads(PATH.read_text())}


@pytest.mark.parametrize("mode", [PRINTED, MODE])
@pytest.mark.parametrize("seed,draw", CASES)
def test_optimum_matches_golden(golden, seed, draw, mode):
    inst = instance(seed, draw)
    want = golden[seed, draw][mode]
    if mode == PRINTED:
        if want is not None:
            got = optimum(inst)
            assert got is not None and got <= want + 1e-9
        return
    if want is None:
        with pytest.raises(Infeasible):
            solve_exact(inst)
        return
    objective, values = solve_model(build_model(inst))
    sol = assignment_to_solution(inst, values)
    assert check_feasibility(inst, sol, mode) == []
    assert abs(evaluate(inst, sol).total - objective) <= 1e-9
    assert abs(objective - want) <= 1e-9


def rewrite(stored: dict) -> tuple[list[dict], list[str]]:
    """The file's records recomputed, and every check a new optimum fails;
    prints each case whose "corrected" optimum moves."""
    records, problems = [], []
    for seed, draw in CASES:
        inst = instance(seed, draw)
        case = f"{seed}-{draw}"
        bound = stored[seed, draw][PRINTED]
        try:
            objective, values = solve_model(build_model(inst))
        except Infeasible:
            new = None
            if bound is not None:
                problems.append(f"{case}: infeasible, but the printed rows allow {bound}")
        else:
            sol = assignment_to_solution(inst, values)
            new = evaluate(inst, sol).total
            violations = check_feasibility(inst, sol, MODE)
            if violations:
                problems.append(f"{case}: {len(violations)} violations, first {violations[0]}")
            if abs(new - objective) > 1e-9:
                problems.append(f"{case}: evaluate gives {new}, the MILP {objective}")
            if bound is not None and new > bound + 1e-9:
                problems.append(f"{case}: optimum {new} above the printed-row optimum {bound}")
        if new != stored[seed, draw][MODE]:
            print(f"{case}: {stored[seed, draw][MODE]} -> {new}")
        records.append({"seed": seed, "draw": draw, PRINTED: bound, MODE: new})
    return records, problems


if __name__ == "__main__":
    stored = {(c["seed"], c["draw"]): c for c in json.loads(PATH.read_text())}
    records, problems = rewrite(stored)
    if problems:
        raise SystemExit("not rewritten:\n" + "\n".join(problems))
    PATH.write_text(json.dumps(records, indent=1) + "\n")
