"""Pinned ILS searches on seeded midsize instances.

``data/ils_golden.json`` holds, for each case (instance seed, search
parameters), the final cost and the search counters of ``ils.solve`` with
exact move rollback. Most cases run the default delay ``d = 1`` and swap
sample; the rest run ``d = 2`` or a swap sample of 0.3, so a screen that
treats either parameter differently moves a count. A change to how moves
are evaluated or screened must reproduce the same search: cost to 1e-9 and
identical counters. Rewrite the file only for a change that is meant to
move the search, with

    PYTHONPATH=src python tests/test_ils_golden.py

``test_digest_of_98_searches`` pins a wider sweep in one hash: every
counter of 98 searches, on more instances and seeds than the file holds.
``test_search_digest_of_98_searches`` hashes the same searches' cost and
search counters alone, leaving out the counts of screened and failed moves,
so a change to the screen alone must leave it unchanged.
"""

import hashlib
import json
import pathlib
import random

import pytest

from flashcrowd.ils import IlsParams, solve
from util_instances import random_midsize_instance

PATH = pathlib.Path(__file__).parent / "data" / "ils_golden.json"


def params(seed: int, **kw) -> IlsParams:
    return IlsParams(iter_max=2, level_max=2, seed=seed, **kw)


# (instance seed, search parameters)
CASES = (
    (0, params(0)),
    (4, params(1)),
    (5, params(0)),
    (7, params(1)),
    (8, params(0)),
    (11, params(1)),
    (2, params(0, d=2)),
    (9, params(1, d=2)),
    (3, params(0, swap_sample_fraction=0.3)),
    (12, params(1, swap_sample_fraction=0.3)),
)
PINNED = ("moves_tried", "moves_accepted", "moves_screened", "moves_failed", "perturbations")


def case_id(instance_seed: int, p: IlsParams) -> str:
    """``instance-seed``, plus any parameter off its default."""
    name = f"{instance_seed}-{p.seed}"
    if p.d != IlsParams.d:
        name += f"-d{p.d}"
    if p.swap_sample_fraction != IlsParams.swap_sample_fraction:
        name += f"-swap{p.swap_sample_fraction}"
    return name


def search(instance_seed: int, p: IlsParams) -> dict:
    inst = random_midsize_instance(random.Random(instance_seed))
    _sol, cost, stats = solve(inst, p)
    record = {
        "instance_seed": instance_seed,
        "search_seed": p.seed,
        "d": p.d,
        "swap_sample_fraction": p.swap_sample_fraction,
        "cost": cost.total,
    }
    record.update((name, stats[name]) for name in PINNED)
    return record


@pytest.mark.parametrize("index", range(len(CASES)), ids=[case_id(*c) for c in CASES])
def test_search_matches_golden(index):
    case = json.loads(PATH.read_text())[index]
    got = search(*CASES[index])
    head = ("instance_seed", "search_seed", "d", "swap_sample_fraction")
    assert {n: got[n] for n in head} == {n: case[n] for n in head}
    assert abs(got["cost"] - case["cost"]) <= 1e-9
    assert {n: got[n] for n in PINNED} == {n: case[n] for n in PINNED}


# sha256 of the 98 searches of ``digest_searches``; see its docstring.
DIGEST = "024da9c38e202e2d3b834316b2dcb3b9700b83503a8dbe4b3ddd57c62736638d"


def digest_searches():
    """The (instance seed, search parameters) of the digest, in its order:
    for each instance seed 0..13, search seeds 0..2 each at d = 1 then 2,
    then search seed 0 with a swap sample of 0.3."""
    return [
        (s, p)
        for s in range(14)
        for p in [params(x, d=d) for x in range(3) for d in (1, 2)]
        + [params(0, swap_sample_fraction=0.3)]
    ]


# sha256 of the same 98 searches, over the search alone; see
# ``test_search_digest_of_98_searches``.
SEARCH_DIGEST = "43e20c3328d207182a44473ce67c9d417bfe686f76bb9e9a1eabae7fe3840f31"
# The counters that describe where the search went, not how much work the
# screen saved it: a change to the screen alone leaves them as they are.
SEARCH = ("moves_tried", "moves_accepted", "perturbations")


def digest_runs():
    """(instance seed, params, cost, stats without ``wall_time``) of each
    search of ``digest_searches``, in its order."""
    for instance_seed, p in digest_searches():
        inst = random_midsize_instance(random.Random(instance_seed))
        _sol, cost, stats = solve(inst, p)
        stats.pop("wall_time")
        yield instance_seed, p, cost.total, stats


def test_digest_of_98_searches():
    # sha256 over repr((instance seed, params, cost, sorted counters)) of
    # each search, with ``wall_time`` left out.
    h = hashlib.sha256()
    for instance_seed, p, cost, stats in digest_runs():
        h.update(repr((instance_seed, p, cost, sorted(stats.items()))).encode())
    assert h.hexdigest() == DIGEST


def test_search_digest_of_98_searches():
    # sha256 over repr((instance seed, params, cost, the SEARCH counters in
    # that order)) of each search. A screen that rejects more or fewer moves
    # before applying them moves ``moves_screened`` and ``moves_failed``, and
    # so DIGEST, but must leave this one as it is.
    h = hashlib.sha256()
    for instance_seed, p, cost, stats in digest_runs():
        h.update(repr((instance_seed, p, cost, [stats[n] for n in SEARCH])).encode())
    assert h.hexdigest() == SEARCH_DIGEST


if __name__ == "__main__":
    PATH.write_text(json.dumps([search(*c) for c in CASES], indent=1) + "\n")
