import random

import pytest

from flashcrowd.lpio import solve_exact
from flashcrowd.model import (
    Content,
    HIRABLE,
    Infeasible,
    OWNED,
    PlanningInstance,
    Request,
    Server,
    TooLarge,
    check_feasibility,
    evaluate,
)

from util_instances import (
    infeasible_instance,
    oversized_instance,
    random_tiny_instance,
    tiny_instance_o1,
)


def retention_instance():
    """Single peak period; serving the late request from the origin needs a
    literal-mode self-copy, and that optimum is clean in both modes."""
    servers = [
        Server(0, OWNED, storage=100, bandwidth=10, cost=0.0),
        Server(1, HIRABLE, storage=100, bandwidth=10, cost=4.0),
    ]
    contents = [Content(0, size=10, start=1, origin=0, copy_cost=2.0)]
    requests = [
        Request(0, 0, attend_cost=1.0, demand={1: 10.0}, penalty=3.0),
        Request(1, 0, attend_cost=1.0, demand={1: 10.0}, penalty=3.0),
    ]
    return PlanningInstance(
        servers, contents, requests, horizon=3, client_bandwidth=10,
        replication_delay=1, provisioning_delay=1, billing_granularity=2,
    )


class TestOracleO1:
    def test_literal_fixture(self):
        sol, cost = solve_exact(tiny_instance_o1(), mode="literal")
        assert cost.total == pytest.approx(70 + 4 / 60 + 0.0, abs=1e-9)
        assert cost.attend == 4.0
        assert cost.backlog == 60.0
        assert cost.replication == 6.0
        assert cost.financial_normalized == pytest.approx(4.0 / 60.0)
        assert check_feasibility(tiny_instance_o1(), sol, "literal") == []

    def test_corrected_fixture_hires_one_slot(self):
        inst = tiny_instance_o1()
        sol, cost = solve_exact(inst, mode="corrected")
        assert cost.total == pytest.approx(66 + 4 / 60, abs=1e-9)
        assert cost.replication == 2.0  # one copy to the hired server
        assert sorted(sol.hires) == [(1, 1)]
        assert check_feasibility(inst, sol, "corrected") == []

    def test_evaluate_matches_reported(self):
        inst = tiny_instance_o1()
        sol, cost = solve_exact(inst, mode="corrected")
        again = evaluate(inst, sol)
        assert again.total == pytest.approx(cost.total)


def test_retention_optimum_clean_in_both_modes():
    inst = retention_instance()
    sol, cost = solve_exact(inst, mode="literal")
    assert check_feasibility(inst, sol, "literal") == []
    assert check_feasibility(inst, sol, "corrected") == []
    # Serve one request per period from the origin; one self-copy retains
    # the replica for the second period.
    assert cost.attend == 2.0 and cost.backlog == 30.0 and cost.replication == 2.0
    assert cost.financial_normalized == 0.0


def test_owned_coverage_hires_nothing():
    servers = [
        Server(0, OWNED, storage=100, bandwidth=40, cost=0.0),
        Server(1, HIRABLE, storage=100, bandwidth=40, cost=2.0),
    ]
    contents = [Content(0, size=8, start=1, origin=0, copy_cost=1.0)]
    requests = [
        Request(0, 0, 1.0, {1: 8.0}, 1.0),
        Request(1, 0, 1.0, {2: 8.0}, 1.0),
    ]
    inst = PlanningInstance(servers, contents, requests, horizon=3, client_bandwidth=8)
    sol, cost = solve_exact(inst, mode="corrected")
    assert sol.hires == set()
    assert cost.financial_normalized == 0.0
    assert cost.total == 2.0


def test_infeasible_reported():
    with pytest.raises(Infeasible):
        solve_exact(infeasible_instance(), mode="corrected")


def test_too_large_guard():
    with pytest.raises(TooLarge):
        solve_exact(oversized_instance(), mode="literal")


def test_oracle_is_minimal_over_random_feasible_solutions():
    # Independent check: the oracle's optimum lower-bounds randomized
    # feasible solutions produced by a naive construction.
    from flashcrowd.ils import constructive_phase

    rng = random.Random(5)
    found = 0
    while found < 6:
        inst = random_tiny_instance(rng)
        try:
            _sol, cost = solve_exact(inst, mode="corrected")
        except Infeasible:
            continue
        found += 1
        for seed in range(4):
            try:
                plan = constructive_phase(inst, random.Random(seed))
            except Infeasible:
                continue
            candidate = plan.to_solution()
            assert check_feasibility(inst, candidate, "corrected") == []
            assert evaluate(inst, candidate).total >= cost.total - 1e-9


def test_random_tiny_instances_mode_consistent():
    rng = random.Random(11)
    solved = 0
    while solved < 8:
        inst = random_tiny_instance(rng)
        try:
            lit_sol, lit_cost = solve_exact(inst, mode="literal")
            cor_sol, cor_cost = solve_exact(inst, mode="corrected")
        except Infeasible:
            continue
        solved += 1
        assert check_feasibility(inst, lit_sol, "literal") == []
        assert check_feasibility(inst, cor_sol, "corrected") == []
        # The corrected encoding only removes copy obligations, so its
        # optimum can never be worse.
        assert cor_cost.total <= lit_cost.total + 1e-9
