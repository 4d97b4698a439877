import math
import re

import pytest

from flashcrowd.generator import BadValue, ContentProfile, GeneratorConfig, PhaseKind, PhaseSchedule
from flashcrowd.instances import spread_demand
from flashcrowd.model import (
    AttendanceTuple,
    Content,
    HIRABLE,
    InstanceInvalid,
    OWNED,
    PlanningInstance,
    Replication,
    Request,
    Server,
    Solution,
    UnknownId,
    check_feasibility,
    evaluate,
)
from flashcrowd.trace import BinnedTrace

from util_instances import tiny_instance_o1


def simple_instance(storage=50, start=1):
    servers = [Server(0, OWNED, storage=storage, bandwidth=20)]
    contents = [Content(0, size=10, start=start, origin=0, copy_cost=1.0)]
    requests = [Request(0, 0, attend_cost=2.5, demand={start: 10.0}, penalty=1.0)]
    return PlanningInstance(servers, contents, requests, horizon=2, client_bandwidth=10)


def served_solution():
    # Replica held only while used.
    return Solution(
        tuples=[AttendanceTuple(0, 0, 1, {0: 10.0})],
        replicas={(0, 0, 1)},
    )


def instance_with(**changes):
    """A one-server, one-content, one-request instance with ``changes``."""
    args = dict(
        servers=[Server(0, OWNED, 50, 20)],
        contents=[Content(0, 10, 1, 0, 1.0)],
        requests=[Request(0, 0, 2.5, {1: 10.0})],
        horizon=2,
        client_bandwidth=10,
    )
    return PlanningInstance(**{**args, **changes})


# Each load check of the model: a construction that fails it and the message.
INVALID = {
    "server-kind": (lambda: Server(0, "rented", 10, 10), "bad kind 'rented'"),
    "server-storage": (lambda: Server(0, OWNED, 0, 10), "storage/bandwidth must be positive"),
    "server-bandwidth": (lambda: Server(0, OWNED, 10, -1), "storage/bandwidth must be positive"),
    "content-size": (lambda: Content(0, 0, 1, 0, 1.0), "size must be positive"),
    "copy-cost": (lambda: Content(0, 10, 1, 0, -1.0), "copy cost must be nonnegative"),
    "duplicate-server": (
        lambda: instance_with(servers=[Server(0, OWNED, 50, 20)] * 2), "duplicate server ids"),
    "duplicate-content": (
        lambda: instance_with(contents=[Content(0, 10, 1, 0, 1.0)] * 2), "duplicate content ids"),
    "duplicate-request": (
        lambda: instance_with(requests=[Request(0, 0, 2.5, {1: 10.0})] * 2),
        "duplicate request ids"),
    "horizon": (lambda: instance_with(horizon=0), "horizon must cover at least one period"),
    "client-bandwidth": (
        lambda: instance_with(client_bandwidth=0), "client bandwidth must be positive"),
    "replication-delay": (
        lambda: instance_with(replication_delay=-1), "delays must be nonnegative"),
    "provisioning-delay": (
        lambda: instance_with(provisioning_delay=-1), "delays must be nonnegative"),
    "billing-granularity": (
        lambda: instance_with(billing_granularity=0), "billing granularity must be >= 1"),
    "unknown-origin": (
        lambda: instance_with(contents=[Content(0, 10, 1, 9, 1.0)]), "unknown origin server 9"),
    "start-outside-horizon": (
        lambda: instance_with(contents=[Content(0, 10, 3, 0, 1.0)]), "start outside horizon"),
    "unknown-content": (
        lambda: instance_with(requests=[Request(0, 9, 2.5, {1: 10.0})]), "unknown content 9"),
    "negative-demand": (
        lambda: instance_with(requests=[Request(0, 0, 2.5, {1: -5.0, 2: 15.0})]),
        "demand at 1 must be nonnegative"),
    "demand-outside-horizon": (
        lambda: instance_with(requests=[Request(0, 0, 2.5, {1: 5.0, 3: 5.0})]),
        "demand period 3 outside horizon"),
}


NAN = math.nan


def request_with(**changes):
    """``instance_with`` whose one request has ``changes``."""
    args = dict(id=0, content=0, attend_cost=2.5, demand={1: 10.0})
    return instance_with(requests=[Request(**{**args, **changes})])


# Each number check of the model, generator and trace in its NaN-rejecting
# form: a construction that fails it, the error and the full message.
NOT_IN_RANGE = {
    "server-storage-nan": (
        lambda: Server(0, OWNED, NAN, 10), InstanceInvalid,
        "server 0: storage/bandwidth must be positive"),
    "server-bandwidth-nan": (
        lambda: Server(0, OWNED, 10, NAN), InstanceInvalid,
        "server 0: storage/bandwidth must be positive"),
    "hirable-cost-nan": (
        lambda: Server(0, HIRABLE, 10, 10, NAN), InstanceInvalid,
        "server 0: hirable servers need positive cost"),
    "content-size-nan": (
        lambda: Content(0, NAN, 1, 0, 1.0), InstanceInvalid, "content 0: size must be positive"),
    "copy-cost-nan": (
        lambda: Content(0, 10, 1, 0, NAN), InstanceInvalid,
        "content 0: copy cost must be nonnegative"),
    "client-bandwidth-nan": (
        lambda: instance_with(client_bandwidth=NAN), InstanceInvalid,
        "client bandwidth must be positive"),
    "demand-nan": (
        lambda: request_with(demand={1: NAN}), InstanceInvalid,
        "request 0: demand at 1 must be nonnegative"),
    "penalty-negative": (
        lambda: request_with(penalty=-1.0), InstanceInvalid,
        "request 0: penalty must be nonnegative"),
    "penalty-nan": (
        lambda: request_with(penalty=NAN), InstanceInvalid,
        "request 0: penalty must be nonnegative"),
    "attend-cost-negative": (
        lambda: request_with(attend_cost=-1.0), InstanceInvalid,
        "request 0: attendance cost must be nonnegative"),
    "attend-cost-nan": (
        lambda: request_with(attend_cost=NAN), InstanceInvalid,
        "request 0: attendance cost must be nonnegative"),
    "alpha0-nan": (
        lambda: ContentProfile(0, 4, NAN, 1.0), BadValue, "alpha0 and beta0 must be positive"),
    "beta0-nan": (
        lambda: ContentProfile(0, 4, 1.0, NAN), BadValue, "alpha0 and beta0 must be positive"),
    "gamma-nan": (
        lambda: PhaseSchedule(1, 5, NAN, PhaseKind.RAMP_UP), ValueError,
        "gamma must be positive"),
    "generator-bin-width-nan": (
        lambda: GeneratorConfig([], 10, NAN, 0), BadValue, "bin_width must be positive"),
    "trace-bin-width-nan": (
        lambda: BinnedTrace(NAN), ValueError, "bin_width must be positive"),
}


class TestInstanceValidation:
    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_input_rejected_at_load(self, case):
        build, message = INVALID[case]
        with pytest.raises(InstanceInvalid, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("case", NOT_IN_RANGE)
    def test_nan_or_negative_value_rejected_with_its_message(self, case):
        build, error, message = NOT_IN_RANGE[case]
        with pytest.raises(error) as caught:
            build()
        assert caught.value.args == (message,)

    def test_demand_must_match_content_size(self):
        with pytest.raises(InstanceInvalid):
            PlanningInstance(
                [Server(0, OWNED, 10, 10)],
                [Content(0, 10, 1, 0, 1.0)],
                [Request(0, 0, 1.0, {1: 5.0})],
                horizon=2,
                client_bandwidth=10,
            )

    def test_owned_server_cost_zero(self):
        with pytest.raises(InstanceInvalid):
            Server(0, OWNED, 10, 10, cost=1.0)
        with pytest.raises(InstanceInvalid):
            Server(0, HIRABLE, 10, 10, cost=0.0)

    def test_demand_before_start_rejected(self):
        with pytest.raises(InstanceInvalid):
            PlanningInstance(
                [Server(0, OWNED, 10, 10)],
                [Content(0, 10, 2, 0, 1.0)],
                [Request(0, 0, 1.0, {1: 10.0})],
                horizon=3,
                client_bandwidth=10,
            )

    def test_slot_mapping_clamped(self):
        inst = tiny_instance_o1()
        assert inst.billing_slots == 2
        assert inst.slot_of(1) == 1  # (1 - tp) = 0 clamps up
        assert inst.slot_of(3) == 1
        assert inst.slot_of(2) == 1

    def test_big_m_covers_every_coefficient(self):
        inst = tiny_instance_o1()
        # max over: attend 1, penalty 3 * max size 20 = 60, copy 2, hire 4.
        assert inst.big_m == 60.0


class TestEvaluate:
    def test_empty_solution_zero(self):
        cost = evaluate(simple_instance(), Solution())
        assert cost.attend == cost.backlog == cost.replication == 0.0
        assert cost.financial_normalized == 0.0
        assert cost.total == 0.0

    def test_single_attendance_costs_attend_only(self):
        cost = evaluate(simple_instance(), served_solution())
        assert cost.total == cost.attend == 2.5

    def test_attend_charged_once_per_request_server_period(self):
        inst = simple_instance()
        sol = Solution(
            tuples=[
                AttendanceTuple(0, 0, 1, {0: 6.0}),
                AttendanceTuple(0, 0, 1, {0: 4.0}),
            ]
        )
        assert evaluate(inst, sol).attend == 2.5

    def test_backlog_and_replication_and_financial(self):
        inst = tiny_instance_o1()
        sol = Solution(
            replications=[Replication(0, 0, 1, 1)],
            hires={(1, 1)},
            backlog={(0, 1): 10.0},
        )
        cost = evaluate(inst, sol)
        assert cost.backlog == 30.0
        assert cost.replication == 2.0
        assert cost.financial_normalized == pytest.approx(4.0 / 60.0)
        assert cost.total == pytest.approx(30.0 + 2.0 + 4.0 / 60.0)

    def test_financial_term_is_tiebreaker_scale(self):
        inst = tiny_instance_o1()
        # One hired slot normalizes below every nonzero time coefficient.
        one_slot = evaluate(inst, Solution(hires={(1, 1)}))
        assert one_slot.financial_normalized <= 1.0
        coefficients = [r.attend_cost for r in inst.requests]
        coefficients += [c.copy_cost for c in inst.contents]
        coefficients += [r.penalty for r in inst.requests]
        assert one_slot.financial_normalized <= min(coefficients)

    def test_unknown_ids(self):
        inst = simple_instance()
        with pytest.raises(UnknownId):
            evaluate(inst, Solution(tuples=[AttendanceTuple(0, 9, 1, {0: 1.0})]))
        with pytest.raises(UnknownId):
            evaluate(inst, Solution(backlog={(5, 1): 1.0}))
        with pytest.raises(UnknownId):
            evaluate(inst, Solution(hires={(9, 1)}))

    @pytest.mark.parametrize("solution, message", [
        (Solution(tuples=[AttendanceTuple(0, 0, 1, {9: 1.0})]), "unknown request 9"),
        (Solution(tuples=[AttendanceTuple(9, 0, 1, {0: 1.0})]), "unknown content 9"),
        (Solution(replications=[Replication(9, 0, 0, 1)]), "unknown content 9"),
        (Solution(replications=[Replication(0, 0, 9, 1)]),
         "unknown server in replication Replication(content=0, source=0, target=9, period=1)"),
    ])
    def test_unknown_id_is_named(self, solution, message):
        with pytest.raises(UnknownId) as caught:
            evaluate(simple_instance(), solution)
        assert caught.value.args == (message,)


# One hand-built corrected-mode violation per family that no solver output
# or workload produces: simple_instance arguments and the solution.
VIOLATING = {
    "r4_1": ({}, Solution(tuples=[AttendanceTuple(0, 0, 1, {0: 15.0})])),
    "r14_2": ({}, Solution(backlog={(0, 1): -1.0})),
    "r7": ({"start": 2}, Solution(replicas={(0, 0, 1)})),
    "r9": ({"start": 2}, Solution(replications=[Replication(0, 0, 0, 1)])),
    "r10c": ({}, Solution(replications=[Replication(0, 0, 0, 1)])),
    "r12": ({"storage": 5}, Solution(replicas={(0, 0, 1)})),
}


class TestFeasibility:
    @pytest.mark.parametrize("family", VIOLATING)
    def test_violation_is_reported_under_its_family(self, family):
        args, sol = VIOLATING[family]
        families = {v.family for v in check_feasibility(simple_instance(**args), sol, "corrected")}
        assert family in families

    @pytest.mark.parametrize("solution, message", [
        (Solution(tuples=[AttendanceTuple(0, 9, 1, {0: 1.0})]), "unknown server 9"),
        (Solution(tuples=[AttendanceTuple(9, 0, 1, {0: 1.0})]), "unknown content 9"),
        (Solution(tuples=[AttendanceTuple(0, 0, 1, {9: 1.0})]), "unknown request 9"),
        (Solution(backlog={(9, 1): 1.0}), "unknown request 9"),
        (Solution(replications=[Replication(9, 0, 0, 1)]), "unknown content 9"),
        (Solution(replications=[Replication(0, 9, 0, 1)]),
         "unknown server in replication Replication(content=0, source=9, target=0, period=1)"),
        (Solution(replications=[Replication(0, 0, 9, 1)]),
         "unknown server in replication Replication(content=0, source=0, target=9, period=1)"),
        (Solution(hires={(9, 1)}), "unknown hired server 9"),
        (Solution(replicas={(0, 0, 1), (9, 0, 1)}), "unknown content 9 in replicas"),
        (Solution(replicas={(0, 0, 1), (0, 9, 1)}), "unknown server 9 in replicas"),
    ], ids=["tuple-server", "tuple-content", "tuple-request", "backlog-request",
            "replication-content", "replication-source", "replication-target", "hire-server",
            "replica-content", "replica-server"])
    def test_unknown_id_is_named(self, solution, message):
        with pytest.raises(UnknownId) as caught:
            check_feasibility(simple_instance(), solution)
        assert caught.value.args == (message,)
        if not message.endswith(" in replicas"):
            # evaluate reads no replicas, and names every other id alike.
            with pytest.raises(UnknownId) as caught:
                evaluate(simple_instance(), solution)
            assert caught.value.args == (message,)

    def test_valid_solution_clean(self):
        inst = simple_instance()
        sol = served_solution()
        assert check_feasibility(inst, sol, "corrected") == []

    def test_only_the_corrected_mode_is_accepted(self):
        with pytest.raises(ValueError, match="unknown mode 'literal'"):
            check_feasibility(simple_instance(), served_solution(), "literal")

    def test_missing_replica_violates_r5(self):
        inst = simple_instance()
        sol = Solution(tuples=[AttendanceTuple(0, 0, 1, {0: 10.0})], replicas={(0, 0, 2)})
        families = {v.family for v in check_feasibility(inst, sol, "corrected")}
        assert "r5" in families and "r6" in families

    def test_client_bandwidth_violates_r3(self):
        servers = [Server(0, OWNED, 50, 40), Server(1, OWNED, 50, 40)]
        contents = [Content(0, 20, 1, 0, 1.0)]
        requests = [Request(0, 0, 1.0, {1: 10.0, 2: 10.0}, 1.0)]
        inst = PlanningInstance(servers, contents, requests, horizon=2, client_bandwidth=10)
        sol = Solution(
            tuples=[
                AttendanceTuple(0, 0, 1, {0: 10.0}),
                AttendanceTuple(0, 1, 1, {0: 10.0}),
            ],
            replicas={(0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2)},
        )
        families = {v.family for v in check_feasibility(inst, sol, "corrected")}
        assert "r3" in families
        # Serving period-2 demand early also breaks the flow balance.
        assert "r1" in families
        # Non-origin replica at the start period breaks seeding rules.
        assert "r8" in families

    def test_bandwidth_storage_and_hire_violations(self):
        inst = tiny_instance_o1()
        sol = Solution(
            tuples=[AttendanceTuple(0, 1, 1, {0: 10.0, 1: 10.0})],
            replicas={(0, 1, 1)},
        )
        families = {v.family for v in check_feasibility(inst, sol, "corrected")}
        assert "r2" in families  # 20 bytes on a 10-byte server
        assert "r13" in families  # hired server without a slot
        assert "r8" in families

    def test_unfulfilled_demand_violates_r4(self):
        inst = simple_instance()
        sol = Solution(replicas={(0, 0, 1), (0, 0, 2)})
        families = {v.family for v in check_feasibility(inst, sol, "corrected")}
        assert "r4" in families and "r1" in families

    def test_persisted_replica_needs_no_copy(self):
        inst = tiny_instance_o1()
        sol = Solution(
            tuples=[
                AttendanceTuple(0, 0, 1, {0: 10.0}),
                AttendanceTuple(0, 0, 2, {0: 10.0}),
                AttendanceTuple(0, 0, 3, {1: 10.0}),
                AttendanceTuple(0, 0, 4, {1: 10.0}),
            ],
            replicas={(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4)},
            backlog={(1, 1): 10.0, (1, 2): 20.0, (1, 3): 10.0},
        )
        # The origin replica persists from period 1 to 4 with no copy sent.
        assert check_feasibility(inst, sol, "corrected") == []

    def test_copy_needs_the_source_not_the_destination(self):
        inst = tiny_instance_o1()
        # Copy 0 -> 1 at period 1 (arrives 2): the source holds the content
        # at the send period, the destination does not.
        sol = Solution(
            tuples=[
                AttendanceTuple(0, 0, 1, {0: 10.0, 1: 10.0}),
                AttendanceTuple(0, 0, 2, {0: 10.0, 1: 10.0}),
            ],
            replications=[Replication(0, 0, 1, 1)],
            replicas={(0, 0, 1), (0, 1, 2)},
            backlog={},
        )
        families = {v.family for v in check_feasibility(inst, sol, "corrected")}
        assert "r10c" not in families and "r11c" not in families
        # r3: both requests at 10 bytes in period 1 is fine per request.
        assert "r3" not in families


def test_spread_demand():
    assert spread_demand(10, 2, 4) == {2: 4.0, 3: 4.0, 4: 2.0}
    assert spread_demand(4, 1, 4) == {1: 4.0}
