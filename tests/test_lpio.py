import hashlib
import re

import pytest

from flashcrowd.lpio import export_lp, parse_lp, solution_to_assignment, solve_exact, solve_lp_text
from flashcrowd.model import (
    Content,
    HIRABLE,
    Infeasible,
    OWNED,
    PlanningInstance,
    Request,
    Server,
    TooLarge,
)

from util_instances import infeasible_instance, oversized_instance, tiny_instance_o1


def micro_instance():
    """|R| = 1, |S| = 2, |C| = 1, |T| = 2, one billing slot."""
    servers = [
        Server(0, OWNED, storage=30, bandwidth=10, cost=0.0),
        Server(1, HIRABLE, storage=30, bandwidth=10, cost=2.0),
    ]
    contents = [Content(0, size=10, start=1, origin=0, copy_cost=1.0)]
    requests = [Request(0, 0, 1.0, {1: 6.0, 2: 4.0}, 2.0)]
    return PlanningInstance(
        servers, contents, requests, horizon=2, client_bandwidth=6,
        replication_delay=1, provisioning_delay=1, billing_granularity=2,
    )


class TestExportCounts:
    def test_variable_and_constraint_counts_match_enumeration(self):
        # Hand enumeration per the documented emission rules.
        inst = micro_instance()
        lp = parse_lp(export_lp(inst, mode="literal"))
        vars_by_prefix = {}
        for v in lp.variables:
            vars_by_prefix.setdefault(v.split("_")[0], set()).add(v)
        # x: |R| * |S| * |T| = 1*2*2
        assert len(vars_by_prefix["x"]) == 4
        # s: |R| * |S| * #{(o,t): o <= t} = 1*2*3
        assert len(vars_by_prefix["s"]) == 6
        # b: t in [start..T] = 2
        assert len(vars_by_prefix["b"]) == 2
        # y: start period only origin + both servers at t=2 = 1 + 2
        assert len(vars_by_prefix["y"]) == 3
        # w: |C| * |S| * |S| * |T from start| = 1*2*2*2
        assert len(vars_by_prefix["w"]) == 8
        # z: one hirable server, one slot
        assert len(vars_by_prefix["z"]) == 1
        counts = {}
        for name, _c, _op, _rhs in lp.constraints:
            fam = re.match(r"(r\d+c?(?:_1)?)_", name + "_").group(1)
            counts[fam] = counts.get(fam, 0) + 1
        assert counts["r1"] == 2  # t in [1..2]
        assert counts["r2"] == 4  # j * t
        assert counts["r3"] == 2  # i * t
        assert counts["r4"] == 1
        assert counts["r4_1"] == 4  # i * j * t
        assert counts["r5"] == 4
        assert counts["r6"] == 1
        assert counts["r10"] == 2  # j * {t=1} (t+tr=2 <= T), y(t+tr) exists
        assert counts["r11"] == 8  # j * l * t in [start..T]
        assert counts["r12"] == 3  # (j,t) combos with an existing y var
        assert counts["r13"] == 2  # i * hirable * t

    def test_corrected_families(self):
        inst = micro_instance()
        lp = parse_lp(export_lp(inst, mode="corrected"))
        fams = {name.split("_")[0] for name, *_ in lp.constraints}
        assert "r10c" in fams and "r11c" in fams
        assert not any(n.startswith("r10_") or n.startswith("r11_") for n, *_ in lp.constraints)

    def test_empty_instance(self):
        inst = PlanningInstance(
            [Server(0, OWNED, 10, 10)], [], [], horizon=1, client_bandwidth=1
        )
        text = export_lp(inst)
        assert " obj: 0" in text
        assert parse_lp(text).constraints == []

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            export_lp(oversized_instance())


@pytest.mark.parametrize(
    "make,mode,digest",
    [
        (tiny_instance_o1, "literal", "ec7d7a10f37048d4f5e31aa087f7462a7a8de186e185d0b3b60e48123582a652"),
        (tiny_instance_o1, "corrected", "230673c5c43063aec15cab9f931fa19228f3fb051a93415a13243bf59e4646fa"),
        (micro_instance, "literal", "d028256744c1c7fab354000dd050398f13d315ee78b6cfb4bd9b62cee260231f"),
        (micro_instance, "corrected", "e2ebe2a586d1ea00ac595e701a4d49954d93d87f79c7f87886aa926a1b25bcf5"),
    ],
)
def test_export_text_digest(make, mode, digest):
    # Pins the exact LP text: row order, term order and number format.
    assert hashlib.sha256(export_lp(make(), mode).encode()).hexdigest() == digest


class TestRoundTrip:
    def test_objective_of_oracle_assignment_matches_evaluate(self):
        for mode in ("literal", "corrected"):
            inst = tiny_instance_o1()
            sol, cost = solve_exact(inst, mode=mode)
            lp = parse_lp(export_lp(inst, mode=mode))
            assignment = solution_to_assignment(inst, sol)
            assert lp.objective_value(assignment) == pytest.approx(cost.total, abs=1e-9)

    def test_parser_handles_signs_and_floats(self):
        text = (
            "Minimize\n obj: 2.5 a - 1e-2 b + c\nSubject To\n"
            " c1: a + 2 b - 3 c <= 4.5\n c2: a = 1\nBounds\n b >= 0\nBinaries\n a c\nEnd\n"
        )
        lp = parse_lp(text)
        assert lp.objective == {"a": 2.5, "b": -0.01, "c": 1.0}
        assert lp.constraints[0][1] == {"a": 1.0, "b": 2.0, "c": -3.0}
        assert lp.constraints[0][2] == "<=" and lp.constraints[0][3] == 4.5
        assert lp.binaries == {"a", "c"}


class TestExternalSolver:
    """HiGHS objectives against optima derived by hand."""

    def test_micro_instance_optimum_matches_oracle(self):
        # Serving 6 at t=1 and 4 at t=2 from the origin costs two
        # attendances and no backlog. The replica on the origin at t=2
        # needs one self-copy in literal mode (cost 1) and persists for free
        # in corrected mode. Any other plan adds a copy, a hire or backlog.
        for mode, optimum in (("literal", 3.0), ("corrected", 2.0)):
            obj, _values = solve_lp_text(export_lp(micro_instance(), mode=mode))
            assert obj == pytest.approx(optimum, abs=1e-9)

    def test_o1_optimum_matches_oracle(self):
        # The optima of test_exact.TestOracleO1.
        for mode, optimum in (("literal", 70 + 4 / 60), ("corrected", 66 + 4 / 60)):
            obj, _values = solve_lp_text(export_lp(tiny_instance_o1(), mode=mode))
            assert obj == pytest.approx(optimum, abs=1e-9)

    def test_infeasible_model_raises_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp_text(export_lp(infeasible_instance(), mode="corrected"))
