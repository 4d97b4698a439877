"""LP-format export of planning instances, a parser, a MILP bridge and
the exact solver.

The exporter writes standard LP text (CPLEX dialect) so any mainstream
MILP solver can check or solve an instance; the parser reads that subset
back, and ``solve_lp_text`` feeds it to scipy's HiGHS-backed MILP solver.
``solve_exact`` returns the optimum as a ``Solution``: it exports, solves,
and decodes the variable values with ``assignment_to_solution``, the
inverse of ``solution_to_assignment``.

Emission rules (the documented contract for counting variables and
constraints):

Variables (identically-zero variables are presolved away):
  x_i{i}_j{j}_t{t}          all requests, servers, periods
  s_i{i}_o{o}_j{j}_t{t}     slice variables, only o <= t
  b_i{i}_t{t}               t in [content start, horizon]
  y_k{k}_j{j}_t{t}          t in [content start, horizon], but at the start
                            period only the origin server
  w_k{k}_j{j}_l{l}_t{t}     j = source, l = target, t in [content start, horizon]
  z_j{j}_a{a}               hirable servers, billing slots

Constraints, one named row per index tuple:
  r1_i{i}_t{t}    demand/backlog flow            t in [start, horizon]
  r2_j{j}_t{t}    server bandwidth
  r3_i{i}_t{t}    client bandwidth
  r4_i{i}         full handling
  r4_1_i{i}_j{j}_t{t}  slice-to-attendance coupling
  r5_i{i}_j{j}_t{t}    attendance needs a replica
  r6_k{k}         origin seeding (y fixed to 1)
  r10_k{k}_j{j}_t{t}   [literal] replica at t+tr needs an outgoing copy at t
  r11_k{k}_j{j}_l{l}_t{t}  [literal] copy from l into j needs y at the
                           destination j (index pattern as printed)
  r10c_k{k}_j{j}_l{l}_t{t} [corrected] copy from j needs y at the source
  r11c_k{k}_l{l}_t{t}      [corrected] replica persists or is created
  r12_j{j}_t{t}   storage
  r13_i{i}_j{j}_t{t}   hired slot required (one row per period, using the
                       period-to-slot mapping)

Families r7/r8/r9 (zero fixings before the content start) are enforced by
the variable emission rules above rather than by rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .model import (
    AttendanceTuple,
    CostBreakdown,
    Infeasible,
    PlanningInstance,
    Replication,
    Solution,
    TooLarge,
    evaluate,
)

# export_lp raises TooLarge when |R||S||T|^2, about twice the number of
# slice variables s, exceeds this.
MAX_VARIABLES = 200_000


def _fmt(value: float) -> str:
    return f"{value:.12g}"


class _Rows:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, name: str, terms: list[tuple[float, str]], op: str, rhs: float) -> None:
        if not terms:
            raise AssertionError(f"constraint {name} has no terms")
        parts = []
        for coef, var in terms:
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            parts.append(f"{sign} {_fmt(mag)} {var}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        self.lines.append(f" {name}: {text} {op} {_fmt(rhs)}")


def export_lp(instance: PlanningInstance, mode: str = "literal") -> str:
    """Serialize the instance as LP text in the selected constraint mode."""
    if mode not in ("literal", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    inst = instance
    tf = inst.horizon
    nr, ns = len(inst.requests), len(inst.servers)
    if nr * ns * tf * tf > MAX_VARIABLES:
        raise TooLarge(
            f"|R||S||T|^2 = {nr * ns * tf * tf} exceeds cap {MAX_VARIABLES}"
        )
    tr = inst.replication_delay
    m = inst.big_m

    def x(i, j, t):
        return f"x_i{i}_j{j}_t{t}"

    def s(i, o, j, t):
        return f"s_i{i}_o{o}_j{j}_t{t}"

    def b(i, t):
        return f"b_i{i}_t{t}"

    def yv(k, j, t):
        return f"y_k{k}_j{j}_t{t}"

    def wv(k, j, l, t):
        return f"w_k{k}_j{j}_l{l}_t{t}"

    def zv(j, a):
        return f"z_j{j}_a{a}"

    def y_exists(k, j, t) -> bool:
        c = inst.content_by_id[k]
        if t < c.start or t > tf:
            return False
        return t > c.start or j == c.origin

    server_ids = [srv.id for srv in inst.servers]
    binaries: list[str] = []
    objective: list[tuple[float, str]] = []
    # (demand, slice variable) terms of request i on server j at period t,
    # in o order; every bandwidth and handling row is built from these.
    slices: dict[tuple[int, int, int], list[tuple[float, str]]] = {}

    for r in inst.requests:
        for j in server_ids:
            for t in range(1, tf + 1):
                binaries.append(x(r.id, j, t))
                if r.attend_cost:
                    objective.append((r.attend_cost, x(r.id, j, t)))
                terms = slices[r.id, j, t] = []
                for o in range(1, t + 1):
                    var = s(r.id, o, j, t)
                    binaries.append(var)
                    if r.demand_at(o):
                        terms.append((r.demand_at(o), var))
    b_vars: list[str] = []
    for r in inst.requests:
        start = inst.content_by_id[r.content].start
        for t in range(start, tf + 1):
            b_vars.append(b(r.id, t))
            pen = r.penalty_at(t)
            if pen:
                objective.append((pen, b(r.id, t)))
    for c in inst.contents:
        for j in server_ids:
            for t in range(c.start, tf + 1):
                if y_exists(c.id, j, t):
                    binaries.append(yv(c.id, j, t))
                for l in server_ids:
                    binaries.append(wv(c.id, j, l, t))
                    if c.copy_cost:
                        objective.append((c.copy_cost, wv(c.id, j, l, t)))
    for srv in inst.hirable:
        for a in range(1, inst.billing_slots + 1):
            binaries.append(zv(srv.id, a))
            objective.append((srv.cost / m, zv(srv.id, a)))

    rows = _Rows()

    for r in inst.requests:
        start = inst.content_by_id[r.content].start
        for t in range(start, tf + 1):
            terms = [term for j in server_ids for term in slices[r.id, j, t]]
            terms.append((1.0, b(r.id, t)))
            if t - 1 >= start:
                terms.append((-1.0, b(r.id, t - 1)))
            rows.add(f"r1_i{r.id}_t{t}", terms, "=", r.demand_at(t))

    for j in server_ids:
        srv = inst.server_by_id[j]
        for t in range(1, tf + 1):
            terms = [term for r in inst.requests for term in slices[r.id, j, t]]
            if terms:
                rows.add(f"r2_j{j}_t{t}", terms, "<=", srv.bandwidth)

    for r in inst.requests:
        for t in range(1, tf + 1):
            terms = [term for j in server_ids for term in slices[r.id, j, t]]
            if terms:
                rows.add(f"r3_i{r.id}_t{t}", terms, "<=", inst.client_bandwidth)

    for r in inst.requests:
        terms = [
            term for j in server_ids for t in range(1, tf + 1) for term in slices[r.id, j, t]
        ]
        rows.add(f"r4_i{r.id}", terms, "=", r.total_demand)

    for r in inst.requests:
        size = inst.content_by_id[r.content].size
        for j in server_ids:
            for t in range(1, tf + 1):
                terms = [*slices[r.id, j, t], (-size, x(r.id, j, t))]
                rows.add(f"r4_1_i{r.id}_j{j}_t{t}", terms, "<=", 0.0)

    for r in inst.requests:
        k = r.content
        for j in server_ids:
            for t in range(1, tf + 1):
                terms = [(-1.0, x(r.id, j, t))]
                if y_exists(k, j, t):
                    terms.insert(0, (1.0, yv(k, j, t)))
                rows.add(f"r5_i{r.id}_j{j}_t{t}", terms, ">=", 0.0)

    for c in inst.contents:
        rows.add(f"r6_k{c.id}", [(1.0, yv(c.id, c.origin, c.start))], "=", 1.0)

    if mode == "literal":
        for c in inst.contents:
            for j in server_ids:
                for t in range(c.start, tf + 1):
                    if t + tr > tf or not y_exists(c.id, j, t + tr):
                        continue
                    terms = [(1.0, wv(c.id, j, l, t)) for l in server_ids]
                    terms.append((-1.0, yv(c.id, j, t + tr)))
                    rows.add(f"r10_k{c.id}_j{j}_t{t}", terms, ">=", 0.0)
        for c in inst.contents:
            for j in server_ids:  # destination, as printed
                for l in server_ids:  # source
                    for t in range(c.start, tf + 1):
                        terms = [(-1.0, wv(c.id, l, j, t))]
                        if y_exists(c.id, j, t):
                            terms.insert(0, (1.0, yv(c.id, j, t)))
                        rows.add(f"r11_k{c.id}_j{j}_l{l}_t{t}", terms, ">=", 0.0)
    else:
        for c in inst.contents:
            for j in server_ids:  # source
                for l in server_ids:
                    for t in range(c.start, tf + 1):
                        terms = [(-1.0, wv(c.id, j, l, t))]
                        if y_exists(c.id, j, t):
                            terms.insert(0, (1.0, yv(c.id, j, t)))
                        rows.add(f"r10c_k{c.id}_j{j}_l{l}_t{t}", terms, ">=", 0.0)
        for c in inst.contents:
            for l in server_ids:
                for t in range(c.start + 1, tf + 1):
                    if not y_exists(c.id, l, t):
                        continue
                    terms = [(1.0, yv(c.id, l, t))]
                    if y_exists(c.id, l, t - 1):
                        terms.append((-1.0, yv(c.id, l, t - 1)))
                    if t - tr >= c.start:
                        for j in server_ids:
                            terms.append((-1.0, wv(c.id, j, l, t - tr)))
                    rows.add(f"r11c_k{c.id}_l{l}_t{t}", terms, "<=", 0.0)

    for j in server_ids:
        srv = inst.server_by_id[j]
        for t in range(1, tf + 1):
            terms = [
                (c.size, yv(c.id, j, t))
                for c in inst.contents
                if y_exists(c.id, j, t)
            ]
            if terms:
                rows.add(f"r12_j{j}_t{t}", terms, "<=", srv.storage)

    for r in inst.requests:
        for srv in inst.hirable:
            for t in range(1, tf + 1):
                a = inst.slot_of(t)
                rows.add(
                    f"r13_i{r.id}_j{srv.id}_t{t}",
                    [(1.0, zv(srv.id, a)), (-1.0, x(r.id, srv.id, t))],
                    ">=",
                    0.0,
                )

    obj_text = (
        " ".join(
            (f"+ {_fmt(c)} {v}" if c >= 0 else f"- {_fmt(-c)} {v}")
            for c, v in objective
        ).lstrip("+ ")
        or "0"
    )
    out = ["\\ planning instance LP export", "Minimize", f" obj: {obj_text}", "Subject To"]
    out.extend(rows.lines)
    if b_vars:
        out.append("Bounds")
        out.extend(f" {v} >= 0" for v in b_vars)
    if binaries:
        out.append("Binaries")
        for i in range(0, len(binaries), 8):
            out.append(" " + " ".join(binaries[i : i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Parser for the exported subset, and a scipy (HiGHS) solve bridge.
# ---------------------------------------------------------------------------


@dataclass
class ParsedLP:
    objective: dict[str, float]
    constant: float
    constraints: list[tuple[str, dict[str, float], str, float]]
    binaries: set[str]
    variables: list[str]

    def objective_value(self, assignment: dict[str, float]) -> float:
        return self.constant + sum(
            coef * assignment.get(var, 0.0) for var, coef in self.objective.items()
        )


_TOKEN = re.compile(r"(<=|>=|=|\+|-|[A-Za-z_][A-Za-z0-9_]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)")


def _parse_terms(tokens: list[str]) -> tuple[dict[str, float], float]:
    coeffs: dict[str, float] = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = 1.0
        elif tok == "-":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = -1.0
        elif re.fullmatch(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?", tok):
            if pending is not None:
                constant += sign * pending
            pending = float(tok)
        else:
            coef = sign * (pending if pending is not None else 1.0)
            coeffs[tok] = coeffs.get(tok, 0.0) + coef
            pending = None
            sign = 1.0
    if pending is not None:
        constant += sign * pending
    return coeffs, constant


def parse_lp(text: str) -> ParsedLP:
    """Parse the LP subset produced by export_lp."""
    section = None
    objective: dict[str, float] = {}
    constant = 0.0
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    binaries: set[str] = set()
    bounds_lines: list[str] = []
    obj_tokens: list[str] = []
    pending_row: list[str] = []

    def flush_row() -> None:
        nonlocal pending_row
        if not pending_row:
            return
        joined = " ".join(pending_row)
        pending_row = []
        name, _, rest = joined.partition(":")
        tokens = _TOKEN.findall(rest)
        op_idx = next(i for i, t in enumerate(tokens) if t in ("<=", ">=", "="))
        coeffs, const = _parse_terms(tokens[:op_idx])
        rhs_coeffs, rhs_const = _parse_terms(tokens[op_idx + 1 :])
        if rhs_coeffs:
            raise ValueError(f"variables on rhs of {name}")
        constraints.append((name.strip(), coeffs, tokens[op_idx], rhs_const - const))

    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        lowered = line.strip().lower()
        if lowered in ("minimize", "maximize", "subject to", "bounds", "binaries", "binary", "general", "end"):
            flush_row()
            section = lowered
            continue
        if section == "minimize":
            obj_tokens.extend(_TOKEN.findall(line.partition(":")[2] if ":" in line else line))
        elif section == "subject to":
            if ":" in line and pending_row:
                flush_row()
            pending_row.append(line.strip())
        elif section == "bounds":
            bounds_lines.append(line.strip())
        elif section in ("binaries", "binary"):
            binaries.update(line.split())
    flush_row()
    objective, constant = _parse_terms(obj_tokens)
    variables = sorted(
        set(objective)
        | binaries
        | {v for _n, coeffs, _op, _rhs in constraints for v in coeffs}
        | {ln.split()[0] for ln in bounds_lines if ln}
    )
    return ParsedLP(objective, constant, constraints, binaries, variables)


def solve_lp_text(text: str, time_limit: float | None = None) -> tuple[float, dict[str, float]]:
    """Solve exported LP text with scipy's MILP (HiGHS); returns (obj, values).

    Raises Infeasible when HiGHS proves the model infeasible, and
    RuntimeError on any other failure, such as the time limit.
    """
    lp = parse_lp(text)
    idx = {v: i for i, v in enumerate(lp.variables)}
    n = len(lp.variables)
    c = np.zeros(n)
    for v, coef in lp.objective.items():
        c[idx[v]] = coef
    if lp.constraints:
        rows, cols, vals = [], [], []
        lbs, ubs = [], []
        for rno, (_name, coeffs, op, rhs) in enumerate(lp.constraints):
            for v, coef in coeffs.items():
                rows.append(rno)
                cols.append(idx[v])
                vals.append(coef)
            if op == "<=":
                lbs.append(-np.inf)
                ubs.append(rhs)
            elif op == ">=":
                lbs.append(rhs)
                ubs.append(np.inf)
            else:
                lbs.append(rhs)
                ubs.append(rhs)
        mat = scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(lp.constraints), n)
        )
        constraints = scipy.optimize.LinearConstraint(mat, lbs, ubs)
    else:
        constraints = ()
    integrality = np.array([1 if v in lp.binaries else 0 for v in lp.variables])
    upper = np.array([1.0 if v in lp.binaries else np.inf for v in lp.variables])
    bounds = scipy.optimize.Bounds(np.zeros(n), upper)
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    res = scipy.optimize.milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    if res.status == 2:
        raise Infeasible(f"MILP infeasible: {res.message}")
    if not res.success:
        raise RuntimeError(f"MILP solve failed: {res.message}")
    values = {v: float(res.x[idx[v]]) for v in lp.variables}
    return float(res.fun) + lp.constant, values


def solution_to_assignment(instance: PlanningInstance, solution) -> dict[str, float]:
    """Map a Solution onto exported LP variable names (x, b, y, w, z)."""
    values: dict[str, float] = {}
    for (req, srv, t), amount in solution.attended().items():
        if amount > 0:
            values[f"x_i{req}_j{srv}_t{t}"] = 1.0
    for (req, t), amount in solution.backlog.items():
        values[f"b_i{req}_t{t}"] = amount
    for (k, j, t) in solution.replicas:
        values[f"y_k{k}_j{j}_t{t}"] = 1.0
    for rep in solution.replications:
        name = f"w_k{rep.content}_j{rep.source}_l{rep.target}_t{rep.period}"
        values[name] = values.get(name, 0.0) + 1.0
    for (j, a) in solution.hires:
        values[f"z_j{j}_a{a}"] = 1.0
    return values


def assignment_to_solution(instance: PlanningInstance, values: dict[str, float]) -> Solution:
    """Decode LP variable values into a Solution; inverse of solution_to_assignment.

    Each set slice variable s_i_o_j_t serves request i's demand that arrived
    at o from (content, j, t); set y, w and z variables give the replica
    cells, replications and hires; each b above 1e-9 is a backlog entry.
    Binaries count as set at 0.5 and above, since HiGHS returns them within
    its integrality tolerance. x is implied by the slices and not read.
    """
    served: dict[tuple[int, int, int], dict[int, float]] = {}
    replicas, copies, hires = set(), [], set()
    backlog: dict[tuple[int, int], float] = {}
    for name, value in values.items():
        kind, *fields = name.split("_")
        idx = tuple(int(f[1:]) for f in fields)
        if kind == "b":
            if value > 1e-9:
                backlog[idx] = value
        elif value < 0.5:
            continue
        elif kind == "s":
            i, o, j, t = idx
            request = instance.request_by_id[i]
            amount = request.demand_at(o)
            if amount > 0:
                cell = served.setdefault((request.content, j, t), {})
                cell[i] = cell.get(i, 0.0) + amount
        elif kind == "y":
            replicas.add(idx)
        elif kind == "w":
            copies.append(idx)
        elif kind == "z":
            hires.add(idx)
    return Solution(
        tuples=[
            AttendanceTuple(k, j, t, dict(sorted(req_map.items())))
            for (k, j, t), req_map in sorted(served.items())
        ],
        replications=[Replication(*c) for c in sorted(copies)],
        hires=hires,
        backlog=backlog,
        replicas=replicas,
    )


def solve_exact(
    instance: PlanningInstance, mode: str = "literal"
) -> tuple[Solution, CostBreakdown]:
    """Optimal solution in the selected constraint mode, solved by HiGHS.

    Raises TooLarge above the export cap, Infeasible when no solution
    exists, and RuntimeError on any other solver failure.
    """
    _objective, values = solve_lp_text(export_lp(instance, mode))
    solution = assignment_to_solution(instance, values)
    return solution, evaluate(instance, solution)
