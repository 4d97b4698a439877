"""The planning MILP as one record, its LP text, and the exact solver.

``build_model`` builds an instance's MILP once, as an ``LpModel`` record
(objective, named rows, binary and continuous variables). ``solve_model``
hands the record to scipy's HiGHS-backed MILP solver; ``solve_exact``
solves it and decodes the values with ``assignment_to_solution``, the
inverse of ``solution_to_assignment``. LP text (CPLEX dialect) is one view
of the record, so any mainstream MILP solver can check an instance:
``write_lp`` writes it, ``export_lp`` is ``write_lp(build_model(...))``,
and ``parse_lp`` reads that subset back. ``solve_exact`` uses no text.

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
  r10c_k{k}_j{j}_l{l}_t{t} copy from j needs y at the source
  r11c_k{k}_l{l}_t{t}      replica persists or is created
  r12_j{j}_t{t}   storage
  r13_i{i}_j{j}_t{t}   hired slot required (one row per period, using the
                       period-to-slot mapping)

Families r7/r8/r9 (zero fixings before the content start) are enforced by
the variable emission rules above rather than by rows. r10c/r11c replace
the source model's printed r10/r11; the erratum is in ``model``'s docstring.
"""

from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)

# build_model raises TooLarge when |R||S||T|^2, about twice the number of
# slice variables s, exceeds this.
MAX_VARIABLES = 200_000


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@dataclass
class LpModel:
    """Minimize ``objective`` subject to ``rows``, with ``binaries`` in
    {0, 1} and ``continuous`` variables >= 0.

    ``objective`` maps variable names to coefficients; each row is
    ``(name, {variable: coefficient}, op, rhs)`` with op one of ``<=``,
    ``>=`` and ``=``. Rows, terms and variables are in emission order.
    """

    objective: dict[str, float]
    rows: list[tuple[str, dict[str, float], str, float]]
    binaries: list[str]
    continuous: list[str]

    def objective_value(self, assignment: dict[str, float]) -> float:
        return sum(coef * assignment.get(var, 0.0) for var, coef in self.objective.items())


def build_model(instance: PlanningInstance) -> LpModel:
    """The instance's MILP."""
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
    objective: dict[str, float] = {}
    # {slice variable: demand} of request i on server j at period t, in o
    # order; every bandwidth and handling row is built from these.
    slices: dict[tuple[int, int, int], dict[str, float]] = {}

    for r in inst.requests:
        for j in server_ids:
            for t in range(1, tf + 1):
                binaries.append(x(r.id, j, t))
                if r.attend_cost:
                    objective[x(r.id, j, t)] = r.attend_cost
                terms = slices[r.id, j, t] = {}
                for o in range(1, t + 1):
                    var = s(r.id, o, j, t)
                    binaries.append(var)
                    if r.demand_at(o):
                        terms[var] = r.demand_at(o)
    continuous: list[str] = []
    for r in inst.requests:
        start = inst.content_by_id[r.content].start
        for t in range(start, tf + 1):
            continuous.append(b(r.id, t))
            if r.penalty:
                objective[b(r.id, t)] = r.penalty
    for c in inst.contents:
        for j in server_ids:
            for t in range(c.start, tf + 1):
                if y_exists(c.id, j, t):
                    binaries.append(yv(c.id, j, t))
                for l in server_ids:
                    binaries.append(wv(c.id, j, l, t))
                    if c.copy_cost:
                        objective[wv(c.id, j, l, t)] = c.copy_cost
    for srv in inst.hirable:
        for a in range(1, inst.billing_slots + 1):
            binaries.append(zv(srv.id, a))
            objective[zv(srv.id, a)] = srv.cost / m

    rows: list[tuple[str, dict[str, float], str, float]] = []

    def add(name: str, terms: dict[str, float], op: str, rhs: float) -> None:
        if not terms:
            raise AssertionError(f"constraint {name} has no terms")
        rows.append((name, terms, op, rhs))

    def served(cells) -> dict[str, float]:
        # The slice terms of the (request, server, period) cells, in order.
        return {var: d for cell in cells for var, d in slices[cell].items()}

    def needs_y(k, j, t, var: str) -> dict[str, float]:
        # Terms of y_k_j_t - var, or of -var where that replica never exists.
        return {yv(k, j, t): 1.0, var: -1.0} if y_exists(k, j, t) else {var: -1.0}

    for r in inst.requests:
        start = inst.content_by_id[r.content].start
        for t in range(start, tf + 1):
            terms = served((r.id, j, t) for j in server_ids)
            terms[b(r.id, t)] = 1.0
            if t - 1 >= start:
                terms[b(r.id, t - 1)] = -1.0
            add(f"r1_i{r.id}_t{t}", terms, "=", r.demand_at(t))

    for j in server_ids:
        srv = inst.server_by_id[j]
        for t in range(1, tf + 1):
            terms = served((r.id, j, t) for r in inst.requests)
            if terms:
                add(f"r2_j{j}_t{t}", terms, "<=", srv.bandwidth)

    for r in inst.requests:
        for t in range(1, tf + 1):
            terms = served((r.id, j, t) for j in server_ids)
            if terms:
                add(f"r3_i{r.id}_t{t}", terms, "<=", inst.client_bandwidth)

    for r in inst.requests:
        terms = served((r.id, j, t) for j in server_ids for t in range(1, tf + 1))
        add(f"r4_i{r.id}", terms, "=", r.total_demand)

    for r in inst.requests:
        size = inst.content_by_id[r.content].size
        for j in server_ids:
            for t in range(1, tf + 1):
                terms = {**slices[r.id, j, t], x(r.id, j, t): -size}
                add(f"r4_1_i{r.id}_j{j}_t{t}", terms, "<=", 0.0)

    for r in inst.requests:
        for j in server_ids:
            for t in range(1, tf + 1):
                add(f"r5_i{r.id}_j{j}_t{t}", needs_y(r.content, j, t, x(r.id, j, t)), ">=", 0.0)

    for c in inst.contents:
        add(f"r6_k{c.id}", {yv(c.id, c.origin, c.start): 1.0}, "=", 1.0)

    for c in inst.contents:
        for j in server_ids:  # source
            for l in server_ids:
                for t in range(c.start, tf + 1):
                    terms = needs_y(c.id, j, t, wv(c.id, j, l, t))
                    add(f"r10c_k{c.id}_j{j}_l{l}_t{t}", terms, ">=", 0.0)
    for c in inst.contents:
        for l in server_ids:
            for t in range(c.start + 1, tf + 1):
                if not y_exists(c.id, l, t):
                    continue
                terms = {yv(c.id, l, t): 1.0}
                if y_exists(c.id, l, t - 1):
                    terms[yv(c.id, l, t - 1)] = -1.0
                if t - tr >= c.start:
                    for j in server_ids:
                        terms[wv(c.id, j, l, t - tr)] = -1.0
                add(f"r11c_k{c.id}_l{l}_t{t}", terms, "<=", 0.0)

    for j in server_ids:
        srv = inst.server_by_id[j]
        for t in range(1, tf + 1):
            terms = {yv(c.id, j, t): c.size for c in inst.contents if y_exists(c.id, j, t)}
            if terms:
                add(f"r12_j{j}_t{t}", terms, "<=", srv.storage)

    for r in inst.requests:
        for srv in inst.hirable:
            for t in range(1, tf + 1):
                terms = {zv(srv.id, inst.slot_of(t)): 1.0, x(r.id, srv.id, t): -1.0}
                add(f"r13_i{r.id}_j{srv.id}_t{t}", terms, ">=", 0.0)

    return LpModel(objective, rows, binaries, continuous)


# ---------------------------------------------------------------------------
# LP text: a writer, and a parser for the subset it writes.
# ---------------------------------------------------------------------------


def _terms_text(terms: dict[str, float]) -> str:
    text = " ".join(
        f"{'-' if coef < 0 else '+'} {_fmt(abs(coef))} {var}" for var, coef in terms.items()
    )
    return text[2:] if text.startswith("+ ") else text


def write_lp(model: LpModel) -> str:
    """The model as LP text (CPLEX dialect)."""
    out = [
        "\\ planning instance LP export",
        "Minimize",
        f" obj: {_terms_text(model.objective) or '0'}",
        "Subject To",
    ]
    out.extend(
        f" {name}: {_terms_text(terms)} {op} {_fmt(rhs)}" for name, terms, op, rhs in model.rows
    )
    if model.continuous:
        out.append("Bounds")
        out.extend(f" {v} >= 0" for v in model.continuous)
    if model.binaries:
        out.append("Binaries")
        for i in range(0, len(model.binaries), 8):
            out.append(" " + " ".join(model.binaries[i : i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def export_lp(instance: PlanningInstance, mode: str = "corrected") -> str:
    """Serialize the instance's MILP as LP text. ``mode`` must be
    "corrected", the one encoding; it stays for callers that name it."""
    if mode != "corrected":
        raise ValueError(f"unknown mode {mode!r}")
    return write_lp(build_model(instance))


_TOKEN = re.compile(r"(<=|>=|=|\+|-|[A-Za-z_][A-Za-z0-9_]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)")


def _parse_terms(tokens: list[str]) -> tuple[dict[str, float], float]:
    coeffs: dict[str, float] = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok in ("+", "-"):
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = 1.0 if tok == "+" else -1.0
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


def parse_lp(text: str) -> LpModel:
    """Parse the LP subset produced by write_lp.

    Every variable not in the Binaries section is continuous and >= 0: those
    in Bounds first, then undeclared ones in order of appearance.
    """
    section = None
    constraints: list[tuple[str, dict[str, float], str, float]] = []
    binaries: list[str] = []
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
            binaries.extend(line.split())
    flush_row()
    objective, constant = _parse_terms(obj_tokens)
    if constant:
        raise ValueError("constant term in the objective")
    binaries = list(dict.fromkeys(binaries))
    declared = set(binaries)
    named = [
        *(ln.split()[0] for ln in bounds_lines),
        *objective,
        *(v for _n, coeffs, _op, _rhs in constraints for v in coeffs),
    ]
    continuous = [v for v in dict.fromkeys(named) if v not in declared]
    return LpModel(objective, constraints, binaries, continuous)


def solve_model(model: LpModel, time_limit: float | None = None) -> tuple[float, dict[str, float]]:
    """Solve the model with scipy's MILP (HiGHS); returns (obj, values).

    Columns are the sorted variable names and rows keep the model's order.
    Raises Infeasible when HiGHS proves the model infeasible, and
    RuntimeError on any other failure, such as the time limit.
    """
    variables = sorted({*model.binaries, *model.continuous})
    idx = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    c = np.zeros(n)
    for v, coef in model.objective.items():
        c[idx[v]] = coef
    constraints = ()
    if model.rows:
        rows, cols, vals, lbs, ubs = [], [], [], [], []
        for rno, (_name, coeffs, op, rhs) in enumerate(model.rows):
            rows.extend([rno] * len(coeffs))
            cols.extend(idx[v] for v in coeffs)
            vals.extend(coeffs.values())
            lbs.append(-np.inf if op == "<=" else rhs)
            ubs.append(np.inf if op == ">=" else rhs)
        mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(model.rows), n))
        constraints = scipy.optimize.LinearConstraint(mat, lbs, ubs)
    binaries = set(model.binaries)
    integrality = np.array([1 if v in binaries else 0 for v in variables])
    upper = np.array([1.0 if v in binaries else np.inf for v in variables])
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
    values = {v: float(res.x[idx[v]]) for v in variables}
    return float(res.fun), values


def solve_lp_text(text: str, time_limit: float | None = None) -> tuple[float, dict[str, float]]:
    """Solve LP text, as parse_lp reads it, with solve_model."""
    return solve_model(parse_lp(text), time_limit)


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


def solve_exact(instance: PlanningInstance) -> tuple[Solution, CostBreakdown]:
    """Optimal solution, solved by HiGHS.

    Raises TooLarge above the model size cap, Infeasible when no solution
    exists, and RuntimeError on any other solver failure.
    """
    model = build_model(instance)
    objective, values = solve_model(model)
    solution = assignment_to_solution(instance, values)
    logger.debug(
        "solve_exact: objective %.9g, %d binaries, %d continuous, %d rows",
        objective, len(model.binaries), len(model.continuous), len(model.rows),
    )
    return solution, evaluate(instance, solution)
