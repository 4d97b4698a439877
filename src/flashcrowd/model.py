"""Replica-placement and server-hiring planning model.

An instance holds servers (owned web servers plus hirable cloud servers),
contents (size, submission period, origin server, copy cost), and requests
(content, per-period demand, attendance cost, backlog penalty rate) over a
discrete horizon 1..T_f. A solution assigns attendance amounts to
(request, server, period), schedules replications and hires, and accounts
backlog per request per period.

The objective is the sum of attendance time costs, backlog penalties,
replication time costs, and financial hiring cost normalized by the
constant M (the maximum individual cost coefficient), which makes the
financial term a tiebreaker among equal time costs.

Feasibility is checked constraint family by constraint family; the
family names follow the MILP rows in ``lpio``.

Erratum: the replica-coupling families are r10c and r11c, not the source
model's r10/r11 as printed. Printed r10 requires a replica of a content on
server j at t + tr to have an outgoing copy from j at t, so every period a
replica is kept costs a copy; printed r11 requires a copy into j to find
the content on the destination j at the send period, not on the source.
r10c requires the source to hold the content at the send period, and r11c
requires a replica after the start period to persist from the period
before or to be created by a copy that arrives then; origin seeding (r6)
starts the chain. The printed rows were last solved on the O1 fixture
(``tiny_instance_o1`` in the tests) at an optimum of 70 + 4/60, against
66 + 4/60 under r10c/r11c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

EPS = 1e-6

OWNED = "owned"
HIRABLE = "hirable"


class UnknownId(KeyError):
    pass


class InstanceInvalid(ValueError):
    pass


class TooLarge(ValueError):
    """Instance exceeds a configured size cap for an exhaustive operation."""


class Infeasible(ValueError):
    """No solution satisfies the constraints."""


@dataclass(frozen=True)
class Server:
    id: int
    kind: str  # OWNED or HIRABLE
    storage: float  # bytes
    bandwidth: float  # bytes per period
    cost: float = 0.0  # currency per billing slot; 0 iff owned

    def __post_init__(self) -> None:
        if self.kind not in (OWNED, HIRABLE):
            raise InstanceInvalid(f"server {self.id}: bad kind {self.kind!r}")
        if not (self.storage > 0 and self.bandwidth > 0):
            raise InstanceInvalid(f"server {self.id}: storage/bandwidth must be positive")
        if self.kind == OWNED and self.cost != 0:
            raise InstanceInvalid(f"server {self.id}: owned servers have zero cost")
        if self.kind == HIRABLE and not self.cost > 0:
            raise InstanceInvalid(f"server {self.id}: hirable servers need positive cost")


@dataclass(frozen=True)
class Content:
    id: int
    size: float  # bytes
    start: int  # first period the content exists
    origin: int  # server id holding it from `start`
    copy_cost: float  # time units per replication

    def __post_init__(self) -> None:
        if not self.size > 0:
            raise InstanceInvalid(f"content {self.id}: size must be positive")
        if not self.copy_cost >= 0:
            raise InstanceInvalid(f"content {self.id}: copy cost must be nonnegative")


@dataclass(frozen=True)
class Request:
    id: int
    content: int
    attend_cost: float  # time units per (server, period) attendance
    demand: dict[int, float]  # period -> bytes arriving
    penalty: float = 1.0  # backlog time units per byte per period, the same every period

    def demand_at(self, t: int) -> float:
        return self.demand.get(t, 0.0)

    @property
    def total_demand(self) -> float:
        return sum(self.demand.values())


@dataclass
class PlanningInstance:
    servers: list[Server]
    contents: list[Content]
    requests: list[Request]
    horizon: int  # periods are 1..horizon
    client_bandwidth: float  # bytes per period per request (BX)
    replication_delay: int = 1  # tr
    provisioning_delay: int = 1  # tp
    billing_granularity: int = 1  # periods per billing slot

    def __post_init__(self) -> None:
        self.server_by_id = {s.id: s for s in self.servers}
        self.content_by_id = {c.id: c for c in self.contents}
        self.request_by_id = {r.id: r for r in self.requests}
        if len(self.server_by_id) != len(self.servers):
            raise InstanceInvalid("duplicate server ids")
        if len(self.content_by_id) != len(self.contents):
            raise InstanceInvalid("duplicate content ids")
        if len(self.request_by_id) != len(self.requests):
            raise InstanceInvalid("duplicate request ids")
        if self.horizon < 1:
            raise InstanceInvalid("horizon must cover at least one period")
        if not self.client_bandwidth > 0:
            raise InstanceInvalid("client bandwidth must be positive")
        if self.replication_delay < 0 or self.provisioning_delay < 0:
            raise InstanceInvalid("delays must be nonnegative")
        if self.billing_granularity < 1:
            raise InstanceInvalid("billing granularity must be >= 1")
        for c in self.contents:
            if c.origin not in self.server_by_id:
                raise InstanceInvalid(f"content {c.id}: unknown origin server {c.origin}")
            if not 1 <= c.start <= self.horizon:
                raise InstanceInvalid(f"content {c.id}: start outside horizon")
        for r in self.requests:
            content = self.content_by_id.get(r.content)
            if content is None:
                raise InstanceInvalid(f"request {r.id}: unknown content {r.content}")
            if not r.attend_cost >= 0:
                raise InstanceInvalid(f"request {r.id}: attendance cost must be nonnegative")
            if not r.penalty >= 0:
                raise InstanceInvalid(f"request {r.id}: penalty must be nonnegative")
            if abs(r.total_demand - content.size) > EPS:
                raise InstanceInvalid(
                    f"request {r.id}: total demand {r.total_demand} != content size {content.size}"
                )
            for t, d in r.demand.items():
                if not d >= 0:
                    raise InstanceInvalid(f"request {r.id}: demand at {t} must be nonnegative")
                if d > 0 and t < content.start:
                    raise InstanceInvalid(
                        f"request {r.id}: demand at {t} before content start {content.start}"
                    )
                if not 1 <= t <= self.horizon:
                    raise InstanceInvalid(f"request {r.id}: demand period {t} outside horizon")

    @property
    def hirable(self) -> list[Server]:
        return [s for s in self.servers if s.kind == HIRABLE]

    @property
    def billing_slots(self) -> int:
        return max(1, math.ceil(self.horizon / self.billing_granularity))

    def slot_of(self, t: int) -> int:
        """Billing slot charged when a hired server attends at period t."""
        raw = math.ceil((t - self.provisioning_delay) / self.billing_granularity)
        return min(max(raw, 1), self.billing_slots)

    @functools.cached_property
    def big_m(self) -> float:
        """Largest individual cost coefficient; normalizes the financial term.

        The backlog coefficient is bounded with the largest requested content
        size standing in for the backlog amount, so M is a constant, computed
        once per instance (nothing changes an instance after construction).
        """
        values = [1.0]
        max_l = max((self.content_by_id[r.content].size for r in self.requests), default=0.0)
        for r in self.requests:
            values.append(r.attend_cost)
            values.append(r.penalty * max_l)
        for c in self.contents:
            values.append(c.copy_cost)
        for s in self.hirable:
            values.append(s.cost)
        return max(values)


@dataclass(frozen=True)
class AttendanceTuple:
    """Content k replicated on server j attends requests at period t."""

    content: int
    server: int
    period: int
    served: dict[int, float]  # request id -> bytes attended


@dataclass(frozen=True)
class Replication:
    content: int
    source: int
    target: int
    period: int  # send period; the copy is usable tr periods later


@dataclass
class Solution:
    tuples: list[AttendanceTuple] = field(default_factory=list)
    replications: list[Replication] = field(default_factory=list)
    hires: set[tuple[int, int]] = field(default_factory=set)  # (server, slot)
    backlog: dict[tuple[int, int], float] = field(default_factory=dict)  # (request, t)
    replicas: set[tuple[int, int, int]] = field(default_factory=set)  # (content, server, t)

    def attended(self) -> dict[tuple[int, int, int], float]:
        """(request, server, period) -> bytes, aggregated over tuples."""
        out: dict[tuple[int, int, int], float] = {}
        for tup in self.tuples:
            for req, amount in tup.served.items():
                if amount <= 0:
                    continue
                key = (req, tup.server, tup.period)
                out[key] = out.get(key, 0.0) + amount
        return out

    def backlog_at(self, request: int, t: int) -> float:
        return self.backlog.get((request, t), 0.0)


@dataclass(frozen=True)
class CostBreakdown:
    attend: float
    backlog: float
    replication: float
    financial_normalized: float

    @property
    def total(self) -> float:
        return self.attend + self.backlog + self.replication + self.financial_normalized


def _check_ids(instance: PlanningInstance, solution: Solution) -> None:
    """Raise UnknownId on the first id of a tuple, backlog entry,
    replication or hire that the instance does not hold."""
    servers, contents, requests = instance.server_by_id, instance.content_by_id, instance.request_by_id
    for tup in solution.tuples:
        if tup.server not in servers:
            raise UnknownId(f"unknown server {tup.server}")
        if tup.content not in contents:
            raise UnknownId(f"unknown content {tup.content}")
        for req in tup.served:
            if req not in requests:
                raise UnknownId(f"unknown request {req}")
    for req, _t in solution.backlog:
        if req not in requests:
            raise UnknownId(f"unknown request {req}")
    for rep in solution.replications:
        if rep.content not in contents:
            raise UnknownId(f"unknown content {rep.content}")
        if rep.source not in servers or rep.target not in servers:
            raise UnknownId(f"unknown server in replication {rep}")
    for server_id, _slot in solution.hires:
        if server_id not in servers:
            raise UnknownId(f"unknown hired server {server_id}")


def evaluate(instance: PlanningInstance, solution: Solution) -> CostBreakdown:
    """Objective value of a solution; does not check feasibility."""
    _check_ids(instance, solution)
    requests = instance.request_by_id
    attend = 0.0
    seen: set[tuple[int, int, int]] = set()
    for tup in solution.tuples:
        for req, amount in tup.served.items():
            if amount > 0 and (req, tup.server, tup.period) not in seen:
                seen.add((req, tup.server, tup.period))
                attend += requests[req].attend_cost
    backlog = 0.0
    for (req, _t), amount in solution.backlog.items():
        backlog += requests[req].penalty * amount
    replication = 0.0
    for rep in solution.replications:
        replication += instance.content_by_id[rep.content].copy_cost
    m = instance.big_m
    financial = 0.0
    for server_id, _slot in solution.hires:
        financial += instance.server_by_id[server_id].cost / m
    return CostBreakdown(attend, backlog, replication, financial)


@dataclass(frozen=True)
class Violation:
    family: str
    indices: tuple
    slack: float
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.family}{self.indices}: {self.message} (slack {self.slack:.6g})"


def check_feasibility(
    instance: PlanningInstance, solution: Solution, mode: str = "corrected"
) -> list[Violation]:
    """All constraint violations of a solution; empty list iff feasible.

    Violations are data, not errors. ``mode`` must be "corrected", the one
    encoding (see the erratum above); it stays for callers that name it.
    """
    if mode != "corrected":
        raise ValueError(f"unknown mode {mode!r}")
    _check_ids(instance, solution)
    inst = instance
    out: list[Violation] = []
    att = solution.attended()
    tf = inst.horizon

    # Aggregations.
    att_by_req_t: dict[tuple[int, int], float] = {}
    att_by_srv_t: dict[tuple[int, int], float] = {}
    for (req, srv, t), amount in att.items():
        att_by_req_t[(req, t)] = att_by_req_t.get((req, t), 0.0) + amount
        att_by_srv_t[(srv, t)] = att_by_srv_t.get((srv, t), 0.0) + amount

    def y(k: int, j: int, t: int) -> bool:
        return (k, j, t) in solution.replicas

    # r1: attended == new demand + inherited backlog - postponed backlog.
    for r in inst.requests:
        content = inst.content_by_id[r.content]
        for t in range(content.start, tf + 1):
            served = att_by_req_t.get((r.id, t), 0.0)
            expected = r.demand_at(t) + solution.backlog_at(r.id, t - 1) - solution.backlog_at(r.id, t)
            if abs(served - expected) > EPS:
                out.append(
                    Violation(
                        "r1",
                        (r.id, t),
                        served - expected,
                        f"attended {served} != demand+backlog flow {expected}",
                    )
                )

    # r2: server bandwidth.
    for (srv, t), amount in att_by_srv_t.items():
        server = inst.server_by_id[srv]
        if amount > server.bandwidth + EPS:
            out.append(
                Violation("r2", (srv, t), amount - server.bandwidth, "bandwidth exceeded")
            )

    # r3: client bandwidth.
    for (req, t), amount in att_by_req_t.items():
        if amount > inst.client_bandwidth + EPS:
            out.append(
                Violation("r3", (req, t), amount - inst.client_bandwidth, "client bandwidth exceeded")
            )

    # r4: every request fully handled.
    for r in inst.requests:
        served = sum(amount for (req, _s, _t), amount in att.items() if req == r.id)
        if abs(served - r.total_demand) > EPS:
            out.append(
                Violation("r4", (r.id,), served - r.total_demand, "request not fully handled")
            )

    # r4_1: per-(request, server, period) attendance bounded by content size.
    for (req, srv, t), amount in att.items():
        size = inst.content_by_id[inst.request_by_id[req].content].size
        if amount > size + EPS:
            out.append(Violation("r4_1", (req, srv, t), amount - size, "over content size"))

    # Backlog nonnegativity and no backlog before content start.
    for (req, t), amount in solution.backlog.items():
        if amount < -EPS:
            out.append(Violation("r14_2", (req, t), amount, "negative backlog"))

    # r5: attendance requires a replica.
    for (req, srv, t), amount in att.items():
        if amount > EPS:
            k = inst.request_by_id[req].content
            if not y(k, srv, t):
                out.append(Violation("r5", (req, srv, t), amount, "no replica at attendance"))

    # r6: origin seeding.
    for c in inst.contents:
        if not y(c.id, c.origin, c.start):
            out.append(Violation("r6", (c.id,), 1.0, "origin lacks replica at start"))

    # r7: no replicas before the start period.
    for (k, j, t) in solution.replicas:
        c = inst.content_by_id.get(k)
        if c is None:
            raise UnknownId(f"unknown content {k} in replicas")
        if t < c.start:
            out.append(Violation("r7", (k, j, t), 1.0, "replica before content start"))
        # r8: at the start period only the origin holds it.
        if t == c.start and j != c.origin:
            out.append(Violation("r8", (k, j), 1.0, "non-origin replica at start"))

    # r9: no replication before the content start.
    for rep in solution.replications:
        c = inst.content_by_id[rep.content]
        if rep.period < c.start:
            out.append(
                Violation("r9", (rep.content, rep.source, rep.target, rep.period), 1.0,
                          "replication before content start")
            )

    tr = inst.replication_delay
    # r10c: source availability.
    for rep in solution.replications:
        if not y(rep.content, rep.source, rep.period):
            out.append(
                Violation(
                    "r10c",
                    (rep.content, rep.source, rep.target, rep.period),
                    1.0,
                    "source lacks content at send period",
                )
            )
    # r11c: persistence/creation: a replica at t > start must persist
    # from t-1 or be created by a copy sent at t-tr.
    incoming: set[tuple[int, int, int]] = {
        (rep.content, rep.target, rep.period + tr) for rep in solution.replications
    }
    for (k, j, t) in solution.replicas:
        c = inst.content_by_id[k]
        if t <= c.start:
            continue
        if not y(k, j, t - 1) and (k, j, t) not in incoming:
            out.append(
                Violation("r11c", (k, j, t), 1.0, "replica neither persisted nor created")
            )

    # r12: storage capacity.
    storage_use: dict[tuple[int, int], float] = {}
    for (k, j, t) in solution.replicas:
        storage_use[(j, t)] = storage_use.get((j, t), 0.0) + inst.content_by_id[k].size
    for (j, t), used in storage_use.items():
        server = inst.server_by_id.get(j)
        if server is None:
            raise UnknownId(f"unknown server {j} in replicas")
        if used > server.storage + EPS:
            out.append(Violation("r12", (j, t), used - server.storage, "storage exceeded"))

    # r13: attendance on a hirable server requires the mapped billing slot.
    for (req, srv, t), amount in att.items():
        server = inst.server_by_id[srv]
        if amount > EPS and server.kind == HIRABLE:
            slot = inst.slot_of(t)
            if (srv, slot) not in solution.hires:
                out.append(Violation("r13", (req, srv, t), amount, f"slot {slot} not hired"))

    return out
