"""Reference screen for ILS moves.

``cannot_improve`` screens a built move without touching the plan, and is
what the tests hold the search's screens (``ils._Source.rejects``,
``ils._Source.floor_rejects`` and ``ils._swap_rejects``, each followed by
``ils._exceeds_bandwidth`` on the built move) to. It flags moves that
would certainly fail (an existing fresh destination event, a period
outside [arrival, horizon], bandwidth exceeded well beyond place's
tolerance) and moves whose cost delta has a lower bound >= 0.0.

The bound is the exact backlog, attendance and hire delta (penalty
rates, x_count and z_count transitions), plus the copy cost of each target
(content, server) that holds no replica window, minus the copy cost of
every non-origin source window the move empties. A target without a window
can only be served from a new one, which costs one copy (``_ensure_window``
has nothing to cover, extend or retime); any other target window can only
add copy cost; so the bound never exceeds the true delta. The screens add
their terms in this order, so each rejects exactly what this rejects.

``construct_every_cell`` is the reference for construction's screens: the
greedy construction that calls ``place`` on every (period, server) cell in
turn and catches each failure. ``ils.constructive_phase`` skips the cells
where ``place`` must fail before it touches the plan, and the tests hold it
to leaving the same plan as this.
"""

import random

from flashcrowd.ils import Move, OperationalPlan, _exceeds_bandwidth, _MoveFailed
from flashcrowd.model import HIRABLE, OWNED, Infeasible, PlanningInstance


def construct_every_cell(
    inst: PlanningInstance, rng: random.Random
) -> OperationalPlan:
    """Greedy randomized construction.

    Requests are handled in random order; each demand slice goes to the
    first feasible (period, server) scanning periods from its arrival and
    servers cheapest-first with owned servers before hirable ones. A full
    storage conflict triggers LRU eviction; a slice no server can take in
    any period makes the instance infeasible (full service is required).
    """
    plan = OperationalPlan(inst)
    order = [r.id for r in inst.requests]
    rng.shuffle(order)
    servers = sorted(
        inst.servers, key=lambda s: (s.kind != OWNED, s.cost, s.id)
    )
    for rid in order:
        r = inst.request_by_id[rid]
        for o in sorted(r.demand):
            if r.demand[o] <= 0:
                continue
            placed = False
            for t in range(o, inst.horizon + 1):
                for srv in servers:
                    try:
                        plan.place(rid, o, srv.id, t, allow_evict=True)
                        placed = True
                        break
                    except _MoveFailed:
                        continue
                if placed:
                    break
            if not placed:
                raise Infeasible(
                    f"request {rid} slice at {o} fits no server in any period"
                )
    return plan


def cannot_improve(plan: OperationalPlan, move: Move) -> bool:
    """True only if ``apply_move(plan, move)`` would certainly fail or
    return a delta >= -EPS. Reads the plan and never changes it.

    Certain failures: a fresh key that exists and is not one of the move's
    own source events, a target period outside [arrival, horizon], and a
    server or client bandwidth that the move's targets would exceed by
    clearly more than place's 1e-9 tolerance once its sources are freed.
    Otherwise the move is rejected when a lower bound on its delta is
    >= 0.0: the exact backlog, attendance and hire terms, plus one copy per
    target (content, server) without a window, minus the copy cost of every
    non-origin source window that loses all its uses.
    """
    inst = plan.inst
    requests = inst.request_by_id
    servers = inst.server_by_id
    placements = plan.placements
    windows = plan.windows
    slot = plan.slot
    horizon = inst.horizon
    bound = 0.0
    sources = set()
    x_delta: dict[tuple[int, int, int], int] = {}
    z_delta: dict[tuple[int, int], int] = {}
    copies: dict[tuple[int, int], float] = {}  # windowless target -> copy cost
    emptied: dict = {}  # window -> [uses removed, copy cost]
    for sl, (j2, t2) in move.relocations:
        req, o = sl
        if not o <= t2 <= horizon:
            return True
        j, t = placements[sl]
        r = requests[req]
        k = r.content
        bound += (t2 - t) * r.penalty * r.demand[o]
        sources.add((k, j, t))
        key = (req, j, t)
        x_delta[key] = x_delta.get(key, 0) - 1
        key = (req, j2, t2)
        x_delta[key] = x_delta.get(key, 0) + 1
        if servers[j].kind == HIRABLE:
            key = (j, slot[t])
            z_delta[key] = z_delta.get(key, 0) - 1
        if servers[j2].kind == HIRABLE:
            key = (j2, slot[t2])
            z_delta[key] = z_delta.get(key, 0) + 1
        if not windows.get((k, j2)):
            copies[(k, j2)] = inst.content_by_id[k].copy_cost
        for w in windows[(k, j)]:
            if w.arrive <= t < w.end:
                if not w.origin:
                    entry = emptied.setdefault(w, [0, inst.content_by_id[k].copy_cost])
                    entry[0] += 1
                break
    events = plan.events
    for key in move.fresh_keys:
        if key in events and key not in sources:
            return True
    x_count = plan.x_count
    for key, d in x_delta.items():
        if d:
            before = x_count.get(key, 0)
            if before == 0:
                bound += requests[key[0]].attend_cost
            elif before + d == 0:
                bound -= requests[key[0]].attend_cost
    z_count = plan.z_count
    for key, d in z_delta.items():
        if d:
            before = z_count.get(key, 0)
            if before == 0:
                bound += servers[key[0]].cost / plan.m
            elif before + d == 0:
                bound -= servers[key[0]].cost / plan.m
    for copy_cost in copies.values():
        bound += copy_cost
    for w, (removed, copy_cost) in emptied.items():
        if removed == sum(w.uses.values()):
            bound -= copy_cost
    return bound >= 0.0 or _exceeds_bandwidth(plan, move)
