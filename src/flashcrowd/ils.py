"""Iterated local search with randomized variable neighborhood descent.

The working representation places every demand slice (request, arrival
period) on a (server, period); attendance events, replica windows,
replication events, hires, bandwidth, and costs are caches derived from the
placements. Replicas are copied from the content's origin server, arrive
after the replication delay, and persist until the horizon unless evicted
(LRU, construction only), so every intermediate solution exports to a
zero-violation solution under ``model.check_feasibility``.

Local search explores five event neighborhoods (Shift, Swap, Split, Merge,
d-Delay) with first-improvement acceptance and random neighborhood
ordering; a failed neighborhood leaves the candidate set until some move
improves. Perturbation applies level + 1 random feasible moves from
{Shift, Swap, Split, Merge}.

How a candidate is judged: each neighborhood has one candidate list in
search order (``candidates``); descent walks it, and perturbation draws one
entry and builds only that move. Shift, split, merge and d-delay each move
slices of one source event to one target (server, period), and list their
candidates as (source, targets) groups (``_groups``), which ``candidates``
flattens; swap exchanges the servers of two events. Every event has a
``_Source`` holding its sorted slices and the screen terms that do not
depend on the target, read once. The plan caches the sources of its live
events across passes. ``apply_move`` sets the cache aside and starts the
plan on an empty one; a failed apply or a revert puts the old one back with
the rest of the plan, and ``keep_move``, descent's accept, carries over
every old source whose (content, server) windows and (server, slot) hire
count the move has no undo entry for. A one-source candidate is
checked against its source's terms for range, fresh key and cost bound; a
swap against both events' terms for fresh keys and cost bound (it keeps
every period). The cost bound is the exact backlog, attendance and hire
delta (penalty rates, x_count and z_count transitions), plus the copy
cost of each target (content, server) that holds no replica window, which
the move must pay for a new one or fail, minus the copy cost of every
non-origin source window the move empties; any other target window can
only add copy cost, so the bound never exceeds the true delta. A shift or
split target keeps the period and changes the server, so its bound is the
source's own terms plus a new hire and a new copy, both >= 0: descent
checks those terms alone (``_Source.floor_rejects``) once per source, and
when they reject, so does every target. A move is built only for a
survivor, and then only its bandwidth is checked (``_exceeds_bandwidth``).
The search counts every rejection as screened. Descent accepts only
delta < -EPS, and a bound is rejected at >= 0.0 rather than -EPS so that
rounding between the bound and the applied delta cannot reject a move the
search would accept. The screens add their terms in the order of the
reference screen in ``tests/util_screen.py``, which screens a built move
and which the tests hold them to. ``apply_move`` records the prior value of
every plan entry a move can touch and restores them exactly on failure or
revert, so a rejected move leaves no trace and screening changes no search
outcome.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass

from .model import (
    AttendanceTuple,
    CostBreakdown,
    HIRABLE,
    Infeasible,
    OWNED,
    PlanningInstance,
    Replication,
    Solution,
    evaluate,
)

logger = logging.getLogger(__name__)

EPS = 1e-9

NEIGHBORHOODS = ("shift", "swap", "split", "merge", "ddelay")
# The neighborhoods whose source groups descent screens with one floor
# (``_Source.floor_rejects``). d-delay has none: its earlier target has a
# negative backlog term. Nor has merge: its target event may already attend
# the request, so the target adds no attendance.
FLOORED = ("shift", "split")


@dataclass(frozen=True)
class IlsParams:
    iter_max: int = 2
    level_max: int = 1
    d: int = 1
    swap_sample_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iter_max < 1:
            raise ValueError("iter_max must be >= 1")
        if self.level_max < 0:
            raise ValueError("level_max must be >= 0")
        if self.d == 0:
            raise ValueError("d must be nonzero")
        if not 0 < self.swap_sample_fraction <= 1:
            raise ValueError("swap_sample_fraction in (0, 1]")


class _Window:
    """Replica presence of one content on one server over [arrive, end)."""

    __slots__ = ("arrive", "end", "uses", "origin")

    def __init__(self, arrive: int, end: int, origin: bool = False) -> None:
        self.arrive = arrive
        self.end = end
        self.uses: dict[int, int] = {}
        self.origin = origin

    def copy(self) -> "_Window":
        w = _Window(self.arrive, self.end, self.origin)
        w.uses = dict(self.uses)
        return w

    def covers(self, t: int) -> bool:
        return self.arrive <= t < self.end

    def last_use(self) -> int:
        return max(self.uses) if self.uses else -1


class _MoveFailed(Exception):
    pass


class OperationalPlan:
    """Mutable heuristic solution with incremental cost bookkeeping."""

    def __init__(self, inst: PlanningInstance) -> None:
        self.inst = inst
        self.m = inst.big_m
        tf = inst.horizon
        self.placements: dict[tuple[int, int], tuple[int, int]] = {}
        self.events: dict[tuple[int, int, int], set[tuple[int, int]]] = {}
        self.bw_used: dict[tuple[int, int], float] = {}
        self.client_used: dict[tuple[int, int], float] = {}
        self.x_count: dict[tuple[int, int, int], int] = {}
        self.z_count: dict[tuple[int, int], int] = {}
        self.windows: dict[tuple[int, int], list[_Window]] = {}
        self.occ: dict[int, list[float]] = {
            s.id: [0.0] * (tf + 2) for s in inst.servers
        }
        self.attend_cost = 0.0
        self.backlog_cost = 0.0
        self.repl_cost = 0.0
        self.fin_cost = 0.0
        # Billing slot of each period 0..horizon + 1.
        self.slot = [inst.slot_of(t) for t in range(tf + 2)]
        # Screen sources of live events (``source``); see ``apply_move``.
        self.sources: dict[tuple[int, int, int], _Source] = {}
        # Origin replicas are pinned for the whole content lifetime.
        for c in inst.contents:
            w = _Window(c.start, tf + 1, origin=True)
            self.windows[(c.id, c.origin)] = [w]
            for t in range(c.start, tf + 1):
                self.occ[c.origin][t] += c.size
            srv = inst.server_by_id[c.origin]
            if max(self.occ[c.origin][1:]) > srv.storage + 1e-9:
                raise Infeasible(
                    f"origin server {c.origin} cannot store its own contents"
                )

    def source(self, key: tuple[int, int, int]) -> "_Source":
        """The screen source of live event ``key``, cached across passes."""
        src = self.sources.get(key)
        if src is None:
            src = self.sources[key] = _Source(key, sorted(self.events[key]))
        return src

    # -- cost helpers -----------------------------------------------------

    def total_cost(self) -> float:
        return self.attend_cost + self.backlog_cost + self.repl_cost + self.fin_cost

    def _delay_cost(self, req: int, o: int, t: int, amount: float) -> float:
        return (t - o) * self.inst.request_by_id[req].penalty * amount

    # -- window mechanics --------------------------------------------------

    def _earliest_arrival(self, content) -> int:
        return max(content.start + self.inst.replication_delay, content.start + 1)

    def _storage_free(self, j: int, size: float, lo: int, hi: int) -> bool:
        srv = self.inst.server_by_id[j]
        occ = self.occ[j]
        return all(occ[t] + size <= srv.storage + 1e-9 for t in range(lo, hi))

    def _occupy(self, j: int, size: float, lo: int, hi: int) -> None:
        occ = self.occ[j]
        for t in range(lo, hi):
            occ[t] += size

    def _ensure_window(
        self, k: int, j: int, t: int, *, allow_evict: bool = False
    ) -> None:
        """Make (k, j) hold a replica at t.

        Preference order: an existing window covering t; extending the
        preceding window forward (persistence is free); retiming the next
        window's arrival back to t (same single copy); a new window, whose
        span shrinks to whatever storage allows. Only the last path charges
        a copy cost. A call that raises "no storage for replica" may keep
        LRU truncations of use-free window tails; the plan stays feasible.
        """
        wins = self.windows.setdefault((k, j), [])
        for w in wins:
            if w.covers(t):
                w.uses[t] = w.uses.get(t, 0) + 1
                return
        content = self.inst.content_by_id[k]
        size = content.size
        later = [w for w in wins if w.arrive > t]
        nxt = min(later, key=lambda w: w.arrive) if later else None
        bound = nxt.arrive if nxt else self.inst.horizon + 1
        prev = [w for w in wins if w.end <= t]
        prv = max(prev, key=lambda w: w.end) if prev else None
        if prv is not None:
            if self._storage_free(j, size, prv.end, t + 1) or (
                allow_evict and self._evict_lru(j, size, prv.end, t + 1, exclude=(k, j))
            ):
                self._occupy(j, size, prv.end, t + 1)
                prv.end = t + 1
                prv.uses[t] = 1
                return
        if t < self._earliest_arrival(content):
            raise _MoveFailed("replica cannot arrive that early")
        if nxt is not None and (
            self._storage_free(j, size, t, nxt.arrive)
            or (allow_evict and self._evict_lru(j, size, t, nxt.arrive, exclude=(k, j)))
        ):
            self._occupy(j, size, t, nxt.arrive)
            nxt.arrive = t
            nxt.uses[t] = nxt.uses.get(t, 0) + 1
            return
        # New window: take the longest storable span starting at t, up to
        # the next window.
        if not self._storage_free(j, size, t, t + 1):
            if not (allow_evict and self._evict_lru(j, size, t, t + 1, exclude=(k, j))):
                raise _MoveFailed("no storage for replica")
        end = t + 1
        srv_storage = self.inst.server_by_id[j].storage
        occ = self.occ[j]
        while end < bound and occ[end] + size <= srv_storage + 1e-9:
            end += 1
        w = _Window(t, end)
        w.uses[t] = 1
        wins.append(w)
        self._occupy(j, size, t, end)
        self.repl_cost += content.copy_cost

    def _release_window(self, k: int, j: int, t: int) -> None:
        """Drop one use at t.

        A window left without uses vanishes and refunds its copy cost; a
        surviving window is tightened to [min(uses), max(uses) + 1] when its
        boundary use went away, so it claims no storage it does not use.
        """
        wins = self.windows[(k, j)]
        for w in wins:
            if w.covers(t) and t in w.uses:
                w.uses[t] -= 1
                if w.uses[t] == 0:
                    del w.uses[t]
                if w.origin:
                    return
                content = self.inst.content_by_id[k]
                if not w.uses:
                    wins.remove(w)
                    self._occupy(j, -content.size, w.arrive, w.end)
                    self.repl_cost -= content.copy_cost
                    return
                new_arrive = min(w.uses)
                if new_arrive > w.arrive:
                    self._occupy(j, -content.size, w.arrive, new_arrive)
                    w.arrive = new_arrive
                new_end = max(w.uses) + 1
                if new_end < w.end:
                    self._occupy(j, -content.size, new_end, w.end)
                    w.end = new_end
                return
        raise AssertionError("released a use that was never tracked")

    def _evict_lru(
        self, j: int, size: float, lo: int, hi: int, exclude: tuple[int, int]
    ) -> bool:
        """Truncate least-recently-used idle windows on j to free [lo, hi)."""
        while not self._storage_free(j, size, lo, hi):
            candidates = []
            for (k2, j2), wins in self.windows.items():
                if j2 != j or (k2, j2) == exclude:
                    continue
                for w in wins:
                    if w.origin or w.arrive >= lo or w.end <= lo:
                        continue
                    if w.last_use() < lo:
                        candidates.append((w.last_use(), k2, w))
            if not candidates:
                return False
            _, k2, w = min(candidates, key=lambda c: (c[0], c[1]))
            # All uses precede lo, so truncating to lo keeps them intact.
            self._occupy(j, -self.inst.content_by_id[k2].size, lo, w.end)
            w.end = lo
        return True

    # -- placement primitives ----------------------------------------------

    def _slice_amount(self, req: int, o: int) -> float:
        return self.inst.request_by_id[req].demand[o]

    def place(
        self, req: int, o: int, j: int, t: int, *, allow_evict: bool = False
    ) -> None:
        """Serve slice (req, o) on server j at period t; raises _MoveFailed."""
        inst = self.inst
        if not o <= t <= inst.horizon:
            raise _MoveFailed("period outside [arrival, horizon]")
        amount = self._slice_amount(req, o)
        if self.client_used.get((req, t), 0.0) + amount > inst.client_bandwidth + 1e-9:
            raise _MoveFailed("client bandwidth")
        srv = inst.server_by_id[j]
        if self.bw_used.get((j, t), 0.0) + amount > srv.bandwidth + 1e-9:
            raise _MoveFailed("server bandwidth")
        k = inst.request_by_id[req].content
        self._ensure_window(k, j, t, allow_evict=allow_evict)
        self.placements[(req, o)] = (j, t)
        self.events.setdefault((k, j, t), set()).add((req, o))
        self.bw_used[(j, t)] = self.bw_used.get((j, t), 0.0) + amount
        self.client_used[(req, t)] = self.client_used.get((req, t), 0.0) + amount
        self.backlog_cost += self._delay_cost(req, o, t, amount)
        xkey = (req, j, t)
        self.x_count[xkey] = self.x_count.get(xkey, 0) + 1
        if self.x_count[xkey] == 1:
            self.attend_cost += inst.request_by_id[req].attend_cost
        if srv.kind == HIRABLE:
            zkey = (j, self.slot[t])
            self.z_count[zkey] = self.z_count.get(zkey, 0) + 1
            if self.z_count[zkey] == 1:
                self.fin_cost += srv.cost / self.m

    def unplace(self, req: int, o: int) -> None:
        """Remove a slice placement."""
        inst = self.inst
        j, t = self.placements.pop((req, o))
        amount = self._slice_amount(req, o)
        k = inst.request_by_id[req].content
        ev = self.events[(k, j, t)]
        ev.discard((req, o))
        if not ev:
            del self.events[(k, j, t)]
        self.bw_used[(j, t)] -= amount
        self.client_used[(req, t)] -= amount
        self.backlog_cost -= self._delay_cost(req, o, t, amount)
        xkey = (req, j, t)
        self.x_count[xkey] -= 1
        if self.x_count[xkey] == 0:
            del self.x_count[xkey]
            self.attend_cost -= inst.request_by_id[req].attend_cost
        srv = inst.server_by_id[j]
        if srv.kind == HIRABLE:
            zkey = (j, self.slot[t])
            self.z_count[zkey] -= 1
            if self.z_count[zkey] == 0:
                del self.z_count[zkey]
                self.fin_cost -= srv.cost / self.m
        self._release_window(k, j, t)

    # -- cloning and export --------------------------------------------------

    def clone(self) -> "OperationalPlan":
        new = object.__new__(OperationalPlan)
        new.inst = self.inst
        new.m = self.m
        new.placements = dict(self.placements)
        new.events = {k: set(v) for k, v in self.events.items()}
        new.bw_used = dict(self.bw_used)
        new.client_used = dict(self.client_used)
        new.x_count = dict(self.x_count)
        new.z_count = dict(self.z_count)
        new.windows = {k: [w.copy() for w in v] for k, v in self.windows.items()}
        new.occ = {j: list(col) for j, col in self.occ.items()}
        new.attend_cost = self.attend_cost
        new.backlog_cost = self.backlog_cost
        new.repl_cost = self.repl_cost
        new.fin_cost = self.fin_cost
        new.slot = self.slot
        new.sources = {}
        return new

    def to_solution(self) -> Solution:
        inst = self.inst
        tf = inst.horizon
        served: dict[tuple[int, int, int], dict[int, float]] = {}
        for (k, j, t), slices in self.events.items():
            req_map: dict[int, float] = {}
            for (req, o) in slices:
                req_map[req] = req_map.get(req, 0.0) + self._slice_amount(req, o)
            served[(k, j, t)] = dict(sorted(req_map.items()))
        tuples = [
            AttendanceTuple(k, j, t, req_map)
            for (k, j, t), req_map in sorted(served.items())
        ]
        replications = []
        replicas: set[tuple[int, int, int]] = set()
        for (k, j), wins in self.windows.items():
            for w in wins:
                for t in range(w.arrive, min(w.end, tf + 1)):
                    replicas.add((k, j, t))
                if not w.origin:
                    origin = inst.content_by_id[k].origin
                    replications.append(
                        Replication(k, origin, j, w.arrive - inst.replication_delay)
                    )
        att: dict[tuple[int, int], float] = {}
        for (req, o), (j, t) in self.placements.items():
            att[(req, t)] = att.get((req, t), 0.0) + self._slice_amount(req, o)
        backlog: dict[tuple[int, int], float] = {}
        for r in inst.requests:
            carried = 0.0
            for t in range(inst.content_by_id[r.content].start, tf + 1):
                carried = carried + r.demand_at(t) - att.get((r.id, t), 0.0)
                if carried > 1e-12:
                    backlog[(r.id, t)] = carried
        return Solution(
            tuples=tuples,
            replications=sorted(replications, key=lambda r: (r.content, r.target, r.period)),
            hires=set(self.z_count),
            backlog=backlog,
            replicas=replicas,
        )


# ---------------------------------------------------------------------------
# Moves. A move relocates whole slices between (server, period) events and
# is applied transactionally: all sources are unplaced, all targets placed,
# and on the first failure every touched plan entry is restored from the
# move's undo record.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    kind: str
    # Slices to relocate and their destination (server, period).
    relocations: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    # Destination event keys that must not pre-exist (keeps Shift/Swap/Split
    # from silently merging, so each move has a clean inverse).
    fresh_keys: tuple[tuple[int, int, int], ...] = ()


_ABSENT = object()
# Bandwidth excess that the screen treats as a certain failure: far above
# place's 1e-9 tolerance, so float summation order cannot flip a decision.
_SURE_EXCESS = 1e-6


@dataclass
class AppliedMove:
    """Undo record of a successfully applied move."""

    delta: float
    snapshot: tuple[float, float, float, float]
    # (table, key, value before the move, or _ABSENT) for every plan entry
    # the move can touch; restoring them undoes the move exactly.
    entries: list[tuple[dict, object, object]]
    # The plan's screen sources before the move, put back on revert and
    # carried over, where the move left them untouched, by ``keep_move``.
    sources: dict


def _undo_entries(plan: OperationalPlan, move: Move) -> list[tuple[dict, object, object]]:
    """Pre-move values of every plan entry that applying ``move`` can touch.

    Moves never evict, so a relocation from (j, t) to (j2, t2) touches only
    its slice's placement and, at both ends, the event, bandwidth, client
    and attendance entries, the hire entry of a hirable server, the
    content's windows and the server's storage column. The screen sources
    are not entries: ``apply_move`` keeps the whole cache aside instead, and
    ``keep_move`` reads these keys to tell which sources the move left as
    they were.
    """
    inst = plan.inst
    slot = plan.slot
    placements, events, bw, client, xs, zs, windows, servers = (set() for _ in range(8))
    for sl, (j2, t2) in move.relocations:
        req = sl[0]
        k = inst.request_by_id[req].content
        placements.add(sl)
        for j, t in (plan.placements[sl], (j2, t2)):
            events.add((k, j, t))
            bw.add((j, t))
            client.add((req, t))
            xs.add((req, j, t))
            # place and unplace count hires of hirable servers only, and place
            # rejects other periods untouched
            if 0 <= t < len(slot) and inst.server_by_id[j].kind == HIRABLE:
                zs.add((j, slot[t]))
            windows.add((k, j))
            servers.add(j)
    entries = []
    for table, table_keys, copy in (
        (plan.placements, placements, None),
        (plan.events, events, set),
        (plan.bw_used, bw, None),
        (plan.client_used, client, None),
        (plan.x_count, xs, None),
        (plan.z_count, zs, None),
        (plan.windows, windows, lambda wins: [w.copy() for w in wins]),
        (plan.occ, servers, list),
    ):
        for key in table_keys:
            value = table.get(key, _ABSENT)
            if copy is not None and value is not _ABSENT:
                value = copy(value)
            entries.append((table, key, value))
    return entries


def _exceeds_bandwidth(plan: OperationalPlan, move: Move) -> bool:
    """True when, once its sources are freed, the move's targets would
    exceed a server or client bandwidth by clearly more than place's 1e-9
    tolerance."""
    inst = plan.inst
    requests = inst.request_by_id
    servers = inst.server_by_id
    placements = plan.placements
    load: dict[tuple[int, int], float] = {}
    client: dict[tuple[int, int], float] = {}
    for sl, (j2, t2) in move.relocations:
        req, o = sl
        j, t = placements[sl]
        amount = requests[req].demand[o]
        load[(j, t)] = load.get((j, t), 0.0) - amount
        load[(j2, t2)] = load.get((j2, t2), 0.0) + amount
        client[(req, t)] = client.get((req, t), 0.0) - amount
        client[(req, t2)] = client.get((req, t2), 0.0) + amount
    bw_used = plan.bw_used
    for key, d in load.items():
        if d > 0 and bw_used.get(key, 0.0) + d > servers[key[0]].bandwidth + _SURE_EXCESS:
            return True
    client_used = plan.client_used
    for key, d in client.items():
        if d > 0 and client_used.get(key, 0.0) + d > inst.client_bandwidth + _SURE_EXCESS:
            return True
    return False


def apply_move(plan: OperationalPlan, move: Move) -> AppliedMove | None:
    """Apply a move transactionally; returns its undo record, or None.

    A failed move leaves the plan exactly as it was. The screen sources
    cached for the plan as found are set aside, and the plan goes on with
    an empty cache; a failed move and ``revert_move`` put the old cache
    back, ``keep_move`` carries its untouched sources over, and a move kept
    without it leaves the new cache, so no source outlives the plan it
    describes.
    """
    snap = (plan.attend_cost, plan.backlog_cost, plan.repl_cost, plan.fin_cost)
    before = plan.total_cost()
    entries = _undo_entries(plan, move)
    sources, plan.sources = plan.sources, {}
    try:
        for (sl, _target) in move.relocations:
            plan.unplace(*sl)
        for key in move.fresh_keys:
            if key in plan.events:
                raise _MoveFailed("destination event already exists")
        for (sl, (j, t)) in move.relocations:
            plan.place(sl[0], sl[1], j, t)
    except _MoveFailed:
        _restore(plan, snap, entries, sources)
        return None
    return AppliedMove(plan.total_cost() - before, snap, entries, sources)


def revert_move(plan: OperationalPlan, applied: AppliedMove) -> None:
    """Roll back a successfully applied move exactly."""
    _restore(plan, applied.snapshot, applied.entries, applied.sources)


def keep_move(plan: OperationalPlan, applied: AppliedMove) -> None:
    """Keep a successfully applied move: the counterpart of ``revert_move``.

    The plan goes on with the sources cached before the move, less those it
    may have changed. A source's hire refund is read from its (server, slot)
    hire count and its copy refund from its (content, server) windows; it is
    dropped when either has an undo entry. That covers its slices and
    attendance too: every event the move touches has its (content, server)
    windows among the entries. Sources read while the move was applied are
    dropped, so every source left describes the plan after the move.
    """
    touched = {id(plan.windows): set(), id(plan.z_count): set()}
    for table, key, _value in applied.entries:
        keys = touched.get(id(table))
        if keys is not None:
            keys.add(key)
    kj, js = touched.values()
    slot = plan.slot
    plan.sources = {
        key: src
        for key, src in applied.sources.items()
        if key[:2] not in kj and (key[1], slot[key[2]]) not in js
    }


def _restore(plan, snap, entries, sources) -> None:
    for table, key, value in entries:
        if value is _ABSENT:
            table.pop(key, None)
        else:
            table[key] = value
    plan.attend_cost, plan.backlog_cost, plan.repl_cost, plan.fin_cost = snap
    plan.sources = sources


# -- candidate generation ----------------------------------------------------
#
# The one-source candidate groups are generators over the plan as it is when
# their first group is taken; the search either rejects a candidate, which
# leaves the plan exactly as it was, or accepts it and stops taking groups.


class _Source:
    """Slices of one source event ``key`` that move to one target, and the
    screen terms of moving them that hold for every target: attendance that
    ends, and the hire and copy refunds. The terms are read on first use
    (``terms``), so listing candidates for a perturbation draw reads none.
    The plan caches each live event's source with its per-request ``parts``
    (``OperationalPlan.source``) until a kept move touches its windows or
    hire count (``keep_move``).

    ``rejects`` adds each target's terms in the reference screen's order, so
    it returns True exactly when that screen would reject the move for its
    range, fresh key or cost bound, at the cost of a few lookups and without
    building the move.
    """

    __slots__ = ("key", "slices", "_parts", "reqs", "hire_refund", "copy_refund")

    def __init__(self, key, slices: list[tuple[int, int]]) -> None:
        self.key = key
        self.slices = slices
        self._parts = None
        self.reqs = None

    def parts(self) -> list["_Source"]:
        """One source per request of a shared event, in request order; none
        for an event of one request."""
        if self._parts is None:
            by_req: dict[int, list[tuple[int, int]]] = {}
            for sl in self.slices:
                by_req.setdefault(sl[0], []).append(sl)
            self._parts = []
            if len(by_req) > 1:
                self._parts = [_Source(self.key, sls) for sls in by_req.values()]
        return self._parts

    def terms(self, plan: OperationalPlan) -> list[tuple[int, float]]:
        """Per request, (request, attendance cost), in request order; the
        first call also reads ``hire_refund`` and ``copy_refund``.

        Each request's attendance at the event ends with the move: an
        event holds every slice that its content's requests place on its
        (server, period), and the source moves all of a request's slices.
        """
        if self.reqs is not None:
            return self.reqs
        inst = plan.inst
        k, j, t = self.key
        n = len(self.slices)
        requests = inst.request_by_id
        self.reqs = [
            (req, requests[req].attend_cost)
            for req in dict.fromkeys(req for req, _o in self.slices)
        ]
        srv = inst.server_by_id[j]
        self.hire_refund = 0.0
        if srv.kind == HIRABLE and plan.z_count[(j, plan.slot[t])] == n:
            self.hire_refund = srv.cost / plan.m
        self.copy_refund = 0.0
        for w in plan.windows[(k, j)]:
            if w.arrive <= t < w.end:
                if not w.origin and sum(w.uses.values()) == n:
                    self.copy_refund = inst.content_by_id[k].copy_cost
                break
        return self.reqs

    def floor_rejects(self, plan: OperationalPlan) -> bool:
        """True only if ``rejects`` rejects every fresh target on another
        server in the same period, as shift and split have.

        For such a target ``rejects`` skips the backlog, and a fresh one
        never has an ``x_count`` at (request, j2, t): that would mean the
        event (k, j2, t) exists, which the fresh check rejects first. So
        ``rejects`` adds to 0.0 each request's ending and starting
        attendance, which cancel exactly, then subtracts the hire refund,
        adds the hire of j2 if it is new and the copy to j2 if it holds no
        window, both >= 0, and subtracts the copy refund. With neither
        refund, that bound is >= 0.0.
        """
        self.terms(plan)
        return not self.hire_refund and not self.copy_refund

    def rejects(self, plan: OperationalPlan, j2: int, t2: int, fresh: bool) -> bool:
        k, j, t = self.key
        if fresh and (k, j2, t2) in plan.events:
            return True
        reqs = self.terms(plan)
        bound = 0.0
        if t2 != t:  # only d-delay changes the period, and with it the backlog
            if t2 > plan.inst.horizon:
                return True
            requests = plan.inst.request_by_id
            for req, o in self.slices:
                if o > t2:
                    return True
                r = requests[req]
                bound += (t2 - t) * r.penalty * r.demand[o]
        x_count = plan.x_count
        for req, attend in reqs:
            bound -= attend
            if not x_count.get((req, j2, t2)):
                bound += attend
        slot = plan.slot
        if j2 != j or slot[t2] != slot[t]:  # else the hire count does not change
            bound -= self.hire_refund
            srv = plan.inst.server_by_id[j2]
            if srv.kind == HIRABLE and not plan.z_count.get((j2, slot[t2])):
                bound += srv.cost / plan.m
        if not plan.windows.get((k, j2)):  # the move must copy k to j2, or fail
            bound += plan.inst.content_by_id[k].copy_cost
        return bound - self.copy_refund >= 0.0


def _swap_rejects(plan: OperationalPlan, pair) -> bool:
    """True exactly when the reference screen would reject the swap of the
    two events of ``pair`` for its fresh keys or its cost bound; the
    bandwidth half is ``_exceeds_bandwidth``'s, on the built move.

    A swap keeps every slice's period, so its range always holds and each of
    its backlog terms is 0.0. The other terms come from the two events'
    cached sources, added in the reference's order: the hire of each
    (server, slot) whose count starts or ends, then the copy of a's content
    to b's server and of b's content to a's server where that (content,
    server) holds no window, then a's and b's copy refunds. The reference
    adds attendance first, and its attendance terms sum to exactly 0.0, so
    they are left out here: each request's attendance ends at its source
    (``_Source.terms``) and starts at its fresh target, two adjacent terms
    that cancel exactly from 0.0. Where a and b share their content and
    period, a request in both keeps a count at each server and adds no
    attendance term at all.
    """
    a, b = plan.source(pair[0]), plan.source(pair[1])
    (ka, ja, ta), (kb, jb, tb) = a.key, b.key
    events = plan.events
    fresh_a, fresh_b = (ka, jb, ta), (kb, ja, tb)
    if (fresh_a in events and fresh_a != b.key) or (fresh_b in events and fresh_b != a.key):
        return True
    a.terms(plan)
    b.terms(plan)
    bound = 0.0
    servers = plan.inst.server_by_id
    slot = plan.slot
    na, nb = len(a.slices), len(b.slices)
    z_delta: dict[tuple[int, int], int] = {}
    for j, t, d in ((ja, ta, -na), (jb, ta, na), (jb, tb, -nb), (ja, tb, nb)):
        if servers[j].kind == HIRABLE:
            key = (j, slot[t])
            z_delta[key] = z_delta.get(key, 0) + d
    z_count = plan.z_count
    for key, d in z_delta.items():
        if d:
            before = z_count.get(key, 0)
            if before == 0:
                bound += servers[key[0]].cost / plan.m
            elif before + d == 0:
                bound -= servers[key[0]].cost / plan.m
    contents = plan.inst.content_by_id
    for k, j in ((ka, jb), (kb, ja)):
        if not plan.windows.get((k, j)):
            bound += contents[k].copy_cost
    return bound - a.copy_refund - b.copy_refund >= 0.0


def _other_servers(plan: OperationalPlan) -> dict[int, list[int]]:
    server_ids = sorted(plan.inst.server_by_id)
    return {j: [j2 for j2 in server_ids if j2 != j] for j in server_ids}


def _shift_groups(plan: OperationalPlan):
    """Every event to every other server."""
    others = _other_servers(plan)
    for key in sorted(plan.events):
        yield plan.source(key), [(j2, key[2]) for j2 in others[key[1]]]


def _split_groups(plan: OperationalPlan):
    """One request's slices of a shared event to every other server."""
    others = _other_servers(plan)
    for key in sorted(plan.events):
        parts = plan.source(key).parts()
        if parts:
            targets = [(j2, key[2]) for j2 in others[key[1]]]
            for src in parts:
                yield src, targets


def _merge_groups(plan: OperationalPlan):
    """Each event onto each other event of its (content, period)."""
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for key in sorted(plan.events):
        groups.setdefault((key[0], key[2]), []).append(key)
    for _kt, group in sorted(groups.items()):
        if len(group) < 2:
            continue
        srcs = [plan.source(key) for key in group]
        for i, a in enumerate(srcs):
            for b in srcs[i + 1 :]:
                yield b, [a.key[1:]]
                yield a, [b.key[1:]]


def _delay_groups(plan: OperationalPlan, d: int):
    """Each event d periods later and d periods earlier."""
    tf = plan.inst.horizon
    for key in sorted(plan.events):
        k, j, t = key
        periods = [t2 for t2 in (t + d, t - d) if 1 <= t2 <= tf]
        if periods:
            yield plan.source(key), [(j, t2) for t2 in periods]


def _groups(plan: OperationalPlan, name: str, d: int):
    """The one-source neighborhood ``name`` in search order, as (source,
    targets) groups: the ``_Source`` whose slices move, and the (server,
    period) targets it is tried at, in order."""
    if name == "shift":
        return _shift_groups(plan)
    if name == "split":
        return _split_groups(plan)
    if name == "merge":
        return _merge_groups(plan)
    return _delay_groups(plan, d)


def _swap_pairs(keys, rng: random.Random, fraction: float) -> list[tuple]:
    """The swap sample: sorted pairs (a, b) of events on different servers,
    a before b in ``keys``.

    Of the P such pairs, in the order (a, b), it draws
    ``rng.sample(range(P), n)``: the same indices, leaving ``rng`` in the
    same state, as sampling the explicit pair list. Each index is decoded
    from per-row prefix counts, so the list is never built.
    """
    at: dict[int, list[int]] = {}  # server -> positions of its events in keys
    rank = []  # rank[i]: events of keys[i]'s server before position i
    for i, key in enumerate(keys):
        same = at.setdefault(key[1], [])
        rank.append(len(same))
        same.append(i)
    # starts[i]: index of the first pair whose a is keys[i]; of the events
    # after keys[i], all but the later ones on its server pair with it.
    starts = [0]
    last = len(keys) - 1
    for i, key in enumerate(keys):
        starts.append(starts[-1] + last - i - (len(at[key[1]]) - rank[i] - 1))
    total = starts[-1]
    if not total:
        return []
    count = min(max(1, math.ceil(fraction * total)), total)
    out = []
    row = 0
    for idx in sorted(rng.sample(range(total), count)):
        while starts[row + 1] <= idx:
            row += 1
        # The (idx - starts[row])-th event after keys[row] on another
        # server: step over the same-server events up to it.
        same = at[keys[row][1]]
        col = row + 1 + idx - starts[row]
        s = rank[row] + 1
        while s < len(same) and same[s] <= col:
            col += 1
            s += 1
        out.append((keys[row], keys[col]))
    return out


def candidates(plan: OperationalPlan, name: str, rng: random.Random, params: IlsParams):
    """The candidate list of neighborhood ``name``, in search order.

    Shift, split, merge and d-delay give (source, j2, t2): a ``_Source``
    whose slices move to server j2 at period t2, the groups of ``_groups``
    flattened. Swap gives its sample of event pairs, drawn from ``rng`` on
    the call so that it never moves within the rng stream.
    """
    if name == "swap":
        return _swap_pairs(sorted(plan.events), rng, params.swap_sample_fraction)
    return (
        (src, j2, t2) for src, targets in _groups(plan, name, params.d) for j2, t2 in targets
    )


def _move(plan: OperationalPlan, name: str, candidate) -> Move:
    """The move of one entry of ``candidates(plan, name, ...)``. A swap
    exchanges the servers of its two events; of the others, only a merge
    may land on an existing event."""
    if name != "swap":
        src, j2, t2 = candidate
        fresh = () if name == "merge" else ((src.key[0], j2, t2),)
        return Move(name, tuple((sl, (j2, t2)) for sl in src.slices), fresh_keys=fresh)
    a, b = candidate
    (ka, ja, ta), (kb, jb, tb) = a, b
    reloc = [(sl, (jb, ta)) for sl in plan.source(a).slices]
    reloc += [(sl, (ja, tb)) for sl in plan.source(b).slices]
    return Move("swap", tuple(reloc), fresh_keys=((ka, jb, ta), (kb, ja, tb)))


# ---------------------------------------------------------------------------
# Construction, RVND, perturbation, outer loop.
# ---------------------------------------------------------------------------


def constructive_phase(inst: PlanningInstance, rng: random.Random) -> OperationalPlan:
    """Greedy randomized construction.

    Requests are handled in random order; each demand slice goes to the
    first feasible (period, server) scanning periods from its arrival and
    servers cheapest-first with owned servers before hirable ones. A full
    storage conflict triggers LRU eviction; a slice no server can take in
    any period makes the instance infeasible (full service is required).
    Three screens skip the cells where ``place`` must raise, so the plan is
    the one that trying every cell leaves: a period whose client bandwidth,
    and a server whose bandwidth, the slice would exceed (``place``'s first
    two checks, in its order); and a server other than the content's origin
    before a copy can arrive: no window there covers or ends that early, so
    ``_ensure_window`` raises before it evicts and leaves only an empty list.
    """
    plan = OperationalPlan(inst)
    order = [r.id for r in inst.requests]
    rng.shuffle(order)
    servers = sorted(inst.servers, key=lambda s: (s.kind != OWNED, s.cost, s.id))
    for rid in order:
        r = inst.request_by_id[rid]
        content = inst.content_by_id[r.content]
        arrival = plan._earliest_arrival(content)
        for o in sorted(r.demand):
            amount = r.demand[o]
            if amount <= 0:
                continue
            cells = (
                (srv.id, t)
                for t in range(o, inst.horizon + 1)
                if plan.client_used.get((rid, t), 0.0) + amount <= inst.client_bandwidth + 1e-9
                for srv in servers
                if plan.bw_used.get((srv.id, t), 0.0) + amount <= srv.bandwidth + 1e-9
                and (t >= arrival or srv.id == content.origin)
            )
            for j, t in cells:
                try:
                    plan.place(rid, o, j, t, allow_evict=True)
                    break
                except _MoveFailed:
                    continue
            else:
                raise Infeasible(f"request {rid} slice at {o} fits no server in any period")
    return plan


@dataclass
class SearchStats:
    constructions: int = 0
    rvnd_passes: int = 0
    moves_tried: int = 0
    moves_accepted: int = 0
    moves_screened: int = 0  # rejected by the screen without applying
    moves_failed: int = 0  # applied and rolled back by apply_move
    perturbations: int = 0
    restarts: int = 0
    wall_time: float = 0.0


def rvnd(
    plan: OperationalPlan,
    rng: random.Random,
    params: IlsParams,
    stats: SearchStats | None = None,
) -> OperationalPlan:
    """First-improvement descent over randomly ordered neighborhoods.

    Each pass walks one neighborhood's candidates in search order: the swap
    sample, or the (source, targets) groups of ``_groups``. A shift or
    split group whose source's floor rejects (``_Source.floor_rejects``)
    has all its targets counted as tried and screened at once; the floor
    rejects only what ``rejects`` would, so the search is unchanged. Any
    other candidate that its screen rejects (``_Source.rejects`` or
    ``_swap_rejects``, then ``_exceeds_bandwidth`` on the built move) is
    counted as screened; any other is applied, and kept (``keep_move``, which
    carries the untouched sources over) only if it improves, else reverted.
    The plan's cached screen sources go when the descent ends: a finished
    plan is only cloned, and a clone starts with an empty cache.
    """
    stats = stats if stats is not None else SearchStats()
    active = list(NEIGHBORHOODS)
    passes = tried = screened = failed = accepted = 0
    while active:
        name = active[rng.randrange(len(active))]
        passes += 1
        fresh = name != "merge"
        floored = name in FLOORED
        if name == "swap":
            groups = [(None, candidates(plan, name, rng, params))]
        else:
            groups = _groups(plan, name, params.d)
        improved = False
        for src, targets in groups:
            if floored and src.floor_rejects(plan):
                tried += len(targets)
                screened += len(targets)
                continue
            for target in targets:
                tried += 1
                if src is None:
                    if _swap_rejects(plan, target):
                        screened += 1
                        continue
                    move = _move(plan, name, target)
                else:
                    j2, t2 = target
                    if src.rejects(plan, j2, t2, fresh):
                        screened += 1
                        continue
                    move = _move(plan, name, (src, j2, t2))
                if _exceeds_bandwidth(plan, move):
                    screened += 1
                    continue
                applied = apply_move(plan, move)
                if applied is None:
                    failed += 1
                elif applied.delta < -EPS:
                    keep_move(plan, applied)
                    accepted += 1
                    improved = True
                    break
                else:
                    revert_move(plan, applied)
            if improved:
                break
        if improved:
            active = list(NEIGHBORHOODS)
        else:
            active.remove(name)
    plan.sources.clear()
    stats.rvnd_passes += passes
    stats.moves_tried += tried
    stats.moves_screened += screened
    stats.moves_failed += failed
    stats.moves_accepted += accepted
    return plan


def perturb(
    plan: OperationalPlan,
    level: int,
    rng: random.Random,
    params: IlsParams,
    stats: SearchStats | None = None,
) -> OperationalPlan:
    """Apply level + 1 random feasible moves from {shift, swap, split, merge},
    each one uniform entry of its neighborhood's candidate list."""
    kinds = ("shift", "swap", "split", "merge")
    applied = 0
    attempts = 0
    while applied < level + 1 and attempts < 40 * (level + 1):
        attempts += 1
        name = kinds[rng.randrange(len(kinds))]
        cands = list(candidates(plan, name, rng, params))
        move = _move(plan, name, cands[rng.randrange(len(cands))]) if cands else None
        if move is not None and apply_move(plan, move) is not None:
            applied += 1
            if stats is not None:
                stats.perturbations += 1
    return plan


def solve(
    inst: PlanningInstance, params: IlsParams | None = None
) -> tuple[Solution, CostBreakdown, dict]:
    """Full multi-start loop; deterministic for a given (instance, params)."""
    params = params or IlsParams()
    stats = SearchStats()
    started = time.perf_counter()
    master = random.Random(params.seed)
    restart_seeds = [master.randrange(2**63) for _ in range(params.iter_max)]
    best_plan: OperationalPlan | None = None
    best_cost = math.inf
    for restart, rs in enumerate(restart_seeds):
        rng = random.Random(rs)
        stats.restarts += 1
        plan = constructive_phase(inst, rng)
        stats.constructions += 1
        plan = rvnd(plan, rng, params, stats)
        level = 0
        while level < params.level_max:
            trial = plan.clone()
            perturb(trial, level, rng, params, stats)
            rvnd(trial, rng, params, stats)
            if trial.total_cost() < plan.total_cost() - EPS:
                plan = trial
                level = 0
            else:
                level += 1
        if plan.total_cost() < best_cost - EPS:
            best_cost = plan.total_cost()
            best_plan = plan
    assert best_plan is not None
    stats.wall_time = time.perf_counter() - started
    logger.debug("ils.solve: cost %.9g, %s", best_cost, stats)
    solution = best_plan.to_solution()
    return solution, evaluate(inst, solution), dict(vars(stats))
