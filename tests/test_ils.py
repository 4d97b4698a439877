import dataclasses
import math
import random

import pytest

from flashcrowd import ils
from flashcrowd.lpio import solve_exact
from flashcrowd.ils import (
    EPS,
    IlsParams,
    Move,
    OperationalPlan,
    SearchStats,
    apply_move,
    candidates,
    constructive_phase,
    keep_move,
    perturb,
    revert_move,
    rvnd,
    solve,
)
from flashcrowd.model import (
    Content,
    HIRABLE,
    Infeasible,
    OWNED,
    PlanningInstance,
    Request,
    Server,
    check_feasibility,
    evaluate,
)

from util_instances import random_midsize_instance, random_tiny_instance, tiny_instance_o1
from util_screen import cannot_improve, construct_every_cell


def every_move(plan, kind, d=1, rng=None):
    """The move of every candidate of a neighbourhood, screened or not, in
    search order; swaps as sampled from rng."""
    return [ils._move(plan, kind, c) for c in candidates(plan, kind, rng, IlsParams(d=d))]


def screened(plan, kind, d=1):
    """(move, rejected by its source's terms) for every candidate of a
    one-source neighbourhood, in search order. The search yields None in
    place of a rejected move, so tests that need every move build them here."""
    fresh = kind != "merge"
    return [
        (ils._move(plan, kind, c), c[0].rejects(plan, c[1], c[2], fresh))
        for c in candidates(plan, kind, None, IlsParams(d=d))
    ]


def pools(plan, rng):
    """Every candidate of each neighbourhood, screened or not, built from
    the plan as it is now; swaps as sampled from rng."""
    return [every_move(plan, kind, rng=rng) for kind in ils.NEIGHBORHOODS]


def inverse_move(plan_before: dict, move: Move) -> Move:
    """Inverse relocations, from the recorded pre-move placements."""
    inv = tuple((sl, plan_before[sl]) for (sl, _t) in move.relocations)
    return Move(kind=move.kind, relocations=inv)


def owned_ample_instance():
    servers = [
        Server(0, OWNED, storage=100, bandwidth=50, cost=0.0),
        Server(1, HIRABLE, storage=100, bandwidth=50, cost=3.0),
    ]
    contents = [Content(0, size=10, start=1, origin=0, copy_cost=1.0)]
    requests = [
        Request(0, 0, 1.0, {1: 10.0}, 2.0),
        Request(1, 0, 1.0, {2: 10.0}, 2.0),
    ]
    return PlanningInstance(servers, contents, requests, horizon=3, client_bandwidth=10)


class TestConstruction:
    def test_owned_coverage_means_zero_hires(self):
        plan = constructive_phase(owned_ample_instance(), random.Random(0))
        assert not plan.z_count
        assert plan.fin_cost == 0.0

    def test_construction_deterministic(self):
        inst = tiny_instance_o1()
        a = constructive_phase(inst, random.Random(7))
        b = constructive_phase(inst, random.Random(7))
        assert a.placements == b.placements
        assert a.total_cost() == b.total_cost()

    def test_peak_roughly_double_owned_capacity_hires(self):
        # Owned bandwidth covers half the peak-period demand.
        servers = [
            Server(0, OWNED, storage=200, bandwidth=10, cost=0.0),
            Server(1, HIRABLE, storage=200, bandwidth=40, cost=2.0),
        ]
        contents = [Content(0, size=10, start=1, origin=0, copy_cost=1.0)]
        requests = [
            Request(i, 0, 1.0, {2: 10.0}, 50.0) for i in range(4)
        ]
        inst = PlanningInstance(
            servers, contents, requests, horizon=4, client_bandwidth=10
        )
        plan = constructive_phase(inst, random.Random(1))
        # Backlog penalty dwarfs hiring, so construction must hire.
        assert plan.z_count

    def test_exported_solution_feasible_and_cost_consistent(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(rng.randrange(1000)))
            sol = plan.to_solution()
            assert check_feasibility(inst, sol, "corrected") == []
            assert evaluate(inst, sol).total == pytest.approx(plan.total_cost(), rel=1e-9)


def o1_optimal_plan():
    """The corrected-mode optimum of the O1 fixture, loaded as a plan."""
    inst = tiny_instance_o1()
    plan = OperationalPlan(inst)
    plan.place(0, 1, 0, 1)
    plan.place(0, 2, 0, 2)
    plan.place(1, 1, 1, 2)
    plan.place(1, 2, 0, 3)
    return inst, plan


class TestRvnd:
    def test_returns_oracle_optimum_unchanged(self):
        inst, plan = o1_optimal_plan()
        _sol, cost = solve_exact(inst)
        assert plan.total_cost() == pytest.approx(cost.total)
        before = dict(plan.placements)
        rvnd(plan, random.Random(0), IlsParams())
        assert plan.placements == before

    def test_descent_property(self):
        rng = random.Random(9)
        for _ in range(10):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(5))
            start = plan.total_cost()
            rvnd(plan, random.Random(6), IlsParams())
            assert plan.total_cost() <= start + 1e-9

    def test_merge_improving_case(self):
        # Two tuples of the same (content, period) on two hired servers;
        # merging onto one drops a copy and a hire slot.
        servers = [
            Server(0, OWNED, storage=10, bandwidth=1, cost=0.0),
            Server(1, HIRABLE, storage=20, bandwidth=20, cost=2.0),
            Server(2, HIRABLE, storage=20, bandwidth=20, cost=2.0),
        ]
        contents = [Content(0, size=8, start=1, origin=0, copy_cost=3.0)]
        requests = [
            Request(0, 0, 1.0, {1: 4.0, 2: 4.0}, 1.0),
            Request(1, 0, 1.0, {1: 4.0, 2: 4.0}, 1.0),
        ]
        inst = PlanningInstance(
            servers, contents, requests, horizon=3, client_bandwidth=4,
        )
        plan = OperationalPlan(inst)
        plan.place(0, 1, 1, 2)
        plan.place(0, 2, 1, 3)
        plan.place(1, 1, 2, 2)
        plan.place(1, 2, 2, 3)
        before = plan.total_cost()
        merges = [
            mv
            for mv, rejects in screened(plan, "merge")
            if not rejects and not ils._exceeds_bandwidth(plan, mv)
            and all(dest[0] == 1 for _sl, dest in mv.relocations)
        ]
        assert merges
        applied = apply_move(plan, merges[0])
        assert applied is not None and applied.delta < 0
        assert plan.total_cost() < before


def plan_state(plan):
    """Every table of a plan, with windows as comparable tuples."""
    windows = {
        key: sorted((w.arrive, w.end, sorted(w.uses.items()), w.origin) for w in wins)
        for key, wins in plan.windows.items()
    }
    return (
        dict(plan.placements),
        {key: set(v) for key, v in plan.events.items()},
        dict(plan.bw_used),
        dict(plan.client_used),
        dict(plan.x_count),
        dict(plan.z_count),
        windows,
        {j: list(col) for j, col in plan.occ.items()},
        (plan.attend_cost, plan.backlog_cost, plan.repl_cost, plan.fin_cost),
    )


def construction_outcome(build, inst, seed):
    """The plan state ``build(inst, Random(seed))`` leaves, or the message of
    the Infeasible it raises. An empty windows list holds no replica, so it
    is left out: a ``place`` that fails before it looks for a window may
    leave one, and a skipped cell does not."""
    try:
        plan = build(inst, random.Random(seed))
    except Infeasible as exc:
        return str(exc)
    state = plan_state(plan)
    return state[:6] + ({key: wins for key, wins in state[6].items() if wins},) + state[7:]


class TestConstructionScreens:
    """``constructive_phase`` skips the cells where ``place`` must fail, and
    leaves the plan that trying every cell leaves (``construct_every_cell``)."""

    def instances(self):
        tiny = [random_tiny_instance(random.Random(s)) for s in range(15)]
        midsize = [random_midsize_instance(random.Random(s)) for s in range(14)]
        delayed = [dataclasses.replace(inst, replication_delay=2) for inst in midsize]
        return tiny + midsize + delayed

    def test_same_plan_as_trying_every_cell(self):
        for inst in self.instances():
            for seed in range(4):
                expected = construction_outcome(construct_every_cell, inst, seed)
                assert construction_outcome(constructive_phase, inst, seed) == expected

    def test_arrival_screen_decides_placements(self):
        """With a replication delay of 2, some slices go to their content's
        origin before any copy can arrive, and some to another server in
        the first period a copy can arrive: the screen and its origin
        exception are both on the path."""
        on_origin = at_arrival = 0
        for inst in self.instances()[-14:]:
            plan = constructive_phase(inst, random.Random(0))
            for (req, _o), (j, t) in plan.placements.items():
                content = inst.content_by_id[inst.request_by_id[req].content]
                earliest = plan._earliest_arrival(content)
                on_origin += j == content.origin and t < earliest
                at_arrival += j != content.origin and t == earliest
        assert on_origin and at_arrival


class TestMoves:
    def plans(self, n=12, seed=2):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(rng.randrange(10**6)))
            out.append(plan)
        return out

    def test_move_then_inverse_restores_everything(self):
        for plan in self.plans():
            for pool in pools(plan, random.Random(4)):
                tried = 0
                for move in pool:
                    if tried >= 4:
                        break
                    before_place = dict(plan.placements)
                    before_cost = plan.total_cost()
                    applied = apply_move(plan, move)
                    if applied is None:
                        continue
                    tried += 1
                    inv = inverse_move(before_place, move)
                    inv_applied = apply_move(plan, inv)
                    assert inv_applied is not None, f"inverse of {move.kind} failed"
                    assert plan.placements == before_place
                    assert plan.total_cost() == pytest.approx(before_cost, abs=1e-9)

    def test_revert_restores_exactly(self):
        reverted = failed = 0
        for plan in self.plans(n=6, seed=8):
            before = plan_state(plan)
            for pool in pools(plan, random.Random(5)):
                for move in pool[:40]:
                    applied = apply_move(plan, move)
                    if applied is None:
                        failed += 1
                    else:
                        revert_move(plan, applied)
                        reverted += 1
                    assert plan_state(plan) == before, move
        assert reverted >= 100 and failed >= 100

    def test_moves_preserve_feasibility(self):
        rng = random.Random(31)
        checked = 0
        plan_pool = self.plans(n=5, seed=13)
        for plan in plan_pool:
            inst = plan.inst
            moves = sum(pools(plan, rng), [])
            rng.shuffle(moves)
            for move in moves[:30]:
                applied = apply_move(plan, move)
                if applied is None:
                    continue
                checked += 1
                sol = plan.to_solution()
                assert check_feasibility(inst, sol, "corrected") == []
                assert evaluate(inst, sol).total == pytest.approx(
                    plan.total_cost(), rel=1e-9, abs=1e-9
                )
        assert checked >= 40


class TestScreen:
    def staged_plans(self):
        """Constructed plans, each also after perturbation and delays."""
        rng = random.Random(23)
        for _ in range(6):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(rng.randrange(10**6)))
            for stage in range(2):
                if stage:
                    # Construction serves every slice as early as it can;
                    # pushing events later makes earlier shifts improving.
                    perturb(plan, 2, random.Random(stage), IlsParams())
                    for move in every_move(plan, "ddelay", 1)[::2]:
                        apply_move(plan, move)
                yield stage, plan

    def test_screened_moves_never_improve(self):
        screened_out = passed = 0
        for stage, plan in self.staged_plans():
            before = plan_state(plan)
            moves = sum(pools(plan, random.Random(stage)), []) + every_move(plan, "ddelay", 2)
            for move in moves:
                if not cannot_improve(plan, move):
                    passed += 1
                    continue
                screened_out += 1
                applied = apply_move(plan.clone(), move)
                assert applied is None or applied.delta >= -EPS, move
            assert plan_state(plan) == before
        assert screened_out >= 1000 and passed >= 50

    def test_event_screen_is_sound(self):
        # The search drops what a source's terms reject before building the
        # move, and sends a survivor only through the bandwidth check; rvnd
        # counts both as screened. The terms decide range, fresh key and
        # bound, so together with the bandwidth check they must reject
        # exactly what cannot_improve rejects, and a dropped move must not
        # be able to improve.
        rejected = kept = 0
        for _stage, plan in self.staged_plans():
            before = plan_state(plan)
            for kind, d in (("shift", 1), ("split", 1), ("merge", 1), ("ddelay", 1), ("ddelay", 2)):
                cases = screened(plan, kind, d)
                for move, rejects in cases:
                    assert (rejects or ils._exceeds_bandwidth(plan, move)) == cannot_improve(
                        plan, move
                    ), move
                    if not rejects:
                        kept += 1
                        continue
                    rejected += 1
                    applied = apply_move(plan, move)
                    if applied is not None:
                        assert applied.delta >= -EPS, move
                        revert_move(plan, applied)
                    assert plan_state(plan) == before
        assert rejected >= 1000 and kept >= 50

    def test_swap_screen_is_sound(self):
        # A sampled swap goes through _swap_rejects and, if it survives, the
        # bandwidth check, exactly as in rvnd. Together they must reject
        # what cannot_improve rejects, with the pair taken in either order,
        # and a rejected swap must not be able to improve.
        rejected = kept = collided = 0
        params = IlsParams(swap_sample_fraction=1.0)
        for _stage, plan in self.staged_plans():
            before = plan_state(plan)
            for a, b in candidates(plan, "swap", random.Random(0), params):
                collided += a[0] == b[0] and a[2] == b[2]
                for pair in ((a, b), (b, a)):
                    move = ils._move(plan, "swap", pair)
                    rejects = ils._swap_rejects(plan, pair)
                    assert (rejects or ils._exceeds_bandwidth(plan, move)) == cannot_improve(
                        plan, move
                    ), move
                    if not rejects:
                        kept += 1
                        continue
                    rejected += 1
                    applied = apply_move(plan, move)
                    if applied is not None:
                        assert applied.delta >= -EPS, move
                        revert_move(plan, applied)
                    assert plan_state(plan) == before
        assert rejected >= 1000 and kept >= 50 and collided >= 20

    def test_source_floor_is_sound(self):
        # Descent screens a whole group of a FLOORED neighbourhood with its
        # source's floor and counts every target as screened. Whenever the
        # floor rejects, rejects and cannot_improve must both reject each
        # target of the group. Flattened, the groups must be the candidate
        # lists that perturbation draws from, in the order stated here.
        floored = passed = 0
        for _stage, plan in self.staged_plans():
            before = plan_state(plan)
            servers = sorted(plan.inst.server_by_id)
            for name, d in (("shift", 1), ("split", 1), ("merge", 1), ("ddelay", 1), ("ddelay", 2)):
                fresh = name != "merge"
                for src, targets in ils._groups(plan, name, d):
                    if name not in ils.FLOORED or not src.floor_rejects(plan):
                        passed += name in ils.FLOORED
                        continue
                    floored += 1
                    for j2, t2 in targets:
                        assert src.rejects(plan, j2, t2, fresh), (name, src.key, j2, t2)
                        assert cannot_improve(plan, ils._move(plan, name, (src, j2, t2)))
            assert plan_state(plan) == before
            # Shift: each event to every other server; split: each request's
            # slices of a shared event, in request order, likewise.
            expected = {"shift": [], "split": []}
            for key in sorted(plan.events):
                slices = sorted(plan.events[key])
                reqs = sorted({req for req, _o in slices})
                others = [(j2, key[2]) for j2 in servers if j2 != key[1]]
                expected["shift"] += [(key, slices, target) for target in others]
                if len(reqs) > 1:
                    expected["split"] += [
                        (key, [sl for sl in slices if sl[0] == req], target)
                        for req in reqs
                        for target in others
                    ]
            for name in ("shift", "split"):
                flat = [
                    (src, j2, t2) for src, targets in ils._groups(plan, name, 1)
                    for j2, t2 in targets
                ]
                assert flat == list(candidates(plan, name, None, IlsParams()))
                assert [(src.key, src.slices, (j2, t2)) for src, j2, t2 in flat] == expected[name]
        assert floored >= 500 and passed >= 50

    def test_copy_term_screens_a_shift_to_a_server_without_replica(self):
        # Event (0, 1, 2) is alone in its hire slot on hired server 1, and
        # its window there also serves period 3, so moving it refunds the
        # hire and no copy. Owned server 2 holds no replica of content 0, so
        # a shift there must pay a new copy. The floor, which is the shift's
        # bound without the target's new hire (none: server 2 is owned) and
        # new copy, passes it; only the copy term screens it.
        servers = [
            Server(0, OWNED, storage=10, bandwidth=10, cost=0.0),
            Server(1, HIRABLE, storage=10, bandwidth=10, cost=4.0),
            Server(2, OWNED, storage=10, bandwidth=10, cost=0.0),
        ]
        contents = [Content(0, size=1, start=1, origin=0, copy_cost=2.0)]
        requests = [Request(0, 0, 1.0, {2: 1.0}, 1.0), Request(1, 0, 1.0, {3: 1.0}, 1.0)]
        inst = PlanningInstance(servers, contents, requests, horizon=4, client_bandwidth=10)
        plan = OperationalPlan(inst)
        plan.place(0, 2, 1, 2)
        plan.place(1, 3, 1, 3)
        src = plan.source((0, 1, 2))
        assert not plan.windows.get((0, 2))
        assert src.terms(plan) and src.hire_refund == 4.0 / plan.m > 0 and src.copy_refund == 0
        assert not src.floor_rejects(plan)
        assert src.rejects(plan, 2, 2, True)
        move = ils._move(plan, "shift", (src, 2, 2))
        assert move in every_move(plan, "shift")
        assert cannot_improve(plan, move)
        applied = apply_move(plan, move)
        assert applied is not None and applied.delta >= -EPS
        assert applied.delta == pytest.approx(2.0 - 4.0 / plan.m)

    def test_rvnd_counts_every_outcome(self):
        inst = random_midsize_instance(random.Random(3))
        stats = SearchStats()
        rvnd(constructive_phase(inst, random.Random(1)), random.Random(2), IlsParams(), stats)
        assert stats.moves_screened > 0 and stats.moves_failed > 0
        assert stats.moves_screened + stats.moves_failed + stats.moves_accepted <= stats.moves_tried


def source_terms(src):
    return (src.key, src.slices, src.reqs, getattr(src, "hire_refund", None),
            getattr(src, "copy_refund", None))


def assert_sources_fresh(plan):
    """Every cached source equals one built from scratch now, with its
    per-request parts and any terms it read."""
    assert set(plan.sources) <= set(plan.events)
    for key, src in plan.sources.items():
        built = ils._Source(key, sorted(plan.events[key]))
        for ours, fresh in zip([src] + src.parts(), [built] + built.parts(), strict=True):
            if ours.reqs is not None:
                fresh.terms(plan)
            assert source_terms(ours) == source_terms(fresh), key


def read_all_terms(plan, rng):
    """Screen a random neighbourhood's candidates, reading their terms."""
    kind = ils.NEIGHBORHOODS[rng.randrange(len(ils.NEIGHBORHOODS))]
    for cand in candidates(plan, kind, rng, IlsParams(swap_sample_fraction=0.3)):
        if kind == "swap":
            ils._swap_rejects(plan, cand)
        else:
            cand[0].rejects(plan, cand[1], cand[2], kind != "merge")


class TestSourceCache:
    def test_cached_sources_match_fresh_ones(self):
        # Sources are cached across passes. apply_move starts the plan on an
        # empty cache; a failed apply or a revert puts back the very dict it
        # found, and a kept move (an apply, a perturbation) leaves the new
        # one. A rollback that forgot the old dict would still leave a fresh
        # cache, only an empty one, so the identity is checked as well.
        rng = random.Random(41)
        steps = dict.fromkeys(("apply", "fail", "revert", "perturb", "clone"), 0)
        for _ in range(4):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(rng.randrange(10**6)))
            for _step in range(40):
                read_all_terms(plan, rng)
                step = rng.choice(tuple(steps))
                before = plan.sources
                if step == "perturb":
                    stats = SearchStats()
                    perturb(plan, rng.randrange(3), rng, IlsParams(), stats)
                    # Each kept move drops the cache; listing the next
                    # draw's candidates may fill the new one.
                    assert (plan.sources is before) == (stats.perturbations == 0)
                elif step == "clone":
                    plan = plan.clone()
                    assert not plan.sources
                else:
                    moves = sum(pools(plan, rng), [])
                    rng.shuffle(moves)
                    for move in moves:
                        applied = apply_move(plan, move)
                        if (applied is None) != (step == "fail"):
                            if applied is not None:
                                revert_move(plan, applied)
                            continue
                        if step == "revert":
                            # Sources read while the move is applied must
                            # not outlive its rollback.
                            read_all_terms(plan, rng)
                            assert_sources_fresh(plan)
                            revert_move(plan, applied)
                        break
                    else:
                        continue
                    assert (plan.sources == {}) if step == "apply" else (plan.sources is before)
                steps[step] += 1
                assert_sources_fresh(plan)
        assert min(steps.values()) >= 10, steps


def read_every_term(plan):
    """Cache every live event's source with its parts, and read their terms."""
    for key in plan.events:
        src = plan.source(key)
        for part in [src] + src.parts():
            part.terms(plan)


def carried_keys(plan, cached, move):
    """The keys of ``cached`` whose (content, server) windows and (server,
    slot) hire count no end of the move's relocations shares; an event that
    an end shares has its windows shared too. Only a hirable server has a
    hire count: an owned end shares none."""
    ends = set()
    for sl, target in move.relocations:
        k = plan.inst.request_by_id[sl[0]].content
        for j, t in (plan.placements[sl], target):
            ends.add((k, j, t))
    slot = plan.slot
    servers = plan.inst.server_by_id
    return {
        key
        for key in cached
        if not any(
            key[:2] == end[:2]
            or (
                servers[end[1]].kind == HIRABLE
                and (key[1], slot[key[2]]) == (end[1], slot[end[2]])
            )
            for end in ends
        )
    }


class TestKeepMove:
    def test_kept_move_carries_untouched_sources(self):
        # keep_move keeps the sources cached before the move that no end of
        # the move shares windows or a hire count with, as the very objects
        # cached, and drops the rest. What it keeps must equal
        # sources built afresh, terms and all, on the plan after the move.
        rng = random.Random(43)
        kept = carried = dropped = 0
        for _ in range(8):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(rng.randrange(10**6)))
            for _step in range(25):
                read_every_term(plan)
                moves = sum(pools(plan, rng), [])
                rng.shuffle(moves)
                cached = dict(plan.sources)
                for move in moves:
                    expected = carried_keys(plan, cached, move)
                    applied = apply_move(plan, move)
                    if applied is not None:
                        break
                else:
                    break
                zs = [key for table, key, _v in applied.entries if table is plan.z_count]
                assert all(inst.server_by_id[j].kind == HIRABLE for j, _slot in zs)
                keep_move(plan, applied)
                assert all(plan.sources[key] is cached[key] for key in plan.sources)
                assert_sources_fresh(plan)
                assert set(plan.sources) == expected
                kept += 1
                carried += len(plan.sources)
                dropped += len(cached) - len(plan.sources)
        assert kept >= 120 and carried >= 3000 and dropped >= 800, (kept, carried, dropped)


class TestSwapSample:
    @staticmethod
    def pair_list(keys):
        return [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if a[1] != b[1]]

    @staticmethod
    def key_sets():
        rng = random.Random(12)
        sets = [
            [],
            [(0, 3, t) for t in range(1, 6)],  # one server: no pair
            [(0, 1, 1), (0, 1, 2)],
            [(0, 1, 1), (1, 2, 1)],
        ]
        for _ in range(30):
            servers = rng.randint(1, 5)
            sets.append(sorted({
                (rng.randrange(6), rng.randrange(servers), rng.randint(1, 8))
                for _ in range(rng.randint(1, 60))
            }))
        return sets

    def test_decoded_pairs_match_the_pair_list(self):
        for keys in self.key_sets():
            pairs = self.pair_list(keys)
            assert ils._swap_pairs(keys, random.Random(0), 1.0) == pairs
            for seed, fraction in ((1, 0.05), (2, 0.3), (3, 0.9)):
                ours, listed = random.Random(seed), random.Random(seed)
                want = []
                if pairs:
                    count = min(max(1, math.ceil(fraction * len(pairs))), len(pairs))
                    want = sorted(listed.sample(pairs, count))
                assert ils._swap_pairs(keys, ours, fraction) == want
                assert ours.getstate() == listed.getstate()


class TestPerturb:
    def test_level_zero_applies_one_move(self):
        inst = tiny_instance_o1()
        plan = constructive_phase(inst, random.Random(2))
        from flashcrowd.ils import SearchStats

        stats = SearchStats()
        perturb(plan, 0, random.Random(3), IlsParams(), stats)
        assert stats.perturbations == 1

    def test_perturb_feasibility_random_cases(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_midsize_instance(rng)
            plan = constructive_phase(inst, random.Random(1))
            for level in (0, 1, 2):
                perturb(plan, level, random.Random(level), IlsParams())
                assert check_feasibility(inst, plan.to_solution(), "corrected") == []

    def test_perturb_deterministic(self):
        inst = random_midsize_instance(random.Random(21))
        a = constructive_phase(inst, random.Random(5))
        b = constructive_phase(inst, random.Random(5))
        perturb(a, 1, random.Random(9), IlsParams())
        perturb(b, 1, random.Random(9), IlsParams())
        assert a.placements == b.placements


class TestSolve:
    def test_o1_within_five_percent_of_oracle(self):
        inst = tiny_instance_o1()
        _sol, opt = solve_exact(inst)
        hits = 0
        for seed in range(10):
            _s, cost, _stats = solve(inst, IlsParams(seed=seed))
            assert cost.total >= opt.total - 1e-9
            if cost.total <= opt.total * 1.05:
                hits += 1
        assert hits == 10

    def test_single_feasible_solution_found_exactly(self):
        servers = [Server(0, OWNED, storage=10, bandwidth=5, cost=0.0)]
        contents = [Content(0, size=5, start=1, origin=0, copy_cost=1.0)]
        requests = [Request(0, 0, 1.0, {1: 5.0}, 1.0)]
        inst = PlanningInstance(servers, contents, requests, horizon=1, client_bandwidth=5)
        sol, cost, _ = solve(inst, IlsParams(seed=0))
        assert cost.total == 1.0
        assert sol.tuples[0].served == {0: 5.0}

    def test_origin_that_cannot_store_its_own_contents_is_infeasible(self):
        servers = [Server(0, OWNED, storage=10, bandwidth=5, cost=0.0)]
        contents = [Content(0, size=20, start=1, origin=0, copy_cost=1.0)]
        requests = [Request(0, 0, 1.0, {1: 20.0}, 1.0)]
        inst = PlanningInstance(servers, contents, requests, horizon=1, client_bandwidth=5)
        with pytest.raises(Infeasible, match="^origin server 0 cannot store its own contents$"):
            solve(inst, IlsParams(seed=0))

    def test_deterministic_given_seed(self):
        inst = random_midsize_instance(random.Random(40))
        a = solve(inst, IlsParams(seed=11))
        b = solve(inst, IlsParams(seed=11))
        assert a[1] == b[1]
        assert a[0].tuples == b[0].tuples
        assert a[0].hires == b[0].hires

    def test_more_restarts_never_worse(self):
        inst = random_midsize_instance(random.Random(41))
        base = solve(inst, IlsParams(iter_max=2, seed=3))[1].total
        more = solve(inst, IlsParams(iter_max=4, seed=3))[1].total
        assert more <= base + 1e-9

    def test_incumbents_feasible(self):
        # The returned solution is the best incumbent over the restarts.
        inst = random_midsize_instance(random.Random(42))
        sol, _cost, _stats = solve(inst, IlsParams(seed=5, level_max=2))
        assert check_feasibility(inst, sol, "corrected") == []
