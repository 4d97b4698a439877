"""Discrete-time replay of a trace under two resource policies.

The pipeline run feeds each trace bin to the online detector; while an
event is active it periodically re-plans over a rolling window with the
local-search solver and applies the resulting hires (after the
provisioning delay) and content replications (after the replication
delay). If neither the window nor its widened retry has a feasible plan,
the run keeps serving from its current fleet and records the failed
re-plan. The baseline run pushes the same byte demand through a
homogeneous threshold-autoscaling fleet behind a load balancer.

The pipeline's fleet is one list of servers in a fixed order: the owned
servers (which hold every content and are always available), then the
hired instances that have finished provisioning, oldest first. Each
period every server offers its full bandwidth once. A request downloads
at most the client bandwidth per period from one server; a request that
has started stays on its server. A new request takes the first server in
fleet order that holds its content and can serve the whole period's
budget, otherwise the one with the largest partial room (1e-9 slack on
both tests), so load concentrates on the owned servers and on older
instances and excess capacity idles out.

Every active server is billed once per billing slot at its price (owned
servers at the configured base price, so the two policies share the same
base-fleet cost, hired instances at their type's price), and both runs
produce reports with identical per-period schemas for comparison.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field

from .detector import Detector, FlagConfig
from .generator import GeneratorConfig, generate, read_generator_config
from .ils import IlsParams, solve as ils_solve
from .instances import spread_demand
from .model import (
    Content,
    HIRABLE,
    Infeasible,
    OWNED,
    PlanningInstance,
    Request,
    Server,
)
from .trace import BinnedTrace, read_csv_trace


class ScenarioInvalid(ValueError):
    pass


class ProvenanceMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ServerType:
    name: str
    storage: float
    bandwidth: float
    cost: float


@dataclass
class ScenarioConfig:
    trace_file: str | None
    generator: GeneratorConfig | None
    sizes: dict[int, float]
    default_size: float
    client_bandwidth: float
    attend_cost: float
    penalty: float
    copy_cost: float
    owned_type: str
    owned_count: int
    owned_billing: float
    types: dict[str, ServerType]
    billing_granularity: int
    replication_delay: int
    provisioning_delay: int
    detector_w: int
    flag_cfg: FlagConfig
    ils: IlsParams
    autoscaling_vm: str
    as_threshold: float
    as_cooldown: int
    as_min: int
    as_max: int
    lb_cost: float | None
    replan_interval: int
    plan_window: int
    max_new_instances: int
    plan_bandwidth_margin: float
    seed: int

    def __post_init__(self) -> None:
        if (self.trace_file is None) == (self.generator is None):
            raise ScenarioInvalid("exactly one trace source required")
        if self.replan_interval < 1:
            raise ScenarioInvalid("re-plan interval must be >= 1")
        if self.owned_type not in self.types:
            raise ScenarioInvalid(f"unknown owned type {self.owned_type!r}")
        if self.autoscaling_vm not in self.types:
            raise ScenarioInvalid(f"unknown autoscaling type {self.autoscaling_vm!r}")
        if self.billing_granularity < 1:
            raise ScenarioInvalid("billing granularity must be >= 1")
        if self.replication_delay < 0 or self.provisioning_delay < 0:
            raise ScenarioInvalid("replication and provisioning delays must be >= 0")
        if not 0.0 <= self.plan_bandwidth_margin < 1.0:
            raise ScenarioInvalid("plan bandwidth margin must be in [0, 1)")
        if self.client_bandwidth <= 0.0:
            raise ScenarioInvalid("client bandwidth must be positive")
        if self.detector_w < 1:
            raise ScenarioInvalid("detector window must be >= 1")
        if self.flag_cfg.m < 1:
            raise ScenarioInvalid("detector m must be >= 1")
        if self.flag_cfg.warmup < 0 or self.flag_cfg.merge_gap < 0:
            raise ScenarioInvalid("detector warmup and gap_merge must be >= 0")
        if not 0.0 < self.as_threshold < 1.0:
            raise ScenarioInvalid("autoscaling threshold must be in (0, 1)")
        if not 0 <= self.as_min <= self.as_max:
            raise ScenarioInvalid("autoscaling bounds need 0 <= min <= max")
        if self.as_cooldown < 0:
            raise ScenarioInvalid("autoscaling cooldown must be >= 0")
        if self.lb_cost is not None and self.lb_cost < 0.0:
            raise ScenarioInvalid("autoscaling lb_cost must be >= 0")
        if self.default_size <= 0.0 or any(size <= 0.0 for size in self.sizes.values()):
            raise ScenarioInvalid("content sizes must be positive")
        if min(self.copy_cost, self.attend_cost, self.penalty) < 0.0:
            raise ScenarioInvalid("copy cost, attendance cost and penalty must be >= 0")
        if self.owned_count < 1:
            raise ScenarioInvalid("at least one owned server required")
        if self.max_new_instances < 0:
            raise ScenarioInvalid("max new instances must be >= 0")
        if self.plan_window < 1:
            raise ScenarioInvalid("plan window must be >= 1")
        if self.owned_billing < 0.0:
            raise ScenarioInvalid("owned billing must be >= 0")
        for kind in self.types.values():
            if kind.storage <= 0.0 or kind.bandwidth <= 0.0 or kind.cost < 0.0:
                raise ScenarioInvalid(
                    f"type {kind.name!r} needs positive storage and bandwidth and cost >= 0"
                )

    def size_of(self, content: int) -> float:
        return self.sizes.get(content, self.default_size)

    def load_trace(self) -> BinnedTrace:
        if self.trace_file is not None:
            return read_csv_trace(self.trace_file)
        return generate(self.generator)


def _number(section, key: str, kind: type, default=None, text: str | None = None):
    """``[section] key`` read as ``kind``, or ``default`` when the key is
    absent; ``text`` is a number taken from inside the key's compound value."""
    if text is None:
        text = section.get(key)
        if text is None:
            return default
    try:
        return kind(text)
    except ValueError:
        raise ScenarioInvalid(f"[{section.name}] {key}: bad number {text!r}") from None


def _parse_types(srv) -> dict[str, ServerType]:
    out: dict[str, ServerType] = {}
    for item in _required(srv, "types").split():
        name, _, body = item.partition(":")
        fields = dict(kv.partition("=")[::2] for kv in body.split(",") if kv)
        missing = [key for key in ("storage", "bandwidth", "cost") if key not in fields]
        if missing:
            raise ScenarioInvalid(f"server type {name!r} is missing {', '.join(missing)}")
        storage, bandwidth, cost = (
            _number(srv, "types", float, text=fields[key])
            for key in ("storage", "bandwidth", "cost")
        )
        out[name] = ServerType(name=name, storage=storage, bandwidth=bandwidth, cost=cost)
    return out


def _required(section, key: str) -> str:
    value = section.get(key)
    if value is None:
        raise ScenarioInvalid(f"missing key {key!r} in [{section.name}]")
    return value


def read_scenario(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    for optional in ("detector", "ils"):
        if optional not in cp:
            cp.add_section(optional)
    try:
        sc = cp["scenario"]
        tr = cp["trace"]
        dem = cp["demand"]
        srv = cp["servers"]
        det = cp["detector"]
        ils_sec = cp["ils"]
        auto = cp["autoscaling"]
    except KeyError as exc:
        raise ScenarioInvalid(f"missing section {exc}") from exc
    scenario_seed = _number(sc, "seed", int, 0)
    generator_path = tr.get("generator")
    try:
        generator = read_generator_config(generator_path, scenario_seed) if generator_path else None
    except ValueError as exc:
        raise ScenarioInvalid(str(exc)) from exc
    sizes = {}
    for item in dem.get("sizes", fallback="").split(","):
        if item.strip():
            cid, _, val = item.partition(":")
            sizes[_number(dem, "sizes", int, text=cid)] = _number(dem, "sizes", float, text=val)
    owned_name, _, owned_count = _required(srv, "owned").partition(":")
    flag = FlagConfig(
        k=_number(det, "k", float, 3.0),
        m=_number(det, "m", int, 3),
        gap_merge=_number(det, "gap_merge", int),
        warmup=_number(det, "warmup", int, 200),
    )
    search = {}
    for key, name, kind, default in (
        ("iters", "iter_max", int, 2),
        ("levels", "level_max", int, 1),
        ("d", "d", int, 1),
        ("swap_frac", "swap_sample_fraction", float, 0.05),
    ):
        search[name] = _number(ils_sec, key, kind, default)
        try:
            IlsParams(**{name: search[name]})  # each check reads one field
        except ValueError as exc:
            raise ScenarioInvalid(f"[ils] {key}: {exc}") from None
    params = IlsParams(**search, seed=scenario_seed)
    return ScenarioConfig(
        trace_file=tr.get("file"),
        generator=generator,
        sizes=sizes,
        default_size=_number(dem, "default_size", float, 1.0),
        client_bandwidth=_number(dem, "client_bandwidth", float,
                                 text=_required(dem, "client_bandwidth")),
        attend_cost=_number(dem, "attend_cost", float, 1.0),
        penalty=_number(dem, "penalty", float, 1.0),
        copy_cost=_number(dem, "copy_cost", float, 1.0),
        owned_type=owned_name,
        owned_count=_number(srv, "owned", int, text=owned_count or "1"),
        owned_billing=_number(srv, "owned_billing", float, 0.0),
        types=_parse_types(srv),
        billing_granularity=_number(srv, "billing_granularity", int, 1),
        replication_delay=_number(srv, "replication_delay", int, 1),
        provisioning_delay=_number(srv, "provisioning_delay", int, 1),
        detector_w=_number(det, "w", int, 1),
        flag_cfg=flag,
        ils=params,
        autoscaling_vm=_required(auto, "vm_type"),
        as_threshold=_number(auto, "threshold", float, 0.70),
        as_cooldown=_number(auto, "cooldown", int, 1),
        as_min=_number(auto, "min", int, 1),
        as_max=_number(auto, "max", int, 64),
        lb_cost=_number(auto, "lb_cost", float),
        replan_interval=_number(sc, "replan_interval", int, 1),
        plan_window=_number(sc, "plan_window", int, 12),
        max_new_instances=_number(sc, "max_new_instances", int, 6),
        plan_bandwidth_margin=_number(sc, "plan_bandwidth_margin", float, 0.0),
        seed=scenario_seed,
    )


@dataclass
class PeriodRow:
    period: int
    offered: float
    attended: float
    backlog: float
    owned: int
    hired_active: int
    hired_pending: int
    cost_delta: float
    cost_total: float
    detector_ms: float


@dataclass
class ReplanRecord:
    """One re-plan of the pipeline run: its instance, search and outcome."""

    t: int
    requests: int
    servers: int
    # Instance builds and solves, both when the widened retry ran. A reused
    # record took its plan from the run's memo (the same server types,
    # unstarted requests and recent counts were solved earlier in the run;
    # ils.solve is deterministic per instance and params), so its time is
    # the lookup alone and every other field but t is the first solve's.
    solve_ms: float
    widened: bool  # the first solve was Infeasible and the widened window ran
    failed: bool = False  # the widened window was Infeasible too: no plan
    plan_cost: float | None = None
    moves_tried: int = 0
    moves_screened: int = 0
    moves_accepted: int = 0
    hires: int = 0  # instances the plan spawned
    reused: bool = False  # an earlier replan of this run had the same inputs


# A replan's record with t and solve_ms unset, and the plan's
# (content, plan server) replicas to apply.
_Plan = tuple[ReplanRecord, tuple[tuple[int, int], ...]]


@dataclass
class RunReport:
    policy: str
    provenance: str
    seed: int
    rows: list[PeriodRow] = field(default_factory=list)
    events: list[tuple[int, int]] = field(default_factory=list)
    total_cost: float = 0.0
    total_offered: float = 0.0
    total_attended: float = 0.0
    backlog_periods: float = 0.0  # sum of end-of-period backlogs
    peak_fleet: int = 0
    unserved_bytes: float = 0.0
    replans: list[ReplanRecord] = field(default_factory=list)

    @property
    def plan_solves(self) -> int:
        return sum(1 for r in self.replans if not r.failed)

    def final_backlog(self) -> float:
        return self.rows[-1].backlog if self.rows else 0.0


def _fingerprint(trace: BinnedTrace) -> str:
    h = hashlib.sha256()
    h.update(str(trace.bin_width).encode())
    for t, b in enumerate(trace.bins):
        for cid in sorted(b):
            if b[cid]:
                h.update(f"{t}:{cid}:{b[cid]};".encode())
    return h.hexdigest()[:16]


class _SimRequest:
    __slots__ = ("content", "remaining", "server")

    def __init__(self, content: int, size: float) -> None:
        self.content = content
        self.remaining = size
        self.server: _Server | None = None  # locked once the download starts


class _Server:
    """An owned server or a hired instance, as the replay serves and bills it."""

    __slots__ = ("type", "price", "available_from", "contents", "last_served", "left",
                 "billed_slot")

    def __init__(self, stype: ServerType, price: float, available_from: int,
                 contents: set[int] | frozenset[int] | None = None) -> None:
        self.type = stype
        self.price = price  # per billing slot
        self.available_from = available_from
        self.contents = set() if contents is None else contents  # replicas present
        self.last_served = available_from
        self.left = 0.0  # bandwidth left in the current period
        self.billed_slot = 0


def _start(scenario: ScenarioConfig, policy: str) -> tuple[BinnedTrace, RunReport]:
    trace = scenario.load_trace()
    if trace.horizon <= scenario.detector_w:
        raise ScenarioInvalid("trace shorter than the detector window")
    return trace, RunReport(policy, _fingerprint(trace), scenario.seed)


def _record(report: RunReport, row: PeriodRow, arrived: float) -> None:
    """Append a period row and fold it into the report totals."""
    report.rows.append(row)
    report.total_cost = row.cost_total
    report.total_offered += arrived
    report.total_attended += row.attended
    report.backlog_periods += row.backlog
    report.peak_fleet = max(report.peak_fleet, row.owned + row.hired_active)


def _first_fit(fleet: list[_Server], content: int, budget: float) -> _Server | None:
    best, best_take = None, 0.0
    for srv in fleet:
        if content not in srv.contents:
            continue
        take = min(srv.left, budget)
        if take >= budget - 1e-9:
            best, best_take = srv, take
            break
        if take > best_take + 1e-9:
            best, best_take = srv, take
    return best if best_take > 1e-9 else None


def run_pipeline(scenario: ScenarioConfig) -> RunReport:
    trace, report = _start(scenario, "pipeline")
    detector = Detector(w=scenario.detector_w, flag_cfg=scenario.flag_cfg)
    catalog = frozenset(trace.catalog)
    # Content i of the sorted catalog originates on owned server i mod count.
    origins = {cid: i % scenario.owned_count for i, cid in enumerate(sorted(catalog))}
    owned_type = scenario.types[scenario.owned_type]
    owned = [_Server(owned_type, scenario.owned_billing, 0, catalog)
             for _ in range(scenario.owned_count)]
    hired: list[_Server] = []  # provisioning or active, oldest first
    incoming: set[tuple[int, _Server, int]] = set()  # (arrival, server, content)
    pending: list[_SimRequest] = []
    last_plan = last_flagged = -(10**9)
    plans: dict[tuple, _Plan] = {}  # this run's replans by input, see _replan

    for t in range(1, trace.horizon + 1):
        bin_counts = trace.bins[t - 1]
        started = time.perf_counter()
        detector.update(bin_counts)
        det_ms = (time.perf_counter() - started) * 1e3

        arrived_bytes = 0.0
        for cid in sorted(bin_counts):
            size = scenario.size_of(cid)
            for _ in range(bin_counts[cid]):
                pending.append(_SimRequest(cid, size))
                arrived_bytes += size

        landed = {c for c in incoming if c[0] <= t}
        for _arrival, srv, cid in landed:
            srv.contents.add(cid)
        incoming -= landed

        # The online event state mirrors the flagger's merge rule: activity
        # holds for gap_merge bins past the last flagged point, so short
        # between-spike dips at small support sizes do not flap capacity.
        if detector.event_active:
            last_flagged = t
        event_active = t - last_flagged <= scenario.flag_cfg.merge_gap
        if event_active and t - last_plan >= scenario.replan_interval:
            last_plan = t
            _replan(scenario, t, pending, owned, hired, incoming, origins, report, bin_counts,
                    plans)
        if t % scenario.billing_granularity == 0:
            # Scale-in at slot boundaries is idleness-driven: an instance
            # goes away once it spent a whole slot neither serving nor
            # draining a locked download nor freshly provisioned. Scale-out
            # stays plan-driven, so a noisy detector can only delay growth,
            # never drop a busy fleet. Copies still bound for a released
            # instance land on a server nothing serves from.
            locked = {r.server for r in pending}
            cut = t - scenario.billing_granularity
            hired = [s for s in hired
                     if s in locked or s.last_served > cut or s.available_from > cut]

        fleet = owned + [s for s in hired if s.available_from <= t]
        for srv in fleet:
            srv.left = srv.type.bandwidth
        attended = offered = 0.0
        for req in pending:
            budget = min(scenario.client_bandwidth, req.remaining)
            offered += budget
            if req.server is None:
                req.server = _first_fit(fleet, req.content, budget)
            if req.server is not None:
                got = min(req.server.left, budget)
                req.server.left -= got
                req.remaining -= got
                attended += got
        pending = [r for r in pending if r.remaining > 1e-9]

        slot = max(1, math.ceil(t / scenario.billing_granularity))
        cost_delta = 0.0
        for srv in fleet:
            if srv.left < srv.type.bandwidth - 1e-9:
                srv.last_served = t
            if srv.billed_slot != slot:
                srv.billed_slot = slot
                cost_delta += srv.price

        active = len(fleet) - len(owned)
        _record(report, PeriodRow(
            period=t,
            offered=offered,
            attended=attended,
            backlog=offered - attended,
            owned=len(owned),
            hired_active=active,
            hired_pending=len(hired) - active,
            cost_delta=cost_delta,
            cost_total=report.total_cost + cost_delta,
            detector_ms=det_ms,
        ), arrived_bytes)

    report.unserved_bytes = sum(r.remaining for r in pending)
    report.events = detector.series().events
    return report


def _replan(
    scenario: ScenarioConfig,
    t: int,
    pending: list[_SimRequest],
    owned: list[_Server],
    hired: list[_Server],
    incoming: set[tuple[int, _Server, int]],
    origins: dict[int, int],
    report: RunReport,
    recent_counts: dict[int, int],
    plans: dict[tuple, _Plan],
) -> None:
    """Plan hires/replications over the window and apply the plan.

    ``plans`` is the run's memo of finished plans. Its key is what the
    instance reads that changes within a run: the server-type names of the
    owned and hired servers in fleet order, the unstarted requests'
    ``(content, remaining)`` in pending order and the sorted recent counts.
    The scenario, the origins and the owned count are fixed for the run.
    ``ils.solve`` is deterministic for a given (instance, params), since it
    seeds its own generator from ``params.seed``, so a replan whose key was
    seen before reuses that plan, a failed one included, instead of solving
    again. The memo holds at most one entry per replan, so at most
    horizon / replan_interval entries, and goes with the run. The apply
    step runs on every replan against the current fleet.
    """
    fresh = [r for r in pending if r.server is None]
    if not fresh:
        return
    # Plan server j is the owned and hired servers in fleet order, then
    # max_new_instances candidates of each priced type.
    known = owned + hired
    kinds = [s.type for s in known] + [
        scenario.types[name]
        for name in sorted(scenario.types)
        if scenario.types[name].cost > 0
        for _ in range(scenario.max_new_instances)
    ]
    key = (
        tuple(s.type.name for s in known),
        tuple((r.content, r.remaining) for r in fresh),
        tuple(sorted(recent_counts.items())),
    )
    started = time.perf_counter()
    plan = plans.get(key)
    reused = plan is not None
    if plan is None:
        plan = plans[key] = _solve_window(scenario, kinds, len(owned), fresh, origins,
                                          recent_counts)
    untimed, apply = plan
    record = dataclasses.replace(
        untimed, t=t, solve_ms=(time.perf_counter() - started) * 1e3, reused=reused
    )
    report.replans.append(record)

    # Apply: spawn the new instances the plan serves from and schedule its
    # replications; idle capacity ages out at billing-slot boundaries.
    spawned: dict[int, _Server] = {}
    for k, j in apply:
        srv = known[j] if j < len(known) else spawned.get(j)
        if srv is None:
            srv = spawned[j] = _Server(kinds[j], kinds[j].cost, t + scenario.provisioning_delay)
            hired.append(srv)
        if k not in srv.contents:
            incoming.add((max(t + scenario.replication_delay, srv.available_from), srv, k))
    record.hires = len(spawned)


def _solve_window(
    scenario: ScenarioConfig,
    kinds: list[ServerType],
    n_owned: int,
    fresh: list[_SimRequest],
    origins: dict[int, int],
    recent_counts: dict[int, int],
) -> _Plan:
    """Build the window's instance, solve it and return the untimed record
    with the plan's ``(content, plan server)`` replicas to apply.

    The window's demand is the unstarted pending requests plus a
    persistence forecast: every later window period is assumed to repeat
    the most recent bin's arrivals, so the plan sizes the fleet for the
    stream rather than a one-shot pulse. Only replicas on hirable servers
    that the plan serves from are kept.
    """
    window = scenario.plan_window
    derate = 1.0 - scenario.plan_bandwidth_margin
    servers = [
        Server(j, OWNED, storage=k.storage, bandwidth=k.bandwidth * derate)
        if j < n_owned
        else Server(j, HIRABLE, storage=k.storage, bandwidth=k.bandwidth * derate, cost=k.cost)
        for j, k in enumerate(kinds)
    ]

    used = {r.content for r in fresh} | {
        cid for cid, cnt in recent_counts.items() if cnt > 0
    }
    contents = [
        Content(
            cid,
            size=scenario.size_of(cid),
            start=1,
            origin=origins[cid],
            copy_cost=scenario.copy_cost,
        )
        for cid in sorted(used)
    ]
    requests = []
    for r in fresh:
        requests.append(
            Request(
                len(requests),
                r.content,
                scenario.attend_cost,
                spread_demand(r.remaining, 1, scenario.client_bandwidth),
                scenario.penalty,
            )
        )
    for p in range(2, window + 1):
        for cid in sorted(recent_counts):
            for _ in range(recent_counts[cid]):
                requests.append(
                    Request(
                        len(requests),
                        cid,
                        scenario.attend_cost,
                        spread_demand(scenario.size_of(cid), p, scenario.client_bandwidth),
                        scenario.penalty,
                    )
                )
    size_pad = max(
        (len(spread_demand(c.size, 1, scenario.client_bandwidth)) for c in contents),
        default=1,
    )
    outcome, widened = None, False
    for horizon in (window + size_pad, (window + size_pad) * 4):
        try:
            outcome = ils_solve(
                PlanningInstance(
                    servers=servers,
                    contents=contents,
                    requests=requests,
                    horizon=horizon,
                    client_bandwidth=scenario.client_bandwidth,
                    replication_delay=scenario.replication_delay,
                    provisioning_delay=scenario.provisioning_delay,
                    billing_granularity=scenario.billing_granularity,
                ),
                scenario.ils,
            )
            break
        except Infeasible:
            # Demand outgrew the window; let the plan spill further out. If
            # that fails too, the run keeps serving from its current fleet.
            widened = True
    record = ReplanRecord(
        t=0,
        requests=len(requests),
        servers=len(servers),
        solve_ms=0.0,
        widened=widened,
        failed=outcome is None,
    )
    if outcome is None:
        return record, ()
    solution, cost, stats = outcome
    record.plan_cost = cost.total
    record.moves_tried = stats["moves_tried"]
    record.moves_screened = stats["moves_screened"]
    record.moves_accepted = stats["moves_accepted"]
    used_plan_sids = {tup.server for tup in solution.tuples if tup.served}
    apply = dict.fromkeys(
        (k, j) for (k, j, _p) in sorted(solution.replicas) if j >= n_owned and j in used_plan_sids
    )
    return record, tuple(apply)


def run_baseline(scenario: ScenarioConfig) -> RunReport:
    """Replay the trace's byte demand through threshold autoscaling.

    Models the commercial setup used as comparison: a homogeneous fleet of
    ``[autoscaling] vm_type`` instances, every instance holding all contents
    behind a load balancer that splits demand evenly. One instance is added
    when aggregate bandwidth utilization exceeds the threshold (strict) and
    removed below half of it, one step per cooldown, new instances usable
    only after the provisioning delay. Billing charges every active instance
    per billing slot, plus the load balancer itself (``lb_cost``, by default
    one instance's price).
    """
    trace, report = _start(scenario, "baseline")
    vm = scenario.types[scenario.autoscaling_vm]
    balancer = vm.cost if scenario.lb_cost is None else scenario.lb_cost
    # On-time per-period demand: each access due at min(client bandwidth,
    # remaining) per period from its arrival bin, like the planning model.
    # Demand that falls due after the last bin is never offered to the
    # fleet; it stays unserved.
    due = [0.0] * (trace.horizon + 2)
    arrivals = [0.0] * (trace.horizon + 2)
    late = 0.0
    for t0 in range(1, trace.horizon + 1):
        for cid, count in trace.bins[t0 - 1].items():
            if count <= 0:
                continue
            arrivals[t0] += count * scenario.size_of(cid)
            for dt, amount in enumerate(
                spread_demand(scenario.size_of(cid), 1, scenario.client_bandwidth).values()
            ):
                if t0 + dt <= trace.horizon:
                    due[t0 + dt] += count * amount
                else:
                    late += count * amount

    active = scenario.as_min
    pending: list[int] = []  # activation periods of provisioning instances
    cooldown_until = billed_slot = 0  # billed_slot: the last slot charged
    backlog = 0.0
    for t in range(1, trace.horizon + 1):
        # Pending instances whose provisioning finished join the fleet.
        ready = [p for p in pending if p <= t]
        pending = [p for p in pending if p > t]
        active = min(active + len(ready), scenario.as_max)

        offered = due[t] + backlog
        capacity = active * vm.bandwidth
        attended = min(offered, capacity)
        backlog = offered - attended
        if capacity > 0:
            utilization = offered / capacity
        else:  # an empty fleet is overloaded by any load and idle without one
            utilization = float("inf") if offered > 0 else 0.0

        if t >= cooldown_until:
            if utilization > scenario.as_threshold and active + len(pending) < scenario.as_max:
                pending.append(t + scenario.provisioning_delay)
                cooldown_until = t + scenario.as_cooldown
            elif (
                utilization < scenario.as_threshold / 2
                and active > scenario.as_min
                and not pending
            ):
                active -= 1
                cooldown_until = t + scenario.as_cooldown

        slot = max(1, -(-t // scenario.billing_granularity))
        if slot != billed_slot:
            billed_slot = slot
            cost_delta = balancer + active * vm.cost
        else:
            # Instances that joined mid-slot are billed on arrival.
            cost_delta = len(ready) * vm.cost
        _record(report, PeriodRow(
            period=t,
            offered=due[t],
            attended=attended,
            backlog=backlog,
            owned=0,
            hired_active=active,
            hired_pending=len(pending),
            cost_delta=cost_delta,
            cost_total=report.total_cost + cost_delta,
            detector_ms=0.0,
        ), arrivals[t])
    report.unserved_bytes = backlog + late
    return report


@dataclass
class Comparison:
    rows: list[tuple[str, float, float, float]]

    def value(self, metric: str) -> tuple[float, float, float]:
        for name, a, b, d in self.rows:
            if name == metric:
                return a, b, d
        raise KeyError(metric)


def compare(a: RunReport, b: RunReport) -> Comparison:
    """Side-by-side totals of two runs over the same trace.

    The event rows compare each run's first event; a run with no event,
    such as the baseline, which has no detector, reports NaN there.
    """
    if (a.provenance, a.seed) != (b.provenance, b.seed):
        raise ProvenanceMismatch(
            f"reports built from different traces/seeds: "
            f"{(a.provenance, a.seed)} vs {(b.provenance, b.seed)}"
        )
    ev_a = a.events[0] if a.events else (math.nan, math.nan)
    ev_b = b.events[0] if b.events else (math.nan, math.nan)
    rows = [
        ("total_cost", a.total_cost, b.total_cost, a.total_cost - b.total_cost),
        ("peak_fleet", a.peak_fleet, b.peak_fleet, a.peak_fleet - b.peak_fleet),
        (
            "backlog_periods",
            a.backlog_periods,
            b.backlog_periods,
            a.backlog_periods - b.backlog_periods,
        ),
        (
            "final_backlog",
            a.final_backlog(),
            b.final_backlog(),
            a.final_backlog() - b.final_backlog(),
        ),
        (
            "total_attended",
            a.total_attended,
            b.total_attended,
            a.total_attended - b.total_attended,
        ),
        ("event_start", ev_a[0], ev_b[0], ev_a[0] - ev_b[0]),
        ("event_end", ev_a[1], ev_b[1], ev_a[1] - ev_b[1]),
    ]
    return Comparison(rows)

