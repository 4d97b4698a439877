"""Discrete-time replay of a trace under two resource policies.

The pipeline run feeds each trace bin to the online detector; while an
event is active it periodically re-plans over a rolling window with the
local-search solver and applies the resulting hires (after the
provisioning delay) and content replications (after the replication
delay). Requests download their content at the client bandwidth from
servers holding it, owned servers first; a request that has started stays
on its server. The baseline run pushes the same byte demand through the
threshold-autoscaling fleet.

Both runs bill active instances per billing slot at their type's price
(owned servers at the configured base price, so the two policies share the
same base-fleet cost), and produce reports with identical per-period
schemas for comparison.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import time
from dataclasses import dataclass, field

from .baseline import AsPolicyConfig, new_fleet, step as baseline_step
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

    def size_of(self, content: int) -> float:
        return self.sizes.get(content, self.default_size)

    def load_trace(self) -> BinnedTrace:
        if self.trace_file is not None:
            return read_csv_trace(self.trace_file)
        return generate(self.generator)


def _parse_types(text: str) -> dict[str, ServerType]:
    out: dict[str, ServerType] = {}
    for item in text.split():
        name, _, body = item.partition(":")
        fields = dict(kv.split("=") for kv in body.split(","))
        out[name] = ServerType(
            name=name,
            storage=float(fields["storage"]),
            bandwidth=float(fields["bandwidth"]),
            cost=float(fields["cost"]),
        )
    return out


def read_scenario(path: str, seed: int | None = None) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    try:
        sc = cp["scenario"]
        tr = cp["trace"]
        dem = cp["demand"]
        srv = cp["servers"]
        det = cp["detector"] if "detector" in cp else {}
        ils_sec = cp["ils"] if "ils" in cp else {}
        auto = cp["autoscaling"]
    except KeyError as exc:
        raise ScenarioInvalid(f"missing section {exc}") from exc
    generator = None
    trace_file = tr.get("file", fallback=None)
    if tr.get("generator", fallback=None):
        generator = read_generator_config(tr.get("generator"))
    sizes = {}
    for item in dem.get("sizes", fallback="").split(","):
        if item.strip():
            cid, val = item.split(":")
            sizes[int(cid)] = float(val)
    owned_name, _, owned_count = srv.get("owned").partition(":")
    scenario_seed = seed if seed is not None else sc.getint("seed", fallback=0)
    if generator is not None:
        generator = GeneratorConfig(
            contents=generator.contents,
            horizon=generator.horizon,
            bin_width=generator.bin_width,
            seed=scenario_seed,
        )
    flag = FlagConfig(
        k=float(det.get("k", 3.0)),
        m=int(det.get("m", 3)),
        gap_merge=int(det["gap_merge"]) if "gap_merge" in det else None,
        warmup=int(det.get("warmup", 200)),
    )
    params = IlsParams(
        iter_max=int(ils_sec.get("iters", 2)),
        level_max=int(ils_sec.get("levels", 1)),
        d=int(ils_sec.get("d", 1)),
        swap_sample_fraction=float(ils_sec.get("swap_frac", 0.05)),
        seed=scenario_seed,
    )
    return ScenarioConfig(
        trace_file=trace_file,
        generator=generator,
        sizes=sizes,
        default_size=dem.getfloat("default_size", fallback=1.0),
        client_bandwidth=dem.getfloat("client_bandwidth"),
        attend_cost=dem.getfloat("attend_cost", fallback=1.0),
        penalty=dem.getfloat("penalty", fallback=1.0),
        copy_cost=dem.getfloat("copy_cost", fallback=1.0),
        owned_type=owned_name,
        owned_count=int(owned_count or "1"),
        owned_billing=srv.getfloat("owned_billing", fallback=0.0),
        types=_parse_types(srv.get("types")),
        billing_granularity=srv.getint("billing_granularity", fallback=1),
        replication_delay=srv.getint("replication_delay", fallback=1),
        provisioning_delay=srv.getint("provisioning_delay", fallback=1),
        detector_w=int(det.get("w", 1)),
        flag_cfg=flag,
        ils=params,
        autoscaling_vm=auto.get("vm_type"),
        as_threshold=auto.getfloat("threshold", fallback=0.70),
        as_cooldown=auto.getint("cooldown", fallback=1),
        as_min=auto.getint("min", fallback=1),
        as_max=auto.getint("max", fallback=64),
        lb_cost=auto.getfloat("lb_cost", fallback=None),
        replan_interval=sc.getint("replan_interval", fallback=1),
        plan_window=sc.getint("plan_window", fallback=12),
        max_new_instances=sc.getint("max_new_instances", fallback=6),
        plan_bandwidth_margin=sc.getfloat("plan_bandwidth_margin", fallback=0.0),
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
    plan_solves: int = 0
    max_detector_ms: float = 0.0
    unserved_bytes: float = 0.0

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
    __slots__ = ("id", "content", "remaining", "arrival", "server")

    def __init__(self, rid: int, content: int, size: float, arrival: int) -> None:
        self.id = rid
        self.content = content
        self.remaining = size
        self.arrival = arrival
        self.server: int | None = None  # locked once the download starts


class _Instance:
    __slots__ = ("id", "type", "available_from", "contents", "last_served")

    def __init__(self, iid: int, itype: ServerType, available_from: int) -> None:
        self.id = iid
        self.type = itype
        self.available_from = available_from
        self.contents: set[int] = set()  # replicas present (after arrival)
        self.last_served = available_from


def run_pipeline(scenario: ScenarioConfig) -> RunReport:
    trace = scenario.load_trace()
    if trace.horizon <= scenario.detector_w:
        raise ScenarioInvalid("trace shorter than the detector window")
    report = RunReport("pipeline", _fingerprint(trace), scenario.seed)
    detector = Detector(w=scenario.detector_w, flag_cfg=scenario.flag_cfg)
    owned_type = scenario.types[scenario.owned_type]
    catalog = sorted(trace.catalog)

    pending: list[_SimRequest] = []
    instances: list[_Instance] = []
    incoming_copies: list[tuple[int, int, int]] = []  # (arrival, instance id, content)
    next_rid = 0
    last_plan = -(10**9)
    last_flagged = -(10**9)
    billed: set[tuple[str, int, int]] = set()  # (kind, instance id, slot)
    cum_cost = 0.0

    def slot_of(t: int) -> int:
        return max(1, math.ceil(t / scenario.billing_granularity))

    for t in range(1, trace.horizon + 1):
        bin_counts = trace.bins[t - 1]
        started = time.perf_counter()
        detector.update(bin_counts)
        det_ms = (time.perf_counter() - started) * 1e3

        arrived_bytes = 0.0
        for cid in sorted(bin_counts):
            for _ in range(bin_counts[cid]):
                size = scenario.size_of(cid)
                pending.append(_SimRequest(next_rid, cid, size, t))
                next_rid += 1
                arrived_bytes += size

        for arrival, iid, cid in list(incoming_copies):
            if arrival <= t:
                for inst in instances:
                    if inst.id == iid:
                        inst.contents.add(cid)
                incoming_copies.remove((arrival, iid, cid))

        # The online event state mirrors the flagger's merge rule: activity
        # holds for gap_merge bins past the last flagged point, so short
        # between-spike dips at small support sizes do not flap capacity.
        if detector.event_active:
            last_flagged = t
        event_active = t - last_flagged <= scenario.flag_cfg.merge_gap
        if event_active and t - last_plan >= scenario.replan_interval:
            last_plan = t
            _replan(
                scenario, t, pending, instances, incoming_copies, catalog,
                report, bin_counts,
            )
        if t % scenario.billing_granularity == 0:
            # Scale-in at slot boundaries is idleness-driven: an instance
            # goes away once it spent a whole slot neither serving nor
            # draining a locked download nor freshly provisioned. Scale-out
            # stays plan-driven, so a noisy detector can only delay growth,
            # never drop a busy fleet.
            locked = {
                r.server - scenario.owned_count
                for r in pending
                if r.server is not None and r.server >= scenario.owned_count
            }
            horizon_cut = t - scenario.billing_granularity
            instances = [
                i
                for i in instances
                if i.id in locked
                or i.last_served > horizon_cut
                or i.available_from > horizon_cut
            ]
            kept = {i.id for i in instances}
            incoming_copies = [c for c in incoming_copies if c[1] in kept]

        # Serve: a request downloads from one server; owned servers (which
        # hold every content) are preferred when it first starts.
        owned_bw = [owned_type.bandwidth] * scenario.owned_count
        active_instances = [i for i in instances if i.available_from <= t]
        hired_bw = {inst.id: inst.type.bandwidth for inst in active_instances}
        attended = 0.0
        offered = 0.0
        for req in pending:
            budget = min(scenario.client_bandwidth, req.remaining)
            offered += budget
            got = 0.0
            if req.server is not None:
                if req.server < scenario.owned_count:
                    take = min(owned_bw[req.server], budget)
                    owned_bw[req.server] -= take
                    got = take
                else:
                    iid = req.server - scenario.owned_count
                    take = min(hired_bw.get(iid, 0.0), budget)
                    if take > 0:
                        hired_bw[iid] -= take
                    got = take
            else:
                # First fit that can serve the whole period budget (owned
                # first, then older instances, concentrating load so excess
                # capacity idles out); otherwise the largest partial take.
                best_take = 0.0
                best_server = None
                for j in range(scenario.owned_count):
                    take = min(owned_bw[j], budget)
                    if take >= budget - 1e-9:
                        best_take, best_server = take, j
                        break
                    if take > best_take + 1e-9:
                        best_take, best_server = take, j
                if best_take < budget - 1e-9:
                    for inst in active_instances:
                        if req.content not in inst.contents:
                            continue
                        take = min(hired_bw[inst.id], budget)
                        if take >= budget - 1e-9:
                            best_take = take
                            best_server = scenario.owned_count + inst.id
                            break
                        if take > best_take + 1e-9:
                            best_take = take
                            best_server = scenario.owned_count + inst.id
                if best_server is not None and best_take > 1e-9:
                    req.server = best_server
                    got = best_take
                    if best_server < scenario.owned_count:
                        owned_bw[best_server] -= got
                    else:
                        hired_bw[best_server - scenario.owned_count] -= got
            req.remaining -= got
            attended += got
        for inst in active_instances:
            if hired_bw[inst.id] < inst.type.bandwidth - 1e-9:
                inst.last_served = t
        pending = [r for r in pending if r.remaining > 1e-9]

        active = active_instances
        cost_delta = 0.0
        s = slot_of(t)
        for j in range(scenario.owned_count):
            if ("owned", j, s) not in billed:
                billed.add(("owned", j, s))
                cost_delta += scenario.owned_billing
        for inst in active:
            if ("hired", inst.id, s) not in billed:
                billed.add(("hired", inst.id, s))
                cost_delta += inst.type.cost
        cum_cost += cost_delta

        backlog = offered - attended
        report.rows.append(
            PeriodRow(
                period=t,
                offered=offered,
                attended=attended,
                backlog=backlog,
                owned=scenario.owned_count,
                hired_active=len(active),
                hired_pending=len(instances) - len(active),
                cost_delta=cost_delta,
                cost_total=cum_cost,
                detector_ms=det_ms,
            )
        )
        report.total_offered += arrived_bytes
        report.total_attended += attended
        report.backlog_periods += backlog
        report.peak_fleet = max(report.peak_fleet, scenario.owned_count + len(active))
        report.max_detector_ms = max(report.max_detector_ms, det_ms)

    report.total_cost = cum_cost
    report.unserved_bytes = sum(r.remaining for r in pending)
    report.events = detector.series().events
    return report


def _replan(
    scenario: ScenarioConfig,
    t: int,
    pending: list[_SimRequest],
    instances: list[_Instance],
    incoming_copies: list[tuple[int, int, int]],
    catalog: list[int],
    report: RunReport,
    recent_counts: dict[int, int],
) -> None:
    """Plan hires/replications over the window.

    The window's demand is the unstarted pending requests plus a
    persistence forecast: every later window period is assumed to repeat
    the most recent bin's arrivals, so the plan sizes the fleet for the
    stream rather than a one-shot pulse.
    """
    fresh = [r for r in pending if r.server is None]
    if not fresh:
        return
    window = scenario.plan_window
    derate = 1.0 - scenario.plan_bandwidth_margin
    owned_type = scenario.types[scenario.owned_type]
    servers: list[Server] = []
    for j in range(scenario.owned_count):
        servers.append(
            Server(j, OWNED, storage=owned_type.storage,
                   bandwidth=owned_type.bandwidth * derate)
        )
    plan_to_instance: dict[int, _Instance | ServerType] = {}
    sid = scenario.owned_count
    for inst in instances:
        servers.append(
            Server(sid, HIRABLE, storage=inst.type.storage,
                   bandwidth=inst.type.bandwidth * derate, cost=inst.type.cost)
        )
        plan_to_instance[sid] = inst
        sid += 1
    for tname in sorted(scenario.types):
        itype = scenario.types[tname]
        if itype.cost <= 0:
            continue
        for _ in range(scenario.max_new_instances):
            servers.append(
                Server(sid, HIRABLE, storage=itype.storage,
                       bandwidth=itype.bandwidth * derate, cost=itype.cost)
            )
            plan_to_instance[sid] = itype
            sid += 1

    used = {r.content for r in fresh} | {
        cid for cid, cnt in recent_counts.items() if cnt > 0
    }
    contents = [
        Content(
            cid,
            size=scenario.size_of(cid),
            start=1,
            origin=catalog.index(cid) % scenario.owned_count
            if scenario.owned_count
            else 0,
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
    def build(horizon):
        return PlanningInstance(
            servers=servers,
            contents=contents,
            requests=requests,
            horizon=horizon,
            client_bandwidth=scenario.client_bandwidth,
            replication_delay=scenario.replication_delay,
            provisioning_delay=scenario.provisioning_delay,
            billing_granularity=scenario.billing_granularity,
        )
    try:
        solution, _cost, _stats = ils_solve(build(window + size_pad), scenario.ils)
    except Infeasible:
        # Demand outgrew the window; let the plan spill further out rather
        # than aborting the replay.
        solution, _cost, _stats = ils_solve(
            build((window + size_pad) * 4), scenario.ils
        )
    report.plan_solves += 1

    # Apply: spawn the new instances the plan serves from and schedule its
    # replications; idle capacity ages out at billing-slot boundaries.
    used_plan_sids = {tup.server for tup in solution.tuples if tup.served}
    next_iid = max([i.id for i in instances], default=-1) + 1
    planned_new: dict[int, _Instance] = {}
    for (k, j, _p) in sorted(solution.replicas):
        if j < scenario.owned_count or j not in used_plan_sids:
            continue
        target = plan_to_instance[j]
        if isinstance(target, ServerType):
            inst = planned_new.get(j)
            if inst is None:
                inst = _Instance(next_iid, target, t + scenario.provisioning_delay)
                next_iid += 1
                planned_new[j] = inst
                instances.append(inst)
        else:
            inst = target
        if k not in inst.contents:
            arrival = max(t + scenario.replication_delay, inst.available_from)
            if (arrival, inst.id, k) not in incoming_copies:
                incoming_copies.append((arrival, inst.id, k))


def run_baseline(scenario: ScenarioConfig) -> RunReport:
    trace = scenario.load_trace()
    if trace.horizon <= scenario.detector_w:
        raise ScenarioInvalid("trace shorter than the detector window")
    report = RunReport("baseline", _fingerprint(trace), scenario.seed)
    vm = scenario.types[scenario.autoscaling_vm]
    cfg = AsPolicyConfig(
        vm_type=Server(0, HIRABLE, storage=vm.storage, bandwidth=vm.bandwidth, cost=vm.cost),
        scale_out_threshold=scenario.as_threshold,
        cooldown=scenario.as_cooldown,
        min_instances=scenario.as_min,
        max_instances=scenario.as_max,
        lb_cost=scenario.lb_cost,
        provisioning_delay=scenario.provisioning_delay,
        billing_granularity=scenario.billing_granularity,
    )
    fleet = new_fleet(cfg)
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
    for t in range(1, trace.horizon + 1):
        demand = due[t]
        res = baseline_step(fleet, demand)
        report.rows.append(
            PeriodRow(
                period=t,
                offered=demand,
                attended=res.attended,
                backlog=res.backlogged,
                owned=0,
                hired_active=res.active,
                hired_pending=res.pending,
                cost_delta=res.cost_delta,
                cost_total=fleet.cumulative_cost,
                detector_ms=0.0,
            )
        )
        report.total_offered += arrivals[t]
        report.total_attended += res.attended
        report.backlog_periods += res.backlogged
        report.peak_fleet = max(report.peak_fleet, res.active)
    report.total_cost = fleet.cumulative_cost
    report.unserved_bytes = fleet.backlog + late
    return report


@dataclass
class Comparison:
    rows: list[tuple[str, float, float, float]]

    def to_text(self) -> str:
        width = max(len(r[0]) for r in self.rows)
        lines = [f"{'metric':<{width}}  {'a':>14} {'b':>14} {'delta':>14}"]
        for name, a, b, d in self.rows:
            lines.append(f"{name:<{width}}  {a:>14.6g} {b:>14.6g} {d:>14.6g}")
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("metric,a,b,delta\n")
            for name, a, b, d in self.rows:
                fh.write(f"{name},{a:.10g},{b:.10g},{d:.10g}\n")

    def value(self, metric: str) -> tuple[float, float, float]:
        for name, a, b, d in self.rows:
            if name == metric:
                return a, b, d
        raise KeyError(metric)


def compare(a: RunReport, b: RunReport) -> Comparison:
    """Side-by-side totals of two runs over the same trace."""
    if (a.provenance, a.seed) != (b.provenance, b.seed):
        raise ProvenanceMismatch(
            f"reports built from different traces/seeds: "
            f"{(a.provenance, a.seed)} vs {(b.provenance, b.seed)}"
        )
    ev_a = a.events[0] if a.events else (0, 0)
    ev_b = b.events[0] if b.events else (0, 0)
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


def write_report_csv(report: RunReport, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(
            "period,offered,attended,backlog,owned,hired_active,hired_pending,"
            "cost_delta,cost_total,detector_ms\n"
        )
        for r in report.rows:
            fh.write(
                f"{r.period},{r.offered:.10g},{r.attended:.10g},{r.backlog:.10g},"
                f"{r.owned},{r.hired_active},{r.hired_pending},"
                f"{r.cost_delta:.10g},{r.cost_total:.10g},{r.detector_ms:.4g}\n"
            )


def summarize(report: RunReport) -> str:
    lines = [
        f"policy: {report.policy}",
        f"trace: {report.provenance} seed: {report.seed}",
        f"periods: {len(report.rows)}",
        f"total offered bytes: {report.total_offered:.6g}",
        f"total attended bytes: {report.total_attended:.6g}",
        f"final backlog: {report.final_backlog():.6g}",
        f"peak fleet: {report.peak_fleet}",
        f"total financial cost: {report.total_cost:.6g}",
        f"detected events: {report.events}",
        f"plan solves: {report.plan_solves}",
        f"max detector time per bin: {report.max_detector_ms:.3f} ms",
    ]
    return "\n".join(lines)
