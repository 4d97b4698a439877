"""Threshold-triggered autoscaling with even load balancing.

Models the commercial setup used as comparison: a homogeneous fleet of one
VM type, every instance holding all contents behind a load balancer that
splits demand evenly. One instance is added when aggregate bandwidth
utilization exceeds the scale-out threshold (strict) and removed below
half of it, one step per cooldown, new instances usable only after the
provisioning delay. Billing charges every active instance per billing
slot, plus the load balancer itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Server


@dataclass(frozen=True)
class AsPolicyConfig:
    vm_type: Server
    scale_out_threshold: float = 0.70
    cooldown: int = 1  # periods between scaling actions
    min_instances: int = 1
    max_instances: int = 64
    lb_cost: float | None = None  # per billing slot; defaults to one VM
    provisioning_delay: int = 1
    billing_granularity: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.scale_out_threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if self.min_instances > self.max_instances:
            raise ValueError("min_instances must not exceed max_instances")

    @property
    def balancer_cost(self) -> float:
        return self.vm_type.cost if self.lb_cost is None else self.lb_cost


@dataclass
class FleetState:
    config: AsPolicyConfig
    active: int
    pending: list[int] = field(default_factory=list)  # activation periods
    period: int = 0
    cooldown_until: int = 0
    backlog: float = 0.0
    cumulative_cost: float = 0.0
    billed_slot: int = 0  # the last billing slot charged; slots never decrease

    @property
    def capacity(self) -> float:
        return self.active * self.config.vm_type.bandwidth


def new_fleet(config: AsPolicyConfig) -> FleetState:
    return FleetState(config=config, active=config.min_instances)


@dataclass(frozen=True)
class StepResult:
    period: int
    offered: float
    attended: float
    backlogged: float
    active: int
    pending: int
    utilization: float
    cost_delta: float


def step(fleet: FleetState, demand: float) -> StepResult:
    """Advance one period with the given new demand (bytes)."""
    cfg = fleet.config
    fleet.period += 1
    t = fleet.period
    # Pending instances whose provisioning finished join the fleet.
    ready = [p for p in fleet.pending if p <= t]
    fleet.pending = [p for p in fleet.pending if p > t]
    fleet.active = min(fleet.active + len(ready), cfg.max_instances)

    offered = demand + fleet.backlog
    capacity = fleet.capacity
    attended = min(offered, capacity)
    fleet.backlog = offered - attended
    if capacity > 0:
        utilization = offered / capacity
    else:  # an empty fleet is overloaded by any load and idle without one
        utilization = float("inf") if offered > 0 else 0.0

    if t >= fleet.cooldown_until:
        if (
            utilization > cfg.scale_out_threshold
            and fleet.active + len(fleet.pending) < cfg.max_instances
        ):
            fleet.pending.append(t + cfg.provisioning_delay)
            fleet.cooldown_until = t + cfg.cooldown
        elif (
            utilization < cfg.scale_out_threshold / 2
            and fleet.active > cfg.min_instances
            and not fleet.pending
        ):
            fleet.active -= 1
            fleet.cooldown_until = t + cfg.cooldown

    slot = max(1, -(-(t) // cfg.billing_granularity))
    cost_delta = 0.0
    if slot != fleet.billed_slot:
        fleet.billed_slot = slot
        cost_delta += cfg.balancer_cost
        cost_delta += fleet.active * cfg.vm_type.cost
    else:
        # Instances that joined mid-slot are billed on arrival.
        cost_delta += len(ready) * cfg.vm_type.cost if ready else 0.0
    fleet.cumulative_cost += cost_delta
    return StepResult(
        period=t,
        offered=offered,
        attended=attended,
        backlogged=fleet.backlog,
        active=fleet.active,
        pending=len(fleet.pending),
        utilization=utilization,
        cost_delta=cost_delta,
    )
