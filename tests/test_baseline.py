import math

import pytest

from flashcrowd.baseline import AsPolicyConfig, FleetState, new_fleet, step
from flashcrowd.model import HIRABLE, Server


def vm(bandwidth=10.0, cost=2.0):
    return Server(99, HIRABLE, storage=100, bandwidth=bandwidth, cost=cost)


def config(**kw):
    defaults = dict(vm_type=vm(), cooldown=1, min_instances=2, max_instances=10)
    defaults.update(kw)
    return AsPolicyConfig(**defaults)


class TestScaling:
    def test_zero_demand_shrinks_to_min_and_bills_floor(self):
        cfg = config(min_instances=2, billing_granularity=1)
        fleet = new_fleet(cfg)
        fleet.active = 5
        results = [step(fleet, 0.0) for _ in range(10)]
        assert results[-1].active == cfg.min_instances
        # Steady-state per-period cost: min fleet + load balancer.
        assert results[-1].cost_delta == pytest.approx(
            cfg.min_instances * cfg.vm_type.cost + cfg.balancer_cost
        )

    def test_empty_fleet_with_no_demand_stays_empty(self):
        # An empty fleet offered nothing is idle, not overloaded.
        fleet = new_fleet(config(min_instances=0, cooldown=3, lb_cost=0.0))
        results = [step(fleet, 0.0) for _ in range(8)]
        assert all(r.pending == 0 and r.active == 0 for r in results)
        assert fleet.cumulative_cost == 0.0

    def test_exactly_at_threshold_no_scale_out(self):
        cfg = config()
        fleet = new_fleet(cfg)
        capacity = fleet.capacity
        res = step(fleet, cfg.scale_out_threshold * capacity)
        assert res.pending == 0 and res.active == cfg.min_instances

    def test_above_threshold_scales_out_after_delay(self):
        cfg = config(provisioning_delay=2)
        fleet = new_fleet(cfg)
        step(fleet, 0.75 * fleet.capacity)
        assert fleet.pending == [3]
        # Mid-band demand: no further scaling while provisioning runs.
        step(fleet, 12.0)
        assert fleet.active == 2
        res = step(fleet, 12.0)
        assert res.active == 3

    def test_cooldown_spaces_scaling_actions(self):
        cfg = config(cooldown=3, provisioning_delay=0)
        fleet = new_fleet(cfg)
        step(fleet, fleet.capacity * 2)
        first_pending = list(fleet.pending)
        step(fleet, fleet.capacity * 2)
        assert fleet.pending == [] and fleet.active == 3  # joined, cooldown blocks more
        step(fleet, fleet.capacity * 2)
        step(fleet, fleet.capacity * 2)
        assert fleet.active + len(fleet.pending) == 4

    def test_peak_fleet_matches_capacity_arithmetic(self):
        # A ramp the fleet can track (no backlog ever builds up): the peak
        # size is exactly peak_demand / (threshold * per-vm bandwidth).
        cfg = config(max_instances=20, provisioning_delay=1)
        fleet = new_fleet(cfg)
        peak = 100.0
        profile = [peak * (i + 1) / 30 for i in range(30)] + [peak] * 20
        max_active = 0
        for demand in profile:
            res = step(fleet, demand)
            assert res.backlogged == 0.0
            max_active = max(max_active, res.active)
        expected_peak = math.ceil(peak / (cfg.scale_out_threshold * cfg.vm_type.bandwidth))
        assert max_active == fleet.active == expected_peak
        for _ in range(60):
            step(fleet, 0.0)
        assert fleet.active == cfg.min_instances

    def test_conservation_every_period(self):
        cfg = config()
        fleet = new_fleet(cfg)
        carried = 0.0
        for k, demand in enumerate([0, 5, 50, 80, 10, 0, 0, 120, 0, 0]):
            res = step(fleet, float(demand))
            assert res.offered == pytest.approx(demand + carried)
            assert res.attended + res.backlogged == pytest.approx(res.offered)
            carried = res.backlogged

    def test_homogeneity_and_bounds(self):
        cfg = config(max_instances=4)
        fleet = new_fleet(cfg)
        for demand in [500.0] * 12:
            step(fleet, demand)
            assert cfg.min_instances <= fleet.active <= cfg.max_instances

    def test_billing_monotone(self):
        cfg = config(billing_granularity=3)
        fleet = new_fleet(cfg)
        last = 0.0
        for demand in [0, 40, 80, 0, 0, 30, 0, 0]:
            step(fleet, float(demand))
            assert fleet.cumulative_cost >= last
            last = fleet.cumulative_cost


def test_threshold_validation():
    with pytest.raises(ValueError):
        AsPolicyConfig(vm_type=vm(), scale_out_threshold=1.5)
    with pytest.raises(ValueError):
        AsPolicyConfig(vm_type=vm(), min_instances=5, max_instances=2)
