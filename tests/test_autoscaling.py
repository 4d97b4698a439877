"""The threshold-autoscaling baseline, driven through ``run_baseline``.

Each replay reads a one-content CSV trace whose content is 1 byte and whose
client bandwidth is 1 byte per period, so the fleet is offered exactly
``demand[t - 1]`` new bytes in period t. The fleet's type has bandwidth 10
and costs 2 per billing slot.
"""

import math
import textwrap

import pytest

from flashcrowd.sim import read_scenario, run_baseline
from flashcrowd.trace import BinnedTrace, write_csv_trace

BANDWIDTH, PRICE, THRESHOLD = 10.0, 2.0, 0.7


def replay(tmp_path, demand, billing_granularity=1, provisioning_delay=1, **autoscaling):
    csv_path = tmp_path / "trace.csv"
    bins = [{0: count} for count in demand]
    write_csv_trace(BinnedTrace(bin_width=1.0, bins=bins, catalog={0}), str(csv_path))
    settings = {"threshold": THRESHOLD, "cooldown": 1, "min": 2, "max": 10, **autoscaling}
    ini = tmp_path / "scenario.ini"
    ini.write_text(textwrap.dedent(f"""\
        [scenario]
        seed = 0

        [trace]
        file = {csv_path}

        [demand]
        default_size = 1
        client_bandwidth = 1

        [servers]
        owned = vm:1
        types = vm:storage=100,bandwidth={BANDWIDTH},cost={PRICE}
        billing_granularity = {billing_granularity}
        provisioning_delay = {provisioning_delay}

        [autoscaling]
        vm_type = vm
        """) + "".join(f"{key} = {value}\n" for key, value in settings.items()))
    return run_baseline(read_scenario(str(ini)))


def test_zero_demand_shrinks_to_min_and_bills_floor(tmp_path):
    report = replay(tmp_path, [100] * 6 + [0] * 30, max=5)
    assert max(r.hired_active for r in report.rows) == 5
    assert report.rows[-1].hired_active == 2
    # Steady-state per-period cost: min fleet + load balancer at one VM's price.
    assert report.rows[-1].cost_delta == pytest.approx(2 * PRICE + PRICE)


def test_empty_fleet_with_no_demand_stays_empty(tmp_path):
    # An empty fleet offered nothing is idle, not overloaded.
    report = replay(tmp_path, [0] * 8, min=0, cooldown=3, lb_cost=0.0)
    assert all(r.hired_pending == 0 and r.hired_active == 0 for r in report.rows)
    assert report.total_cost == 0.0


def test_empty_fleet_under_load_scales_out(tmp_path):
    # Any load overloads an empty fleet; the one instance idles out again.
    report = replay(tmp_path, [0, 5, 0, 0], min=0, lb_cost=0.0)
    fleet = [(r.hired_active, r.hired_pending) for r in report.rows]
    assert fleet == [(0, 0), (0, 1), (1, 0), (0, 0)]


def test_exactly_at_threshold_no_scale_out(tmp_path):
    report = replay(tmp_path, [14, 0])  # 14 / (2 * 10) is the threshold itself
    first = report.rows[0]
    assert first.hired_pending == 0 and first.hired_active == 2


def test_exactly_at_half_threshold_no_scale_in(tmp_path):
    # 7 / (2 * 10) is half the threshold: the fleet keeps its size; 6 is below.
    report = replay(tmp_path, [8, 7, 6], min=1)
    assert [(r.hired_active, r.hired_pending) for r in report.rows] == [(1, 1), (2, 0), (1, 0)]


def test_no_scale_in_while_provisioning(tmp_path):
    # Idle from period 3 on, but the fleet shrinks only once nothing is pending.
    report = replay(tmp_path, [30, 0, 0, 0, 0, 0], min=1, max=3, provisioning_delay=3)
    fleet = [(r.hired_active, r.hired_pending) for r in report.rows]
    assert fleet == [(1, 1), (1, 2), (1, 2), (2, 1), (2, 0), (1, 0)]


def test_above_threshold_scales_out_after_delay(tmp_path):
    # Mid-band demand: no further scaling while provisioning runs.
    report = replay(tmp_path, [15, 12, 12], provisioning_delay=2)
    assert [(r.hired_active, r.hired_pending) for r in report.rows] == [(2, 1), (2, 1), (3, 0)]


def test_cooldown_spaces_scaling_actions(tmp_path):
    report = replay(tmp_path, [40, 40, 60, 60], cooldown=3, provisioning_delay=0)
    fleet = [(r.hired_active, r.hired_pending) for r in report.rows]
    # The first instance joins in period 2; cooldown blocks more until period 4.
    assert fleet == [(2, 1), (3, 0), (3, 0), (3, 1)]


def test_peak_fleet_matches_capacity_arithmetic(tmp_path):
    # A ramp the fleet can track (no backlog ever builds up): the peak size
    # is exactly peak_demand / (threshold * per-vm bandwidth).
    peak = 100
    profile = [peak * (i + 1) // 30 for i in range(30)] + [peak] * 20
    report = replay(tmp_path, profile + [0] * 60, max=20, provisioning_delay=1)
    tracked = report.rows[: len(profile)]
    assert all(r.backlog == 0.0 for r in tracked)
    expected_peak = math.ceil(peak / (THRESHOLD * BANDWIDTH))
    assert max(r.hired_active for r in tracked) == tracked[-1].hired_active == expected_peak
    assert report.peak_fleet == expected_peak
    assert report.rows[-1].hired_active == 2


def test_conservation_every_period(tmp_path):
    demand = [0, 5, 50, 80, 10, 0, 0, 120, 0, 0]
    report = replay(tmp_path, demand)
    carried = 0.0
    for row, due in zip(report.rows, demand):
        assert row.offered == due
        assert row.attended + row.backlog == pytest.approx(due + carried)
        carried = row.backlog
    assert report.unserved_bytes == carried
    assert report.total_offered == pytest.approx(report.total_attended + carried)


def test_homogeneity_and_bounds(tmp_path):
    report = replay(tmp_path, [500] * 12, max=4)
    assert all(2 <= r.hired_active <= 4 and r.owned == 0 for r in report.rows)
    assert max(r.hired_active for r in report.rows) == 4


def test_billing_monotone(tmp_path):
    report = replay(tmp_path, [0, 40, 80, 0, 0, 30, 0, 0], billing_granularity=3)
    last = 0.0
    for row in report.rows:
        assert row.cost_delta >= 0.0 and row.cost_total >= last
        last = row.cost_total
    # Slots start in periods 1, 4 and 7 and bill the balancer and the fleet;
    # an instance that joins mid-slot is billed on arrival.
    deltas = [r.cost_delta for r in report.rows]
    assert deltas[0] == PRICE + 2 * PRICE
    assert deltas[2] == PRICE  # scaled out in period 2, joined in period 3
