"""Demand schedule of a planning request: its bytes spread over periods."""

from __future__ import annotations


def spread_demand(total: float, arrival: int, client_bandwidth: float) -> dict[int, float]:
    """Demand schedule min(BX, remaining) per period from the arrival on."""
    out: dict[int, float] = {}
    remaining = total
    t = arrival
    while remaining > 1e-12:
        amount = min(client_bandwidth, remaining)
        out[t] = amount
        remaining -= amount
        t += 1
    return out
