"""Shared instance builders for the optimization tests."""

import random

from flashcrowd.instances import spread_demand
from flashcrowd.model import Content, HIRABLE, OWNED, PlanningInstance, Request, Server


def tiny_instance_o1() -> PlanningInstance:
    """Two 2-period requests collide on a 1-slice owned server, so the
    optimum weighs hiring (copy cost + normalized fee) against backlog."""
    servers = [
        Server(0, OWNED, storage=100, bandwidth=10, cost=0.0),
        Server(1, HIRABLE, storage=100, bandwidth=10, cost=4.0),
    ]
    contents = [Content(0, size=20, start=1, origin=0, copy_cost=2.0)]
    requests = [
        Request(0, 0, attend_cost=1.0, demand={1: 10.0, 2: 10.0}, penalty=3.0),
        Request(1, 0, attend_cost=1.0, demand={1: 10.0, 2: 10.0}, penalty=3.0),
    ]
    return PlanningInstance(
        servers=servers,
        contents=contents,
        requests=requests,
        horizon=4,
        client_bandwidth=10,
        replication_delay=1,
        provisioning_delay=1,
        billing_granularity=2,
    )


def oversized_instance() -> PlanningInstance:
    """One request on two servers over 317 periods: |R||S||T|^2 = 200,978,
    just above the LP export cap."""
    servers = [
        Server(0, OWNED, storage=10, bandwidth=10),
        Server(1, HIRABLE, storage=10, bandwidth=10, cost=1.0),
    ]
    contents = [Content(0, size=10, start=1, origin=0, copy_cost=1.0)]
    requests = [Request(0, 0, attend_cost=1.0, demand={1: 10.0}, penalty=1.0)]
    return PlanningInstance(servers, contents, requests, horizon=317, client_bandwidth=10)


def infeasible_instance() -> PlanningInstance:
    """Each 6-byte demand slice is served whole, and the only server sends
    4 bytes per period, so no solution exists."""
    servers = [Server(0, OWNED, storage=100, bandwidth=4, cost=0.0)]
    contents = [Content(0, size=12, start=1, origin=0, copy_cost=1.0)]
    requests = [Request(0, 0, 1.0, {1: 6.0, 2: 6.0}, 1.0)]
    return PlanningInstance(servers, contents, requests, horizon=3, client_bandwidth=6)


def random_tiny_instance(rng: random.Random) -> PlanningInstance:
    """Tiny instance: <= 2 servers, 2 contents, 3 requests, 3 periods.

    Storage is kept generous so replica deletion is never profitable, and
    every cost coefficient is >= 1 so the financial term stays a tiebreaker.
    """
    horizon = 3
    bx = float(rng.choice([4, 6, 8]))
    n_contents = rng.randint(1, 2)
    contents = [
        Content(
            k,
            size=float(rng.choice([int(bx), int(bx * 2)])),
            start=1,
            origin=0,
            copy_cost=float(rng.randint(1, 3)),
        )
        for k in range(n_contents)
    ]
    total_size = sum(c.size for c in contents)
    servers = [Server(0, OWNED, storage=total_size + 1, bandwidth=float(rng.choice([8, 12, 16])))]
    if rng.random() < 0.85:
        servers.append(
            Server(
                1,
                HIRABLE,
                storage=total_size + 1,
                bandwidth=float(rng.choice([8, 16])),
                cost=float(rng.randint(1, 5)),
            )
        )
    n_requests = rng.randint(1, 3)
    requests = []
    for i in range(n_requests):
        content = contents[rng.randrange(n_contents)]
        duration = len(spread_demand(content.size, 1, bx))
        arrival = rng.randint(1, max(1, horizon - duration + 1 - 0))
        requests.append(
            Request(
                i,
                content.id,
                attend_cost=float(rng.randint(1, 3)),
                demand=spread_demand(content.size, arrival, bx),
                penalty=float(rng.randint(1, 4)),
            )
        )
    return PlanningInstance(
        servers=servers,
        contents=contents,
        requests=requests,
        horizon=horizon,
        client_bandwidth=bx,
        replication_delay=1,
        provisioning_delay=rng.randint(0, 1),
        billing_granularity=rng.choice([1, 2]),
    )


def random_midsize_instance(rng: random.Random) -> PlanningInstance:
    """Heuristic-scale instance within <= 10 servers, 20 contents,
    50 requests, 24 periods; always fully serviceable."""
    horizon = rng.randint(6, 24)
    bx = float(rng.choice([5, 10]))
    n_owned = rng.randint(1, 4)
    n_hirable = rng.randint(2, 6)
    n_contents = rng.randint(3, 20)
    n_requests = rng.randint(8, 50)
    contents = [
        Content(
            k,
            size=float(rng.choice([int(bx), int(bx * 2), int(bx * 3)])),
            start=1,
            origin=k % n_owned,
            copy_cost=float(rng.randint(1, 4)),
        )
        for k in range(n_contents)
    ]
    per_owned = [
        sum(c.size for c in contents if c.origin == j) for j in range(n_owned)
    ]
    max_size = max(c.size for c in contents)
    servers = [
        Server(
            j,
            OWNED,
            storage=per_owned[j] + max_size * rng.randint(1, 3),
            bandwidth=float(rng.choice([20, 40, 60])),
        )
        for j in range(n_owned)
    ]
    for j in range(n_owned, n_owned + n_hirable):
        servers.append(
            Server(
                j,
                HIRABLE,
                storage=max_size * rng.randint(1, 4),
                bandwidth=float(rng.choice([20, 40, 80])),
                cost=float(rng.randint(1, 8)),
            )
        )
    # One elastic server so construction always completes full service.
    servers.append(
        Server(
            n_owned + n_hirable,
            HIRABLE,
            storage=sum(c.size for c in contents) + max_size,
            bandwidth=bx * n_requests + 1,
            cost=float(rng.randint(8, 12)),
        )
    )
    requests = []
    for i in range(n_requests):
        content = contents[rng.randrange(n_contents)]
        duration = len(spread_demand(content.size, 1, bx))
        arrival = rng.randint(1, max(1, horizon - duration + 1))
        requests.append(
            Request(
                i,
                content.id,
                attend_cost=float(rng.randint(1, 3)),
                demand=spread_demand(content.size, arrival, bx),
                penalty=float(rng.randint(1, 4)),
            )
        )
    return PlanningInstance(
        servers=servers,
        contents=contents,
        requests=requests,
        horizon=horizon,
        client_bandwidth=bx,
        replication_delay=1,
        provisioning_delay=rng.randint(0, 2),
        billing_granularity=rng.choice([1, 2, 4]),
    )
