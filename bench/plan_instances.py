"""Planning instances for the plan-midsize workload.

The recipe draws the same random sequence as ``random_midsize_instance``
in the test helpers, so instance seed ``s`` gives the same instance here and
there. It lives in the benchmark so that an edit to the tests cannot change
the workload. It returns the constructor arguments, so that the benchmark
can time ``PlanningInstance`` construction as program set-up apart from its
own input generation.
"""

from __future__ import annotations

import random

from flashcrowd.instances import spread_demand
from flashcrowd.model import Content, HIRABLE, OWNED, Request, Server

# Instances of the workload, and the seeds whose HiGHS optimum is stored in
# data/plan_optima.json. The set is fixed and the workload seed drives the
# search instead: solve times over these seeds range from 0.03 s to 1.7 s,
# so drawing fresh instances per seed would move a pass's wall time by more
# than any usable bound.
INSTANCE_SEEDS = tuple(range(10))


def midsize_args(seed: int) -> dict:
    """Constructor arguments of a heuristic-scale instance: <= 10 servers,
    20 contents, 50 requests, 24 periods; always fully serviceable."""
    rng = random.Random(seed)
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
    per_owned = [sum(c.size for c in contents if c.origin == j) for j in range(n_owned)]
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
    return dict(
        servers=servers,
        contents=contents,
        requests=requests,
        horizon=horizon,
        client_bandwidth=bx,
        replication_delay=1,
        provisioning_delay=rng.randint(0, 2),
        billing_granularity=rng.choice([1, 2, 4]),
    )
