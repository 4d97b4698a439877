"""Compute the stored HiGHS optima of the plan-midsize instances.

Offline only; no benchmark run calls it. Run from the repository root:

    python3 bench/make_optima.py

It exports each instance in corrected mode, solves it with HiGHS under a
time limit, and writes ``bench/data/plan_optima.json``. An instance whose
solve hits the limit is stored with an unknown (null) optimum.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from flashcrowd.lpio import export_lp, solve_lp_text  # noqa: E402
from flashcrowd.model import PlanningInstance  # noqa: E402

from plan_instances import INSTANCE_SEEDS, midsize_args  # noqa: E402

TIME_LIMIT_S = 30.0


def main() -> int:
    out = {"mode": "corrected", "time_limit_s": TIME_LIMIT_S, "optima": {}}
    for seed in INSTANCE_SEEDS:
        inst = PlanningInstance(**midsize_args(seed))
        started = time.perf_counter()
        try:
            optimum, _values = solve_lp_text(
                export_lp(inst, "corrected"), time_limit=TIME_LIMIT_S
            )
        except RuntimeError as exc:  # time limit reached without a proven optimum
            print(f"seed {seed}: unknown ({exc})", flush=True)
            optimum = None
        elapsed = time.perf_counter() - started
        print(f"seed {seed}: optimum {optimum} in {elapsed:.1f} s", flush=True)
        out["optima"][str(seed)] = optimum
    path = HERE / "data" / "plan_optima.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
