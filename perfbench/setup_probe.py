"""Set-up of one benchmark process: import dalg, make the seeded inputs,
parse them into jobs.

run.py calls prepare() for its own jobs and also starts this file as a
fresh process several times to time set-up from process start; the
child prints its phase times as one JSON line once its jobs are ready.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def prepare(workload, seed):
    """Returns (jobs, phase times in seconds)."""
    t0 = perf_counter()
    import dalg  # noqa: F401  (sympy and numpy load here)
    t1 = perf_counter()
    import workloads
    inputs = workloads.make_inputs(workload, seed)
    t2 = perf_counter()
    jobs = workloads.build_jobs(workload, inputs)
    t3 = perf_counter()
    return jobs, {"import_s": t1 - t0, "inputs_s": t2 - t1, "parse_s": t3 - t2}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    _, times = prepare(args.workload, args.seed)
    print(json.dumps(times), flush=True)


if __name__ == "__main__":
    main()
