"""Counter determinism and seed checks over traced runs.

    python3 perfbench/check_counters.py [--seed 1] [--other-seed 2] [workload ...]

For each workload it makes three traced runs of one traced pass each:
seed A under PYTHONHASHSEED=0, seed A under PYTHONHASHSEED=1, and seed
B under PYTHONHASHSEED=0.  The two seed-A runs must give identical
counters and identical outputs.  The seed-B run must pass its own
checks (which pin every job's class, hit layer and largest layer) and
give the same structural counters (layer rows and columns, calls) as
seed A: a seed changes coefficients, not the work's shape.
Exit code 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from layertrace import STRUCTURAL
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_run(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} hash seed {hash_seed}: "
                         f"exit {proc.returncode}\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    path = HERE / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        a0 = traced_run(wl, args.seed, 0)
        a1 = traced_run(wl, args.seed, 1)
        b0 = traced_run(wl, args.other_seed, 0)
        same_counts = a0["counters"] == a1["counters"]
        same_outputs = a0["outputs"] == a1["outputs"]
        shape_a = {k: a0["counters"].get(k, 0) for k in STRUCTURAL}
        shape_b = {k: b0["counters"].get(k, 0) for k in STRUCTURAL}
        same_shape = (shape_a == shape_b
                      and a0["largest_layers"] == b0["largest_layers"])
        print(f"{wl}: counters equal across hash seeds: {same_counts}; "
              f"outputs equal: {same_outputs}; seed {args.other_seed} keeps "
              f"the structural counters of seed {args.seed}: {same_shape}")
        if not same_counts:
            diff = {k for k in a0["counters"].keys() | a1["counters"].keys()
                    if a0["counters"].get(k) != a1["counters"].get(k)}
            print(f"  differing counters: {sorted(diff)}")
        if not same_shape:
            print(f"  seed {args.seed}: {shape_a} {a0['largest_layers']}\n"
                  f"  seed {args.other_seed}: {shape_b} "
                  f"{b0['largest_layers']}")
        ok &= same_counts and same_outputs and same_shape
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
