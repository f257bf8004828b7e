"""Run every workload once and print the end-to-end metrics by name.

    python3 perfbench/all.py [--seed 1] [--seconds 36]

Each workload runs as its own run.py process (trace off).  Prints
setup_s, pass_s, peak_rss_mb and fail_ratio with their units, one row
per workload; exits 1 if any workload failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    args = ap.parse_args()
    print(f"{'workload':14s} {'setup_s':>10s} {'pass_s':>10s} "
          f"{'peak_rss_mb':>12s} {'fail_ratio':>12s}")
    print(f"{'':14s} {'s':>10s} {'s':>10s} {'MiB':>12s} "
          f"{'failed/att.':>12s}")
    bad = False
    for wl in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{wl:14s} run failed (exit {proc.returncode}): "
                  f"{proc.stderr.strip()[-300:]}")
            bad = True
            continue
        res = json.loads(lines[-1])
        m = res["metrics"]
        ratio = res["failed"] / res["attempted"]
        bad |= not res["correct"]
        print(f"{wl:14s} {m['setup_s']['value']:10.4f} "
              f"{m['pass_s']['value']:10.4f} {m['peak_rss_mb']['value']:12.1f} "
              f"{ratio:12.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
