"""dalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closure-q --seed 1 --seconds 36 --trace 0

Run from the repository root (dalg is imported from ./src).  The run
times SETUP_PROBES fresh-process set-ups, spread between the passes,
and runs passes over the workload's job list while the next pass is
expected to end within --seconds (at least one; a traced run at least
one of each kind).  Then it checks every output (structural invariants
plus the independent checks in checks.py) and prints a summary and one
JSON line with the metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced passes; the difference of their medians is trace.overhead_s.
The trace and a result record with the run environment go to
perfbench/results/.  Exit code 1 if any output check failed, 2 on a
usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB"))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _check_manifest(per_layer):
    """The metric names and units must match BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    want = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if want != set(END_TO_END):
        return f"end_to_end in {path.name} differs from {sorted(END_TO_END)}"
    want = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    have = {(n, u) for n, u, _ in per_layer}
    if want != have:
        return (f"per_layer in {path.name} differs: "
                f"{sorted(want ^ have)}")
    return None


def _setup_probe(workload, seed):
    """Wall time from process start until the child's jobs are ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {cmd}")
    return wall, json.loads(line)


def _run_pass(jobs, tracer, pass_no):
    """One pass over the job list; returns (wall time, [(job, out, err)])."""
    outs = []
    t0 = perf_counter()
    for job in jobs:
        sid = None
        if tracer is not None:
            tracer.job = f"{pass_no}:{job.name}"
            sid = tracer.begin(f"job.{job.name}")
        try:
            outs.append((job, job.run(), None))
        except Exception as e:  # every job failure is counted, not fatal
            outs.append((job, None, f"{type(e).__name__}: {e}"))
        finally:
            if sid is not None:
                tracer.end(sid)
    return perf_counter() - t0, outs


def _environment(jobs, n_passes):
    import sympy
    from dalg import linalg
    import workloads
    numpy = sys.modules.get("numpy")  # recorded only if dalg loaded it
    budget = getattr(linalg, "current_budget", None)
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__ if numpy else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "passes": n_passes,
        "setup_probes": SETUP_PROBES,
        "default_budget_cells": getattr(linalg, "DEFAULT_BUDGET", None),
        "budget_cells": budget() if budget else None,
        "largest_layer_rows_cols": {j.name: workloads.LAYERS[j.name]
                                    for j in jobs},
        "excluded_jobs": workloads.EXCLUDED,
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "dalg" / "__init__.py").is_file():
        print(f"run.py: dalg sources not found under {SRC}", file=sys.stderr)
        return 2
    # one thread per job: the mod-p engine would otherwise use BLAS threads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import layertrace as tr
    import workloads
    from setup_probe import prepare

    problem = _check_manifest(tr.PER_LAYER)
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    jobs, _ = prepare(args.workload, args.seed)
    # set-up probes are spread between the passes so that their median
    # samples the machine over the whole run, not one moment of it
    probes = []

    def probe():
        probes.append(_setup_probe(args.workload, args.seed))

    probe()
    tracer = tr.Tracer() if args.trace else None
    t_start = perf_counter()
    plain, traced, executions = [], [], []
    pass_no = 0
    while True:
        on = tracer is not None and pass_no % 2 == 1
        if on:
            tracer.start_pass()
        try:
            dt, outs = _run_pass(jobs, tracer if on else None, pass_no)
        finally:
            if on:
                tracer.finish_pass()
        (traced if on else plain).append(dt)
        executions.extend((pass_no, out) for out in outs)
        pass_no += 1
        if len(probes) < SETUP_PROBES:
            probe()
        # start another pass only if it should end within --seconds, so
        # a run lasts about --seconds even when one pass takes ~15 s
        if perf_counter() - t_start + dt > args.seconds and (
                tracer is None or traced):
            break
    while len(probes) < SETUP_PROBES:
        probe()
    setup_s = statistics.median(w for w, _ in probes)

    # output checks, outside the timed passes
    failures = {}
    first, verdict = {}, {}
    for p, (job, out, err) in executions:
        if err is not None:
            failures[(p, job.name)] = err
            continue
        text = workloads.digest(out)
        if job.name not in first:
            first[job.name] = text
            try:
                verdict[job.name] = job.check(out)
            except Exception as e:  # a malformed output fails its check
                verdict[job.name] = [f"check raised {type(e).__name__}: {e}"]
        elif text != first[job.name]:
            failures[(p, job.name)] = "output differs from the first pass"
            continue
        if verdict[job.name]:
            failures[(p, job.name)] = "; ".join(verdict[job.name])

    metrics = {}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_probes": [{"wall_s": w, **t} for w, t in probes],
              "pass_s": plain, "traced_pass_s": traced,
              "outputs": first}
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        per_pass = [tr.pass_metrics(tracer.pass_spans(i), counts)
                    for i, (_, _, counts) in enumerate(tracer.passes)]
        counts0 = tracer.passes[0][2]
        for i, (_, _, counts) in enumerate(tracer.passes[1:], start=1):
            if counts != counts0:
                failures[(2 * i + 1, "counters")] = (
                    "counters differ from the first traced pass")
        sizes = tr.largest_layers(tracer.pass_spans(0))
        for name, size in sizes.items():
            if tuple(size) != tuple(workloads.LAYERS[name]):
                failures[(1, name)] = (f"largest layer {size}, pinned "
                                       f"{workloads.LAYERS[name]}")
        units = {n: u for n, u, _ in tr.PER_LAYER}
        for name in units:
            vals = [pm.get(name, 0) for pm in per_pass]
            metrics[name] = (vals[0] if isinstance(vals[0], int)
                             else statistics.fmean(vals))
        metrics["import.s"] = statistics.median(t["import_s"] for _, t in probes)
        metrics["grammar.parse_s"] = statistics.median(
            t["parse_s"] for _, t in probes)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        record["counters"] = counts0
        record["largest_layers"] = sizes
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     t_start)

    attempted = len(executions)
    failed = len(failures)
    record["env"] = _environment(jobs, {
        "untraced": len(plain), "traced": len(traced)})
    record["failures"] = {f"pass {p} {n}": msg
                          for (p, n), msg in sorted(failures.items())}
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced / {len(traced)} traced")
    if tracer is None:
        print(f"setup_s      {setup_s:.4f} s   (median of {SETUP_PROBES} "
              f"fresh-process set-ups)")
        print(f"pass_s       {metrics['pass_s']:.4f} s   (median of "
              f"{len(plain)} passes over {len(jobs)} jobs)")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB")
    else:
        times = sorted(((v, n) for n, v in metrics.items()
                        if units[n] == "s" and not n.startswith("job.")),
                       reverse=True)
        for v, n in times[:8]:
            print(f"{n:28s} {v:.4f} s per traced pass")
    print(f"fail_ratio   {failed}/{attempted} failed/attempted")
    for key, msg in record["failures"].items():
        print(f"FAILED {key}: {msg}")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
