"""pptlab benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload analyze-zoo --seed 1 --seconds 5 --trace 0

Run it from the root of a pptlab source tree; it imports the package from
`src/` and refuses to run without it.  Each workload is a closed loop with
one client in one process: an operation calls pptlab on one state and checks
the answer before the next starts.  The loop runs whole passes over the
workload's fixed state list until at least `--seconds` have passed, so a
workload whose single pass is longer than that runs exactly one pass.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json;
`--trace 1` runs the same loop with layer spans (see spans.py) and prints
the per-layer metrics.  The last line of standard output is the result
object; the lines before it are the run record (machine, versions, per-state
times, the median and tail operation time, failures).  State files, reports,
traced spans and a log of results go to perfbench/out/.

The median and tail operation times stay in the run record and are not
end-to-end metrics: on the one-pass workloads each is the time of one or two
single operations, which vary by 10-25% from run to run on a shared host,
while `ops_per_s` sums the whole pass.

BLAS and OpenMP threads are pinned to one for this process only; CPU
frequency and other load on the machine are not controlled.
"""

from __future__ import annotations

import os

PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)   # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_BUILDS = 3


def _since_process_start() -> float:
    """Seconds since the kernel started this process (before the interpreter
    itself), from the start time in /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _import_pptlab():
    """Import pptlab from this tree's src/, or exit without a result."""
    if not (SRC / "pptlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pptlab'} not found; run from a pptlab source tree")
    sys.path.insert(0, str(SRC))
    import pptlab
    if Path(pptlab.__file__).resolve().parent != SRC / "pptlab":
        sys.exit(f"error: imported pptlab from {pptlab.__file__}, not from {SRC}")
    return pptlab


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _quantile_tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are ten samples or fewer: (value, label)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def _run_loop(ops, seconds, tracer=None):
    """Whole passes until `seconds` have passed; (samples, wall seconds)."""
    samples = []
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = len(samples)
            t0 = time.perf_counter()
            try:
                problems = op.run()
            except Exception:   # counted as a failed operation; the run goes on
                problems = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
            samples.append((op.label, time.perf_counter() - t0, problems))
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op = None
    return samples, time.perf_counter() - start


def _run_record(args, workload, why, samples) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    per_state: dict = {}
    for label, dt, _ in samples:
        per_state.setdefault(label, []).append(dt)
    failures = [{"op": label, "problems": problems}
                for label, _, problems in samples if problems]
    times = [dt for _, dt, _ in samples]
    tail, tail_label = _quantile_tail(times)
    return {
        "workload": workload.name, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_threads": PINNED_THREADS,
        "src_pptlab_lines": sum(len(p.read_text().splitlines())
                                for p in sorted((SRC / "pptlab").glob("*.py"))),
        "note": "CPU frequency and other load on the machine are not controlled",
        "op_samples": len(samples),
        "op_s": {"p50": statistics.median(times), "tail": tail, "tail_is": tail_label,
                 "unit": "s"},
        "op_s_median_by_state": {k: statistics.median(v) for k, v in per_state.items()},
        "verdict_fail_frac": sum(1 for s in samples if s[2]) / len(samples),
        "failures": failures,
        "known_defects": workload.known_defects,
    }


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _untraced_baseline(workload: str, seed: int, code: str) -> dict:
    """Median ops_per_s of earlier untraced runs of this workload on this
    version of the code in this tree: those of the same seed when there are
    any, else those of other seeds."""
    log = OUT / "results.jsonl"
    rows = [r for r in map(json.loads, log.read_text().splitlines())
            if r["workload"] == workload and r["trace"] == 0 and r.get("code") == code] \
        if log.exists() else []
    same = [r for r in rows if r["seed"] == seed]
    rows, basis = (same, "same seed") if same else (rows, "other seeds")
    return {"untraced_ops_per_s": (statistics.median(r["metrics"]["ops_per_s"]["value"]
                                                     for r in rows) if rows else None),
            "untraced_runs": len(rows),
            "untraced_seeds": sorted({r["seed"] for r in rows}),
            "source": f"earlier --trace 0 runs of this workload and code in this tree, {basis}"}


def main(argv=None) -> int:
    args = _parse_args(argv)
    pptlab = _import_pptlab()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    declared = _declared()
    why = {w["name"]: w["why"] for w in declared["workloads"]}.get(workload.name)
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(pptlab)
    try:
        # set-up: interpreter start and imports happen once per process; the
        # build that follows is repeated (untraced) and its median counted
        imported_s = _since_process_start()
        build_times = []
        for _ in range(1 if args.trace else SETUP_BUILDS):
            t0 = time.perf_counter()
            ops = workload.build(args.seed, OUT.relative_to(ROOT) / args.workload)
            build_times.append(time.perf_counter() - t0)
        samples, wall = _run_loop(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    times = [dt for _, dt, _ in samples]
    failed = [label for label, _, problems in samples if problems]
    code = workloads.SOURCE_DIGEST
    record = _run_record(args, workload, why, samples)
    record["src_pptlab_digest"] = code
    if args.trace:
        values = tracer.metrics(times)
        values["trace.ops_per_s"] = len(samples) / wall
        record["tracing_overhead"] = dict(traced_ops_per_s=values["trace.ops_per_s"],
                                          **_untraced_baseline(workload.name, args.seed, code))
        with open(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl", "w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {
            "setup_s": imported_s + statistics.median(build_times),
            "ops_per_s": len(samples) / wall,
            "verdict_pass_frac": 1.0 - len(failed) / len(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s_parts"] = {"process_start_to_imported_s": imported_s,
                                   "build_s": build_times}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    # a counter that never fired in this workload reads 0
    values = {name: values.get(name, 0.0) if args.trace else values[name] for name in units}
    result = {
        "correct": all(label in workload.known_defects for label in failed),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(dict(result, workload=workload.name, seed=args.seed,
                                 trace=args.trace, code=code)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
