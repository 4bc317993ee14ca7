"""Benchmark of polaronlab's certified runs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

One workload runs in this process: set-up (timed from the process's start),
then rounds of the workload's certified computation until S seconds have
passed, each round checked against its tolerances.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones (setup_s,
and the median solve_s and cpu_s of a round, and peak_rss_mb); with
--trace 1 the first half of the time runs untraced and the second half
traced, and the metrics are the per-layer ones plus the tracing overhead.
Trace spans go to perfbench/out/.

With --workload all (the default) every workload runs in a fresh process of
its own, one after another, and a table of all their metrics is printed.
"""

import time

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
_T0 = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started (since the first statement of
    this script where /proc is not available)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def import_benchmark():
    """Import the program from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import polaronlab
        from perfbench import checks, trace, workloads
    except ImportError as exc:
        sys.exit(f"cannot import the program from {src}: {exc}")
    if Path(polaronlab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"polaronlab was imported from {polaronlab.__file__}, "
                 f"not from {src}")
    return checks, trace, workloads


def run_rounds(wl, seconds: float, tally: dict, check_failure,
               tracer=None) -> list:
    """Repeat the workload's solve until `seconds` have passed; returns the
    (wall, cpu) time of each round that did not raise."""
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.round += 1
            tracer.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = wl.solve()
        except Exception:
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.active = False
        tally["attempted"] += 1
        if out is None:
            tally["failed"] += 1
        else:
            times.append((t1 - t0, c1 - c0))
            try:
                wl.check(out)
            except check_failure as exc:
                print(f"{wl.name}: check failed: {exc}", file=sys.stderr)
                tally["correct"] = False
        # a round's outputs must not outlive it: kept through the next
        # solve, they raise the peak memory by an amount that varies
        out = None
        if time.perf_counter() >= deadline:
            return times


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    checks, trace, workloads = import_benchmark()
    if name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[name]()
    tracer = trace.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    wl.setup(seed)
    setup_s = process_age()
    if tracer is not None:
        tracer.uninstall()
        tracer.active = False

    tally = {"correct": True, "attempted": 0, "failed": 0}
    fail = checks.CheckFailure
    if tracer is None:
        times = run_rounds(wl, seconds, tally, fail)
    else:
        plain = run_rounds(wl, seconds / 2, tally, fail)
        tracer.install()
        try:
            times = run_rounds(wl, seconds / 2, tally, fail, tracer)
        finally:
            tracer.uninstall()
    if not times or (tracer is not None and not plain):
        print(f"{name}: every round raised; no result", file=sys.stderr)
        return 1

    walls = [w for w, _ in times]
    if tracer is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in times),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        overhead = statistics.median(walls) - statistics.median(
            w for w, _ in plain)
        metrics = tracer.metrics(overhead)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed})
        if tracer.missing:
            print(f"{name}: missing trace targets (metrics read 0): "
                  f"{', '.join(tracer.missing)}", file=sys.stderr)
    print(f"{name}: seed {seed}, {tally['attempted']} rounds, "
          f"{tally['failed']} failed, checks "
          f"{'passed' if tally['correct'] else 'FAILED'}; round wall "
          f"{' '.join(f'{w:.3f}' for w in walls)} s")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(dict(tally, metrics=metrics)))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process, one after another."""
    _, _, workloads = import_benchmark()
    tally = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        tally["correct"] &= result["correct"]
        tally["attempted"] += result["attempted"]
        tally["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = m
    print(json.dumps(dict(tally, metrics=metrics)))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
