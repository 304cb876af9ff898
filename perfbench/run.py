"""Benchmark of the redispatch package: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder-4200 --seed 1 --seconds 36 --trace 0

The benchmark builds its inputs from --seed, then runs passes of the
workload back to back in this one process (a closed loop: each pass starts
when the previous one has finished) until the next pass would overrun
--seconds, and always at least one.  Every pass does the same fixed work, so
wall_s is the median pass time and the quality figures must repeat exactly
from pass to pass.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (at least one of each) and prints the per-layer metrics of the
traced passes; see NOTES.md.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS: the machine has 2 cores and the program does no
# parallel work, so extra BLAS threads would only add contention noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Runs in a fresh interpreter: what every CLI invocation pays before work.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import redispatch
redispatch.load_network(sys.argv[2])
print(time.perf_counter() - start)
"""

# Quality figures printed beside the end-to-end metrics where they apply;
# they are deterministic, and soft_obj and feasible_frac carry them in the
# result line.
EXTRA_UNITS = {
    "failed_frac": "ratio", "soft_obj_alpha": "score",
    "soft_obj_random": "score", "soft_obj_score": "score",
    "soft_obj_tabu": "score", "overloads_normalized": "lines/t",
    "overloads_baseline": "lines/t",
}


def import_package():
    """Import redispatch from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import redispatch
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import redispatch from {SRC}: {exc}")
    origin = Path(redispatch.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: redispatch came from {origin}, not {SRC}")


def measure_setup(net_dir: Path) -> float:
    """Median of fresh-interpreter `import redispatch` + load_network times."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(net_dir)],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(workload, inputs, work: Path, seconds: float, traced_too: bool):
    """Closed loop of passes; returns [(traced, wall_s, PassResult, metrics)]."""
    from spans import NullTracer, Tracer
    from workloads import PassResult

    passes = []
    started = time.perf_counter()
    while True:
        traced = traced_too and len(passes) % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        out_dir = work / f"pass-{len(passes)}"
        out_dir.mkdir()
        t0 = time.perf_counter()
        try:
            with tracer.installed():
                with tracer.span("pass", "bench"):
                    out = workload.run(inputs, out_dir, tracer)
                wall = time.perf_counter() - t0
            result = workload.check(inputs, out_dir, out)
        except Exception:  # the program failed: report it, do not crash
            traceback.print_exc()
            crashed = PassResult({}, 1, 1, ["the pass raised (see stderr)"])
            passes.append((traced, time.perf_counter() - t0, crashed, None))
            return passes
        del out
        shutil.rmtree(out_dir)
        metrics = tracer.metrics() if traced else None
        passes.append((traced, wall, result, metrics))
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              f"{wall:.3f} s, {result.attempted} operations, "
              f"{result.failed} failed", flush=True)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p[1] for p in passes)
        need_traced = traced_too and not any(p[0] for p in passes)
        if not need_traced and elapsed + typical > seconds:
            return passes


def tally(passes) -> tuple[int, int, list[str]]:
    """Operations over all passes; a pass whose quality differs fails once."""
    attempted = sum(p[2].attempted for p in passes)
    failed = sum(p[2].failed for p in passes)
    problems = [msg for p in passes for msg in p[2].problems]
    first = passes[0][2].quality
    for index, (traced, _, result, _) in enumerate(passes[1:], start=2):
        if result.quality != first:
            failed += 1
            problems.append(f"pass {index}{' (traced)' if traced else ''} "
                            f"quality {result.quality} != pass 1 {first}")
    return attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    from spans import self_time_by_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = workload.prepare(args.seed, work)
        print(f"{args.workload}: seed {args.seed}, network seed "
              f"{inputs.network_seed}, study seeds {list(inputs.study_seeds)}",
              flush=True)
        print(f"machine: nproc {os.cpu_count()}, Python "
              f"{platform.python_version()}, numpy {np.__version__}, "
              f"BLAS threads {THREAD_ENV['OPENBLAS_NUM_THREADS']}", flush=True)
        setup_s = measure_setup(inputs.net_dir) if not args.trace else None
        passes = run_passes(workload, inputs, work, args.seconds,
                            traced_too=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    attempted, failed, problems = tally(passes)
    for msg in problems:
        print(f"CHECK FAILED {msg}", flush=True)
    if any(not p[2].quality for p in passes):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0
    plain = [p[1] for p in passes if not p[0]]
    if args.trace:
        traced = [p for p in passes if p[0]]
        shown = {name: statistics.median(p[3][name] for p in traced)
                 for name in traced[0][3]}
        shown["trace.overhead_s"] = (statistics.median(p[1] for p in traced)
                                     - statistics.median(plain))
        print("self time by layer: " + ", ".join(
            f"{layer} {sec:.3f} s" for layer, sec in self_time_by_layer(shown)))
        shown.update(passes[0][2].quality)
        listed = spec["per_layer"]
    else:
        shown = {
            "wall_s": statistics.median(plain),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **passes[0][2].quality,
            "failed_frac": failed / attempted,
        }
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    for name, value in shown.items():
        print(f"{name} {value:.10g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
