"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with --seconds 1 (one
pass, or one untraced and one traced pass), and checks that the result line
names exactly the metrics BENCHMARK.json lists, each with its unit and a
finite value, that no check failed, and that the quality figures each
workload owns are printed by name with their unit.  Then checks that in a
directory holding only BENCHMARK.json and perfbench/ the benchmark exits
non-zero without printing a result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import EXTRA_UNITS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

# Quality figures each workload prints beside its end-to-end metrics.
OWN_LINES = {
    "desk-decomp-L": ("soft_obj_alpha", "soft_obj_random", "soft_obj_score"),
    "ladder-4200": ("soft_obj_alpha", "soft_obj_tabu"),
    "desk-pnorm-S": ("overloads_normalized", "overloads_baseline"),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result['attempted']!r}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry["value"]
        if entry["unit"] != want.get(name):
            errors.append(f"{where}: {name} unit {entry['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif not trace and value == 0:
            errors.append(f"{where}: end-to-end metric {name} is 0")
    if not trace:
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                   if len(line.split()) == 3}
        for name in OWN_LINES[workload] + ("failed_frac",):
            if printed.get(name) != EXTRA_UNITS[name]:
                errors.append(f"{where}: no line '{name} <value> "
                              f"{EXTRA_UNITS[name]}'")
    return errors


def check_bare_directory(spec: dict) -> list[str]:
    bare = WORK / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # missing, or a benchmark run still uses it
            pass
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    errors += check_bare_directory(spec)
    for err in errors:
        print(f"FAIL {err}")
    print("smoke test passed" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
