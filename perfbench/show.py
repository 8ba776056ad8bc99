#!/usr/bin/env python3
"""Print every benchmark metric with its unit, for every workload.

    python3 perfbench/show.py

Runs ``run.py`` with seed 0 and ``BENCHMARK.json``'s ``run_seconds`` at
the default scale, once untraced (end-to-end metrics) and once traced
(per-layer metrics) per workload, from the checkout root, and prints one
table per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, seconds: float, trace: int,
           scale=None) -> dict:
    """One benchmark run; returns its result line, parsed."""
    cmd = benchmark_spec()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = benchmark_spec()
    seed, seconds = 0, spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload} (seed {seed})")
        for trace in (0, 1):
            result = invoke(workload, seed, seconds, trace)
            ok &= result["correct"]
            print(f"   {'per-layer (traced)' if trace else 'end-to-end'}: "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:28s} {metric['value']:>22.6g} "
                      f"{metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
