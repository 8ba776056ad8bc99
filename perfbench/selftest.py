#!/usr/bin/env python3
"""Tiny-scale smoke of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about four minutes:

* seed 0 regenerates every workload matrix bitwise equal to
  ``formats.generate``, another seed changes the seeded ones, and a
  seeded power-law graph keeps its nnz;
* every workload runs correctly, untraced and traced, and reports exactly
  the metric names and units ``BENCHMARK.json`` declares;
* two runs of one seed give the identical simulated-statistics
  fingerprint;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import show

SCALE = 0.004
#: Run length by --trace: an untraced run needs 100 job samples, which
#: takes up to 15 s at this scale on a slow host; a traced run needs
#: only its warm-up pass and one traced pass.
SECONDS = {0: 20.0, 1: 2.0}
SEED = 5


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL {message}")


def check_seeded_inputs() -> None:
    sys.path.insert(0, str(show.ROOT / "src"))
    import numpy as np
    import workloads
    from repro import formats
    names = sorted(set(workloads.SPMV_AB_MATRICES + workloads.SPMV_PB_MATRICES
                       + workloads.SPTRSV_MATRICES
                       + workloads.FUNCTIONAL_SPMV
                       + workloads.FUNCTIONAL_SPMM))
    for name in names:
        want = formats.generate(name, scale=SCALE)
        got = workloads.seeded_matrix(name, 0, scale=SCALE)
        _check(got.shape == want.shape
               and all(np.array_equal(getattr(got, f), getattr(want, f))
                       for f in ("rows", "cols", "vals")),
               f"seed 0 does not reproduce formats.generate({name!r})")
    moved = workloads.seeded_matrix("bcsstk32", 1, scale=SCALE)
    base = formats.generate("bcsstk32", scale=SCALE)
    _check(moved.shape == base.shape
           and not np.array_equal(moved.vals, base.vals),
           "seed 1 does not change a seeded matrix")
    want = formats.generate("Stanford", scale=SCALE).nnz
    for seed in (1, 2, 3):
        got = workloads.seeded_matrix("Stanford", seed, scale=SCALE).nnz
        _check(abs(got - want)
               <= workloads.POWER_LAW_NNZ_TOLERANCE * want,
               f"seed {seed}: Stanford has {got} nonzeros, not {want}")
    print(f"selftest: seeded inputs ok ({len(names)} matrices)")


def _record(workload: str, trace: int) -> dict:
    path = (show.HERE / "out"
            / f"{workload}-seed{SEED}-trace{trace}.json")
    return json.loads(path.read_text())


def check_runs() -> None:
    spec = show.benchmark_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        fingerprints = []
        for trace in (0, 1, 0):
            result = show.invoke(workload, SEED, SECONDS[trace], trace,
                                 SCALE)
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(got == want[trace],
                   f"{workload} trace={trace}: metrics {sorted(got)} do "
                   f"not match BENCHMARK.json")
            if trace == 0:
                fingerprints.append(_record(workload, 0)["fingerprint"])
        _check(fingerprints[0] == fingerprints[1],
               f"{workload}: fingerprint differs between two runs")
        print(f"selftest: {workload} ok "
              f"(digest {fingerprints[0]['sim.digest']})")


def check_bare_directory() -> None:
    bare = show.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(show.ROOT / "BENCHMARK.json", bare)
    spec = show.benchmark_spec()
    for path in spec["paths"]:
        shutil.copytree(show.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(spec["command"] + ["--workload", "spmv-ab-c16",
                                            "--seed", "1", "--seconds", "1",
                                            "--trace", "0"],
                         cwd=bare, capture_output=True, text=True,
                         timeout=180)
    shutil.rmtree(bare)
    _check(out.returncode != 0 and not out.stdout.strip(),
           "the benchmark did not fail outside a source checkout")
    print("selftest: bare directory refused")


def main() -> int:
    check_seeded_inputs()
    check_runs()
    check_bare_directory()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
