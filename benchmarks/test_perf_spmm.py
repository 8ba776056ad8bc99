"""SpMM amortisation benchmark: modelled cycles per rhs column vs k.

Prices the Fig. 8 SpMV suite as SpMM workloads for rhs-block widths
k in {1, 2, 4, 8, 16} and writes ``benchmarks/results/BENCH_spmm.json``
for the CI perf-trend gate.

What lands in the dump:

* ``cycles`` — modelled schedule length per matrix per width, plus the
  suite aggregate and the aggregate *per rhs column* (the amortisation
  curve). The matrix stream and lockstep padding are re-streamed once
  per round regardless of k, and one dense column is staged per beat of
  block width, so cycles/rhs must fall strictly as k grows.
* ``speedups.amortisation_16v1`` / ``amortisation_4v1`` — aggregate
  cycles-per-rhs ratios against k=1 (i.e. against plain SpMV). These
  are the gated metrics: both sides come from the same DRAM model, so
  the ratios are machine-independent.
* ``times`` — host wall-clock per width for the plan+widen+price
  pipeline. Informational: the plan is built once at k=1 and reused
  verbatim for every wider block, and this records that the widening
  itself stays cheap.

Hard in-test gates: the k=1 cycles must be bitwise the ``time_spmv``
cycles of the same plan (the SpMM tier collapses to SpMV, not to an
approximation of it), and the per-rhs aggregate must be strictly
decreasing across the sweep.
"""

from __future__ import annotations

import json
import time

from conftest import BENCH_SCALE, RESULTS_DIR, SPMV_MATRICES, bench_matrix
from repro.config import default_system
from repro.core import plan_spmv, time_spmv
from repro.core.spmm import as_spmm_execution

#: rhs-block widths swept; 16 spans four fp64 beat-blocks.
RHS_WIDTHS = (1, 2, 4, 8, 16)


def test_spmm_amortisation_benchmark():
    config = default_system()
    bench = {"scale": BENCH_SCALE, "cycles": {}, "times": {},
             "speedups": {}}

    executions = {}
    spmv_cycles = {}
    for name in SPMV_MATRICES:
        matrix = bench_matrix(name)
        _, _, execution = plan_spmv(matrix, config, validate=False)
        executions[name] = execution
        spmv_cycles[name] = time_spmv(execution, config).cycles

    per_rhs = {}
    for k in RHS_WIDTHS:
        total_cycles = 0
        start = time.perf_counter()
        for name in SPMV_MATRICES:
            widened = as_spmm_execution(executions[name], k)
            report = time_spmv(widened, config)
            bench["cycles"][f"{name}_k{k}"] = report.cycles
            total_cycles += report.cycles
            if k == 1:
                # k=1 is the SpMV contract, bitwise — gate it per matrix.
                assert report.cycles == spmv_cycles[name], name
        bench["times"][f"widen_price_k{k}_s"] = (
            time.perf_counter() - start)
        bench["cycles"][f"suite_k{k}"] = total_cycles
        bench["cycles"][f"suite_per_rhs_k{k}"] = total_cycles / k
        per_rhs[k] = total_cycles / k

    for k in RHS_WIDTHS[1:]:
        bench["speedups"][f"amortisation_{k}v1"] = per_rhs[1] / per_rhs[k]

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_spmm.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    # The amortisation curve must be strictly decreasing: every extra
    # rhs column rides a matrix stream that is only paid once per round.
    widths = list(RHS_WIDTHS)
    for a, b in zip(widths, widths[1:]):
        assert per_rhs[b] < per_rhs[a], per_rhs
    if BENCH_SCALE >= 0.02:
        assert bench["speedups"]["amortisation_16v1"] >= 1.2, \
            bench["speedups"]
