"""Attribution overhead microbenchmark: pricing with vs without collector.

The cycle-attribution engine rides the scheduler as a passive observer
(``price_trace(..., collector=...)``), so its cost is pure overhead on
top of schedule pricing. This bench prices the Fig. 8 SpMV suite's
all-bank traces twice — plain and with an :class:`AttributionCollector`
attached — and writes ``benchmarks/results/BENCH_attrib.json`` for the
CI perf-trend gate.

* ``times`` — min-of-N suite pricing wall-clock for both variants plus
  the derived ``overhead_pct``. The two variants are timed *interleaved*
  (plain/attrib alternating within each repetition) and min-of-N is
  taken per variant, so CPU frequency drift on shared runners hits both
  sides equally and cannot fake a regression. The <5% gate only applies
  at CI scale (``PSYNCPIM_SCALE >= 0.02``).
* ``speedups.pricing_vs_attrib`` — plain over collector time (a ratio of
  two measurements from the same machine and run, so it transfers across
  CI hardware; 1.0 means free, lower means costlier attribution).

The bench also emits the run's full attribution bundle
(``ATTRIB_run.json``) and a self-contained HTML report
(``ATTRIB_report.html``); CI uploads the HTML as an artifact and diffs
the bundle against the committed ``baselines/ATTRIB_scale0.02.json``
with ``psyncpim diff`` to triage modelled-cycle drift per category.
"""

from __future__ import annotations

import json
import time

from conftest import BENCH_SCALE, RESULTS_DIR, SPMV_MATRICES, bench_matrix
from repro.config import default_system
from repro.core import plan_spmv, price_trace, synthesise
from repro.dram import TimingParams
from repro.obs.attrib import AttributionCollector, attribute_spmv
from repro.obs.report import build_run_report, render_html, save_reports

#: min-of-N repetitions per timing variant (shields the <5% gate from
#: one-off scheduler hiccups on shared CI runners).
REPS = 5


def _suite_traces(config):
    traces = []
    for name in SPMV_MATRICES:
        matrix = bench_matrix(name)
        _, _, execution = plan_spmv(matrix, config, validate=False)
        traces.append((name, execution,
                       synthesise(execution, config).trace))
    return traces


def _price_suite(traces, config, with_collector):
    timing = TimingParams()
    start = time.perf_counter()
    for _, _, trace in traces:
        collector = (AttributionCollector(
            trfc=timing.trfc,
            mode_switch_cycles=timing.mode_switch_cycles)
            if with_collector else None)
        price_trace(trace, config, collector=collector)
    return time.perf_counter() - start


def test_attrib_overhead_benchmark():
    config = default_system()
    traces = _suite_traces(config)

    # Interleaved min-of-N: frequency drift hits both variants alike.
    plain_s = attrib_s = float("inf")
    for _ in range(REPS):
        plain_s = min(plain_s, _price_suite(traces, config, False))
        attrib_s = min(attrib_s, _price_suite(traces, config, True))
    overhead = attrib_s / plain_s - 1.0

    bench = {
        "scale": BENCH_SCALE,
        "times": {
            "pricing_plain_s": plain_s,
            "pricing_attrib_s": attrib_s,
            "overhead_pct": 100.0 * overhead,
        },
        "speedups": {
            # Ratio of two same-machine measurements: machine-independent.
            "pricing_vs_attrib": plain_s / attrib_s,
        },
    }

    # Side product: the suite's attribution bundle + HTML report for the
    # CI artifact upload and the psyncpim-diff drift triage step.
    reports = {}
    for name, execution, _ in traces:
        attribution, perf = attribute_spmv(execution, config)
        reports[f"spmv/{name}"] = build_run_report(
            attribution, perf, label=f"spmv/{name}", kind="spmv",
            matrix=name, strategy="paper", config=config,
            alu_operations=2 * execution.total_elements)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_attrib.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    save_reports(RESULTS_DIR / "ATTRIB_run.json", reports)
    (RESULTS_DIR / "ATTRIB_report.html").write_text(
        render_html(reports), encoding="utf-8")

    for report in reports.values():
        report.check()
    # Attribution must stay a rounding error on top of schedule pricing.
    if BENCH_SCALE >= 0.02:
        assert overhead < 0.05, (
            f"attribution overhead {100.0 * overhead:.1f}% >= 5% "
            f"(plain {plain_s:.3f}s vs attrib {attrib_s:.3f}s)")
