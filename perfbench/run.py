#!/usr/bin/env python3
"""Verb-level host-time benchmark of the pSyncPIM simulator.

    python3 perfbench/run.py --workload spmv-ab-c16 --seed 1 --seconds 30 \
        --trace 0

Runs from the root of a source checkout (it imports ``src/repro``). One
client in one process runs the workload's jobs one after another (a closed
loop) in passes until ``--seconds`` would be exceeded, checks every output
against its oracle, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``. Times are reported at a reference
host speed (:class:`HostSpeed`). See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = HERE / "out"

#: Every ``PSYNCPIM_*`` override the program reads; cleared before import.
OVERRIDE_PREFIX = "PSYNCPIM_"
#: One client thread; BLAS pools would add threads the loop does not own.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Setup samples per untraced run (this process plus fresh children).
SETUP_SAMPLES = 3
#: Named layers must cover this share of every job's wall time.
MIN_COVERAGE = 0.95
#: The job p90 needs ten samples beyond it.
MIN_JOB_SAMPLES = 100
#: Time of one calibration kernel run at the reference host speed (about
#: its fastest on a shared 2-core x86 container). Every reported time is
#: in seconds at this speed; see :class:`HostSpeed`.
CAL_REF_S = 3.0e-3
#: Calibration runs right after setup: warm-up, then timed (median).
CAL_WARMUP, CAL_SETUP_SAMPLES = 3, 7

#: Layers whose self time is reported as ``<layer>_s`` (seconds per pass).
LAYERS = ("core.partition", "core.shard", "core.record", "core.execute",
          "core.ildu", "core.sptrsv_solve", "trace.synth", "dram.price",
          "obs.attrib", "obs.report", "pim.functional", "check.fuzz",
          "check.golden", "check.protocol", "bench.verify", "python.gc")
#: ``repro.obs.CATEGORIES``, spelled out so that this module imports
#: without the simulator sources.
CATEGORIES = ("compute", "padding", "seam", "row", "refresh", "host",
              "idle")
#: Fingerprint counts reported as they are.
COUNTS = (("trace.entries", "dram.commands", "dram.model_cycles",
           "dram.energy_pj") + tuple(f"obs.cat.{c}" for c in CATEGORIES))


class Tracer:
    """In-memory span recorder: (name, start, end, job, parent index).

    Disabled, ``span`` returns a shared no-op context manager.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans = []
        self.job = -1
        self._stack = []
        self._gc = None

    def gc_callback(self, phase: str, info: dict) -> None:
        """Give every collector pause its own ``python.gc`` span, a child
        of whatever span it interrupts."""
        if phase == "start":
            if self.enabled:
                self._gc = self._open("python.gc")
        elif self._gc is not None:
            self._close(self._gc)
            self._gc = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, self.job,
                           parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class HostSpeed:
    """A fixed calibration kernel, timed between jobs.

    The host is shared and its speed moves by up to 2x within minutes, for
    the kernel and the simulator alike. A job's time multiplied by
    ``CAL_REF_S`` over the kernel's time around that job is the job's time
    at the reference speed: host drift cancels, while a change to the
    program moves it in full, because the kernel is not part of the
    program. The kernel mixes interpreter work (dict and integer ops) with
    small numpy calls, as the simulator does.
    """

    def __init__(self) -> None:
        import numpy as np
        self._np = np
        self._array = np.random.default_rng(0).random(4000)
        self._keys = [str(i) for i in range(300)]
        for _ in range(CAL_WARMUP):
            self.sample()

    def sample(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        counts, acc, keys = {}, 0, self._keys
        for i in range(6000):
            key = keys[i % 300]
            counts[key] = counts.get(key, 0) + i
            acc += i * 3 % 7
        for _ in range(40):
            self._np.sort(self._array)
            self._array.cumsum()
        return time.perf_counter() - start

    def factor(self) -> float:
        """Reference over current speed, from a few kernel runs."""
        return CAL_REF_S / statistics.median(
            self.sample() for _ in range(CAL_SETUP_SAMPLES))


class Pass:
    """One pass: raw job latencies, the kernel times around the jobs
    (one more than jobs), the pass's statistics and its elapsed time."""

    def __init__(self, latencies, calibration, stats, elapsed) -> None:
        self.latencies = latencies
        self.calibration = calibration
        self.stats = stats
        self.elapsed = elapsed
        #: Reference over current host speed during the pass: the median
        #: of the kernel runs between its jobs.
        self.factor = CAL_REF_S / statistics.median(calibration)
        #: Each job's latency at the reference speed.
        self.scaled = [t * self.factor for t in latencies]

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="matrix scale (default: the CI scale 0.02)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _sanitise_env() -> list:
    cleared = sorted(k for k in os.environ if k.startswith(OVERRIDE_PREFIX))
    for key in cleared:
        del os.environ[key]
    for key in THREAD_ENV:
        os.environ[key] = "1"
    return cleared


def _run_pass(bench, tracer: Tracer, workloads, speed: HostSpeed,
              failures: list) -> Pass:
    """Run every job once, with a calibration kernel run between jobs."""
    stats = workloads.PassStats(tracer.span)
    state = {}
    latencies = []
    start = time.perf_counter()
    calibration = [speed.sample()]
    with tracer.span("pass"):
        for name, job in bench.jobs:
            tracer.job += 1
            t = time.perf_counter()
            with tracer.span("job"):
                try:
                    job(state, stats)
                except Exception as exc:  # every failure is counted
                    failures.append(f"{name}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
            calibration.append(speed.sample())
    return Pass(latencies, calibration, stats, time.perf_counter() - start)


def _run_passes(bench, tracer, workloads, speed, seconds, failures, trace):
    """Whole passes while the next one is expected to fit in *seconds*.

    With *trace*, pass 0 warms up untraced and later passes alternate
    traced and untraced, so drift falls on both sides of the overhead.
    Returns ``(traced, pass)`` pairs.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer.enabled = trace and len(passes) % 2 == 1
        passes.append((tracer.enabled, _run_pass(bench, tracer, workloads,
                                                 speed, failures)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.elapsed for _, p in passes)
        if elapsed + typical > seconds and (not trace or len(passes) > 1):
            tracer.enabled = False
            return passes


def _setup_samples(args, own: float, digest: str):
    """Median setup time, at the reference speed, over this process and
    fresh child processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
        if args.scale is not None:
            cmd += ["--scale", repr(args.scale)]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True, env=os.environ.copy())
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if probe["digest"] != digest:
            raise RuntimeError("the same seed gave different inputs in a "
                               "fresh process")
        samples.append(probe["setup_s"])
    return statistics.median(samples), samples


def _layer_metrics(tracer: Tracer, traced) -> dict:
    """Per-pass self time of each layer (median over the *traced* passes,
    at the reference speed), the uncovered remainder of the jobs, and the
    worst per-job coverage."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, job, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    per_pass = []
    current = None
    coverage = 1.0
    for i, (name, start, end, job, parent) in enumerate(spans):
        duration = end - start
        if name == "pass":
            current = {"wall": 0.0, "self": {}}
            per_pass.append(current)
        elif name == "job":
            current["wall"] += duration
            if duration > 0:
                coverage = min(coverage, child[i] / duration)
        elif (current is not None and name in LAYERS
              and spans[parent][0] != "pass"):
            # (A collector pause during a calibration run is no job's.)
            current["self"][name] = (current["self"].get(name, 0.0)
                                     + duration - child[i])
    factors = [p.factor for p in traced]
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = statistics.median(
            p["self"].get(layer, 0.0) * f for p, f in zip(per_pass, factors))
    out["bench.other_s"] = statistics.median(
        (p["wall"] - sum(p["self"].values())) * f
        for p, f in zip(per_pass, factors))
    out["bench.coverage"] = coverage
    return out


def _harrell_davis(values, q: float) -> float:
    """The Harrell-Davis estimate of the *q* quantile: a beta-weighted
    mean of all order statistics. Job latencies cluster by job kind, and
    a plain quantile falls on the edge of a cluster and jumps between
    clusters when one input moves; this estimate moves smoothly."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    a, b = q * (len(x) + 1), (1.0 - q) * (len(x) + 1)
    weights = np.diff(betainc(a, b, np.arange(len(x) + 1) / len(x)))
    return float(weights @ x)


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def _per_layer(tracer, traced, untraced, fingerprint, generate_s):
    m = _layer_metrics(tracer, traced)
    m["formats.generate_s"] = generate_s
    count = {k: fingerprint.get(k, 0) for k in COUNTS}
    m.update(count)
    m["trace.cmds_per_entry"] = _ratio(count["dram.commands"],
                                       count["trace.entries"])
    m["dram.cmds_per_s"] = _ratio(count["dram.commands"], m["dram.price_s"])
    m["obs.attrib_overhead"] = _ratio(
        m["obs.attrib_s"], m["trace.synth_s"] + m["dram.price_s"])
    m["pim.functional_nnz_per_s"] = _ratio(
        fingerprint.get("pim.functional_nnz", 0), m["pim.functional_s"])
    m["check.fuzz_seeds_per_s"] = _ratio(
        fingerprint.get("check.fuzz_seeds", 0), m["check.fuzz_s"])
    m["sim.digest"] = fingerprint["sim.digest"]
    m["bench.trace_overhead"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1.0)
    m["bench.host_slowdown"] = 1.0 / statistics.median(
        p.factor for p in traced + untraced)
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    cleared = _sanitise_env()
    sys.path.insert(0, str(SRC))

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    gc.callbacks.append(tracer.gc_callback)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.SCALE if args.scale is None else args.scale
    bench = workloads.build(args.workload, args.seed, tracer, GOLDEN_DIR,
                            scale=scale)
    setup_raw = time.perf_counter() - _T0
    speed = HostSpeed()
    setup_factor = speed.factor()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_raw * setup_factor,
                          "raw_setup_s": setup_raw,
                          "digest": bench.manifest_digest()}))
        return 0
    generate_s = setup_factor * sum(s[2] - s[1] for s in tracer.spans
                                    if s[0] == "formats.generate")
    tracer.spans.clear()

    failures = []
    runs = _run_passes(bench, tracer, workloads, speed, args.seconds,
                       failures, bool(args.trace))
    all_passes = [p for _, p in runs]
    traced = [p for t, p in runs if t]
    untraced = [p for t, p in runs[1:] if not t] or all_passes[:1]

    fingerprints = [p.stats.fingerprint() for p in all_passes]
    if any(f != fingerprints[0] for f in fingerprints):
        failures.append("simulated statistics differ between passes")
    attempted = sum(len(bench.jobs) for _ in all_passes)

    if bench.protocol_sample is not None:
        attempted += 1
        try:
            from repro import check
            violations = check.check_trace(bench.sampled_trace)
            if violations:
                failures.append(f"protocol: {bench.protocol_sample}: "
                                f"{check.summarize(violations, 3)}")
        except Exception as exc:  # counted like any job failure
            failures.append(f"protocol: {bench.protocol_sample}: "
                            f"{type(exc).__name__}: {exc}")

    latencies = [t for p in all_passes for t in p.scaled]
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    correct = not failures
    if not args.trace and len(latencies) < MIN_JOB_SAMPLES:
        correct = False
        print(f"FAIL {len(latencies)} job samples (< {MIN_JOB_SAMPLES}); "
              f"the p90 has fewer than ten beyond it", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "scale": scale,
              "trace": args.trace, "cleared_env": cleared,
              "passes": len(all_passes), "job_samples": len(latencies),
              "manifest": bench.manifest(), "fingerprint": fingerprints[0],
              "failures": failures}
    if args.trace:
        metrics = _per_layer(tracer, traced, untraced, fingerprints[0],
                             generate_s)
        if metrics["bench.coverage"] < MIN_COVERAGE:
            correct = False
            print(f"FAIL layer coverage {metrics['bench.coverage']:.3f} "
                  f"< {MIN_COVERAGE}", file=sys.stderr)
        record["spans"] = tracer.spans
    else:
        setup_s, samples = _setup_samples(args, setup_raw * setup_factor,
                                          bench.manifest_digest())
        metrics = {
            "setup_s": setup_s,
            # The median keeps load bursts from other tenants out.
            "wall_s": statistics.median(p.wall for p in all_passes),
            "job_p50_s": _harrell_davis(latencies, 0.5),
            "job_p90_s": _harrell_davis(latencies, 0.9),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        record["setup_samples"] = samples
    record["setup_raw_s"] = setup_raw
    record["pass_walls"] = [[p.wall, t] for t, p in runs]
    record["job_latencies"] = [p.scaled for _, p in runs]
    record["raw_job_latencies"] = [p.latencies for _, p in runs]
    record["calibration"] = [p.calibration for _, p in runs]

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["metrics"] = metrics
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(all_passes)} "
          f"job_samples={len(latencies)} record={out.relative_to(ROOT)}",
          file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise RuntimeError(f"metrics {sorted(names ^ set(metrics))} differ "
                           f"from those BENCHMARK.json declares")
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
