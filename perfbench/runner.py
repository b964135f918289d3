"""Measurement loop of the benchmark; ``run.py`` is its entry point.

An untraced run repeats passes over the workload's call list for the
requested time and reports the end-to-end metrics: the median pass time,
the median of several fresh-process set-ups (both scaled to the reference
speed of ``calibration.py``), and the process's peak resident memory.  A
traced run alternates untraced and traced passes and reports per-layer
metrics from the traced ones.  Every pass's outputs go through the
workload's gate and must equal the reference pass's.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import motif_poisson as mp
from calibration import REFERENCE_S, calibration_seconds
from spans import Tracer, layer_totals, self_times, unaccounted
from workloads import WORKLOADS, Outcome, Workload, fingerprint, input_seed

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Fresh-process set-ups per run; the median is reported.
SETUP_REPEATS = 5

#: Percentiles tried for a timing's tail, highest first.  The tail is the
#: highest one with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

Failures = list[tuple[str, str]]


def setup_seconds(workload: str, seed: int) -> float:
    """Median fresh-process set-up time, each scaled to the reference speed
    by the calibration its process measured."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        took, calibration = map(float, done.stdout.split()[-2:])
        raw.append(took)
        scaled.append(took * REFERENCE_S / calibration)
    print(f"perfbench: raw median set-up {statistics.median(raw)} s", file=sys.stderr)
    return statistics.median(scaled)


def fits(deadline: float, duration: float) -> bool:
    """Whether another step of about ``duration`` would end less than half
    a step after ``deadline``: runs end within half a pass of the time
    asked for, whatever the pass length."""
    return time.perf_counter() + duration / 2 <= deadline


@dataclass
class Pass:
    outcomes: list[Outcome]
    raw_s: float  # wall time of the calls
    scaled_s: float  # the same at the calibration's reference speed
    calibration_s: list[float]


def run_pass(w: Workload, inputs, threads: int = 1) -> Pass:
    """Make the workload's calls once, each bracketed by the calibration
    routine; a call's time is scaled by the mean routine time around it."""
    done = Pass([], 0.0, 0.0, [calibration_seconds()])
    for key, call in w.calls(inputs):
        start = time.perf_counter()
        try:
            outcome = Outcome(key, call(threads))
        except Exception as exc:  # recorded and judged by the gate
            outcome = Outcome(key, error=exc)
        took = time.perf_counter() - start
        done.calibration_s.append(calibration_seconds())
        done.outcomes.append(outcome)
        done.raw_s += took
        done.scaled_s += took * 2 * REFERENCE_S / sum(done.calibration_s[-2:])
    return done


def gate(w: Workload, inputs, n: int, outcomes, reference=None, what="") -> Failures:
    """Check pass ``n``'s outputs and compare them with the reference's."""
    failures = w.check(inputs, outcomes)
    failures += [
        (o.key, f"{what} differs from the reference")
        for r, o in zip(reference or outcomes, outcomes, strict=True)
        if fingerprint(r) != fingerprint(o)
    ]
    return [(f"pass{n}/{key}", problem) for key, problem in failures]


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest ladder percentile with at least
    ten samples beyond it; the median when there are fewer samples."""
    if not values:
        return 0.0, 50.0
    pct = next((p for p in TAIL_LADDER if len(values) * (1 - p / 100) >= 10), 50.0)
    return float(np.percentile(values, pct)), pct


def sampler_peak_mb(w: Workload, inputs, seed: int) -> float:
    """tracemalloc peak of drawing one graph per sampled (model, n)."""
    peak = 0
    for model, n in w.sampled(inputs):
        sample = mp.sample_sbm if isinstance(model, mp.SbmParams) else mp.sample_graphon
        tracemalloc.start()
        try:
            sample(model, n, input_seed(seed, 1 << 20))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def measure(w: Workload, inputs, seconds: float, failures: Failures):
    """End-to-end run of serial passes.  Each pass must equal the threaded
    pass made before timing starts or, without one, the first pass."""
    reference = run_pass(w, inputs, w.workers).outcomes if w.workers > 1 else None
    what = f"serial result vs threads={w.workers}" if w.workers > 1 else "repeated pass"
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    step = 0.0  # wall time of one pass, calibration included
    while not passes or fits(deadline, step):
        started = time.perf_counter()
        passes.append(run_pass(w, inputs))
        step = time.perf_counter() - started
        reference = reference or passes[-1].outcomes
        failures += gate(w, inputs, len(passes), passes[-1].outcomes, reference, what)
    raw = statistics.median(p.raw_s for p in passes)
    print(f"perfbench: {len(passes)} passes, raw median pass {raw} s", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(p.scaled_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, sum(len(p.outcomes) for p in passes)


def measure_traced(w: Workload, inputs, seconds: float, seed: int, failures: Failures):
    """Traced run: untraced, traced and (for workloads with workers)
    threaded passes alternate.  Per-layer metrics come from the traced
    passes; traced and threaded results must equal the untraced ones."""
    tracer = Tracer()
    plain, traced, threaded, per_pass = [], [], [], []
    sample_ms, count_ms = [], []
    deadline = time.perf_counter() + seconds
    step = 0.0  # wall time of one iteration of the loop
    while not traced or fits(deadline, step):
        started = time.perf_counter()
        plain.append(run_pass(w, inputs))
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(run_pass(w, inputs))
        n = len(traced)
        failures += gate(w, inputs, n, plain[-1].outcomes)
        failures += gate(w, inputs, n, traced[-1].outcomes, plain[-1].outcomes, "traced result")
        if w.workers > 1:
            threaded.append(run_pass(w, inputs, w.workers))
            what = f"threads={w.workers} result"
            failures += gate(w, inputs, n, threaded[-1].outcomes, plain[-1].outcomes, what)
        step = time.perf_counter() - started
        spans = tracer.spans[first:]
        selfs = self_times(spans)
        failures += unaccounted(spans, selfs)
        per_pass.append(layer_totals(spans, selfs))
        for s in spans:
            if s.name.startswith("models.sample_"):
                sample_ms.append((s.end - s.start) * 1e3)
            elif s.name == "counting.count_copies":
                count_ms.append((s.end - s.start) * 1e3)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{seed}.json"
    tracer.dump(path)
    print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)

    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
    for layer, values in (("models.sample", sample_ms), ("counting.count", count_ms)):
        tail, pct = percentile_tail(values)
        metrics[f"{layer}_ms_p50"] = (statistics.median(values) if values else 0.0, "ms")
        metrics[f"{layer}_ms_tail"] = (tail, "ms")
        metrics[f"{layer}_tail_pct"] = (pct, "%")
    metrics["models.peak_mb"] = (sampler_peak_mb(w, inputs, seed), "MB")

    def scaled(passes):
        return statistics.median(p.scaled_s for p in passes)

    metrics["simulate.workers_speedup"] = (
        scaled(plain) / scaled(threaded) if threaded else 0.0,
        "ratio",
    )
    metrics["trace.overhead_frac"] = (scaled(traced) / scaled(plain) - 1.0, "ratio")
    metrics["bench.raw_wall_s"] = (statistics.median(p.raw_s for p in plain), "s")
    metrics["bench.calibration_ms"] = (
        1e3 * statistics.median(c for p in plain for c in p.calibration_s),
        "ms",
    )
    return metrics, sum(len(p.outcomes) for p in plain + traced + threaded)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="motif-poisson benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    failures: Failures = []
    if args.trace:
        inputs = w.build(args.seed)
        metrics, attempted = measure_traced(w, inputs, args.seconds, args.seed, failures)
    else:
        setup = setup_seconds(w.name, args.seed)
        inputs = w.build(args.seed)
        metrics, attempted = measure(w, inputs, args.seconds, failures)
        metrics["setup_s"] = (setup, "s")

    for key, problem in failures:
        print(f"perfbench: FAILED {key}: {problem}", file=sys.stderr)
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len({key for key, _ in failures}),
                # a run that fails the gate is not a measurement
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1
