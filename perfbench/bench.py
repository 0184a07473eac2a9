"""Measure one workload: untraced end-to-end metrics, or a traced layer run.

``--trace 0`` repeats {set up, fit} until ``--seconds`` is spent (at
least twice, so the same-seed θ check has a partner) and reports the
medians of ``fit_s``, ``setup_s`` and the process's ``peak_rss_mb`` per
{set up, fit}, and ``success_rate``.  The two times are wall-clock,
rescaled halfway to the reference host's speed by the
:func:`reference_s` gauge timed between the fits (see
:meth:`Untraced.at_reference_speed`); the raw wall-clock goes to the
result file.  ``--trace 1`` alternates an untraced and a traced
{set up, fit} pair and reports per-layer metrics per fit, derived from
spans (see :mod:`perfbench.layers`).

Every fit is checked; a failed check or an exception counts the fit as
failed, and any failure makes the run exit 1.  Spans and a result record
with its environment header are written once, at the end, under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autodiff import fastpath
from repro.utils.serialization import params_fingerprint

from .layers import FIT, LAYERS, SETUP, Tracer, layer_totals, self_times
from .workloads import WORKLOADS, Outcome, Prepared, Spec, setup

#: Untraced fits per run at least (the θ fingerprint check needs two).
MIN_FITS = 2
#: Set-ups per run at least, and seconds of extra set-ups (without a fit)
#: at least, so a set-up of a millisecond is still a median of many.
MIN_SETUPS = 5
SETUP_SECONDS = 1.0

#: Wall-clock of :func:`reference_s` on the reference host (2 vCPUs,
#: NumPy 2.4, one BLAS thread).
REFERENCE_S = 0.125

#: The public fast-path counters the trace reports, as deltas per fit.
COUNTERS = (
    "backwards", "plan_hits", "plan_misses", "plan_evictions",
    "compiled_runs", "closure_vjp_calls", "raw_vjp_calls", "hot_allocations",
)


@dataclass
class Attempt:
    """One {set up, fit} and its checks."""

    setup_s: float = 0.0
    fit_s: Optional[float] = None
    peak_rss_mb: float = 0.0
    outcome: Optional[Outcome] = None
    prepared: Optional[Prepared] = None
    counters: Dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    failures: List[str] = field(default_factory=list)


def reference_s() -> float:
    """Wall-clock of a fixed NumPy/Python kernel, as a gauge of host speed.

    The kernel mixes what a fit spends its time on (small matmuls and
    ufuncs, small-object allocation) and uses nothing from ``repro``, so
    a change to the program does not move it.  It is timed before,
    between and after a run's fits.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 16)) / 4
    v = np.ones(16)
    chunks = []
    collecting = gc.isenabled()
    gc.disable()  # the collector's timing is the program's cost, not the host's
    try:
        for _ in range(5):
            x = np.eye(16)
            keep: List[Any] = []
            start = time.perf_counter()
            for i in range(4000):
                x = np.tanh(a @ x)
                keep.append((v * 0.5 + i, {"i": i}, [i]))
            chunks.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    # The median chunk drops a stall that hits one chunk.
    return 5 * float(statistics.median(chunks))


def check(spec: Spec, outcome: Outcome) -> List[str]:
    """The per-fit correctness checks behind ``error_rate``."""
    failures = []
    if not all(np.isfinite(t.data).all() for t in outcome.params.values()):
        failures.append("theta is non-finite")
    if not outcome.losses or not np.isfinite(outcome.losses).all():
        failures.append("loss is missing or non-finite")
    elif not outcome.losses[-1] < outcome.losses[0]:
        failures.append(
            f"final loss {outcome.losses[-1]} is not below initial {outcome.losses[0]}"
        )
    if spec.executor == "fleet" and outcome.resident_peak > outcome.resident_bound:
        failures.append(
            f"resident peak {outcome.resident_peak} exceeds sampled + buffer "
            f"{outcome.resident_bound}"
        )
    return failures


def attempt(spec: Spec, seed: int, tracer: Optional[Tracer] = None) -> Attempt:
    """Set up and fit once; an exception is recorded as a failure."""
    out = Attempt()
    try:
        gc.collect()
        reset_peak_rss()
        start = time.perf_counter()
        with _root(tracer, SETUP):
            prepared = setup(spec, seed)
        out.setup_s = time.perf_counter() - start
        out.prepared = prepared
        # Every fit starts from a cold plan cache, as a fresh process does,
        # so fits and their counters repeat exactly.
        fastpath.clear_cache()
        gc.collect()
        base = fastpath.stats().as_dict()
        start = time.perf_counter()
        with _root(tracer, FIT):
            outcome = prepared.fit()
        out.fit_s = time.perf_counter() - start
        out.peak_rss_mb = peak_rss_mb()
        out.counters = fastpath.stats().delta_since(base)
        out.outcome = outcome
        out.fingerprint = params_fingerprint(outcome.params)
        out.failures = check(spec, outcome)
    except Exception as exc:  # a benchmark run must report, not crash
        traceback.print_exc(file=sys.stderr)
        out.failures.append(f"raised {exc!r}")
    return out


def _root(tracer: Optional[Tracer], name: str) -> Any:
    return nullcontext() if tracer is None else tracer.root(name)


def cross_check(attempts: List[Attempt]) -> None:
    """Same seed, same arithmetic: θ, losses and counters must repeat."""
    done = [a for a in attempts if a.outcome is not None]
    if not done:
        return
    ref = done[0]
    assert ref.outcome is not None
    for other in done[1:]:
        assert other.outcome is not None
        if other.fingerprint != ref.fingerprint:
            other.failures.append("theta fingerprint differs from a same-seed fit")
        if other.outcome.losses != ref.outcome.losses:
            other.failures.append("loss history differs from a same-seed fit")
        if other.counters != ref.counters:
            other.failures.append("fastpath counters differ from a same-seed fit")


def _keep_going(attempts: List[Attempt], started: float, last: float,
                seconds: float, minimum: int) -> bool:
    """Another iteration only if the last one's length still fits."""
    now = time.perf_counter()
    return len(attempts) < minimum or now + (now - last) <= started + seconds


@dataclass
class Untraced:
    """Raw wall-clock samples of one untraced run."""

    attempts: List[Attempt]
    setups: List[float]
    references: List[float]

    def at_reference_speed(self, seconds: float) -> float:
        """Rescale a time measured in this run halfway to the reference host speed.

        The shared host changes speed by 10-30% in phases of tens of
        seconds to minutes.  The gauge follows those phases but swings
        further than a fit (a fit moves by 0.5-0.8 of the gauge's
        log-change), and its samples carry noise of their own.  On a
        2-vCPU host, rescaling by the full ratio widens the spread across
        runs, and not rescaling leaves the medians of two sets of runs
        20 minutes apart up to 24% apart.  The square root of the ratio
        takes out most of the drift and only half of the gauge's noise.
        """
        return seconds * math.sqrt(REFERENCE_S / statistics.median(self.references))


def run_untraced(spec: Spec, seed: int, seconds: float) -> Untraced:
    """{set up, fit} until ``seconds`` is spent, the gauge kernel between."""
    run = Untraced([], [], [reference_s()])
    started = time.perf_counter()
    while True:
        last = time.perf_counter()
        run.attempts.append(attempt(spec, seed))
        run.attempts[-1].prepared = None
        run.references.append(reference_s())
        if not _keep_going(run.attempts, started, last, seconds, MIN_FITS):  # reprolint: disable=DET102
            break
    run.setups = [a.setup_s for a in run.attempts if a.fit_s is not None]
    gc.collect()
    spent = 0.0
    while len(run.setups) < MIN_SETUPS or spent < SETUP_SECONDS:
        start = time.perf_counter()
        setup(spec, seed)
        run.setups.append(time.perf_counter() - start)
        spent += run.setups[-1]
    run.references.append(reference_s())
    cross_check(run.attempts)
    return run


def run_traced(spec: Spec, seed: int, seconds: float,
               tracer: Tracer) -> Tuple[List[Attempt], List[Attempt], List[float]]:
    """Alternate untraced and traced {set up, fit} pairs."""
    plain: List[Attempt] = []
    traced: List[Attempt] = []
    references: List[float] = []
    started = time.perf_counter()
    while True:
        last = time.perf_counter()
        references.append(reference_s())
        plain.append(attempt(spec, seed))
        plain[-1].prepared = None
        with tracer.installed_for(run_id=len(traced)):
            traced.append(attempt(spec, seed, tracer))
        if len(traced) > 1:
            traced[-1].prepared = None
        if not _keep_going(traced, started, last, seconds, 1):  # reprolint: disable=DET102
            break
    cross_check(plain + traced)
    return plain, traced, references


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(run: Untraced) -> Dict[str, Dict[str, Any]]:
    failed = sum(1 for a in run.attempts if a.failures)
    fits = [a.fit_s for a in run.attempts if a.fit_s is not None]
    return {
        "fit_s": {"value": run.at_reference_speed(_median(fits)), "unit": "s"},
        "setup_s": {"value": run.at_reference_speed(_median(run.setups)), "unit": "s"},
        "peak_rss_mb": {
            "value": _median([a.peak_rss_mb for a in run.attempts if a.fit_s is not None]),
            "unit": "MB",
        },
        "success_rate": {
            "value": (len(run.attempts) - failed) / len(run.attempts),
            "unit": "fraction",
        },
    }


def reset_peak_rss() -> None:
    """Start a new peak: Linux sets VmHWM to the current resident size.

    Taken per {set up, fit}, the peak does not grow with the number of
    fits a run holds.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss` (VmHWM, in kB)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def per_layer(spec: Spec, plain: List[Attempt], traced: List[Attempt],
              references: List[float], tracer: Tracer) -> Dict[str, Dict[str, Any]]:
    """Per-fit layer metrics of the traced fits (means over traced fits)."""
    metrics: Dict[str, Dict[str, Any]] = {}
    runs = max(1, len(traced))

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    totals = layer_totals(tracer.spans)
    for layer in LAYERS:
        row = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        put(f"{layer}.calls", row["calls"] / runs, "count")
        put(f"{layer}.s", row["s"] / runs, "s")
        put(f"{layer}.self_s", row["self_s"] / runs, "s")

    fleet = spec.executor == "fleet"
    unattributed = totals.get(FIT, {"self_s": 0.0})["self_s"] / runs
    put("engine.unattributed_s", 0.0 if fleet else unattributed, "s")
    put("federated.fleet.unattributed_s", unattributed if fleet else 0.0, "s")
    traced_fit = _median([a.fit_s for a in traced if a.fit_s is not None])
    plain_fit = _median([a.fit_s for a in plain if a.fit_s is not None])
    put("trace.fit_s", totals.get(FIT, {"s": 0.0})["s"] / runs, "s")
    put("trace_overhead", traced_fit / plain_fit - 1.0, "ratio")
    put("host.reference_s", _median(references), "s")

    counters = {
        key: sum(a.counters.get(key, 0) for a in traced) / runs for key in COUNTERS
    }
    for key in COUNTERS:
        put(f"autodiff.{key}", counters[key], "count")
    backwards = counters["backwards"] or 1.0
    put("autodiff.plan_hit_ratio", counters["plan_hits"] / backwards, "ratio")
    put("autodiff.compiled_ratio", counters["compiled_runs"] / backwards, "ratio")

    vec = totals.get("engine.local_block_vectorized", {"calls": 0, "items": 0})
    put("engine.vectorized_nodes_per_group",
        vec["items"] / vec["calls"] if vec["calls"] else 0.0, "count")

    first = traced[0]
    outcome = first.outcome
    assert outcome is not None and first.prepared is not None
    put("federated.uplink_bytes", outcome.uplink_bytes, "B")
    put("federated.downlink_bytes", outcome.downlink_bytes, "B")
    flushes = totals.get("federated.fleet.flush", {"calls": 0})["calls"] / runs
    put("federated.fleet.updates_aggregated", outcome.updates_aggregated, "count")
    put("federated.fleet.updates_per_flush",
        outcome.updates_aggregated / flushes if flushes else 0.0, "count")
    put("federated.fleet.resident_peak", outcome.resident_peak, "count")
    put("federated.fleet.resident_ratio",
        outcome.resident_peak / outcome.resident_bound if outcome.resident_bound else 0.0,
        "ratio")
    put("quality.final_loss", outcome.losses[-1], "nats")
    put("quality.target_acc", first.prepared.target_acc(outcome.params), "fraction")
    return metrics


def environment(root: Path, spec: Spec, seed: int, trace: int,
                seconds: float) -> Dict[str, Any]:
    """What makes two result files comparable (or shows they are not)."""
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": spec.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "config": spec.resolved(),
    }


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly (None outside a clone)."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def blas_version() -> Optional[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy without the dict report
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str], root: Path) -> int:
    args = parse(argv)
    spec = WORKLOADS[args.workload]
    env = environment(root, spec, args.seed, args.trace, args.seconds)
    out_dir = Path(__file__).resolve().parent / "out"
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = Tracer(spec.name)
        plain, traced, references = run_traced(spec, args.seed, args.seconds, tracer)
        attempts = plain + traced
        ok = not any(a.failures for a in attempts) and not tracer.installed
        metrics = per_layer(spec, plain, traced, references, tracer) if ok else {}
        setups: List[float] = []
    else:
        run = run_untraced(spec, args.seed, args.seconds)
        attempts, setups, references = run.attempts, run.setups, run.references
        ok = not any(a.failures for a in attempts)
        metrics = end_to_end(run) if ok else {}

    failed = sum(1 for a in attempts if a.failures)
    record = {
        "env": env,
        "attempted": len(attempts),
        "failed": failed,
        "error_rate": failed / len(attempts),
        "failures": [a.failures for a in attempts if a.failures],
        "fit_wall_s": [a.fit_s for a in attempts],
        "peak_rss_mb_per_fit": [a.peak_rss_mb for a in attempts],
        "setup_wall_s": setups,
        "reference_s": references,
        "metrics": metrics,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(out_dir / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            selfs = self_times(tracer.spans)
            for span, own in zip(tracer.spans, selfs):
                fh.write(json.dumps(dict(span.as_record(), self_s=own)) + "\n")

    print(json.dumps({"env": env}))
    for failure in record["failures"]:
        print(f"perfbench: failed fit: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ok, "attempted": len(attempts), "failed": failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1
