"""Tests of the benchmark itself, on scaled-down workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from repro.autodiff import Tensor

from perfbench import bench
from perfbench.layers import FUNCTIONS, LAYERS, Tracer
from perfbench.workloads import WORKLOADS, Outcome, scaled

SMALL = {
    "fedml-synthetic": scaled(WORKLOADS["fedml-synthetic"], nodes=8, iterations=10),
    "fedml-sent140-vectorized": scaled(
        WORKLOADS["fedml-sent140-vectorized"], nodes=30, iterations=10
    ),
    "fleet-fedavg-buffered": scaled(
        WORKLOADS["fleet-fedavg-buffered"], nodes=5000, iterations=3, sampled=16
    ),
}


BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_reported_metrics_are_the_declared_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    spec = SMALL["fedml-synthetic"]
    reported = bench.end_to_end(bench.run_untraced(spec, seed=1, seconds=0))
    assert {k: v["unit"] for k, v in reported.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in reported.values())
    tracer = Tracer(spec.name)
    plain, traced, refs = bench.run_traced(spec, seed=1, seconds=0, tracer=tracer)
    reported = bench.per_layer(spec, plain, traced, refs, tracer)
    assert {k: v["unit"] for k, v in reported.items()} == _declared("per_layer")


def test_times_are_rescaled_halfway_to_the_reference_host_speed():
    slow_host = [4 * bench.REFERENCE_S] * 3
    run = bench.Untraced(
        [bench.Attempt(fit_s=3.0), bench.Attempt(fit_s=5.0)], [0.4, 0.6], slow_host
    )
    reported = bench.end_to_end(run)
    assert reported["fit_s"]["value"] == pytest.approx(2.0)
    assert reported["setup_s"]["value"] == pytest.approx(0.25)
    assert 0 < bench.reference_s() < 60


def _bindings():
    """Every (owner, attribute) -> object a wrapper could replace."""
    found = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(module.__name__, attr)] = value
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        found[(module.__name__, attr, name)] = member
    return found


@pytest.mark.parametrize("name", ["fedml-synthetic", "fleet-fedavg-buffered"])
def test_wrappers_are_removed_and_untraced_runs_call_originals(name):
    spec = SMALL[name]
    before = _bindings()
    tracer = Tracer(spec.name)
    plain, traced, _ = bench.run_traced(spec, seed=3, seconds=0, tracer=tracer)
    assert not tracer.installed
    assert len(traced) == 1 and tracer.spans
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    recorded = len(tracer.spans)
    again = bench.attempt(spec, seed=3)
    assert again.failures == []
    assert len(tracer.spans) == recorded  # nothing reached the wrappers


def test_wrappers_reach_call_sites_that_bind_by_name():
    import importlib

    tensor = importlib.import_module("repro.autodiff.tensor")
    from repro.core import maml
    from repro.engine import evaluation, strategies

    original = tensor.grad
    tracer = Tracer("x")
    with tracer.installed_for(run_id=0):
        for site in (tensor, maml, evaluation, strategies):
            assert site.grad is not original
            assert site.grad.__wrapped__ is original
    assert all(site.grad is original for site in (tensor, maml, evaluation, strategies))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_and_residual_sum_to_traced_fit(name):
    spec = SMALL[name]
    tracer = Tracer(spec.name)
    plain, traced, refs = bench.run_traced(spec, seed=5, seconds=0, tracer=tracer)
    metrics = bench.per_layer(spec, plain, traced, refs, tracer)
    value = {key: entry["value"] for key, entry in metrics.items()}
    fit_s = value["trace.fit_s"]
    inside_fit = sum(
        value[f"{layer}.self_s"] for layer in LAYERS if layer != "data.generate"
    )
    residual = value["engine.unattributed_s"] + value["federated.fleet.unattributed_s"]
    assert inside_fit + residual == pytest.approx(fit_s, rel=1e-9)
    assert value["data.generate.calls"] == (0 if spec.executor == "fleet" else 1)
    assert set(value) >= {f"{layer}.calls" for layer in FUNCTIONS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_fastpath_counters_repeat_exactly_for_one_seed(name):
    spec = SMALL[name]
    first = bench.attempt(spec, seed=11)
    second = bench.attempt(spec, seed=11)
    assert first.failures == [] and second.failures == []
    assert first.counters["backwards"] > 0
    assert first.counters == second.counters
    assert first.fingerprint == second.fingerprint
    assert first.outcome.losses == second.outcome.losses


def test_checks_flag_each_failure_kind():
    spec = SMALL["fleet-fedavg-buffered"]
    good = bench.attempt(spec, seed=2).outcome
    assert bench.check(spec, good) == []
    bad = Outcome(
        params={"w": Tensor(np.array([np.nan]))},
        losses=[1.0, 1.5],
        uplink_bytes=0,
        downlink_bytes=0,
        resident_peak=good.resident_bound + 1,
        resident_bound=good.resident_bound,
    )
    failures = bench.check(spec, bad)
    assert len(failures) == 3
    assert bench.check(spec, Outcome(good.params, [1.0, float("inf")], 0, 0)) == [
        "loss is missing or non-finite"
    ]


def test_cross_check_flags_a_diverging_same_seed_fit():
    spec = SMALL["fedml-synthetic"]
    attempts = [bench.attempt(spec, seed=4), bench.attempt(spec, seed=4)]
    attempts[1].fingerprint = "0" * 16
    bench.cross_check(attempts)
    assert attempts[0].failures == []
    assert attempts[1].failures == ["theta fingerprint differs from a same-seed fit"]


def test_run_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    import shutil
    import subprocess

    package = Path(bench.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fedml-synthetic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
