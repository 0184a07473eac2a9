"""Tests for asynchronous staleness-aware FedML.

``async_trace.json`` pins one small run (final params, history records,
upload times, staleness) as captured from the implementation that trained
with its own meta-step; regenerate it only from a known-good revision::

    PYTHONPATH=src python tests/core/test_async_fedml.py
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core import AsyncFedML, AsyncFedMLConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.federated import DeviceProfile, LinkModel, sample_fleet
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

MODEL = LogisticRegression(60, 10)
LINK = LinkModel()
TRACE = pathlib.Path(__file__).with_name("async_trace.json")


def build_workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=8, mean_samples=20, seed=1)
    )
    return fed, list(range(8))


@pytest.fixture(scope="module")
def workload():
    return build_workload()


def uniform_fleet(n, speed=0.05):
    return [DeviceProfile(i, speed, LINK) for i in range(n)]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mixing": 0.0},
            {"mixing": 1.5},
            {"staleness_power": -1.0},
            {"alpha": 0.0},
            {"total_uploads": 0},
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            AsyncFedMLConfig(**kwargs)


class TestAsyncFedML:
    def _run(self, workload, fleet=None, **overrides):
        fed, sources = workload
        kwargs = dict(
            alpha=0.05, beta=0.05, t0=3, total_uploads=40, k=5,
            eval_every=10, seed=0,
        )
        kwargs.update(overrides)
        if fleet is None:
            fleet = uniform_fleet(len(sources))
        runner = AsyncFedML(MODEL, AsyncFedMLConfig(**kwargs))
        return runner.fit(fed, sources, fleet)

    def test_loss_decreases(self, workload):
        result = self._run(workload)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_upload_count(self, workload):
        result = self._run(workload, total_uploads=25)
        assert len(result.upload_times) == 25

    def test_simulated_time_is_monotone(self, workload):
        result = self._run(workload)
        times = result.upload_times
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_uniform_fleet_has_low_staleness(self, workload):
        """Identical devices interleave round-robin: staleness is bounded
        by the fleet size."""
        fed, sources = workload
        result = self._run(workload, fleet=uniform_fleet(len(sources)))
        assert max(result.staleness) <= len(sources)

    def test_heterogeneous_fleet_creates_staleness(self, workload):
        fed, sources = workload
        # Moderate skew so slow devices still upload within the budget;
        # their contributions then arrive many global versions late.
        fast_slow = [
            DeviceProfile(i, 0.01 if i % 2 == 0 else 0.2, LINK)
            for i in range(len(sources))
        ]
        result = self._run(workload, fleet=fast_slow, total_uploads=120)
        assert max(result.staleness) > len(sources)

    def test_fast_devices_contribute_more(self, workload):
        fed, sources = workload
        fast_slow = [
            DeviceProfile(i, 0.01 if i == 0 else 1.0, LINK)
            for i in range(len(sources))
        ]
        result = self._run(workload, fleet=fast_slow, total_uploads=60)
        steps = {n.node_id: n.local_steps for n in result.nodes}
        slowest = [v for k, v in steps.items() if k != sources[0]]
        assert steps[sources[0]] > max(slowest)

    def test_fleet_size_mismatch_raises(self, workload):
        fed, sources = workload
        runner = AsyncFedML(MODEL, AsyncFedMLConfig())
        with pytest.raises(ValueError):
            runner.fit(fed, sources, uniform_fleet(3))

    def test_deterministic(self, workload):
        r1 = self._run(workload)
        r2 = self._run(workload)
        np.testing.assert_array_equal(to_vector(r1.params), to_vector(r2.params))

    def test_staleness_discount_tempers_stale_updates(self, workload):
        """With discounting off, very stale updates get full mixing weight;
        the discounted run must end at least as well on a skewed fleet."""
        fed, sources = workload
        fast_slow = [
            DeviceProfile(i, 0.01 if i % 2 == 0 else 2.0, LINK)
            for i in range(len(sources))
        ]
        discounted = self._run(
            workload, fleet=fast_slow, staleness_power=1.0, total_uploads=60
        )
        undamped = self._run(
            workload, fleet=fast_slow, staleness_power=0.0, total_uploads=60
        )
        assert (
            discounted.global_meta_losses[-1]
            <= undamped.global_meta_losses[-1] * 1.25
        )


def trace_run(workload):
    """The pinned run: a skewed fleet (so staleness is non-trivial) and an
    ``eval_every`` that does not divide ``total_uploads``."""
    fed, sources = workload
    fleet = [
        DeviceProfile(i, 0.01 if i % 2 == 0 else 0.2, LINK)
        for i in range(len(sources))
    ]
    config = AsyncFedMLConfig(
        alpha=0.05, beta=0.05, t0=3, total_uploads=30, k=5, eval_every=7,
        seed=0,
    )
    return AsyncFedML(MODEL, config).fit(fed, sources, fleet)


def test_matches_pinned_trace(workload):
    """Same tolerances as ``tests/engine/test_seed_equivalence.py``."""
    result = trace_run(workload)
    golden = json.loads(TRACE.read_text())

    np.testing.assert_allclose(
        to_vector(result.params), np.array(golden["final_params"]),
        rtol=1e-9, atol=0,
    )
    records = result.history.records
    assert len(records) == len(golden["records"])
    for record, expected in zip(records, golden["records"]):
        assert set(record) == set(expected)
        for key in expected:
            np.testing.assert_allclose(
                record[key], expected[key], rtol=1e-9, atol=0, err_msg=key
            )
    np.testing.assert_allclose(
        result.upload_times, golden["upload_times"], rtol=1e-9, atol=0
    )
    assert result.staleness == golden["staleness"]


def capture_trace():
    result = trace_run(build_workload())
    TRACE.write_text(json.dumps({
        "final_params": to_vector(result.params).tolist(),
        "records": result.history.records,
        "upload_times": result.upload_times,
        "staleness": result.staleness,
    }, indent=1) + "\n")
    print(f"wrote {TRACE}")


if __name__ == "__main__":
    capture_trace()
