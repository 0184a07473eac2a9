"""Vectorized executor equivalence, fallback, and telemetry.

The contract under test (see ``docs/ENGINE.md``): for strategies that
opt in via ``supports_vectorized``, :class:`VectorizedExecutor` runs one
stacked tape per signature group and must match :class:`SerialExecutor`
within floating-point reassociation tolerance; two vectorized runs of
the same config are bit-identical; strategies that do not opt in fall
back to the internal serial executor and stay bit-for-bit equal to a
plain serial run.
"""

import numpy as np
import pytest

from repro.core import (
    FedAvg,
    FedAvgConfig,
    FedML,
    FedMLConfig,
    FedProx,
    FedProxConfig,
)
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import RoundEngine, SerialExecutor, VectorizedExecutor
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

from .test_executors import NoisyConfig, NoisyStrategy

#: end-to-end serial-vs-vectorized tolerance — stacked tapes may
#: reassociate fp accumulations (see docs/AUTODIFF.md)
EQUIV_RTOL = 1e-6
EQUIV_ATOL = 1e-9


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=6, mean_samples=20, seed=1)
    )
    return fed, list(range(6)), LogisticRegression(60, 10)


RUNNERS = [
    (
        FedML,
        FedMLConfig(alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=3, seed=0),
    ),
    (
        FedAvg,
        FedAvgConfig(learning_rate=0.05, t0=3, total_iterations=6, seed=0),
    ),
    (
        FedProx,
        FedProxConfig(
            learning_rate=0.05, mu_prox=0.1, t0=3, total_iterations=6, seed=0
        ),
    ),
]


def _fit(workload, runner_cls, config, executor, telemetry=None):
    fed, sources, model = workload
    return runner_cls(
        model, config, telemetry=telemetry, executor=executor
    ).fit(fed, sources)


class TestVectorizedMatchesSerial:
    @pytest.mark.parametrize("runner_cls,config", RUNNERS)
    def test_equivalent_within_tolerance(self, workload, runner_cls, config):
        serial = _fit(workload, runner_cls, config, SerialExecutor())
        vectorized = _fit(workload, runner_cls, config, VectorizedExecutor())
        np.testing.assert_allclose(
            to_vector(serial.params),
            to_vector(vectorized.params),
            rtol=EQUIV_RTOL,
            atol=EQUIV_ATOL,
        )
        assert [n.local_steps for n in serial.nodes] == [
            n.local_steps for n in vectorized.nodes
        ]
        assert [n.gradient_evaluations for n in serial.nodes] == [
            n.gradient_evaluations for n in vectorized.nodes
        ]

    @pytest.mark.parametrize("runner_cls,config", RUNNERS)
    def test_double_run_bit_identical(self, workload, runner_cls, config):
        first = _fit(workload, runner_cls, config, VectorizedExecutor())
        second = _fit(workload, runner_cls, config, VectorizedExecutor())
        assert (
            to_vector(first.params).tobytes()
            == to_vector(second.params).tobytes()
        )
        assert first.history.records == second.history.records


class TestSerialFallback:
    def test_non_vectorized_strategy_matches_serial_bitwise(self, workload):
        """A strategy without the capability flag runs through the internal
        serial fallback and must be bit-for-bit equal to SerialExecutor."""
        fed, sources, model = workload
        assert NoisyStrategy.supports_vectorized is False

        def run(executor):
            strategy = NoisyStrategy(model, NoisyConfig())
            return RoundEngine(strategy, executor=executor).fit(fed, sources)

        serial = run(SerialExecutor())
        vectorized = run(VectorizedExecutor())
        np.testing.assert_array_equal(
            to_vector(serial.params), to_vector(vectorized.params)
        )
        assert serial.history.records == vectorized.history.records

    def test_ragged_nodes_fall_back_per_node(self, workload):
        """Nodes with distinct data shapes form distinct signature groups —
        partition covers every node exactly once."""
        fed, sources, model = workload
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=2, seed=0)
        strategy = FedAvg(model, config).strategy
        nodes = strategy.build_nodes(fed, sources)
        groups, fallback = VectorizedExecutor._partition(strategy, nodes)
        covered = [n.node_id for g in groups.values() for n in g]
        covered += [n.node_id for n in fallback]
        assert sorted(covered) == sorted(n.node_id for n in nodes)


class TestTelemetry:
    def _run_with_telemetry(self, workload, fingerprints=False):
        from repro.obs import MemorySink, Telemetry

        sink = MemorySink()
        tel = Telemetry(sink=sink, node_fingerprints=fingerprints)
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=4, seed=0)
        _fit(workload, FedAvg, config, VectorizedExecutor(), telemetry=tel)
        return sink, tel

    def test_vectorized_block_events_and_counters(self, workload):
        sink, tel = self._run_with_telemetry(workload)
        blocks = [r for r in sink.records if r.get("kind") == "vectorized_block"]
        assert len(blocks) == 2  # total_iterations / t0
        for record in blocks:
            assert record["vectorized_nodes"] == 6
            assert record["fallback_nodes"] == 0
            assert record["groups"] >= 1
        assert tel.registry.get("fl_vectorized_nodes_total").value == 12
        assert tel.registry.get("fl_vectorized_fallback_total").value == 0

    def test_node_results_carry_vectorized_flag_and_fingerprint(self, workload):
        sink, _ = self._run_with_telemetry(workload, fingerprints=True)
        results = [r for r in sink.records if r.get("kind") == "node_result"]
        assert results, "expected node_result events"
        assert all(r.get("vectorized") is True for r in results)
        assert all("params_fp" in r for r in results)

    def test_fallback_nodes_counted(self, workload):
        from repro.obs import MemorySink, Telemetry

        fed, sources, model = workload
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        strategy = NoisyStrategy(model, NoisyConfig())
        RoundEngine(
            strategy, executor=VectorizedExecutor(), telemetry=tel
        ).fit(fed, sources)
        blocks = [r for r in sink.records if r.get("kind") == "vectorized_block"]
        assert blocks
        assert all(r["vectorized_nodes"] == 0 for r in blocks)
        assert all(r["fallback_nodes"] == 6 for r in blocks)
        assert tel.registry.get("fl_vectorized_nodes_total").value == 0
        assert tel.registry.get("fl_vectorized_fallback_total").value > 0


class OneNodeGroups(VectorizedExecutor):
    """Stacks every node alone: each block is N=1 ``local_block_vectorized``."""

    @staticmethod
    def _partition(strategy, nodes):
        groups, fallback = VectorizedExecutor._partition(strategy, nodes)
        assert not fallback
        return {(node.node_id,): [node] for node in nodes}, []


@pytest.mark.parametrize(
    "name,rtol", [("fedavg", 0.0), ("fedprox", 0.0), ("fedml", 1e-12)]
)
def test_one_node_stacked_block_matches_serial_step(name, rtol):
    """A one-node stacked block is the serial step on the golden workload:
    bit for bit for Sgd and Prox; Meta's stacked meta-gradient differs from
    the serial one in the last bits (measured max 1.4e-16), so it is held
    to rtol 1e-12."""
    from .capture_golden import build_runners, build_workload
    from .test_seed_equivalence import GOLDEN

    fed, sources, model = build_workload()
    runner = build_runners(model, executor=OneNodeGroups())[name]
    result = runner.fit(fed, sources)
    expected = np.array(GOLDEN[name]["final_params"])
    if rtol == 0.0:
        assert to_vector(result.params).tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(
            to_vector(result.params), expected, rtol=rtol, atol=0.0
        )
