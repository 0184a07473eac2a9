"""The four benchmark workloads, built only through ``repro``'s public API.

Each workload turns a seed into a ready trainer or simulator
(:func:`setup`, timed as ``setup_s``) whose :meth:`Prepared.fit` is one
whole training run (timed as ``fit_s``).  The seed feeds the data seed,
the source/target split seed and the config seed.  Why each workload is
in the set is written down in README.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import data
from repro.core import FedAvg, FedAvgConfig, FedML, FedMLConfig
from repro.core.adaptation import evaluate_adaptation
from repro.data import Dataset, NodeSplit
from repro.engine import SerialExecutor, SgdStrategy, VectorizedExecutor
from repro.federated.fleet import FleetConfig, FleetSimulator, SyntheticShardFactory
from repro.metrics import target_splits
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import Params

#: Hyper-parameters shared by every workload (the ``repro train`` defaults).
ALPHA = 0.05
BETA = 0.05
K = 5
SOURCE_FRACTION = 0.8
ADAPT_STEPS = 5
#: Held-out fleet nodes the fleet's θ is adapted on for ``target_acc``.
FLEET_TARGETS = 32


@dataclass(frozen=True)
class Spec:
    """Resolved configuration of one workload (recorded with every result)."""

    name: str
    algorithm: str  # "fedml" | "fedavg"
    dataset: str  # "synthetic" | "mnist" | "sent140" | "fleet-synthetic"
    nodes: int
    iterations: int  # local iterations T (fleet: rounds x local steps)
    t0: int = 5
    executor: str = "serial"
    eval_every: int = 10
    fleet: Optional[Dict[str, Any]] = None

    def resolved(self) -> Dict[str, Any]:
        return dict(
            asdict(self), alpha=ALPHA, beta=BETA, k=K,
            source_fraction=SOURCE_FRACTION, adapt_steps=ADAPT_STEPS,
        )


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("fedml-synthetic", "fedml", "synthetic", nodes=50, iterations=100),
        Spec("fedavg-mnist", "fedavg", "mnist", nodes=100, iterations=150),
        Spec(
            "fedml-sent140-vectorized", "fedml", "sent140", nodes=706,
            iterations=10, executor="vectorized",
        ),
        Spec(
            "fleet-fedavg-buffered", "fedavg", "fleet-synthetic",
            nodes=1_000_000, iterations=5, t0=1, executor="fleet",
            eval_every=1,
            fleet={"sampled": 1000, "buffer_size": 128, "staleness_alpha": 0.5},
        ),
    )
}


def scaled(spec: Spec, nodes: int, iterations: int, sampled: int = 0) -> Spec:
    """A smaller copy of ``spec`` (the benchmark's own tests use these)."""
    fleet = spec.fleet
    if fleet is not None and sampled:
        fleet = dict(fleet, sampled=sampled, buffer_size=min(fleet["buffer_size"], sampled))
    return replace(spec, nodes=nodes, iterations=iterations, fleet=fleet)


@dataclass
class Outcome:
    """What one fit produced, reduced to what the checks and metrics need."""

    params: Params
    losses: List[float]
    uplink_bytes: int
    downlink_bytes: int
    resident_peak: int = 0
    resident_bound: int = 0
    updates_aggregated: int = 0


@dataclass
class Prepared:
    """A ready trainer or simulator: call :meth:`fit` once."""

    run: Callable[[], Outcome]
    model: Any
    targets: Callable[[], List[NodeSplit]] = field(repr=False)
    closers: List[Callable[[], None]] = field(default_factory=list)

    def fit(self) -> Outcome:
        try:
            return self.run()
        finally:
            for close in self.closers:
                close()

    def target_acc(self, params: Params) -> float:
        """Mean target test accuracy after ``ADAPT_STEPS`` K-shot steps."""
        curve = evaluate_adaptation(
            self.model, params, self.targets(), alpha=ALPHA, max_steps=ADAPT_STEPS
        )
        return float(curve.accuracies[-1])


def _losses(history: Any) -> List[float]:
    series = history.series("global_meta_loss")
    return series if series else history.series("global_loss")


def _generate(spec: Spec, seed: int) -> Any:
    # Looked up on the package at call time, so a traced run sees the
    # wrapped generators.
    if spec.dataset == "synthetic":
        return data.generate_synthetic(
            data.SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=spec.nodes, seed=seed)
        )
    if spec.dataset == "mnist":
        return data.generate_mnist_like(
            data.MnistLikeConfig(num_nodes=spec.nodes, seed=seed)
        )
    return data.generate_sent140_like(
        data.Sent140LikeConfig(num_nodes=spec.nodes, seed=seed)
    )


def _model(spec: Spec, federated: Any) -> Any:
    if spec.dataset == "synthetic":
        return LogisticRegression(60, 10)
    if spec.dataset == "mnist":
        return LogisticRegression(64, 10)
    return EmbeddingClassifier(
        vocab_size=federated.metadata["vocab_size"],
        embed_dim=16,
        seq_len=federated.metadata["seq_len"],
        hidden_dims=(32, 16),
        num_classes=2,
        batch_norm=True,
        embedding_seed=0,
    )


def _setup_train(spec: Spec, seed: int) -> Prepared:
    federated = _generate(spec, seed)
    model = _model(spec, federated)
    sources, targets = federated.split_sources_targets(
        SOURCE_FRACTION, np.random.default_rng(seed)
    )
    executor = VectorizedExecutor() if spec.executor == "vectorized" else SerialExecutor()
    if spec.algorithm == "fedml":
        trainer: Any = FedML(
            model,
            FedMLConfig(
                alpha=ALPHA, beta=BETA, t0=spec.t0,
                total_iterations=spec.iterations, k=K,
                eval_every=spec.eval_every, seed=seed,
            ),
            executor=executor,
        )
    else:
        trainer = FedAvg(
            model,
            FedAvgConfig(
                learning_rate=BETA, t0=spec.t0,
                total_iterations=spec.iterations,
                eval_every=spec.eval_every, seed=seed,
            ),
            executor=executor,
        )

    def run() -> Outcome:
        result = trainer.fit(federated, sources)
        comm = result.platform.comm_log
        return Outcome(
            params=result.params,
            losses=_losses(result.history),
            uplink_bytes=comm.uplink_bytes,
            downlink_bytes=comm.downlink_bytes,
        )

    return Prepared(
        run, model,
        targets=lambda: target_splits(federated, targets, k=K),
        closers=[executor.close],
    )


def _setup_fleet(spec: Spec, seed: int) -> Prepared:
    assert spec.fleet is not None
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=BETA, t0=spec.t0, total_iterations=spec.iterations,
            eval_every=spec.eval_every, seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=spec.nodes,
        sampled_per_round=spec.fleet["sampled"],
        rounds=spec.iterations // spec.t0,
        local_steps=spec.t0,
        buffer_size=spec.fleet["buffer_size"],
        staleness_alpha=spec.fleet["staleness_alpha"],
        seed=seed,
        eval_every=spec.eval_every,
    )
    simulator = FleetSimulator(strategy, config, shards=shards)

    def run() -> Outcome:
        result = simulator.run()
        return Outcome(
            params=result.params,
            losses=_losses(result.history),
            uplink_bytes=result.comm_log.uplink_bytes,
            downlink_bytes=result.comm_log.downlink_bytes,
            resident_peak=result.resident_peak,
            resident_bound=config.sampled_per_round + config.effective_buffer,
            updates_aggregated=result.updates_aggregated,
        )

    def targets() -> List[NodeSplit]:
        # Seeded held-out ids; each shard is a pure function of its id.
        ids = np.random.default_rng([seed, 1]).choice(
            spec.nodes, size=min(FLEET_TARGETS, spec.nodes), replace=False
        )
        splits = []
        for node_id in sorted(int(i) for i in ids):
            shard: Dataset = shards.make(node_id)
            train, test = shard.split(K)
            splits.append(NodeSplit(train=train, test=test))
        return splits

    return Prepared(run, model, targets=targets)


def setup(spec: Spec, seed: int) -> Prepared:
    """Seed -> ready trainer or simulator (data, split, model, trainer)."""
    if spec.executor == "fleet":
        return _setup_fleet(spec, seed)
    return _setup_train(spec, seed)
