"""Asynchronous federated meta-learning with staleness-aware mixing.

The synchronous Algorithm 1 waits for the slowest node every round — at the
edge (heterogeneous devices, flaky links) that wall-clock price is steep
(see :mod:`repro.federated.simulation`).  The standard systems remedy is
asynchronous aggregation (FedAsync, Xie et al. 2019): the platform applies
each node's contribution the moment it arrives,

    theta_global ← (1 − η_s) · theta_global + η_s · theta_node,
    η_s = η / (1 + staleness)^a,

discounting by how many global versions elapsed since the node last
synchronized.  Here the node contribution is a *meta*-update: each node
runs ``t0`` local FedML steps (eqs. 3–4) between uploads — the same
:class:`~repro.engine.MetaStrategy` step and global meta-loss the
synchronous :class:`~repro.core.FedML` trains with.

The simulation is event-driven: device compute times come from
:class:`~repro.federated.simulation.DeviceProfile`, so fast devices
contribute more often — exactly the behaviour synchronous rounds forbid.
Each local phase is one :func:`~repro.engine.executors.run_node_block`,
the engine's node block, on the stream ``[seed, upload index, node]``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import FederatedDataset
from ..engine import MetaStrategy
from ..engine.executors import run_node_block
from ..federated.node import EdgeNode
from ..federated.simulation import DeviceProfile
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params, detach
from ..obs.telemetry import Telemetry, resolve
from ..utils.logging import RunLogger
from ..utils.serialization import payload_bytes
from .maml import LossFn

__all__ = ["AsyncFedMLConfig", "AsyncFedMLResult", "AsyncFedML"]


@dataclass(frozen=True)
class AsyncFedMLConfig:
    """Hyper-parameters of the asynchronous variant.

    ``mixing`` is the base server mixing rate η; ``staleness_power`` the
    polynomial discount exponent a (0 disables staleness discounting).
    """

    alpha: float = 0.01
    beta: float = 0.01
    t0: int = 5
    total_uploads: int = 100
    k: int = 5
    mixing: float = 0.5
    staleness_power: float = 0.5
    inner_steps: int = 1
    first_order: bool = False
    eval_every: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError("mixing must be in (0, 1]")
        if self.staleness_power < 0:
            raise ValueError("staleness_power must be non-negative")
        if self.t0 < 1 or self.total_uploads < 1 or self.k < 1:
            raise ValueError("t0, total_uploads and k must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class AsyncFedMLResult:
    params: Params
    nodes: List[EdgeNode]
    history: RunLogger
    #: simulated wall-clock seconds at which each upload was applied
    upload_times: List[float] = field(default_factory=list)
    #: staleness (global versions missed) per applied upload
    staleness: List[int] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.upload_times[-1] if self.upload_times else 0.0

    @property
    def global_meta_losses(self) -> List[float]:
        return self.history.series("global_meta_loss")


class AsyncFedML:
    """Event-driven asynchronous FedML runner."""

    def __init__(
        self,
        model: Model,
        config: AsyncFedMLConfig,
        loss_fn: LossFn = cross_entropy,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        self.telemetry = telemetry
        self.strategy = MetaStrategy(model, config, loss_fn)

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        """``G(theta) = Σ ω_i G_i(theta)`` over the source nodes."""
        return self.strategy.global_meta_loss(params, nodes)

    # ------------------------------------------------------------------
    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        fleet: Sequence[DeviceProfile],
        init_params: Optional[Params] = None,
    ) -> AsyncFedMLResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        nodes = self.strategy.build_nodes(federated, source_ids)
        if len(fleet) != len(nodes):
            raise ValueError(
                f"fleet has {len(fleet)} devices but there are {len(nodes)} "
                "source nodes"
            )

        global_params = (
            detach(init_params) if init_params is not None else self.model.init(rng)
        )
        upload_bytes = payload_bytes(global_params)
        global_version = 0
        tel = resolve(self.telemetry)
        history = RunLogger(
            name="async-fedml",
            registry=self.telemetry.registry if self.telemetry else None,
        )
        history.log(0, global_meta_loss=self.global_meta_loss(global_params, nodes))

        uploads_total = tel.counter("fl_uploads_total", algorithm="async-fedml")
        bytes_up = tel.counter("fl_bytes_up_total", algorithm="async-fedml")
        staleness_hist = tel.histogram(
            "fl_staleness",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
            algorithm="async-fedml",
        )

        # Event queue: (finish_time, node_index, version_started_from).
        events: List = []
        pending: dict = {}
        for idx, (node, device) in enumerate(zip(nodes, fleet)):
            duration = device.round_time(cfg.t0, upload_bytes)
            heapq.heappush(events, (duration, idx, global_version))
            pending[idx] = detach(global_params)

        result = AsyncFedMLResult(
            params=global_params, nodes=nodes, history=history
        )
        uploads = 0
        while uploads < cfg.total_uploads and events:
            finish_time, idx, started_version = heapq.heappop(events)
            node = nodes[idx]
            node.params = pending[idx]
            run_node_block(
                self.strategy, [node], cfg.t0, block_index=uploads,
                base_seed=cfg.seed, tel=tel,
            )
            contribution = node.params
            uploads_total.inc()
            bytes_up.inc(upload_bytes)

            staleness = global_version - started_version
            staleness_hist.observe(staleness)
            eta = cfg.mixing / (1.0 + staleness) ** cfg.staleness_power
            global_params = {
                name: type(global_params[name])(
                    (1.0 - eta) * global_params[name].data
                    + eta * contribution[name].data
                )
                for name in global_params
            }
            global_version += 1
            uploads += 1
            result.upload_times.append(finish_time)
            result.staleness.append(staleness)

            if uploads % cfg.eval_every == 0:
                history.log(
                    uploads,
                    global_meta_loss=self.global_meta_loss(global_params, nodes),
                    sim_time=finish_time,
                )

            # The node immediately starts its next local phase from the
            # fresh global model.
            pending[idx] = detach(global_params)
            duration = fleet[idx].round_time(cfg.t0, upload_bytes)
            heapq.heappush(events, (finish_time + duration, idx, global_version))

        tel.gauge("fl_sim_total_seconds", algorithm="async-fedml").set(
            result.total_time
        )
        result.params = detach(global_params)
        history.log(
            uploads,
            global_meta_loss=self.global_meta_loss(global_params, nodes),
            sim_time=result.total_time,
        )
        return result
