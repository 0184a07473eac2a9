"""The one runner behind every algorithm facade in :mod:`repro.core`.

Each paper algorithm and baseline is a local update
(:class:`~repro.engine.strategies.LocalStrategy`) driven through the
shared round loop (:class:`~repro.engine.RoundEngine`).  What is left for
a facade is the public surface — the constructor, ``fit`` and ``local_step``
— and that surface is identical for all of them, so it lives here once.
A facade names its strategy and adds only its algorithm-specific
delegations::

    class FedML(EngineRunner):
        strategy_class = MetaStrategy

``fit`` returns the engine's :class:`~repro.engine.EngineResult` as is;
a facade whose result carries extras overrides :meth:`_result`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Type

from ..data.dataset import FederatedDataset
from ..engine import (
    EngineOptions,
    EngineResult,
    LocalStrategy,
    RoundEngine,
    RunnerStepAdapter,
)
from ..engine.executors import Executor
from ..federated.node import EdgeNode
from ..federated.platform import Platform
from ..federated.sampling import FullParticipation
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from ..obs.telemetry import Telemetry
from .maml import LossFn

__all__ = ["EngineRunner"]


class EngineRunner:
    """Runs ``strategy_class`` over a :class:`FederatedDataset`.

    The runner keeps its collaborators as plain attributes (``platform``,
    ``participation``, ``executor``, ``strategy``, ...) and reads them at
    ``fit`` time, so callers may swap any of them between construction and
    ``fit``.
    """

    #: the algorithm's local update; set by every facade
    strategy_class: Type[LocalStrategy] = LocalStrategy

    def __init__(
        self,
        model: Model,
        config: Any,
        loss_fn: LossFn = cross_entropy,
        platform: Optional[Platform] = None,
        participation: Any = None,
        telemetry: Optional[Telemetry] = None,
        executor: Optional[Executor] = None,
        engine_options: Optional[EngineOptions] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        self.platform = platform if platform is not None else Platform()
        self.participation = (
            participation if participation is not None else FullParticipation()
        )
        self.telemetry = telemetry
        if telemetry is not None and self.platform.telemetry is None:
            self.platform.telemetry = telemetry
        self.executor = executor
        self.engine_options = engine_options
        self.strategy = self.strategy_class(model, config, loss_fn)

    def local_step(self, node: EdgeNode) -> float:
        """One local iteration of the algorithm on ``node``; returns its loss."""
        return self.strategy.local_step(node)

    # ------------------------------------------------------------------
    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        init_params: Optional[Params] = None,
        verbose: bool = False,
        resume: bool = False,
    ) -> EngineResult:
        """Train on ``source_ids`` and return the learned model."""
        strategy: Any = self.strategy
        # Subclasses (the ablation benches) override local_step to inject
        # faults or noise; route the engine through the override when present.
        if type(self).local_step is not EngineRunner.local_step:
            strategy = RunnerStepAdapter(strategy, self)
        engine = RoundEngine(
            strategy,
            platform=self.platform,
            participation=self.participation,
            telemetry=self.telemetry,
            executor=self.executor,
            options=self.engine_options,
        )
        run = engine.fit(
            federated, source_ids, init_params,
            verbose=verbose, resume=resume,
        )
        return self._result(run)

    def _result(self, run: EngineResult) -> EngineResult:
        """Hook: convert the engine's result (default: return it as is)."""
        return run
