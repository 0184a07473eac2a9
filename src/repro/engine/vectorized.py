"""The vectorized executor: one stacked tape per block instead of N tapes.

Between aggregations nodes are independent, so a block of T0 local steps
over N nodes is N disjoint computations on identically-shaped buffers.
:class:`VectorizedExecutor` exploits that by handing whole *groups* of
nodes to the strategy's ``local_block_vectorized`` — which stacks their
parameter trees and minibatches into ``(N, ...)`` arrays and runs one
batched ``local_step`` using the node-axis autodiff ops — rather than
scheduling per-node work like the serial and parallel executors.

Capability and fallback
-----------------------
A strategy opts in with the ``supports_vectorized`` class flag and a
``vectorized_signature(node)`` grouping key.  Nodes whose signature is
``None`` (ragged data, unsupported model/loss) — or every node, when the
strategy never opted in — run through an internal
:class:`~repro.engine.executors.SerialExecutor` *inside the same block*,
so mixed fleets work and no strategy ever breaks by omission.

Determinism contract
--------------------
Each group runs through the same
:func:`~repro.engine.executors.run_node_block` as a serial node, with
``stacked=True``: per-node generators follow the same ``[base_seed,
block_index, node_id]`` discipline (so the RNG ledger sees identical
streams), failures surface as the same ``ExecutorError``, and with
telemetry off the block reads no clock.  Stacked fp math may reorder
accumulations relative to the serial tapes, so serial-vs-vectorized
equality is *tolerance*-gated; vectorized-vs-vectorized double runs are
bit-identical (asserted by ``repro check-determinism --compare
vectorized`` and the engine bench).  Serial/parallel golden traces are
untouched by construction — this executor never runs unless selected.

Observability: per-group ``local_train_vectorized`` spans, per-node
``node_result`` events (with params fingerprints when enabled), one
``vectorized_block`` event and ``fl_vectorized_nodes_total`` /
``fl_vectorized_fallback_total`` counters per block, plus the standard
per-block ``cache_hit`` fast-path summary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..autodiff import fastpath
from ..federated.node import EdgeNode
from ..obs.telemetry import Telemetry, resolve
from .executors import SerialExecutor, _emit_cache_event, run_node_block

__all__ = ["VectorizedExecutor"]


class VectorizedExecutor:
    """Runs each block as stacked group tapes, serial fallback for the rest."""

    def __init__(self) -> None:
        self._serial = SerialExecutor()

    @staticmethod
    def _partition(
        strategy: Any, nodes: Sequence[EdgeNode]
    ) -> Tuple[Dict[Tuple, List[EdgeNode]], List[EdgeNode]]:
        """Split nodes into signature groups and the serial-fallback rest.

        Group order is first-appearance order over ``nodes``, so the
        schedule is deterministic for a fixed node sequence.
        """
        groups: Dict[Tuple, List[EdgeNode]] = {}
        fallback: List[EdgeNode] = []
        if not getattr(strategy, "supports_vectorized", False):
            return groups, list(nodes)
        for node in nodes:
            signature = strategy.vectorized_signature(node)
            if signature is None:
                fallback.append(node)
            else:
                groups.setdefault(signature, []).append(node)
        return groups, fallback

    def run_block(
        self,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        steps: int,
        *,
        block_index: int,
        base_seed: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        tel = resolve(telemetry)
        groups, fallback = self._partition(strategy, nodes)
        fastpath_base = fastpath.stats().as_dict() if tel.enabled else None
        for group in groups.values():
            run_node_block(
                strategy, group, steps, block_index=block_index,
                base_seed=base_seed, tel=tel, stacked=True,
            )
        if fastpath_base is not None:
            vectorized_count = sum(len(g) for g in groups.values())
            tel.events.emit(
                "vectorized_block", block=block_index,
                vectorized_nodes=vectorized_count,
                fallback_nodes=len(fallback), groups=len(groups),
            )
            tel.counter("fl_vectorized_nodes_total").inc(vectorized_count)
            tel.counter("fl_vectorized_fallback_total").inc(len(fallback))
            # Emit the stacked tapes' fast-path summary before the fallback
            # runs (the serial executor emits its own for the rest).
            _emit_cache_event(
                tel, block_index, fastpath.stats().delta_since(fastpath_base)
            )
        if fallback:
            self._serial.run_block(
                strategy, fallback, steps,
                block_index=block_index, base_seed=base_seed,
                telemetry=telemetry,
            )

    def close(self) -> None:
        """Nothing to release."""
        self._serial.close()
