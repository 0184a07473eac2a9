"""Client executors: how one block of local steps is scheduled.

Between two aggregations, nodes are independent — node ``i``'s T0 local
steps never read node ``j``'s state.  That independence is the whole
parallelism budget of the simulator, and an :class:`Executor` spends it:

``SerialExecutor``
    Runs every node's block in-process, node by node.  The reference
    implementation and the default.

``ParallelExecutor``
    Ships ``(strategy, node)`` to a ``ProcessPoolExecutor`` worker per
    node, runs the block there, and copies the mutated node state back.
    Requires the strategy and node to be picklable (true for every
    built-in strategy; *not* true for :class:`RunnerStepAdapter`, which
    closes over a live runner).

Determinism contract: every training loop — these executors, the pool
worker, the fleet simulator and ``AsyncFedML`` — runs a node's block through
:func:`run_node_block`, which binds the strategy's per-node generator
to ``default_rng([base_seed, block_index, node_id])`` before the block,
so a strategy that draws randomness during ``local_step`` gets an
identical stream regardless of executor or worker count.  Since
pickling float64 arrays is lossless, serial and parallel runs are
bit-for-bit identical (asserted in ``tests/engine/test_executors.py``).

Observability: ``run_block`` accepts the run's telemetry.  With telemetry
off, :func:`run_node_block` reads no clock and opens no span.  With it
enabled, each node's block is timed as a ``local_train`` span — emitted
directly in serial mode, and in parallel mode collected by a worker-side
child tracer (seeded from the parent's :class:`~repro.obs.TraceContext`),
shipped home inside a :class:`~repro.obs.WorkerTrace` and re-parented into
the parent's ring buffer and sink, together with the worker's fast-path
counter and tape-profiler deltas.  Per-node ``node_result``/``node_error``
events and a per-block ``cache_hit`` event land on the unified event log.
None of this touches node state or RNG streams: traced runs stay
bit-identical to untraced ones.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..autodiff import fastpath
from ..autodiff import ops as _ops
from ..autodiff.profile import TapeProfiler, worker_profile
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from ..obs.telemetry import NULL_TELEMETRY, Telemetry, resolve
from ..obs.tracing import TraceContext, Tracer, WorkerTrace, reparent
from ..utils.rng import instrument_node_rng
from ..utils.serialization import params_fingerprint

__all__ = [
    "Executor", "ExecutorError", "SerialExecutor", "ParallelExecutor",
    "run_node_block",
]

#: fast-path counter keys surfaced on the per-block ``cache_hit`` event
_CACHE_EVENT_KEYS = ("backwards", "plan_hits", "plan_misses", "raw_vjp_calls")


class ExecutorError(RuntimeError):
    """A node's block failed; carries which node, which block, and why.

    Both executors translate any exception escaping ``local_step`` into
    this, so the engine's retry logic (and a human reading a traceback)
    knows *where* the failure happened without parsing worker stack traces.
    The original exception rides along as ``__cause__``; the formatted
    traceback from the *failing process* — which pickling would otherwise
    discard for pool workers — is preserved as :attr:`worker_traceback`.
    """

    def __init__(
        self,
        node_id: int,
        block_index: int,
        cause: BaseException,
        worker_traceback: Optional[str] = None,
    ):
        self.node_id = node_id
        self.block_index = block_index
        self.worker_traceback = worker_traceback
        super().__init__(
            f"node {node_id} failed in block {block_index}: {cause!r}"
        )


class Executor(Protocol):
    """Schedules one block (``steps`` local iterations) for every node."""

    def run_block(
        self,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        steps: int,
        *,
        block_index: int,
        base_seed: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None: ...

    def close(self) -> None: ...


def _active_profiler() -> Optional[TapeProfiler]:
    """The parent's live tape profiler, when ``profile_ops`` is active."""
    hook = _ops._PROFILE_HOOK
    profiler = getattr(hook, "__self__", None)
    return profiler if isinstance(profiler, TapeProfiler) else None


def _emit_cache_event(tel: Any, block_index: int, delta: Dict[str, int]) -> None:
    """One ``cache_hit`` event per block summarising fast-path activity."""
    if delta.get("backwards", 0):
        tel.events.emit(
            "cache_hit",
            block=block_index,
            **{k: delta.get(k, 0) for k in _CACHE_EVENT_KEYS},
        )


def _emit_node_result(
    tel: Any, node: EdgeNode, block_index: int, steps: int, duration: float,
    **fields: Any,
) -> None:
    if tel.node_fingerprints:
        fields["params_fp"] = params_fingerprint(node.params)
    tel.events.emit(
        "node_result", node=node.node_id, block=block_index, steps=steps,
        duration_s=duration, **fields,
    )


def run_node_block(
    strategy: Any,
    nodes: Sequence[EdgeNode],
    steps: int,
    *,
    block_index: int,
    base_seed: int,
    tel: Any = NULL_TELEMETRY,
    stacked: bool = False,
    **span_attributes: Any,
) -> None:
    """One node's block of ``steps`` local steps: the unit of Algorithm 1.

    Binds the ``[base_seed, block_index, node_id]`` stream, runs ``steps`` ×
    ``local_step`` on the one node in ``nodes`` (``stacked``: one
    ``local_block_vectorized`` over a signature group), and raises a
    failure as :class:`ExecutorError`.  Only with ``tel`` enabled does it
    read the clock, open the ``local_train`` (``_vectorized``) span and
    emit ``node_error`` / ``node_result``.
    """
    rngs = [
        instrument_node_rng(
            np.random.default_rng([base_seed, block_index, node.node_id]),
            block_index,
            node.node_id,
        )
        for node in nodes
    ]
    traced = tel.enabled
    if traced:
        start = time.perf_counter()
        where = {"nodes": len(nodes)} if stacked else {"node": nodes[0].node_id}
        span = tel.span(
            "local_train_vectorized" if stacked else "local_train",
            **where, block=block_index, steps=steps, **span_attributes,
        )
    try:
        if stacked:
            strategy.local_block_vectorized(nodes, steps, rngs)
        else:
            (node,) = nodes
            strategy.bind_node_rng(rngs[0])
            for _ in range(steps):
                strategy.local_step(node)
    except Exception as exc:
        worker_tb = traceback.format_exc()
        if traced:
            span.set(error=repr(exc))
            span.end()
            tel.events.emit(
                "node_error", node=nodes[0].node_id, block=block_index,
                error=repr(exc), traceback=worker_tb,
            )
        raise ExecutorError(
            nodes[0].node_id, block_index, exc, worker_traceback=worker_tb,
        ) from exc
    if not traced:
        return
    span.end()
    duration = (time.perf_counter() - start) / len(nodes)
    marker = {"vectorized": True} if stacked else {}
    for node in nodes:
        _emit_node_result(tel, node, block_index, steps, duration, **marker)


class SerialExecutor:
    """In-process, node-by-node execution (the reference schedule)."""

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
        fastpath_base = fastpath.stats().as_dict() if tel.enabled else None
        for node in nodes:
            run_node_block(
                strategy, [node], steps,
                block_index=block_index, base_seed=base_seed, tel=tel,
            )
        if fastpath_base is not None:
            _emit_cache_event(
                tel, block_index, fastpath.stats().delta_since(fastpath_base)
            )

    def close(self) -> None:
        """Nothing to release."""


def _run_node_block(
    strategy: Any,
    node: EdgeNode,
    steps: int,
    seed: List[int],
    trace: Optional[TraceContext] = None,
) -> Tuple[Optional[Params], int, int, Optional[WorkerTrace]]:
    """Worker entry point: one node's block, run in a forked process.

    Returns the node state that ``local_step`` is allowed to mutate; the
    parent copies it back onto its own ``EdgeNode``.  Strategy-side
    mutations in the worker are discarded — per-fit strategy state must
    only change in the engine's hooks (``on_aggregate``/``on_block_end``),
    which always run in the parent.

    With a :class:`TraceContext`, the block is additionally timed by a
    private child tracer whose finished spans (plus the fast-path counter
    delta and, when requested, tape-profiler statistics) return in a
    :class:`WorkerTrace` for the parent to re-parent and merge.  On
    failure the original exception is re-raised with the formatted worker
    traceback attached (instance attributes survive pickling), so the
    parent can report *why* the worker died, not just that it did.
    """
    worker: Optional[WorkerTrace] = None
    tel: Any = NULL_TELEMETRY
    if trace is not None:
        worker = WorkerTrace()
        tel = Telemetry(tracer=Tracer(ring_size=64))
        fastpath_base = fastpath.stats().as_dict()
    profiling: ContextManager[Optional[TapeProfiler]] = (
        worker_profile()
        if trace is not None and trace.profile_tape
        else nullcontext()
    )
    try:
        with profiling as prof:
            run_node_block(
                strategy, [node], steps, block_index=seed[1],
                base_seed=seed[0], tel=tel, worker=True,
            )
    except ExecutorError as err:
        cause = err.__cause__
        assert cause is not None
        cause._worker_traceback = err.worker_traceback  # type: ignore[attr-defined]
        raise cause
    if worker is not None:
        if prof is not None:
            worker.op_stats = prof.as_portable()
            worker.graph_walks = prof.graph_walks
            worker.walked_nodes = prof.walked_nodes
            worker.allocations = prof.allocations
        worker.spans = tel.tracer.records()
        worker.fastpath_delta = fastpath.stats().delta_since(fastpath_base)
    return node.params, node.local_steps, node.gradient_evaluations, worker


class ParallelExecutor:
    """One worker process per node block, results applied in node order.

    The pool is created lazily on first use and should be released with
    :meth:`close` (the engine does this via context management; the class
    also works as a context manager directly).

    Lifecycle contract: :meth:`run_block` after :meth:`close` does NOT
    fail — it transparently re-creates the pool (every block entry goes
    through ``_ensure_pool``), so an executor can be reused across
    ``fit()`` calls that each close it.  Pinned by
    ``tests/engine/test_executors.py`` (both at the fit level and with a
    direct ``run_block``-after-``close`` regression test); a fresh pool
    cannot affect results because all state lives in the submitted
    ``(strategy, node, seed)`` payloads, never in the workers.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

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
        pool = self._ensure_pool()
        tel = resolve(telemetry)
        trace: Optional[TraceContext] = None
        profiler: Optional[TapeProfiler] = None
        if tel.enabled:
            profiler = _active_profiler()
            trace = tel.trace_context(profile_tape=profiler is not None)
        futures = [
            pool.submit(
                _run_node_block,
                strategy,
                node,
                steps,
                [base_seed, block_index, node.node_id],
                trace,
            )
            for node in nodes
        ]
        events = tel.events
        first_error: Optional[ExecutorError] = None
        cache_delta: Dict[str, int] = {}
        for node, future in zip(nodes, futures):
            try:
                params, local_steps, gradient_evaluations, worker = (
                    future.result()
                )
            except Exception as exc:
                # Keep draining: every future must settle or the pool's
                # worker slots stay occupied by doomed tasks.  The first
                # failure in node order is the one reported (deterministic
                # regardless of which worker raced ahead); every failure
                # is logged as a node_error event so retries and drops
                # stay attributable post-hoc.
                worker_tb = getattr(exc, "_worker_traceback", None)
                events.emit(
                    "node_error", node=node.node_id, block=block_index,
                    error=repr(exc), traceback=worker_tb,
                )
                if first_error is None:
                    first_error = ExecutorError(
                        node.node_id, block_index, exc,
                        worker_traceback=worker_tb,
                    )
                    first_error.__cause__ = exc
                continue
            if first_error is None:
                node.params = params
                node.local_steps = local_steps
                node.gradient_evaluations = gradient_evaluations
                if worker is not None and trace is not None:
                    self._merge_worker_trace(
                        tel, trace, worker, node, block_index, steps,
                        profiler, cache_delta,
                    )
        if first_error is not None:
            raise first_error
        _emit_cache_event(tel, block_index, cache_delta)

    @staticmethod
    def _merge_worker_trace(
        tel: Any,
        trace: TraceContext,
        worker: WorkerTrace,
        node: EdgeNode,
        block_index: int,
        steps: int,
        profiler: Optional[TapeProfiler],
        cache_delta: Dict[str, int],
    ) -> None:
        """Fold one worker's trace bundle into the parent collectors."""
        duration = 0.0
        for record in worker.spans:
            if record.name == "local_train" and record.depth == 0:
                duration = record.duration
            tel.ingest_span(reparent(record, trace))
        _emit_node_result(tel, node, block_index, steps, duration)
        fastpath.merge_stats(worker.fastpath_delta)
        for key, value in worker.fastpath_delta.items():
            cache_delta[key] = cache_delta.get(key, 0) + value
        if profiler is not None and (worker.op_stats or worker.graph_walks):
            profiler.merge_portable(
                worker.op_stats,
                worker.graph_walks,
                worker.walked_nodes,
                worker.allocations,
            )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
