"""The engine's single integration point with the fault subsystem.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to
one run's node ids, a :class:`~repro.faults.policy.ResiliencePolicy` and a
telemetry collector.  The
:class:`~repro.engine.round_engine.RoundEngine` consults it at two points
per block:

1. **before local steps** — which nodes are crashed (skip their block) and
   which workers fail flakily (charge bounded retries, or fail the block
   when the retry budget is exhausted);
2. **between local steps and aggregation** — which updates are dropped,
   corrupted, or delayed; which are straggler-dropped by the policy's
   round timeout on the :class:`~repro.federated.network.LinkModel` clock;
   which are quarantined for non-finite values; and how the
   minimum-participant floor backfills the survivor set.

Every decision comes from the plan's per-cell queries, a pure function of
``(plan seed, block, node)`` — the injector never looks at wall-clock
time, execution order or the rest of the node set, which is what keeps
faulty runs bit-identical across serial and parallel executors and across
checkpoint/resume boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..federated.node import EdgeNode
from ..federated.simulation import deadline_survivors
from ..nn.parameters import all_finite
from ..obs.telemetry import Telemetry, resolve
from ..utils.serialization import payload_bytes
from .plan import FaultPlan
from .policy import FaultToleranceError, ResiliencePolicy

__all__ = ["FaultInjector", "RunInterrupted"]


class RunInterrupted(RuntimeError):
    """A plan-scheduled kill: the run died at a block boundary.

    Carries the iteration the run died at; if the engine was checkpointing,
    ``fit(..., resume=True)`` restarts from the last saved boundary.
    """

    def __init__(self, t: int, block: int, checkpoint_path: Optional[str]):
        self.t = t
        self.block = block
        self.checkpoint_path = checkpoint_path
        where = f"killed at t={t} (block {block})"
        hint = (
            f"; resume from {checkpoint_path}"
            if checkpoint_path
            else "; no checkpoint configured"
        )
        super().__init__(where + hint)


class FaultInjector:
    """Applies one run's fault plan under one resilience policy."""

    def __init__(
        self,
        plan: Optional[FaultPlan],
        policy: Optional[ResiliencePolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._tel = resolve(telemetry)
        #: the run's node ids, ascending; set by begin()
        self._node_ids: List[int] = []
        #: simulated run clock (seconds) accumulated over blocks
        self.sim_clock_s = 0.0

    # -- lifecycle ------------------------------------------------------
    def begin(self, node_ids: Sequence[int], num_blocks: int) -> None:
        """Bind the plan to this run and pre-register the counters."""
        self.plan.bind(set(node_ids), num_blocks)
        self._node_ids = sorted(node_ids)
        for kind in ("crash", "drop", "corrupt", "delay", "flaky"):
            self._tel.counter("fl_faults_total", kind=kind)
        self._tel.counter("fl_retries_total")
        self._tel.counter("fl_quarantined_total")
        self._tel.counter("fl_stragglers_dropped_total")

    # -- counters (shared with the engine's real-failure path) ----------
    def record_fault(
        self,
        kind: str,
        amount: int = 1,
        *,
        block: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        """Count one fault; with block context, log it on the event stream."""
        self._tel.counter("fl_faults_total", kind=kind).inc(amount)
        if block is not None:
            self._tel.events.emit(
                "fault_injected", fault=kind, block=block, node=node,
                count=amount,
            )

    def record_retry(
        self,
        amount: int = 1,
        *,
        block: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        self._tel.counter("fl_retries_total").inc(amount)
        if block is not None:
            self._tel.events.emit(
                "retry", block=block, node=node, count=amount
            )

    # -- before local steps ---------------------------------------------
    def crashed(self, block: int) -> Set[int]:
        """Node ids down for this block (counted once per node-block)."""
        downed: Set[int] = set()
        for node_id in self._node_ids:
            if self.plan.crashed(block, node_id):
                self.record_fault("crash", block=block, node=node_id)
                downed.add(node_id)
        return downed

    def simulate_flaky(
        self, block: int, node_ids: Iterable[int]
    ) -> Tuple[Set[int], Dict[int, float]]:
        """Resolve plan-injected worker flakiness for this block.

        Returns ``(failed, backoff_s)``: nodes whose retry budget the
        failure count exhausts (their block is lost), and the simulated
        backoff seconds charged to each flaky-but-recovered node.
        """
        failed: Set[int] = set()
        backoff: Dict[int, float] = {}
        for node_id in sorted(node_ids):
            fail_times = self.plan.flaky(block, node_id)
            if fail_times == 0:
                continue
            self.record_fault("flaky", block=block, node=node_id)
            retries = min(fail_times, self.policy.max_retries)
            if retries:
                self.record_retry(retries, block=block, node=node_id)
                backoff[node_id] = sum(
                    self.policy.backoff_s(a) for a in range(retries)
                )
            if fail_times > self.policy.max_retries:
                failed.add(node_id)
        return failed, backoff

    def kill_scheduled(self, block: int) -> bool:
        return self.plan.kill_after(block)

    # -- between local steps and aggregation ----------------------------
    def filter_updates(
        self,
        block: int,
        selected: Sequence[EdgeNode],
        stale_ids: Set[int],
        steps: int,
        extra_delay_s: Optional[Dict[int, float]] = None,
    ) -> List[EdgeNode]:
        """Decide which of the ``selected`` updates reach the aggregator.

        ``stale_ids`` are nodes that never computed this block (crashed, or
        their worker failed permanently) — they carry last round's params
        and are only used as a last resort by the participant floor.
        """
        delays = dict(extra_delay_s or {})
        available: List[EdgeNode] = []
        dropped: List[EdgeNode] = []
        stale = [n for n in selected if n.node_id in stale_ids]
        for node in selected:
            if node.node_id in stale_ids:
                continue
            if self.plan.dropped(block, node.node_id):
                self.record_fault("drop", block=block, node=node.node_id)
                dropped.append(node)
                continue
            corrupt = self.plan.corruption(block, node.node_id)
            if corrupt is not None and node.params is not None:
                node.params = self.plan.corrupt(
                    node.params, corrupt, block, node.node_id
                )
                self.record_fault("corrupt", block=block, node=node.node_id)
            plan_delay = self.plan.delay_s(block, node.node_id)
            if plan_delay:
                self.record_fault("delay", block=block, node=node.node_id)
                delays[node.node_id] = delays.get(node.node_id, 0.0) + plan_delay
            available.append(node)

        kept, stragglers = self._apply_timeout(available, delays, steps)
        events = self._tel.events
        for node in stragglers:
            events.emit("straggler_dropped", block=block, node=node.node_id)
        kept, quarantined = self._quarantine(kept)
        for node in quarantined:
            events.emit("quarantine", block=block, node=node.node_id)
        kept = self._enforce_floor(kept, stragglers, dropped, stale)
        if not kept:
            raise FaultToleranceError(
                f"block {block}: no usable updates remain "
                f"({len(quarantined)} quarantined, {len(stale)} stale)"
            )
        return kept

    # ------------------------------------------------------------------
    def _block_time_s(
        self, node: EdgeNode, delays: Dict[int, float], steps: int
    ) -> float:
        """Cost one node's block on the policy's LinkModel clock."""
        policy = self.policy
        upload = 0.0
        if node.params is not None:
            upload = policy.link.upload_time(payload_bytes(node.params))
        return (
            steps * policy.seconds_per_step
            + upload
            + delays.get(node.node_id, 0.0)
        )

    def _apply_timeout(
        self,
        available: List[EdgeNode],
        delays: Dict[int, float],
        steps: int,
    ) -> Tuple[List[EdgeNode], List[EdgeNode]]:
        policy = self.policy
        if policy.round_timeout_s is None or not available:
            return available, []
        times = {
            n.node_id: self._block_time_s(n, delays, steps)
            for n in available
        }
        by_id = {n.node_id: n for n in available}
        kept = [
            by_id[node_id]
            for node_id in deadline_survivors(
                times, policy.round_timeout_s, policy.min_participants
            )
        ]
        kept_ids = {n.node_id for n in kept}
        stragglers = [n for n in available if n.node_id not in kept_ids]
        if stragglers:
            self._tel.counter("fl_stragglers_dropped_total").inc(
                len(stragglers)
            )
        round_time = max(times[n.node_id] for n in kept)
        self.sim_clock_s += round_time
        self._tel.gauge("fl_sim_clock_seconds").set(self.sim_clock_s)
        return kept, stragglers

    def _quarantine(
        self, kept: List[EdgeNode]
    ) -> Tuple[List[EdgeNode], List[EdgeNode]]:
        if not self.policy.quarantine_nonfinite:
            return kept, []
        healthy: List[EdgeNode] = []
        quarantined: List[EdgeNode] = []
        for node in kept:
            finite = node.params is not None and all_finite(node.params)
            (healthy if finite else quarantined).append(node)
        if quarantined:
            self._tel.counter("fl_quarantined_total").inc(len(quarantined))
        return healthy, quarantined

    def _enforce_floor(
        self,
        kept: List[EdgeNode],
        stragglers: List[EdgeNode],
        dropped: List[EdgeNode],
        stale: List[EdgeNode],
    ) -> List[EdgeNode]:
        """Backfill to ``min_participants`` from excluded-but-finite nodes.

        Preference order: straggler updates (computed, merely late), then
        dropped updates (computed, lost in transit — we pretend the
        retransmit succeeded), then stale nodes (last broadcast's params).
        Quarantined updates are never reinstated.
        """
        floor = self.policy.min_participants
        if len(kept) >= floor:
            return kept
        reinstated = list(kept)
        for pool in (stragglers, dropped, stale):
            for node in sorted(pool, key=lambda n: n.node_id):
                if len(reinstated) >= floor:
                    break
                if node.params is not None and all_finite(node.params):
                    reinstated.append(node)
        return reinstated
