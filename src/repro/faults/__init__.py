"""Deterministic fault injection and engine resilience.

The paper's operating regime is *edge* deployment — unreliable devices and
links are the norm, not the exception.  This package makes that regime
testable: a seeded :class:`FaultPlan` composes schedules of node crashes,
lost/corrupted/delayed updates and flaky executor workers; a
:class:`ResiliencePolicy` tells the round engine how to absorb them
(bounded retry, straggler timeout, NaN quarantine, participant floor); and
the :class:`FaultInjector` wires the two into
:class:`~repro.engine.RoundEngine` between local steps and aggregation.
The plan interprets itself one ``(block, node)`` cell at a time, and the
:class:`~repro.federated.fleet.FleetSimulator` asks it the same per-cell
queries, so one plan means the same faults on both drivers.

The contract throughout: same seed + same plan ⇒ bit-identical results,
across executors and across checkpoint/resume boundaries; and each cell's
decision, rate schedules included, is a pure function of the plan seed
and the cell, unmoved by the run's other nodes or its length.  See
``docs/ENGINE.md`` (integration) and ``docs/TESTING.md`` (chaos suite).
"""

from .injector import FaultInjector, RunInterrupted
from .plan import (
    FAULT_KINDS,
    CorruptSchedule,
    CrashSchedule,
    DelaySchedule,
    DropSchedule,
    ExplicitSchedule,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    FlakyWorkerSchedule,
    KillSchedule,
)
from .policy import FaultToleranceError, ResiliencePolicy

__all__ = [
    "FAULT_KINDS",
    "CorruptSchedule",
    "CrashSchedule",
    "DelaySchedule",
    "DropSchedule",
    "ExplicitSchedule",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FaultToleranceError",
    "FlakyWorkerSchedule",
    "KillSchedule",
    "ResiliencePolicy",
    "RunInterrupted",
]
