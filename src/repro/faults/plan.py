"""Deterministic fault plans: *what* goes wrong, *when*, to *whom*.

A :class:`FaultPlan` composes schedules — frozen, validated data: a rate
at which each ``(block, node)`` cell is hit, a kill block, or a literal
list of :class:`FaultEvent` records — and interprets them one cell at a
time.  :meth:`FaultPlan.hits` is the only place a plan turns into
decisions; the round engine's :class:`~repro.faults.injector.FaultInjector`
and the :class:`~repro.federated.fleet.FleetSimulator` both ask the same
per-kind queries of it, so one plan means the same faults on both drivers.

Every decision is a pure function of ``(plan seed, schedule, kind, block,
node)`` through named :mod:`repro.utils.rng` streams: it does not depend
on executor, worker count, resume point, which other nodes the run has,
or how many blocks it runs.  That determinism is the subsystem's headline
guarantee: a faulty run is as bit-reproducible as a clean one.

Fault kinds
-----------
``crash``
    The node is down for ``duration`` blocks starting at ``block``: it runs
    no local steps and uploads nothing, then rejoins via the broadcast of
    the next aggregation it survives to see.
``drop``
    The node computes its block but the update is lost in transit — it is
    excluded from aggregation and resynchronized from the global model.
``corrupt``
    The update arrives damaged: ``mode="nan"`` poisons a ``fraction`` of
    entries with NaN (caught by the policy's quarantine), ``mode="scale"``
    silently multiplies the update by ``scale``.
``delay``
    Delivery is ``delay_s`` simulated seconds late.  Under a policy round
    timeout the node becomes a straggler and is dropped; without one the
    delay only shows up in the simulated round clock.
``flaky``
    The executor worker running the node's block fails ``fail_times``
    times before succeeding; the policy's bounded retry absorbs it (or the
    node misses the block when retries are exhausted).
``kill``
    The whole run dies at the end of ``block`` — after the checkpoint for
    that boundary is written — by raising
    :class:`~repro.faults.injector.RunInterrupted`.  Used to prove
    kill-and-resume bit-exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..autodiff import Tensor
from ..nn.parameters import Params
from ..utils.rng import spawn

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "CrashSchedule",
    "DropSchedule",
    "CorruptSchedule",
    "DelaySchedule",
    "FlakyWorkerSchedule",
    "KillSchedule",
    "ExplicitSchedule",
    "FaultPlan",
    "FAULT_KINDS",
]

FAULT_KINDS = ("crash", "drop", "corrupt", "delay", "flaky", "kill")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault: ``kind`` hits ``node_id`` at ``block``."""

    kind: str
    block: int
    node_id: int = -1  # -1: not node-scoped (kill)
    duration: int = 1  # crash: blocks the node stays down
    mode: str = "nan"  # corrupt: "nan" | "scale"
    fraction: float = 1.0  # corrupt/nan: fraction of entries poisoned
    scale: float = 10.0  # corrupt/scale: multiplier
    delay_s: float = 0.0  # delay: extra simulated seconds
    fail_times: int = 1  # flaky: worker failures before success

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        if self.block < 0:
            raise ValueError("block must be non-negative")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.mode not in ("nan", "scale"):
            raise ValueError(f"unknown corruption mode '{self.mode}'")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.fail_times < 1:
            raise ValueError("fail_times must be >= 1")


class FaultSchedule:
    """Base class: one validated, frozen source of fault events.

    Rate schedules hit every ``(block, node)`` cell independently with
    probability ``rate``; their other fields are the :class:`FaultEvent`
    fields of the same name that a hit cell receives.  Construction
    validates every field, so a bad schedule fails where it is written,
    not when a run first queries it.
    """

    kind: str = "?"
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.event(0, 0)  # FaultEvent's own checks cover the other fields

    def event(self, block: int, node_id: int) -> FaultEvent:
        """The fault a hit on cell ``(block, node_id)`` injects."""
        extra = {
            name: value
            for name, value in vars(self).items()
            if name not in ("kind", "rate")
        }
        return FaultEvent(self.kind, block, node_id, **extra)


@dataclass(frozen=True)
class CrashSchedule(FaultSchedule):
    """Each (block, node) cell starts a crash with probability ``rate``."""

    rate: float
    duration: int = 1
    kind: str = field(default="crash", init=False)


@dataclass(frozen=True)
class DropSchedule(FaultSchedule):
    """Each node's block update is lost with probability ``rate``."""

    rate: float
    kind: str = field(default="drop", init=False)


@dataclass(frozen=True)
class CorruptSchedule(FaultSchedule):
    """Each node's block update is corrupted with probability ``rate``."""

    rate: float
    mode: str = "nan"
    fraction: float = 1.0
    scale: float = 10.0
    kind: str = field(default="corrupt", init=False)


@dataclass(frozen=True)
class DelaySchedule(FaultSchedule):
    """Each node's delivery is ``delay_s`` late with probability ``rate``."""

    rate: float
    delay_s: float = 1.0
    kind: str = field(default="delay", init=False)


@dataclass(frozen=True)
class FlakyWorkerSchedule(FaultSchedule):
    """A node's worker fails ``fail_times`` before success, prob ``rate``."""

    rate: float
    fail_times: int = 1
    kind: str = field(default="flaky", init=False)


@dataclass(frozen=True)
class KillSchedule(FaultSchedule):
    """Kill the run at the end of ``block`` (after its checkpoint)."""

    block: int
    kind: str = field(default="kill", init=False)

    def __post_init__(self) -> None:
        if self.block < 0:
            raise ValueError("block must be non-negative")


@dataclass(frozen=True)
class ExplicitSchedule(FaultSchedule):
    """A literal event list — the fixture-friendly schedule."""

    fault_events: Tuple[FaultEvent, ...]
    kind: str = field(default="explicit", init=False)

    def __post_init__(self) -> None:
        pass  # every FaultEvent validated itself


class FaultPlan:
    """A seeded, composable collection of fault schedules.

    The plan is interpreted one ``(block, node)`` cell at a time by
    :meth:`hits`; the per-kind queries (:meth:`crashed`, :meth:`dropped`,
    :meth:`delay_s`, :meth:`corruption`, :meth:`flaky`,
    :meth:`kill_after`) reduce its events, and :meth:`corrupt` applies a
    corruption.  None of them depends on which other nodes or blocks a
    run has.
    """

    def __init__(
        self, schedules: Sequence[FaultSchedule] = (), seed: int = 0
    ) -> None:
        self.schedules: Tuple[FaultSchedule, ...] = tuple(schedules)
        self.seed = int(seed)
        # Lookup indexes over the frozen schedules: per kind, the
        # (index, schedule) pairs that can hit it, in plan order; explicit
        # events by (schedule index, kind, node); kill blocks.
        self._by_kind: Dict[str, List[Tuple[int, FaultSchedule]]] = {}
        self._explicit: Dict[Tuple[int, str, int], List[FaultEvent]] = {}
        self._kills: Set[int] = set()
        for index, schedule in enumerate(self.schedules):
            if isinstance(schedule, KillSchedule):
                self._kills.add(schedule.block)
            elif isinstance(schedule, ExplicitSchedule):
                for event in schedule.fault_events:
                    if event.kind == "kill":
                        self._kills.add(event.block)
                        continue
                    pairs = self._by_kind.setdefault(event.kind, [])
                    if not pairs or pairs[-1][0] != index:
                        pairs.append((index, schedule))
                    key = (index, event.kind, event.node_id)
                    self._explicit.setdefault(key, []).append(event)
            else:
                self._by_kind.setdefault(schedule.kind, []).append(
                    (index, schedule)
                )
        kinds = set(self._by_kind)
        if self._kills:
            kinds.add("kill")
        #: fault kinds the plan can inject
        self.kinds: FrozenSet[str] = frozenset(kinds)

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The empty plan: the subsystem active, no faults injected."""
        return cls((), seed=seed)

    def bind(self, node_ids: Container[int], num_blocks: int) -> None:
        """Bind the plan to a run of ``num_blocks`` blocks over ``node_ids``:
        reject an explicit event for a node outside the run, and an explicit
        event or a kill at a block the run never reaches."""
        explicit = [e for events in self._explicit.values() for e in events]
        for event in explicit:
            if event.node_id not in node_ids:
                raise ValueError(f"fault event targets unknown node {event.node_id}")
        kills = [FaultEvent("kill", block) for block in sorted(self._kills)]
        for event in explicit + kills:
            if event.block >= num_blocks:
                raise ValueError(
                    f"{event.kind} fault at block {event.block} never fires: "
                    f"the run has {num_blocks} blocks"
                )

    # -- the interpreter ------------------------------------------------
    def hits(
        self, kind: str, block: int, node_id: int
    ) -> Iterator[FaultEvent]:
        """Every ``kind`` event covering cell ``(block, node_id)``, in plan
        order (within an explicit schedule, in listed order).

        A rate schedule hits the cell where one of its crash starts (or,
        for other kinds, the cell itself) draws below ``rate`` from the
        cell's own stream ``(seed, "fleet-fault", index, kind, start,
        node)``: a pure function of the plan and the cell, whatever the
        run's node set, length or executor.  Lazy, so ``any``/``next``
        stop at the first hit; kinds the plan lacks cost no draw.
        """
        for index, schedule in self._by_kind.get(kind, ()):
            if isinstance(schedule, ExplicitSchedule):
                for event in self._explicit.get((index, kind, node_id), ()):
                    span = event.duration if kind == "crash" else 1
                    if event.block <= block < event.block + span:
                        yield event
                continue
            span = (
                schedule.duration if isinstance(schedule, CrashSchedule) else 1
            )
            # "fleet-fault" names the stream family the fleet drew from
            # first; both drivers keep it so fleet runs stay bit-identical
            for start in range(max(0, block - span + 1), block + 1):
                rng = spawn(
                    self.seed, "fleet-fault", index, kind, start, node_id
                )
                if rng.random() < schedule.rate:
                    yield schedule.event(start, node_id)

    def crashed(self, block: int, node_id: int) -> bool:
        """Down this block: inside the window of some crash."""
        return any(self.hits("crash", block, node_id))

    def dropped(self, block: int, node_id: int) -> bool:
        return any(self.hits("drop", block, node_id))

    def delay_s(self, block: int, node_id: int) -> float:
        """Extra delivery seconds; delays on one cell sum."""
        delays = (e.delay_s for e in self.hits("delay", block, node_id))
        return sum(delays, 0.0)

    def flaky(self, block: int, node_id: int) -> int:
        """Worker failures before success; the largest ``fail_times`` wins."""
        return max(
            (e.fail_times for e in self.hits("flaky", block, node_id)),
            default=0,
        )

    def corruption(self, block: int, node_id: int) -> Optional[FaultEvent]:
        """The corruption applied to the cell: the first in plan order."""
        return next(self.hits("corrupt", block, node_id), None)

    def kill_after(self, block: int) -> bool:
        return block in self._kills

    def corrupt(
        self, params: Params, event: FaultEvent, block: int, node_id: int
    ) -> Params:
        """Return a corrupted copy of ``params`` (never mutated in place).

        A partial NaN mask draws from ``(seed, "fleet-corrupt", block,
        node)``, so it too is a pure function of the plan and the cell.
        """
        rng = spawn(self.seed, "fleet-corrupt", block, node_id)
        out: Params = {}
        for name in sorted(params):
            data = np.array(params[name].data, dtype=np.float64, copy=True)
            if event.mode == "scale":
                data *= event.scale
            elif event.fraction >= 1.0:
                data[...] = np.nan
            else:
                mask = rng.random(data.shape) < event.fraction
                data[mask] = np.nan
            out[name] = Tensor(data)
        return out

    # ------------------------------------------------------------------
    #: spec keys accepted per kind, mapped onto schedule constructor args
    _SPEC_KEYS: Dict[str, Dict[str, Callable[[str], Any]]] = {
        "crash": {"rate": float, "duration": int},
        "drop": {"rate": float},
        "corrupt": {
            "rate": float,
            "mode": str,
            "fraction": float,
            "scale": float,
        },
        "delay": {"rate": float, "delay_s": float},
        "flaky": {"rate": float, "fail_times": int},
        "kill": {"block": int},
    }

    #: typed as schedule factories so ``cls(**kwargs)`` checks statically
    _SPEC_CLASSES: Dict[str, Callable[..., FaultSchedule]] = {
        "crash": CrashSchedule,
        "drop": DropSchedule,
        "corrupt": CorruptSchedule,
        "delay": DelaySchedule,
        "flaky": FlakyWorkerSchedule,
        "kill": KillSchedule,
    }

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Grammar: ``kind:key=value,key=value;kind:...`` — e.g.
        ``"crash:rate=0.2;corrupt:rate=0.1,mode=nan;kill:block=3"``.
        """
        schedules: List[FaultSchedule] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, arg_text = part.partition(":")
            kind = kind.strip()
            if kind not in cls._SPEC_CLASSES:
                raise ValueError(
                    f"unknown fault kind '{kind}' "
                    f"(expected one of {sorted(cls._SPEC_CLASSES)})"
                )
            allowed = cls._SPEC_KEYS[kind]
            kwargs: Dict[str, Any] = {}
            for pair in filter(None, (p.strip() for p in arg_text.split(","))):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in allowed:
                    raise ValueError(
                        f"bad '{kind}' option '{pair}' "
                        f"(expected {sorted(allowed)})"
                    )
                kwargs[key] = allowed[key](value.strip())
            schedules.append(cls._SPEC_CLASSES[kind](**kwargs))
        return cls(schedules, seed=seed)

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(self.schedules, seed=seed)

    def describe(self) -> str:
        if not self.schedules:
            return f"FaultPlan(seed={self.seed}, empty)"
        parts = ", ".join(type(s).__name__ for s in self.schedules)
        return f"FaultPlan(seed={self.seed}, [{parts}])"

    __repr__ = describe
