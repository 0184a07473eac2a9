"""Discrete-event wall-clock simulation of a federated training round.

The paper's motivation is *real-time* edge intelligence: what matters at
the edge is wall-clock time, which is governed by heterogeneous device
compute speeds, link conditions, and stragglers — not iteration counts.
This module simulates the timing of synchronous federated rounds:

* each device has a compute profile (seconds per local gradient step, drawn
  from a lognormal fleet distribution) and shares the link model;
* a synchronous round waits for the slowest participating device
  (compute + upload), then broadcasts (download);
* an optional round deadline drops stragglers, trading participation for
  latency — the classic synchronous-FL systems knob.

The simulator is deliberately decoupled from the learning algorithms: it
consumes a round schedule (how many local steps per round, how many bytes
per upload) and produces a timeline, so any of the trainers in
:mod:`repro.core` can be costed by feeding their configuration in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs.telemetry import Telemetry, resolve
from .network import LinkModel

__all__ = [
    "DeviceProfile",
    "RoundOutcome",
    "FleetTimeline",
    "deadline_survivors",
    "sample_fleet",
    "simulate_round",
    "simulate_synchronous_rounds",
]


@dataclass(frozen=True)
class DeviceProfile:
    """Timing characteristics of one edge device."""

    device_id: int
    seconds_per_step: float
    link: LinkModel

    def round_time(self, local_steps: int, upload_bytes: int) -> float:
        """Compute + upload time for one synchronous round."""
        if local_steps < 0 or upload_bytes < 0:
            raise ValueError("local_steps and upload_bytes must be non-negative")
        return (
            local_steps * self.seconds_per_step
            + self.link.upload_time(upload_bytes)
        )


@dataclass(frozen=True)
class RoundOutcome:
    """What happened in one synchronous round.

    Byte accounting mirrors a real synchronous deployment: uplink is only
    charged for devices whose update reached the platform, but the
    broadcast goes to *every* device — dropped stragglers must resync to
    the new global model or they would diverge, so they are charged
    downlink even in rounds they did not contribute to.
    """

    round_index: int
    started_at: float
    finished_at: float
    participants: List[int]
    stragglers_dropped: List[int]
    #: bytes uploaded by the participants (stragglers upload nothing)
    uplink_bytes: int = 0
    #: broadcast bytes, charged to the whole fleet — including stragglers
    downlink_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class FleetTimeline:
    """The full timing record of a simulated training run."""

    rounds: List[RoundOutcome] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.rounds[-1].finished_at if self.rounds else 0.0

    @property
    def mean_round_time(self) -> float:
        if not self.rounds:
            return 0.0
        return float(np.mean([r.duration for r in self.rounds]))

    def participation_rate(self, fleet_size: int) -> float:
        if not self.rounds or fleet_size == 0:
            return 0.0
        return float(
            np.mean([len(r.participants) / fleet_size for r in self.rounds])
        )


def sample_fleet(
    num_devices: int,
    rng: np.random.Generator,
    median_seconds_per_step: float = 0.05,
    heterogeneity: float = 0.5,
    link: Optional[LinkModel] = None,
) -> List[DeviceProfile]:
    """Draw a fleet with lognormal compute-speed heterogeneity.

    ``heterogeneity`` is the σ of the lognormal: 0 gives identical devices;
    around 0.5–1.0 matches reported cross-device variability.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    if heterogeneity < 0:
        raise ValueError("heterogeneity must be non-negative")
    if link is None:
        link = LinkModel()
    speeds = median_seconds_per_step * np.exp(
        rng.normal(0.0, heterogeneity, size=num_devices)
    )
    return [
        DeviceProfile(device_id=i, seconds_per_step=float(s), link=link)
        for i, s in enumerate(speeds)
    ]


def deadline_survivors(
    times: Dict[int, float],
    deadline_s: Optional[float],
    min_participants: int,
) -> List[int]:
    """Ids whose finish time meets the deadline, in ``times`` order.

    If fewer than ``min_participants`` make it, the ``min_participants``
    fastest are kept instead — even past the deadline, ties broken by id —
    and returned sorted by id.  No deadline keeps everyone.
    """
    if deadline_s is None:
        return list(times)
    kept = [node_id for node_id, t in times.items() if t <= deadline_s]
    if len(kept) < min_participants:
        fastest = heapq.nsmallest(
            min_participants, times.items(), key=lambda kv: (kv[1], kv[0])
        )
        kept = sorted(node_id for node_id, _ in fastest)
    return kept


def simulate_round(
    fleet: Sequence[DeviceProfile],
    round_index: int,
    started_at: float,
    local_steps: int,
    upload_bytes: int,
    deadline_s: Optional[float] = None,
    min_participants: int = 1,
) -> RoundOutcome:
    """Simulate one synchronous round starting at ``started_at``.

    All devices compute ``local_steps`` steps and upload; the round closes
    when the slowest *surviving* device finishes, plus the broadcast
    downlink.  With a ``deadline_s``, devices that would exceed it are
    dropped as stragglers, but at least ``min_participants`` are always
    kept — the fastest ones (ties broken by device id) — even past the
    deadline.  Dropped stragglers still receive the broadcast (they resync
    to the new global model), so the round's ``downlink_bytes`` covers the
    whole fleet and the broadcast leg waits on the slowest *fleet* link.
    """
    if not fleet:
        raise ValueError("fleet must not be empty")
    if min_participants < 1 or min_participants > len(fleet):
        raise ValueError("min_participants must be in [1, len(fleet)]")

    times: Dict[int, float] = {
        d.device_id: d.round_time(local_steps, upload_bytes) for d in fleet
    }
    participants = sorted(
        deadline_survivors(times, deadline_s, min_participants)
    )
    dropped = sorted(set(times) - set(participants))
    round_compute = max(times[did] for did in participants)
    # Everyone resyncs — the broadcast is charged across the full fleet.
    broadcast = max(d.link.download_time(upload_bytes) for d in fleet)
    return RoundOutcome(
        round_index=round_index,
        started_at=started_at,
        finished_at=started_at + round_compute + broadcast,
        participants=participants,
        stragglers_dropped=dropped,
        uplink_bytes=upload_bytes * len(participants),
        downlink_bytes=upload_bytes * len(fleet),
    )


def simulate_synchronous_rounds(
    fleet: Sequence[DeviceProfile],
    num_rounds: int,
    local_steps_per_round: int,
    upload_bytes: int,
    deadline_s: Optional[float] = None,
    min_participants: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> FleetTimeline:
    """Simulate ``num_rounds`` synchronous FedAvg/FedML-style rounds.

    Each round is one :func:`simulate_round` chained on the shared clock;
    see that function for the deadline/straggler and byte-accounting rules.
    """
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    if not fleet:
        raise ValueError("fleet must not be empty")
    if min_participants < 1 or min_participants > len(fleet):
        raise ValueError("min_participants must be in [1, len(fleet)]")

    tel = resolve(telemetry)
    timeline = FleetTimeline()
    clock = 0.0
    for round_index in range(1, num_rounds + 1):
        outcome = simulate_round(
            fleet,
            round_index,
            clock,
            local_steps_per_round,
            upload_bytes,
            deadline_s=deadline_s,
            min_participants=min_participants,
        )
        timeline.rounds.append(outcome)
        tel.counter("sim_rounds_total").inc()
        tel.counter("sim_stragglers_dropped_total").inc(
            len(outcome.stragglers_dropped)
        )
        tel.counter("sim_bytes_up_total").inc(outcome.uplink_bytes)
        tel.counter("sim_bytes_down_total").inc(outcome.downlink_bytes)
        tel.histogram("sim_round_seconds").observe(outcome.duration)
        tel.series("sim_participants").observe(
            round_index, len(outcome.participants)
        )
        clock = outcome.finished_at
    tel.gauge("sim_total_seconds").set(timeline.total_time)
    return timeline
