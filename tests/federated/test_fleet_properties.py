"""Hypothesis property suite for the fleet simulator.

Four claims the event-driven design stands on:

1. The wave schedule is a *total* order — sort keys ``(time, rank,
   node_id)`` are unique per wave — so drain order (and therefore the
   final θ) is independent of the order nodes were dispatched.
2. Lazy residency is invisible: materialize → evict → rematerialize
   yields bit-identical node state to never evicting.
3. Buffered aggregation at staleness 0 *is* synchronous FedAvg: when the
   buffer only ever holds fresh entries, the flush passes each update
   through untouched and the reduction is the same weighted mean, bit for
   bit, on the same sample sequence.
4. The simulator keeps exactly the base models the buffer needs: after
   every round, and across a save/resume, the base map holds the base
   version of each buffered entry and nothing else.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.faults import FaultPlan, RunInterrupted
from repro.federated.fleet import (
    FleetConfig,
    FleetRegistry,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry


def fleet_run(seed, fleet=200, sampled=8, rounds=3, local_steps=2,
              buffer_size=None, staleness_alpha=0.5, capture_events=False):
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=local_steps,
            total_iterations=rounds * local_steps, eval_every=1, seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=fleet, sampled_per_round=sampled, rounds=rounds,
        local_steps=local_steps, seed=seed, buffer_size=buffer_size,
        staleness_alpha=staleness_alpha,
    )
    sink = MemorySink() if capture_events else None
    telemetry = Telemetry(sink=sink) if capture_events else None
    sim = FleetSimulator(strategy, config, shards=shards,
                         telemetry=telemetry)
    result = sim.run()
    events = (
        [r for r in sink.records if r.get("type") == "event"]
        if capture_events
        else None
    )
    return result, events


def trees_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[name].data, b[name].data) for name in a
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 1.5, 2.0]),  # times with forced ties
            st.sampled_from([0, 1]),  # event-kind rank
        ),
        min_size=2,
        max_size=24,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_wave_order_independent_of_dispatch_order(specs, shuffler):
    """(time, rank, node_id) keys are unique ⇒ one canonical drain order."""
    # One entry per node per wave, exactly as the simulator dispatches them.
    keys = [
        (when, rank, node_id) for node_id, (when, rank) in enumerate(specs)
    ]
    shuffled = list(keys)
    shuffler.shuffle(shuffled)
    assert sorted(shuffled) == sorted(keys)


@given(st.integers(0, 2**16), st.booleans())
@settings(max_examples=8, deadline=None)
def test_same_seed_same_schedule_and_theta(seed, buffered):
    """Double run: identical event stream and bit-identical final θ."""
    buffer_size = 3 if buffered else None
    first, first_events = fleet_run(
        seed, buffer_size=buffer_size, capture_events=True
    )
    second, second_events = fleet_run(
        seed, buffer_size=buffer_size, capture_events=True
    )
    assert first_events == second_events
    assert trees_equal(first.params, second.params)
    assert first.history.records == second.history.records


@given(st.integers(0, 2**16), st.integers(0, 499))
@settings(max_examples=25, deadline=None)
def test_evict_rematerialize_bit_identical_to_resident(seed, node_id):
    shards = SyntheticShardFactory(seed=seed)
    resident = FleetRegistry(500, shards)
    keeper = resident.materialize(node_id)

    churned = FleetRegistry(500, shards)
    churned.materialize(node_id)
    churned.evict(node_id)
    rebuilt = churned.materialize(node_id)

    assert np.array_equal(rebuilt.split.train.x, keeper.split.train.x)
    assert np.array_equal(rebuilt.split.train.y, keeper.split.train.y)
    assert np.array_equal(rebuilt.split.test.x, keeper.split.test.x)
    assert np.array_equal(rebuilt.split.test.y, keeper.split.test.y)
    assert rebuilt.weight == keeper.weight


@given(st.integers(0, 2**16), st.integers(2, 10))
@settings(max_examples=8, deadline=None)
def test_staleness_zero_buffered_reduces_to_synchronous(seed, sampled):
    """buffer == sampled ⇒ every entry fresh ⇒ bitwise FedAvg.

    With the buffer as large as the wave, every flush happens with
    ``base_version == current_version`` for all entries: the discount
    path is never taken (regardless of α) and the flush is the same
    ``weighted_average`` call the synchronous mode makes.
    """
    sync, _ = fleet_run(seed, sampled=sampled, buffer_size=None)
    fresh, _ = fleet_run(
        seed, sampled=sampled, buffer_size=sampled, staleness_alpha=0.5
    )
    extreme, _ = fleet_run(
        seed, sampled=sampled, buffer_size=sampled, staleness_alpha=3.0
    )
    assert trees_equal(sync.params, fresh.params)
    assert trees_equal(sync.params, extreme.params)
    assert sync.history.records == fresh.history.records


# ----------------------------------------------------------------------
# 4. The base map holds exactly the buffered entries' base versions
# ----------------------------------------------------------------------
class CheckedFleet(FleetSimulator):
    """Asserts the base-map invariant after every round and every resume."""

    def check_bases(self):
        assert set(self._bases) == {
            entry.base_version for entry in self.buffer.entries
        }

    def _run_round(self, *args):
        delivered = super()._run_round(*args)
        self.check_bases()
        return delivered

    def _restore(self, history):
        start_round = super()._restore(history)
        self.check_bases()
        return start_round


def checked_fleet(seed, buffer_size, faults=None, checkpoint=None):
    shards = SyntheticShardFactory(seed=seed)
    strategy = SgdStrategy(
        LogisticRegression(shards.input_dim, shards.num_classes),
        FedAvgConfig(
            learning_rate=0.05, t0=1, total_iterations=5, eval_every=1,
            seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=200, sampled_per_round=6, rounds=5, local_steps=1,
        seed=seed, buffer_size=buffer_size,
    )
    return CheckedFleet(
        strategy, config, shards=shards, faults=faults,
        checkpoint_path=checkpoint,
    )


@given(
    st.integers(0, 2**16),
    st.integers(1, 8),
    st.integers(0, 3),
    st.sampled_from(["", "crash:rate=0.3;drop:rate=0.3"]),
)
@settings(max_examples=12, deadline=None)
def test_base_map_holds_exactly_the_buffered_versions(
    seed, buffer_size, kill_block, faults
):
    baseline = FaultPlan.from_spec(faults, seed=1) if faults else None
    uninterrupted = checked_fleet(seed, buffer_size, baseline).run()
    kill = f"kill:block={kill_block}"
    plan = FaultPlan.from_spec(f"{faults};{kill}" if faults else kill, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = f"{tmp}/fleet.ckpt"
        with pytest.raises(RunInterrupted):
            checked_fleet(seed, buffer_size, plan, ckpt).run()
        resumed = checked_fleet(seed, buffer_size, plan, ckpt).run(
            resume=True
        )
    assert trees_equal(resumed.params, uninterrupted.params)
    assert resumed.history.records == uninterrupted.history.records
