"""Chaos matrix for the fleet path (ISSUE 9 satellite).

The eager engine's chaos suite (``test_chaos.py``) proves faulted runs
are as bit-reproducible as clean ones; this file extends the same claims
to the event-driven fleet simulator under *buffered* aggregation, where
determinism is harder — completion order, staleness corrections, and the
carry-over buffer all have to be pure functions of the seed.  Plus the
strongest rail: kill-and-resume bit-equal to uninterrupted, which forces
the checkpoint to round-trip the aggregation buffer (including the base
models stale entries are anchored to).
"""

import numpy as np
import pytest

from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.faults import FaultPlan, RunInterrupted
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.utils.checkpoint import load_checkpoint, save_checkpoint


def build_simulator(faults=None, checkpoint=None, seed=0, rounds=6,
                    buffer_size=3, round_timeout_s=None):
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=2, total_iterations=rounds * 2,
            eval_every=1, seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=400,
        sampled_per_round=8,
        rounds=rounds,
        local_steps=2,
        buffer_size=buffer_size,
        staleness_alpha=0.5,
        seed=seed,
        round_timeout_s=round_timeout_s,
    )
    return FleetSimulator(
        strategy, config, shards=shards, faults=faults,
        checkpoint_path=checkpoint,
    )


def trees_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[name].data, b[name].data) for name in a
    )


CHAOS_SPECS = [
    "crash:rate=0.3",
    "crash:rate=0.2,duration=2",
    "drop:rate=0.3",
    "delay:rate=0.5,delay_s=5.0",
    "corrupt:rate=0.3,mode=nan",
    "corrupt:rate=0.3,mode=scale,scale=8.0",
    "crash:rate=0.2;drop:rate=0.2;delay:rate=0.3,delay_s=2.0",
]


class TestFleetChaosDeterminism:
    @pytest.mark.parametrize("spec", CHAOS_SPECS)
    def test_faulted_buffered_run_is_bit_reproducible(self, spec):
        plan = FaultPlan.from_spec(spec, seed=7)
        first = build_simulator(faults=plan).run()
        second = build_simulator(faults=plan).run()
        assert trees_equal(first.params, second.params)
        assert first.history.records == second.history.records
        assert first.server_version == second.server_version
        assert first.comm_log.uplink_bytes == second.comm_log.uplink_bytes

    def test_delay_under_timeout_drops_stragglers_deterministically(self):
        plan = FaultPlan.from_spec("delay:rate=0.5,delay_s=100.0", seed=3)
        first = build_simulator(faults=plan, round_timeout_s=10.0).run()
        second = build_simulator(faults=plan, round_timeout_s=10.0).run()
        assert trees_equal(first.params, second.params)
        # The 100s delay blows the 10s deadline: delayed nodes time out,
        # so fewer updates aggregate than in the unfaulted run.
        clean = build_simulator(round_timeout_s=10.0).run()
        assert first.updates_aggregated < clean.updates_aggregated

    def test_nan_corruption_is_quarantined(self):
        plan = FaultPlan.from_spec("corrupt:rate=0.4,mode=nan", seed=1)
        result = build_simulator(faults=plan).run()
        # Poisoned updates never reach the buffer: θ stays finite.
        for tensor in result.params.values():
            assert np.isfinite(tensor.data).all()

    def test_crashed_nodes_cost_no_bytes(self):
        plan = FaultPlan.from_spec("crash:rate=1.0", seed=2)
        result = build_simulator(faults=plan, rounds=2).run()
        # Everyone is down every round: no dispatches, no transfers, no
        # aggregations — but the run itself completes.
        assert result.comm_log.total_bytes == 0
        assert result.server_version == 0


class TestFleetKillAndResume:
    def test_kill_and_resume_bit_equal_to_uninterrupted(self, tmp_path):
        """The checkpoint must round-trip the buffer and its bases."""
        baseline = build_simulator().run()

        ckpt = str(tmp_path / "fleet.ckpt")
        plan = FaultPlan.from_spec("kill:block=2", seed=0)
        with pytest.raises(RunInterrupted) as info:
            build_simulator(faults=plan, checkpoint=ckpt).run()
        assert info.value.block == 2
        assert info.value.checkpoint_path == ckpt

        resumed = build_simulator(faults=plan, checkpoint=ckpt).run(
            resume=True
        )
        assert trees_equal(baseline.params, resumed.params)
        assert baseline.history.records == resumed.history.records
        assert baseline.server_version == resumed.server_version
        assert baseline.comm_log.uplink_bytes == resumed.comm_log.uplink_bytes
        assert (
            baseline.comm_log.downlink_bytes
            == resumed.comm_log.downlink_bytes
        )
        assert baseline.updates_aggregated == resumed.updates_aggregated

    def test_kill_and_resume_under_chaos(self, tmp_path):
        """Kill + crash/delay faults together: resume still bit-equal."""
        spec = "crash:rate=0.2;delay:rate=0.3,delay_s=2.0"
        baseline = build_simulator(
            faults=FaultPlan.from_spec(spec, seed=5)
        ).run()

        ckpt = str(tmp_path / "fleet_chaos.ckpt")
        killing = FaultPlan.from_spec(spec + ";kill:block=3", seed=5)
        with pytest.raises(RunInterrupted):
            build_simulator(faults=killing, checkpoint=ckpt).run()
        resumed = build_simulator(faults=killing, checkpoint=ckpt).run(
            resume=True
        )
        assert trees_equal(baseline.params, resumed.params)
        assert baseline.history.records == resumed.history.records

    def test_resume_rejects_mismatched_seed(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        plan = FaultPlan.from_spec("kill:block=1", seed=0)
        with pytest.raises(RunInterrupted):
            build_simulator(faults=plan, checkpoint=ckpt).run()
        other = build_simulator(checkpoint=ckpt, seed=1)
        with pytest.raises(ValueError, match="seed"):
            other.run(resume=True)

    def test_resume_rejects_other_format_version(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        plan = FaultPlan.from_spec("kill:block=1", seed=0)
        with pytest.raises(RunInterrupted):
            build_simulator(faults=plan, checkpoint=ckpt).run()
        checkpoint = load_checkpoint(ckpt)
        save_checkpoint(
            ckpt, checkpoint.params, dict(checkpoint.state, version=1)
        )
        with pytest.raises(ValueError, match="version 1 .*needs 2"):
            build_simulator(checkpoint=ckpt).run(resume=True)

    def test_resume_rejects_buffered_entry_without_base_tree(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        plan = FaultPlan.from_spec("kill:block=1", seed=0)
        with pytest.raises(RunInterrupted):
            build_simulator(faults=plan, checkpoint=ckpt).run()
        checkpoint = load_checkpoint(ckpt)
        assert checkpoint.state["buffer"], "the kill must leave entries"
        kept = {
            name: tensor
            for name, tensor in checkpoint.params.items()
            if not name.startswith("::fleet::ver::")
        }
        save_checkpoint(ckpt, kept, checkpoint.state)
        with pytest.raises(ValueError, match="no saved base tree"):
            build_simulator(checkpoint=ckpt).run(resume=True)

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            build_simulator().run(resume=True)
