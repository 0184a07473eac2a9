"""One fault plan, one set of decisions, on both drivers.

The round engine's :class:`FaultInjector` and the :class:`FleetSimulator`
interpret a :class:`FaultPlan` through the same per-cell queries.  Two
claims pin that down from the outside, through the ``fault_injected``
events each driver emits:

1. **Purity** — a ``(block, node)`` decision depends on the plan and the
   cell alone: adding nodes to the run, or running more blocks, leaves
   every existing cell's crash, drop, delay, corrupt and flaky decision
   unchanged.
2. **Conformance** — for one plan, the engine's injector and the fleet
   decide the same faults for every ``(round, node)`` both of them reach.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.faults import (
    CorruptSchedule,
    CrashSchedule,
    DelaySchedule,
    DropSchedule,
    ExplicitSchedule,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FlakyWorkerSchedule,
    ResiliencePolicy,
)
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.obs import MemorySink, Telemetry

from .test_injector import make_node


def fault_cells(sink):
    """``{(block, node): {kinds}}`` from a run's ``fault_injected`` events."""
    cells = defaultdict(set)
    for record in sink.records:
        if record.get("kind") == "fault_injected":
            cells[(record["block"], record["node"])].add(record["fault"])
    return dict(cells)


def engine_cells(plan, node_ids, blocks):
    """Drive an injector through the engine's per-block call sequence."""
    sink = MemorySink()
    # a retry budget above every fail_times: flaky nodes always recover,
    # so every node reaches filter_updates unless it crashed
    injector = FaultInjector(
        plan, ResiliencePolicy(max_retries=5), Telemetry(sink=sink)
    )
    injector.begin(list(node_ids), blocks)
    for block in range(blocks):
        crashed = injector.crashed(block)
        runnable = [n for n in node_ids if n not in crashed]
        failed, _ = injector.simulate_flaky(block, runnable)
        nodes = [make_node(n) for n in node_ids]
        injector.filter_updates(block, nodes, crashed | failed, steps=1)
    return fault_cells(sink)


def fleet_cells(plan, fleet_size, rounds):
    """Run a fleet that samples every node every round."""
    shards = SyntheticShardFactory(seed=0)
    strategy = SgdStrategy(
        LogisticRegression(shards.input_dim, shards.num_classes),
        FedAvgConfig(
            learning_rate=0.05, t0=1, total_iterations=rounds,
            eval_every=1, seed=0,
        ),
    )
    config = FleetConfig(
        fleet_size=fleet_size,
        sampled_per_round=fleet_size,
        rounds=rounds,
        local_steps=1,
        eval_sample=2,
    )
    sink = MemorySink()
    FleetSimulator(
        strategy, config, shards=shards, telemetry=Telemetry(sink=sink),
        faults=plan,
    ).run()
    return fault_cells(sink)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    extra_nodes=st.integers(1, 3),
    extra_blocks=st.integers(1, 3),
)
def test_decisions_survive_adding_nodes_and_blocks(
    seed, extra_nodes, extra_blocks
):
    plan = FaultPlan(
        [
            CrashSchedule(rate=0.2, duration=2),
            DropSchedule(rate=0.2),
            DelaySchedule(rate=0.3, delay_s=2.0),
            CorruptSchedule(rate=0.2, mode="scale", scale=3.0),
            FlakyWorkerSchedule(rate=0.2, fail_times=2),
        ],
        seed=seed,
    )
    nodes, blocks = 5, 4
    small = engine_cells(plan, range(nodes), blocks)
    large = engine_cells(
        plan, range(nodes + extra_nodes), blocks + extra_blocks
    )
    kept = {
        (block, node): kinds
        for (block, node), kinds in large.items()
        if block < blocks and node < nodes
    }
    assert kept == small


def test_engine_injector_and_fleet_decide_the_same_faults():
    plan = FaultPlan(
        [
            CrashSchedule(rate=0.2, duration=2),
            DropSchedule(rate=0.2),
            DelaySchedule(rate=0.3, delay_s=2.0),
            CorruptSchedule(rate=0.2, mode="scale", scale=3.0),
            ExplicitSchedule(
                (
                    FaultEvent("drop", 1, 3),
                    FaultEvent("delay", 2, 5, delay_s=1.0),
                    FaultEvent("crash", 3, 7, duration=2),
                )
            ),
        ],
        seed=11,
    )
    nodes, rounds = 12, 6
    engine = engine_cells(plan, range(nodes), rounds)
    fleet = fleet_cells(plan, nodes, rounds)
    assert engine == fleet
    # every kind actually fired, so the comparison is not vacuous
    fired = set().union(*engine.values())
    assert fired == {"crash", "drop", "delay", "corrupt"}
