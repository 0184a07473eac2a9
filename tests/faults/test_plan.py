"""Unit tests for fault plans, schedules, and the CLI spec parser."""

import pytest

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
    KillSchedule,
)

NODES = [0, 1, 2, 3, 4]
BLOCKS = 4


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent("meltdown", 0)

    def test_negative_block(self):
        with pytest.raises(ValueError):
            FaultEvent("drop", -1)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", 0, 1, duration=0)

    def test_bad_corruption_mode(self):
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, mode="zero")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, fraction=0.0)
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, fraction=1.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            FaultEvent("delay", 0, 1, delay_s=-1.0)

    def test_bad_fail_times(self):
        with pytest.raises(ValueError):
            FaultEvent("flaky", 0, 1, fail_times=0)


CELLS = [(block, node) for block in range(BLOCKS) for node in NODES]


def decisions(plan):
    """Every per-cell query of ``plan`` over the NODES x BLOCKS grid."""
    return {
        (block, node): (
            plan.crashed(block, node),
            plan.dropped(block, node),
            plan.delay_s(block, node),
            plan.corruption(block, node),
            plan.flaky(block, node),
        )
        for block, node in CELLS
    }


def dropped_cells(plan):
    return {cell for cell in CELLS if plan.dropped(*cell)}


class TestCompile:
    """The per-cell interpreter that replaced the compiled lookup tables."""

    def test_empty_plan_compiles_empty(self):
        plan = FaultPlan.none()
        assert plan.kinds == frozenset()
        assert set(decisions(plan).values()) == {
            (False, False, 0.0, None, 0)
        }
        assert not any(plan.kill_after(block) for block in range(BLOCKS))

    def test_same_seed_same_faults(self):
        schedules = [CrashSchedule(rate=0.3), DropSchedule(rate=0.3)]
        assert decisions(FaultPlan(schedules, seed=42)) == decisions(
            FaultPlan(schedules, seed=42)
        )

    def test_different_seed_different_faults(self):
        schedules = [DropSchedule(rate=0.5)]
        a = dropped_cells(FaultPlan(schedules, seed=0))
        b = dropped_cells(FaultPlan(schedules, seed=1))
        assert a != b

    def test_compile_independent_of_node_order(self):
        """Binding the plan to the same nodes in another order changes
        nothing: the injector's per-block crash set is the same."""
        plan = FaultPlan([CrashSchedule(rate=0.5)], seed=7)
        forward = FaultInjector(plan)
        forward.begin(NODES)
        backward = FaultInjector(plan)
        backward.begin(list(reversed(NODES)))
        for block in range(BLOCKS):
            assert forward.crashed(block) == backward.crashed(block)

    def test_adding_schedule_preserves_earlier_events(self):
        """Each schedule draws its own named stream, so composition is
        stable: appending a schedule never perturbs the ones before it."""
        base = FaultPlan([DropSchedule(rate=0.4)], seed=3)
        extended = FaultPlan(
            [DropSchedule(rate=0.4), CrashSchedule(rate=0.4)], seed=3
        )
        assert dropped_cells(base) == dropped_cells(extended)

    def test_crash_duration_spans_blocks(self):
        plan = FaultPlan(
            [ExplicitSchedule((FaultEvent("crash", 1, 2, duration=2),))]
        )
        crashed = [
            {node for node in NODES if plan.crashed(block, node)}
            for block in range(BLOCKS)
        ]
        assert crashed == [set(), {2}, {2}, set()]

    def test_explicit_event_for_unknown_node_rejected(self):
        plan = FaultPlan([ExplicitSchedule((FaultEvent("drop", 0, 99),))])
        with pytest.raises(ValueError, match="unknown node 99"):
            FaultInjector(plan).begin(NODES)  # the engine binds its nodes
        FaultInjector(plan).begin(NODES + [99])  # a run that has node 99

    def test_kill_schedule_is_not_node_scoped(self):
        plan = FaultPlan([KillSchedule(block=2)])
        assert [b for b in range(BLOCKS) if plan.kill_after(b)] == [2]
        assert plan.kinds == {"kill"}
        plan.check_nodes([])  # no node to bind

    def test_delays_accumulate_and_flaky_takes_max(self):
        events = (
            FaultEvent("delay", 0, 1, delay_s=1.0),
            FaultEvent("delay", 0, 1, delay_s=2.5),
            FaultEvent("flaky", 0, 2, fail_times=1),
            FaultEvent("flaky", 0, 2, fail_times=3),
        )
        plan = FaultPlan([ExplicitSchedule(events)])
        assert plan.delay_s(0, 1) == pytest.approx(3.5)
        assert plan.flaky(0, 2) == 3

    def test_rate_bounds_checked(self):
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError, match="rate"):
                DropSchedule(rate=rate)

    def test_rate_one_hits_every_cell(self):
        plan = FaultPlan([DropSchedule(rate=1.0)])
        assert len(dropped_cells(plan)) == len(NODES) * BLOCKS

    def test_first_corruption_in_plan_order_wins(self):
        events = (
            FaultEvent("corrupt", 0, 1, mode="scale", scale=2.0),
            FaultEvent("corrupt", 0, 1, mode="nan"),
        )
        plan = FaultPlan(
            [ExplicitSchedule(events), CorruptSchedule(rate=1.0, scale=5.0)]
        )
        assert plan.corruption(0, 1) == events[0]
        # the rate schedule still owns every other cell
        assert plan.corruption(0, 2).scale == 5.0
        rate_first = FaultPlan(
            [CorruptSchedule(rate=1.0, scale=5.0), ExplicitSchedule(events)]
        )
        assert rate_first.corruption(0, 1).scale == 5.0

    def test_rate_crash_window_covers_later_blocks(self):
        plan = FaultPlan([CrashSchedule(rate=0.3, duration=2)], seed=4)
        starts = {
            (block, node)
            for block, node in CELLS
            if FaultPlan([CrashSchedule(rate=0.3)], seed=4).crashed(
                block, node
            )
        }
        for block, node in CELLS:
            expected = (block, node) in starts or (block - 1, node) in starts
            assert plan.crashed(block, node) == expected

    def test_schedules_validate_on_construction(self):
        with pytest.raises(ValueError):
            KillSchedule(block=-1)
        with pytest.raises(ValueError):
            CrashSchedule(rate=0.1, duration=0)
        with pytest.raises(ValueError):
            CorruptSchedule(rate=0.1, mode="zero")
        with pytest.raises(ValueError):
            DelaySchedule(rate=0.1, delay_s=-1.0)
        with pytest.raises(ValueError):
            FlakyWorkerSchedule(rate=0.1, fail_times=0)


class TestFromSpec:
    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "crash:rate=0.2,duration=2;"
            "drop:rate=0.1;"
            "corrupt:rate=0.1,mode=scale,scale=5.0;"
            "delay:rate=0.3,delay_s=2.0;"
            "flaky:rate=0.2,fail_times=2;"
            "kill:block=3",
            seed=9,
        )
        kinds = [type(s).__name__ for s in plan.schedules]
        assert kinds == [
            "CrashSchedule",
            "DropSchedule",
            "CorruptSchedule",
            "DelaySchedule",
            "FlakyWorkerSchedule",
            "KillSchedule",
        ]
        assert plan.seed == 9
        assert plan.schedules[0].duration == 2
        assert plan.schedules[2].mode == "scale"
        assert plan.schedules[5].block == 3

    def test_spec_matches_hand_built_plan(self):
        spec = FaultPlan.from_spec("drop:rate=0.4", seed=5)
        built = FaultPlan([DropSchedule(rate=0.4)], seed=5)
        assert decisions(spec) == decisions(built)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_spec("meltdown:rate=0.2")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="bad 'drop' option"):
            FaultPlan.from_spec("drop:severity=9")

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.from_spec("")
        assert plan.schedules == ()
        assert plan.kinds == frozenset()

    def test_with_seed_and_describe(self):
        plan = FaultPlan.from_spec("drop:rate=0.1", seed=1)
        reseeded = plan.with_seed(2)
        assert reseeded.seed == 2
        assert reseeded.schedules == plan.schedules
        assert "DropSchedule" in plan.describe()
        assert "empty" in FaultPlan.none().describe()
