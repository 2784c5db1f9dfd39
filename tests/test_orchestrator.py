"""Orchestration controller: phase sequencing, fault timing, decision
soundness, termination priority, and run-level determinism."""

import dataclasses
import math

import numpy as np
import pytest

from avguard.orchestrator import (
    RolePanic,
    RunContext,
    RunOptions,
    check_termination,
    ego_cleared_now,
    run_scenario,
    run_tick,
)
from avguard.metrics import TerminationStatus, finalize_tick, trace_hash
from avguard.performance import PerfFlags
from avguard.planners import ExternalPlanner
from avguard.scenario import (
    ScenarioSpec,
    default_ghost_attack,
    spawn_scenario,
)
from avguard.sim import (
    GHOST_ID_BASE,
    ScenarioBase,
    build_perceived_state,
    maneuver_to_command,
    spawn_world,
    step_dynamics,
)
from avguard.state import (
    RATIONALE_CAP,
    RATIONALE_TRUNCATION_MARKER,
    Maneuver,
    Verdict,
    VerdictLevel,
)


NOMINAL = ScenarioSpec(id="nominal", base=ScenarioBase.NOMINAL)
GHOST = ScenarioSpec(id="ghost", base=ScenarioBase.NOMINAL,
                     attack=default_ghost_attack())


def fresh_context(spec, seed=0, options=RunOptions(), plan_fn=None):
    world = spawn_scenario(spec, seed)
    return RunContext(spec=spec, seed=seed, options=options, world=world,
                      plan_fn=plan_fn)


class TestRunTick:
    def test_safe_passthrough_advances_under_proposal(self):
        ctx = fresh_context(NOMINAL, seed=0,
                            plan_fn=lambda p, g: (Maneuver.PROCEED, "forced"))
        world_before = ctx.world
        new_world, record = run_tick(ctx)
        assert record.proposed_maneuver == "proceed"
        if record.verdict_level == "safe":
            assert record.final_maneuver == "proceed"
        assert new_world.clock.tick == world_before.clock.tick + 1

    def test_unsafe_overridden_to_emergency_brake(self):
        spec = GHOST
        ctx = fresh_context(spec, seed=0)
        saw_unsafe = False
        for _ in range(spec.max_ticks):
            _, record = run_tick(ctx)
            assert record.recovery_active == (
                record.final_maneuver == "emergency_brake")
            if record.verdict_level == "unsafe":
                saw_unsafe = True
                assert record.final_maneuver == "emergency_brake"
            if check_termination(ctx.world, spec, options=RunOptions()) != (
                    TerminationStatus.RUNNING):
                break
        assert saw_unsafe

    def test_generator_emergency_brake_demoted_to_wait(self):
        ctx = fresh_context(NOMINAL, seed=0,
                            plan_fn=lambda p, g: (Maneuver.EMERGENCY_BRAKE,
                                                  "panic"))
        _, record = run_tick(ctx)
        assert record.proposed_maneuver == "wait"
        assert "demoted" in record.rationale

    def test_generator_rationale_capped_in_every_record(self):
        """run_tick caps the answer of any generator, not only the
        built-in planner's."""
        result = run_scenario(NOMINAL, seed=0, plan_fn=lambda p, g: (
            Maneuver.PROCEED, "x" * 5000))
        assert result.records
        for record in result.records:
            assert len(record.rationale) == RATIONALE_CAP
            assert record.rationale.endswith(RATIONALE_TRUNCATION_MARKER)

    def test_demoted_rationale_capped(self):
        ctx = fresh_context(NOMINAL, seed=0, plan_fn=lambda p, g: (
            Maneuver.EMERGENCY_BRAKE, "y" * RATIONALE_CAP))
        _, record = run_tick(ctx)
        assert record.proposed_maneuver == "wait"
        assert record.rationale.startswith("demoted emergency_brake; ")
        assert len(record.rationale) <= RATIONALE_CAP

    def test_role_failure_wrapped_in_panic(self):
        def exploding(p, g):
            raise RuntimeError("boom")
        ctx = fresh_context(NOMINAL, seed=0, plan_fn=exploding)
        with pytest.raises(RolePanic) as err:
            run_tick(ctx)
        assert err.value.role_id == "generator"
        assert err.value.tick == 0

    @pytest.mark.parametrize("answer", [
        (None, "x"),
        ("proceed", "x"),
        (Maneuver.PROCEED, None),
    ])
    def test_bad_generator_answer_is_a_generator_panic(self, answer):
        ctx = fresh_context(NOMINAL, seed=0, plan_fn=lambda p, g: answer)
        with pytest.raises(RolePanic) as err:
            run_tick(ctx)
        assert err.value.role_id == "generator"
        assert err.value.tick == 0
        assert isinstance(err.value.cause, TypeError)
        assert "(Maneuver, str)" in str(err.value)
        assert ctx.records == []

    def test_collided_world_cannot_tick(self):
        from avguard.state import CollisionEvent
        ctx = fresh_context(NOMINAL, seed=0)
        ctx.world.collision = CollisionEvent(tick=0, agent_a=0, agent_b=1,
                                             overlap_depth=0.2)
        with pytest.raises(ValueError):
            run_tick(ctx)


class TestHandDrivenTicks:
    def _drive_by_hand(self, spec, seed):
        """Tick the way acceptance criterion 03 does: the caller keeps the
        clear streak and decides when to stop."""
        ctx = fresh_context(spec, seed=seed)
        records = []
        for _ in range(spec.max_ticks):
            _, record = run_tick(ctx)
            records.append(record)
            if ctx.world.collision is not None or (
                    ctx.world.clock.tick >= spec.max_ticks):
                break
            if ego_cleared_now(ctx.world):
                ctx.world.clear_streak += 1
                if ctx.world.clear_streak >= spec.grace_ticks:
                    break
            else:
                ctx.world.clear_streak = 0
        return ctx, records

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_hand_driven_records_equal_run_scenario(self, seed):
        for spec in (NOMINAL, GHOST):
            ctx, records = self._drive_by_hand(spec, seed)
            result = run_scenario(spec, seed)
            assert ctx.records == records
            assert records == result.records
            assert trace_hash(records) == trace_hash(result.records)

    def test_cleared_flag_follows_a_moved_ego(self):
        world = spawn_scenario(NOMINAL, 0)
        assert not ego_cleared_now(world)
        _, s_exit = world.ego_route.zone_entry_exit(
            world.intersection.conflict_zone)
        world.ego_s = s_exit + 20.0
        assert ego_cleared_now(world)
        world.ego_s = s_exit - 20.0
        assert not ego_cleared_now(world)


class TestGhostFaultTiming:
    def test_directive_committed_at_t_affects_perception_at_t_plus_1(self):
        """Diff the perceived object lists across the activation tick: no
        ghost on the tick the injector commits, ghost present one tick
        later."""
        spec = GHOST
        ctx = fresh_context(spec, seed=0)
        activation_tick = None
        for _ in range(spec.max_ticks):
            tick = ctx.world.clock.tick
            # Recompute the same pure perception the controller builds
            # during this tick's environment phase.
            active = ctx.injector.active_directives(tick)
            perceived = build_perceived_state(ctx.world, active,
                                              spec.sim_params)
            ghost_ids = {o.id for o in perceived.objects
                         if o.id >= GHOST_ID_BASE}
            _, record = run_tick(ctx)
            if record.active_fault == "ghost_obstacle" and (
                    activation_tick is None):
                activation_tick = tick
            if activation_tick is None and ghost_ids:
                pytest.fail("ghost perceived before any directive window")
            if activation_tick is not None and tick == activation_tick - 1:
                assert not ghost_ids
            if activation_tick is not None and tick == activation_tick:
                assert len(ghost_ids) == 1
                break
        assert activation_tick is not None
        # The injector planned the directive on the tick before the
        # window opened.
        directive = ctx.injector.active[0]
        assert directive.start_tick == activation_tick

    def test_ground_truth_isolated_from_faults(self):
        """Replaying the attacked run's final-maneuver sequence against a
        fault-free world reproduces the ground-truth trajectory exactly."""
        spec = GHOST
        result = run_scenario(spec, seed=3)
        replay = spawn_world(ScenarioBase.NOMINAL, spec.ego_goal, 3,
                             spec.sim_params)
        for record in result.records:
            cmd = maneuver_to_command(Maneuver(record.final_maneuver),
                                      replay.ego, replay, spec.sim_params)
            replay = step_dynamics(replay, cmd)
            assert replay.ego.position[0] == record.ego_position[0]
            assert replay.ego.position[1] == record.ego_position[1]
            assert replay.ego.velocity[1] == record.ego_velocity[1]


class TestCheckTermination:
    def _cleared_world(self, spec, streak):
        world = spawn_scenario(spec, 0)
        _, s_exit = world.ego_route.zone_entry_exit(
            world.intersection.conflict_zone)
        world.ego_s = s_exit + 20.0
        world.ego.position = world.ego_route.pose_at(world.ego_s)[0]
        world.clear_streak = streak
        return world

    def test_collision_dominates_cleared(self):
        spec = NOMINAL
        world = self._cleared_world(spec, streak=spec.grace_ticks)
        from avguard.state import CollisionEvent
        world.collision = CollisionEvent(tick=5, agent_a=0, agent_b=1,
                                         overlap_depth=0.1)
        assert check_termination(world, spec) == TerminationStatus.COLLISION

    def test_cleared_requires_grace_streak(self):
        spec = NOMINAL
        world = self._cleared_world(spec, streak=spec.grace_ticks - 1)
        assert check_termination(world, spec) == TerminationStatus.RUNNING
        world.clear_streak = spec.grace_ticks
        assert check_termination(world, spec) == TerminationStatus.CLEARED

    def test_timeout_at_max_ticks(self):
        spec = ScenarioSpec(id="short", base=ScenarioBase.NOMINAL,
                            max_ticks=5)
        world = spawn_scenario(spec, 0)
        world.clock = dataclasses.replace(world.clock, tick=5)
        assert check_termination(world, spec) == TerminationStatus.TIMEOUT

    def test_halt_on_violation(self):
        spec = NOMINAL
        world = spawn_scenario(spec, 0)
        unsafe = Verdict(level=VerdictLevel.UNSAFE,
                         min_predicted_separation=0.1, time_of_min=1.0)
        options = RunOptions(halt_on_violation=True)
        assert check_termination(world, spec, unsafe, options) == (
            TerminationStatus.HALT_ON_VIOLATION)
        assert check_termination(world, spec, unsafe, RunOptions()) == (
            TerminationStatus.RUNNING)


class TestRunScenario:
    def test_terminates_with_single_terminal_status(self):
        result = run_scenario(NOMINAL, seed=0)
        assert result.termination in (TerminationStatus.CLEARED,
                                      TerminationStatus.COLLISION,
                                      TerminationStatus.TIMEOUT)
        assert result.records

    def test_byte_identical_determinism(self):
        a = run_scenario(GHOST, seed=11)
        b = run_scenario(GHOST, seed=11)
        assert trace_hash(a.records) == trace_hash(b.records)
        assert a.records == b.records

    def test_max_ticks_one_gives_single_record_timeout(self):
        spec = ScenarioSpec(id="one", base=ScenarioBase.NOMINAL, max_ticks=1)
        result = run_scenario(spec, seed=0)
        assert len(result.records) == 1
        assert result.termination == TerminationStatus.TIMEOUT

    def test_recovery_disabled_final_equals_proposal(self):
        result = run_scenario(GHOST, seed=0,
                              options=RunOptions(recovery_enabled=False))
        for record in result.records:
            assert record.final_maneuver == record.proposed_maneuver
            assert not record.recovery_active

    def test_collision_ends_record_stream(self):
        for seed in range(30):
            result = run_scenario(
                ScenarioSpec(id="conflict",
                             base=ScenarioBase.CONFLICTING_TRAFFIC),
                seed=seed, options=RunOptions(recovery_enabled=False))
            if result.termination == TerminationStatus.COLLISION:
                assert result.records[-1].collision
                assert all(not r.collision for r in result.records[:-1])
                return
        pytest.skip("no collision found in 30 seeds")

    def test_cleared_run_stops_advancing(self):
        spec = NOMINAL
        result = run_scenario(spec, seed=1)
        if result.termination == TerminationStatus.CLEARED:
            assert len(result.records) < spec.max_ticks


class TestFinalizeTickContract:
    def _finalize(self, proposal, final):
        world = spawn_scenario(NOMINAL, 0)
        verdict = Verdict(level=VerdictLevel.SAFE,
                          min_predicted_separation=math.inf, time_of_min=0.0)
        return finalize_tick(0, world, proposal, "ok", verdict, PerfFlags(),
                             final, None, 0.0)

    def test_complete_outputs_give_a_record(self):
        record = self._finalize(Maneuver.PROCEED, Maneuver.EMERGENCY_BRAKE)
        assert record.tick == 0
        assert record.proposed_maneuver == "proceed"
        assert record.recovery_active


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestExternalPlanner:
    """The external adapter fails a run the way every generator does."""

    def test_hung_child_is_a_generator_panic(self, planner_script):
        planner = ExternalPlanner(planner_script("""
            import sys, time
            for line in sys.stdin:
                time.sleep(60)
        """), timeout=0.5)
        try:
            with pytest.raises(RolePanic) as err:
                run_scenario(NOMINAL, seed=1, plan_fn=planner.plan)
        finally:
            planner.close()
        assert err.value.role_id == "generator"
        assert err.value.tick == 0
        assert isinstance(err.value.cause, TimeoutError)

    def test_answering_child_gives_a_reproducible_run(self, planner_script):
        hashes = []
        for _ in range(2):
            planner = ExternalPlanner(planner_script("""
                import json, sys
                for line in sys.stdin:
                    print(json.dumps({"maneuver": "proceed",
                                      "rationale": "clear"}), flush=True)
            """), timeout=2.0)
            try:
                result = run_scenario(NOMINAL, seed=1, plan_fn=planner.plan)
            finally:
                planner.close()
            assert result.termination == TerminationStatus.CLEARED
            assert planner.fault_count == 0
            hashes.append(trace_hash(result.records))
        assert hashes[0] == hashes[1]
