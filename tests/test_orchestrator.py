"""Orchestration controller: phase sequencing, fault timing, decision
soundness, termination priority, and run-level determinism."""

import dataclasses
import math

import numpy as np
import pytest

from avguard import metrics, orchestrator, planners, sim
from avguard.attacks import FaultInjector
from avguard.config import PerfThresholds, ScenarioBase
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
    build_perceived_state,
    maneuver_to_command,
    spawn_world,
    step_dynamics,
)
from avguard.state import (
    RATIONALE_CAP,
    RATIONALE_TRUNCATION_MARKER,
    ConflictZone,
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
            if check_termination(ctx.world, spec, False) != (
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


def _raise(*args, **kwargs):
    raise RuntimeError("boom")


def _ghost_activation_tick(seed=0):
    """The tick at which the ghost attack's injector first runs: the
    tick before the first record that carries the ghost."""
    records = run_scenario(GHOST, seed).records
    return next(r.tick for r in records
                if r.active_fault == "ghost_obstacle") - 1


class TestPhaseFailureIsARolePanic:
    """A phase call that raises fails the tick with a ``RolePanic`` naming
    its role and tick, and leaves the run's records, timings and world as
    they were before the tick."""

    @pytest.mark.parametrize("role, owner, name", [
        ("environment", sim, "build_perceived_state"),
        ("safety_monitor", orchestrator, "safety_check"),
        ("security_assessor", ConflictZone, "distance_to"),
        ("security_assessor", FaultInjector, "plan"),
        ("performance_oracle", orchestrator, "ego_cleared_now"),
        ("performance_oracle", orchestrator, "performance_check"),
        ("action_execution", sim, "maneuver_to_command"),
        ("action_execution", sim, "step_dynamics"),
    ])
    def test_phase_failure(self, monkeypatch, role, owner, name):
        ctx = fresh_context(GHOST, seed=0)
        for _ in range(3):
            run_tick(ctx)
        self._assert_panics(monkeypatch, ctx, role, owner, name, tick=3)

    def test_fault_injector_failure_at_the_trigger_tick(self, monkeypatch):
        trigger_tick = _ghost_activation_tick()
        ctx = fresh_context(GHOST, seed=0)
        for _ in range(trigger_tick):
            run_tick(ctx)
        assert ctx.injector.activations == 0
        self._assert_panics(monkeypatch, ctx, "fault_injector", FaultInjector,
                            "activate", tick=trigger_tick)

    def test_oracle_cleared_flag_failure_on_the_first_tick(self, monkeypatch):
        """The oracle computes the cleared flag on every tick, the first
        one included."""
        self._assert_panics(monkeypatch, fresh_context(GHOST, seed=0),
                            "performance_oracle", orchestrator,
                            "ego_cleared_now", tick=0)

    @staticmethod
    def _assert_panics(monkeypatch, ctx, role, owner, name, tick):
        records = list(ctx.records)
        timings = [dict(t) for t in ctx.role_timings_ns]
        world = ctx.world
        monkeypatch.setattr(owner, name, _raise)
        with pytest.raises(RolePanic) as err:
            run_tick(ctx)
        assert err.value.role_id == role
        assert err.value.tick == tick
        assert isinstance(err.value.cause, RuntimeError)
        assert ctx.records == records
        assert ctx.role_timings_ns == timings
        assert ctx.world is world
        assert ctx.world.clock.tick == tick


# Functions perfbench/layers.py replaces in their modules to time the
# tick (``--trace 1``). A call that is inlined, or a reference bound at
# import, would silently drop its spans.
WRAPPED_PER_TICK = [
    (sim, "build_perceived_state"),
    (planners, "plan"),
    (orchestrator, "safety_check"),
    (orchestrator, "performance_check"),
    (sim, "maneuver_to_command"),
    (sim, "step_dynamics"),
    (sim, "detect_collision"),
    (metrics, "finalize_tick"),
    (FaultInjector, "plan"),
    (FaultInjector, "active_directives"),
]


def test_tick_calls_each_function_perfbench_wraps(monkeypatch):
    """One call per tick of each, and one ``activate`` per activation."""
    activate = (FaultInjector, "activate")
    calls = dict.fromkeys([*WRAPPED_PER_TICK, activate], 0)
    planned = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if key == (FaultInjector, "plan"):
                planned.append(result)
            return result
        return wrapper

    for key in calls:
        monkeypatch.setattr(*key, counting(key, getattr(*key)))
    ticks = len(run_scenario(GHOST, seed=0).records)
    activations = sum(attack is not None for attack in planned)
    assert activations >= 1
    assert calls.pop(activate) == activations
    assert calls == dict.fromkeys(WRAPPED_PER_TICK, ticks)


@pytest.mark.parametrize("spec, seed", [(NOMINAL, 0), (GHOST, 3),
                                        (NOMINAL, 11)])
def test_ego_cleared_now_runs_once_per_world(monkeypatch, spec, seed):
    """For a run of n records, the oracle checks worlds 0 to n-1, each on
    the tick that reads it, and run_scenario checks worlds 1 to n, each
    as its tick returns it, to keep the clear streak. check_termination
    checks once more exactly when the streak reaches grace_ticks, which
    ends the run as cleared."""
    checked, at_termination, in_termination = [], [], []
    cleared_now = orchestrator.ego_cleared_now
    terminate = orchestrator.check_termination

    def counting_cleared(world):
        (at_termination if in_termination else checked).append(world)
        return cleared_now(world)

    def counting_termination(*args, **kwargs):
        in_termination.append(True)
        try:
            return terminate(*args, **kwargs)
        finally:
            in_termination.pop()

    monkeypatch.setattr(orchestrator, "ego_cleared_now", counting_cleared)
    monkeypatch.setattr(orchestrator, "check_termination",
                        counting_termination)
    result = run_scenario(spec, seed)
    n = len(result.records)
    assert len(checked) == 2 * n
    oracle, loop = checked[0::2], checked[1::2]
    assert [world.clock.tick for world in oracle] == list(range(n))
    assert [world.clock.tick for world in loop] == list(range(1, n + 1))
    # The world run_scenario checks is the one the next tick's oracle reads.
    assert all(a is b for a, b in zip(loop, oracle[1:]))
    assert at_termination == (
        [loop[-1]] if result.termination == TerminationStatus.CLEARED
        else [])


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

    def test_oracle_follows_a_replaced_world(self):
        """A caller that puts another world in ctx.world between ticks
        gets the oracle's verdict on that world, not the flag the last
        tick left for the world it produced."""
        spec = dataclasses.replace(
            NOMINAL, perf_thresholds=PerfThresholds(max_clearance=0.05))
        ctx = fresh_context(spec, seed=0)
        run_tick(ctx)
        _, record = run_tick(ctx)
        assert record.clearance_exceeded
        before = ctx.world
        _, s_exit = before.ego_route.zone_entry_exit(
            before.intersection.conflict_zone)
        s = s_exit + 20.0
        ctx.world = dataclasses.replace(
            before, ego_s=s, ego=dataclasses.replace(
                before.ego, position=before.ego_route.pose_at(s)[0]))
        assert ego_cleared_now(ctx.world)
        _, record = run_tick(ctx)
        assert not record.clearance_exceeded
        _, record = run_tick(ctx)
        assert not record.clearance_exceeded
        # And back to a world whose ego has not reached the zone.
        ctx.world = before
        _, record = run_tick(ctx)
        assert record.clearance_exceeded

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
        directive = ctx.injector.directive
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
        assert check_termination(world, spec, False) == (
            TerminationStatus.COLLISION)

    def test_cleared_requires_grace_streak(self):
        spec = NOMINAL
        world = self._cleared_world(spec, streak=spec.grace_ticks - 1)
        assert check_termination(world, spec, False) == (
            TerminationStatus.RUNNING)
        world.clear_streak = spec.grace_ticks
        assert check_termination(world, spec, False) == (
            TerminationStatus.CLEARED)

    def test_cleared_dominates_halt(self):
        spec = NOMINAL
        world = self._cleared_world(spec, streak=spec.grace_ticks)
        assert check_termination(world, spec, True) == (
            TerminationStatus.CLEARED)

    def _world_at_max_ticks(self):
        spec = ScenarioSpec(id="short", base=ScenarioBase.NOMINAL,
                            max_ticks=5)
        world = spawn_scenario(spec, 0)
        world.clock = dataclasses.replace(world.clock, tick=5)
        return spec, world

    def test_timeout_at_max_ticks(self):
        spec, world = self._world_at_max_ticks()
        assert check_termination(world, spec, False) == (
            TerminationStatus.TIMEOUT)

    def test_halt_dominates_timeout(self):
        spec, world = self._world_at_max_ticks()
        assert check_termination(world, spec, True) == (
            TerminationStatus.HALT_ON_VIOLATION)

    def test_halt_on_violation(self):
        spec = NOMINAL
        world = spawn_scenario(spec, 0)
        assert check_termination(world, spec, True) == (
            TerminationStatus.HALT_ON_VIOLATION)
        assert check_termination(world, spec, False) == (
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

    def test_child_emergency_brake_is_demoted_not_a_fault(self,
                                                          planner_script):
        """A child's emergency_brake is a known maneuver, demoted as any
        generator's is; it used to count as an unmapped answer."""
        planner = ExternalPlanner(planner_script("""
            import json, sys
            for line in sys.stdin:
                print(json.dumps({"maneuver": "emergency_brake",
                                  "rationale": "x"}), flush=True)
        """), timeout=2.0)
        try:
            result = run_scenario(dataclasses.replace(NOMINAL, max_ticks=20),
                                  seed=7, plan_fn=planner.plan)
        finally:
            planner.close()
        assert len(result.records) == 20
        for record in result.records:
            assert record.proposed_maneuver == "wait"
            assert record.rationale.startswith("demoted emergency_brake; ")
        assert planner.fault_count == 0
