"""Built-in intersection simulator: kinematics, actuation, perception,
collision detection, and scenario spawning."""

import dataclasses
import hashlib
import math
import random
import struct

import numpy as np
import pytest

from avguard import sim
from avguard.attacks import FaultDirective
from avguard.config import (
    AttackConfig,
    FaultKind,
    PlannerConfig,
    RouteGoal,
    SafetyParams,
    ScenarioBase,
    SimParams,
    TriggerKind,
    Vec2,
)
from avguard.metrics import trace_hash
from avguard.monitor import safety_check
from avguard.orchestrator import run_scenario
from avguard.planners import plan
from avguard.scenario import reference_specs
from avguard.seeding import stable_mix
from avguard.sim import (
    EGO_INITIAL_SPEED,
    GHOST_ID_BASE,
    SPEED_LIMIT,
    AgentScript,
    advance_arc,
    approach_route,
    build_intersection,
    build_perceived_state,
    command_accel,
    crossing_traffic_within_envelope,
    default_ghost_position,
    detect_collision,
    distance_to_entry,
    ego_route_for,
    maneuver_to_command,
    spawn_world,
    step_dynamics,
)
from avguard.state import (
    AgentKind,
    Maneuver,
    PerceivedObject,
    Provenance,
    normalize_heading,
)
from test_geometry import route_length

PARAMS = SimParams()
GHOST_ATTACK = AttackConfig(kind=FaultKind.GHOST_OBSTACLE,
                            trigger=TriggerKind.AT_TICK, trigger_value=0)
SPOOF_ATTACK = AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                            trigger=TriggerKind.AT_TICK, trigger_value=0)
VECTOR_FIELDS = ("position", "velocity", "half_extent")


class TestAdvanceArc:
    def test_constant_accel_closed_form(self):
        advance, speed = advance_arc(5.0, 1.0, 0.1)
        assert speed == pytest.approx(5.1, abs=1e-12)
        assert advance == pytest.approx(0.505, abs=1e-12)

    def test_stop_within_step(self):
        advance, speed = advance_arc(0.3, -8.0, 0.1)
        assert speed == 0.0
        assert advance == pytest.approx(0.3 ** 2 / (2 * 8.0), abs=1e-12)

    def test_zero_accel_exact(self):
        for v in (0.0, 0.125, 7.3):
            advance, speed = advance_arc(v, 0.0, 0.1)
            assert speed == v
            assert abs(advance - v * 0.1) <= 1e-12

    def test_never_reverses(self):
        advance, speed = advance_arc(0.0, -8.0, 0.1)
        assert speed == 0.0
        assert advance == 0.0


class TestCommandAccel:
    def test_emergency_brake_moving(self):
        a = command_accel(Maneuver.EMERGENCY_BRAKE, 5.0, 20.0, False,
                          SPEED_LIMIT, PARAMS)
        assert a == -8.0

    def test_emergency_brake_stopped(self):
        a = command_accel(Maneuver.EMERGENCY_BRAKE, 0.0, 20.0, False,
                          SPEED_LIMIT, PARAMS)
        assert a == 0.0

    def test_wait_already_stopped(self):
        a = command_accel(Maneuver.WAIT, 0.0, 20.0, False, SPEED_LIMIT, PARAMS)
        assert a == 0.0

    def test_accelerate_at_limit_saturates(self):
        a = command_accel(Maneuver.ACCELERATE, SPEED_LIMIT, 20.0, False,
                          SPEED_LIMIT, PARAMS)
        assert a == 0.0

    def test_accelerate_below_limit(self):
        a = command_accel(Maneuver.ACCELERATE, 4.0, 20.0, False,
                          SPEED_LIMIT, PARAMS)
        assert a == PARAMS.a_accel_max

    def test_wait_brakes_toward_entry(self):
        a = command_accel(Maneuver.WAIT, 8.0, 20.0, False, SPEED_LIMIT, PARAMS)
        assert -PARAMS.a_brake_max <= a <= -3.0

    def test_yield_creep_cap_near_entry_with_traffic(self):
        # 2 m from the entry line with crossing traffic: the creep cap
        # allows at most sqrt(2 * 3 * 1) m/s, so a 4 m/s ego must brake.
        a = command_accel(Maneuver.YIELD, 4.0, 2.0, True, SPEED_LIMIT, PARAMS)
        assert a < 0.0

    def test_yield_without_traffic_tracks_fraction(self):
        a = command_accel(Maneuver.YIELD, 0.0, 50.0, False, SPEED_LIMIT, PARAMS)
        assert a == PARAMS.a_accel_max

    def test_output_always_within_actuator_bounds(self):
        for m in Maneuver:
            for v in (0.0, 3.0, 10.0, 12.0):
                for d in (-5.0, 0.0, 1.0, 30.0):
                    a = command_accel(m, v, d, True, SPEED_LIMIT, PARAMS)
                    assert -PARAMS.a_brake_max <= a <= PARAMS.a_accel_max


class TestStepDynamics:
    def test_ego_advances_along_route(self):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 0, PARAMS)
        s0, v0 = world.ego_s, world.ego.speed
        new = step_dynamics(world, 0.0)
        assert new.clock.tick == 1
        assert new.ego_s == pytest.approx(s0 + v0 * PARAMS.dt, abs=1e-12)
        # The input world is untouched (pure stepping).
        assert world.clock.tick == 0
        assert world.ego_s == s0

    def test_zero_accel_displacement_over_many_ticks(self):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 0, PARAMS)
        s0, v0 = world.ego_s, world.ego.speed
        for _ in range(20):
            world = step_dynamics(world, 0.0)
        assert abs(world.ego_s - (s0 + 20 * v0 * PARAMS.dt)) <= 1e-12

    def test_scripted_agents_follow_profiles(self):
        world = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT, 3, PARAMS)
        script = world.agent_scripts[world.agents[0].id]
        new = step_dynamics(world, 0.0)
        expected = script.route.pose_at(
            script.arc_length_at(new.clock.sim_time))[0]
        assert np.allclose(new.agents[0].position, expected)


class TestDetectCollision:
    def _world_with_agent_at(self, offset):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 0, PARAMS)
        agent = world.agents[0]
        agent.position = world.ego.position + np.asarray(offset)
        agent.heading = world.ego.heading
        return world

    def test_far_agents_no_collision(self):
        world = self._world_with_agent_at([0.0, 10.0])
        assert detect_collision(world) is None

    def test_overlapping_agent_collides(self):
        world = self._world_with_agent_at([0.0, 1.0])
        event = detect_collision(world)
        assert event is not None
        assert event.agent_a == 0
        assert event.overlap_depth > 0


class TestPerception:
    def test_identity_without_faults(self):
        world = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT, 5, PARAMS)
        perceived = build_perceived_state(world, [], PARAMS)
        in_range = [a for a in world.agents
                    if np.hypot(*(a.position - world.ego.position))
                    <= PARAMS.sensing_range]
        assert len(perceived.objects) == len(in_range)
        by_id = {a.id: a for a in in_range}
        for obj in perceived.objects:
            assert obj.provenance == Provenance.REAL
            assert np.array_equal(obj.position, by_id[obj.id].position)
            assert np.array_equal(obj.velocity, by_id[obj.id].velocity)

    def test_ghost_adds_exactly_one_object(self):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 5, PARAMS)
        pos = default_ghost_position(RouteGoal.STRAIGHT)
        directive = FaultDirective(GHOST_ATTACK, start_tick=0, end_tick=10,
                                   ghost_position=pos)
        baseline = build_perceived_state(world, [], PARAMS)
        perceived = build_perceived_state(world, [directive], PARAMS)
        assert len(perceived.objects) == len(baseline.objects) + 1
        ghosts = [o for o in perceived.objects
                  if o.provenance == Provenance.GHOST]
        assert len(ghosts) == 1
        assert ghosts[0].id >= GHOST_ID_BASE
        assert tuple(ghosts[0].position) == pos
        # A ghost is a stationary vehicle.
        assert ghosts[0].kind == AgentKind.VEHICLE
        assert ghosts[0].velocity == (0.0, 0.0)
        assert ghosts[0].half_extent == (2.0, 1.0)
        # Ground truth untouched.
        assert all(a.id < GHOST_ID_BASE for a in world.agents)

    def test_spoof_scales_velocity_only(self):
        world = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT, 5, PARAMS)
        target = world.agents[0]
        target.position = world.ego.position + np.array([0.0, 30.0])
        target.velocity = np.array([0.0, -4.0])
        directive = FaultDirective(
            dataclasses.replace(SPOOF_ATTACK, velocity_scale=2.0),
            start_tick=0, end_tick=10, spoof_target=target.id)
        perceived = build_perceived_state(world, [directive], PARAMS)
        spoofed = next(o for o in perceived.objects if o.id == target.id)
        assert np.allclose(spoofed.velocity, [0.0, -8.0])
        assert np.array_equal(spoofed.position, target.position)
        assert spoofed.provenance == Provenance.SPOOFED
        # Ground truth untouched.
        assert np.allclose(target.velocity, [0.0, -4.0])

    @pytest.mark.parametrize("target", [424242, None])
    def test_spoof_missing_target_skipped(self, caplog, target):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 5, PARAMS)
        directive = FaultDirective(SPOOF_ATTACK, start_tick=0, end_tick=10,
                                   spoof_target=target)
        baseline = build_perceived_state(world, [], PARAMS)
        perceived = build_perceived_state(world, [directive], PARAMS)
        assert perceived.objects == baseline.objects
        assert all(o.provenance == Provenance.REAL for o in perceived.objects)
        assert [r.getMessage() for r in caplog.records] == [
            f"spoof target {target} not perceived at tick 0; skipped"]


class TestSpoofRotation:
    """A spoof with no heading bias only rescales: it calls no sin/cos."""

    def _spoof_run(self, monkeypatch, heading_bias):
        """The reference spoof_attack run 0 with ``heading_bias``; returns
        (trace_hash, number of spoofed perceived objects)."""
        spec = next(s for s in reference_specs() if s.id == "spoof_attack")
        spec = dataclasses.replace(spec, attack=dataclasses.replace(
            spec.attack, heading_bias=heading_bias))
        perceive = sim.build_perceived_state
        spoofed = []

        def counting(*args):
            perceived = perceive(*args)
            spoofed.extend(o for o in perceived.objects
                           if o.provenance == Provenance.SPOOFED)
            return perceived

        monkeypatch.setattr(sim, "build_perceived_state", counting)
        result = run_scenario(spec, stable_mix(0, spec.id, 0))
        return trace_hash(result.records), len(spoofed)

    def test_zero_bias_spoof_never_rotates(self, monkeypatch):
        expected, _ = self._spoof_run(monkeypatch, 0.0)

        def unreachable(*args):
            raise AssertionError("a zero-bias spoof rotated a velocity")

        monkeypatch.setattr(sim, "_rotate", unreachable)
        digest, spoofed = self._spoof_run(monkeypatch, 0.0)
        assert spoofed > 0
        assert digest == expected

    def test_biased_spoof_rotates(self, monkeypatch):
        rotate = sim._rotate
        calls = []

        def counting(*args):
            calls.append(args)
            return rotate(*args)

        monkeypatch.setattr(sim, "_rotate", counting)
        _, spoofed = self._spoof_run(monkeypatch, 0.3)
        assert spoofed > 0
        assert len(calls) == spoofed
        assert all(theta == 0.3 for _, _, theta in calls)


class TestSpawnWorld:
    def test_deterministic_per_seed(self):
        a = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT, 9, PARAMS)
        b = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT, 9, PARAMS)
        assert len(a.agents) == len(b.agents)
        for x, y in zip(a.agents, b.agents):
            assert np.array_equal(x.position, y.position)
            assert np.array_equal(x.velocity, y.velocity)

    def test_seed_jitters_traffic_not_geometry(self):
        a = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 1, PARAMS)
        b = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 2, PARAMS)
        assert a.intersection.conflict_zone == b.intersection.conflict_zone
        assert np.array_equal(a.ego.position, b.ego.position)
        same = (len(a.agents) == len(b.agents) and all(
            np.array_equal(x.position, y.position)
            for x, y in zip(a.agents, b.agents)))
        assert not same

    def test_population_by_scenario_base(self):
        for seed in range(5):
            nominal = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT,
                                  seed, PARAMS)
            assert 1 <= len(nominal.agents) <= 2
            congested = spawn_world(ScenarioBase.CONGESTED, RouteGoal.STRAIGHT,
                                    seed, PARAMS)
            assert 4 <= len(congested.agents) <= 6

    def test_pedestrian_scenario_has_one_crossing_pedestrian(self):
        world = spawn_world(ScenarioBase.PEDESTRIAN_CROSSING,
                            RouteGoal.STRAIGHT, 4, PARAMS)
        pedestrians = [a for a in world.agents
                       if a.kind == AgentKind.PEDESTRIAN]
        assert len(pedestrians) == 1
        # The pedestrian's scripted path crosses the ego lane (x = 2.5).
        script = world.agent_scripts[pedestrians[0].id]
        xs = [x for x, _ in script.route.points]
        assert min(xs) < 2.5 < max(xs)

    def test_ego_initial_state(self):
        world = spawn_world(ScenarioBase.NOMINAL, RouteGoal.STRAIGHT, 0, PARAMS)
        assert world.ego.speed == pytest.approx(EGO_INITIAL_SPEED)
        zone = world.intersection.conflict_zone
        assert distance_to_entry(world.ego_route, world.ego_s, zone) == (
            pytest.approx(40.0))

    @pytest.mark.parametrize("base", list(ScenarioBase))
    def test_agent_ids_increase_after_spawn_and_every_step(self, base):
        # Perception lists objects in world.agents order, which relies on
        # this. A braking ego stops short of the zone, so no step collides.
        for seed in (0, 7):
            worlds = [spawn_world(base, RouteGoal.STRAIGHT, seed, PARAMS)]
            for _ in range(100):
                worlds.append(step_dynamics(worlds[-1], -8.0))
            for world in worlds:
                ids = [a.id for a in world.agents]
                assert all(a < b for a, b in zip(ids, ids[1:])), ids


class TestTrafficEnvelope:
    @staticmethod
    def vehicle(position, velocity):
        return PerceivedObject(1, AgentKind.VEHICLE, Vec2(position),
                               Vec2(velocity), sim.VEHICLE_HALF_EXTENT)

    def test_agent_inside_zone_counts(self):
        zone = build_intersection().conflict_zone
        assert crossing_traffic_within_envelope(
            [self.vehicle((0.0, 0.0), (0.0, 0.0))], zone)

    def test_closing_agent_within_envelope_counts(self):
        zone = build_intersection().conflict_zone
        assert crossing_traffic_within_envelope(
            [self.vehicle((40.0, 2.5), (-5.0, 0.0))], zone)

    def test_receding_agent_ignored(self):
        zone = build_intersection().conflict_zone
        assert not crossing_traffic_within_envelope(
            [self.vehicle((40.0, 2.5), (5.0, 0.0))], zone)

    def test_far_agent_ignored(self):
        zone = build_intersection().conflict_zone
        assert not crossing_traffic_within_envelope(
            [self.vehicle((200.0, 2.5), (-5.0, 0.0))], zone)


class TestRoutesAndGeometry:
    def test_ego_route_reaches_past_zone(self):
        zone = build_intersection().conflict_zone
        for goal in RouteGoal:
            route = ego_route_for(goal)
            s_entry, s_exit = route.zone_entry_exit(zone)
            assert 0.0 < s_entry < s_exit < route_length(route)

    def test_default_ghost_position_on_ego_path(self):
        pos = default_ghost_position(RouteGoal.STRAIGHT)
        route = ego_route_for(RouteGoal.STRAIGHT)
        zone = build_intersection().conflict_zone
        s = route.arc_length_of(np.asarray(pos))
        s_entry, _ = route.zone_entry_exit(zone)
        assert s == pytest.approx(s_entry - 8.0)

    def test_agent_script_linear_profile(self):
        route = ego_route_for(RouteGoal.STRAIGHT)
        script = AgentScript(route=route, s0=5.0, speed=3.0)
        assert script.arc_length_at(0.0) == 5.0
        assert script.arc_length_at(2.0) == pytest.approx(11.0)

    def test_shared_routes_are_built_once(self):
        for goal in RouteGoal:
            assert ego_route_for(goal) is ego_route_for(goal)
        for approach in "NSEW":
            assert approach_route(approach) is approach_route(approach)
        assert build_intersection() is build_intersection()


class TestSharedConstantsReadOnly:
    @pytest.mark.parametrize("goal", list(RouteGoal))
    def test_ego_route_points(self, goal):
        route = ego_route_for(goal)
        before = route.points
        with pytest.raises(TypeError):
            route.points[0][0] = 123.0
        with pytest.raises(TypeError):
            route.points += 1.0
        assert route.points is before
        assert all(is_float_pair(p) for p in route.points)

    @pytest.mark.parametrize("approach", ["N", "S", "E", "W"])
    def test_approach_route_points(self, approach):
        with pytest.raises(TypeError):
            approach_route(approach).points[1][1] = 123.0

    def test_pose_is_made_of_float_pairs(self):
        position, direction, heading = ego_route_for(
            RouteGoal.LEFT_TURN).pose_at(5.0)
        assert type(position) is Vec2 and type(direction) is tuple
        assert all(type(v) is float for v in (*position, *direction, heading))


def is_float_pair(value):
    return (type(value) is Vec2 and len(value) == 2
            and all(type(v) is float for v in value))


class TestGroundTruthWriteProtected:
    """Ground-truth state vectors are immutable float pairs from spawn
    on, and normalize_heading leaves every stepped heading's bits as
    they are."""

    @staticmethod
    def _walk(base, goal, ticks):
        world = spawn_world(base, goal, 11, PARAMS)
        worlds = [world]
        for _ in range(ticks):
            if world.collision is not None:
                break
            world = step_dynamics(world, 0.5)
            worlds.append(world)
        return worlds

    @staticmethod
    def _snapshot(world):
        return [struct.pack("<7d", *a.position, *a.velocity, *a.half_extent,
                            a.heading)
                for a in (world.ego, *world.agents)]

    @pytest.mark.parametrize("base", list(ScenarioBase))
    def test_state_vectors_immutable_after_spawn_and_steps(self, base):
        for world in self._walk(base, RouteGoal.STRAIGHT, 5):
            for state in (world.ego, *world.agents):
                for name in VECTOR_FIELDS:
                    vector = getattr(state, name)
                    assert type(vector) is Vec2, name
                    with pytest.raises(TypeError):
                        vector[0] = 1.0

    @pytest.mark.parametrize("goal", list(RouteGoal))
    @pytest.mark.parametrize("base", list(ScenarioBase))
    def test_stepped_state_is_float_pairs_with_a_normalized_heading(
            self, base, goal):
        # 80 ticks carry the ego through its turn onto the exit segment.
        for world in self._walk(base, goal, 80):
            for state in (world.ego, *world.agents):
                for name in VECTOR_FIELDS:
                    assert is_float_pair(getattr(state, name)), name
                assert type(state.heading) is float
                assert (struct.pack("<d", normalize_heading(state.heading))
                        == struct.pack("<d", state.heading))

    def test_ghost_spoof_and_noise_leave_ground_truth_bytes(self):
        params = SimParams(perception_noise_std=0.5)
        world = spawn_world(ScenarioBase.CONFLICTING_TRAFFIC,
                            RouteGoal.STRAIGHT, 5, params)
        # Step until two agents are in sensing range: one to spoof, one
        # to stay real.
        while len(build_perceived_state(world, [], params).objects) < 2:
            world = step_dynamics(world, -0.5)
        target = build_perceived_state(world, [], params).objects[0]
        active = [
            FaultDirective(GHOST_ATTACK, start_tick=0, end_tick=20,
                           ghost_position=default_ghost_position(
                               RouteGoal.STRAIGHT)),
            FaultDirective(dataclasses.replace(SPOOF_ATTACK, heading_bias=0.3),
                           start_tick=0, end_tick=20, spoof_target=target.id),
        ]
        before = self._snapshot(world)
        perceived = build_perceived_state(world, active, params,
                                          random.Random(3))
        assert {o.provenance for o in perceived.objects} == {
            Provenance.REAL, Provenance.GHOST, Provenance.SPOOFED}
        proposal, _ = plan(perceived, world.ego_goal, PlannerConfig(),
                           world.intersection)
        safety_check(perceived, proposal, SafetyParams(), world.intersection,
                     params)
        step_dynamics(world, maneuver_to_command(proposal, world.ego, world,
                                                 params))
        assert self._snapshot(world) == before
        for obj in perceived.objects:
            for name in ("position", "velocity", "half_extent"):
                assert is_float_pair(getattr(obj, name)), name


# sha256 over spawn plus 100 ticks at zero acceleration, for every base x
# goal x seed 0-39, as computed with the numpy route tables and collision
# test: from 8 m/s the ego passes its turn's corner, so both turning
# routes and their collisions are pinned.
WORLD_STATE_DIGEST = (
    "282354592a078396ac6fce1991bfe005c2aa1ba39a04d38a09ad4ba7f5e19973")


def test_world_states_on_every_route_keep_their_bytes():
    digest = hashlib.sha256()
    for base in ScenarioBase:
        for goal in RouteGoal:
            for seed in range(40):
                world = spawn_world(base, goal, seed, PARAMS)
                for tick in range(101):
                    if tick:
                        world = step_dynamics(world, 0.0)
                    for a in (world.ego, *world.agents):
                        digest.update(struct.pack("<5d", *a.position,
                                                  *a.velocity, a.heading))
                    if world.collision is not None:
                        digest.update(struct.pack(
                            "<q", world.collision.agent_b))
                        break
    assert digest.hexdigest() == WORLD_STATE_DIGEST
