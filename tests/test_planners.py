"""Tactical planners: gap-acceptance law, attack reactions, perception
fidelity, and the external-planner wire protocol."""

import math
import threading
import time

import pytest

from avguard.planners import (
    ExternalPlanner,
    PlannerConfig,
    PlannerKind,
    map_maneuver_text,
    perceived_to_request,
    plan,
    required_gap,
)
from avguard.sim import build_intersection, default_ghost_position
from avguard.state import (
    AgentKind,
    EgoOdometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    Provenance,
    RouteGoal,
    SimClock,
    Vec2,
)

GEOMETRY = build_intersection()

# Aggressiveness order used for the monotonicity property.
AGGRESSIVENESS = {
    Maneuver.WAIT: 0,
    Maneuver.YIELD: 1,
    Maneuver.PROCEED_CAUTIOUSLY: 2,
    Maneuver.PROCEED: 3,
    Maneuver.ACCELERATE: 4,
    Maneuver.EMERGENCY_BRAKE: -1,
}


def make_perceived(ego_pos, ego_vel, objects, goal=RouteGoal.STRAIGHT):
    return PerceivedState(
        clock=SimClock(tick=0, dt=0.1),
        ego_odometry=EgoOdometry(position=Vec2((float(ego_pos[0]),
                                                float(ego_pos[1]))),
                                 velocity=Vec2((float(ego_vel[0]),
                                                float(ego_vel[1]))),
                                 heading=math.pi / 2),
        objects=objects,
        goal=goal)


def make_object(obj_id, pos, vel, provenance=Provenance.REAL,
                half_extent=(2.0, 1.0)):
    return PerceivedObject(id=obj_id, kind=AgentKind.VEHICLE,
                           position=Vec2((float(pos[0]), float(pos[1]))),
                           velocity=Vec2((float(vel[0]), float(vel[1]))),
                           half_extent=Vec2((float(half_extent[0]),
                                             float(half_extent[1]))),
                           provenance=provenance)


class TestRequiredGap:
    def test_direct_evaluation(self):
        cfg = PlannerConfig(caution=1.0, reaction_time=0.5)
        assert required_gap(5.0, 15.0, cfg) == pytest.approx(3.5)

    def test_speed_floor_at_one(self):
        cfg = PlannerConfig(caution=1.0, reaction_time=0.5)
        assert required_gap(0.0, 10.0, cfg) == pytest.approx(10.5)

    def test_over_cautious_multiplier(self):
        cfg = PlannerConfig(kind=PlannerKind.OVER_CAUTIOUS, caution=1.0,
                            reaction_time=0.5)
        assert required_gap(5.0, 15.0, cfg) == pytest.approx(8.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            required_gap(5.0, -1.0, PlannerConfig())


class TestGapAcceptancePlan:
    def test_empty_objects_proceeds(self):
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0], [])
        maneuver, rationale = plan(perceived, RouteGoal.STRAIGHT,
                                   PlannerConfig(), GEOMETRY)
        assert maneuver in (Maneuver.PROCEED, Maneuver.ACCELERATE)
        assert "no conflicts" in rationale

    def test_slow_ego_accelerates_on_clear_road(self):
        perceived = make_perceived([2.5, -30.0], [0.0, 3.0], [])
        maneuver, _ = plan(perceived, RouteGoal.STRAIGHT, PlannerConfig(),
                           GEOMETRY)
        assert maneuver == Maneuver.ACCELERATE

    def test_ghost_on_route_forces_wait(self):
        # A stationary obstacle 8 m ahead on the ego route: the planner
        # trusts perception and treats it as a blocker.
        ghost_pos = default_ghost_position(RouteGoal.STRAIGHT)
        ego_pos = [ghost_pos[0], ghost_pos[1] - 8.0]
        ghost = make_object(9001, ghost_pos, [0.0, 0.0],
                            provenance=Provenance.GHOST)
        perceived = make_perceived(ego_pos, [0.0, 6.0], [ghost])
        maneuver, rationale = plan(perceived, RouteGoal.STRAIGHT,
                                   PlannerConfig(), GEOMETRY)
        assert maneuver == Maneuver.WAIT
        assert "block" in rationale

    def test_spoofed_velocity_flips_proceed_to_yield(self):
        """Doubling a crossing car's perceived speed halves its time gap
        and flips the decision at the same geometry."""
        ego = ([2.5, -30.0], [0.0, 8.0])
        honest = make_object(3, [50.0, 2.5], [-6.0, 0.0])
        spoofed = make_object(3, [50.0, 2.5], [-12.0, 0.0],
                              provenance=Provenance.SPOOFED)
        m_honest, _ = plan(make_perceived(*ego, objects=[honest]),
                           RouteGoal.STRAIGHT, PlannerConfig(), GEOMETRY)
        m_spoofed, _ = plan(make_perceived(*ego, objects=[spoofed]),
                            RouteGoal.STRAIGHT, PlannerConfig(), GEOMETRY)
        assert m_honest in (Maneuver.PROCEED, Maneuver.ACCELERATE)
        assert AGGRESSIVENESS[m_spoofed] < AGGRESSIVENESS[m_honest]

    def test_rationale_names_binding_object(self):
        car = make_object(7, [20.0, 2.5], [-8.0, 0.0])
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0], [car])
        maneuver, rationale = plan(perceived, RouteGoal.STRAIGHT,
                                   PlannerConfig(), GEOMETRY)
        assert maneuver != Maneuver.PROCEED
        assert "7" in rationale

    def test_deterministic(self):
        car = make_object(7, [20.0, 2.5], [-8.0, 0.0])
        results = {plan(make_perceived([2.5, -30.0], [0.0, 8.0], [car]),
                        RouteGoal.STRAIGHT, PlannerConfig(), GEOMETRY)
                   for _ in range(5)}
        assert len(results) == 1


class TestPerceptionFidelity:
    def test_provenance_permutation_invariance(self):
        """The planner may only read fields the AUT can see; relabeling
        provenance must not change its output."""
        import itertools
        import random as _random
        rng = _random.Random(5)
        for _ in range(30):
            objects = [make_object(i + 1,
                                   [rng.uniform(-50, 50), rng.choice([2.5, -2.5])],
                                   [rng.uniform(-10, 10), 0.0])
                       for i in range(rng.randint(1, 3))]
            perceived = make_perceived([2.5, rng.uniform(-45, -15)],
                                       [0.0, rng.uniform(1, 9)], objects)
            baseline = plan(perceived, RouteGoal.STRAIGHT, PlannerConfig(),
                            GEOMETRY)
            for labels in itertools.product(list(Provenance),
                                            repeat=len(objects)):
                relabeled = [PerceivedObject(
                    id=o.id, kind=o.kind, position=o.position,
                    velocity=o.velocity, half_extent=o.half_extent,
                    provenance=label)
                    for o, label in zip(objects, labels)]
                permuted = make_perceived(
                    perceived.ego_odometry.position,
                    perceived.ego_odometry.velocity, relabeled)
                assert plan(permuted, RouteGoal.STRAIGHT, PlannerConfig(),
                            GEOMETRY) == baseline


class TestCautionMonotonicity:
    def test_more_caution_never_more_aggressive(self):
        import random as _random
        rng = _random.Random(13)
        for _ in range(50):
            objects = [make_object(1, [rng.uniform(10, 60), 2.5],
                                   [-rng.uniform(2, 10), 0.0])]
            perceived = make_perceived([2.5, rng.uniform(-45, -15)],
                                       [0.0, rng.uniform(1, 9)], objects)
            previous = None
            for caution in (0.5, 1.0, 1.5, 2.5, 4.0):
                cfg = PlannerConfig(caution=caution)
                maneuver, _ = plan(perceived, RouteGoal.STRAIGHT, cfg,
                                   GEOMETRY)
                rank = AGGRESSIVENESS[maneuver]
                if previous is not None:
                    assert rank <= previous
                previous = rank

    def test_kind_multipliers_order(self):
        car = make_object(1, [45.0, 2.5], [-7.0, 0.0])
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0], [car])
        ranks = {}
        for kind in PlannerKind:
            maneuver, _ = plan(perceived, RouteGoal.STRAIGHT,
                               PlannerConfig(kind=kind), GEOMETRY)
            ranks[kind] = AGGRESSIVENESS[maneuver]
        assert ranks[PlannerKind.OVER_CAUTIOUS] <= (
            ranks[PlannerKind.GAP_ACCEPTANCE])
        assert ranks[PlannerKind.GAP_ACCEPTANCE] <= (
            ranks[PlannerKind.AGGRESSIVE])


class TestManeuverTextMapping:
    def test_known_aliases(self):
        assert map_maneuver_text("proceed") == Maneuver.PROCEED
        assert map_maneuver_text("go") == Maneuver.PROCEED
        assert map_maneuver_text("WAIT") == Maneuver.WAIT
        assert map_maneuver_text("proceed_cautiously") == (
            Maneuver.PROCEED_CAUTIOUSLY)

    def test_unmapped_text_is_none(self):
        assert map_maneuver_text("do a barrel roll") is None


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestExternalPlanner:
    """A failed reply leaves no child process, open pipe or reader thread."""

    def test_round_trip(self, planner_script):
        cmd = planner_script("""
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                out = {"maneuver": "yield",
                       "rationale": f"saw {len(req['objects'])} objects"}
                print(json.dumps(out), flush=True)
        """)
        planner = ExternalPlanner(cmd)
        try:
            perceived = make_perceived([2.5, -30.0], [0.0, 8.0],
                                       [make_object(1, [20.0, 2.5],
                                                    [-5.0, 0.0])])
            maneuver, rationale = planner.plan(perceived, RouteGoal.STRAIGHT)
            assert maneuver == Maneuver.YIELD
            assert "1 objects" in rationale
        finally:
            planner.close()

    def test_unmapped_response_becomes_wait(self, planner_script):
        cmd = planner_script("""
            import json, sys
            for line in sys.stdin:
                print(json.dumps({"maneuver": "teleport", "rationale": "x"}),
                      flush=True)
        """)
        planner = ExternalPlanner(cmd)
        try:
            perceived = make_perceived([2.5, -30.0], [0.0, 8.0], [])
            maneuver, _ = planner.plan(perceived, RouteGoal.STRAIGHT)
            assert maneuver == Maneuver.WAIT
        finally:
            planner.close()

    def _assert_fails_without_leaks(self, cmd, error, child_gone_first=False):
        """``plan`` raises ``error`` within 1.5 s and every later
        call raises too; after ``close()`` the child has exited and no
        reader thread is left."""
        threads_before = threading.active_count()
        planner = ExternalPlanner(cmd, timeout=0.5)
        child = planner._proc
        if child_gone_first:
            child.wait()
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0], [])
        try:
            start = time.monotonic()
            with pytest.raises(error):
                planner.plan(perceived, RouteGoal.STRAIGHT)
            assert time.monotonic() - start < 1.5
            with pytest.raises(RuntimeError, match="closed"):
                planner.plan(perceived, RouteGoal.STRAIGHT)
        finally:
            planner.close()
        planner.close()
        assert child.poll() is not None
        assert threading.active_count() <= threads_before

    def test_missed_deadline_raises(self, planner_script):
        cmd = planner_script("""
            import sys, time
            for line in sys.stdin:
                time.sleep(60)
        """)
        self._assert_fails_without_leaks(cmd, TimeoutError)

    def test_child_that_exits_raises(self, planner_script):
        cmd = planner_script("""
            import sys
            sys.stdin.readline()
        """)
        self._assert_fails_without_leaks(cmd, EOFError)

    def test_write_to_an_exited_child_raises(self, planner_script):
        cmd = planner_script("")
        self._assert_fails_without_leaks(cmd, BrokenPipeError,
                                         child_gone_first=True)

    def test_request_schema(self):
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0],
                                   [make_object(4, [20.0, 2.5], [-5.0, 0.0])])
        request = perceived_to_request(perceived)
        assert request["tick"] == 0
        assert request["ego"]["position"] == [2.5, -30.0]
        assert request["objects"][0]["id"] == 4
        assert request["goal"] == "straight"


class TestPlannerConfig:
    def test_rejects_nonpositive_caution(self):
        with pytest.raises(ValueError):
            PlannerConfig(caution=0.0)
