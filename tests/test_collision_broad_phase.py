"""detect_collision's circumscribed-disc broad phase never changes the
answer: it finds the same agent, with the same depth, as testing every
agent with the separating-axis overlap in id order."""

import math

import pytest

from avguard import geometry, sim
from avguard.config import Vec2
from avguard.geometry import obb_overlap, rect_corners
from avguard.sim import build_intersection, detect_collision
from avguard.state import (
    EGO_ID,
    AgentKind,
    AgentState,
    GroundTruthWorld,
    SimClock,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

VEHICLE = (2.0, 1.0)
DISC_SUM = 2.0 * math.hypot(*VEHICLE)  # two vehicles' circumscribed radii


def _agent(agent_id, position, half_extent, heading, kind=AgentKind.VEHICLE):
    return AgentState(id=agent_id, kind=kind,
                      position=Vec2((float(position[0]), float(position[1]))),
                      velocity=Vec2((0.0, 0.0)), heading=heading,
                      half_extent=Vec2((float(half_extent[0]),
                                        float(half_extent[1]))))


def _world(ego, agents):
    return GroundTruthWorld(clock=SimClock(tick=7), ego=ego, agents=agents,
                            intersection=build_intersection())


def exhaustive_collision(world):
    """Reference: SAT-test every agent, lowest id first."""
    ego = world.ego
    ego_corners = rect_corners(ego.position, ego.half_extent, ego.heading)
    for agent in sorted(world.agents, key=lambda a: a.id):
        depth = obb_overlap(ego_corners, rect_corners(
            agent.position, agent.half_extent, agent.heading))
        if depth is not None:
            return agent.id, depth
    return None


def found(world):
    event = detect_collision(world)
    if event is None:
        return None
    assert event.agent_a == EGO_ID and event.tick == 7
    return event.agent_b, event.overlap_depth


coordinate = st.floats(-9.0, 9.0, allow_nan=False)
extent = st.floats(0.05, 3.0, allow_nan=False)
heading = st.floats(-math.pi, math.pi, allow_nan=False)
pose = st.tuples(coordinate, coordinate, extent, extent, heading)


class TestBroadPhaseOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ego=pose, others=st.lists(pose, min_size=1, max_size=5),
           ids=st.permutations(range(1, 6)))
    def test_matches_exhaustive_sat(self, ego, others, ids):
        ego_state = _agent(EGO_ID, ego[:2], ego[2:4], ego[4],
                           kind=AgentKind.EGO_VEHICLE)
        agents = [_agent(i, p[:2], p[2:4], p[4]) for i, p in zip(ids, others)]
        world = _world(ego_state, agents)
        assert found(world) == exhaustive_collision(world)

    @pytest.mark.parametrize("gap, collides", [
        (-1e-4, True),   # corners interpenetrate just inside the disc sum
        (0.0, False),    # corners touch exactly: touching is no overlap
        (5e-7, False),   # inside the 1e-6 slack, so still SAT-tested
        (1e-4, False),   # just outside: skipped by the broad phase
    ])
    def test_corner_to_corner_along_the_centre_line(self, gap, collides):
        # Each vehicle's far corner points at the other along the x axis,
        # so the circumscribed-disc bound is tight.
        theta = -math.atan2(VEHICLE[1], VEHICLE[0])
        ego = _agent(EGO_ID, (0.0, 0.0), VEHICLE, theta,
                     kind=AgentKind.EGO_VEHICLE)
        other = _agent(1, (DISC_SUM + gap, 0.0), VEHICLE, theta + math.pi)
        world = _world(ego, [other])
        assert found(world) == exhaustive_collision(world)
        assert (found(world) is not None) == collides

    @pytest.mark.parametrize("offset, collides", [
        ((4.0 - 1e-3, 2.0 - 1e-3), True),
        ((4.0 + 1e-3, 2.0 + 1e-3), False),
    ])
    def test_axis_aligned_diagonal_neighbours(self, offset, collides):
        ego = _agent(EGO_ID, (0.0, 0.0), VEHICLE, 0.0,
                     kind=AgentKind.EGO_VEHICLE)
        world = _world(ego, [_agent(1, offset, VEHICLE, 0.0)])
        assert found(world) == exhaustive_collision(world)
        assert (found(world) is not None) == collides

    def test_lowest_id_wins_among_overlaps(self):
        ego = _agent(EGO_ID, (0.0, 0.0), VEHICLE, 0.0,
                     kind=AgentKind.EGO_VEHICLE)
        agents = [_agent(5, (1.0, 0.0), VEHICLE, 0.0),
                  _agent(30, (50.0, 0.0), VEHICLE, 0.0),
                  _agent(2, (0.0, 1.5), VEHICLE, 0.3)]
        assert found(_world(ego, agents))[0] == 2

    def test_agents_beyond_the_disc_sum_are_not_sat_tested(self, monkeypatch):
        calls = []

        def counting_overlap(a, b):
            calls.append(1)
            return obb_overlap(a, b)

        monkeypatch.setattr(geometry, "obb_overlap", counting_overlap)
        assert sim.geometry is geometry
        ego = _agent(EGO_ID, (0.0, 0.0), VEHICLE, 0.0,
                     kind=AgentKind.EGO_VEHICLE)
        far = [_agent(i, (DISC_SUM + 0.01 * i, 0.0), VEHICLE, 1.0)
               for i in range(1, 4)]
        assert detect_collision(_world(ego, far)) is None
        assert calls == []
