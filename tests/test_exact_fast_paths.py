"""The scalar fast paths on the tick path return numpy's bits exactly.

Each fast path replaces a numpy call on scalars or 2-vectors with plain
float arithmetic only where the result is provably the same: hypot with
a zero side, a projection onto an axis-aligned unit direction, and a
monitor that works on coordinate arrays instead of point arrays. Every
test here compares against the numpy form the fast path replaced, kept
as the reference, bit for bit.
"""

import math
import struct

import numpy as np
import pytest

from avguard.geometry import Route
from avguard.monitor import (
    EGO_RADIUS,
    SafetyParams,
    closing_speed,
    displacement_along,
    proposed_ego_accel,
    safety_check,
    sample_times,
)
from avguard.sim import SimParams, approach_route, build_intersection, \
    ego_route_for
from avguard.state import (
    AgentKind,
    EgoOdometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    RouteGoal,
    SimClock,
    Verdict,
    VerdictLevel,
    hypot2,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def bits(x):
    """Exact identity of a float (sign of zero and NaN payload included)."""
    return None if x is None else struct.pack("<d", x)


# --- hypot2 ----------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -3.5, 1e308]


@given(st.floats(), st.floats())
@settings(max_examples=1500, deadline=None)
def test_hypot2_equals_np_hypot(x, y):
    assert bits(hypot2(x, y)) == bits(float(np.hypot(x, y)))


@pytest.mark.parametrize("special", SPECIAL)
@given(other=st.floats())
@settings(max_examples=200, deadline=None)
def test_hypot2_equals_np_hypot_beside_special_values(special, other):
    assert bits(hypot2(special, other)) == bits(float(np.hypot(special, other)))
    assert bits(hypot2(other, special)) == bits(float(np.hypot(other, special)))


@pytest.mark.parametrize("x", SPECIAL)
@pytest.mark.parametrize("y", SPECIAL)
def test_hypot2_equals_np_hypot_on_special_pairs(x, y):
    assert bits(hypot2(x, y)) == bits(float(np.hypot(x, y)))


# --- Route projections -------------------------------------------------------


class NumpyRoute:
    """The numpy projections Route used before its per-segment floats."""

    def __init__(self, points):
        self.points = np.array(points, dtype=float)
        deltas = np.diff(self.points, axis=0)
        self.lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self.cum = np.concatenate([[0.0], np.cumsum(self.lengths)]).tolist()
        self.dirs = deltas / self.lengths[:, None]

    def arc_length_of(self, p, s_min=0.0):
        p = np.asarray(p, dtype=float)
        best_s, best_d = None, 5.0
        for i in range(len(self.lengths)):
            a = self.points[i]
            t = float(np.dot(p - a, self.dirs[i]))
            t = min(max(t, 0.0), self.lengths[i])
            s = self.cum[i] + t
            if s < s_min:
                continue
            d = float(np.hypot(*(p - (a + t * self.dirs[i]))))
            if d < best_d:
                best_s, best_d = s, d
        return best_s

    def lateral_offset(self, p):
        p = np.asarray(p, dtype=float)
        best = np.inf
        for i in range(len(self.lengths)):
            a = self.points[i]
            t = float(np.dot(p - a, self.dirs[i]))
            t = min(max(t, 0.0), self.lengths[i])
            best = min(best, float(np.hypot(*(p - (a + t * self.dirs[i])))))
        return best


REFERENCE_ROUTES = ([ego_route_for(goal).points for goal in RouteGoal]
                    + [approach_route(a).points for a in "NSEW"]
                    + [np.array([[12.0, 1.7], [-30.0, 1.7]])])
DIAGONAL_ROUTE = np.array([[2.5, -200.0], [30.0, -7.0], [-41.3, 55.1],
                           [-41.3, 120.0]])

coordinate = st.floats(-260.0, 260.0, allow_nan=False)


@st.composite
def axis_aligned_route(draw):
    """A polyline whose segments alternate between the x and y axes."""
    x, y = draw(coordinate), draw(coordinate)
    points = [(x, y)]
    along_x = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.floats(0.5, 150.0)) * draw(st.sampled_from([-1.0, 1.0]))
        x, y = (x + step, y) if along_x else (x, y + step)
        points.append((x, y))
        along_x = not along_x
    return np.array(points)


@st.composite
def query_point(draw, points):
    """Anywhere near the route, or exactly on a vertex coordinate so the
    projection meets exact zeros."""
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    x = draw(st.one_of(coordinate, st.sampled_from(xs)))
    y = draw(st.one_of(coordinate, st.sampled_from(ys)))
    return np.array([x, y])


def _check_projection(points, data):
    route, reference = Route(points), NumpyRoute(points)
    p = data.draw(query_point(points))
    s_min = data.draw(st.floats(0.0, route.length + 1.0))
    assert bits(route.arc_length_of(p)) == bits(reference.arc_length_of(p))
    assert (bits(route.arc_length_of(p, s_min=s_min))
            == bits(reference.arc_length_of(p, s_min=s_min)))
    assert bits(route.lateral_offset(p)) == bits(reference.lateral_offset(p))


@given(points=st.sampled_from(REFERENCE_ROUTES), data=st.data())
@settings(max_examples=600, deadline=None)
def test_projection_on_reference_routes(points, data):
    _check_projection(points, data)


@given(points=axis_aligned_route(), data=st.data())
@settings(max_examples=600, deadline=None)
def test_projection_on_axis_aligned_routes(points, data):
    _check_projection(points, data)


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_projection_on_a_diagonal_route(data):
    # The first two segments are off-axis, so they take the np.dot path.
    _check_projection(DIAGONAL_ROUTE, data)


# --- headings ----------------------------------------------------------------


def old_normalize_heading(theta):
    wrapped = float(np.arctan2(np.sin(theta), np.cos(theta)))
    return np.pi if wrapped == -np.pi else wrapped


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
@settings(max_examples=800, deadline=None)
def test_pose_heading_is_the_heading_an_agent_state_stores(dx, dy):
    assume(math.hypot(dx, dy) > 1e-6)
    route = Route(np.array([[0.0, 0.0], [dx, dy]]))
    direction = np.array([dx, dy]) / np.hypot(dx, dy)
    raw = float(np.arctan2(direction[1], direction[0]))
    assert bits(route.heading_at(0.5)) == bits(raw)
    assert bits(route.pose_at(0.5)[2]) == bits(old_normalize_heading(raw))


# --- safety monitor ----------------------------------------------------------


def old_closing_speed(ego_pos, ego_vel, obj_pos, obj_vel):
    line = np.asarray(ego_pos, dtype=float) - np.asarray(obj_pos, dtype=float)
    norm = float(np.hypot(*line))
    if norm < 1e-9:
        return float(np.hypot(*(np.asarray(obj_vel) - np.asarray(ego_vel))))
    return max(0.0, float(np.dot(np.asarray(obj_vel) - np.asarray(ego_vel),
                                 line / norm)))


def old_safety_check(perceived, proposed, params, world_geometry, sim_params):
    """safety_check as it was built on (k, 2) point arrays."""
    odom = perceived.ego_odometry
    if not perceived.objects:
        return Verdict(level=VerdictLevel.SAFE,
                       min_predicted_separation=np.inf, time_of_min=0.0)
    accel = proposed_ego_accel(perceived, proposed, world_geometry, sim_params)
    times = sample_times(params.horizon, params.sample_dt)
    u = np.array([np.cos(odom.heading), np.sin(odom.heading)])
    s = displacement_along(odom.speed, accel, times)
    ego_points = odom.position[None, :] + s[:, None] * u[None, :]
    best_sep, best_t, best_obj = np.inf, 0.0, None
    for obj in perceived.objects:
        obj_points = obj.position[None, :] + times[:, None] * obj.velocity[None, :]
        delta = ego_points - obj_points
        dist = np.hypot(delta[:, 0], delta[:, 1])
        sep = dist - (EGO_RADIUS + float(np.max(obj.half_extent)))
        i = int(np.argmin(sep))
        if sep[i] < best_sep:
            best_sep, best_t, best_obj = float(sep[i]), float(times[i]), obj.id
    offender = next(o for o in perceived.objects if o.id == best_obj)
    closing = old_closing_speed(odom.position, odom.velocity,
                                offender.position, offender.velocity)
    d_unsafe_eff = params.d_unsafe + params.margin_speed_gain * closing
    if best_sep < d_unsafe_eff:
        level = VerdictLevel.UNSAFE
    elif best_sep < max(params.d_warn, d_unsafe_eff):
        level = VerdictLevel.WARNING
    else:
        level = VerdictLevel.SAFE
    return Verdict(level=level, min_predicted_separation=best_sep,
                   time_of_min=best_t, offending_object=best_obj)


lane_speed = st.one_of(st.just(0.0), st.floats(-14.0, 14.0))


@st.composite
def perceived_states(draw):
    heading = draw(st.sampled_from([math.pi / 2, 0.0, math.pi,
                                    draw(st.floats(-math.pi, math.pi))]))
    ego_speed = draw(st.floats(0.0, 12.0))
    ego = EgoOdometry(
        position=[2.5, draw(st.floats(-60.0, 20.0))],
        velocity=[ego_speed * float(np.cos(heading)),
                  ego_speed * float(np.sin(heading))],
        heading=heading)
    objects = []
    for i in range(draw(st.integers(0, 4))):
        # Mostly lane traffic (one velocity component exactly zero), some
        # spoofed or ghost objects moving off-axis.
        if draw(st.booleans()):
            velocity = [draw(lane_speed), 0.0]
        else:
            velocity = [draw(lane_speed), draw(lane_speed)]
        objects.append(PerceivedObject(
            id=i + 1, kind=AgentKind.VEHICLE,
            position=[draw(st.floats(-70.0, 70.0)), draw(st.floats(-70.0, 70.0))],
            velocity=velocity,
            half_extent=draw(st.sampled_from([(2.0, 1.0), (0.3, 0.3)]))))
    return PerceivedState(clock=SimClock(), ego_odometry=ego, objects=objects,
                          goal=RouteGoal.STRAIGHT)


@given(perceived=perceived_states(),
       maneuver=st.sampled_from([m for m in Maneuver
                                 if m != Maneuver.EMERGENCY_BRAKE]))
@settings(max_examples=600, deadline=None)
def test_safety_check_equals_the_point_array_form(perceived, maneuver):
    geometry, params, sim_params = build_intersection(), SafetyParams(), SimParams()
    new = safety_check(perceived, maneuver, params, geometry, sim_params)
    old = old_safety_check(perceived, maneuver, params, geometry, sim_params)
    assert new.level == old.level
    assert new.offending_object == old.offending_object
    assert bits(new.min_predicted_separation) == bits(old.min_predicted_separation)
    assert bits(new.time_of_min) == bits(old.time_of_min)
    for obj in perceived.objects:
        odom = perceived.ego_odometry
        assert bits(closing_speed(odom.position, odom.velocity, obj.position,
                                  obj.velocity)) == bits(old_closing_speed(
                                      odom.position, odom.velocity,
                                      obj.position, obj.velocity))
