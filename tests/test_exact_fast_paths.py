"""The scalar fast paths on the tick path return numpy's bits exactly.

Each fast path replaces a numpy call on scalars or 2-vectors with plain
float arithmetic only where the result is provably the same: hypot with
a zero side, a projection onto an axis-aligned unit direction, and a
monitor that works on coordinate arrays instead of point arrays. Every
test here compares against the numpy form the fast path replaced, kept
as the reference, bit for bit.
"""

import itertools
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


def test_zero_velocity_shortcut_keeps_the_full_forms_bits():
    """ego_x - x stands in for ego_x - (x + times * vx) when vx is a zero
    of either sign: the differences agree up to the sign of a zero, so
    hypot returns the same bits."""
    times = sample_times(3.0, 0.05)[:3]
    values = [0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e300, math.inf]
    for ego_x0, x, vx, other in itertools.product(
            values, values, (0.0, -0.0), (0.0, -0.0, 1.5, -1e-300)):
        ego_x = np.array([ego_x0, -ego_x0, 0.5 * ego_x0])
        with np.errstate(invalid="ignore"):
            full = np.hypot(ego_x - (x + times * vx), other)
            short = np.hypot(ego_x - x, other)
        assert full.tobytes() == short.tobytes()


@given(ego_x=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
       x=st.floats(allow_nan=False), vx=st.sampled_from([0.0, -0.0]),
       other=st.floats(allow_nan=False))
@settings(max_examples=800, deadline=None)
def test_zero_velocity_shortcut_on_random_coordinates(ego_x, x, vx, other):
    ego_x = np.array(ego_x)
    times = np.linspace(0.0, 3.0, len(ego_x))
    with np.errstate(all="ignore"):
        full = np.hypot(ego_x - (x + times * vx), other)
        short = np.hypot(ego_x - x, other)
    assert full.tobytes() == short.tobytes()


# --- crossing search ---------------------------------------------------------

from avguard import geometry  # noqa: E402
from avguard.planners import STATIONARY_SPEED, find_conflicts  # noqa: E402


def crossing_pair(a0, a1, b0, b1):
    """(float kernel, numpy reference) for two segments given by points."""
    ref = geometry.segment_intersection(np.array(a0), np.array(a1),
                                        np.array(b0), np.array(b1))
    ax, ay = a0
    bx, by = b0
    got = geometry.segment_crossing(ax, ay, a1[0] - ax, a1[1] - ay,
                                    bx, by, b1[0] - bx, b1[1] - by)
    return got, None if ref is None else tuple(ref.tolist())


def assert_same_crossing(a0, a1, b0, b1):
    with np.errstate(all="ignore"):
        got, ref = crossing_pair(a0, a1, b0, b1)
    if ref is None:
        assert got is None
    else:
        assert got is not None
        assert [bits(v) for v in got] == [bits(v) for v in ref]


coordinate = st.floats(-300.0, 300.0)
point = st.tuples(coordinate, coordinate)


@given(point, point, point, point)
@settings(max_examples=1500, deadline=None)
def test_segment_crossing_equals_segment_intersection(a0, a1, b0, b1):
    assert_same_crossing(a0, a1, b0, b1)


@given(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
       st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
       st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
       st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)))
@settings(max_examples=1500, deadline=None)
def test_segment_crossing_on_any_floats(a0, a1, b0, b1):
    assert_same_crossing(a0, a1, b0, b1)


@given(a0=point, a1=point, scale=st.floats(-2.0, 2.0),
       nudge=st.floats(-1e-11, 1e-11), shift=st.floats(-1.0, 1.0))
@settings(max_examples=1500, deadline=None)
def test_segment_crossing_near_parallel(a0, a1, scale, nudge, shift):
    """b runs along a, turned by a hair: denom lands around the 1e-12
    cut-off."""
    rx, ry = a1[0] - a0[0], a1[1] - a0[1]
    b0 = (a0[0] + shift, a0[1] - shift)
    b1 = (b0[0] + scale * rx + nudge, b0[1] + scale * ry - nudge)
    assert_same_crossing(a0, a1, b0, b1)


ENDPOINT_OFFSETS = [k * 1e-12 for k in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3)] \
    + [-0.0, 5e-324, -5e-324, 1e-12 + 2.2e-16, -1e-12 - 2.2e-16]


@pytest.mark.parametrize("offset", ENDPOINT_OFFSETS)
@pytest.mark.parametrize("end", [0.0, 1.0])
@given(length=st.floats(0.5, 400.0), y=st.floats(-5.0, 5.0),
       reach=st.floats(0.5, 60.0))
@settings(max_examples=60, deadline=None)
def test_segment_crossing_at_endpoint_tolerances(offset, end, length, y,
                                                 reach):
    """A crossing right at either end of a route segment, within and just
    past the +-1e-12 tolerance on t, and at either end of the object's
    path (u)."""
    a0, a1 = (2.5, -length / 2), (2.5, length / 2)
    cy = -length / 2 + (end + offset) * length
    assert_same_crossing(a0, a1, (2.5 - reach, cy), (2.5 + reach, cy))
    # The object's path ends right at the route: the tolerance on u.
    b0 = (2.5 - reach * (end + offset), y)
    assert_same_crossing(a0, a1, b0, (b0[0] + reach, y))


def test_segment_crossing_with_signed_zeros():
    signed = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324]
    for ax, by, sx in itertools.product(signed, repeat=3):
        for ay, rx, ry, bx, sy in ((0.0, 0.0, 1.0, -0.0, 0.0),
                                   (-0.0, -0.0, -1.0, 0.0, -0.0),
                                   (-1.0, 1.0, 0.0, 0.5, 2.0)):
            assert_same_crossing((ax, ay), (ax + rx, ay + ry),
                                 (bx, by), (bx + sx, by + sy))


def old_find_conflicts(perceived, route, ego_s, zone):
    """find_conflicts as it was, on numpy 2-vectors."""
    conflicts = []
    blocker = None
    route_pts = route.points
    for obj in perceived.objects:
        speed = float(np.hypot(*obj.velocity))
        if speed < STATIONARY_SPEED:
            s_obj = route.arc_length_of(obj.position, s_min=ego_s)
            if s_obj is None:
                continue
            ahead = s_obj - ego_s
            lateral = route.lateral_offset(obj.position)
            if 0.0 < ahead <= 25.0 and \
                    lateral <= float(np.max(obj.half_extent)) + 1.5:
                if blocker is None:
                    blocker = obj.id
            continue
        path_end = obj.position + obj.velocity * 30.0
        for i in range(len(route_pts) - 1):
            cross = geometry.segment_intersection(route_pts[i], route_pts[i + 1],
                                                  obj.position, path_end)
            if cross is None or not zone.contains(cross):
                continue
            s_cross = route.arc_length_of(cross, s_min=ego_s)
            if s_cross is None or s_cross <= ego_s:
                continue
            time_gap = float(np.hypot(*(cross - obj.position))) / speed
            conflicts.append((obj.id, time_gap, s_cross - ego_s))
            break
    return conflicts, blocker


@given(perceived=perceived_states(),
       goal=st.sampled_from(list(RouteGoal)),
       ego_s=st.floats(150.0, 215.0))
@settings(max_examples=800, deadline=None)
def test_find_conflicts_equals_the_numpy_form(perceived, goal, ego_s):
    route = ego_route_for(goal)
    zone = build_intersection().conflict_zone
    conflicts, blocker = find_conflicts(perceived, route, ego_s, zone)
    old_conflicts, old_blocker = old_find_conflicts(perceived, route, ego_s,
                                                    zone)
    assert blocker == old_blocker
    assert [(c.object_id, bits(c.time_gap), bits(c.crossing_distance))
            for c in conflicts] == [(i, bits(t), bits(d))
                                    for i, t, d in old_conflicts]
