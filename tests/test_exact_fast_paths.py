"""The float fast paths on the tick path return the bits of the numpy
2-vector forms they replaced.

Each fast path replaces numpy arithmetic with plain float arithmetic
only where the result is provably the same: elementwise 2-vector
arithmetic on floats, a crossing search that runs numpy's operations in
numpy's order, and a monitor that searches its sample grid for the
minimum the point-array form finds over every sample. Every test here
compares against the numpy form the fast path replaced, kept as the
reference, bit for bit; the yield envelope, which reads agents and
perceived objects directly, is compared with the list of (position,
velocity) pairs it read before, and the commands that compute the
zone-entry distance and the yield envelope only for the maneuvers that
read them are compared with the forms that computed both for every
maneuver. ``Route.arc_length_of``, which projects inline, is compared
with the form that called ``_closest`` once per segment.
Scalar ``hypot``, ``atan2``, ``sin`` and ``cos`` go through ``math`` on
both sides, as they do on the tick path; the first section pins the
inputs on which ``math.hypot`` and ``math.sqrt`` must return numpy's
bits. A 2-vector dot product is
written out as ``a*c + b*d`` on both sides: that it equals an unfused
``np.dot`` is pinned by tests/test_cpu_independence.py.
"""

import dataclasses
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest

from avguard import monitor
from avguard.config import (
    EGO_RADIUS,
    RouteGoal,
    SafetyParams,
    ScenarioBase,
    SimParams,
    Vec2,
)
from avguard.geometry import Route
from avguard.monitor import (
    closing_speed,
    proposed_ego_accel,
    safety_check,
    sample_times,
)
from avguard.sim import READS_DIST_TO_ENTRY, READS_TRAFFIC_NEAR, \
    YIELD_ENVELOPE, approach_route, \
    build_intersection, command_accel, crossing_traffic_within_envelope, \
    distance_to_entry, ego_route_for, maneuver_to_command, spawn_world
from avguard.state import (
    AgentKind,
    AgentState,
    EgoOdometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    SimClock,
    Verdict,
    VerdictLevel,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_geometry import route_length, segment_intersection  # noqa: E402
from test_monitor import displacement_along  # noqa: E402


def bits(x):
    """Exact identity of a float (sign of zero and NaN payload included)."""
    return None if x is None else struct.pack("<d", x)


# --- scalar hypot and sqrt ---------------------------------------------------
#
# The tick path calls math.hypot and math.sqrt on single floats. The two
# hypots can differ in the last bit on arbitrary pairs, so these tests pin
# only where both are forced to the same value: a zero side (most calls,
# since every lane is axis-aligned), an infinite side, and the special
# pairs below. sqrt is correctly rounded in both.

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -3.5, 1e308]


def same_value(a, b):
    """Bit identity, except that any NaN matches any NaN: the trace
    encoder rejects NaN, so its sign and payload never reach a trace."""
    return (a != a and b != b) or bits(a) == bits(b)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@given(x=st.floats(allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_math_hypot_with_a_zero_side_is_the_other_side(zero, x):
    """C99 defines hypot(x, +-0) as |x| exactly; np.hypot agrees."""
    assert bits(math.hypot(x, zero)) == bits(abs(x))
    assert bits(math.hypot(zero, x)) == bits(abs(x))
    assert bits(float(np.hypot(x, zero))) == bits(abs(x))


@pytest.mark.parametrize("infinity", [math.inf, -math.inf])
@given(other=st.floats())
@settings(max_examples=200, deadline=None)
def test_math_hypot_beside_an_infinity_is_inf(infinity, other):
    """An infinite side gives +inf, even beside NaN, in both."""
    assert bits(math.hypot(infinity, other)) == bits(math.inf)
    assert bits(math.hypot(other, infinity)) == bits(math.inf)
    assert bits(float(np.hypot(infinity, other))) == bits(math.inf)


@pytest.mark.parametrize("x", SPECIAL)
@pytest.mark.parametrize("y", SPECIAL)
def test_math_hypot_equals_np_hypot_on_special_pairs(x, y):
    with np.errstate(all="ignore"):
        assert same_value(math.hypot(x, y), float(np.hypot(x, y)))


@given(x=st.floats(-1e300, 1e300), y=st.floats(-1e300, 1e300))
@settings(max_examples=1500, deadline=None)
def test_complex_abs_equals_np_hypot(x, y):
    """Route segment lengths are abs(complex(rx, ry)), which is libm's
    hypot, the function np.hypot calls: unlike math.hypot, it keeps the
    bits of the numpy-built route tables on every pair."""
    reference = float(np.hypot(np.array([x]), np.array([y]))[0])
    assert bits(abs(complex(x, y))) == bits(reference)


@pytest.mark.parametrize("x", [x for x in SPECIAL if not x < 0.0])
def test_math_sqrt_equals_np_sqrt_on_special_values(x):
    assert bits(math.sqrt(x)) == bits(float(np.sqrt(x)))


@given(st.floats(min_value=0.0))
@settings(max_examples=1500, deadline=None)
def test_math_sqrt_equals_np_sqrt(x):
    assert bits(math.sqrt(x)) == bits(float(np.sqrt(x)))


# --- Route projections -------------------------------------------------------


def dot(u, v):
    """A 2-vector dot product with numpy's operation order, unfused."""
    return u[0] * v[0] + u[1] * v[1]


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
            t = float(dot(p - a, self.dirs[i]))
            t = min(max(t, 0.0), self.lengths[i])
            s = self.cum[i] + t
            if s < s_min:
                continue
            d = math.hypot(*(p - (a + t * self.dirs[i])))
            if d < best_d:
                best_s, best_d = s, d
        return best_s

    def lateral_offset(self, p):
        p = np.asarray(p, dtype=float)
        best = np.inf
        for i in range(len(self.lengths)):
            a = self.points[i]
            t = float(dot(p - a, self.dirs[i]))
            t = min(max(t, 0.0), self.lengths[i])
            best = min(best, math.hypot(*(p - (a + t * self.dirs[i]))))
        return best


REFERENCE_ROUTES = ([np.asarray(ego_route_for(g).points) for g in RouteGoal]
                    + [np.asarray(approach_route(a).points) for a in "NSEW"]
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
    s_min = data.draw(st.floats(0.0, route_length(route) + 1.0))
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
    # The first two segments are off-axis, so neither product is exact.
    _check_projection(DIAGONAL_ROUTE, data)


def closest_per_segment_arc_length(route, p, s_min=0.0):
    """Route.arc_length_of as it was: one _closest call per segment."""
    x, y = float(p[0]), float(p[1])
    best_s, best_d = None, 5.0
    for i in range(len(route._segs)):
        s, d = route._closest(i, x, y)
        if s >= s_min and d < best_d:
            best_s, best_d = s, d
    return best_s


@st.composite
def edge_query(draw, points):
    """A point exactly 5 m (or a hair less) off a segment, or beyond
    either end of the route along its end segment."""
    i = draw(st.integers(0, len(points) - 2))
    (ax, ay), (bx, by) = points[i].tolist(), points[i + 1].tolist()
    kind = draw(st.sampled_from(["offset", "before", "after"]))
    if kind == "offset":
        offset = draw(st.sampled_from([5.0, -5.0, 4.999999999999999,
                                       5.000000000000001]))
        f = draw(st.floats(0.0, 1.0))
        x, y = ax + f * (bx - ax), ay + f * (by - ay)
        if ay == by:  # a horizontal segment: straight up or down
            return x, y + offset
        return x + offset, y  # exactly off a vertical one, near a diagonal
    (ax, ay), (bx, by) = ((points[0].tolist(), points[1].tolist())
                          if kind == "before"
                          else (points[-1].tolist(), points[-2].tolist()))
    f = draw(st.floats(0.0, 3.0))
    return ax + f * (ax - bx), ay + f * (ay - by)


@given(points=st.sampled_from(REFERENCE_ROUTES + [DIAGONAL_ROUTE])
       | axis_aligned_route(),
       data=st.data())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_inlined_arc_length_equals_the_closest_per_segment_form(points, data):
    route = Route(points)
    p = data.draw(query_point(points) | edge_query(points))
    length = route_length(route)
    s_min = data.draw(st.sampled_from([0.0, length, length + 1.0, math.inf])
                      | st.floats(0.0, length + 10.0))
    for s in (0.0, s_min):
        assert bits(route.arc_length_of(p, s_min=s)) == bits(
            closest_per_segment_arc_length(route, p, s_min=s))


# --- headings ----------------------------------------------------------------


def old_normalize_heading(theta):
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    return math.pi if wrapped == -math.pi else wrapped


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
@settings(max_examples=800, deadline=None)
def test_pose_heading_is_the_heading_an_agent_state_stores(dx, dy):
    assume(math.hypot(dx, dy) > 1e-6)
    route = Route(np.array([[0.0, 0.0], [dx, dy]]))
    direction = np.array([dx, dy]) / np.hypot(dx, dy)
    raw = math.atan2(direction[1], direction[0])
    assert bits(route.pose_at(0.5)[2]) == bits(old_normalize_heading(raw))


# --- safety monitor ----------------------------------------------------------


def old_closing_speed(ego_pos, ego_vel, obj_pos, obj_vel):
    line = np.asarray(ego_pos, dtype=float) - np.asarray(obj_pos, dtype=float)
    norm = math.hypot(*line)
    if norm < 1e-9:
        return math.hypot(*(np.asarray(obj_vel) - np.asarray(ego_vel)))
    return max(0.0, float(dot(np.asarray(obj_vel) - np.asarray(ego_vel),
                              line / norm)))


def old_sample_times(horizon, sample_dt):
    times = np.arange(0.0, horizon + 0.5 * sample_dt, sample_dt)
    if times[-1] < horizon - 1e-12:
        times = np.append(times, horizon)
    return times


def old_displacement_along(speed, accel, times):
    s = speed * times + 0.5 * accel * times * times
    if accel < 0.0:
        t_stop = speed / -accel
        s = np.where(times >= t_stop, speed * speed / (2.0 * -accel), s)
    return s


def old_minimum(perceived, accel, params):
    """(separation, time, object id) of the sampled minimum, from (k, 2)
    point arrays over every sample."""
    odom = perceived.ego_odometry
    times = old_sample_times(params.horizon, params.sample_dt)
    u = np.array([math.cos(odom.heading), math.sin(odom.heading)])
    s = old_displacement_along(odom.speed, accel, times)
    ego_points = np.asarray(odom.position)[None, :] + s[:, None] * u[None, :]
    best_sep, best_t, best_obj = np.inf, 0.0, None
    for obj in perceived.objects:
        obj_points = (np.asarray(obj.position)[None, :]
                      + times[:, None] * np.asarray(obj.velocity)[None, :])
        delta = ego_points - obj_points
        dist = np.hypot(delta[:, 0], delta[:, 1])
        sep = dist - (EGO_RADIUS + float(np.max(obj.half_extent)))
        i = int(np.argmin(sep))
        if sep[i] < best_sep:
            best_sep, best_t, best_obj = float(sep[i]), float(times[i]), obj.id
    return best_sep, best_t, best_obj


def old_safety_check(perceived, proposed, params, world_geometry, sim_params):
    """safety_check as it was built on (k, 2) point arrays."""
    odom = perceived.ego_odometry
    if not perceived.objects:
        return Verdict(level=VerdictLevel.SAFE,
                       min_predicted_separation=np.inf, time_of_min=0.0)
    accel = proposed_ego_accel(perceived, proposed, world_geometry, sim_params)
    best_sep, best_t, best_obj = old_minimum(perceived, accel, params)
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
def perceived_states(draw, off_route=False):
    """On the straight route's lane; with ``off_route``, also any goal and
    an ego x up to 70 m either side, so the route lookup can miss."""
    heading = draw(st.sampled_from([math.pi / 2, 0.0, math.pi,
                                    draw(st.floats(-math.pi, math.pi))]))
    ego_speed = draw(st.floats(0.0, 12.0))
    ego_x = draw(st.floats(-70.0, 70.0)) if off_route and draw(
        st.booleans()) else 2.5
    ego = EgoOdometry(
        position=Vec2((ego_x, draw(st.floats(-60.0, 20.0)))),
        velocity=Vec2((ego_speed * float(np.cos(heading)),
                       ego_speed * float(np.sin(heading)))),
        heading=heading)
    objects = []
    for i in range(draw(st.integers(0, 4))):
        # Mostly lane traffic (one velocity component exactly zero), some
        # spoofed or ghost objects moving off-axis.
        if draw(st.booleans()):
            velocity = Vec2((draw(lane_speed), 0.0))
        else:
            velocity = Vec2((draw(lane_speed), draw(lane_speed)))
        objects.append(PerceivedObject(
            id=i + 1, kind=AgentKind.VEHICLE,
            position=Vec2((draw(st.floats(-70.0, 70.0)),
                           draw(st.floats(-70.0, 70.0)))),
            velocity=velocity,
            half_extent=Vec2(draw(st.sampled_from([(2.0, 1.0),
                                                   (0.3, 0.3)])))))
    goal = draw(st.sampled_from(RouteGoal)) if off_route else RouteGoal.STRAIGHT
    return PerceivedState(clock=SimClock(), ego_odometry=ego, objects=objects,
                          goal=goal)


# Limits so small that half the command, squared, underflows: the
# moving phase's cubic then loses its t^3 term (c3 == 0) while q != 0,
# and the search takes its ``elif c2 != 0.0`` branch.
tiny_limit = st.sampled_from([1e-200, 1e-170, 1e-160, 1e-310, 5e-324])
sim_limits = st.just(SimParams()) | st.builds(
    SimParams, a_brake_max=tiny_limit | st.just(8.0),
    a_accel_max=tiny_limit | st.just(3.0))

# Heading pi/2 at 8 m/s under PROCEED at a_accel_max = 1e-200:
# 2 * (qx^2 + qy^2) is 0 with q = 5e-201 * (cos, sin) != 0.
LINEAR_BRANCH_CASE = dict(
    perceived=PerceivedState(
        clock=SimClock(),
        ego_odometry=EgoOdometry(
            position=Vec2((2.5, -20.0)),
            velocity=Vec2((8.0 * math.cos(math.pi / 2),
                           8.0 * math.sin(math.pi / 2))),
            heading=math.pi / 2),
        objects=[PerceivedObject(
            id=1, kind=AgentKind.VEHICLE, position=Vec2((20.0, -1.7)),
            velocity=Vec2((-6.0, 0.0)), half_extent=Vec2((2.0, 1.0)))],
        goal=RouteGoal.STRAIGHT),
    maneuver=Maneuver.PROCEED, sim_params=SimParams(a_accel_max=1e-200))


def test_linear_branch_case_drops_only_the_cubic_term():
    case = LINEAR_BRANCH_CASE
    accel = proposed_ego_accel(case["perceived"], case["maneuver"],
                               build_intersection(), case["sim_params"])
    heading = case["perceived"].ego_odometry.heading
    qx, qy = 0.5 * accel * math.cos(heading), 0.5 * accel * math.sin(heading)
    assert 2.0 * (qx * qx + qy * qy) == 0.0 and qy != 0.0


@given(perceived=perceived_states(),
       maneuver=st.sampled_from([m for m in Maneuver
                                 if m != Maneuver.EMERGENCY_BRAKE]),
       sim_params=sim_limits)
@example(**LINEAR_BRANCH_CASE)
@settings(max_examples=900, deadline=None)
def test_safety_check_equals_the_point_array_form(perceived, maneuver,
                                                  sim_params):
    geometry, params = build_intersection(), SafetyParams()
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


# --- yield envelope ----------------------------------------------------------


def old_crossing_traffic_within_envelope(others, zone):
    """crossing_traffic_within_envelope as it was, on a list of
    (position, velocity) pairs."""
    cx = (zone.x_min + zone.x_max) / 2
    cy = (zone.y_min + zone.y_max) / 2
    for (x, y), (vx, vy) in others:
        d = zone.distance_to((x, y))
        if d > YIELD_ENVELOPE:
            continue
        if d == 0.0:
            return True
        if math.hypot(vx, vy) > 0.5 and vx * (cx - x) + vy * (cy - y) > 0.0:
            return True
    return False


def old_proposed_ego_accel(perceived, proposed, world_geometry, sim_params):
    """proposed_ego_accel as it was, building the pairs for the envelope."""
    odom = perceived.ego_odometry
    route = ego_route_for(perceived.goal)
    zone = world_geometry.conflict_zone
    s_ego = route.arc_length_of(odom.position)
    if s_ego is None:
        dist = zone.distance_to(odom.position)
    else:
        dist = distance_to_entry(route, s_ego, zone)
    near = old_crossing_traffic_within_envelope(
        [(o.position, o.velocity) for o in perceived.objects], zone)
    return command_accel(proposed, odom.speed, dist, near,
                         world_geometry.speed_limit, sim_params)


ZONE = build_intersection().conflict_zone
inside_x = st.floats(ZONE.x_min, ZONE.x_max)
inside_y = st.floats(ZONE.y_min, ZONE.y_max)
# Positions at the envelope's edges: on the zone's border (d == 0.0), at
# exactly YIELD_ENVELOPE beside a side or off a corner (hypot(36, 48) is
# 60.0), one ulp either side of that, on the zone's centre lines.
envelope_position = st.one_of(
    st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)),
    st.tuples(st.sampled_from([ZONE.x_min, ZONE.x_max]), inside_y),
    st.tuples(inside_x, st.sampled_from([ZONE.y_min, ZONE.y_max])),
    st.tuples(st.sampled_from([ZONE.x_max + YIELD_ENVELOPE,
                               ZONE.x_min - YIELD_ENVELOPE,
                               math.nextafter(ZONE.x_max + YIELD_ENVELOPE,
                                              math.inf),
                               math.nextafter(ZONE.x_max + YIELD_ENVELOPE,
                                              0.0)]), inside_y),
    st.tuples(inside_x, st.sampled_from([ZONE.y_max + YIELD_ENVELOPE,
                                         ZONE.y_min - YIELD_ENVELOPE])),
    st.sampled_from([(ZONE.x_max + 36.0, ZONE.y_max + 48.0),
                     (ZONE.x_min - 48.0, ZONE.y_min - 36.0)]),
    st.tuples(st.floats(-80.0, 80.0), st.sampled_from([0.0, -0.0])),
    st.tuples(st.sampled_from([0.0, -0.0]), st.floats(-80.0, 80.0)))
edge_component = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                  2.2250738585072009e-308, -1e-310])
envelope_velocity = st.one_of(
    st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0)),
    st.tuples(edge_component, edge_component),
    st.tuples(st.floats(-15.0, 15.0), edge_component),
    st.tuples(edge_component, st.floats(-15.0, 15.0)),
    # A speed of exactly 0.5, and one ulp either side of it.
    st.sampled_from([(0.5, 0.0), (-0.5, -0.0), (-0.0, 0.5), (0.0, -0.5),
                     (0.3, 0.4), (-0.4, 0.3), (math.nextafter(0.5, 1.0), 0.0),
                     (-math.nextafter(0.5, 0.0), -0.0)]))


@st.composite
def envelope_object(draw):
    """An agent or a perceived object, as the simulator or the monitor
    hands it to the envelope."""
    position = Vec2(draw(envelope_position))
    velocity = Vec2(draw(envelope_velocity))
    if draw(st.booleans()):
        return AgentState(1, AgentKind.VEHICLE, position, velocity, 0.0,
                          Vec2((2.0, 1.0)))
    return PerceivedObject(1, AgentKind.VEHICLE, position, velocity,
                           Vec2((2.0, 1.0)))


@given(objects=st.lists(envelope_object(), max_size=4))
@settings(max_examples=2000, deadline=None)
def test_envelope_on_objects_equals_the_pair_form(objects):
    pairs = [(o.position, o.velocity) for o in objects]
    assert crossing_traffic_within_envelope(objects, ZONE) is (
        old_crossing_traffic_within_envelope(pairs, ZONE))


@pytest.mark.parametrize("position, velocity, near", [
    # Exactly YIELD_ENVELOPE out, closing at just over and exactly 0.5.
    ((ZONE.x_max + YIELD_ENVELOPE, 0.0), (-math.nextafter(0.5, 1.0), 0.0),
     True),
    ((ZONE.x_max + YIELD_ENVELOPE, 0.0), (-0.5, 0.0), False),
    ((ZONE.x_max + 36.0, ZONE.y_max + 48.0), (-3.0, -4.0), True),
    # One ulp beyond the envelope.
    ((math.nextafter(ZONE.x_max + YIELD_ENVELOPE, math.inf), 0.0),
     (-5.0, 0.0), False),
    # On the zone's edge, still.
    ((ZONE.x_max, 3.0), (-0.0, 0.0), True),
    # Inside the envelope with subnormal and signed-zero velocities.
    ((30.0, 2.5), (-5e-324, -0.0), False),
    ((30.0, 0.0), (-0.0, 5e-324), False),
])
def test_envelope_edge_cases(position, velocity, near):
    obj = PerceivedObject(1, AgentKind.VEHICLE, Vec2(position),
                          Vec2(velocity), Vec2((2.0, 1.0)))
    assert crossing_traffic_within_envelope([obj], ZONE) is near
    assert old_crossing_traffic_within_envelope(
        [(obj.position, obj.velocity)], ZONE) is near


@given(perceived=perceived_states(), maneuver=st.sampled_from(list(Maneuver)))
@settings(max_examples=600, deadline=None)
def test_proposed_ego_accel_equals_the_pair_form(perceived, maneuver):
    geometry, sim_params = build_intersection(), SimParams()
    assert proposed_ego_accel(perceived, maneuver, geometry,
                              sim_params).hex() == old_proposed_ego_accel(
        perceived, maneuver, geometry, sim_params).hex()


# --- command-law inputs gated on the maneuver --------------------------------


def eager_maneuver_to_command(maneuver, ego, world, params):
    """maneuver_to_command as it was, computing both inputs for every
    maneuver."""
    zone = world.intersection.conflict_zone
    dist = distance_to_entry(world.ego_route, world.ego_s, zone)
    near = crossing_traffic_within_envelope(world.agents, zone)
    return command_accel(maneuver, ego.speed, dist, near,
                         world.intersection.speed_limit, params)


def eager_proposed_ego_accel(perceived, proposed, world_geometry, sim_params):
    """proposed_ego_accel as it was, computing both inputs for every
    maneuver."""
    odom = perceived.ego_odometry
    route = ego_route_for(perceived.goal)
    zone = world_geometry.conflict_zone
    s_ego = route.arc_length_of(odom.position)
    if s_ego is None:
        dist = zone.distance_to(odom.position)
    else:
        dist = distance_to_entry(route, s_ego, zone)
    near = crossing_traffic_within_envelope(perceived.objects, zone)
    return command_accel(proposed, odom.speed, dist, near,
                         world_geometry.speed_limit, sim_params)


# Every member, and the plain strings that command_accel's == branches
# take as Wait and Yield.
COMMANDED = [*Maneuver, "wait", "yield"]


def test_the_gate_is_wait_and_yield_for_the_distance_and_yield_for_traffic():
    assert READS_DIST_TO_ENTRY == (Maneuver.WAIT, Maneuver.YIELD)
    assert READS_TRAFFIC_NEAR == (Maneuver.YIELD,)
    assert [m for m in COMMANDED if m in READS_DIST_TO_ENTRY] == [
        Maneuver.WAIT, Maneuver.YIELD, "wait", "yield"]
    assert [m for m in COMMANDED if m in READS_TRAFFIC_NEAR] == [
        Maneuver.YIELD, "yield"]


@given(maneuver=st.sampled_from(COMMANDED), speed=st.floats(),
       dist=st.floats(), near=st.booleans(), limit=st.floats(0.0, 40.0))
@settings(max_examples=3000, deadline=None)
def test_command_accel_reads_no_input_outside_the_gate(maneuver, speed, dist,
                                                       near, limit):
    """The invariant the gate relies on: only Wait and Yield read
    dist_to_entry, and only Yield reads crossing_traffic_near, so the
    neutral values the gate passes give the same bits."""
    params = SimParams()
    got = command_accel(maneuver, speed, dist, near, limit, params).hex()
    if maneuver != Maneuver.WAIT and maneuver != Maneuver.YIELD:
        assert got == command_accel(maneuver, speed, 0.0, False, limit,
                                    params).hex()
    if maneuver == Maneuver.WAIT:
        assert got == command_accel(maneuver, speed, dist, not near, limit,
                                    params).hex()


@given(perceived=perceived_states(off_route=True),
       maneuver=st.sampled_from(COMMANDED))
@settings(max_examples=1000, deadline=None)
def test_gated_proposed_ego_accel_equals_the_eager_form(perceived, maneuver):
    geometry, sim_params = build_intersection(), SimParams()
    assert proposed_ego_accel(perceived, maneuver, geometry,
                              sim_params).hex() == eager_proposed_ego_accel(
        perceived, maneuver, geometry, sim_params).hex()


@st.composite
def worlds(draw):
    """A spawned world with the ego anywhere on its route at any speed,
    and agents anywhere around the yield envelope."""
    world = spawn_world(draw(st.sampled_from(ScenarioBase)),
                        draw(st.sampled_from(RouteGoal)),
                        draw(st.integers(0, 99)), SimParams())
    route = world.ego_route
    ego_s = draw(st.floats(0.0, route_length(route)))
    speed = draw(st.floats(0.0, 12.0))
    position, (dx, dy), heading = route.pose_at(ego_s)
    ego = AgentState(0, AgentKind.EGO_VEHICLE, position,
                     Vec2((speed * dx, speed * dy)), heading,
                     Vec2((2.0, 1.0)))
    agents = [AgentState(i, AgentKind.VEHICLE, Vec2(draw(envelope_position)),
                         Vec2(draw(envelope_velocity)), 0.0, Vec2((2.0, 1.0)))
              for i in range(1, draw(st.integers(0, 4)) + 1)]
    return dataclasses.replace(world, ego=ego, ego_s=ego_s, agents=agents)


@given(world=worlds(), maneuver=st.sampled_from(COMMANDED))
@settings(max_examples=1000, deadline=None)
def test_gated_maneuver_to_command_equals_the_eager_form(world, maneuver):
    params = SimParams()
    assert maneuver_to_command(maneuver, world.ego, world, params).hex() == (
        eager_maneuver_to_command(maneuver, world.ego, world, params).hex())


def test_zero_velocity_shortcut_keeps_the_full_forms_bits():
    """ego_x - x stands in for ego_x - (x + times * vx) when vx is a zero
    of either sign: the differences agree up to the sign of a zero, so
    hypot returns the same bits. So the search, which applies the full
    form to every object, keeps the hashes of a monitor that took this
    shortcut."""
    times = np.asarray(sample_times(3.0, 0.05)[:3])
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


grids = st.tuples(st.floats(0.1, 10.0), st.floats(0.001, 1.0)) | \
    st.sampled_from([(3.0, 0.05), (3.0, 0.125), (2.0, 0.1), (10.0, 0.001),
                     (3.0, 0.03), (0.1, 0.1)])


@given(grid=grids)
@settings(max_examples=500, deadline=None)
def test_sample_times_is_the_arange_grid(grid):
    times = sample_times(*grid)
    old = old_sample_times(*grid)
    assert len(times) == len(old)
    assert np.array(times).tobytes() == old.tobytes()


@given(grid=grids, speed=st.floats(0.0, 15.0) | st.sampled_from([0.0, 5e-324]),
       accel=st.floats(-10.0, 4.0) | st.sampled_from([0.0, -0.0, -5e-324,
                                                      1e-300]))
@settings(max_examples=300, deadline=None)
def test_displacement_along_is_the_where_form(grid, speed, accel):
    times = sample_times(*grid)
    old = old_displacement_along(speed, accel, np.array(times))
    assert np.array(displacement_along(speed, accel, times)).tobytes() == (
        old.tobytes())


tiny = st.sampled_from([5e-324, -5e-324, 9.2e-200, -1e-160, 2.2e-308, 0.0,
                        -0.0])


@st.composite
def degenerate_cases(draw):
    """A perceived state and an ego command aimed at the search's edges:
    an ego at rest, a stop inside the horizon, still objects, subnormal
    velocities, objects on the ego's path (where the cubic's roots nearly
    touch), and grids other than the default."""
    horizon, sample_dt = draw(grids)
    heading = draw(st.sampled_from([math.pi / 2, 0.0, -math.pi / 2,
                                    draw(st.floats(-math.pi, math.pi))]))
    ux, uy = math.cos(heading), math.sin(heading)
    speed = draw(st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 15.0))
    # A braking command stops the ego inside the horizon when
    # speed / -accel < horizon.
    accel = draw(st.sampled_from([0.0, -0.0, -8.0, 3.0, -5e-324, 1e-300])
                 | st.floats(-10.0, 4.0))
    ego_x, ego_y = draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0))
    objects = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["still", "subnormal", "on_path",
                                     "free"]))
        if kind == "still":
            position = (draw(st.floats(-70.0, 70.0)),
                        draw(st.floats(-70.0, 70.0)))
            velocity = (draw(st.sampled_from([0.0, -0.0])),
                        draw(st.sampled_from([0.0, -0.0])))
        elif kind == "subnormal":
            position = (draw(st.floats(-70.0, 70.0)),
                        draw(st.floats(-70.0, 70.0)))
            velocity = (draw(tiny), draw(tiny))
        elif kind == "on_path":
            along = draw(st.floats(-10.0, 50.0))
            aside = draw(st.sampled_from([0.0, 1e-9, -1e-6]) | st.floats(-1.0, 1.0))
            position = (ego_x + along * ux - aside * uy,
                        ego_y + along * uy + aside * ux)
            v = draw(st.sampled_from([0.0, speed]) | st.floats(-15.0, 15.0))
            velocity = (v * ux, v * uy)
        else:
            position = (draw(st.floats(-70.0, 70.0)),
                        draw(st.floats(-70.0, 70.0)))
            velocity = (draw(st.floats(-15.0, 15.0)),
                        draw(st.floats(-15.0, 15.0)))
        objects.append(PerceivedObject(
            id=i + 1, kind=AgentKind.VEHICLE, position=Vec2(position),
            velocity=Vec2(velocity),
            half_extent=Vec2(draw(st.sampled_from([(2.0, 1.0),
                                                   (0.3, 0.3)])))))
    perceived = PerceivedState(
        clock=SimClock(),
        ego_odometry=EgoOdometry(position=Vec2((ego_x, ego_y)),
                                 velocity=Vec2((speed * ux, speed * uy)),
                                 heading=heading),
        objects=objects, goal=RouteGoal.STRAIGHT)
    return perceived, accel, SafetyParams(horizon=horizon,
                                          sample_dt=sample_dt)


@given(case=degenerate_cases())
@settings(max_examples=500, deadline=None)
def test_search_equals_the_point_array_form_on_edge_cases(case):
    perceived, accel, params = case
    with mock.patch.object(monitor, "proposed_ego_accel",
                           return_value=accel):
        new = safety_check(perceived, Maneuver.PROCEED, params,
                           build_intersection())
    with np.errstate(all="ignore"):
        sep, t, obj = old_minimum(perceived, accel, params)
    assert bits(new.min_predicted_separation) == bits(sep)
    assert bits(new.time_of_min) == bits(t)
    assert new.offending_object == obj


@pytest.mark.parametrize("ego, obj, accel", [
    # Braking ego passes a slower object on its path and falls back
    # behind it: two local minima of nearly the same depth.
    ((3.671053526153152, 13.886901193131408, math.pi, 6.731411523740231),
     ((2.857272552685905, 13.886901193131408),
      (-2.5025206447792048, 3.0647038974290235e-16)), -8.0),
    # An ego at a subnormal speed pulls away from an object that first
    # runs into it from behind.
    ((2.5, -13.00408185325157, 0.0, 5e-324),
     ((0.5070413309447291, -13.00408185325157), (3.348503092829084, 0.0)),
     2.0),
])
def test_search_takes_the_sample_on_either_side_of_a_minimum(ego, obj,
                                                             accel):
    x, y, heading, speed = ego
    perceived = PerceivedState(
        clock=SimClock(),
        ego_odometry=EgoOdometry(position=Vec2((x, y)),
                                 velocity=Vec2((speed * math.cos(heading),
                                                speed * math.sin(heading))),
                                 heading=heading),
        objects=[PerceivedObject(id=1, kind=AgentKind.VEHICLE,
                                 position=Vec2(obj[0]), velocity=Vec2(obj[1]),
                                 half_extent=Vec2((0.3, 0.3)))],
        goal=RouteGoal.STRAIGHT)
    params = SafetyParams()
    with mock.patch.object(monitor, "proposed_ego_accel",
                           return_value=accel):
        new = safety_check(perceived, Maneuver.PROCEED, params,
                           build_intersection())
    sep, t, _ = old_minimum(perceived, accel, params)
    assert bits(new.min_predicted_separation) == bits(sep)
    assert bits(new.time_of_min) == bits(t)


# --- crossing search ---------------------------------------------------------

from avguard import geometry  # noqa: E402
from avguard.planners import STATIONARY_SPEED, find_conflicts  # noqa: E402


def crossing_pair(a0, a1, b0, b1):
    """(float kernel, numpy reference) for two segments given by points."""
    ref = segment_intersection(np.array(a0), np.array(a1),
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
    route_pts = np.asarray(route.points)
    for obj in perceived.objects:
        speed = math.hypot(*obj.velocity)
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
        position = np.asarray(obj.position)
        path_end = position + np.asarray(obj.velocity) * 30.0
        for i in range(len(route_pts) - 1):
            cross = segment_intersection(route_pts[i], route_pts[i + 1],
                                         position, path_end)
            if cross is None or not zone.contains(cross):
                continue
            s_cross = route.arc_length_of(cross, s_min=ego_s)
            if s_cross is None or s_cross <= ego_s:
                continue
            time_gap = math.hypot(*(cross - position)) / speed
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
