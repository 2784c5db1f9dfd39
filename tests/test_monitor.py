"""Safety monitor: trajectory prediction, verdict levels, and recovery.

The headline check is monitor/oracle equivalence: an independently coded
brute-force oracle samples ego/object separation every 1 ms over the
horizon and must agree with safety_check on 1,000 randomized
configurations.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avguard.config import (
    EGO_RADIUS,
    VEHICLE_HALF_EXTENT,
    RouteGoal,
    SafetyParams,
    SimParams,
    Vec2,
)
from avguard.geometry import obb_overlap, rect_corners
from avguard.monitor import (
    _stop,
    closing_speed,
    proposed_ego_accel,
    recovery_decide,
    safety_check,
    sample_times,
)
from avguard.scenario import MIN_D_UNSAFE
from avguard.sim import build_intersection
from avguard.state import (
    AgentKind,
    EgoOdometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    SimClock,
    Verdict,
    VerdictLevel,
)

GEOMETRY = build_intersection()
SIM_PARAMS = SimParams()


def make_perceived(ego_pos, ego_vel, ego_heading, objects,
                   goal=RouteGoal.STRAIGHT):
    return PerceivedState(
        clock=SimClock(tick=0, dt=0.1),
        ego_odometry=EgoOdometry(position=Vec2((float(ego_pos[0]),
                                                float(ego_pos[1]))),
                                 velocity=Vec2((float(ego_vel[0]),
                                                float(ego_vel[1]))),
                                 heading=ego_heading),
        objects=objects,
        goal=goal)


def make_object(obj_id, pos, vel, half_extent=(2.0, 1.0)):
    return PerceivedObject(id=obj_id, kind=AgentKind.VEHICLE,
                           position=Vec2((float(pos[0]), float(pos[1]))),
                           velocity=Vec2((float(vel[0]), float(vel[1]))),
                           half_extent=Vec2((float(half_extent[0]),
                                             float(half_extent[1]))))


def displacement_along(speed, accel, times):
    """Arc displacement at each time under constant accel, clamped at zero
    speed: the ego arc the monitor's search evaluates one sample at a time.

    At sample k, time t, that is speed * t + accel / 2 * t * t while the
    ego moves, and its stopping arc from its first stopped sample on.
    """
    k_stop, _, s_stop = _stop(speed, accel, times)
    half_a = 0.5 * accel
    return tuple(s_stop if k >= k_stop else speed * t + half_a * t * t
                 for k, t in enumerate(times))


# --- independent 1 ms brute-force oracle ------------------------------------

def _ego_arc_at(t, speed, accel):
    """Closed-form clamped longitudinal displacement, written out by hand."""
    if accel < 0.0 and speed > 0.0:
        t_stop = speed / -accel
        if t >= t_stop:
            return speed * speed / (2.0 * -accel)
    if speed <= 0.0 and accel <= 0.0:
        return 0.0
    return speed * t + 0.5 * accel * t * t


def brute_force_oracle(perceived, proposed, params, oracle_dt=0.001):
    """(level, min separation, time of min) sampled every oracle_dt."""
    odom = perceived.ego_odometry
    accel = proposed_ego_accel(perceived, proposed, GEOMETRY, SIM_PARAMS)
    heading = odom.heading
    ux, uy = math.cos(heading), math.sin(heading)
    speed = odom.speed

    n = int(round(params.horizon / oracle_dt))
    best_sep, best_t, best_obj = math.inf, 0.0, None
    for obj in perceived.objects:
        radius = EGO_RADIUS + max(float(obj.half_extent[0]),
                                  float(obj.half_extent[1]))
        for k in range(n + 1):
            t = k * oracle_dt
            s = _ego_arc_at(t, speed, accel)
            ex = odom.position[0] + s * ux
            ey = odom.position[1] + s * uy
            ox = obj.position[0] + t * obj.velocity[0]
            oy = obj.position[1] + t * obj.velocity[1]
            sep = math.hypot(ex - ox, ey - oy) - radius
            if sep < best_sep:
                best_sep, best_t, best_obj = sep, t, obj.id

    offender = next(o for o in perceived.objects if o.id == best_obj)
    closing = closing_speed(odom.position, odom.velocity,
                            offender.position, offender.velocity)
    d_unsafe_eff = params.d_unsafe + params.margin_speed_gain * closing
    if best_sep < d_unsafe_eff:
        level = VerdictLevel.UNSAFE
    elif best_sep < max(params.d_warn, d_unsafe_eff):
        level = VerdictLevel.WARNING
    else:
        level = VerdictLevel.SAFE
    return level, best_sep, best_t


def _random_config(rng):
    """An on-route ego plus 1-3 objects in plausible intersection poses."""
    # Ego on the south approach lane (x = +2.5, heading +y).
    ego_y = rng.uniform(-45.0, -12.0)
    ego_speed = rng.uniform(0.0, 10.0)
    objects = []
    for i in range(rng.randint(1, 3)):
        approach = rng.choice(["E", "W", "N", "free"])
        if approach == "E":
            pos = [rng.uniform(5.0, 50.0), 2.5]
            vel = [-rng.uniform(0.0, 10.0), 0.0]
        elif approach == "W":
            pos = [-rng.uniform(5.0, 50.0), -2.5]
            vel = [rng.uniform(0.0, 10.0), 0.0]
        elif approach == "N":
            pos = [-2.5, rng.uniform(5.0, 50.0)]
            vel = [0.0, -rng.uniform(0.0, 10.0)]
        else:
            pos = [rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)]
            theta = rng.uniform(0, math.tau)
            speed = rng.uniform(0.0, 10.0)
            vel = [speed * math.cos(theta), speed * math.sin(theta)]
        objects.append(make_object(i + 1, pos, vel))
    maneuver = rng.choice([m for m in Maneuver
                           if m != Maneuver.EMERGENCY_BRAKE])
    perceived = make_perceived([2.5, ego_y], [0.0, ego_speed], math.pi / 2,
                               objects)
    return perceived, maneuver


# --- oriented-rectangle conservatism oracle --------------------------------

def first_predicted_overlap(perceived, proposed, params, oracle_dt=0.002):
    """Earliest time, sampled every oracle_dt over the horizon, at which
    the predicted ego rectangle overlaps a predicted object rectangle;
    None if none does.

    The ego moves as the monitor predicts it; each object moves at
    constant velocity, heading along it. A stationary object may face
    any way, so it is tried at eight headings.
    """
    odom = perceived.ego_odometry
    accel = proposed_ego_accel(perceived, proposed, GEOMETRY, SIM_PARAMS)
    ux, uy = math.cos(odom.heading), math.sin(odom.heading)
    ego_reach = math.hypot(*VEHICLE_HALF_EXTENT)
    for k in range(int(round(params.horizon / oracle_dt)) + 1):
        t = k * oracle_dt
        s = _ego_arc_at(t, odom.speed, accel)
        ego_center = (odom.position[0] + s * ux, odom.position[1] + s * uy)
        for obj in perceived.objects:
            vx, vy = obj.velocity
            center = (obj.position[0] + t * vx, obj.position[1] + t * vy)
            # Broad phase: each rectangle lies inside its circumscribed disc.
            if math.dist(ego_center, center) > (
                    ego_reach + math.hypot(*obj.half_extent)):
                continue
            ego = rect_corners(ego_center, VEHICLE_HALF_EXTENT, odom.heading)
            headings = ([math.atan2(vy, vx)] if vx or vy
                        else [i * math.pi / 4 for i in range(8)])
            if any(obb_overlap(ego, rect_corners(center, obj.half_extent, h))
                   is not None for h in headings):
                return t
    return None


# The default d_unsafe, and the least one validate_spec accepts.
D_UNSAFE_CASES = [SafetyParams().d_unsafe, MIN_D_UNSAFE]


class TestRectangleConservatism:
    @pytest.mark.parametrize("d_unsafe", D_UNSAFE_CASES,
                             ids=["default", "least"])
    @given(seed=st.integers(0, 2**32 - 1), stationary=st.integers(0, 7))
    @settings(max_examples=400, deadline=None)
    def test_predicted_rectangle_overlap_is_unsafe(self, d_unsafe, seed,
                                                   stationary):
        """If the predicted rectangles overlap within the horizon, the
        verdict is UNSAFE at the default SafetyParams and at the least
        d_unsafe a spec may set. Bit i of ``stationary`` stops object i,
        as a ghost is stopped."""
        perceived, maneuver = _random_config(random.Random(seed))
        for i, obj in enumerate(perceived.objects):
            if stationary >> i & 1:
                obj.velocity = Vec2((0.0, 0.0))
        params = SafetyParams(d_unsafe=d_unsafe)
        if first_predicted_overlap(perceived, maneuver, params) is not None:
            verdict = safety_check(perceived, maneuver, params, GEOMETRY)
            assert verdict.level == VerdictLevel.UNSAFE, verdict

    @pytest.mark.parametrize("d_unsafe", D_UNSAFE_CASES,
                             ids=["default", "least"])
    def test_side_by_side_stationary_overlap(self, d_unsafe):
        # Two stopped vehicles whose rectangles overlap by 0.1 m while
        # their discs report +0.338 m: the oracle sees the overlap at
        # t = 0, and every d_unsafe a spec may set calls it UNSAFE.
        perceived = make_perceived(
            [2.5, -30.0], [0.0, 0.0], math.pi / 2,
            [make_object(1, [4.4, -26.1], [0.0, 0.0])])
        params = SafetyParams(d_unsafe=d_unsafe)
        assert first_predicted_overlap(perceived, Maneuver.WAIT,
                                       params) == 0.0
        verdict = safety_check(perceived, Maneuver.WAIT, params, GEOMETRY)
        assert verdict.min_predicted_separation == pytest.approx(0.338,
                                                                 abs=1e-3)
        assert verdict.level == VerdictLevel.UNSAFE


class TestPredictTrajectory:
    def test_constant_accel_clamps_at_stop(self):
        # v = 5 m/s, a = -8 m/s^2: stop at t = 0.625 s, frozen at 1.5625 m.
        times = sample_times(3.0, 0.125)
        s = displacement_along(5.0, -8.0, times)
        by_time = {round(float(t), 6): float(d) for t, d in zip(times, s)}
        assert by_time[0.5] == pytest.approx(5 * 0.5 - 4 * 0.25)
        # The body never reverses: once stopped at t = 0.625 s the
        # displacement stays frozen instead of following the parabola back.
        for t, d in by_time.items():
            if t >= 0.625:
                assert d == pytest.approx(1.5625)

    def test_standstill(self):
        times = sample_times(3.0, 0.125)
        # Braking from rest stays at +0.0 (never a reversing parabola or
        # a -0.0); accelerating from rest follows the parabola.
        braking = displacement_along(0.0, -8.0, times)
        assert np.array_equal(braking, np.zeros_like(times))
        assert not np.signbit(braking).any()
        assert np.array_equal(displacement_along(0.0, 3.0, times),
                              [0.5 * 3.0 * t * t for t in times])

    def test_sample_times_inclusive(self):
        times = sample_times(3.0, 0.05)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(3.0)


class TestSafetyCheck:
    def test_no_objects_vacuously_safe(self):
        perceived = make_perceived([2.5, -30.0], [0.0, 8.0], math.pi / 2, [])
        verdict = safety_check(perceived, Maneuver.PROCEED, SafetyParams(),
                               GEOMETRY)
        assert verdict.level == VerdictLevel.SAFE
        assert verdict.min_predicted_separation == math.inf

    def test_crossing_car_unsafe_when_proceeding(self):
        # Ego and a crossing car both reach the junction center around
        # t = 2 s; the predicted separation collapses inside the horizon.
        perceived = make_perceived(
            [2.5, -12.5], [0.0, 5.0], math.pi / 2,
            [make_object(1, [-7.5, 2.5], [5.0, 0.0])])
        params = SafetyParams()
        verdict = safety_check(perceived, Maneuver.PROCEED, params, GEOMETRY)
        level, sep, _ = brute_force_oracle(perceived, Maneuver.PROCEED, params)
        assert verdict.level == VerdictLevel.UNSAFE
        assert level == VerdictLevel.UNSAFE
        # Exact agreement when the fast path samples at the oracle rate.
        fine = SafetyParams(sample_dt=0.001)
        verdict_fine = safety_check(perceived, Maneuver.PROCEED, fine, GEOMETRY)
        assert verdict_fine.min_predicted_separation == pytest.approx(
            sep, abs=1e-6)

    def test_same_geometry_safe_when_waiting(self):
        perceived = make_perceived(
            [2.5, -12.5], [0.0, 5.0], math.pi / 2,
            [make_object(1, [-7.5, 2.5], [5.0, 0.0])])
        params = SafetyParams()
        verdict = safety_check(perceived, Maneuver.WAIT, params, GEOMETRY)
        level, _, _ = brute_force_oracle(perceived, Maneuver.WAIT, params)
        assert verdict.level == VerdictLevel.SAFE
        assert level == VerdictLevel.SAFE

    def test_oracle_equivalence_1000_random_configs(self):
        """Fast path sampled at the oracle's 1 ms rate: verdict levels
        match exactly and separations agree within 1e-3 m (they are in
        fact identical to float precision, since the residual tolerance
        only covers sampling granularity).  The default 50 ms grid is
        additionally checked against a granularity bound: it can miss a
        parabolic minimum between samples, but never by more than the
        worst-case inter-sample motion."""
        rng = random.Random(77)
        fine = SafetyParams(sample_dt=0.001)
        default = SafetyParams()
        for _ in range(1000):
            perceived, maneuver = _random_config(rng)
            verdict = safety_check(perceived, maneuver, fine, GEOMETRY)
            level, sep, t_min = brute_force_oracle(perceived, maneuver, fine)
            assert verdict.level == level, (
                f"level mismatch: fast={verdict.level} oracle={level} "
                f"sep fast={verdict.min_predicted_separation} oracle={sep}")
            assert abs(verdict.min_predicted_separation - sep) <= 1e-3
            assert verdict.min_predicted_separation == pytest.approx(
                sep, abs=1e-9)
            assert verdict.time_of_min == pytest.approx(t_min, abs=1e-9)
            # Granularity bound for the default 50 ms sampling: relative
            # speed x half the sample interval, the largest distance a
            # parabolic minimum can hide between two samples.
            coarse = safety_check(perceived, maneuver, default, GEOMETRY)
            rel = max(perceived.ego_odometry.speed + math.hypot(*o.velocity)
                      for o in perceived.objects)
            bound = rel * default.sample_dt / 2.0 + 1e-9
            assert coarse.min_predicted_separation >= sep - 1e-9
            assert coarse.min_predicted_separation <= sep + bound

    def test_monotone_caution_on_head_crossings(self):
        """Less committed maneuvers never predict smaller separations for
        traffic crossing ahead of the ego entry line."""
        rng = random.Random(31)
        params = SafetyParams()
        order = [Maneuver.WAIT, Maneuver.PROCEED_CAUTIOUSLY,
                 Maneuver.ACCELERATE]
        checked = 0
        while checked < 100:
            ego_y = rng.uniform(-45.0, -25.0)
            ego_speed = rng.uniform(2.0, 6.0)
            obj_x = rng.uniform(15.0, 35.0)
            obj_speed = rng.uniform(6.0, 10.0)
            # Keep only genuine head-crossings: the car reaches the ego
            # lane before even a flat-out ego could reach the crossing
            # point, so more commitment always means less clearance.
            crossing_time = (obj_x - 2.5) / obj_speed
            ego_gap = 2.5 - ego_y
            ego_fastest = ego_gap / 10.0
            if crossing_time + 0.5 > ego_fastest:
                continue
            perceived = make_perceived(
                [2.5, ego_y], [0.0, ego_speed], math.pi / 2,
                [make_object(1, [obj_x, 2.5], [-obj_speed, 0.0])])
            seps = [safety_check(perceived, m, params,
                                 GEOMETRY).min_predicted_separation
                    for m in order]
            assert seps[0] >= seps[1] - 1e-9
            assert seps[1] >= seps[2] - 1e-9
            checked += 1

    def test_offending_object_reported(self):
        near = make_object(7, [2.5, -8.0], [0.0, 0.0])
        far = make_object(8, [40.0, 40.0], [0.0, 0.0])
        perceived = make_perceived([2.5, -20.0], [0.0, 8.0], math.pi / 2,
                                   [far, near])
        verdict = safety_check(perceived, Maneuver.PROCEED, SafetyParams(),
                               GEOMETRY)
        assert verdict.offending_object == 7


class TestClosingSpeed:
    def test_approaching(self):
        v = closing_speed(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                          np.array([10.0, 0.0]), np.array([-3.0, 0.0]))
        assert v == pytest.approx(3.0)

    def test_separating_clamped_to_zero(self):
        v = closing_speed(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                          np.array([10.0, 0.0]), np.array([3.0, 0.0]))
        assert v == 0.0


class TestRecoveryDecide:
    def test_unsafe_overrides_to_emergency_brake(self):
        verdict = Verdict(level=VerdictLevel.UNSAFE,
                          min_predicted_separation=0.5, time_of_min=1.0)
        assert recovery_decide(verdict, Maneuver.ACCELERATE) == (
            Maneuver.EMERGENCY_BRAKE)

    def test_safe_passes_through(self):
        verdict = Verdict(level=VerdictLevel.SAFE,
                          min_predicted_separation=9.0, time_of_min=0.0)
        assert recovery_decide(verdict, Maneuver.YIELD) == Maneuver.YIELD

    def test_warning_does_not_trigger_recovery(self):
        verdict = Verdict(level=VerdictLevel.WARNING,
                          min_predicted_separation=3.0, time_of_min=1.0)
        assert recovery_decide(verdict, Maneuver.PROCEED) == Maneuver.PROCEED

    def test_total_and_never_brakes_on_safe(self):
        for level in VerdictLevel:
            for proposed in Maneuver:
                verdict = Verdict(level=level, min_predicted_separation=5.0,
                                  time_of_min=0.0)
                out = recovery_decide(verdict, proposed)
                assert isinstance(out, Maneuver)
                if level == VerdictLevel.SAFE:
                    assert (out == Maneuver.EMERGENCY_BRAKE) == (
                        proposed == Maneuver.EMERGENCY_BRAKE)


class TestSafetyParams:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            SafetyParams(d_unsafe=5.0, d_warn=4.0)
