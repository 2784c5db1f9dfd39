"""Predicted-trajectory safety monitoring and the recovery override.

The monitor predicts the ego under the proposed maneuver's acceleration
command (constant acceleration along its heading, speed clamped at
zero) and every perceived object under constant velocity, then takes
the minimum disc-footprint separation over the sample grid 0,
sample_dt, ..., horizon. The recovery planner overrides an unsafe
proposal with an emergency brake.

The sampled minimum is found by a candidate search, without visiting
every sample. This is the closest-point-of-approach idea of continuous
collision detection:

- While the ego moves, the ego-to-object offset r(t) is quadratic in t,
  so |r| has a local minimum exactly where the cubic r . r' turns from
  - to +. Each such root is bracketed between the cubic's own turning
  points and bisected over the samples to one sample_dt. Once the ego
  has stopped, r(t) is linear and has one closest approach.
- Between these points the separation is monotone, so the sampled
  minimum sits at a sample next to a local minimum, next to the stopped
  phase's closest approach, or at an end of the grid. Only those
  samples are evaluated.
- Rounding can make a flat stretch of samples wobble in the last bits,
  so the search then walks outward from every sample within
  SEARCH_SLACK of the running minimum until the values rise past it.

Each sample is evaluated with the operations, in the order, of the
point-array form the search replaced, and ties go to the first sample,
so the minimum and its time have that form's bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Optional, Sequence

from .config import EGO_RADIUS, SafetyParams, SimParams, Vec2
from .sim import READS_DIST_TO_ENTRY, READS_TRAFFIC_NEAR, command_accel, \
    crossing_traffic_within_envelope, distance_to_entry, ego_route_for
from .state import EMERGENCY_BRAKE, SAFE, UNSAFE, WARNING
from .state import (
    IntersectionGeometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    Verdict,
)

# A sample within this many metres of the running minimum may sit on a
# flat stretch whose rounding hides a lower sample next to it. Rounding
# on world-scale coordinates is below 1e-13 m.
SEARCH_SLACK = 1e-9


@lru_cache(maxsize=16)
def sample_times(horizon: float, sample_dt: float) -> tuple[float, ...]:
    """Samples k * sample_dt up to horizon, and horizon if the grid misses it.

    These are the bits of np.arange(0, horizon + sample_dt / 2, sample_dt)
    with horizon appended.
    """
    count = math.ceil((horizon + 0.5 * sample_dt) / sample_dt)
    times = tuple(k * sample_dt for k in range(count))
    if times[-1] < horizon - 1e-12:
        times += (horizon,)
    return times


def _stop(speed: float, accel: float,
          times: Sequence[float]) -> tuple[int, float, float]:
    """The first sample at which the ego has stopped, the time it stops,
    and its arc from then on.

    An ego at rest with accel <= 0 is stopped from sample 0: there the
    moving form speed * t + 0.5 * accel * t * t is +0.0 on every sample.
    An ego that never stops gets (len(times), inf, 0.0).
    """
    if accel < 0.0:
        t_stop = speed / -accel
        return (bisect_left(times, t_stop), t_stop,
                speed * speed / (2.0 * -accel))
    if speed == 0.0 and accel == 0.0:
        return 0, 0.0, 0.0
    return len(times), math.inf, 0.0


def proposed_ego_accel(perceived: PerceivedState, proposed: Maneuver,
                       world_geometry: IntersectionGeometry,
                       sim_params: SimParams) -> float:
    """The longitudinal command the proposal would actuate, from perception."""
    odom = perceived.ego_odometry
    zone = world_geometry.conflict_zone
    dist = 0.0
    if proposed in READS_DIST_TO_ENTRY:
        route = ego_route_for(perceived.goal)
        s_ego = route.arc_length_of(odom.position)
        dist = (zone.distance_to(odom.position) if s_ego is None
                else distance_to_entry(route, s_ego, zone))
    near = (proposed in READS_TRAFFIC_NEAR
            and crossing_traffic_within_envelope(perceived.objects, zone))
    return command_accel(proposed, odom.speed, dist, near,
                         world_geometry.speed_limit, sim_params)


def _closest_sample(times: tuple[float, ...], ex0: float, ey0: float,
                    speed: float, half_a: float, c: float, s: float,
                    k_stop: int, t_stop: float, s_stop: float,
                    obj: PerceivedObject) -> tuple[float, int]:
    """The minimum sampled separation from obj, and its first sample.

    The ego starts at (ex0, ey0) with speed, half_a = accel / 2 and
    heading (c, s) = (cos, sin); the rest is what _stop returns.
    """
    x, y = obj.position
    vx, vy = obj.velocity
    radius = EGO_RADIUS + max(obj.half_extent)
    last = len(times) - 1

    candidates = []
    limit = last
    if k_stop > 0:
        # Moving phase: r(t) = a + b t + q t^2, so r . r' is the cubic
        # c3 t^3 + c2 t^2 + c1 t + c0, and |r| falls where it is < 0.
        ax, ay = ex0 - x, ey0 - y
        bx, by = speed * c - vx, speed * s - vy
        qx, qy = half_a * c, half_a * s
        c3 = 2.0 * (qx * qx + qy * qy)
        c2 = 3.0 * (bx * qx + by * qy)
        c1 = 2.0 * (ax * qx + ay * qy) + bx * bx + by * by
        c0 = ax * bx + ay * by
        # Cut the phase at the cubic's turning points, so that it is
        # monotone between cuts.
        end = min(t_stop, times[last])
        cuts = [0.0]
        if c3 != 0.0:
            disc = c2 * c2 - 3.0 * c3 * c1
            if disc > 0.0:
                q = -(c2 + math.copysign(math.sqrt(disc), c2))
                for t in sorted((q / (3.0 * c3), c1 / q)):
                    if 0.0 < t < end:
                        cuts.append(t)
        elif c2 != 0.0 and 0.0 < -c1 / (2.0 * c2) < end:
            cuts.append(-c1 / (2.0 * c2))
        cuts.append(end)
        falling = c0 < 0.0
        if not falling:
            candidates.append(0)
        for n in range(1, len(cuts)):
            hi_t = cuts[n]
            was_falling = falling
            falling = ((c3 * hi_t + c2) * hi_t + c1) * hi_t + c0 < 0.0
            if was_falling and not falling:
                # A local minimum of |r| in (cuts[n - 1], hi_t]: bisect
                # for the first sample there at which the cubic is >= 0.
                lo = bisect_left(times, cuts[n - 1])
                hi = bisect_right(times, hi_t)
                while lo < hi:
                    mid = (lo + hi) // 2
                    t = times[mid]
                    if ((c3 * t + c2) * t + c1) * t + c0 < 0.0:
                        lo = mid + 1
                    else:
                        hi = mid
                candidates += (lo - 1, lo)
        if falling and k_stop > last:
            candidates.append(last)
    if k_stop <= last:
        # Stopped phase: r(t) = d - t v, closest at t = d . v / |v|^2.
        if vx == 0.0 and vy == 0.0:
            # Every stopped sample of a still object has the same bits.
            limit = k_stop
            candidates.append(k_stop)
        else:
            dx = (ex0 + s_stop * c) - x
            dy = (ey0 + s_stop * s) - y
            # Normalizing first keeps a subnormal |v|^2 from reaching 0.
            norm = abs(complex(vx, vy))
            t_close = (dx * (vx / norm) + dy * (vy / norm)) / norm
            k = bisect_left(times, t_close, k_stop)
            candidates += (k - 1, k)

    # The running minimum and the first sample that holds it, as argmin
    # takes it, with that sample's own value: a -0.0 keeps its sign.
    seps = {}
    best, first = math.inf, last + 1
    for k in candidates:
        if 0 <= k <= limit and k not in seps:
            t = times[k]
            d = s_stop if k >= k_stop else speed * t + half_a * t * t
            sep = seps[k] = abs(complex((ex0 + d * c) - (x + t * vx),
                                        (ey0 + d * s) - (y + t * vy))) - radius
            if sep < best or (sep == best and k < first):
                best, first = sep, k
    bound = best + SEARCH_SLACK
    for k in sorted(seps):
        if seps[k] > bound:
            continue
        # Walk on through samples within the slack, both ways.
        for step in (-1, 1):
            j = k + step
            while 0 <= j <= limit:
                sep = seps.get(j)
                if sep is None:
                    t = times[j]
                    d = s_stop if j >= k_stop else speed * t + half_a * t * t
                    sep = seps[j] = abs(complex(
                        (ex0 + d * c) - (x + t * vx),
                        (ey0 + d * s) - (y + t * vy))) - radius
                    if sep < best or (sep == best and j < first):
                        best, first, bound = sep, j, sep + SEARCH_SLACK
                if sep > bound:
                    break
                j += step
    return best, first


def safety_check(perceived: PerceivedState, proposed: Maneuver,
                 params: SafetyParams, world_geometry: IntersectionGeometry,
                 sim_params: Optional[SimParams] = None) -> Verdict:
    """Minimum predicted separation between ego and all perceived objects.

    Separation is center distance minus summed disc radii (max half
    extent per body). The unsafe threshold widens with the offending
    object's closing speed: d_unsafe + margin_speed_gain * closing.
    """
    sim_params = sim_params or SimParams()
    odom = perceived.ego_odometry
    objects = perceived.objects
    if not objects:
        return Verdict(SAFE, math.inf, 0.0)

    accel = proposed_ego_accel(perceived, proposed, world_geometry, sim_params)
    times = sample_times(params.horizon, params.sample_dt)
    speed = odom.speed
    ex0, ey0 = odom.position
    half_a = 0.5 * accel
    c, s = math.cos(odom.heading), math.sin(odom.heading)
    k_stop, t_stop, s_stop = _stop(speed, accel, times)

    best_sep, best_t, offender = math.inf, 0.0, None
    for obj in objects:
        sep, i = _closest_sample(times, ex0, ey0, speed, half_a, c, s,
                                 k_stop, t_stop, s_stop, obj)
        if sep < best_sep:
            best_sep, best_t, offender = sep, times[i], obj

    closing = closing_speed(odom.position, odom.velocity,
                            offender.position, offender.velocity)
    d_unsafe_eff = params.d_unsafe + params.margin_speed_gain * closing
    if best_sep < d_unsafe_eff:
        level = UNSAFE
    elif best_sep < max(params.d_warn, d_unsafe_eff):
        level = WARNING
    else:
        level = SAFE
    return Verdict(level, best_sep, best_t, offender.id)


def closing_speed(ego_pos: Vec2, ego_vel: Vec2, obj_pos: Vec2,
                  obj_vel: Vec2) -> float:
    """Rate of approach along the line of sight at t=0; 0 if separating."""
    ex, ey = ego_pos
    ox, oy = obj_pos
    evx, evy = ego_vel
    ovx, ovy = obj_vel
    lx, ly = ex - ox, ey - oy
    rx, ry = ovx - evx, ovy - evy
    norm = math.hypot(lx, ly)
    if norm < 1e-9:
        return math.hypot(rx, ry)
    return max(0.0, rx * (lx / norm) + ry * (ly / norm))


def recovery_decide(verdict: Verdict, proposed: Maneuver) -> Maneuver:
    """Emergency-brake override on an unsafe verdict; pass-through otherwise."""
    if verdict.level == UNSAFE:
        return EMERGENCY_BRAKE
    return proposed


__all__ = [
    "closing_speed",
    "recovery_decide",
    "safety_check",
]
