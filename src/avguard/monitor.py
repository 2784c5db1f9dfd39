"""Predicted-trajectory safety monitoring and the recovery override.

The monitor predicts the ego under the proposed maneuver's acceleration
command (constant-acceleration along its heading, speed clamped at zero)
and every perceived object under constant velocity, then takes the
minimum disc-footprint separation over a sampled horizon. The recovery
planner overrides an unsafe proposal with an emergency brake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .sim import SimParams, command_accel, crossing_traffic_within_envelope, \
    distance_to_entry, ego_route_for
from .state import (
    IntersectionGeometry,
    Maneuver,
    PerceivedState,
    Vec2,
    Verdict,
    VerdictLevel,
)

# Ego footprint radius for the disc approximation; matches the vehicle
# bounding box (max half extent).
EGO_RADIUS = 2.0


@dataclass(frozen=True)
class SafetyParams:
    horizon: float = 3.0          # s
    sample_dt: float = 0.05       # s
    d_unsafe: float = 2.0         # m
    d_warn: float = 4.0           # m
    margin_speed_gain: float = 0.25  # s; widens d_unsafe with closing speed

    def __post_init__(self) -> None:
        if not (0.0 < self.d_unsafe < self.d_warn):
            raise ValueError("require 0 < d_unsafe < d_warn")
        for name in ("horizon", "sample_dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.margin_speed_gain >= 0:
            raise ValueError("margin_speed_gain must be >= 0")


def sample_times(horizon: float, sample_dt: float) -> np.ndarray:
    """Samples at 0, sample_dt, ..., horizon inclusive."""
    times = np.arange(0.0, horizon + 0.5 * sample_dt, sample_dt)
    if times[-1] < horizon - 1e-12:
        times = np.append(times, horizon)
    return times


@lru_cache(maxsize=16)
def _shared_sample_times(horizon: float, sample_dt: float) -> np.ndarray:
    """sample_times, built once per (horizon, sample_dt); never written."""
    return sample_times(horizon, sample_dt)


def displacement_along(speed: float, accel: float, times: np.ndarray) -> np.ndarray:
    """Scalar arc displacement under constant accel, clamped at zero speed."""
    s = speed * times + 0.5 * accel * times * times
    if accel < 0.0:
        t_stop = speed / -accel
        s = np.where(times >= t_stop, speed * speed / (2.0 * -accel), s)
    return s


def proposed_ego_accel(perceived: PerceivedState, proposed: Maneuver,
                       world_geometry: IntersectionGeometry,
                       sim_params: SimParams) -> float:
    """The longitudinal command the proposal would actuate, from perception."""
    odom = perceived.ego_odometry
    route = ego_route_for(perceived.goal)
    zone = world_geometry.conflict_zone
    s_ego = route.arc_length_of(odom.position)
    if s_ego is None:
        dist = zone.distance_to(odom.position)
    else:
        dist = distance_to_entry(route, s_ego, zone)
    near = crossing_traffic_within_envelope(
        [(o.position, o.velocity) for o in perceived.objects], zone)
    return command_accel(proposed, odom.speed, dist, near,
                         world_geometry.speed_limit, sim_params)


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
    if not perceived.objects:
        return Verdict(level=VerdictLevel.SAFE,
                       min_predicted_separation=math.inf, time_of_min=0.0)

    accel = proposed_ego_accel(perceived, proposed, world_geometry, sim_params)
    times = _shared_sample_times(params.horizon, params.sample_dt)
    s = displacement_along(odom.speed, accel, times)
    ego_x0, ego_y0 = odom.position
    ego_x = ego_x0 + s * math.cos(odom.heading)
    ego_y = ego_y0 + s * math.sin(odom.heading)

    # One object at a time: most checks see one or two objects, where a
    # pass vectorized across objects costs more than this loop.
    best_sep, best_t, best_obj = math.inf, 0.0, None
    for obj in perceived.objects:
        x, y = obj.position
        vx, vy = obj.velocity
        # A zero velocity component leaves its coordinate at x (or y):
        # ego_x - x and ego_x - (x + times * 0.0) differ at most in the
        # sign of a zero, which hypot ignores.
        dx = ego_x - x if vx == 0.0 else ego_x - (x + times * vx)
        dy = ego_y - y if vy == 0.0 else ego_y - (y + times * vy)
        # Subtracting the radius from every sample before argmin keeps
        # the index that wins a rounding tie.
        sep = np.hypot(dx, dy)
        sep -= EGO_RADIUS + max(obj.half_extent)
        i = int(sep.argmin())
        if sep[i] < best_sep:
            best_sep, best_t, best_obj = float(sep[i]), float(times[i]), obj.id

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
    return Verdict(level=level, min_predicted_separation=best_sep,
                   time_of_min=best_t, offending_object=best_obj)


def closing_speed(ego_pos: Vec2, ego_vel: Vec2, obj_pos: Vec2,
                  obj_vel: Vec2) -> float:
    """Rate of approach along the line of sight at t=0; 0 if separating."""
    lx, ly = ego_pos - obj_pos
    rx, ry = obj_vel - ego_vel
    norm = math.hypot(lx, ly)
    if norm < 1e-9:
        return math.hypot(rx, ry)
    return max(0.0, rx * (lx / norm) + ry * (ly / norm))


def recovery_decide(verdict: Verdict, proposed: Maneuver) -> Maneuver:
    """Emergency-brake override on an unsafe verdict; pass-through otherwise."""
    if verdict.level == VerdictLevel.UNSAFE:
        return Maneuver.EMERGENCY_BRAKE
    return proposed


__all__ = [
    "EGO_RADIUS",
    "SafetyParams",
    "closing_speed",
    "displacement_along",
    "proposed_ego_accel",
    "recovery_decide",
    "safety_check",
    "sample_times",
]
