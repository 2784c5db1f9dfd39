"""What a scenario file can set: the parameter types, the enums they name,
and the constants their range checks read.

Each role's parameters live here rather than in the role's module, and
this module imports nothing else of avguard. So loading and validating a
scenario builds these types and none of the tick path's. The roles
import what they use from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

# The end of each approach road, in metres from the origin.
APPROACH_REACH = 200.0

MAX_VELOCITY_SCALE = 100.0  # keeps a spoofed velocity and the monitor finite


class Vec2(tuple):
    """An (x, y) pair of floats; ``a - b`` subtracts elementwise."""

    __slots__ = ()

    def __sub__(self, other):
        ox, oy = other
        return Vec2((self[0] - ox, self[1] - oy))


VEHICLE_HALF_EXTENT = Vec2((2.0, 1.0))
# Ego footprint radius for the monitor's disc approximation.
EGO_RADIUS = max(VEHICLE_HALF_EXTENT)


class ScenarioBase(str, Enum):
    NOMINAL = "nominal"
    CONGESTED = "congested"
    CONFLICTING_TRAFFIC = "conflicting_traffic"
    PEDESTRIAN_CROSSING = "pedestrian_crossing"


class RouteGoal(str, Enum):
    STRAIGHT = "straight"
    LEFT_TURN = "left_turn"
    RIGHT_TURN = "right_turn"


class FaultKind(str, Enum):
    GHOST_OBSTACLE = "ghost_obstacle"
    TRAJECTORY_SPOOF = "trajectory_spoof"


class TriggerKind(str, Enum):
    EGO_WITHIN_DISTANCE = "ego_within"  # meters from the conflict zone
    AT_TICK = "at_tick"
    PERIODIC = "periodic"               # every N ticks


class PlannerKind(str, Enum):
    GAP_ACCEPTANCE = "gap_acceptance"
    OVER_CAUTIOUS = "over_cautious"
    AGGRESSIVE = "aggressive"


_KIND_CAUTION = {
    PlannerKind.GAP_ACCEPTANCE: 1.0,
    PlannerKind.OVER_CAUTIOUS: 2.5,
    PlannerKind.AGGRESSIVE: 0.4,
}


@dataclass(frozen=True)
class SimParams:
    """The simulator's time step, sensing range, braking and acceleration
    limits, and perception noise."""

    dt: float = 0.1
    sensing_range: float = 60.0
    a_brake_max: float = 8.0
    a_accel_max: float = 3.0
    perception_noise_std: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dt", "sensing_range", "a_brake_max", "a_accel_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.perception_noise_std >= 0:
            raise ValueError("perception_noise_std must be >= 0")


@dataclass(frozen=True)
class SafetyParams:
    """The safety monitor's horizon, sample step, separation thresholds and
    closing-speed margin."""

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


@dataclass(frozen=True)
class PerfThresholds:
    """The performance oracle's limits on clearance time, acceleration and
    jerk."""

    max_clearance: float = 30.0    # s; still uncleared past this is gridlock
    max_abs_accel: float = 3.0     # m/s^2, recovery braking exempt
    max_abs_jerk: float = 5.0      # m/s^3, recovery braking exempt

    def __post_init__(self) -> None:
        if min(self.max_clearance, self.max_abs_accel, self.max_abs_jerk) <= 0:
            raise ValueError("thresholds must be > 0")


@dataclass(frozen=True)
class PlannerConfig:
    """Which built-in planner decides, with its caution factor and reaction
    time."""

    kind: PlannerKind = PlannerKind.GAP_ACCEPTANCE
    caution: float = 1.0
    reaction_time: float = 0.5

    def __post_init__(self) -> None:
        if self.caution <= 0:
            raise ValueError("caution must be > 0")
        if not self.reaction_time >= 0:
            raise ValueError("reaction_time must be >= 0")

    @property
    def effective_caution(self) -> float:
        return self.caution * _KIND_CAUTION[self.kind]


@dataclass(frozen=True)
class AttackConfig:
    """The scenario's one attack: what to inject, when, and how often.

    A ghost is a stationary vehicle-sized object; a spoof rescales and
    rotates one real vehicle's perceived velocity. The ghost fields have
    no effect on a spoof attack, nor the spoof fields on a ghost attack.
    """

    kind: FaultKind
    trigger: TriggerKind
    trigger_value: float
    duration_ticks: int = 80
    max_activations: int = 0  # 0 = unlimited
    ghost_position: Optional[tuple[float, float]] = None  # None -> on-route default
    spoof_target_id: Optional[int] = None  # None -> nearest closing vehicle
    velocity_scale: float = 2.0
    heading_bias: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.duration_ticks < 1:
            raise ValueError("duration_ticks must be >= 1")
        if self.max_activations < 0:
            raise ValueError("max_activations must be >= 0")
        if not 0 < self.velocity_scale <= MAX_VELOCITY_SCALE:
            raise ValueError(f"velocity_scale must be in "
                             f"(0, {MAX_VELOCITY_SCALE:g}]")
        for key, v in zip(("ghost_x_m", "ghost_y_m"), self.ghost_position or ()):
            if not abs(v) <= APPROACH_REACH:
                raise ValueError(f"{key} must be within +-{APPROACH_REACH:g} m")
        value = float(self.trigger_value)
        if self.trigger == TriggerKind.EGO_WITHIN_DISTANCE:
            if not value >= 0:
                raise ValueError("trigger ego_within needs a distance >= 0")
        else:
            least = 1 if self.trigger == TriggerKind.PERIODIC else 0
            if not (value.is_integer() and value >= least):
                raise ValueError(f"trigger {self.trigger.value} needs a whole "
                                 f"number >= {least}")


__all__ = [
    "APPROACH_REACH",
    "EGO_RADIUS",
    "MAX_VELOCITY_SCALE",
    "VEHICLE_HALF_EXTENT",
    "AttackConfig",
    "FaultKind",
    "PerfThresholds",
    "PlannerConfig",
    "PlannerKind",
    "RouteGoal",
    "SafetyParams",
    "ScenarioBase",
    "SimParams",
    "TriggerKind",
    "Vec2",
]
