"""Shared domain types.

Everything the roles exchange lives here: the ground-truth world, the
perceived (possibly fault-corrupted) state handed to the planner, the
maneuver/verdict vocabulary and fault directives. The controller passes
each role's output straight to the later phases of the same tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

import numpy as np

EGO_ID = 0

RATIONALE_CAP = 1024
RATIONALE_TRUNCATION_MARKER = "...[truncated]"


class AgentKind(str, Enum):
    EGO_VEHICLE = "ego_vehicle"
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


class Provenance(str, Enum):
    REAL = "real"
    GHOST = "ghost"
    SPOOFED = "spoofed"


class RouteGoal(str, Enum):
    STRAIGHT = "straight"
    LEFT_TURN = "left_turn"
    RIGHT_TURN = "right_turn"


class Maneuver(str, Enum):
    WAIT = "wait"
    YIELD = "yield"
    PROCEED_CAUTIOUSLY = "proceed_cautiously"
    PROCEED = "proceed"
    ACCELERATE = "accelerate"
    EMERGENCY_BRAKE = "emergency_brake"


# Aggressiveness order used by the caution-monotonicity property.
# EmergencyBrake is excluded: only the recovery planner may produce it.
MANEUVER_AGGRESSIVENESS = {
    Maneuver.WAIT: 0,
    Maneuver.YIELD: 1,
    Maneuver.PROCEED_CAUTIOUSLY: 2,
    Maneuver.PROCEED: 3,
    Maneuver.ACCELERATE: 4,
}


class VerdictLevel(str, Enum):
    SAFE = "safe"
    WARNING = "warning"
    UNSAFE = "unsafe"


class FaultKind(str, Enum):
    GHOST_OBSTACLE = "ghost_obstacle"
    TRAJECTORY_SPOOF = "trajectory_spoof"


class MissingMandatoryOutput(Exception):
    """Tick finalized without a generator proposal or final maneuver."""


@dataclass(frozen=True)
class SimClock:
    """Discrete simulation clock; sim_time is always tick * dt."""

    tick: int = 0
    dt: float = 0.1

    @property
    def sim_time(self) -> float:
        return self.tick * self.dt

    def advanced(self) -> "SimClock":
        return SimClock(tick=self.tick + 1, dt=self.dt)


def hypot2(x: float, y: float) -> float:
    """``float(np.hypot(x, y))``, without numpy when one side is zero.

    C99 defines hypot(x, +-0) as |x| exactly, so the shortcut returns the
    bits np.hypot would; NaN goes to numpy, which keeps its sign. Every
    lane and route here is axis-aligned, so most velocities and zone
    offsets take the shortcut.
    """
    if y == 0.0 and x == x:
        return abs(x)
    if x == 0.0 and y == y:
        return abs(y)
    return float(np.hypot(x, y))


def normalize_heading(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = float(np.arctan2(np.sin(theta), np.cos(theta)))
    return np.pi if wrapped == -np.pi else wrapped


@dataclass
class AgentState:
    id: int
    kind: AgentKind
    position: np.ndarray      # (2,) m
    velocity: np.ndarray      # (2,) m/s
    acceleration: np.ndarray  # (2,) m/s^2
    heading: float            # rad, normalized
    half_extent: np.ndarray   # (2,) m, bounding-box half sizes

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.acceleration = np.asarray(self.acceleration, dtype=float)
        self.half_extent = np.asarray(self.half_extent, dtype=float)
        if not (self.half_extent > 0).all():
            raise ValueError("half_extent components must be > 0")
        self.heading = normalize_heading(self.heading)

    @classmethod
    def trusted(cls, id: int, kind: AgentKind, position: np.ndarray,
                velocity: np.ndarray, acceleration: np.ndarray,
                heading: float, half_extent: np.ndarray) -> "AgentState":
        """A state from parts that are already valid, without re-checking.

        The simulator steps every agent every tick from parts validated
        where they entered: float (2,) arrays, a positive half_extent,
        and the heading the constructor stores for a route segment's
        heading (``Route.pose_at``).
        """
        state = cls.__new__(cls)
        state.__dict__.update(id=id, kind=kind, position=position,
                              velocity=velocity, acceleration=acceleration,
                              heading=heading, half_extent=half_extent)
        return state

    @property
    def speed(self) -> float:
        return hypot2(*self.velocity.tolist())

    def copy(self) -> "AgentState":
        return AgentState(
            id=self.id,
            kind=self.kind,
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            acceleration=self.acceleration.copy(),
            heading=self.heading,
            half_extent=self.half_extent.copy(),
        )


@dataclass(frozen=True)
class ConflictZone:
    """Axis-aligned rectangle where the approach paths overlap."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, p: np.ndarray) -> bool:
        return bool(
            self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max
        )

    def distance_to(self, p: np.ndarray) -> float:
        """Euclidean distance from a point to the rectangle (0 inside)."""
        x, y = float(p[0]), float(p[1])
        dx = max(self.x_min - x, 0.0, x - self.x_max)
        dy = max(self.y_min - y, 0.0, y - self.y_max)
        return hypot2(dx, dy)


@dataclass
class IntersectionGeometry:
    conflict_zone: ConflictZone
    approach_lanes: dict[str, np.ndarray]  # "N"/"S"/"E"/"W" -> (k, 2) polyline
    speed_limit: float  # m/s


@dataclass(frozen=True)
class CollisionEvent:
    tick: int
    agent_a: int
    agent_b: int
    overlap_depth: float


@dataclass
class GroundTruthWorld:
    """Authoritative physical state. Fault directives never touch this."""

    clock: SimClock
    ego: AgentState
    agents: list[AgentState]
    intersection: IntersectionGeometry
    collision: Optional[CollisionEvent] = None
    # Routing/scripting plumbing used by the built-in simulator.
    ego_route: Any = None          # geometry.Route
    ego_s: float = 0.0             # ego arc length along its route
    ego_goal: RouteGoal = RouteGoal.STRAIGHT
    agent_scripts: dict[int, Any] = field(default_factory=dict)
    clear_streak: int = 0          # consecutive ticks fully past the zone
    # (ego_s, flag) of the last orchestrator.ego_cleared_now on this world
    cleared_at: Optional[tuple[float, bool]] = field(
        default=None, init=False, repr=False, compare=False)

    def agent_by_id(self, agent_id: int) -> Optional[AgentState]:
        if agent_id == EGO_ID:
            return self.ego
        for a in self.agents:
            if a.id == agent_id:
                return a
        return None


@dataclass
class PerceivedObject:
    id: int
    kind: AgentKind
    position: np.ndarray
    velocity: np.ndarray
    half_extent: np.ndarray
    provenance: Provenance = Provenance.REAL

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.half_extent = np.asarray(self.half_extent, dtype=float)

    @property
    def speed(self) -> float:
        return hypot2(*self.velocity.tolist())


@dataclass
class EgoOdometry:
    position: np.ndarray
    velocity: np.ndarray
    heading: float

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)

    @property
    def speed(self) -> float:
        return hypot2(*self.velocity.tolist())


@dataclass
class PerceivedState:
    clock: SimClock
    ego_odometry: EgoOdometry
    objects: list[PerceivedObject]
    goal: RouteGoal


@dataclass(frozen=True)
class Verdict:
    level: VerdictLevel
    min_predicted_separation: float  # m, may be +inf
    time_of_min: float               # s within horizon
    offending_object: Optional[int] = None


@dataclass(frozen=True)
class GhostSpec:
    """Template for a ghost obstacle, resolved at activation time."""

    position: Optional[tuple[float, float]] = None  # None -> on-route default
    velocity: tuple[float, float] = (0.0, 0.0)
    half_extent: tuple[float, float] = (2.0, 1.0)
    kind: AgentKind = AgentKind.VEHICLE


@dataclass(frozen=True)
class SpoofSpec:
    """Trajectory spoof parameters; target resolved at activation time."""

    target_id: Optional[int] = None  # None -> nearest closing vehicle
    velocity_scale: float = 2.0
    heading_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.velocity_scale <= 0:
            raise ValueError("velocity_scale must be > 0")


@dataclass(frozen=True)
class FaultDirective:
    kind: FaultKind
    start_tick: int
    end_tick: int
    ghost: Optional[GhostSpec] = None
    spoof: Optional[SpoofSpec] = None
    ghost_position: Optional[tuple[float, float]] = None  # resolved
    spoof_target: Optional[int] = None                    # resolved

    def __post_init__(self) -> None:
        if self.start_tick > self.end_tick:
            raise ValueError("start_tick must be <= end_tick")

    def active_at(self, tick: int) -> bool:
        return self.start_tick <= tick <= self.end_tick


def truncate_rationale(text: str) -> str:
    if len(text) <= RATIONALE_CAP:
        return text
    keep = RATIONALE_CAP - len(RATIONALE_TRUNCATION_MARKER)
    return text[:keep] + RATIONALE_TRUNCATION_MARKER


__all__ = [
    "EGO_ID",
    "AgentKind",
    "AgentState",
    "CollisionEvent",
    "ConflictZone",
    "EgoOdometry",
    "FaultDirective",
    "FaultKind",
    "GhostSpec",
    "GroundTruthWorld",
    "IntersectionGeometry",
    "Maneuver",
    "MANEUVER_AGGRESSIVENESS",
    "MissingMandatoryOutput",
    "PerceivedObject",
    "PerceivedState",
    "Provenance",
    "RouteGoal",
    "SimClock",
    "SpoofSpec",
    "Verdict",
    "VerdictLevel",
    "hypot2",
    "normalize_heading",
    "truncate_rationale",
]
