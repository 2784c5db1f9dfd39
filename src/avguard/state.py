"""Shared domain types.

Everything the roles exchange lives here: the ground-truth world, the
perceived (possibly fault-corrupted) state handed to the planner, and
the maneuver, verdict and provenance vocabulary. The fault kinds, route
goals and ``Vec2`` that a scenario file also names live in
``avguard.config``. The controller passes each role's output straight to
the later phases of the same tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from .config import FaultKind, RouteGoal, SimParams, Vec2

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


class Maneuver(str, Enum):
    WAIT = "wait"
    YIELD = "yield"
    PROCEED_CAUTIOUSLY = "proceed_cautiously"
    PROCEED = "proceed"
    ACCELERATE = "accelerate"
    EMERGENCY_BRAKE = "emergency_brake"


class VerdictLevel(str, Enum):
    SAFE = "safe"
    WARNING = "warning"
    UNSAFE = "unsafe"


# Members as globals for the tick: a class lookup runs EnumType.__getattr__,
# about 110 ns on Python 3.10 and 3.11 (28 ns on 3.12) against 8 ns.
EGO_VEHICLE, VEHICLE, PEDESTRIAN = AgentKind
REAL, GHOST, SPOOFED = Provenance
WAIT, YIELD, PROCEED_CAUTIOUSLY, PROCEED, ACCELERATE, EMERGENCY_BRAKE = Maneuver
SAFE, WARNING, UNSAFE = VerdictLevel
GHOST_OBSTACLE, TRAJECTORY_SPOOF = FaultKind


@dataclass(frozen=True)
class SimClock:
    """Discrete simulation clock; sim_time is always tick * dt.

    Frozen because ``build_perceived_state`` hands the world's own clock
    to the generator: a ``plan_fn`` cannot move ground-truth time.
    """

    tick: int = 0
    dt: float = SimParams.dt

    @property
    def sim_time(self) -> float:
        return self.tick * self.dt

    def advanced(self) -> "SimClock":
        return SimClock(self.tick + 1, self.dt)


def normalize_heading(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    return math.pi if wrapped == -math.pi else wrapped


@dataclass
class AgentState:
    """One agent's ground-truth state: id, kind, position, velocity, heading
    and box half sizes."""

    id: int
    kind: AgentKind
    position: Vec2       # m
    velocity: Vec2       # m/s
    heading: float       # rad, normalized
    half_extent: Vec2    # m, bounding-box half sizes

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


@dataclass(frozen=True)
class ConflictZone:
    """Axis-aligned rectangle where the approach paths overlap."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, p: tuple[float, float]) -> bool:
        return bool(
            self.x_min <= p[0] <= self.x_max and self.y_min <= p[1] <= self.y_max
        )

    def distance_to(self, p: tuple[float, float]) -> float:
        """Euclidean distance from a point to the rectangle (0 inside)."""
        x, y = p
        dx = max(self.x_min - x, 0.0, x - self.x_max)
        dy = max(self.y_min - y, 0.0, y - self.y_max)
        return math.hypot(dx, dy)


@dataclass
class IntersectionGeometry:
    """The intersection's conflict zone and its speed limit."""

    conflict_zone: ConflictZone
    speed_limit: float  # m/s


@dataclass(frozen=True)
class CollisionEvent:
    """A collision of the ego with an agent: the tick, both ids and how deep
    their boxes overlap."""

    tick: int
    agent_a: int
    agent_b: int
    overlap_depth: float


@dataclass
class GroundTruthWorld:
    """Authoritative physical state. Fault directives never touch this.

    ``agents`` is in increasing id order: spawn numbers them from 1 and
    each step keeps their order, so perception need not sort them.
    """

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


@dataclass
class PerceivedObject:
    """An object as perception reports it, with its provenance: real, ghost
    or spoofed."""

    id: int
    kind: AgentKind
    position: Vec2
    velocity: Vec2
    half_extent: Vec2
    provenance: Provenance = Provenance.REAL


@dataclass
class EgoOdometry:
    """The ego's own position, velocity and heading as perception reports
    them."""

    position: Vec2
    velocity: Vec2
    heading: float

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


@dataclass
class PerceivedState:
    """What the planner sees at one tick: the clock, the ego's odometry, the
    perceived objects and the route goal."""

    clock: SimClock
    ego_odometry: EgoOdometry
    objects: list[PerceivedObject]
    goal: RouteGoal


@dataclass
class Verdict:
    """The safety monitor's verdict on one tick: its level, and the least
    predicted separation, when it occurs and to which object."""

    level: VerdictLevel
    min_predicted_separation: float  # m, may be +inf
    time_of_min: float               # s within horizon
    offending_object: Optional[int] = None


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
    "GroundTruthWorld",
    "IntersectionGeometry",
    "Maneuver",
    "PerceivedObject",
    "PerceivedState",
    "Provenance",
    "SimClock",
    "Verdict",
    "VerdictLevel",
    "normalize_heading",
    "truncate_rationale",
]
