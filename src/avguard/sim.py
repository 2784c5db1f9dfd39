"""Built-in 2D kinematic four-way unsignalized intersection.

Replaces an external driving simulator with route-following rigid-body
kinematics: the ego tracks its route polyline under piecewise-constant
acceleration, background agents follow scripted constant-speed profiles,
and collisions are oriented-rectangle overlaps. Perception is an object
list built from ground truth, corrupted only by active fault directives.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import geometry
from .state import (
    EGO_ID,
    AgentKind,
    AgentState,
    CollisionEvent,
    ConflictZone,
    EgoOdometry,
    FaultDirective,
    FaultKind,
    GroundTruthWorld,
    IntersectionGeometry,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    Provenance,
    RouteGoal,
    SimClock,
    hypot2,
)
from .seeding import stream_for

log = logging.getLogger(__name__)

# Intersection layout (meters). The conflict zone is centered on the
# origin; each approach lane runs on the right-hand side of its road.
ZONE_HALF = 10.0
LANE_OFFSET = 2.5
APPROACH_REACH = 200.0
SPEED_LIMIT = 10.0

VEHICLE_HALF_EXTENT = (2.0, 1.0)
PEDESTRIAN_HALF_EXTENT = (0.3, 0.3)

EGO_START_BEFORE_ENTRY = 40.0
EGO_INITIAL_SPEED = 8.0

COMFORT_DECEL = 3.0       # m/s^2, used by Wait / Yield stop profiles
YIELD_ENVELOPE = 60.0     # m from the conflict zone
YIELD_SPEED_FRACTION = 0.4
CAUTIOUS_SPEED_FRACTION = 0.6

GHOST_ID_BASE = 9000
GHOST_OFFSET_BEFORE_ENTRY = 8.0


class ScenarioBase(str, Enum):
    NOMINAL = "nominal"
    CONGESTED = "congested"
    CONFLICTING_TRAFFIC = "conflicting_traffic"
    PEDESTRIAN_CROSSING = "pedestrian_crossing"


@dataclass(frozen=True)
class SimParams:
    dt: float = 0.1
    sensing_range: float = 60.0
    a_brake_max: float = 8.0
    a_accel_max: float = 3.0
    perception_noise_std: float = 0.0


@dataclass(frozen=True)
class EgoCommand:
    target_accel: float  # m/s^2, signed, longitudinal along the ego route


@dataclass
class AgentScript:
    """Constant-speed profile along a route; s(t) = s0 + speed * t."""

    route: geometry.Route
    s0: float
    speed: float
    kind: AgentKind = AgentKind.VEHICLE

    def arc_length_at(self, sim_time: float) -> float:
        return self.s0 + self.speed * sim_time


# The layout and its routes never change, so they are built once and
# shared. Route arrays are read-only, and each route keeps its
# zone_entry_exit cache for the life of the process.
_APPROACH_ROUTES = {
    "S": geometry.Route([[LANE_OFFSET, -APPROACH_REACH], [LANE_OFFSET, APPROACH_REACH]]),
    "N": geometry.Route([[-LANE_OFFSET, APPROACH_REACH], [-LANE_OFFSET, -APPROACH_REACH]]),
    "E": geometry.Route([[APPROACH_REACH, LANE_OFFSET], [-APPROACH_REACH, LANE_OFFSET]]),
    "W": geometry.Route([[-APPROACH_REACH, -LANE_OFFSET], [APPROACH_REACH, -LANE_OFFSET]]),
}

_INTERSECTION = IntersectionGeometry(
    conflict_zone=ConflictZone(-ZONE_HALF, ZONE_HALF, -ZONE_HALF, ZONE_HALF),
    approach_lanes={approach: route.points
                    for approach, route in _APPROACH_ROUTES.items()},
    speed_limit=SPEED_LIMIT,
)

# Ego routes all enter from the south approach.
_EGO_START = [LANE_OFFSET, -APPROACH_REACH]
_EGO_ROUTES = {
    RouteGoal.STRAIGHT: geometry.Route(
        [_EGO_START, [LANE_OFFSET, APPROACH_REACH]]),
    RouteGoal.RIGHT_TURN: geometry.Route(
        [_EGO_START, [LANE_OFFSET, -LANE_OFFSET], [APPROACH_REACH, -LANE_OFFSET]]),
    # Left turn to the westbound exit.
    RouteGoal.LEFT_TURN: geometry.Route(
        [_EGO_START, [LANE_OFFSET, LANE_OFFSET], [-APPROACH_REACH, LANE_OFFSET]]),
}


def build_intersection() -> IntersectionGeometry:
    """The shared intersection layout."""
    return _INTERSECTION


def ego_route_for(goal: RouteGoal) -> geometry.Route:
    """The shared ego route for a goal, entering from the south approach."""
    return _EGO_ROUTES[goal]


def approach_route(approach: str) -> geometry.Route:
    """The shared route along one approach lane ("N", "S", "E" or "W")."""
    return _APPROACH_ROUTES[approach]


def distance_to_entry(route: geometry.Route, s: float,
                      zone: ConflictZone) -> float:
    """Signed arc-length distance from s to the route's zone entry."""
    s_entry, _ = route.zone_entry_exit(zone)
    return s_entry - s


def command_accel(maneuver: Maneuver, speed: float, dist_to_entry: float,
                  crossing_traffic_near: bool, speed_limit: float,
                  params: SimParams) -> float:
    """Longitudinal acceleration implementing a maneuver.

    ``dist_to_entry`` is the remaining arc length to the conflict-zone
    entry line (negative once past it); ``crossing_traffic_near`` feeds
    the yield envelope.
    """

    def stop_before_entry() -> float:
        if speed <= 0.0:
            return 0.0
        margin = max(dist_to_entry - 0.5, 0.1)
        needed = speed * speed / (2.0 * margin) if dist_to_entry > 0.5 else COMFORT_DECEL
        return -min(params.a_brake_max, max(COMFORT_DECEL, needed))

    def track(v_target: float) -> float:
        return min(max((v_target - speed) / params.dt, -COMFORT_DECEL),
                   params.a_accel_max)

    if maneuver == Maneuver.EMERGENCY_BRAKE:
        accel = -params.a_brake_max if speed > 0.0 else 0.0
    elif maneuver == Maneuver.WAIT:
        accel = stop_before_entry()
    elif maneuver == Maneuver.YIELD:
        target = YIELD_SPEED_FRACTION * speed_limit
        if crossing_traffic_near and dist_to_entry > 0.0:
            # Creep toward the line, never faster than what still allows
            # a comfortable stop one meter short of it.
            allowed = float(np.sqrt(2.0 * COMFORT_DECEL
                                    * max(dist_to_entry - 1.0, 0.0)))
            target = min(target, allowed)
        accel = track(target)
    elif maneuver == Maneuver.PROCEED_CAUTIOUSLY:
        accel = track(CAUTIOUS_SPEED_FRACTION * speed_limit)
    elif maneuver == Maneuver.PROCEED:
        accel = track(speed_limit)
    else:  # ACCELERATE
        accel = params.a_accel_max if speed < speed_limit else 0.0
    return float(min(max(accel, -params.a_brake_max), params.a_accel_max))


def crossing_traffic_within_envelope(others: list[tuple[np.ndarray, np.ndarray]],
                                     zone: ConflictZone) -> bool:
    """Yield envelope: any moving agent inside or closing on the zone."""
    center = None
    for pos, vel in others:
        d = zone.distance_to(pos)
        if d > YIELD_ENVELOPE:
            continue
        if d == 0.0:
            return True
        if hypot2(float(vel[0]), float(vel[1])) > 0.5:
            if center is None:
                center = np.array([(zone.x_min + zone.x_max) / 2,
                                   (zone.y_min + zone.y_max) / 2])
            if float(np.dot(vel, center - pos)) > 0.0:
                return True
    return False


def maneuver_to_command(maneuver: Maneuver, ego: AgentState,
                        world: GroundTruthWorld, params: SimParams) -> EgoCommand:
    zone = world.intersection.conflict_zone
    dist = distance_to_entry(world.ego_route, world.ego_s, zone)
    near = crossing_traffic_within_envelope(
        [(a.position, a.velocity) for a in world.agents], zone)
    accel = command_accel(maneuver, ego.speed, dist, near,
                          world.intersection.speed_limit, params)
    return EgoCommand(target_accel=accel)


def advance_arc(speed: float, accel: float, dt: float) -> tuple[float, float]:
    """One step of clamped piecewise-constant-acceleration kinematics.

    Returns (arc advance, new speed); speed never goes negative, and a
    braking step that stops mid-interval advances exactly v^2 / (2|a|).
    """
    if accel < 0.0 and speed + accel * dt < 0.0:
        return speed * speed / (2.0 * -accel), 0.0
    return speed * dt + 0.5 * accel * dt * dt, speed + accel * dt


def detect_collision(world: GroundTruthWorld) -> Optional[CollisionEvent]:
    """First ego-vs-agent oriented-rectangle overlap, lowest agent id.

    Broad phase: a rectangle lies inside the disc of radius
    hypot(*half_extent) around its centre, so an agent whose centre is
    farther from the ego's than the two radii together cannot overlap
    and skips the separating-axis test. The 1e-6 m slack covers rounding
    in the corner coordinates.
    """
    ego = world.ego
    ego_x, ego_y = ego.position.tolist()
    ego_radius = hypot2(*ego.half_extent.tolist())
    ego_corners = None
    for agent in sorted(world.agents, key=lambda a: a.id):
        reach = ego_radius + hypot2(*agent.half_extent.tolist()) + 1e-6
        x, y = agent.position.tolist()
        dx = x - ego_x
        dy = y - ego_y
        if dx * dx + dy * dy > reach * reach:
            continue
        if ego_corners is None:
            ego_corners = geometry.rect_corners(ego.position, ego.half_extent,
                                                ego.heading)
        corners = geometry.rect_corners(agent.position, agent.half_extent,
                                        agent.heading)
        depth = geometry.obb_overlap(ego_corners, corners)
        if depth is not None:
            return CollisionEvent(tick=world.clock.tick, agent_a=ego.id,
                                  agent_b=agent.id, overlap_depth=depth)
    return None


def _frozen(*arrays: np.ndarray) -> None:
    """Make ground-truth arrays read-only, so nothing downstream (an
    attack, a planner) can write into them."""
    for array in arrays:
        array.setflags(write=False)


_ZERO2 = np.zeros(2)
_frozen(_ZERO2)


def step_dynamics(world: GroundTruthWorld, cmd: EgoCommand) -> GroundTruthWorld:
    """Advance the world one dt under the ego command. Pure: returns a copy.

    The stepped states skip AgentState's validation: they reuse the
    previous states' validated half extents and take positions,
    directions and normalized headings from the route.
    """
    if world.collision is not None:
        raise ValueError("cannot step a collided world")
    dt = world.clock.dt
    advance, new_speed = advance_arc(world.ego.speed, cmd.target_accel, dt)
    new_s = world.ego_s + advance
    route = world.ego_route
    position, direction, heading = route.pose_at(new_s)
    velocity = new_speed * direction
    acceleration = cmd.target_accel * direction
    _frozen(position, velocity, acceleration)
    ego = AgentState.trusted(world.ego.id, world.ego.kind, position, velocity,
                             acceleration, heading, world.ego.half_extent)
    new_clock = world.clock.advanced()
    sim_time = new_clock.sim_time
    agents = []
    for old in world.agents:
        script = world.agent_scripts[old.id]
        position, direction, heading = script.route.pose_at(
            script.arc_length_at(sim_time))
        velocity = script.speed * direction
        _frozen(position, velocity)
        agents.append(AgentState.trusted(old.id, old.kind, position, velocity,
                                         _ZERO2, heading, old.half_extent))
    new_world = GroundTruthWorld(
        clock=new_clock, ego=ego, agents=agents,
        intersection=world.intersection, collision=None,
        ego_route=route, ego_s=new_s, ego_goal=world.ego_goal,
        agent_scripts=world.agent_scripts, clear_streak=world.clear_streak,
    )
    new_world.collision = detect_collision(new_world)
    return new_world


def _rotate(v: np.ndarray, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def build_perceived_state(world: GroundTruthWorld,
                          active_faults: list[FaultDirective],
                          params: SimParams,
                          stream: Optional[random.Random] = None) -> PerceivedState:
    """Object-list perception: ground truth in range, plus fault effects.

    Spoof directives rescale/rotate a real object's perceived velocity;
    ghost directives append an object with no ground-truth counterpart.
    A spoof whose target is not currently perceived is logged and skipped
    for the tick. Ground truth is never modified.
    """
    ego = world.ego
    ego_x, ego_y = ego.position.tolist()
    objects: list[PerceivedObject] = []
    for agent in sorted(world.agents, key=lambda a: a.id):
        x, y = agent.position.tolist()
        if hypot2(x - ego_x, y - ego_y) > params.sensing_range:
            continue
        # Aliasing is safe: ground-truth arrays are read-only, and fault
        # effects below rebind fields instead of writing into them.
        objects.append(PerceivedObject(
            id=agent.id, kind=agent.kind,
            position=agent.position, velocity=agent.velocity,
            half_extent=agent.half_extent, provenance=Provenance.REAL,
        ))

    perceived_ids = {o.id for o in objects}
    ghost_seq = 0
    for directive in active_faults:
        if directive.kind == FaultKind.TRAJECTORY_SPOOF:
            target = directive.spoof_target
            if target is None or target not in perceived_ids:
                log.warning("spoof target %s not perceived at tick %d; skipped",
                            target, world.clock.tick)
                continue
            for obj in objects:
                if obj.id == target:
                    spec = directive.spoof
                    obj.velocity = _rotate(obj.velocity * spec.velocity_scale,
                                           spec.heading_bias)
                    obj.provenance = Provenance.SPOOFED
        elif directive.kind == FaultKind.GHOST_OBSTACLE:
            spec = directive.ghost
            position = directive.ghost_position
            if position is None:
                position = spec.position
            objects.append(PerceivedObject(
                id=GHOST_ID_BASE + ghost_seq, kind=spec.kind,
                position=np.array(position, dtype=float),
                velocity=np.array(spec.velocity, dtype=float),
                half_extent=np.array(spec.half_extent, dtype=float),
                provenance=Provenance.GHOST,
            ))
            ghost_seq += 1

    if params.perception_noise_std > 0.0 and stream is not None:
        for obj in objects:
            obj.position = obj.position + np.array([
                stream.gauss(0.0, params.perception_noise_std),
                stream.gauss(0.0, params.perception_noise_std),
            ])

    odometry = EgoOdometry(position=ego.position, velocity=ego.velocity,
                           heading=ego.heading)
    return PerceivedState(clock=world.clock, ego_odometry=odometry,
                          objects=objects, goal=world.ego_goal)


def _vehicle_script(approach: str, arrival_time: float, speed: float,
                    zone: ConflictZone) -> AgentScript:
    route = approach_route(approach)
    s_entry, _ = route.zone_entry_exit(zone)
    return AgentScript(route=route, s0=s_entry - speed * arrival_time, speed=speed)


def _spawn_traffic(base: ScenarioBase, stream: random.Random,
                   zone: ConflictZone) -> list[AgentScript]:
    """Seed-jittered scripted traffic for a scenario base."""
    scripts: list[AgentScript] = []
    if base == ScenarioBase.NOMINAL:
        n = stream.randint(1, 2)
        for i in range(n):
            arrival = 12.0 + 4.0 * i + stream.uniform(-2.0, 2.0)
            speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            approach = stream.choice(["E", "W", "N"])
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    elif base == ScenarioBase.CONGESTED:
        # Jammed cross traffic: a slow platoon whose headway keeps the
        # next vehicle inside sensing range, so the queue reads as
        # continuous and can stretch past the run's time limit when the
        # ego never commits.
        n = stream.randint(4, 6)
        for i in range(n):
            arrival = 3.0 + 11.0 * i + stream.uniform(-2.0, 2.0)
            speed = 0.3 * SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            approach = stream.choice(["E", "W", "E", "W", "N"])
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    elif base == ScenarioBase.CONFLICTING_TRAFFIC:
        approaches = ["E", "W"] + (["N"] if stream.random() < 0.5 else ["E"])
        for approach in approaches:
            arrival = 5.0 + stream.uniform(-2.0, 2.0)
            speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
            scripts.append(_vehicle_script(approach, arrival, speed, zone))
    else:  # PEDESTRIAN_CROSSING
        arrival = 14.0 + stream.uniform(-2.0, 2.0)
        speed = SPEED_LIMIT * (1.0 + stream.uniform(-0.2, 0.2))
        scripts.append(_vehicle_script(stream.choice(["E", "W", "N"]),
                                       arrival, speed, zone))
        y_c = stream.uniform(-6.0, 6.0)
        walk_speed = stream.uniform(0.9, 1.4)
        t_cross = stream.uniform(4.0, 8.0)
        route = geometry.Route(np.array([[12.0, y_c], [-30.0, y_c]]))
        s_cross = 12.0 - LANE_OFFSET  # arc length where the walk crosses the ego lane
        scripts.append(AgentScript(route=route,
                                   s0=s_cross - walk_speed * t_cross,
                                   speed=walk_speed,
                                   kind=AgentKind.PEDESTRIAN))
    return scripts


def spawn_world(base: ScenarioBase, goal: RouteGoal, seed: int,
                params: SimParams) -> GroundTruthWorld:
    """Deterministic initial world for (base, goal, seed).

    Attack scenarios reuse their base's traffic: the stream is keyed only
    by (seed, base), so a ghost-attack run sees exactly the nominal
    traffic for the same seed.
    """
    intersection = build_intersection()
    zone = intersection.conflict_zone
    stream = stream_for(seed, "spawn", base.value)
    scripts = _spawn_traffic(base, stream, zone)

    route = ego_route_for(goal)
    s_entry, _ = route.zone_entry_exit(zone)
    ego_s = s_entry - EGO_START_BEFORE_ENTRY
    direction = route.direction_at(ego_s)
    ego = AgentState(
        id=EGO_ID, kind=AgentKind.EGO_VEHICLE,
        position=route.position_at(ego_s),
        velocity=EGO_INITIAL_SPEED * direction,
        acceleration=np.zeros(2),
        heading=route.heading_at(ego_s),
        half_extent=np.array(VEHICLE_HALF_EXTENT),
    )

    agents, agent_scripts = [], {}
    for i, script in enumerate(scripts, start=1):
        s = script.arc_length_at(0.0)
        half = (PEDESTRIAN_HALF_EXTENT if script.kind == AgentKind.PEDESTRIAN
                else VEHICLE_HALF_EXTENT)
        agents.append(AgentState(
            id=i, kind=script.kind,
            position=script.route.position_at(s),
            velocity=script.speed * script.route.direction_at(s),
            acceleration=np.zeros(2),
            heading=script.route.heading_at(s),
            half_extent=np.array(half),
        ))
        agent_scripts[i] = script
    for state in (ego, *agents):
        _frozen(state.position, state.velocity, state.acceleration,
                state.half_extent)

    params_clock = SimClock(tick=0, dt=params.dt)
    return GroundTruthWorld(
        clock=params_clock, ego=ego, agents=agents,
        intersection=intersection, collision=None,
        ego_route=route, ego_s=ego_s, ego_goal=goal,
        agent_scripts=agent_scripts,
    )


def default_ghost_position(goal: RouteGoal) -> tuple[float, float]:
    """Ghost template default: on the ego route, 8 m before zone entry."""
    route = ego_route_for(goal)
    zone = build_intersection().conflict_zone
    s_entry, _ = route.zone_entry_exit(zone)
    p = route.position_at(s_entry - GHOST_OFFSET_BEFORE_ENTRY)
    return (float(p[0]), float(p[1]))


__all__ = [
    "AgentScript",
    "EgoCommand",
    "ScenarioBase",
    "SimParams",
    "advance_arc",
    "approach_route",
    "build_intersection",
    "build_perceived_state",
    "command_accel",
    "crossing_traffic_within_envelope",
    "default_ghost_position",
    "detect_collision",
    "distance_to_entry",
    "ego_route_for",
    "maneuver_to_command",
    "spawn_world",
    "step_dynamics",
]
