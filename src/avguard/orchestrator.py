"""The orchestration controller: fixed per-tick role sequence, decision
rule, termination checking, and whole-run execution.

Every tick executes exactly eight phases, in order: environment update,
generator, safety monitor, security assessor, fault injector
(conditional), performance oracle, decision, action execution. The final
maneuver is the recovery planner's emergency brake when the safety
verdict is unsafe (and recovery is enabled), otherwise the generator's
proposal passes through unmodified.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import metrics, planners, sim
from .attacks import FaultInjector
from .metrics import IterationRecord, RunSummary, TerminationStatus
from .monitor import recovery_decide, safety_check
from .performance import performance_check
from .scenario import InvalidSpec, ScenarioSpec, validate_spec
from .seeding import stream_for
from .state import (
    GroundTruthWorld,
    Maneuver,
    TickStore,
    Verdict,
    VerdictLevel,
)


class RoleKind(str, Enum):
    GENERATOR = "generator"
    SAFETY_MONITOR = "safety_monitor"
    SECURITY_ASSESSOR = "security_assessor"
    FAULT_INJECTOR = "fault_injector"
    PERFORMANCE_ORACLE = "performance_oracle"
    RECOVERY_PLANNER = "recovery_planner"


@dataclass(frozen=True)
class RoleBinding:
    role_id: str
    role_kind: RoleKind
    sequence_position: int
    enabled: bool = True


def default_bindings() -> list[RoleBinding]:
    kinds = [RoleKind.GENERATOR, RoleKind.SAFETY_MONITOR,
             RoleKind.SECURITY_ASSESSOR, RoleKind.FAULT_INJECTOR,
             RoleKind.PERFORMANCE_ORACLE, RoleKind.RECOVERY_PLANNER]
    return [RoleBinding(role_id=k.value, role_kind=k, sequence_position=i + 1)
            for i, k in enumerate(kinds)]


def validate_bindings(bindings: list[RoleBinding]) -> None:
    generators = [b for b in bindings if b.role_kind == RoleKind.GENERATOR]
    if len(generators) != 1:
        raise InvalidSpec("exactly one generator binding is required")
    positions = [b.sequence_position for b in bindings]
    if len(set(positions)) != len(positions):
        raise InvalidSpec("sequence positions must be unique")


class RolePanic(Exception):
    """A role failed; the run aborts with a diagnostic rather than
    silently skipping an assurance role."""

    def __init__(self, role_id: str, tick: int, cause: BaseException):
        super().__init__(f"role {role_id!r} failed at tick {tick}: {cause!r}")
        self.role_id = role_id
        self.tick = tick
        self.cause = cause


@dataclass(frozen=True)
class RunOptions:
    recovery_enabled: bool = True
    halt_on_violation: bool = False
    record_timings: bool = True


@dataclass
class RunResult:
    termination: TerminationStatus
    records: list[IterationRecord]
    summary: RunSummary


PlanFn = Callable[..., tuple[Maneuver, str]]


@dataclass
class RunContext:
    """Everything one run owns: world, store, injector, configuration."""

    spec: ScenarioSpec
    seed: int
    options: RunOptions
    world: GroundTruthWorld
    store: TickStore = field(default_factory=TickStore)
    injector: Optional[FaultInjector] = None
    plan_fn: Optional[PlanFn] = None  # defaults to the configured planner

    def __post_init__(self) -> None:
        if self.injector is None:
            schedule = (self.spec.attack.to_schedule() if self.spec.attack
                        else None)
            from .attacks import AttackSchedule
            self.injector = FaultInjector(schedule or AttackSchedule())


def _timed(timings: Optional[dict], role_id: str, tick: int, fn, *args, **kwargs):
    start = time.perf_counter_ns() if timings is not None else 0
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - wrapped into the run diagnostic
        raise RolePanic(role_id, tick, exc) from exc
    if timings is not None:
        timings[role_id] = time.perf_counter_ns() - start
    return result


def ego_cleared_now(world: GroundTruthWorld) -> bool:
    """Ego fully past the conflict zone along its route."""
    _, s_exit = world.ego_route.zone_entry_exit(world.intersection.conflict_zone)
    return world.ego_s > s_exit + float(world.ego.half_extent[0])


def run_tick(ctx: RunContext) -> tuple[GroundTruthWorld, IterationRecord]:
    """Execute the eight phases for one tick and finalize its record."""
    world, store, spec, options = ctx.world, ctx.store, ctx.spec, ctx.options
    if world.collision is not None:
        raise InvalidSpec("cannot tick a collided world")
    tick = world.clock.tick
    timings: Optional[dict[str, int]] = {} if options.record_timings else None
    zone = world.intersection.conflict_zone

    # 1. Environment update: perception with currently-active faults.
    active = ctx.injector.active_directives(tick)
    noise_stream = (stream_for(ctx.seed, "perception", tick)
                    if spec.sim_params.perception_noise_std > 0 else None)
    perceived = _timed(timings, "environment", tick, sim.build_perceived_state,
                       world, active, spec.sim_params, noise_stream)
    store.commit("environment", perceived)
    store.commit("environment_active_fault",
                 "+".join(sorted({d.kind.value for d in active})) or None)

    # 2. Generator (the AUT).
    plan_fn = ctx.plan_fn or (lambda p, g: planners.plan(
        p, g, spec.planner_config, world.intersection))
    proposal, rationale = _timed(timings, "generator", tick, plan_fn,
                                 perceived, world.ego_goal)
    if proposal == Maneuver.EMERGENCY_BRAKE:
        # Only the recovery planner may emergency-brake; demote to Wait.
        proposal, rationale = Maneuver.WAIT, f"demoted emergency_brake; {rationale}"
    store.commit("generator", (proposal, rationale))

    # 3. Safety monitor.
    verdict: Verdict = _timed(timings, "safety_monitor", tick, safety_check,
                              perceived, proposal, spec.safety_params,
                              world.intersection, spec.sim_params)
    store.commit("safety_monitor", verdict)

    # 4. Security assessor.
    zone_distance = zone.distance_to(world.ego.position)
    entry = _timed(timings, "security_assessor", tick, ctx.injector.plan,
                   tick, perceived.ego_odometry, zone_distance)
    store.commit("security_assessor", entry)

    # 5. Fault injector (conditional on an assessor directive).
    if entry is not None:
        directive = _timed(timings, "fault_injector", tick, ctx.injector.activate,
                           entry, tick, perceived, world.ego_goal)
        store.commit("fault_injector", directive)

    # 6. Performance oracle.
    flags = _timed(timings, "performance_oracle", tick, performance_check,
                   store.history, world.clock.sim_time, ego_cleared_now(world),
                   spec.sim_params.dt, spec.perf_thresholds)
    store.commit("performance_oracle", flags)

    # 7. Decision: activate the recovery planner on an unsafe verdict.
    if options.recovery_enabled:
        final = recovery_decide(verdict, proposal)
    else:
        final = proposal
    store.commit("decision", final)

    # 8. Action execution.
    command = sim.maneuver_to_command(final, world.ego, world, spec.sim_params)
    new_world = _timed(timings, "action_execution", tick, sim.step_dynamics,
                       world, command)
    store.commit("executed_accel", command.target_accel)
    store.commit("executed_tick", tick)

    record = metrics.finalize_tick(store, new_world, timings)
    ctx.world = new_world
    return new_world, record


def check_termination(world: GroundTruthWorld, spec: ScenarioSpec,
                      last_verdict: Optional[Verdict] = None,
                      options: Optional[RunOptions] = None) -> TerminationStatus:
    """Priority order: collision > cleared > halt-on-violation > timeout."""
    if world.collision is not None:
        return TerminationStatus.COLLISION
    if ego_cleared_now(world) and world.clear_streak >= spec.grace_ticks:
        return TerminationStatus.CLEARED
    if (options is not None and options.halt_on_violation
            and last_verdict is not None
            and last_verdict.level == VerdictLevel.UNSAFE):
        return TerminationStatus.HALT_ON_VIOLATION
    if world.clock.tick >= spec.max_ticks:
        return TerminationStatus.TIMEOUT
    return TerminationStatus.RUNNING


def run_scenario(spec: ScenarioSpec, seed: int,
                 options: RunOptions = RunOptions(),
                 plan_fn: Optional[PlanFn] = None) -> RunResult:
    """Run one scenario to termination; identical inputs give identical
    records (timings aside)."""
    from .scenario import spawn_scenario

    validate_spec(spec)
    world = spawn_scenario(spec, seed)
    ctx = RunContext(spec=spec, seed=seed, options=options, world=world,
                     plan_fn=plan_fn)
    records: list[IterationRecord] = []
    termination = TerminationStatus.RUNNING
    while termination == TerminationStatus.RUNNING:
        new_world, record = run_tick(ctx)
        records.append(record)
        if ego_cleared_now(new_world):
            new_world.clear_streak += 1
        else:
            new_world.clear_streak = 0
        verdict = Verdict(level=VerdictLevel(record.verdict_level),
                          min_predicted_separation=record.min_predicted_separation,
                          time_of_min=record.time_of_min_s,
                          offending_object=record.offending_object)
        termination = check_termination(new_world, spec, verdict, options)
    summary = metrics.summarize_run(records, termination,
                                    spec.perf_thresholds, spec.sim_params.dt,
                                    scenario_id=spec.id, seed=seed)
    return RunResult(termination=termination, records=records, summary=summary)


def failed_run_summary(spec: ScenarioSpec, seed: int,
                       exc: BaseException) -> RunSummary:
    """Placeholder summary so a campaign can report, not hide, role faults."""
    return RunSummary.failed_run(
        spec.id, seed,
        "".join(traceback.format_exception_only(type(exc), exc)).strip())


__all__ = [
    "RoleBinding",
    "RoleKind",
    "RolePanic",
    "RunContext",
    "RunOptions",
    "RunResult",
    "check_termination",
    "default_bindings",
    "ego_cleared_now",
    "failed_run_summary",
    "run_scenario",
    "run_tick",
    "validate_bindings",
]
