"""The orchestration controller: fixed per-tick role sequence, decision
rule, termination checking, and whole-run execution.

Every tick executes exactly eight phases, in order: environment update,
generator, safety monitor, security assessor, fault injector
(conditional), performance oracle, decision, action execution. The final
maneuver is the recovery planner's emergency brake when the safety
verdict is unsafe (and recovery is enabled), otherwise the generator's
proposal passes through unmodified. Each phase's output is a local of
``run_tick`` that the later phases read directly; the tick's record is
assembled from those locals once the action phase has stepped the world.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import metrics, planners, sim
from .attacks import AttackSchedule, FaultInjector
from .metrics import IterationRecord, RunSummary, TerminationStatus
from .monitor import recovery_decide, safety_check
from .performance import performance_check
from .scenario import InvalidSpec, ScenarioSpec, validate_spec
from .seeding import stream_for
from .state import (
    GroundTruthWorld,
    Maneuver,
    Verdict,
    VerdictLevel,
)


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
    """Everything one run owns: world, records so far, injector,
    configuration, and the last tick's safety verdict."""

    spec: ScenarioSpec
    seed: int
    options: RunOptions
    world: GroundTruthWorld
    records: list[IterationRecord] = field(default_factory=list)
    injector: Optional[FaultInjector] = None
    plan_fn: Optional[PlanFn] = None  # defaults to the configured planner
    last_verdict: Optional[Verdict] = None

    def __post_init__(self) -> None:
        if self.injector is None:
            schedule = (self.spec.attack.to_schedule() if self.spec.attack
                        else None)
            self.injector = FaultInjector(schedule or AttackSchedule())


def _timed(timings: Optional[dict], role_id: str, tick: int, fn, *args):
    start = time.perf_counter_ns() if timings is not None else 0
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - wrapped into the run diagnostic
        raise RolePanic(role_id, tick, exc) from exc
    if timings is not None:
        timings[role_id] = time.perf_counter_ns() - start
    return result


def ego_cleared_now(world: GroundTruthWorld) -> bool:
    """Ego fully past the conflict zone along its route.

    The performance oracle, the clear streak and the termination check
    all ask this of the same world, so the answer is kept on the world
    with the ``ego_s`` it was computed at; a caller that moves the ego
    by hand gets a fresh answer.
    """
    ego_s = world.ego_s
    cached = world.cleared_at
    if cached is not None and cached[0] == ego_s:
        return cached[1]
    _, s_exit = world.ego_route.zone_entry_exit(world.intersection.conflict_zone)
    cleared = ego_s > s_exit + float(world.ego.half_extent[0])
    world.cleared_at = (ego_s, cleared)
    return cleared


def run_tick(ctx: RunContext) -> tuple[GroundTruthWorld, IterationRecord]:
    """Execute the eight phases for one tick, finalize its record and
    append it to ``ctx.records``."""
    world, spec, options = ctx.world, ctx.spec, ctx.options
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
    active_fault = ("+".join(sorted({d.kind.value for d in active}))
                    if active else None)

    # 2. Generator (the AUT).
    if ctx.plan_fn is None:
        proposal, rationale = _timed(timings, "generator", tick, planners.plan,
                                     perceived, world.ego_goal,
                                     spec.planner_config, world.intersection)
    else:
        proposal, rationale = _timed(timings, "generator", tick, ctx.plan_fn,
                                     perceived, world.ego_goal)
    if proposal == Maneuver.EMERGENCY_BRAKE:
        # Only the recovery planner may emergency-brake; demote to Wait.
        proposal, rationale = Maneuver.WAIT, f"demoted emergency_brake; {rationale}"

    # 3. Safety monitor.
    verdict: Verdict = _timed(timings, "safety_monitor", tick, safety_check,
                              perceived, proposal, spec.safety_params,
                              world.intersection, spec.sim_params)

    # 4. Security assessor.
    zone_distance = zone.distance_to(world.ego.position)
    entry = _timed(timings, "security_assessor", tick, ctx.injector.plan,
                   tick, perceived.ego_odometry, zone_distance)

    # 5. Fault injector (conditional on an assessor directive).
    if entry is not None:
        _timed(timings, "fault_injector", tick, ctx.injector.activate,
               entry, tick, perceived, world.ego_goal)

    # 6. Performance oracle.
    flags = _timed(timings, "performance_oracle", tick, performance_check,
                   ctx.records, world.clock.sim_time, ego_cleared_now(world),
                   spec.sim_params.dt, spec.perf_thresholds)

    # 7. Decision: activate the recovery planner on an unsafe verdict.
    if options.recovery_enabled:
        final = recovery_decide(verdict, proposal)
    else:
        final = proposal

    # 8. Action execution.
    command = sim.maneuver_to_command(final, world.ego, world, spec.sim_params)
    new_world = _timed(timings, "action_execution", tick, sim.step_dynamics,
                       world, command)

    record = metrics.finalize_tick(tick, new_world, proposal, rationale,
                                   verdict, flags, final, active_fault,
                                   command.target_accel, timings)
    ctx.records.append(record)
    ctx.last_verdict = verdict
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
    ctx = RunContext(spec=spec, seed=seed, options=options,
                     world=spawn_scenario(spec, seed), plan_fn=plan_fn)
    termination = TerminationStatus.RUNNING
    while termination == TerminationStatus.RUNNING:
        new_world, _ = run_tick(ctx)
        if ego_cleared_now(new_world):
            new_world.clear_streak += 1
        else:
            new_world.clear_streak = 0
        termination = check_termination(new_world, spec, ctx.last_verdict,
                                         options)
    summary = metrics.summarize_run(ctx.records, termination,
                                    spec.perf_thresholds, spec.sim_params.dt,
                                    scenario_id=spec.id, seed=seed)
    return RunResult(termination=termination, records=ctx.records,
                     summary=summary)


def failed_run_summary(spec: ScenarioSpec, seed: int,
                       exc: BaseException) -> RunSummary:
    """Placeholder summary so a campaign can report, not hide, role faults."""
    return RunSummary.failed_run(
        spec.id, seed,
        "".join(traceback.format_exception_only(type(exc), exc)).strip())


__all__ = [
    "RolePanic",
    "RunContext",
    "RunOptions",
    "RunResult",
    "check_termination",
    "ego_cleared_now",
    "failed_run_summary",
    "run_scenario",
    "run_tick",
]
