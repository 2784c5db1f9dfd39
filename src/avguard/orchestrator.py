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
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import metrics, planners, sim
from .attacks import FaultInjector
from .metrics import IterationRecord, RunSummary, TerminationStatus
from .monitor import recovery_decide, safety_check
from .performance import performance_check
from .scenario import ScenarioSpec
from .seeding import stream_for
from .state import (
    GroundTruthWorld,
    Maneuver,
    Verdict,
    VerdictLevel,
    truncate_rationale,
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


@dataclass
class RunResult:
    termination: TerminationStatus
    records: list[IterationRecord]
    summary: RunSummary
    # Wall-clock ns per phase, one dict per record; not part of the trace.
    role_timings_ns: list[dict[str, int]]


PlanFn = Callable[..., tuple[Maneuver, str]]


@dataclass
class RunContext:
    """Everything one run owns: world, records and phase timings so far,
    injector, configuration, and the last tick's safety verdict."""

    spec: ScenarioSpec
    seed: int
    options: RunOptions
    world: GroundTruthWorld
    records: list[IterationRecord] = field(default_factory=list)
    role_timings_ns: list[dict[str, int]] = field(default_factory=list)
    injector: FaultInjector = field(init=False)
    plan_fn: Optional[PlanFn] = None  # defaults to the configured planner
    last_verdict: Optional[Verdict] = None

    def __post_init__(self) -> None:
        self.injector = FaultInjector(self.spec.attack)


def _timed(timings: dict[str, int], role_id: str, tick: int, fn, *args):
    start = time.perf_counter_ns()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - wrapped into the run diagnostic
        raise RolePanic(role_id, tick, exc) from exc
    timings[role_id] = time.perf_counter_ns() - start
    return result


def ego_cleared_now(world: GroundTruthWorld) -> bool:
    """Ego fully past the conflict zone along its route."""
    _, s_exit = world.ego_route.zone_entry_exit(world.intersection.conflict_zone)
    return world.ego_s > s_exit + world.ego.half_extent[0]


def run_tick(ctx: RunContext) -> tuple[GroundTruthWorld, IterationRecord]:
    """Execute the eight phases for one tick, finalize its record and
    append it to ``ctx.records``, and its phase timings to
    ``ctx.role_timings_ns``."""
    world, spec, options = ctx.world, ctx.spec, ctx.options
    if world.collision is not None:
        raise ValueError("cannot tick a collided world")
    tick = world.clock.tick
    timings: dict[str, int] = {}
    zone = world.intersection.conflict_zone

    # 1. Environment update: perception with currently-active faults.
    active = ctx.injector.active_directives(tick)
    noise_stream = (stream_for(ctx.seed, "perception", tick)
                    if spec.sim_params.perception_noise_std > 0 else None)
    perceived = _timed(timings, "environment", tick, sim.build_perceived_state,
                       world, active, spec.sim_params, noise_stream)
    active_fault = ("+".join(sorted({d.kind.value for d in active}))
                    if active else None)

    # 2. Generator (the AUT). Any answer but a (Maneuver, str) pair is
    # the generator's fault, caught here before a later phase reads it.
    if ctx.plan_fn is None:
        answer = _timed(timings, "generator", tick, planners.plan, perceived,
                        world.ego_goal, spec.planner_config, world.intersection)
    else:
        answer = _timed(timings, "generator", tick, ctx.plan_fn, perceived,
                        world.ego_goal)
    if not (isinstance(answer, tuple) and len(answer) == 2
            and isinstance(answer[0], Maneuver)
            and isinstance(answer[1], str)):
        raise RolePanic("generator", tick, TypeError(
            f"answer must be a (Maneuver, str) pair, not {answer!r:.100}"))
    proposal, rationale = answer
    if proposal == Maneuver.EMERGENCY_BRAKE:
        # Only the recovery planner may emergency-brake; demote to Wait.
        proposal, rationale = Maneuver.WAIT, f"demoted emergency_brake; {rationale}"
    # Whichever generator ran, its rationale enters the record capped.
    rationale = truncate_rationale(rationale)

    # 3. Safety monitor.
    verdict: Verdict = _timed(timings, "safety_monitor", tick, safety_check,
                              perceived, proposal, spec.safety_params,
                              world.intersection, spec.sim_params)

    # 4. Security assessor.
    zone_distance = zone.distance_to(world.ego.position)
    attack = _timed(timings, "security_assessor", tick, ctx.injector.plan,
                    tick, zone_distance)

    # 5. Fault injector (conditional on an assessor directive).
    if attack is not None:
        _timed(timings, "fault_injector", tick, ctx.injector.activate,
               attack, tick, perceived, world.ego_goal)

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
    accel = sim.maneuver_to_command(final, world.ego, world, spec.sim_params)
    new_world = _timed(timings, "action_execution", tick, sim.step_dynamics,
                       world, accel)

    record = metrics.finalize_tick(tick, new_world, proposal, rationale,
                                   verdict, flags, final, active_fault, accel)
    ctx.records.append(record)
    ctx.role_timings_ns.append(timings)
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
    records."""
    from .scenario import spawn_scenario

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
                     summary=summary, role_timings_ns=ctx.role_timings_ns)


__all__ = [
    "RolePanic",
    "RunContext",
    "RunOptions",
    "RunResult",
    "check_termination",
    "ego_cleared_now",
    "run_scenario",
    "run_tick",
]
