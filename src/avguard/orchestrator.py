"""The orchestration controller: fixed per-tick role sequence, decision
rule, termination checking, and whole-run execution.

Every tick executes exactly eight phases, in order: environment update,
generator, safety monitor, security assessor, fault injector
(conditional), performance oracle, decision, action execution. The
environment phase only derives perception from the current ground
truth; the action phase is the one that advances it, through
``sim.step_dynamics``. The final maneuver is the recovery planner's
emergency brake when the safety verdict is unsafe (and recovery is
enabled), otherwise the generator's proposal passes through unmodified.
Each phase's output is a local of ``run_tick`` that the later phases
read directly; the tick's record is assembled from those locals once
the action phase has stepped the world.

Each tick's ``role_timings_ns`` entry holds the wall-clock nanoseconds
of each whole timed phase, the action phase's ``sim.maneuver_to_command``
included: ``environment``, ``generator``, ``safety_monitor``,
``security_assessor``, ``performance_oracle`` and ``action_execution``
on every tick, ``fault_injector`` where it runs; the decision is untimed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import metrics, planners, sim
from .attacks import FaultInjector
from .metrics import CLEARED, COLLISION, HALT_ON_VIOLATION, RUNNING, \
    TIMEOUT, IterationRecord, RunSummary, TerminationStatus
from .monitor import recovery_decide, safety_check
from .performance import performance_check
from .scenario import ScenarioSpec
from .seeding import stream_for
from .state import EMERGENCY_BRAKE, UNSAFE, WAIT
from .state import GroundTruthWorld, Maneuver, truncate_rationale


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
    """How a run treats a violation: whether recovery may act, and whether
    an UNSAFE verdict ends the run."""

    recovery_enabled: bool = True
    halt_on_violation: bool = False


@dataclass
class RunResult:
    """A finished run: how it ended, its records, their summary and each
    tick's phase timings."""

    termination: TerminationStatus
    records: list[IterationRecord]
    summary: RunSummary
    # Wall-clock ns per phase, one dict per record; not part of the trace.
    role_timings_ns: list[dict[str, int]]


PlanFn = Callable[..., tuple[Maneuver, str]]


@dataclass
class RunContext:
    """Everything one run owns: world, records and phase timings so far,
    injector and configuration."""

    spec: ScenarioSpec
    seed: int
    options: RunOptions
    world: GroundTruthWorld
    records: list[IterationRecord] = field(default_factory=list)
    role_timings_ns: list[dict[str, int]] = field(default_factory=list)
    injector: FaultInjector = field(init=False)
    plan_fn: Optional[PlanFn] = None  # defaults to the configured planner

    def __post_init__(self) -> None:
        self.injector = FaultInjector(self.spec.attack)


def ego_cleared_now(world: GroundTruthWorld) -> bool:
    """Ego fully past the conflict zone along its route."""
    _, s_exit = world.ego_route.zone_entry_exit(world.intersection.conflict_zone)
    return world.ego_s > s_exit + world.ego.half_extent[0]


def run_tick(ctx: RunContext) -> tuple[GroundTruthWorld, IterationRecord]:
    """Execute the eight phases for one tick, finalize its record and
    append it to ``ctx.records``, and its phase timings to
    ``ctx.role_timings_ns``.

    Code in a timed phase that raises becomes a ``RolePanic`` naming its
    role; ``role`` is None between phases, where a failure raises as is.
    Nothing of the tick is kept then.
    """
    world, spec, options = ctx.world, ctx.spec, ctx.options
    if world.collision is not None:
        raise ValueError("cannot tick a collided world")
    tick = world.clock.tick
    injector = ctx.injector
    clock = time.perf_counter_ns
    timings: dict[str, int] = {}

    # 1. Environment update: perception with the active fault, if any.
    active = injector.active_directives(tick)
    noise_stream = (stream_for(ctx.seed, "perception", tick)
                    if spec.sim_params.perception_noise_std > 0 else None)
    try:
        role, start = "environment", clock()
        perceived = sim.build_perceived_state(world, active, spec.sim_params,
                                              noise_stream)
        timings[role] = clock() - start
        role = None
        active_fault = active[0].kind._value_ if active else None

        # 2. Generator (the AUT). Any answer but a (Maneuver, str) pair is
        # the generator's fault, caught here before a later phase reads it.
        role, start = "generator", clock()
        if ctx.plan_fn is None:
            answer = planners.plan(perceived, world.ego_goal,
                                   spec.planner_config, world.intersection)
        else:
            answer = ctx.plan_fn(perceived, world.ego_goal)
        timings[role] = clock() - start
        role = None
        if not (isinstance(answer, tuple) and len(answer) == 2
                and isinstance(answer[0], Maneuver)
                and isinstance(answer[1], str)):
            raise RolePanic("generator", tick, TypeError(
                f"answer must be a (Maneuver, str) pair, not {answer!r:.100}"))
        proposal, rationale = answer
        if proposal == EMERGENCY_BRAKE:
            # Only the recovery planner may emergency-brake; demote to Wait.
            proposal, rationale = (WAIT,
                                   f"demoted emergency_brake; {rationale}")
        # Whichever generator ran, its rationale enters the record capped.
        rationale = truncate_rationale(rationale)

        # 3. Safety monitor.
        role, start = "safety_monitor", clock()
        verdict = safety_check(perceived, proposal, spec.safety_params,
                               world.intersection, spec.sim_params)
        timings[role] = clock() - start
        role = None

        # 4. Security assessor.
        role, start = "security_assessor", clock()
        zone_distance = world.intersection.conflict_zone.distance_to(
            world.ego.position)
        attack = injector.plan(tick, zone_distance)
        timings[role] = clock() - start

        # 5. Fault injector (conditional on an assessor directive).
        if attack is not None:
            role, start = "fault_injector", clock()
            injector.activate(attack, tick, perceived, world.ego_goal)
            timings[role] = clock() - start
        role = None

        # 6. Performance oracle.
        role, start = "performance_oracle", clock()
        flags = performance_check(ctx.records, world.clock.sim_time,
                                  ego_cleared_now(world),
                                  spec.sim_params.dt, spec.perf_thresholds)
        timings[role] = clock() - start
        role = None

        # 7. Decision: activate the recovery planner on an unsafe verdict.
        if options.recovery_enabled:
            final = recovery_decide(verdict, proposal)
        else:
            final = proposal

        # 8. Action execution: the one phase that advances ground truth.
        role, start = "action_execution", clock()
        accel = sim.maneuver_to_command(final, world.ego, world,
                                        spec.sim_params)
        new_world = sim.step_dynamics(world, accel)
        timings[role] = clock() - start
    except Exception as exc:  # noqa: BLE001 - wrapped into the run diagnostic
        if role is None:
            raise
        raise RolePanic(role, tick, exc) from exc

    record = metrics.finalize_tick(tick, new_world, proposal, rationale,
                                   verdict, flags, final, active_fault, accel)
    ctx.records.append(record)
    ctx.role_timings_ns.append(timings)
    ctx.world = new_world
    return new_world, record


def check_termination(world: GroundTruthWorld, spec: ScenarioSpec,
                      halt: bool) -> TerminationStatus:
    """Priority order: collision > cleared > halt > timeout, where
    ``halt`` is the caller's decision to stop on the last tick's verdict."""
    if world.collision is not None:
        return COLLISION
    if world.clear_streak >= spec.grace_ticks and ego_cleared_now(world):
        return CLEARED
    if halt:
        return HALT_ON_VIOLATION
    if world.clock.tick >= spec.max_ticks:
        return TIMEOUT
    return RUNNING


def run_scenario(spec: ScenarioSpec, seed: int,
                 options: RunOptions = RunOptions(),
                 plan_fn: Optional[PlanFn] = None) -> RunResult:
    """Run one scenario to termination; identical inputs give identical
    records. The run halts on an unsafe verdict when
    ``options.halt_on_violation`` asks for it."""
    from .scenario import spawn_scenario

    ctx = RunContext(spec=spec, seed=seed, options=options,
                     world=spawn_scenario(spec, seed), plan_fn=plan_fn)
    termination = RUNNING
    while termination == RUNNING:
        new_world, record = run_tick(ctx)
        if ego_cleared_now(new_world):
            new_world.clear_streak += 1
        else:
            new_world.clear_streak = 0
        termination = check_termination(
            new_world, spec,
            options.halt_on_violation and record.verdict_level == UNSAFE)
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
    "run_scenario",
    "run_tick",
]
