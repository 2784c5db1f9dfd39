"""Seeded campaign execution: N runs per scenario, optional parallelism,
trace persistence, and deterministic aggregation.

Run i of scenario s uses seed = stable_mix(base_seed, s.id, i), so a
campaign is reproducible independently of worker count; results are
folded in (scenario, run index) order regardless of completion order.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from . import metrics
from .config import PerfThresholds
from .metrics import CampaignSummary, RunSummary, TerminationStatus
from .orchestrator import RunOptions, RunResult, run_scenario
from .scenario import ScenarioSpec, ValidationError, validate_spec
from .seeding import stable_mix
from .state import UNSAFE


@dataclass
class CampaignPlan:
    """A campaign: its specs, runs per spec, base seed, run options and
    worker-process count."""

    specs: list[ScenarioSpec]
    runs_per_spec: int = 15
    base_seed: int = 0
    recovery_enabled: bool = True
    halt_on_violation: bool = False
    parallelism: int = 1

    def options(self) -> RunOptions:
        return RunOptions(recovery_enabled=self.recovery_enabled,
                          halt_on_violation=self.halt_on_violation)


@dataclass
class CampaignResult:
    """A campaign's summary, each run's summary and each completed run's
    trace hash by (scenario id, seed)."""

    summary: CampaignSummary
    run_summaries: list[RunSummary]
    trace_hashes: dict[tuple[str, int], str] = field(default_factory=dict)


def _persist_run(out_dir: str, spec: ScenarioSpec, summary: RunSummary,
                 result: Optional[RunResult], scenario_index: int,
                 run_index: int) -> Optional[str]:
    """Write a run's trace ``<seed>.jsonl``, if it has one, then its
    ``<seed>.run.json`` sidecar; return the trace's hash.

    The sidecar holds what a trace cannot carry: termination, thresholds
    and failure markers, the trace's hash and tick count, which
    ``reaggregate_from_traces`` checks the trace against, and the
    wall-clock phase timings of each tick.
    """
    directory = os.path.join(out_dir, spec.id)
    os.makedirs(directory, exist_ok=True)
    meta = {
        "scenario_id": summary.scenario_id,
        "seed": summary.seed,
        "scenario_index": scenario_index,
        "run_index": run_index,
        "termination": summary.termination.value,
        "failed": summary.failed,
        "error": summary.error,
        "dt": spec.sim_params.dt,
        "max_abs_accel": spec.perf_thresholds.max_abs_accel,
        "max_abs_jerk": spec.perf_thresholds.max_abs_jerk,
        "max_clearance": spec.perf_thresholds.max_clearance,
    }
    digest = None
    if result is not None:
        digest = metrics.write_trace(
            result.records, os.path.join(directory, f"{summary.seed}.jsonl"))
        meta.update(trace_hash=digest, ticks=len(result.records),
                    role_timings_ns=result.role_timings_ns)
    with open(os.path.join(directory, f"{summary.seed}.run.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(meta))
    return digest


Outcome = tuple[RunSummary, Optional[str], int]  # summary, trace_hash, ticks


def _failed_run(spec: ScenarioSpec, seed: int, exc: BaseException,
                out_dir: Optional[str], scenario_index: int,
                run_index: int) -> Outcome:
    """A run that raised or lost its worker: a failed summary, and its
    failed sidecar when there is an ``out_dir``."""
    import traceback  # only a failed run pays for it

    summary = RunSummary.failed_run(
        spec.id, seed,
        "".join(traceback.format_exception_only(type(exc), exc)).strip())
    if out_dir:
        _persist_run(out_dir, spec, summary, None, scenario_index, run_index)
    return summary, None, 0


def _execute_run(spec: ScenarioSpec, seed: int, options: RunOptions,
                 out_dir: Optional[str], scenario_index: int,
                 run_index: int) -> Outcome:
    """One run end-to-end: simulate, persist trace + sidecar, summarize."""
    try:
        result = run_scenario(spec, seed, options)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        return _failed_run(spec, seed, exc, out_dir, scenario_index, run_index)
    if out_dir:
        digest = _persist_run(out_dir, spec, result.summary, result,
                              scenario_index, run_index)
    else:
        digest = metrics.trace_hash(result.records)
    return result.summary, digest, len(result.records)


def _next_run_index(out_dir: str, scenario_id: str, seed: int) -> int:
    """The run index ``avguard run`` gives its run in ``out_dir``: one past
    every run index a sidecar there records, save the sidecar this run
    replaces. Runs gathered in one directory by repeated ``run`` so claim
    distinct ``(0, run_index)`` pairs, as ``reaggregate_from_traces``
    requires, in the order they were run."""
    last = -1
    for sub in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
        directory = os.path.join(out_dir, sub)
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            if not name.endswith(".run.json") or \
                    (sub, name) == (scenario_id, f"{seed}.run.json"):
                continue
            try:
                meta, _, _ = _read_sidecar(os.path.join(directory, name))
            except (OSError, metrics.MalformedTrace):
                continue  # report rejects a damaged sidecar, naming it
            last = max(last, meta["run_index"])
    return last + 1


Task = tuple[int, int, int]  # scenario index, seed, run index

# A pool worker's (specs, options, out_dir), set once by _init_worker.
_worker_plan: Optional[tuple[list[ScenarioSpec], RunOptions,
                             Optional[str]]] = None


def _init_worker(specs: list[ScenarioSpec], options: RunOptions,
                 out_dir: Optional[str]) -> None:
    global _worker_plan
    _worker_plan = (specs, options, out_dir)


def _run_task(si: int, seed: int, i: int) -> Outcome:
    """A pool worker's run of one task against the plan it was given."""
    specs, options, out_dir = _worker_plan
    # _execute_run is looked up at each call, so a wrapper put on the
    # module before the pool started is the one that runs.
    return _execute_run(specs[si], seed, options, out_dir, si, i)


def _run_pool(specs: list[ScenarioSpec], tasks: list[Task],
              options: RunOptions, out_dir: Optional[str],
              workers: int) -> list[Optional[Outcome]]:
    """Each task's outcome, or None where a worker died and broke the pool
    before the task finished.

    Each worker receives the specs, options and ``out_dir`` once, when it
    starts; a task carries only indices and a seed.
    """
    # Only a parallel campaign pays for the pool's imports.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    outcomes: list[Optional[Outcome]] = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(specs, options, out_dir)) as pool:
        futures = [pool.submit(_run_task, *task) for task in tasks]
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append(None)
    return outcomes


def _run_parallel(specs: list[ScenarioSpec], tasks: list[Task],
                  options: RunOptions, out_dir: Optional[str],
                  workers: int) -> list[Outcome]:
    """Run the tasks on a process pool; a run whose worker dies is a
    failed run.

    A dying worker breaks the whole pool, and every unfinished task with
    it. Each of those runs again alone in a one-worker pool, so only the
    run that kills its own worker fails, and the parent writes its
    failed sidecar. A rerun rewrites any partial trace the broken pool
    left behind.
    """
    from concurrent.futures.process import BrokenProcessPool

    outcomes = _run_pool(specs, tasks, options, out_dir, workers)
    for index, (outcome, task) in enumerate(zip(outcomes, tasks)):
        if outcome is not None:
            continue
        outcome = _run_pool(specs, [task], options, out_dir, 1)[0]
        if outcome is None:
            si, seed, i = task
            outcome = _failed_run(
                specs[si], seed,
                BrokenProcessPool("the run's worker process died"),
                out_dir, si, i)
        outcomes[index] = outcome
    return outcomes


def run_campaign(plan: CampaignPlan,
                 out_dir: Optional[str] = None) -> CampaignResult:
    """Execute the whole plan; output is independent of parallelism.

    Every spec is validated before any run starts. A plan that runs
    nothing (no spec, or ``runs_per_spec`` below 1) or a ``parallelism``
    below 1 is a ``ValidationError``. Seeds derive from the scenario id,
    so two specs with one id would share seeds and overwrite each other's
    traces: that is a ``ValidationError`` too. So is an ``out_dir`` that
    holds anything, since ``reaggregate_from_traces`` would count an
    earlier campaign's runs as this one's.
    """
    if not plan.specs:
        raise ValidationError("a campaign needs at least one scenario spec")
    if plan.runs_per_spec < 1 or plan.parallelism < 1:
        raise ValidationError(
            f"runs_per_spec and parallelism must be >= 1, not "
            f"{plan.runs_per_spec} and {plan.parallelism}")
    seen: set[str] = set()
    for spec in plan.specs:
        validate_spec(spec)
        if spec.id in seen:
            raise ValidationError(
                f"scenario id {spec.id!r} is used by more than one spec")
        seen.add(spec.id)
    if out_dir and os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ValidationError(f"out_dir {out_dir!r} is not empty: a campaign "
                              f"writes only into a new or empty directory")
    options = plan.options()
    specs = plan.specs
    tasks = [(si, stable_mix(plan.base_seed, spec.id, i), i)
             for si, spec in enumerate(specs)
             for i in range(plan.runs_per_spec)]

    if plan.parallelism > 1:
        outcomes = _run_parallel(specs, tasks, options, out_dir,
                                 plan.parallelism)
    else:
        outcomes = [_execute_run(specs[si], seed, options, out_dir, si, i)
                    for si, seed, i in tasks]

    summaries = [summary for summary, _, _ in outcomes]
    hashes = {(specs[si].id, seed): digest
              for (si, seed, _), (_, digest, _) in zip(tasks, outcomes)
              if digest is not None}
    return CampaignResult(summary=metrics.summarize_campaign(summaries),
                          run_summaries=summaries, trace_hashes=hashes)


# Every key _persist_run writes; the sidecar of a run with a trace has
# _TRACE_KEYS too.
_SIDECAR_KEYS = frozenset({
    "scenario_id", "seed", "scenario_index", "run_index", "termination",
    "failed", "error", "dt", "max_abs_accel", "max_abs_jerk",
    "max_clearance"})
_TRACE_KEYS = frozenset({"trace_hash", "ticks", "role_timings_ns"})


def _read_sidecar(path: str
                  ) -> tuple[dict, TerminationStatus, PerfThresholds]:
    """A sidecar's fields, with its termination and thresholds decoded.

    A sidecar that is not a JSON object, lacks a key its writer writes,
    has a key it never writes, or holds a value it never writes raises
    ``MalformedTrace`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        keys = _SIDECAR_KEYS if meta.get("failed") else \
            _SIDECAR_KEYS | _TRACE_KEYS
        missing = sorted(keys - meta.keys())
        if missing:
            raise ValueError(f"no {', '.join(missing)}")
        unknown = sorted(meta.keys() - keys)
        if unknown:
            raise ValueError(f"unknown key {', '.join(unknown)}")
        if any(type(meta[key]) is not int
               for key in ("seed", "scenario_index", "run_index")):
            raise ValueError("seed, scenario_index and run_index must be "
                             "integers")
        if type(meta["failed"]) is not bool:
            raise ValueError("failed must be true or false")
        if any(type(meta[key]) not in (int, float)
               or not math.isfinite(meta[key]) for key in (
                   "dt", "max_abs_accel", "max_abs_jerk", "max_clearance")):
            raise ValueError("dt and the thresholds must be finite numbers")
        if not meta["dt"] > 0:
            raise ValueError("dt must be > 0")
        if not meta["failed"]:
            if type(meta["ticks"]) is not int or not meta["ticks"] >= 1:
                raise ValueError("ticks must be an integer >= 1")
            timings = meta["role_timings_ns"]
            if not (type(timings) is list and len(timings) == meta["ticks"]
                    and all(type(t) is dict for t in timings)):
                raise ValueError("role_timings_ns must be a list of one "
                                 "dict per tick")
        termination = TerminationStatus(meta["termination"])
        thresholds = PerfThresholds(max_clearance=meta["max_clearance"],
                                    max_abs_accel=meta["max_abs_accel"],
                                    max_abs_jerk=meta["max_abs_jerk"])
    except (ValueError, TypeError) as exc:
        raise metrics.MalformedTrace(None, f"{path}: {exc}") from exc
    return meta, termination, thresholds


def reaggregate_from_traces(traces_dir: str) -> CampaignSummary:
    """Rebuild the campaign summary from persisted traces.

    Every aggregate field is recomputed from the trace records; the
    sidecar contributes only what a trace cannot carry (termination
    status, thresholds, failure markers). A trace's own bytes are its
    hash input: their sha256 with the newlines left out is its
    ``trace_hash``, so a trace is checked without re-encoding a record,
    and any byte that differs from the canonical form (re-spaced JSON, a
    carriage return) fails the check. A damaged sidecar, a trace with no
    sidecar, a trace whose line count, record count or hash disagrees
    with its sidecar, a trace line that does not decode, or a termination
    its last record contradicts (``running``, or a collision bit or unsafe
    halt the record does not show) raises ``MalformedTrace`` naming the
    file. So does a sidecar that is not
    ``<its scenario_id>/<its seed>.run.json``, which would name another
    run's trace, two sidecars that claim the same ``(scenario_index,
    run_index)``, as a run of another campaign copied in does, and a
    directory that holds no sidecar at all, since a report of no runs
    shows nothing.
    """
    import hashlib  # loaded by the first trace, not by ``import avguard``

    keyed: list[tuple[int, int, RunSummary]] = []
    sidecars: dict[tuple[int, int], str] = {}  # (scenario_index, run_index)
    for scenario_id in sorted(os.listdir(traces_dir)):
        scenario_dir = os.path.join(traces_dir, scenario_id)
        if not os.path.isdir(scenario_dir):
            continue
        names = sorted(os.listdir(scenario_dir))
        present = set(names)
        for name in names:
            if name.endswith(".jsonl") and \
                    name.removesuffix(".jsonl") + ".run.json" not in present:
                raise metrics.MalformedTrace(
                    None, f"{os.path.join(scenario_dir, name)}: trace has "
                          f"no .run.json sidecar")
        for name in names:
            if not name.endswith(".run.json"):
                continue
            path = os.path.join(scenario_dir, name)
            meta, termination, thresholds = _read_sidecar(path)
            # A sidecar names its trace by its seed: read it only where
            # its writer put it.
            if (meta["scenario_id"], f"{meta['seed']}.run.json") != \
                    (scenario_id, name):
                raise metrics.MalformedTrace(
                    None, f"{path}: the sidecar of run {meta['seed']} of "
                          f"scenario {meta['scenario_id']!r} belongs at "
                          f"{meta['scenario_id']}/{meta['seed']}.run.json")
            order = (meta["scenario_index"], meta["run_index"])
            other = sidecars.setdefault(order, path)
            if other != path:
                raise metrics.MalformedTrace(
                    None, f"{path}: scenario_index {order[0]} and run_index "
                          f"{order[1]} are already claimed by {other}: a "
                          f"campaign has one run of each")
            if meta["failed"]:
                keyed.append((*order, RunSummary.failed_run(
                    meta["scenario_id"], meta["seed"], meta["error"])))
                continue
            trace = os.path.join(scenario_dir, f"{meta['seed']}.jsonl")
            with open(trace, "rb") as fh:
                data = fh.read()
            found = (data.count(b"\n"),
                     hashlib.sha256(data.replace(b"\n", b"")).hexdigest())
            expected = (meta["ticks"], meta["trace_hash"])
            if found != expected:
                raise metrics.MalformedTrace(
                    None, f"{trace}: {found[0]} lines with trace_hash "
                          f"{found[1]}, but its sidecar records {expected[0]} "
                          f"ticks with trace_hash {expected[1]}")
            # Decoded as it is read: no second, decoded copy of the file.
            try:
                records = metrics.read_trace(
                    io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            except (metrics.MalformedTrace, UnicodeDecodeError) as exc:
                raise metrics.MalformedTrace(None, f"{trace}: {exc}") from exc
            # A blank line is no record, and a last line needs no newline.
            if len(records) != meta["ticks"]:
                raise metrics.MalformedTrace(
                    None, f"{trace}: {len(records)} records, but its sidecar "
                          f"records {meta['ticks']} ticks")
            keyed.append((*order, metrics.summarize_run(
                records, termination, thresholds, meta["dt"],
                scenario_id=meta["scenario_id"], seed=meta["seed"])))
            # As a run ends: collision first (check_termination's order),
            # and a halt only on an unsafe verdict (run_scenario's rule).
            last = records[-1]
            if (termination == TerminationStatus.RUNNING
                    or last.collision != (termination
                                          == TerminationStatus.COLLISION)
                    or termination == TerminationStatus.HALT_ON_VIOLATION
                    and last.verdict_level != UNSAFE):
                raise metrics.MalformedTrace(
                    None, f"{path}: termination {termination.value} "
                          f"contradicts the trace's last record (collision "
                          f"{last.collision}, verdict {last.verdict_level})")
    if not keyed:
        raise metrics.MalformedTrace(
            None, f"{traces_dir}: no run found; a campaign's traces are laid "
                  f"out as <scenario_id>/<seed>.run.json")
    keyed.sort(key=lambda item: (item[0], item[1]))
    return metrics.summarize_campaign([summary for _, _, summary in keyed])


__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "reaggregate_from_traces",
    "run_campaign",
]
