"""Seeded campaign execution: N runs per scenario, optional parallelism,
trace persistence, and deterministic aggregation.

Run i of scenario s uses seed = stable_mix(base_seed, s.id, i), so a
campaign is reproducible independently of worker count; results are
folded in (scenario, run index) order regardless of completion order.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from . import metrics
from .metrics import CampaignSummary, RunSummary, TerminationStatus
from .orchestrator import RunOptions, RunResult, run_scenario
from .performance import PerfThresholds
from .scenario import ScenarioSpec, ValidationError, validate_spec
from .seeding import stable_mix


@dataclass
class CampaignPlan:
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
    summary = RunSummary.failed_run(
        spec.id, seed,
        "".join(traceback.format_exception_only(type(exc), exc)).strip())
    if out_dir:
        _persist_run(out_dir, spec, summary, None, scenario_index, run_index)
    return summary, None, 0


def _execute_run(spec: ScenarioSpec, seed: int, options: RunOptions,
                 out_dir: Optional[str], scenario_index: int = 0,
                 run_index: int = 0) -> Outcome:
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


Task = tuple[ScenarioSpec, int, int, int]  # spec, seed, scenario index, run index


def _run_pool(tasks: list[Task], options: RunOptions, out_dir: Optional[str],
              workers: int) -> list[Optional[Outcome]]:
    """Each task's outcome, or None where a worker died and broke the pool
    before the task finished."""
    outcomes: list[Optional[Outcome]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_run, spec, seed, options, out_dir, si, i)
                   for spec, seed, si, i in tasks]
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool:
                outcomes.append(None)
    return outcomes


def _run_parallel(tasks: list[Task], options: RunOptions,
                  out_dir: Optional[str], workers: int) -> list[Outcome]:
    """Run the tasks on a process pool; a run whose worker dies is a
    failed run.

    A dying worker breaks the whole pool, and every unfinished task with
    it. Each of those runs again alone in a one-worker pool, so only the
    run that kills its own worker fails, and the parent writes its
    failed sidecar. A rerun rewrites any partial trace the broken pool
    left behind.
    """
    outcomes = _run_pool(tasks, options, out_dir, workers)
    for index, (outcome, task) in enumerate(zip(outcomes, tasks)):
        if outcome is not None:
            continue
        outcome = _run_pool([task], options, out_dir, 1)[0]
        if outcome is None:
            spec, seed, si, i = task
            outcome = _failed_run(
                spec, seed, BrokenProcessPool("the run's worker process died"),
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
    tasks = [(spec, stable_mix(plan.base_seed, spec.id, i), si, i)
             for si, spec in enumerate(plan.specs)
             for i in range(plan.runs_per_spec)]

    if plan.parallelism > 1:
        outcomes = _run_parallel(tasks, options, out_dir, plan.parallelism)
    else:
        outcomes = [_execute_run(spec, seed, options, out_dir, si, i)
                    for spec, seed, si, i in tasks]

    summaries = [summary for summary, _, _ in outcomes]
    hashes = {(spec.id, seed): digest
              for (spec, seed, _, _), (_, digest, _) in zip(tasks, outcomes)
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
    or holds a value the writer never writes raises ``MalformedTrace``
    naming the file.
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
        if any(type(meta[key]) is not int
               for key in ("seed", "scenario_index", "run_index")):
            raise ValueError("seed, scenario_index and run_index must be "
                             "integers")
        if not meta["dt"] > 0:
            raise ValueError("dt must be > 0")
        if not meta["failed"] and not meta["ticks"] >= 1:
            raise ValueError("a run records at least one tick")
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
    sidecar, or a trace whose line count or hash disagrees with its
    sidecar, raises ``MalformedTrace``. So does a directory that holds
    no sidecar at all, since a report of no runs shows nothing.
    """
    keyed: list[tuple[int, int, RunSummary]] = []
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
            meta, termination, thresholds = _read_sidecar(
                os.path.join(scenario_dir, name))
            order = (meta["scenario_index"], meta["run_index"])
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
            records = metrics.read_trace(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            keyed.append((*order, metrics.summarize_run(
                records, termination, thresholds, meta["dt"],
                scenario_id=meta["scenario_id"], seed=meta["seed"])))
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
