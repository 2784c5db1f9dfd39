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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from . import metrics
from .metrics import CampaignSummary, RunSummary, TerminationStatus
from .orchestrator import (
    RunOptions,
    RunResult,
    failed_run_summary,
    run_scenario,
)
from .scenario import ScenarioSpec, validate_spec
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


def persist_run(out_dir: str, spec: ScenarioSpec, summary: RunSummary,
                result: Optional[RunResult], scenario_index: int = 0,
                run_index: int = 0) -> Optional[str]:
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


def _execute_run(spec: ScenarioSpec, seed: int, options: RunOptions,
                 out_dir: Optional[str], scenario_index: int = 0,
                 run_index: int = 0) -> tuple[RunSummary, Optional[str]]:
    """One run end-to-end: simulate, persist trace + sidecar, summarize."""
    try:
        result = run_scenario(spec, seed, options)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        summary = failed_run_summary(spec, seed, exc)
        if out_dir:
            persist_run(out_dir, spec, summary, None, scenario_index, run_index)
        return summary, None
    if out_dir:
        digest = persist_run(out_dir, spec, result.summary, result,
                             scenario_index, run_index)
    else:
        digest = metrics.trace_hash(result.records)
    return result.summary, digest


Task = tuple[ScenarioSpec, int, int, int]  # spec, seed, scenario index, run index


def _run_pool(tasks: list[Task], options: RunOptions, out_dir: Optional[str],
              workers: int) -> list[Optional[tuple[RunSummary, Optional[str]]]]:
    """Each task's outcome, or None where a worker died and broke the pool
    before the task finished."""
    outcomes: list[Optional[tuple[RunSummary, Optional[str]]]] = []
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
                  out_dir: Optional[str], workers: int
                  ) -> list[tuple[RunSummary, Optional[str]]]:
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
            summary = failed_run_summary(
                spec, seed, BrokenProcessPool("the run's worker process died"))
            if out_dir:
                persist_run(out_dir, spec, summary, None, si, i)
            outcome = (summary, None)
        outcomes[index] = outcome
    return outcomes


def run_campaign(plan: CampaignPlan,
                 out_dir: Optional[str] = None) -> CampaignResult:
    """Execute the whole plan; output is independent of parallelism."""
    for spec in plan.specs:
        validate_spec(spec)
    options = plan.options()
    tasks = [(spec, stable_mix(plan.base_seed, spec.id, i), si, i)
             for si, spec in enumerate(plan.specs)
             for i in range(plan.runs_per_spec)]

    if plan.parallelism > 1:
        outcomes = _run_parallel(tasks, options, out_dir, plan.parallelism)
    else:
        outcomes = [_execute_run(spec, seed, options, out_dir, si, i)
                    for spec, seed, si, i in tasks]

    summaries = [summary for summary, _ in outcomes]
    hashes = {(spec.id, seed): digest
              for (spec, seed, _, _), (_, digest) in zip(tasks, outcomes)
              if digest is not None}
    return CampaignResult(summary=metrics.summarize_campaign(summaries),
                          run_summaries=summaries, trace_hashes=hashes)


def reaggregate_from_traces(traces_dir: str) -> CampaignSummary:
    """Rebuild the campaign summary from persisted traces.

    Every aggregate field is recomputed from the trace records; the
    sidecar contributes only what a trace cannot carry (termination
    status, thresholds, failure markers). A trace's own bytes are its
    hash input: their sha256 with the newlines left out is its
    ``trace_hash``, so a trace is checked without re-encoding a record,
    and any byte that differs from the canonical form (re-spaced JSON, a
    carriage return) fails the check. A trace with no sidecar, or whose
    line count or hash disagrees with its sidecar, raises
    ``MalformedTrace``.
    """
    from .performance import PerfThresholds

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
            with open(os.path.join(scenario_dir, name), encoding="utf-8") as fh:
                meta = json.load(fh)
            order = (meta.get("scenario_index", 0), meta.get("run_index", 0))
            if meta.get("failed"):
                keyed.append((*order, RunSummary.failed_run(
                    meta["scenario_id"], meta["seed"], meta.get("error"))))
                continue
            trace = os.path.join(scenario_dir, f"{meta['seed']}.jsonl")
            with open(trace, "rb") as fh:
                data = fh.read()
            found = (data.count(b"\n"),
                     hashlib.sha256(data.replace(b"\n", b"")).hexdigest())
            expected = (meta.get("ticks"), meta.get("trace_hash"))
            if found != expected:
                raise metrics.MalformedTrace(
                    None, f"{trace}: {found[0]} lines with trace_hash "
                          f"{found[1]}, but its sidecar records {expected[0]} "
                          f"ticks with trace_hash {expected[1]}")
            # Decoded as it is read: no second, decoded copy of the file.
            records = metrics.read_trace(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            thresholds = PerfThresholds(max_clearance=meta["max_clearance"],
                                        max_abs_accel=meta["max_abs_accel"],
                                        max_abs_jerk=meta["max_abs_jerk"])
            keyed.append((*order, metrics.summarize_run(
                records, TerminationStatus(meta["termination"]),
                thresholds, meta["dt"],
                scenario_id=meta["scenario_id"], seed=meta["seed"])))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return metrics.summarize_campaign([summary for _, _, summary in keyed])


__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "persist_run",
    "reaggregate_from_traces",
    "run_campaign",
]
