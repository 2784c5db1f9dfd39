"""Seeded campaign execution: N runs per scenario, optional parallelism,
trace persistence, and deterministic aggregation.

Run i of scenario s uses seed = stable_mix(base_seed, s.id, i), so a
campaign is reproducible independently of worker count; results are
folded in (scenario, run index) order regardless of completion order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import metrics
from .metrics import CampaignSummary, RunSummary, TerminationStatus
from .orchestrator import RunOptions, failed_run_summary, run_scenario
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


def _trace_path(out_dir: str, scenario_id: str, seed: int) -> str:
    return os.path.join(out_dir, scenario_id, f"{seed}.jsonl")


def _sidecar_path(out_dir: str, scenario_id: str, seed: int) -> str:
    return os.path.join(out_dir, scenario_id, f"{seed}.run.json")


def _summary_to_json(summary: RunSummary, spec: ScenarioSpec,
                     scenario_index: int, run_index: int) -> dict:
    return {
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


def _execute_run(spec: ScenarioSpec, seed: int, options: RunOptions,
                 out_dir: Optional[str], scenario_index: int = 0,
                 run_index: int = 0) -> tuple[RunSummary, Optional[str]]:
    """One run end-to-end: simulate, persist trace + sidecar, summarize."""
    try:
        result = run_scenario(spec, seed, options)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        summary = failed_run_summary(spec, seed, exc)
        if out_dir:
            os.makedirs(os.path.join(out_dir, spec.id), exist_ok=True)
            with open(_sidecar_path(out_dir, spec.id, seed), "w",
                      encoding="utf-8") as fh:
                json.dump(_summary_to_json(summary, spec, scenario_index,
                                           run_index), fh)
        return summary, None
    digest = metrics.trace_hash(result.records)
    if out_dir:
        os.makedirs(os.path.join(out_dir, spec.id), exist_ok=True)
        metrics.write_trace(result.records, _trace_path(out_dir, spec.id, seed))
        with open(_sidecar_path(out_dir, spec.id, seed), "w",
                  encoding="utf-8") as fh:
            json.dump(_summary_to_json(result.summary, spec, scenario_index,
                                       run_index), fh)
    return result.summary, digest


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
        with ProcessPoolExecutor(max_workers=plan.parallelism) as pool:
            outcomes = list(pool.map(
                _execute_run,
                [t[0] for t in tasks],
                [t[1] for t in tasks],
                [options] * len(tasks),
                [out_dir] * len(tasks),
                [t[2] for t in tasks],
                [t[3] for t in tasks],
            ))
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
    status, thresholds, failure markers).
    """
    from .performance import PerfThresholds

    keyed: list[tuple[int, int, RunSummary]] = []
    for scenario_id in sorted(os.listdir(traces_dir)):
        scenario_dir = os.path.join(traces_dir, scenario_id)
        if not os.path.isdir(scenario_dir):
            continue
        for name in sorted(os.listdir(scenario_dir)):
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
            records = metrics.read_trace(trace)
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
    "reaggregate_from_traces",
    "run_campaign",
]
