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
from typing import Iterator, Optional

from . import metrics
from .config import PerfThresholds
from .metrics import CampaignSummary, RunSummary, TerminationStatus
from .orchestrator import RunOptions, RunResult, run_scenario
from .scenario import ScenarioSpec, ValidationError, validate_spec
from .seeding import stable_mix
from .state import EMERGENCY_BRAKE, UNSAFE


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
    ``_verified_records`` checks the trace against, and the wall-clock
    phase timings of each tick.
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


def _lines_and_digest(data: bytes) -> tuple[int, str]:
    """A trace's line count and its ``trace_hash``: the sha256 of its
    bytes with the newlines left out, digested line by line through
    views of ``data``, so no newline-stripped copy of it is made."""
    import hashlib  # loaded by the first trace, not by ``import avguard``

    h = hashlib.sha256()
    view = memoryview(data)
    lines = data.count(b"\n")
    start = 0
    for _ in range(lines):
        end = data.find(b"\n", start)
        h.update(view[start:end])
        start = end + 1
    h.update(view[start:])
    return lines, h.hexdigest()


def _campaign_files(out_dir: str) -> Iterator[tuple[str, str, str]]:
    """The campaign walk: each file under ``out_dir``'s subdirectories."""
    for scenario_id in sorted(os.listdir(out_dir)):
        directory = os.path.join(out_dir, scenario_id)
        if os.path.isdir(directory):
            for name in sorted(os.listdir(directory)):
                yield scenario_id, name, os.path.join(directory, name)


def _next_run_index(out_dir: str, scenario_id: str, seed: int) -> int:
    """The run index ``avguard run`` gives its run in ``out_dir``: one past
    every run index a sidecar there records, save the one this run
    replaces, so runs gathered there by repeated ``run`` claim distinct
    ``(0, run_index)`` pairs, as the reader requires, in run order."""
    last = -1
    replaced = (scenario_id, f"{seed}.run.json")
    for sub, name, path in (_campaign_files(out_dir)
                            if os.path.isdir(out_dir) else ()):
        if name.endswith(".run.json") and (sub, name) != replaced:
            try:
                last = max(last, _read_sidecar(path)[0]["run_index"])
            except (OSError, metrics.MalformedTrace):
                pass  # report rejects a damaged sidecar, naming it
    return last + 1


_BRAKE = EMERGENCY_BRAKE._value_  # a record's final_maneuver is the string


def _verified_records(sidecar: str, meta: dict,
                      termination: TerminationStatus) -> Iterator:
    """The records of the trace whose sidecar ``sidecar`` holds ``meta``,
    as a one-shot stream. It reads the trace when iteration starts and
    checks its line count and hash before decoding a record, then
    decodes each record as it hands it out, so only that record and the
    one before it are held. Line n must hold tick n - 1, at
    round((n - 1) * dt, 9) s; recovery is active exactly when the final
    maneuver is emergency_brake; only the last tick may collide; the
    records number ``ticks``; the termination agrees with the last one.
    Else ``MalformedTrace`` names the trace and line, or the sidecar."""
    trace = os.path.join(os.path.dirname(sidecar), f"{meta['seed']}.jsonl")
    with open(trace, "rb") as fh:
        data = fh.read()
    found = _lines_and_digest(data)
    dt, ticks = meta["dt"], meta["ticks"]
    if found != (ticks, meta["trace_hash"]):
        raise metrics.MalformedTrace(
            None, f"{trace}: {found[0]} lines with trace_hash {found[1]}, "
                  f"but its sidecar records {ticks} ticks with "
                  f"trace_hash {meta['trace_hash']}")
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                             newline="\n")
    count = 0
    try:
        for number, record in metrics._decoded_lines(lines):
            tick = number - 1
            if record.tick != tick:
                raise metrics.MalformedTrace(
                    number, f"tick {record.tick!r}, expected {tick}")
            if record.sim_time_s != round(tick * dt, 9):
                raise metrics.MalformedTrace(
                    number, f"sim_time_s {record.sim_time_s!r}, expected "
                            f"{round(tick * dt, 9)!r}")
            if record.recovery_active != (record.final_maneuver == _BRAKE):
                raise metrics.MalformedTrace(
                    number, f"recovery_active {record.recovery_active!r} "
                            f"with final_maneuver "
                            f"{record.final_maneuver!r}: recovery is active "
                            f"exactly when the final maneuver is {_BRAKE}")
            if record.collision and tick != ticks - 1:
                raise metrics.MalformedTrace(
                    number, "a collision, but a record follows it: a run "
                            "ends at its collision")
            count += 1
            yield record
        if count != ticks:
            # A blank line is no record, and a last line needs no newline.
            raise metrics.MalformedTrace(None, f"{count} records, but its "
                                         f"sidecar records {ticks} ticks")
    except (metrics.MalformedTrace, UnicodeDecodeError) as exc:
        raise metrics.MalformedTrace(None, f"{trace}: {exc}") from exc
    # As a run ends: collision first (check_termination's order), and a
    # halt only on an unsafe verdict (run_scenario's rule).
    if (termination == TerminationStatus.RUNNING
            or record.collision != (termination == TerminationStatus.COLLISION)
            or termination == TerminationStatus.HALT_ON_VIOLATION
            and record.verdict_level != UNSAFE):
        raise metrics.MalformedTrace(
            None, f"{sidecar}: termination {termination.value} contradicts "
                  f"the trace's last record (collision {record.collision}, "
                  f"verdict {record.verdict_level})")


def _verified_runs(traces_dir: str) -> Iterator[tuple]:
    """The campaign reader: each run of ``traces_dir`` in directory order,
    as its ``(scenario_index, run_index)``, its sidecar's fields,
    termination and thresholds, and its ``_verified_records`` stream, or
    None for a failed run. A trace is verified only as its stream is
    read, so a caller reads each stream to its end. A damaged sidecar, a
    trace with no sidecar, a sidecar not at ``<its scenario_id>/<its
    seed>.run.json`` (it would name another run's trace), two sidecars
    with one key (a run of another campaign copied in), or no sidecar at
    all raises ``MalformedTrace`` naming the file or directory."""
    claimed: dict[tuple[int, int], str] = {}
    for scenario_id, name, path in _campaign_files(traces_dir):
        if name.endswith(".jsonl") and not os.path.exists(
                path.removesuffix(".jsonl") + ".run.json"):
            raise metrics.MalformedTrace(
                None, f"{path}: trace has no .run.json sidecar")
        if not name.endswith(".run.json"):
            continue
        meta, termination, thresholds = _read_sidecar(path)
        # A sidecar names its trace by its seed: read it only where its
        # writer put it.
        if (meta["scenario_id"], f"{meta['seed']}.run.json") != \
                (scenario_id, name):
            raise metrics.MalformedTrace(
                None, f"{path}: the sidecar of run {meta['seed']} of "
                      f"scenario {meta['scenario_id']!r} belongs at "
                      f"{meta['scenario_id']}/{meta['seed']}.run.json")
        key = (meta["scenario_index"], meta["run_index"])
        other = claimed.setdefault(key, path)
        if other != path:
            raise metrics.MalformedTrace(
                None, f"{path}: scenario_index {key[0]} and run_index "
                      f"{key[1]} are already claimed by {other}: a "
                      f"campaign has one run of each")
        yield key, meta, termination, thresholds, (
            None if meta["failed"]
            else _verified_records(path, meta, termination))
    if not claimed:
        raise metrics.MalformedTrace(
            None, f"{traces_dir}: no run found; a campaign's traces are laid "
                  f"out as <scenario_id>/<seed>.run.json")


def reaggregate_from_traces(traces_dir: str) -> CampaignSummary:
    """Rebuild the campaign summary from persisted traces: each run of the
    campaign reader, ``_verified_runs``, is summarized as its verified
    records stream in, ordered by ``(scenario_index, run_index)`` as
    ``run_campaign`` orders them. What the reader rejects raises
    ``MalformedTrace`` naming the file, and the line where there is one.
    """
    keyed: list[tuple[tuple[int, int], RunSummary]] = []
    for key, meta, termination, thresholds, records in \
            _verified_runs(traces_dir):
        keyed.append((key, RunSummary.failed_run(
            meta["scenario_id"], meta["seed"], meta["error"])
            if records is None else metrics.summarize_run(
                records, termination, thresholds, meta["dt"],
                scenario_id=meta["scenario_id"], seed=meta["seed"])))
    keyed.sort(key=lambda item: item[0])
    return metrics.summarize_campaign([summary for _, summary in keyed])


__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "reaggregate_from_traces",
    "run_campaign",
]
