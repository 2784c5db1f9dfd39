"""Dependability metrics: per-tick records, run/campaign aggregation,
JSON Lines traces, and Table-style report rendering.

Wall-clock role timings ride along in each record but are excluded from
the determinism hash and golden-trace comparisons; everything else in a
record is a pure function of (scenario, seed, options).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Optional, Union

from .performance import PerfFlags, PerfThresholds
from .state import (
    GroundTruthWorld,
    Maneuver,
    MissingMandatoryOutput,
    Verdict,
    VerdictLevel,
)


class TerminationStatus(str, Enum):
    RUNNING = "running"
    CLEARED = "cleared"
    COLLISION = "collision"
    TIMEOUT = "timeout"
    HALT_ON_VIOLATION = "halt_on_violation"


class EmptyTrace(Exception):
    """summarize_run requires at least one record."""


class MalformedTrace(Exception):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class IterationRecord:
    tick: int
    sim_time_s: float
    ego_position: tuple[float, float]
    ego_velocity: tuple[float, float]
    ego_accel_mps2: float
    proposed_maneuver: str
    rationale: str
    verdict_level: str
    min_predicted_separation: float
    time_of_min_s: float
    offending_object: Optional[int]
    active_fault: Optional[str]
    accel_violation: bool
    jerk_violation: bool
    clearance_exceeded: bool
    final_maneuver: str
    recovery_active: bool
    collision: bool
    role_timings_ns: dict[str, int] = field(default_factory=dict)


# Fields hashed / compared for determinism; role_timings_ns is the one
# non-deterministic channel.
DETERMINISTIC_FIELDS = tuple(
    f for f in IterationRecord.__dataclass_fields__ if f != "role_timings_ns")


def finalize_tick(tick: int, world: GroundTruthWorld,
                  proposal: Optional[Maneuver], rationale: str,
                  verdict: Verdict, flags: PerfFlags,
                  final: Optional[Maneuver], active_fault: Optional[str],
                  accel: float,
                  timings_ns: Optional[dict[str, int]] = None) -> IterationRecord:
    """Assemble tick ``tick``'s record from the role outputs and the world
    the action phase stepped to."""
    if proposal is None or final is None:
        raise MissingMandatoryOutput(
            "generator proposal and final maneuver are mandatory")
    ego = world.ego
    return IterationRecord(
        tick=tick,
        sim_time_s=round(tick * world.clock.dt, 9),
        ego_position=tuple(ego.position.tolist()),
        ego_velocity=tuple(ego.velocity.tolist()),
        ego_accel_mps2=float(accel),
        proposed_maneuver=proposal.value,
        rationale=rationale,
        verdict_level=verdict.level.value,
        min_predicted_separation=verdict.min_predicted_separation,
        time_of_min_s=verdict.time_of_min,
        offending_object=verdict.offending_object,
        active_fault=active_fault,
        accel_violation=flags.accel_violation,
        jerk_violation=flags.jerk_violation,
        clearance_exceeded=flags.clearance_exceeded,
        final_maneuver=final.value,
        recovery_active=final == Maneuver.EMERGENCY_BRAKE,
        collision=world.collision is not None,
        role_timings_ns=dict(timings_ns or {}),
    )


# --- trace codec ----------------------------------------------------------

# Built once: json.dumps with any non-default option builds a new
# encoder on every call.
_LINE_ENCODER = json.JSONEncoder(allow_nan=False)
_HASH_ENCODER = json.JSONEncoder(allow_nan=False, sort_keys=True)


def record_to_json_dict(record: IterationRecord) -> dict:
    """The record's fields in declaration order, ready for json.dumps.

    Every field but ``role_timings_ns`` is an immutable scalar or a
    tuple of floats, so a shallow copy is as safe as a deep one; the
    timings dict is copied so the result never aliases the record.
    """
    d = dict(vars(record))
    if math.isinf(d["min_predicted_separation"]):
        d["min_predicted_separation"] = "inf"
    d["ego_position"] = list(d["ego_position"])
    d["ego_velocity"] = list(d["ego_velocity"])
    d["role_timings_ns"] = dict(d["role_timings_ns"])
    return d


def record_from_json_dict(d: dict) -> IterationRecord:
    d = dict(d)
    if d["min_predicted_separation"] == "inf":
        d["min_predicted_separation"] = math.inf
    d["ego_position"] = tuple(d["ego_position"])
    d["ego_velocity"] = tuple(d["ego_velocity"])
    d["role_timings_ns"] = dict(d.get("role_timings_ns", {}))
    return IterationRecord(**d)


def write_trace(records: list[IterationRecord],
                destination: Union[str, IO[str]]) -> None:
    """JSON Lines, one record per line, UTF-8, no NaN on the wire."""
    def dump(fh: IO[str]) -> None:
        for record in records:
            fh.write(_LINE_ENCODER.encode(record_to_json_dict(record)) + "\n")

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            dump(fh)
    else:
        dump(destination)


def read_trace(source: Union[str, IO[str]]) -> list[IterationRecord]:
    def load(fh: IO[str]) -> list[IterationRecord]:
        records = []
        for number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(record_from_json_dict(json.loads(stripped)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedTrace(number, str(exc)) from exc
        return records

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load(fh)
    return load(source)


def trace_hash(records: list[IterationRecord]) -> str:
    """SHA-256 over the deterministic record fields only."""
    h = hashlib.sha256()
    for record in records:
        d = record_to_json_dict(record)
        d.pop("role_timings_ns")
        h.update(_HASH_ENCODER.encode(d).encode("utf-8"))
    return h.hexdigest()


# --- run aggregation ------------------------------------------------------

@dataclass
class RunSummary:
    scenario_id: str
    seed: int
    termination: TerminationStatus
    any_unsafe_flag: bool
    unsafe_tick_count: int
    collision: bool
    clearance_time_s: Optional[float]
    max_abs_accel: float
    max_abs_jerk: float
    max_abs_jerk_nonexempt: float
    comfort_violations: int          # outside recovery braking
    comfort_violations_exempt: int   # during recovery braking
    faults_injected: dict[str, int]
    recovery_activations: int
    recovery_successes: int
    failed: bool = False
    error: Optional[str] = None

    @classmethod
    def failed_run(cls, scenario_id: str, seed: int,
                   error: Optional[str]) -> "RunSummary":
        """The summary of a run that raised: failed, with every count 0."""
        return cls(
            scenario_id=scenario_id, seed=seed,
            termination=TerminationStatus.RUNNING,
            any_unsafe_flag=False, unsafe_tick_count=0, collision=False,
            clearance_time_s=None, max_abs_accel=0.0, max_abs_jerk=0.0,
            max_abs_jerk_nonexempt=0.0, comfort_violations=0,
            comfort_violations_exempt=0, faults_injected={},
            recovery_activations=0, recovery_successes=0,
            failed=True, error=error)


def _recovery_episodes(records: list[IterationRecord]) -> tuple[int, int]:
    """(activations, successes). An episode is a maximal run of
    recovery-active ticks; it succeeds if no collision happens before the
    next episode starts (or the run ends)."""
    starts = [i for i, r in enumerate(records)
              if r.recovery_active and (i == 0 or not records[i - 1].recovery_active)]
    successes = 0
    for n, start in enumerate(starts):
        end = starts[n + 1] if n + 1 < len(starts) else len(records)
        if not any(r.collision for r in records[start:end]):
            successes += 1
    return len(starts), successes


def _fault_activations(records: list[IterationRecord]) -> dict[str, int]:
    counts: dict[str, int] = {}
    previous: set[str] = set()
    for record in records:
        current = set(record.active_fault.split("+")) if record.active_fault else set()
        for kind in sorted(current - previous):
            counts[kind] = counts.get(kind, 0) + 1
        previous = current
    return counts


def summarize_run(records: list[IterationRecord],
                  termination: TerminationStatus,
                  thresholds: PerfThresholds = PerfThresholds(),
                  dt: float = 0.1,
                  scenario_id: str = "", seed: int = 0) -> RunSummary:
    if not records:
        raise EmptyTrace("run produced no records")
    unsafe = [r for r in records if r.verdict_level == VerdictLevel.UNSAFE.value]
    collision = any(r.collision for r in records)

    max_accel = max(abs(r.ego_accel_mps2) for r in records)
    jerks = [abs(records[i].ego_accel_mps2 - records[i - 1].ego_accel_mps2) / dt
             for i in range(1, len(records))]
    max_jerk = max(jerks, default=0.0)
    max_jerk_nonexempt = max(
        (j for i, j in enumerate(jerks, start=1) if not records[i].recovery_active),
        default=0.0)

    violations = violations_exempt = 0
    for i, record in enumerate(records):
        violated = abs(record.ego_accel_mps2) > thresholds.max_abs_accel
        if i >= 1 and jerks[i - 1] > thresholds.max_abs_jerk:
            violated = True
        if violated:
            if record.recovery_active:
                violations_exempt += 1
            else:
                violations += 1

    activations, successes = _recovery_episodes(records)
    cleared = termination == TerminationStatus.CLEARED
    clearance = round(records[-1].sim_time_s + dt, 9) if cleared else None
    return RunSummary(
        scenario_id=scenario_id, seed=seed, termination=termination,
        any_unsafe_flag=bool(unsafe), unsafe_tick_count=len(unsafe),
        collision=collision, clearance_time_s=clearance,
        max_abs_accel=max_accel, max_abs_jerk=max_jerk,
        max_abs_jerk_nonexempt=max_jerk_nonexempt,
        comfort_violations=violations,
        comfort_violations_exempt=violations_exempt,
        faults_injected=_fault_activations(records),
        recovery_activations=activations, recovery_successes=successes,
    )


# --- campaign aggregation -------------------------------------------------

def pct(k: int, n: int) -> float:
    """Percentage to one decimal: round(1000k/n)/10, half away from zero."""
    if n == 0:
        return 0.0
    return math.floor(1000.0 * k / n + 0.5) / 10.0


@dataclass
class ScenarioRow:
    scenario: str
    runs: int
    failed: int
    pct_runs_with_unsafe_flag: float
    pct_runs_with_collision: float
    clearance_mean_s: Optional[float]
    clearance_std_s: Optional[float]
    gridlock_count: int


@dataclass
class CampaignSummary:
    rows: list[ScenarioRow]
    overall_pct_unsafe_flag: float
    overall_pct_collision: float


def summarize_campaign(runs: list[RunSummary]) -> CampaignSummary:
    """Per-scenario rows in first-seen order, plus a mean-of-percentages
    overall row (matching the Overall Avg. convention)."""
    order: list[str] = []
    grouped: dict[str, list[RunSummary]] = {}
    for run in runs:
        if run.scenario_id not in grouped:
            grouped[run.scenario_id] = []
            order.append(run.scenario_id)
        grouped[run.scenario_id].append(run)

    rows = []
    for scenario in order:
        group = grouped[scenario]
        completed = [r for r in group if not r.failed]
        n = len(completed)
        clearances = [r.clearance_time_s for r in completed
                      if r.clearance_time_s is not None]
        mean = statistics.fmean(clearances) if clearances else None
        std = (statistics.stdev(clearances) if len(clearances) > 1
               else (0.0 if clearances else None))
        rows.append(ScenarioRow(
            scenario=scenario, runs=n, failed=len(group) - n,
            pct_runs_with_unsafe_flag=pct(sum(r.any_unsafe_flag for r in completed), n),
            pct_runs_with_collision=pct(sum(r.collision for r in completed), n),
            clearance_mean_s=mean, clearance_std_s=std,
            gridlock_count=sum(r.termination == TerminationStatus.TIMEOUT
                               for r in completed),
        ))
    if rows:
        overall_unsafe = statistics.fmean(r.pct_runs_with_unsafe_flag for r in rows)
        overall_collision = statistics.fmean(r.pct_runs_with_collision for r in rows)
    else:
        overall_unsafe = overall_collision = 0.0
    return CampaignSummary(rows=rows,
                           overall_pct_unsafe_flag=round(overall_unsafe, 1),
                           overall_pct_collision=round(overall_collision, 1))


# --- report rendering -----------------------------------------------------

_CSV_HEADER = ("scenario,runs,pct_unsafe_flag,pct_collision,"
               "clearance_mean_s,clearance_std_s,gridlocks,failed")


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def render_report(campaign: CampaignSummary, format: str = "csv") -> str:
    if format not in ("csv", "md"):
        raise ValueError(f"unknown report format: {format!r}")
    if format == "csv":
        lines = [_CSV_HEADER]
        for row in campaign.rows:
            lines.append(
                f"{row.scenario},{row.runs},{row.pct_runs_with_unsafe_flag:.1f},"
                f"{row.pct_runs_with_collision:.1f},{_fmt(row.clearance_mean_s)},"
                f"{_fmt(row.clearance_std_s)},{row.gridlock_count},{row.failed}")
        return "\n".join(lines) + "\n"

    header = ("| Scenario | Runs | Unsafe Flag (%) | Collision (%) | "
              "Clearance Mean (s) | Clearance Std (s) | Gridlocks | Failed |")
    divider = "|---|---|---|---|---|---|---|---|"
    lines = [header, divider]
    for row in campaign.rows:
        lines.append(
            f"| {row.scenario} | {row.runs} | {row.pct_runs_with_unsafe_flag:.1f} "
            f"| {row.pct_runs_with_collision:.1f} | {_fmt(row.clearance_mean_s)} "
            f"| {_fmt(row.clearance_std_s)} | {row.gridlock_count} | {row.failed} |")
    if campaign.rows:
        lines.append(
            f"| **Overall Avg.** |  | {campaign.overall_pct_unsafe_flag:.1f} "
            f"| {campaign.overall_pct_collision:.1f} |  |  |  |  |")
    return "\n".join(lines) + "\n"


__all__ = [
    "CampaignSummary",
    "DETERMINISTIC_FIELDS",
    "EmptyTrace",
    "IterationRecord",
    "MalformedTrace",
    "RunSummary",
    "ScenarioRow",
    "TerminationStatus",
    "finalize_tick",
    "pct",
    "read_trace",
    "record_from_json_dict",
    "record_to_json_dict",
    "render_report",
    "summarize_campaign",
    "summarize_run",
    "trace_hash",
    "write_trace",
]
