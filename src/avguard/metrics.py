"""Dependability metrics: per-tick records, run/campaign aggregation,
JSON Lines traces, and Table-style report rendering.

Every field of a record is a pure function of (scenario, seed, options),
so a trace's bytes are too; wall-clock role timings live in the run's
sidecar, not in the trace.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _string
from typing import IO, Optional, Union

from .performance import PerfFlags, PerfThresholds
from .state import (
    EMERGENCY_BRAKE,
    GroundTruthWorld,
    Maneuver,
    Verdict,
    VerdictLevel,
)


class TerminationStatus(str, Enum):
    RUNNING = "running"
    CLEARED = "cleared"
    COLLISION = "collision"
    TIMEOUT = "timeout"
    HALT_ON_VIOLATION = "halt_on_violation"


# Members as globals for the tick: a class lookup runs EnumType.__getattr__,
# about 110 ns on Python 3.10 and 3.11 (28 ns on 3.12) against 8 ns.
RUNNING, CLEARED, COLLISION, TIMEOUT, HALT_ON_VIOLATION = TerminationStatus


class EmptyTrace(Exception):
    """summarize_run requires at least one record."""


class MalformedTrace(Exception):
    """A trace line that does not decode (``line_number`` set), or a
    trace that disagrees with its sidecar (``line_number`` None)."""

    def __init__(self, line_number: Optional[int], message: str):
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
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


def finalize_tick(tick: int, world: GroundTruthWorld,
                  proposal: Maneuver, rationale: str,
                  verdict: Verdict, flags: PerfFlags,
                  final: Maneuver, active_fault: Optional[str],
                  accel: float) -> IterationRecord:
    """Assemble tick ``tick``'s record from the role outputs and the world
    the action phase stepped to."""
    ego = world.ego
    # An enum's _value_ is its value without the .value descriptor.
    return IterationRecord(
        tick, round(tick * world.clock.dt, 9), ego.position, ego.velocity,
        float(accel), proposal._value_, rationale, verdict.level._value_,
        verdict.min_predicted_separation, verdict.time_of_min,
        verdict.offending_object, active_fault, flags.accel_violation,
        flags.jerk_violation, flags.clearance_exceeded, final._value_,
        final == EMERGENCY_BRAKE, world.collision is not None)


# --- trace codec ----------------------------------------------------------

_INF = '"inf"'  # the separation of a tick with no perceived object
_float_repr = float.__repr__  # bound once: a record holds nine floats


def _number(x: float) -> str:
    """A finite float as JSON: its repr. ``TypeError`` for a non-float,
    ``ValueError`` for NaN or an infinity."""
    text = _float_repr(x)
    if text[-1] in "nf":  # nan, inf, -inf; a finite repr ends in a digit
        raise ValueError(f"out of range float value in a record: {text}")
    return text


def _flag(value: bool) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"expected a bool, not {type(value).__name__}")


def _integer(value: int) -> str:
    if value.__class__ is bool:
        raise TypeError("expected an int, not bool")
    return int.__repr__(value)  # TypeError for a non-int


def encode_record(record: IterationRecord) -> str:
    """The record's trace line, without its newline.

    The bytes are those of ``json`` with sorted keys, ``", "`` and
    ``": "`` separators and ASCII escapes, built in one pass over the
    fields. A ``+inf`` separation (no object perceived) is written as
    the string ``"inf"``. Any other NaN or infinity raises
    ``ValueError``, and a field of the wrong type raises ``TypeError``.
    The line is both what ``write_trace`` writes and what ``trace_hash``
    digests.
    """
    r = record
    px, py = r.ego_position
    vx, vy = r.ego_velocity
    separation = r.min_predicted_separation
    obj = r.offending_object
    fault = r.active_fault
    return (
        f'{{"accel_violation": {_flag(r.accel_violation)}, '
        f'"active_fault": {"null" if fault is None else _string(fault)}, '
        f'"clearance_exceeded": {_flag(r.clearance_exceeded)}, '
        f'"collision": {_flag(r.collision)}, '
        f'"ego_accel_mps2": {_number(r.ego_accel_mps2)}, '
        f'"ego_position": [{_number(px)}, {_number(py)}], '
        f'"ego_velocity": [{_number(vx)}, {_number(vy)}], '
        f'"final_maneuver": {_string(r.final_maneuver)}, '
        f'"jerk_violation": {_flag(r.jerk_violation)}, '
        f'"min_predicted_separation": '
        f'{_INF if separation == math.inf else _number(separation)}, '
        f'"offending_object": {"null" if obj is None else _integer(obj)}, '
        f'"proposed_maneuver": {_string(r.proposed_maneuver)}, '
        f'"rationale": {_string(r.rationale)}, '
        f'"recovery_active": {_flag(r.recovery_active)}, '
        f'"sim_time_s": {_number(r.sim_time_s)}, '
        f'"tick": {_integer(r.tick)}, '
        f'"time_of_min_s": {_number(r.time_of_min_s)}, '
        f'"verdict_level": {_string(r.verdict_level)}}}'
    )


def record_from_json_dict(d: dict) -> IterationRecord:
    d = dict(d)
    if d["min_predicted_separation"] == "inf":
        d["min_predicted_separation"] = math.inf
    d["ego_position"] = tuple(d["ego_position"])
    d["ego_velocity"] = tuple(d["ego_velocity"])
    return IterationRecord(**d)


def write_trace(records: list[IterationRecord],
                destination: Union[str, IO[str]]) -> str:
    """Write JSON Lines, one record per line, UTF-8; return the trace's
    ``trace_hash``, the sha256 of the written bytes without the newlines.

    Each record is encoded once, for both the file and the digest.
    """
    h = hashlib.sha256()

    def dump(fh: IO[str]) -> None:
        for record in records:
            line = encode_record(record)
            h.update(line.encode("utf-8"))
            fh.write(line + "\n")

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            dump(fh)
    else:
        dump(destination)
    return h.hexdigest()


def read_trace(source: Union[str, IO[str]]) -> list[IterationRecord]:
    def load(fh: IO[str]) -> list[IterationRecord]:
        records = []
        for number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(record_from_json_dict(json.loads(stripped)))
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedTrace(number, str(exc)) from exc
        return records

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load(fh)
    return load(source)


def trace_hash(records: list[IterationRecord]) -> str:
    """SHA-256 over the records' trace lines, newlines left out: the
    digest ``write_trace`` returns for the same records."""
    h = hashlib.sha256()
    for record in records:
        h.update(encode_record(record).encode("utf-8"))
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
    "EmptyTrace",
    "IterationRecord",
    "MalformedTrace",
    "RunSummary",
    "ScenarioRow",
    "TerminationStatus",
    "encode_record",
    "finalize_tick",
    "pct",
    "read_trace",
    "record_from_json_dict",
    "render_report",
    "summarize_campaign",
    "summarize_run",
    "trace_hash",
    "write_trace",
]
