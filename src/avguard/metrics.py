"""Dependability metrics: per-tick records, run/campaign aggregation,
JSON Lines traces, and Table-style report rendering.

Every field of a record is a pure function of (scenario, seed, options),
so a trace's bytes are too; wall-clock role timings live in the run's
sidecar, not in the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _string
from typing import IO, Iterable, Iterator, Optional, Union

from .config import FaultKind, PerfThresholds, SimParams
from .performance import PerfFlags
from .state import (
    EMERGENCY_BRAKE,
    UNSAFE,
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
_UNSAFE = UNSAFE._value_  # a record's verdict_level is the plain string


class EmptyTrace(Exception):
    """summarize_run requires at least one record."""


class MalformedTrace(Exception):
    """A trace line that does not decode (``line_number`` set), or a
    file at fault, named in the message (``line_number`` None)."""

    def __init__(self, line_number: Optional[int], message: str):
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class IterationRecord:
    """One tick of a run, as one line of its trace records it."""

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
_float_repr = float.__repr__  # bound once: a record holds eight floats


def _integer(value: int) -> str:
    if value.__class__ is bool:
        raise TypeError("expected an int, not bool")
    return int.__repr__(value)  # TypeError for a non-int


def _reject_non_bool(flags: tuple) -> None:
    """Raise ``TypeError`` for the first flag that is not a bool."""
    for value in flags:
        if value.__class__ is not bool:
            raise TypeError(f"expected a bool, not {type(value).__name__}")


def _reject_non_finite(floats: tuple) -> None:
    """Raise ``ValueError`` for the first float that is NaN or an
    infinity."""
    for x in floats:
        text = _float_repr(x)
        if text[-1] in "nf":  # nan, inf, -inf; a finite repr ends in a digit
            raise ValueError(f"out of range float value in a record: {text}")


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
    accel_v, clearance_x, collided, jerk_v, recovering = (
        r.accel_violation, r.clearance_exceeded, r.collision,
        r.jerk_violation, r.recovery_active)
    if not (accel_v.__class__ is clearance_x.__class__ is collided.__class__
            is jerk_v.__class__ is recovering.__class__ is bool):
        _reject_non_bool((accel_v, clearance_x, collided, jerk_v, recovering))
    px, py = r.ego_position
    vx, vy = r.ego_velocity
    accel, sim_time, time_of_min = (r.ego_accel_mps2, r.sim_time_s,
                                    r.time_of_min_s)
    separation = r.min_predicted_separation
    no_object = separation == math.inf
    obj, fault = r.offending_object, r.active_fault
    # float.__repr__ raises TypeError for anything but a float.
    line = (
        f'{{"accel_violation": {"true" if accel_v else "false"}, '
        f'"active_fault": {"null" if fault is None else _string(fault)}, '
        f'"clearance_exceeded": {"true" if clearance_x else "false"}, '
        f'"collision": {"true" if collided else "false"}, '
        f'"ego_accel_mps2": {_float_repr(accel)}, '
        f'"ego_position": [{_float_repr(px)}, {_float_repr(py)}], '
        f'"ego_velocity": [{_float_repr(vx)}, {_float_repr(vy)}], '
        f'"final_maneuver": {_string(r.final_maneuver)}, '
        f'"jerk_violation": {"true" if jerk_v else "false"}, '
        f'"min_predicted_separation": '
        f'{_INF if no_object else _float_repr(separation)}, '
        f'"offending_object": {"null" if obj is None else _integer(obj)}, '
        f'"proposed_maneuver": {_string(r.proposed_maneuver)}, '
        f'"rationale": {_string(r.rationale)}, '
        f'"recovery_active": {"true" if recovering else "false"}, '
        f'"sim_time_s": {_float_repr(sim_time)}, '
        f'"tick": {_integer(r.tick)}, '
        f'"time_of_min_s": {_float_repr(time_of_min)}, '
        f'"verdict_level": {_string(r.verdict_level)}}}'
    )
    # Every float is one now. x * 0.0 is a zero, which is false, for a
    # finite x, and NaN, which is true, for NaN or an infinity.
    if (accel * 0.0 + px * 0.0 + py * 0.0 + vx * 0.0 + vy * 0.0
            + sim_time * 0.0 + time_of_min * 0.0
            or not no_object and separation * 0.0):
        _reject_non_finite((accel, px, py, vx, vy, sim_time, time_of_min,
                            0.0 if no_object else separation))
    return line


# The words of each enum field. Tuples, not sets: an unhashable value,
# such as a list, is then not found instead of raising TypeError.
_MANEUVERS = tuple(m._value_ for m in Maneuver)
_WORDS = (("verdict_level", tuple(v._value_ for v in VerdictLevel)),
          ("proposed_maneuver", _MANEUVERS), ("final_maneuver", _MANEUVERS),
          ("active_fault", (None, *(k._value_ for k in FaultKind))))


def _unwritten(d: dict, field: str, expected: str) -> ValueError:
    return ValueError(f"{field} {json.dumps(d[field], default=repr)}, "
                      f"expected {expected}")


def record_from_json_dict(d: dict) -> IterationRecord:
    """The record of a decoded trace line; ``d`` is taken over, not
    copied, as ``json.loads`` hands each line a fresh dict. A value no
    run's trace holds raises ``ValueError`` naming its field: a float
    must be a finite ``float`` (the separation may be ``"inf"``), a flag
    a ``bool``, ``tick`` and a non-null ``offending_object`` an ``int``,
    ``rationale`` a ``str``, and an enum field one of its words
    (``active_fault`` may be null)."""
    # For a float x, x - x is 0.0, which is false, when x is finite, and
    # NaN, which is true, when x is NaN or an infinity.
    for field in ("ego_accel_mps2", "sim_time_s", "time_of_min_s"):
        x = d[field]
        if x.__class__ is not float or x - x:
            raise _unwritten(d, field, "a finite float")
    for field in ("ego_position", "ego_velocity"):
        pair = d[field]
        if not (pair.__class__ is list and len(pair) == 2
                and pair[0].__class__ is pair[1].__class__ is float
                and not (pair[0] - pair[0] or pair[1] - pair[1])):
            raise _unwritten(d, field, "two finite floats")
        d[field] = tuple(pair)
    x = d["min_predicted_separation"]
    if x == "inf":
        d["min_predicted_separation"] = math.inf
    elif x.__class__ is not float or x - x:
        raise _unwritten(d, "min_predicted_separation",
                         'a finite float or "inf"')
    for field in ("accel_violation", "clearance_exceeded", "collision",
                  "jerk_violation", "recovery_active"):
        if d[field].__class__ is not bool:
            raise _unwritten(d, field, "true or false")
    if d["tick"].__class__ is not int:
        raise _unwritten(d, "tick", "an integer")
    obj = d["offending_object"]
    if obj is not None and obj.__class__ is not int:
        raise _unwritten(d, "offending_object", "an integer or null")
    if d["rationale"].__class__ is not str:
        raise _unwritten(d, "rationale", "a string")
    for field, words in _WORDS:
        if d[field] not in words:
            raise _unwritten(d, field, f"one of {json.dumps(words)}")
    return IterationRecord(**d)


def _encoded_lines(records: list[IterationRecord]):
    """Each record's trace line as UTF-8 bytes, without its newline."""
    return (encode_record(record).encode("utf-8") for record in records)


def _digest(lines) -> str:
    """The sha256 of the concatenated ``lines``, in hex."""
    import hashlib  # loaded by the first trace, not by ``import avguard``

    h = hashlib.sha256()
    for line in lines:
        h.update(line)
    return h.hexdigest()


def write_trace(records: list[IterationRecord],
                destination: Union[str, IO[str]]) -> str:
    """Write JSON Lines, one record per line, UTF-8; return the trace's
    ``trace_hash``, the sha256 of the written bytes without the newlines.

    Each record is encoded once, to bytes, for both the file and the
    digest. A path gets the whole trace in one binary write, so no
    platform's newline translation can change its bytes; a text stream
    gets the same text.
    """
    # The empty last line adds the last newline and nothing to the digest.
    lines = [*_encoded_lines(records), b""]
    data = b"\n".join(lines)
    if isinstance(destination, str):
        with open(destination, "wb") as fh:
            fh.write(data)
    else:
        destination.write(data.decode("utf-8"))
    return _digest(lines)


def _decoded_lines(lines: Iterable[str]
                   ) -> Iterator[tuple[int, IterationRecord]]:
    """Each record of ``lines`` with its 1-based line number, decoded as
    it is reached; a blank line is no record. A line that does not
    decode raises ``MalformedTrace`` naming it."""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = record_from_json_dict(json.loads(stripped))
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedTrace(number, str(exc)) from exc
        yield number, record


def read_trace(source: Union[str, IO[str]]) -> list[IterationRecord]:
    """Every record of a JSON Lines trace, in line order: ``source`` is a
    path, read as UTF-8, or an open text stream. Blank lines are
    skipped. A line that is not a record (``record_from_json_dict``)
    raises ``MalformedTrace`` naming the line. Sidecars and hashes are
    the campaign reader's to check, ``campaign._verified_runs``."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return [record for _, record in _decoded_lines(fh)]
    return [record for _, record in _decoded_lines(source)]


def trace_hash(records: list[IterationRecord]) -> str:
    """SHA-256 over the records' trace lines, newlines left out: the
    digest ``write_trace`` returns for the same records. The lines are
    digested as they are encoded, so no whole trace is held."""
    return _digest(_encoded_lines(records))


# --- run aggregation ------------------------------------------------------

@dataclass
class RunSummary:
    """One run's dependability figures, from one pass over its records; a
    failed run has every count 0."""

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


def summarize_run(records: Iterable[IterationRecord],
                  termination: TerminationStatus,
                  thresholds: PerfThresholds = PerfThresholds(),
                  dt: float = SimParams.dt,
                  scenario_id: str = "", seed: int = 0) -> RunSummary:
    """The run's summary, in one pass over its records, which may be any
    iterable, a one-shot iterator too. ``dt`` must be > 0 and every
    acceleration finite: the trace encoder requires it, and the decoder
    checks it. Only the record in hand is held, so a stream is
    summarized as it is read. No record at all raises ``EmptyTrace``.

    The jerk of record i >= 1 is ``|a_i - a_(i-1)| / dt``. A record
    violates comfort when its acceleration or jerk exceeds its
    threshold; it counts as exempt when recovery was braking. A recovery
    episode is a maximal run of recovery-active ticks; it succeeds if no
    collision happens before the next episode starts (or the run ends).
    A fault kind counts on each record whose non-empty ``active_fault``,
    the kind of its one active directive, differs from the last one's.
    """
    accel_limit = thresholds.max_abs_accel
    jerk_limit = thresholds.max_abs_jerk
    unsafe = violations = violations_exempt = 0
    activations = successes = 0
    collision = episode_collided = recovering = False
    faults: dict[str, int] = {}
    fault = None
    max_accel = max_jerk = max_jerk_nonexempt = 0.0
    last_accel = r = None  # r is the last record once the loop ends
    for r in records:
        if r.verdict_level == _UNSAFE:
            unsafe += 1
        accel = r.ego_accel_mps2
        magnitude = abs(accel)
        if magnitude > max_accel:
            max_accel = magnitude
        violated = magnitude > accel_limit
        active = r.recovery_active
        if last_accel is not None:
            jerk = abs(accel - last_accel) / dt
            if jerk > max_jerk:
                max_jerk = jerk
            if not active and jerk > max_jerk_nonexempt:
                max_jerk_nonexempt = jerk
            if jerk > jerk_limit:
                violated = True
        last_accel = accel
        if violated:
            if active:
                violations_exempt += 1
            else:
                violations += 1
        if active and not recovering:  # an episode starts
            if activations and not episode_collided:
                successes += 1
            activations += 1
            episode_collided = False
        recovering = active
        if r.collision:
            collision = episode_collided = True
        if r.active_fault != fault:
            fault = r.active_fault
            if fault:
                faults[fault] = faults.get(fault, 0) + 1
    if r is None:
        raise EmptyTrace("run produced no records")
    if activations and not episode_collided:
        successes += 1

    cleared = termination == CLEARED
    clearance = round(r.sim_time_s + dt, 9) if cleared else None
    return RunSummary(
        scenario_id=scenario_id, seed=seed, termination=termination,
        any_unsafe_flag=unsafe > 0, unsafe_tick_count=unsafe,
        collision=collision, clearance_time_s=clearance,
        max_abs_accel=max_accel, max_abs_jerk=max_jerk,
        max_abs_jerk_nonexempt=max_jerk_nonexempt,
        comfort_violations=violations,
        comfort_violations_exempt=violations_exempt,
        faults_injected=faults,
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
    """One scenario's row of the report, over the scenario's completed runs."""

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
    """The report's per-scenario rows and the mean of their percentages."""

    rows: list[ScenarioRow]
    overall_pct_unsafe_flag: float
    overall_pct_collision: float


def summarize_campaign(runs: list[RunSummary]) -> CampaignSummary:
    """Per-scenario rows in first-seen order, plus a mean-of-percentages
    overall row (matching the Overall Avg. convention)."""
    import statistics  # loaded by the first summary, not by ``import avguard``

    grouped: dict[str, list[RunSummary]] = {}
    for run in runs:
        grouped.setdefault(run.scenario_id, []).append(run)

    rows = []
    for scenario, group in grouped.items():
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
    cells = [(row.scenario, str(row.runs),
              f"{row.pct_runs_with_unsafe_flag:.1f}",
              f"{row.pct_runs_with_collision:.1f}",
              _fmt(row.clearance_mean_s), _fmt(row.clearance_std_s),
              str(row.gridlock_count), str(row.failed))
             for row in campaign.rows]
    if format == "csv":
        lines = [_CSV_HEADER, *map(",".join, cells)]
        return "\n".join(lines) + "\n"

    header = ("| Scenario | Runs | Unsafe Flag (%) | Collision (%) | "
              "Clearance Mean (s) | Clearance Std (s) | Gridlocks | Failed |")
    divider = "|---|---|---|---|---|---|---|---|"
    lines = [header, divider, *(f"| {' | '.join(row)} |" for row in cells)]
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
    "read_trace",
    "render_report",
    "summarize_campaign",
    "summarize_run",
    "trace_hash",
    "write_trace",
]
