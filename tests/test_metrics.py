"""Trace codec, per-run summarization, campaign aggregation, reports."""

import dataclasses
import hashlib
import io
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avguard.config import FaultKind, PerfThresholds
from avguard.metrics import (
    EmptyTrace,
    IterationRecord,
    MalformedTrace,
    RunSummary,
    TerminationStatus,
    encode_record,
    pct,
    read_trace,
    record_from_json_dict,
    render_report,
    summarize_campaign,
    summarize_run,
    trace_hash,
    write_trace,
)
from avguard.orchestrator import RunOptions, run_scenario
from avguard.scenario import reference_specs
from avguard.seeding import stable_mix
from avguard.state import VerdictLevel

# The reference form of a trace line: the C JSONEncoder, sorted keys and
# no NaN, over the record's fields. It is how the codec encoded a record
# before encode_record, which must give its bytes on every record it
# accepts.
REFERENCE_ENCODER = json.JSONEncoder(allow_nan=False, sort_keys=True)


def record_to_json_dict(record):
    """The record's fields, ready for the reference encoder."""
    d = dict(vars(record))
    if math.isinf(d["min_predicted_separation"]):
        d["min_predicted_separation"] = "inf"
    d["ego_position"] = list(d["ego_position"])
    d["ego_velocity"] = list(d["ego_velocity"])
    return d


def reference_line(record):
    return REFERENCE_ENCODER.encode(record_to_json_dict(record))


MANEUVERS = ["wait", "yield", "proceed_cautiously", "proceed", "accelerate",
             "emergency_brake"]
LEVELS = ["safe", "warning", "unsafe"]


def random_record(rng, tick):
    recovery = rng.random() < 0.1
    return IterationRecord(
        tick=tick,
        sim_time_s=round(tick * 0.1, 9),
        ego_position=(rng.uniform(-50, 50), rng.uniform(-50, 50)),
        ego_velocity=(rng.uniform(-10, 10), rng.uniform(-10, 10)),
        ego_accel_mps2=rng.uniform(-8, 3),
        proposed_maneuver=rng.choice(MANEUVERS[:-1]),
        rationale=f"gap {rng.random():.3f}s — unicode ok",
        verdict_level=rng.choice(LEVELS),
        min_predicted_separation=(math.inf if rng.random() < 0.05
                                  else rng.uniform(-2, 50)),
        time_of_min_s=rng.uniform(0, 3),
        offending_object=rng.choice([None, 1, 2, 9001]),
        active_fault=rng.choice([None, "ghost_obstacle", "trajectory_spoof"]),
        accel_violation=rng.random() < 0.1,
        jerk_violation=rng.random() < 0.1,
        clearance_exceeded=rng.random() < 0.05,
        final_maneuver="emergency_brake" if recovery else rng.choice(
            MANEUVERS[:-1]),
        recovery_active=recovery,
        collision=False,
    )


def make_record(tick=0, **overrides):
    base = dict(
        tick=tick, sim_time_s=round(tick * 0.1, 9),
        ego_position=(2.5, -30.0), ego_velocity=(0.0, 8.0),
        ego_accel_mps2=0.0, proposed_maneuver="proceed", rationale="ok",
        verdict_level="safe", min_predicted_separation=10.0,
        time_of_min_s=0.0, offending_object=None, active_fault=None,
        accel_violation=False, jerk_violation=False,
        clearance_exceeded=False, final_maneuver="proceed",
        recovery_active=False, collision=False)
    base.update(overrides)
    return IterationRecord(**base)


class TestTraceCodec:
    def test_round_trip_identity_10000_records(self):
        rng = random.Random(99)
        records = [random_record(rng, i) for i in range(10000)]
        buffer = io.StringIO()
        write_trace(records, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert loaded == records

    def test_empty_round_trip(self):
        buffer = io.StringIO()
        write_trace([], buffer)
        assert buffer.getvalue() == ""
        buffer.seek(0)
        assert read_trace(buffer) == []

    def test_infinite_separation_encoding(self):
        record = make_record(min_predicted_separation=math.inf)
        buffer = io.StringIO()
        write_trace([record], buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["min_predicted_separation"] == "inf"
        buffer.seek(0)
        assert read_trace(buffer)[0].min_predicted_separation == math.inf

    def test_no_nan_on_the_wire(self):
        record = make_record(min_predicted_separation=float("nan"))
        with pytest.raises(ValueError):
            write_trace([record], io.StringIO())

    def test_malformed_line_number(self):
        buffer = io.StringIO()
        write_trace([make_record(0), make_record(1), make_record(2)], buffer)
        text = buffer.getvalue()
        truncated = text[: text.rindex('"verdict')]  # cut inside line 3
        with pytest.raises(MalformedTrace) as err:
            read_trace(io.StringIO(truncated))
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)

    def test_line_with_unknown_field_rejected(self):
        # A line that still carries role_timings_ns, as traces did before
        # the timings moved to the sidecar, is malformed.
        buffer = io.StringIO()
        write_trace([make_record(0)], buffer)
        line = json.loads(buffer.getvalue())
        line["role_timings_ns"] = {"generator": 41}
        with pytest.raises(MalformedTrace) as err:
            read_trace(io.StringIO(json.dumps(line) + "\n"))
        assert err.value.line_number == 1

    def test_line_that_is_a_json_string_rejected(self):
        # json.loads gives the str "ab", which record_from_json_dict
        # rejects with a bare TypeError: a str has no string keys.
        buffer = io.StringIO()
        write_trace([make_record(0)], buffer)
        with pytest.raises(MalformedTrace) as err:
            read_trace(io.StringIO(buffer.getvalue() + '"ab"\n'))
        assert err.value.line_number == 2

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(1)
        records = [random_record(rng, i) for i in range(25)]
        path = str(tmp_path / "trace.jsonl")
        write_trace(records, path)
        assert read_trace(path) == records


def asdict_json_dict(record):
    """Reference encoding: the deep copy made by dataclasses.asdict."""
    d = dataclasses.asdict(record)
    if math.isinf(d["min_predicted_separation"]):
        d["min_predicted_separation"] = "inf"
    d["ego_position"] = list(d["ego_position"])
    d["ego_velocity"] = list(d["ego_velocity"])
    return d


class TestRecordToJsonDict:
    EDGE_CASES = [
        make_record(min_predicted_separation=math.inf),
        make_record(offending_object=None, active_fault=None),
        make_record(offending_object=9000,
                    active_fault="ghost_obstacle+trajectory_spoof"),
        make_record(min_predicted_separation=-0.25, offending_object=3,
                    active_fault="trajectory_spoof"),
    ]

    @pytest.mark.parametrize("record", EDGE_CASES)
    def test_equals_asdict_encoding(self, record):
        d = record_to_json_dict(record)
        reference = asdict_json_dict(record)
        assert d == reference
        assert list(d) == list(reference)
        assert json.dumps(d) == json.dumps(reference)

    def test_equals_asdict_encoding_on_random_records(self):
        rng = random.Random(5)
        for tick in range(500):
            record = random_record(rng, tick)
            assert json.dumps(record_to_json_dict(record)) == json.dumps(
                asdict_json_dict(record))

    def test_result_does_not_alias_the_record(self):
        record = make_record()
        d = record_to_json_dict(record)
        d["ego_position"][0] = 99.0
        d["ego_velocity"][1] = 0.0
        assert record.ego_position == (2.5, -30.0)
        assert record.ego_velocity == (0.0, 8.0)


# Every finite float, with the edges pinned: signed zero, subnormals,
# and magnitudes from 1e16 up, where repr switches to exponent form.
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1e16, -1e16, 1.2345678901234567e17, 1e22,
                             1.7976931348623157e308, 0.1, 1e-7]))
# Any text, lone surrogates included, with JSON's escapes pinned.
TEXT = (st.text(st.characters(exclude_categories=()))
        | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\r\t\b\f",
                           "\u2028\u2029", "\ud800", "\udfff x", "é — ☃",
                           "\U0001f697", ""]))
RECORDS = st.builds(
    IterationRecord,
    tick=st.integers(min_value=0),
    sim_time_s=FINITE,
    ego_position=st.tuples(FINITE, FINITE),
    ego_velocity=st.tuples(FINITE, FINITE),
    ego_accel_mps2=FINITE,
    proposed_maneuver=TEXT,
    rationale=TEXT,
    verdict_level=TEXT,
    min_predicted_separation=FINITE | st.just(math.inf),
    time_of_min_s=FINITE,
    offending_object=st.none() | st.integers(),
    active_fault=st.none() | TEXT,
    accel_violation=st.booleans(),
    jerk_violation=st.booleans(),
    clearance_exceeded=st.booleans(),
    final_maneuver=TEXT,
    recovery_active=st.booleans(),
    collision=st.booleans(),
)

# Each float a record holds: (field, index into a 2-tuple field or None).
FLOAT_SLOTS = [("sim_time_s", None), ("ego_accel_mps2", None),
               ("min_predicted_separation", None), ("time_of_min_s", None),
               ("ego_position", 0), ("ego_position", 1),
               ("ego_velocity", 0), ("ego_velocity", 1)]
NON_FINITE = [(field, index, value) for field, index in FLOAT_SLOTS
              for value in (math.nan, math.inf, -math.inf)
              if (field, value) != ("min_predicted_separation", math.inf)]


def with_float(field, index, value):
    """make_record with ``value`` in a float field, or in one item of a
    2-tuple field."""
    if index is not None:
        pair = list(getattr(make_record(), field))
        pair[index] = value
        value = tuple(pair)
    return make_record(**{field: value})


class TestEncodeRecord:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(record=RECORDS)
    def test_matches_the_reference_encoder(self, record):
        assert encode_record(record) == reference_line(record)

    def test_matches_the_reference_on_random_records(self):
        rng = random.Random(11)
        for tick in range(2000):
            record = random_record(rng, tick)
            assert encode_record(record) == reference_line(record)

    @pytest.mark.parametrize("fixture", ["reference_campaign",
                                         "no_recovery_campaign"])
    def test_reencodes_every_reference_trace_line(self, fixture, request):
        # Every line of the base-seed-0 reference campaign, recovery on
        # and off: decoded, then encoded again, it is the same bytes.
        out_dir = request.getfixturevalue(fixture)[1]
        count = ticks = 0
        for path in sorted(pathlib.Path(out_dir).glob("*/*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = record_from_json_dict(json.loads(line))
                assert encode_record(record) == line == reference_line(record)
                count += 1
            ticks += json.loads(path.with_suffix(".run.json").read_text())["ticks"]
        assert count == ticks > 0

    @pytest.mark.parametrize("field, index, value", NON_FINITE)
    def test_nan_and_infinity_are_rejected(self, field, index, value):
        with pytest.raises(ValueError):
            encode_record(with_float(field, index, value))

    def test_infinite_separation_is_the_string_inf(self):
        line = encode_record(make_record(min_predicted_separation=math.inf))
        assert '"min_predicted_separation": "inf"' in line
        assert json.loads(line)["min_predicted_separation"] == "inf"

    def test_negative_infinite_separation_is_rejected(self):
        # A separation is |r| - radius; -inf would read back as +inf.
        with pytest.raises(ValueError):
            encode_record(make_record(min_predicted_separation=-math.inf))
        with pytest.raises(ValueError):
            write_trace([make_record(min_predicted_separation=-math.inf)],
                        io.StringIO())

    @pytest.mark.parametrize("field, value", [
        ("sim_time_s", 3),
        ("ego_accel_mps2", "1.0"),
        ("min_predicted_separation", 10),
        ("min_predicted_separation", None),
        ("time_of_min_s", True),
        ("ego_position", (2, -30.0)),
        ("ego_velocity", (0.0, "8")),
        ("tick", True),
        ("tick", 1.0),
        ("offending_object", 2.0),
        ("offending_object", False),
        ("accel_violation", 1),
        ("collision", None),
        ("recovery_active", "false"),
        ("proposed_maneuver", None),
        ("rationale", 7),
        ("active_fault", 0),
        ("verdict_level", b"safe"),
    ])
    def test_wrong_type_is_rejected(self, field, value):
        with pytest.raises(TypeError):
            encode_record(make_record(**{field: value}))

    def test_round_trip(self):
        rng = random.Random(13)
        for tick in range(500):
            record = random_record(rng, tick)
            assert record_from_json_dict(
                json.loads(encode_record(record))) == record

    def test_every_field_is_encoded(self):
        names = {f.name for f in dataclasses.fields(IterationRecord)}
        assert set(json.loads(encode_record(make_record()))) == names


class TestTraceHash:
    def test_is_the_sha256_of_the_written_lines(self, tmp_path):
        rng = random.Random(3)
        records = [random_record(rng, i) for i in range(50)]
        path = tmp_path / "trace.jsonl"
        digest = write_trace(records, str(path))
        assert digest == trace_hash(records)
        data = path.read_bytes()
        assert data.count(b"\n") == len(records)
        assert hashlib.sha256(data.replace(b"\n", b"")).hexdigest() == digest

    def test_empty_trace(self):
        assert write_trace([], io.StringIO()) == trace_hash([]) == (
            hashlib.sha256(b"").hexdigest())

    def test_sensitive_to_deterministic_fields(self):
        rng = random.Random(3)
        records = [random_record(rng, i) for i in range(10)]
        changed = records[:]
        changed[4] = make_record(4, final_maneuver="wait")
        assert trace_hash(records) != trace_hash(changed)


class TestPct:
    def test_law_round_1000k_over_n(self):
        for n in (1, 7, 15, 90):
            for k in range(n + 1):
                assert pct(k, n) == math.floor(1000.0 * k / n + 0.5) / 10.0

    def test_table_fixtures(self):
        assert pct(13, 15) == 86.7
        assert pct(1, 15) == 6.7
        assert pct(5, 15) == 33.3
        assert pct(2, 15) == 13.3
        assert pct(0, 15) == 0.0
        assert pct(15, 15) == 100.0

    def test_zero_denominator(self):
        assert pct(0, 0) == 0.0


class TestSummarizeRun:
    def test_empty_records_rejected(self):
        with pytest.raises(EmptyTrace):
            summarize_run([], TerminationStatus.CLEARED)

    def test_cleared_run_clearance_time(self):
        # 53 records (ticks 0..52) then Cleared: clearance is the sim
        # time reached after the last executed step, (52 + 1) * dt.
        records = [make_record(t) for t in range(53)]
        summary = summarize_run(records, TerminationStatus.CLEARED)
        assert summary.clearance_time_s == pytest.approx(5.3)
        assert not summary.any_unsafe_flag
        assert not summary.collision

    def test_collision_run_has_no_clearance(self):
        records = [make_record(t) for t in range(40)]
        records[-1] = make_record(39, collision=True)
        summary = summarize_run(records, TerminationStatus.COLLISION)
        assert summary.collision
        assert summary.clearance_time_s is None

    def test_unsafe_flag_counting(self):
        records = [make_record(0), make_record(1, verdict_level="unsafe"),
                   make_record(2, verdict_level="warning"),
                   make_record(3, verdict_level="unsafe")]
        summary = summarize_run(records, TerminationStatus.TIMEOUT)
        assert summary.any_unsafe_flag
        assert summary.unsafe_tick_count == 2

    def test_recovery_episode_success(self):
        records = [
            make_record(0),
            make_record(1, verdict_level="unsafe",
                        final_maneuver="emergency_brake",
                        recovery_active=True),
            make_record(2, verdict_level="unsafe",
                        final_maneuver="emergency_brake",
                        recovery_active=True),
            make_record(3),
        ]
        summary = summarize_run(records, TerminationStatus.CLEARED)
        assert summary.recovery_activations == 1
        assert summary.recovery_successes == 1

    def test_recovery_episode_failure_on_collision(self):
        records = [
            make_record(0, recovery_active=True,
                        final_maneuver="emergency_brake"),
            make_record(1, collision=True),
        ]
        summary = summarize_run(records, TerminationStatus.COLLISION)
        assert summary.recovery_activations == 1
        assert summary.recovery_successes == 0

    def test_successes_never_exceed_activations(self):
        rng = random.Random(8)
        for _ in range(50):
            records = [random_record(rng, t) for t in range(30)]
            summary = summarize_run(records, TerminationStatus.TIMEOUT)
            assert summary.recovery_successes <= summary.recovery_activations

    def test_fault_activations_count_rising_edges(self):
        records = [make_record(0),
                   make_record(1, active_fault="ghost_obstacle"),
                   make_record(2, active_fault="ghost_obstacle"),
                   make_record(3),
                   make_record(4, active_fault="ghost_obstacle")]
        summary = summarize_run(records, TerminationStatus.CLEARED)
        assert summary.faults_injected == {"ghost_obstacle": 2}

    def test_jerk_exemption_split(self):
        records = [
            make_record(0, ego_accel_mps2=0.0),
            make_record(1, ego_accel_mps2=-8.0, recovery_active=True,
                        final_maneuver="emergency_brake"),
            make_record(2, ego_accel_mps2=0.0),
        ]
        summary = summarize_run(records, TerminationStatus.CLEARED)
        assert summary.comfort_violations_exempt >= 1
        assert summary.max_abs_jerk == pytest.approx(80.0)

    def test_aggregation_oracle_recomputation(self):
        """Summary fields equal an independent single-pass recomputation
        from the persisted trace."""
        rng = random.Random(21)
        records = [random_record(rng, t) for t in range(200)]
        buffer = io.StringIO()
        write_trace(records, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        summary = summarize_run(loaded, TerminationStatus.TIMEOUT)
        # Independent recomputation of the simple scalar fields.
        assert summary.unsafe_tick_count == sum(
            1 for r in records if r.verdict_level == "unsafe")
        assert summary.collision == any(r.collision for r in records)
        assert summary.max_abs_accel == max(abs(r.ego_accel_mps2)
                                            for r in records)
        expected_jerk = max(abs(records[i].ego_accel_mps2
                                - records[i - 1].ego_accel_mps2) / 0.1
                            for i in range(1, len(records)))
        assert summary.max_abs_jerk == pytest.approx(expected_jerk)


# --- the one-pass summary against the multi-pass form it replaced ----------

def multi_pass_recovery_episodes(records):
    """(activations, successes), as summarize_run counted them before it
    made one pass."""
    starts = [i for i, r in enumerate(records)
              if r.recovery_active and (i == 0 or not records[i - 1].recovery_active)]
    successes = 0
    for n, start in enumerate(starts):
        end = starts[n + 1] if n + 1 < len(starts) else len(records)
        if not any(r.collision for r in records[start:end]):
            successes += 1
    return len(starts), successes


def multi_pass_fault_activations(records):
    """Each non-empty active_fault counts, as one kind, on every record
    where it differs from the record before."""
    counts = {}
    for i, record in enumerate(records):
        fault = record.active_fault
        if fault and (i == 0 or records[i - 1].active_fault != fault):
            counts[fault] = counts.get(fault, 0) + 1
    return counts


def multi_pass_summarize_run(records, termination,
                             thresholds=PerfThresholds(), dt=0.1,
                             scenario_id="", seed=0):
    """The reference: summarize_run as it was, one pass per field."""
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

    activations, successes = multi_pass_recovery_episodes(records)
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
        faults_injected=multi_pass_fault_activations(records),
        recovery_activations=activations, recovery_successes=successes,
    )


def assert_same_summary(got, want):
    """Field for field, floats by their bits and fault counts in the
    order they were first counted."""
    for f in dataclasses.fields(RunSummary):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert a.hex() == b.hex(), f.name
        else:
            assert a == b, f.name
    assert list(got.faults_injected) == list(want.faults_injected)


# dt 0.5 and thresholds 3 and 4: accelerations on the half-unit grid put
# accelerations and jerks exactly at, just below and just above each
# threshold.
SUMMARY_THRESHOLDS = PerfThresholds(max_abs_accel=3.0, max_abs_jerk=4.0)
GRID_ACCEL = st.sampled_from([i / 2 for i in range(-12, 13)])
TICKS = st.tuples(
    GRID_ACCEL | st.floats(-20.0, 20.0),                    # accel
    st.booleans(),                                          # recovery_active
    st.sampled_from([False] * 4 + [True]),                  # collision
    st.sampled_from([None, None, "", "ghost_obstacle", "trajectory_spoof",
                     "ghost_obstacle+trajectory_spoof"]),    # active_fault
    st.sampled_from(LEVELS),                                # verdict_level
)


class TestOneFaultPerTick:
    @pytest.mark.parametrize("fixture", ["reference_campaign",
                                         "no_recovery_campaign"])
    def test_reference_traces_record_one_fault_kind(self, fixture, request):
        """A tick has at most one active directive, so its active_fault is
        null or one kind, and a run counts only kinds."""
        result, out_dir = request.getfixturevalue(fixture)[:2]
        kinds = {kind.value for kind in FaultKind}
        seen = set()
        for path in sorted(pathlib.Path(out_dir).glob("*/*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                fault = json.loads(line)["active_fault"]
                assert fault is None or fault in kinds, (path, fault)
                seen.add(fault)
        assert seen == kinds | {None}
        for summary in result.run_summaries:
            assert set(summary.faults_injected) <= kinds


class TestOnePassSummary:
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(ticks=st.lists(TICKS, min_size=1, max_size=40),
           dt=st.sampled_from([0.5, 0.1, 0.25]),
           termination=st.sampled_from(list(TerminationStatus)))
    def test_equals_the_multi_pass_form(self, ticks, dt, termination):
        records = [make_record(
            tick, sim_time_s=round(tick * dt, 9), ego_accel_mps2=accel,
            recovery_active=recovery, collision=collision,
            active_fault=fault, verdict_level=level,
            final_maneuver="emergency_brake" if recovery else "proceed")
            for tick, (accel, recovery, collision, fault, level)
            in enumerate(ticks)]
        args = (records, termination, SUMMARY_THRESHOLDS, dt)
        assert_same_summary(summarize_run(*args, scenario_id="s", seed=3),
                            multi_pass_summarize_run(*args, scenario_id="s",
                                                     seed=3))

    @pytest.mark.parametrize("recoveries, collisions, activations, successes", [
        # Back-to-back episodes split by one tick; a collision in the
        # gap belongs to the episode before it.
        ("11011", "00100", 2, 1),
        # A collision before the first episode counts for none.
        ("00110", "10000", 1, 1),
        # A collision on an episode's first tick fails that episode.
        ("01101", "00001", 2, 1),
        # The last episode runs to the end of the run.
        ("10001", "00000", 2, 2),
    ])
    def test_episode_edges(self, recoveries, collisions, activations,
                           successes):
        records = [make_record(t, recovery_active=r == "1",
                               collision=c == "1")
                   for t, (r, c) in enumerate(zip(recoveries, collisions))]
        summary = summarize_run(records, TerminationStatus.TIMEOUT)
        assert (summary.recovery_activations,
                summary.recovery_successes) == (activations, successes)
        assert_same_summary(
            summary, multi_pass_summarize_run(records,
                                              TerminationStatus.TIMEOUT))

    def test_every_reference_run_and_its_trace_bytes(self, tmp_path):
        """Every run of base seeds 0 and 7, recovery on and off: the same
        summary as the multi-pass form, and write_trace's file is the
        records' lines, each with its newline."""
        path = tmp_path / "trace.jsonl"
        runs = records_total = 0
        for base_seed in (0, 7):
            for recovery in (True, False):
                options = RunOptions(recovery_enabled=recovery)
                for spec in reference_specs():
                    for i in range(15):
                        seed = stable_mix(base_seed, spec.id, i)
                        result = run_scenario(spec, seed, options)
                        records = result.records
                        args = (records, result.termination,
                                spec.perf_thresholds, spec.sim_params.dt)
                        want = multi_pass_summarize_run(
                            *args, scenario_id=spec.id, seed=seed)
                        assert_same_summary(result.summary, want)
                        digest = write_trace(records, str(path))
                        assert path.read_bytes() == "".join(
                            encode_record(r) + "\n"
                            for r in records).encode("utf-8")
                        assert digest == trace_hash(records)
                        runs += 1
                        records_total += len(records)
        assert (runs, records_total) == (360, 46017)


def run_summary(scenario, seed, *, unsafe=False, collision=False,
                clearance=None, gridlock=False, failed=False):
    termination = (TerminationStatus.COLLISION if collision
                   else TerminationStatus.CLEARED if clearance is not None
                   else TerminationStatus.TIMEOUT)
    return RunSummary(
        scenario_id=scenario, seed=seed, termination=termination,
        any_unsafe_flag=unsafe, unsafe_tick_count=int(unsafe),
        collision=collision, clearance_time_s=clearance,
        max_abs_accel=0.0, max_abs_jerk=0.0, max_abs_jerk_nonexempt=0.0,
        comfort_violations=0, comfort_violations_exempt=0,
        faults_injected={}, recovery_activations=0, recovery_successes=0,
        failed=failed)


class TestSummarizeCampaign:
    def test_percentages_and_clearance_stats(self):
        runs = ([run_summary("a", s, unsafe=True, clearance=5.0 + s)
                 for s in range(13)]
                + [run_summary("a", 13, clearance=4.0),
                   run_summary("a", 14, collision=True)])
        campaign = summarize_campaign(runs)
        row = campaign.rows[0]
        assert row.scenario == "a"
        assert row.runs == 15
        assert row.pct_runs_with_unsafe_flag == 86.7
        assert row.pct_runs_with_collision == 6.7
        cleared = [5.0 + s for s in range(13)] + [4.0]
        mean = sum(cleared) / len(cleared)
        assert row.clearance_mean_s == pytest.approx(mean)

    def test_gridlock_counting(self):
        runs = [run_summary("a", 0, gridlock=True),
                run_summary("a", 1, clearance=6.0)]
        campaign = summarize_campaign(runs)
        assert campaign.rows[0].gridlock_count == 1

    def test_overall_is_mean_of_scenario_percentages(self):
        runs = ([run_summary("a", s, unsafe=(s < 3), clearance=5.0)
                 for s in range(15)]
                + [run_summary("b", s, unsafe=(s < 9), clearance=7.0)
                   for s in range(15)])
        campaign = summarize_campaign(runs)
        assert campaign.overall_pct_unsafe_flag == pytest.approx(
            (pct(3, 15) + pct(9, 15)) / 2)

    def test_rows_in_first_seen_order(self):
        runs = [run_summary("zeta", 0, clearance=5.0),
                run_summary("alpha", 0, clearance=5.0)]
        campaign = summarize_campaign(runs)
        assert [r.scenario for r in campaign.rows] == ["zeta", "alpha"]

    def test_failed_runs_counted_separately(self):
        runs = [run_summary("a", 0, clearance=5.0),
                run_summary("a", 1, failed=True)]
        campaign = summarize_campaign(runs)
        assert campaign.rows[0].failed == 1
        # Percentages are over completed runs only.
        assert campaign.rows[0].runs == 1


class TestRenderReport:
    def test_csv_row_fixture(self):
        runs = ([run_summary("conflicting", s, unsafe=(s < 5),
                             collision=(s < 2)) for s in range(2)]
                + [run_summary("conflicting", s, unsafe=(s < 5),
                               clearance=6.0) for s in range(2, 15)])
        text = render_report(summarize_campaign(runs), "csv")
        line = text.splitlines()[1]
        assert line.startswith("conflicting,15,33.3,13.3,")

    def test_csv_header_only_when_empty(self):
        text = render_report(summarize_campaign([]), "csv")
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,runs,")

    def test_markdown_overall_row(self):
        runs = ([run_summary("a", s, unsafe=(s < 3), clearance=5.0)
                 for s in range(15)]
                + [run_summary("b", s, unsafe=(s < 9), clearance=7.0)
                   for s in range(15)])
        text = render_report(summarize_campaign(runs), "md")
        assert "**Overall Avg.**" in text
        overall = (pct(3, 15) + pct(9, 15)) / 2
        assert f"| {overall:.1f} " in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(summarize_campaign([]), "pdf")
