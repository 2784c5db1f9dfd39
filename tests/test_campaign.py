"""Campaign execution: seeding, trace persistence, parallelism
transparency, failure reporting, and re-aggregation."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os

import pytest

from avguard.campaign import (
    CampaignPlan,
    reaggregate_from_traces,
    run_campaign,
)
from avguard.config import ScenarioBase
from avguard.metrics import (
    MalformedTrace,
    TerminationStatus,
    read_trace,
    render_report,
    summarize_run,
)
from avguard.scenario import ScenarioSpec, reference_specs
from avguard.seeding import stable_mix


def small_plan(**overrides):
    defaults = dict(specs=reference_specs()[:2], runs_per_spec=3,
                    base_seed=7, recovery_enabled=True, parallelism=1)
    defaults.update(overrides)
    return CampaignPlan(**defaults)


class TestRunCampaign:
    def test_trace_layout_and_seed_derivation(self, tmp_path):
        plan = small_plan()
        result = run_campaign(plan, out_dir=str(tmp_path))
        assert len(result.run_summaries) == 6
        for spec in plan.specs:
            for i in range(plan.runs_per_spec):
                seed = stable_mix(plan.base_seed, spec.id, i)
                trace = tmp_path / spec.id / f"{seed}.jsonl"
                sidecar = tmp_path / spec.id / f"{seed}.run.json"
                assert trace.exists()
                assert sidecar.exists()
                meta = json.loads(sidecar.read_text())
                assert meta["scenario_id"] == spec.id
                assert meta["seed"] == seed

    def test_summary_rows_follow_plan_order(self, tmp_path):
        plan = small_plan()
        result = run_campaign(plan, out_dir=str(tmp_path))
        assert [r.scenario for r in result.summary.rows] == [
            s.id for s in plan.specs]

    def test_parallelism_transparency(self, tmp_path):
        serial = run_campaign(small_plan(parallelism=1),
                              out_dir=str(tmp_path / "serial"))
        parallel = run_campaign(small_plan(parallelism=4),
                                out_dir=str(tmp_path / "parallel"))
        assert serial.trace_hashes == parallel.trace_hashes
        assert serial.summary == parallel.summary
        assert serial.run_summaries == parallel.run_summaries

    def test_recovery_disabled_plan(self, tmp_path):
        plan = small_plan(recovery_enabled=False, runs_per_spec=2)
        result = run_campaign(plan, out_dir=str(tmp_path))
        for spec in plan.specs:
            for i in range(plan.runs_per_spec):
                seed = stable_mix(plan.base_seed, spec.id, i)
                records = read_trace(str(tmp_path / spec.id / f"{seed}.jsonl"))
                assert all(not r.recovery_active for r in records)

    def test_invalid_spec_rejected_before_any_run(self, tmp_path):
        from avguard.scenario import ValidationError
        bad = dataclasses.replace(reference_specs()[0], max_ticks=0)
        with pytest.raises(ValidationError):
            run_campaign(CampaignPlan(specs=[bad], runs_per_spec=1),
                         out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/dir", ""])
    def test_id_outside_its_directory_rejected_before_any_run(self, tmp_path,
                                                              bad_id):
        from avguard.scenario import ValidationError
        spec = dataclasses.replace(spec_named("nominal"), id=bad_id)
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            run_campaign(CampaignPlan(specs=[spec], runs_per_spec=1),
                         out_dir=str(out))
        assert repr(bad_id) in str(err.value)
        assert not os.listdir(tmp_path)

    def test_duplicate_scenario_id_rejected_before_any_run(self, tmp_path):
        """Seeds derive from the id, so two specs that share one would
        overwrite each other's traces."""
        from avguard.scenario import ValidationError
        nominal = spec_named("nominal")
        twin = dataclasses.replace(spec_named("congested"), id="nominal")
        with pytest.raises(ValidationError) as err:
            run_campaign(CampaignPlan(specs=[nominal, twin], runs_per_spec=1),
                         out_dir=str(tmp_path))
        assert "'nominal'" in str(err.value)
        assert not os.listdir(tmp_path)

    def test_second_campaign_into_a_used_out_dir_rejected(self, tmp_path):
        """A report over the directory would count the first campaign's
        extra runs as the second's."""
        from avguard.scenario import ValidationError
        run_campaign(small_plan(runs_per_spec=3), out_dir=str(tmp_path))
        files = {p: p.read_bytes() for p in tmp_path.rglob("*")
                 if p.is_file()}
        report = render_report(reaggregate_from_traces(str(tmp_path)), "csv")
        with pytest.raises(ValidationError) as err:
            run_campaign(small_plan(runs_per_spec=2), out_dir=str(tmp_path))
        assert "out_dir" in str(err.value)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files
        assert render_report(reaggregate_from_traces(str(tmp_path)),
                             "csv") == report

    @pytest.mark.parametrize("overrides", [
        dict(specs=[]),
        dict(runs_per_spec=0),
        dict(runs_per_spec=-2),
        dict(parallelism=0),
        dict(parallelism=-3),
    ])
    def test_plan_that_runs_nothing_rejected_before_any_run(self, tmp_path,
                                                            overrides):
        from avguard.scenario import ValidationError
        with pytest.raises(ValidationError):
            run_campaign(small_plan(**overrides), out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_failed_run_reported_not_hidden(self, tmp_path, monkeypatch):
        """A role fault in one run becomes a failed-run entry; the
        campaign completes and the failure survives re-aggregation."""
        import avguard.campaign as campaign_mod
        real = campaign_mod.run_scenario
        broken_seed = stable_mix(7, reference_specs()[0].id, 1)

        def sometimes_broken(spec, seed, options):
            if seed == broken_seed:
                raise RuntimeError("injected role fault")
            return real(spec, seed, options)

        monkeypatch.setattr(campaign_mod, "run_scenario", sometimes_broken)
        plan = small_plan(specs=reference_specs()[:1])
        result = run_campaign(plan, out_dir=str(tmp_path))
        assert len(result.run_summaries) == 3
        failed = [s for s in result.run_summaries if s.failed]
        assert len(failed) == 1
        assert failed[0].seed == broken_seed
        assert "injected role fault" in failed[0].error
        row = result.summary.rows[0]
        assert row.failed == 1
        assert reaggregate_from_traces(str(tmp_path)) == result.summary


    def test_crashed_worker_is_a_failed_run(self, tmp_path, monkeypatch):
        """A worker that dies mid-run breaks the pool; that run becomes a
        failed run with a sidecar, and every other run still completes
        with the summary a clean campaign gives it."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched run_scenario reaches forked workers only")
        import avguard.campaign as campaign_mod
        clean = run_campaign(small_plan(parallelism=2),
                             out_dir=str(tmp_path / "clean"))
        real = campaign_mod.run_scenario
        crash_seed = stable_mix(7, reference_specs()[0].id, 1)

        def crashing(spec, seed, options):
            if seed == crash_seed:
                os._exit(3)
            return real(spec, seed, options)

        monkeypatch.setattr(campaign_mod, "run_scenario", crashing)
        out = tmp_path / "crashed"
        result = run_campaign(small_plan(parallelism=2), out_dir=str(out))
        assert len(result.run_summaries) == 6
        failed = [s for s in result.run_summaries if s.failed]
        assert [s.seed for s in failed] == [crash_seed]
        assert "BrokenProcessPool" in failed[0].error
        for got, want in zip(result.run_summaries, clean.run_summaries):
            if not got.failed:
                assert got == want
        assert result.summary.rows[0].failed == 1
        spec_id = reference_specs()[0].id
        meta = json.loads((out / spec_id / f"{crash_seed}.run.json").read_text())
        assert meta["failed"]
        assert reaggregate_from_traces(str(out)) == result.summary


class TestPoolDispatch:
    def test_each_worker_gets_the_plan_once(self, tmp_path):
        """Tasks carry indices and seeds; a spec is pickled at most once
        per worker, when the worker starts, and not at all when workers
        are forked. Three runs per spec: sending the spec with every
        task would pickle each one three times, more than the two
        workers' once each."""
        import copyreg

        reductions = []

        def counting(spec):
            reductions.append(spec.id)
            return object.__reduce_ex__(spec, 2)

        specs, workers = reference_specs(), 2
        copyreg.pickle(ScenarioSpec, counting)
        try:
            result = run_campaign(
                small_plan(specs=specs, runs_per_spec=3,
                           parallelism=workers),
                out_dir=str(tmp_path))
        finally:
            del copyreg.dispatch_table[ScenarioSpec]
        assert not any(s.failed for s in result.run_summaries)
        assert len(result.trace_hashes) == 3 * len(specs)
        if multiprocessing.get_start_method() == "fork":
            assert reductions == []
        for spec in specs:
            assert reductions.count(spec.id) <= workers

    def test_worker_calls_execute_run_through_the_module(self, tmp_path,
                                                         monkeypatch):
        """perfbench --trace 1 replaces campaign._execute_run before the
        pool forks and counts one root span per run: the worker entry
        must look the function up at each call."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched _execute_run reaches forked workers only")
        import functools

        import avguard.campaign as campaign_mod
        real = campaign_mod._execute_run
        log = tmp_path / "calls.txt"

        @functools.wraps(real)
        def logging_run(spec, seed, *args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{spec.id} {seed}\n")
            return real(spec, seed, *args)

        monkeypatch.setattr(campaign_mod, "_execute_run", logging_run)
        plan = small_plan(parallelism=2)
        result = run_campaign(plan, out_dir=str(tmp_path / "out"))
        calls = sorted(log.read_text(encoding="utf-8").splitlines())
        assert calls == sorted(f"{s.scenario_id} {s.seed}"
                               for s in result.run_summaries)
        assert len(calls) == len(plan.specs) * plan.runs_per_spec


class TestReaggregation:
    def test_reaggregation_matches_in_memory(self, tmp_path):
        result = run_campaign(small_plan(), out_dir=str(tmp_path))
        rebuilt = reaggregate_from_traces(str(tmp_path))
        assert rebuilt == result.summary

    @pytest.mark.parametrize("options", [
        dict(halt_on_violation=True),
        dict(recovery_enabled=False),
        dict(halt_on_violation=True, recovery_enabled=False),
    ], ids=["halt", "no_recovery", "halt_no_recovery"])
    def test_halting_and_no_recovery_campaigns_reaggregate(self, tmp_path,
                                                           options):
        """Each termination the writer gives passes the reader's check."""
        result = run_campaign(small_plan(**options), out_dir=str(tmp_path))
        terminations = {s.termination for s in result.run_summaries}
        if options.get("halt_on_violation"):
            assert TerminationStatus.HALT_ON_VIOLATION in terminations
        assert reaggregate_from_traces(str(tmp_path)) == result.summary

    def test_run_summaries_recomputable_from_traces(self, tmp_path):
        plan = small_plan(runs_per_spec=2)
        result = run_campaign(plan, out_dir=str(tmp_path))
        by_key = {(s.scenario_id, s.seed): s for s in result.run_summaries}
        for spec in plan.specs:
            for i in range(plan.runs_per_spec):
                seed = stable_mix(plan.base_seed, spec.id, i)
                records = read_trace(str(tmp_path / spec.id / f"{seed}.jsonl"))
                meta = json.loads(
                    (tmp_path / spec.id / f"{seed}.run.json").read_text())
                recomputed = summarize_run(
                    records, TerminationStatus(meta["termination"]),
                    spec.perf_thresholds, spec.sim_params.dt,
                    scenario_id=spec.id, seed=seed)
                assert recomputed == by_key[(spec.id, seed)]

    def test_reaggregation_rejects_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            reaggregate_from_traces(str(tmp_path / "nope"))

    def test_reaggregation_rejects_a_scenario_subdirectory(self, tmp_path):
        """One level too deep holds traces but no <scenario_id>/ layout."""
        run_campaign(small_plan(runs_per_spec=1), out_dir=str(tmp_path))
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path / "nominal"))
        assert "<scenario_id>/<seed>.run.json" in str(err.value)
        assert err.value.line_number is None

    def test_reaggregation_rejects_an_empty_directory(self, tmp_path):
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(tmp_path) in str(err.value)


def spec_named(scenario_id):
    return next(s for s in reference_specs() if s.id == scenario_id)


ALWAYS_RUN_PHASES = {"environment", "generator", "safety_monitor",
                     "security_assessor", "performance_oracle",
                     "action_execution"}


class TestPersistence:
    def test_rerun_writes_identical_trace_bytes(self, tmp_path):
        plan = small_plan(specs=[spec_named("ghost_attack")], runs_per_spec=1,
                          base_seed=0)
        run_campaign(plan, out_dir=str(tmp_path / "a"))
        run_campaign(plan, out_dir=str(tmp_path / "b"))
        seed = stable_mix(0, "ghost_attack", 0)
        a = (tmp_path / "a" / "ghost_attack" / f"{seed}.jsonl").read_bytes()
        b = (tmp_path / "b" / "ghost_attack" / f"{seed}.jsonl").read_bytes()
        assert a and a == b

    def test_hashes_do_not_depend_on_out_dir(self, tmp_path):
        plan = small_plan()
        assert (run_campaign(plan).trace_hashes
                == run_campaign(plan, out_dir=str(tmp_path)).trace_hashes)

    def test_trace_file_is_the_hash_input(self, tmp_path):
        plan = small_plan()
        result = run_campaign(plan, out_dir=str(tmp_path))
        for (scenario_id, seed), digest in result.trace_hashes.items():
            data = (tmp_path / scenario_id / f"{seed}.jsonl").read_bytes()
            assert hashlib.sha256(data.replace(b"\n", b"")).hexdigest() == digest
            meta = json.loads(
                (tmp_path / scenario_id / f"{seed}.run.json").read_text())
            assert meta["trace_hash"] == digest
            assert meta["ticks"] == data.count(b"\n")

    def test_each_record_encoded_once_when_persisting(self, tmp_path,
                                                      monkeypatch):
        import avguard.metrics as metrics_mod
        real = metrics_mod.encode_record
        calls = []

        def counting(record):
            calls.append(record.tick)
            return real(record)

        monkeypatch.setattr(metrics_mod, "encode_record", counting)
        result = run_campaign(small_plan(), out_dir=str(tmp_path))
        ticks = sum(
            json.loads((tmp_path / scenario_id / f"{seed}.run.json")
                       .read_text())["ticks"]
            for scenario_id, seed in result.trace_hashes)
        assert ticks > 0
        assert len(calls) == ticks

    def test_sidecar_holds_one_timings_dict_per_trace_line(self, tmp_path):
        plan = small_plan(specs=[spec_named("nominal"),
                                 spec_named("ghost_attack")],
                          runs_per_spec=1, base_seed=0)
        run_campaign(plan, out_dir=str(tmp_path))
        for spec in plan.specs:
            seed = stable_mix(0, spec.id, 0)
            lines = (tmp_path / spec.id / f"{seed}.jsonl").read_text()
            meta = json.loads((tmp_path / spec.id / f"{seed}.run.json")
                              .read_text())
            timings = meta["role_timings_ns"]
            assert len(timings) == lines.count("\n") == meta["ticks"]
            injected = 0
            for tick in timings:
                assert set(tick) - {"fault_injector"} == ALWAYS_RUN_PHASES
                assert all(isinstance(ns, int) and ns >= 0
                           for ns in tick.values())
                injected += "fault_injector" in tick
            assert (injected > 0) == (spec.attack is not None)


class TestSidecarCheck:
    PLAN = dict(specs=[spec_named("nominal")], runs_per_spec=2, base_seed=0)

    def _trace(self, tmp_path):
        return tmp_path / "nominal" / f"{stable_mix(0, 'nominal', 0)}.jsonl"

    def test_trace_cut_at_a_line_boundary_is_rejected(self, tmp_path):
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[: len(lines) // 2]))
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(trace) in str(err.value)
        assert err.value.line_number is None

    def test_edited_line_is_rejected(self, tmp_path):
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        lines = trace.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"tick": 3', '"tick": 4')
        trace.write_text("".join(lines))
        with pytest.raises(MalformedTrace):
            reaggregate_from_traces(str(tmp_path))

    @pytest.mark.parametrize("edit", ["compact", "crlf"])
    def test_respaced_trace_is_rejected(self, tmp_path, edit):
        """The same records in other bytes are not the trace: compact
        separators on every line, or one line ended by CRLF."""
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        lines = trace.read_bytes().splitlines(keepends=True)
        if edit == "compact":
            lines = [json.dumps(json.loads(line), sort_keys=True,
                                separators=(",", ":")).encode() + b"\n"
                     for line in lines]
        else:
            lines[3] = lines[3].replace(b"\n", b"\r\n")
        trace.write_bytes(b"".join(lines))
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(trace) in str(err.value)

    def test_reaggregation_encodes_no_record(self, tmp_path, monkeypatch):
        import avguard.metrics as metrics_mod
        result = run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        real = metrics_mod.encode_record
        calls = []

        def counting(record):
            calls.append(record.tick)
            return real(record)

        monkeypatch.setattr(metrics_mod, "encode_record", counting)
        assert reaggregate_from_traces(str(tmp_path)) == result.summary
        assert calls == []

    def test_trace_without_sidecar_is_rejected(self, tmp_path):
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        trace.with_suffix(".run.json").unlink()
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(trace) in str(err.value)
        assert err.value.line_number is None

    @pytest.mark.parametrize("damage", ["cut", "termination", "no_ticks",
                                        "threshold", "no_run_index",
                                        "string_seed", "zero_dt",
                                        "unknown_key", "string_timings",
                                        "timings_short", "timings_not_dicts",
                                        "failed_with_trace_keys",
                                        "failed_not_a_bool", "dt_bool",
                                        "threshold_bool", "ticks_float",
                                        "dt_infinite", "threshold_nan",
                                        "termination_running",
                                        "termination_collision",
                                        "termination_halt"])
    def test_damaged_sidecar_is_rejected(self, tmp_path, damage):
        """Each damage used to escape as a bare exception, or, from
        unknown_key on, to pass unnoticed: its writer never writes it."""
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        sidecar = trace.with_suffix(".run.json")
        meta = json.loads(sidecar.read_text())
        if damage == "cut":  # JSONDecodeError
            sidecar.write_text(sidecar.read_text()[:100])
        else:
            if damage == "termination":  # ValueError
                meta["termination"] = "exploded"
            elif damage == "no_ticks":  # EmptyTrace; the hash still matches
                trace.write_bytes(b"")
                meta.update(ticks=0, trace_hash=hashlib.sha256().hexdigest())
            elif damage == "threshold":  # PerfThresholds' ValueError
                meta["max_abs_jerk"] = -1.0
            elif damage == "no_run_index":  # was read as run index 0
                del meta["run_index"]
            elif damage == "string_seed":
                meta["seed"] = str(meta["seed"])
            elif damage == "zero_dt":
                meta["dt"] = 0.0
            elif damage == "unknown_key":
                meta["bogus"] = 1
            elif damage == "string_timings":
                meta["role_timings_ns"] = "fast"
            elif damage == "timings_short":
                meta["role_timings_ns"].pop()
            elif damage == "timings_not_dicts":
                meta["role_timings_ns"] = [0] * meta["ticks"]
            elif damage == "dt_bool":  # True > 0, and the clearance used it
                meta["dt"] = True
            elif damage == "threshold_bool":
                meta["max_clearance"] = True
            elif damage == "ticks_float":  # 72.0 == 72 matched the trace
                meta["ticks"] = float(meta["ticks"])
            elif damage == "dt_infinite":  # json reads Infinity and NaN
                meta["dt"] = math.inf
            elif damage == "threshold_nan":
                meta["max_clearance"] = math.nan
            elif damage == "termination_running":  # was read as no clearance
                meta["termination"] = "running"
            elif damage == "termination_collision":  # the run has none
                meta["termination"] = "collision"
            elif damage == "termination_halt":  # on a verdict that was safe
                meta["termination"] = "halt_on_violation"
            else:  # a failed run has no trace, so no trace_hash or ticks
                trace.unlink()
                meta.update(failed=True, error="RuntimeError: boom")
                if damage == "failed_not_a_bool":
                    for key in ("trace_hash", "ticks", "role_timings_ns"):
                        del meta[key]
                    meta["failed"] = 1
            sidecar.write_text(json.dumps(meta))
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(sidecar) in str(err.value)

    @pytest.mark.parametrize("edit, named", [
        ("blank_line", "records"), ("only_blank", "records"),
        ("unended_last_line", "records"), ("not_a_record", "line 11: "),
        ("not_utf8", "utf-8")])
    def test_rehashed_edit_is_rejected_naming_the_trace(self, tmp_path, edit,
                                                        named):
        """The sidecar's ticks, timings and hash are made to agree with
        the edited bytes, yet the trace is not the run's. A blank line is
        no record (as the only line, it escaped as ``EmptyTrace``), and a
        last line with no newline is one record more: both were
        aggregated. A line that is no record, or no UTF-8, was reported
        without its file."""
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        data = trace.read_bytes()
        lines = data.splitlines(keepends=True)
        if edit == "only_blank":
            data, ticks = b" \n", 1
        elif edit == "unended_last_line":
            data, ticks = data[:-1], len(lines) - 1
        else:
            lines[10] = {"blank_line": b"\n", "not_a_record": b"{}\n",
                         "not_utf8": b'"\xff"\n'}[edit]
            data, ticks = b"".join(lines), len(lines)
        trace.write_bytes(data)
        sidecar = trace.with_suffix(".run.json")
        meta = json.loads(sidecar.read_text())
        meta.update(ticks=ticks,
                    role_timings_ns=meta["role_timings_ns"][:ticks],
                    trace_hash=hashlib.sha256(
                        data.replace(b"\n", b"")).hexdigest())
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(err.value).startswith(f"{trace}: ")
        assert named in str(err.value)

    @pytest.mark.parametrize("move", ["copied_over_sibling",
                                      "other_scenario_dir"])
    def test_sidecar_away_from_its_own_name_is_rejected(self, tmp_path,
                                                        move):
        """A sidecar names its trace by its seed; read under another
        run's name it would count its own run twice and the other run's
        trace never."""
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        trace = self._trace(tmp_path)
        first = trace.with_suffix(".run.json")
        if move == "copied_over_sibling":
            bad = first.with_name(f"{stable_mix(0, 'nominal', 1)}.run.json")
            bad.write_bytes(first.read_bytes())
        else:
            other = tmp_path / "other"
            other.mkdir()
            trace.rename(other / trace.name)
            bad = first.rename(other / first.name)
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(tmp_path))
        assert str(bad) in str(err.value)

    def test_runs_of_another_campaign_are_rejected(self, tmp_path):
        """Runs copied in from a campaign at another base seed have free
        file names but repeat (scenario_index, run_index): counted, they
        would make a report of four runs from a campaign of two."""
        first, second = tmp_path / "first", tmp_path / "second"
        run_campaign(small_plan(**self.PLAN), out_dir=str(first))
        run_campaign(small_plan(**{**self.PLAN, "base_seed": 1}),
                     out_dir=str(second))
        for path in (first / "nominal").iterdir():
            (second / "nominal" / path.name).write_bytes(path.read_bytes())
        with pytest.raises(MalformedTrace) as err:
            reaggregate_from_traces(str(second))
        # It names both sidecars of one run index: one own, one copied.
        named = [run for run in range(2) if all(
            str(second / "nominal" / f"{stable_mix(seed, 'nominal', run)}"
                                     f".run.json") in str(err.value)
            for seed in (0, 1))]
        assert len(named) == 1

    def test_sidecar_without_trace_hash_is_rejected(self, tmp_path):
        run_campaign(small_plan(**self.PLAN), out_dir=str(tmp_path))
        sidecar = self._trace(tmp_path).with_suffix(".run.json")
        meta = json.loads(sidecar.read_text())
        del meta["trace_hash"], meta["ticks"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MalformedTrace):
            reaggregate_from_traces(str(tmp_path))
