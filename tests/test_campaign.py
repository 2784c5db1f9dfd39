"""Campaign execution: seeding, trace persistence, parallelism
transparency, failure reporting, and re-aggregation."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from avguard.campaign import (
    CampaignPlan,
    reaggregate_from_traces,
    run_campaign,
)
from avguard.metrics import TerminationStatus, read_trace, summarize_run
from avguard.scenario import ScenarioSpec, reference_specs
from avguard.seeding import stable_mix
from avguard.sim import ScenarioBase


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


class TestReaggregation:
    def test_reaggregation_matches_in_memory(self, tmp_path):
        result = run_campaign(small_plan(), out_dir=str(tmp_path))
        rebuilt = reaggregate_from_traces(str(tmp_path))
        assert rebuilt == result.summary

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
