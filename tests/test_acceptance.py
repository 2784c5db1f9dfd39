"""Acceptance gate: one test per criterion, named so `pytest -v` reads
as a pass/fail checklist.

Criteria mix exact structural checks (determinism, codecs, oracles) with
qualitative-trend checks on the reference campaign (6 scenarios x 15
seeded runs, base seed 0). The three golden base seeds for the recovery
ablation (5, 20, 39) were selected once by sweeping base seeds 0-99 and
are frozen here.
"""

import dataclasses
import io
import math
import random

import pytest

from avguard import (
    CampaignPlan,
    RunOptions,
    read_trace,
    reference_specs,
    render_report,
    run_campaign,
    run_scenario,
    stable_mix,
    summarize_run,
    trace_hash,
    write_trace,
)
from avguard.campaign import reaggregate_from_traces
from avguard.config import PlannerConfig, PlannerKind, SafetyParams
from avguard.metrics import TerminationStatus, pct
from avguard.monitor import safety_check
from avguard.orchestrator import RunContext, run_tick
from avguard.planners import plan
from avguard.scenario import spawn_scenario
from avguard.sim import (
    GHOST_ID_BASE,
    advance_arc,
    build_perceived_state,
)
from avguard.state import PerceivedObject, Provenance, VerdictLevel

from test_geometry import grid_overlap_oracle
from test_metrics import random_record
from test_monitor import GEOMETRY, _random_config, brute_force_oracle

import numpy as np

GOLDEN_ABLATION_BASE_SEEDS = (5, 20, 39)


def _row(summary, scenario_id):
    return next(r for r in summary.rows if r.scenario == scenario_id)


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


class TestCriterion01Determinism:
    def test_criterion_01_determinism_and_runtime(self, reference_campaign,
                                                  tmp_path):
        result, out_dir, elapsed = reference_campaign
        assert elapsed < 60.0, f"reference campaign took {elapsed:.1f} s"
        rerun = run_campaign(
            CampaignPlan(specs=reference_specs(), runs_per_spec=15,
                         base_seed=0, recovery_enabled=True, parallelism=4),
            out_dir=str(tmp_path))
        assert rerun.trace_hashes == result.trace_hashes
        assert rerun.summary == result.summary
        for fmt in ("csv", "md"):
            assert render_report(rerun.summary, fmt) == (
                render_report(result.summary, fmt))
        _ok(1, f"90-run campaign reproducible across parallelism "
               f"(serial wall time {elapsed:.1f} s < 60 s)")


class TestCriterion02MonitorOracle:
    def test_criterion_02_monitor_matches_brute_force_oracle(self):
        rng = random.Random(88)
        params = SafetyParams(sample_dt=0.001)  # fast path at oracle rate
        for _ in range(1000):
            perceived, maneuver = _random_config(rng)
            verdict = safety_check(perceived, maneuver, params, GEOMETRY)
            level, sep, _ = brute_force_oracle(perceived, maneuver, params)
            assert verdict.level == level
            assert abs(verdict.min_predicted_separation - sep) <= 1e-3
            # The 1e-3 slack only covers sampling granularity; at matched
            # 1 ms sampling the agreement is exact to float precision.
            assert abs(verdict.min_predicted_separation - sep) <= 1e-9
        _ok(2, "1,000 randomized configs: verdict levels exact, "
               "separation within 1e-3 m (exact at 1 ms sampling)")


class TestCriterion03GhostInvariants:
    def test_criterion_03_ghost_injection_invariants(self):
        ghost_spec = next(s for s in reference_specs() if s.attack and
                          s.attack.kind.value == "ghost_obstacle")
        ghost_ticks_seen = 0
        for i in range(15):
            seed = stable_mix(0, ghost_spec.id, i)
            world = spawn_scenario(ghost_spec, seed)
            ctx = RunContext(spec=ghost_spec, seed=seed,
                             options=RunOptions(), world=world)
            records = []
            for _ in range(ghost_spec.max_ticks):
                active = ctx.injector.active_directives(ctx.world.clock.tick)
                perceived = build_perceived_state(ctx.world, active,
                                                  ghost_spec.sim_params)
                in_range = sum(
                    1 for a in ctx.world.agents
                    if float(np.hypot(*(a.position - ctx.world.ego.position)))
                    <= ghost_spec.sim_params.sensing_range)
                ghost_active = any(d.kind.value == "ghost_obstacle"
                                   for d in active)
                if ghost_active:
                    assert len(perceived.objects) == in_range + 1
                    ghost_ticks_seen += 1
                else:
                    assert len(perceived.objects) == in_range
                _, record = run_tick(ctx)
                records.append(record)
                if ctx.world.collision is not None or (
                        ctx.world.clock.tick >= ghost_spec.max_ticks):
                    break
                from avguard.orchestrator import ego_cleared_now
                if ego_cleared_now(ctx.world):
                    ctx.world.clear_streak += 1
                    if ctx.world.clear_streak >= ghost_spec.grace_ticks:
                        break
                else:
                    ctx.world.clear_streak = 0

            # Ground truth unchanged vs a no-attack replay of the same
            # final-maneuver sequence.
            from avguard.config import ScenarioBase
            from avguard.sim import (maneuver_to_command, spawn_world,
                                     step_dynamics)
            from avguard.state import Maneuver
            replay = spawn_world(ScenarioBase.NOMINAL, ghost_spec.ego_goal,
                                 seed, ghost_spec.sim_params)
            for record in records:
                cmd = maneuver_to_command(Maneuver(record.final_maneuver),
                                          replay.ego, replay,
                                          ghost_spec.sim_params)
                replay = step_dynamics(replay, cmd)
                assert replay.ego.position[0] == record.ego_position[0]
                assert replay.ego.position[1] == record.ego_position[1]
        assert ghost_ticks_seen > 0

        # Provenance relabeling never changes the planner's decision.
        rng = random.Random(4)
        for _ in range(50):
            from test_planners import make_object, make_perceived
            objects = [make_object(
                i + 1, [rng.uniform(-50, 50), rng.choice([2.5, -2.5])],
                [rng.uniform(-10, 10), 0.0]) for i in range(rng.randint(1, 3))]
            perceived = make_perceived([2.5, rng.uniform(-45, -15)],
                                       [0.0, rng.uniform(1, 9)], objects)
            from avguard.config import RouteGoal
            baseline = plan(perceived, RouteGoal.STRAIGHT, PlannerConfig(),
                            GEOMETRY)
            relabeled = [PerceivedObject(
                id=o.id, kind=o.kind, position=o.position,
                velocity=o.velocity, half_extent=o.half_extent,
                provenance=rng.choice(list(Provenance))) for o in objects]
            permuted = make_perceived(perceived.ego_odometry.position,
                                      perceived.ego_odometry.velocity,
                                      relabeled)
            assert plan(permuted, RouteGoal.STRAIGHT, PlannerConfig(),
                        GEOMETRY) == baseline
        _ok(3, f"ghost adds exactly one perceived object on all "
               f"{ghost_ticks_seen} ghost-active ticks; ground truth and "
               f"planner output unaffected by injection bookkeeping")


class TestCriterion04FlagTrend:
    def test_criterion_04_attack_scenarios_raise_unsafe_flag_rate(
            self, reference_campaign):
        summary = reference_campaign[0].summary
        nominal = _row(summary, "nominal").pct_runs_with_unsafe_flag
        ghost = _row(summary, "ghost_attack").pct_runs_with_unsafe_flag
        spoof = _row(summary, "spoof_attack").pct_runs_with_unsafe_flag
        assert ghost > nominal
        assert spoof > nominal
        _ok(4, f"unsafe-flag rate: ghost {ghost}% > nominal {nominal}%, "
               f"spoof {spoof}% > nominal {nominal}%")


class TestCriterion05ClearanceTrend:
    def test_criterion_05_clearance_ordering(self, reference_campaign):
        summary = reference_campaign[0].summary
        nominal = _row(summary, "nominal").clearance_mean_s
        congested = _row(summary, "congested").clearance_mean_s
        spoof = _row(summary, "spoof_attack").clearance_mean_s
        assert nominal is not None and congested is not None
        assert spoof is not None
        assert nominal < congested < spoof
        _ok(5, f"mean clearance: nominal {nominal:.1f} s < congested "
               f"{congested:.1f} s < spoof {spoof:.1f} s")


class TestCriterion06Gridlock:
    def test_criterion_06_over_cautious_planner_gridlocks_under_spoof(self):
        spoof_spec = next(s for s in reference_specs() if s.attack and
                          s.attack.kind.value == "trajectory_spoof")
        cautious = dataclasses.replace(
            spoof_spec,
            planner_config=PlannerConfig(kind=PlannerKind.OVER_CAUTIOUS))
        gridlocks = 0
        for i in range(15):
            seed = stable_mix(0, cautious.id, i)
            result = run_scenario(cautious, seed)
            if result.termination == TerminationStatus.TIMEOUT and (
                    result.records[-1].clearance_exceeded):
                gridlocks += 1
        assert gridlocks >= 1
        _ok(6, f"over-cautious planner under spoofing: {gridlocks}/15 runs "
               f"end in timeout with clearance exceeded")


class TestCriterion07RecoveryAblation:
    def test_criterion_07_recovery_reduces_collisions(
            self, reference_campaign, no_recovery_campaign):
        with_recovery = reference_campaign[0]
        without = no_recovery_campaign[0]
        total_on = sum(s.collision for s in with_recovery.run_summaries)
        total_off = sum(s.collision for s in without.run_summaries)
        assert total_on <= total_off

        conflict_spec = next(s for s in reference_specs()
                             if s.base.value == "conflicting_traffic")
        strict = []
        for base_seed in GOLDEN_ABLATION_BASE_SEEDS:
            on = off = 0
            for i in range(15):
                seed = stable_mix(base_seed, conflict_spec.id, i)
                on += run_scenario(conflict_spec, seed,
                                   RunOptions(recovery_enabled=True)
                                   ).summary.collision
                off += run_scenario(conflict_spec, seed,
                                    RunOptions(recovery_enabled=False)
                                    ).summary.collision
            strict.append((base_seed, on, off))
        assert any(on < off for _, on, off in strict), strict
        detail = ", ".join(f"base {b}: {on} vs {off}" for b, on, off in strict)
        _ok(7, f"collisions with recovery {total_on} <= without "
               f"{total_off}; conflicting-traffic ablation strict ({detail})")


class TestCriterion08AggregationOracle:
    def test_criterion_08_report_reaggregation_and_percent_law(
            self, reference_campaign):
        result, out_dir, _ = reference_campaign
        rebuilt = reaggregate_from_traces(out_dir)
        assert rebuilt == result.summary
        for n in (1, 3, 15, 90):
            for k in range(n + 1):
                assert pct(k, n) == math.floor(1000.0 * k / n + 0.5) / 10.0
        assert pct(13, 15) == 86.7
        assert pct(5, 15) == 33.3
        _ok(8, "re-aggregated reports equal in-memory summaries exactly; "
               "percent law and Table-style fixtures hold")


class TestCriterion09KinematicsAndCollision:
    def test_criterion_09_kinematics_identities_and_collision_oracle(self):
        # Closed-form stepping identities to 1e-12 m.
        advance, speed = advance_arc(5.0, 1.0, 0.1)
        assert abs(speed - 5.1) <= 1e-12 and abs(advance - 0.505) <= 1e-12
        advance, speed = advance_arc(0.3, -8.0, 0.1)
        assert speed == 0.0 and abs(advance - 0.005625) <= 1e-12
        for v in (0.0, 0.3, 5.0, 9.99):
            advance, _ = advance_arc(v, 0.0, 0.1)
            assert abs(advance - v * 0.1) <= 1e-12

        from avguard.geometry import obb_overlap, rect_corners
        rng = random.Random(500)
        disagreements = 0
        for _ in range(500):
            ca = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            cb = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            ha = (rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            hb = (rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            ta, tb = rng.uniform(0, math.tau), rng.uniform(0, math.tau)
            depth = obb_overlap(rect_corners(np.array(ca), np.array(ha), ta),
                                rect_corners(np.array(cb), np.array(hb), tb))
            if depth is not None and depth > 1e-3:
                disagreements += not grid_overlap_oracle(ca, ha, ta,
                                                         cb, hb, tb)
            elif depth is None:
                sa = (ha[0] - 5e-4, ha[1] - 5e-4)
                sb = (hb[0] - 5e-4, hb[1] - 5e-4)
                disagreements += grid_overlap_oracle(ca, sa, ta, cb, sb, tb)
        assert disagreements == 0
        _ok(9, "kinematics identities hold to 1e-12 m; separating-axis "
               "test agrees with the grid oracle on 500 random pairs")


class TestCriterion10TraceCodec:
    def test_criterion_10_codec_round_trip(self):
        rng = random.Random(1000)
        records = [random_record(rng, i) for i in range(10000)]
        buffer = io.StringIO()
        write_trace(records, buffer)
        buffer.seek(0)
        assert read_trace(buffer) == records

        inf_record = dataclasses.replace(
            records[0], min_predicted_separation=math.inf)
        buffer = io.StringIO()
        write_trace([inf_record], buffer)
        assert '"inf"' in buffer.getvalue()
        buffer.seek(0)
        assert read_trace(buffer)[0].min_predicted_separation == math.inf

        from avguard.metrics import MalformedTrace
        buffer = io.StringIO()
        write_trace(records[:5], buffer)
        text = buffer.getvalue()
        truncated = text[: text.rindex('"tick"')]
        with pytest.raises(MalformedTrace) as err:
            read_trace(io.StringIO(truncated))
        assert err.value.line_number == 5
        _ok(10, "10,000-record round trip identical; inf encoded; "
                "malformed line reported with its line number")
