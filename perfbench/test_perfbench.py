"""The benchmark's own checks; run with ``python -m pytest perfbench``."""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
from spans import Recorder, Target, Tracer, _resolve, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_METRICS = ("sim.route_builds_per_tick", "geometry.obb_tests_per_tick",
                 "monitor.objects_per_check", "attacks.activations")


def small_plan(parallelism: int = 1):
    from avguard.campaign import CampaignPlan

    return CampaignPlan(specs=run.load_specs()[0], runs_per_spec=2, base_seed=3,
                        parallelism=parallelism)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return tmp_path


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),      # overlaps a: 1..5 covered once
        ("c", 8.0, 12.0, 0, None),     # runs past its parent: 8..10 counts
        ("a.leaf", 1.5, 2.0, 1, None),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.5, 3.0, 4.0, 0.5])


def test_recorder_nests_spans_and_tallies():
    recorder = Recorder()
    inner = recorder.span("inner", lambda x: x * 2,
                          tally=lambda args, kwargs, result: result)
    outer = recorder.span("outer", lambda x: inner(x) + inner(x),
                          run_key=lambda args: f"run{args[0]}")
    assert outer(3) == 12
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [("outer", -1, "run3"), ("inner", 0, "run3"),
                     ("inner", 0, "run3")]
    assert recorder.counts["inner"] == 12


def test_wrappers_install_and_restore():
    targets = [t.where for t in layers.TARGETS]
    originals = {where: vars(owner)[attr]
                 for where, (owner, attr) in zip(targets, map(_resolve, targets))}
    with Tracer(Recorder(), layers.TARGETS):
        for where in targets:
            owner, attr = _resolve(where)
            assert vars(owner)[attr] is not originals[where], where
    for where in targets:
        owner, attr = _resolve(where)
        assert vars(owner)[attr] is originals[where], where


def test_missing_target_fails_before_wrapping_anything():
    from avguard import orchestrator

    original = orchestrator.safety_check
    with pytest.raises(LookupError, match="no_such_function"):
        Tracer(Recorder(), [Target("orchestrator.safety_check"),
                            Target("sim.no_such_function")])
    assert orchestrator.safety_check is original


def test_counts_repeat_and_digest_survives_tracing(work):
    args = argparse.Namespace(workload="campaign_serial", seed=3)
    workload = run.WORKLOADS["campaign_serial"]
    plan = small_plan()
    results = []
    for _ in range(2):
        problems: list[str] = []
        values, _, passes = run.measure_per_layer(args, workload, plan, 1e-3,
                                                  problems)
        assert problems == []
        assert passes[0].digest == passes[1].digest
        results.append(values)
    for name in COUNT_METRICS:
        assert results[0][name] == results[1][name], name
        assert results[0][name] > 0, name


def test_digest_equal_across_workloads(work):
    digests = set()
    for name, workload in run.WORKLOADS.items():
        problems: list[str] = []
        done = run.run_pass(small_plan(workload.parallelism), workload, problems)
        assert problems == [], name
        assert done.failed == 0
        digests.add(done.digest)
    assert len(digests) == 1


def test_parallel_traced_pass_adopts_worker_spans(work):
    args = argparse.Namespace(workload="campaign_parallel", seed=3)
    problems: list[str] = []
    values, extra, _ = run.measure_per_layer(
        args, run.WORKLOADS["campaign_parallel"], small_plan(2), 1e-3, problems)
    assert problems == []
    assert values["metrics.write_us_per_record"] > 0
    assert values["campaign.pool_cpu_util"] > 0
    lines = (work / "spans-campaign_parallel-seed3.jsonl").read_text().splitlines()
    assert len(lines) == extra["spans"]


def test_metric_names_and_benchmark_json_agree():
    names = list(run.END_TO_END) + list(layers.PER_LAYER)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fingerprint_follows_everything_the_digest_depends_on(monkeypatch):
    before = run.source_fingerprint()
    paths = run.scenario_paths()
    monkeypatch.setattr(run, "RUNS_PER_SPEC", run.RUNS_PER_SPEC + 1)
    assert run.source_fingerprint() != before
    monkeypatch.undo()
    monkeypatch.setattr(run, "scenario_paths", lambda: paths[:-1])
    assert run.source_fingerprint() != before
