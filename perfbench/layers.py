"""What the traced run wraps, and the per-layer metrics read from it.

Each wrap target is named by the namespace its caller looks it up in, so
a span name says both the layer and the call site. The metric for a
layer the workload never reaches (the codec's write path on
``campaign_serial``, say) is 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Target, self_times


def _run_key(args: tuple) -> str:
    spec, seed = args[0], args[1]
    return f"{spec.id}/{seed}"


ROUTE_BUILDERS = ("planners.ego_route_for", "sim.ego_route_for",
                  "sim.approach_route", "sim.build_intersection",
                  "planners.build_intersection")

TARGETS = [
    Target("campaign.run_campaign"),
    Target("campaign._execute_run", kind="worker_root", run_key=_run_key),
    Target("campaign.run_scenario"),
    Target("campaign.reaggregate_from_traces"),
    Target("scenario.spawn_scenario"),
    Target("orchestrator.run_tick"),
    Target("sim.build_perceived_state"),
    Target("planners.plan"),
    Target("orchestrator.safety_check",
           tally=lambda args, kwargs, result: len(args[0].objects)),
    Target("attacks.FaultInjector.plan"),
    Target("attacks.FaultInjector.activate",
           tally=lambda args, kwargs, result: int(result is not None)),
    Target("attacks.FaultInjector.active_directives"),
    Target("orchestrator.performance_check"),
    Target("sim.maneuver_to_command"),
    Target("sim.step_dynamics"),
    Target("sim.detect_collision"),
    Target("metrics.finalize_tick"),
    Target("metrics.trace_hash"),
    Target("metrics.write_trace",
           tally=lambda args, kwargs, result: len(args[0])),
    Target("metrics.read_trace",
           tally=lambda args, kwargs, result: len(result)),
    Target("metrics.summarize_run"),
    Target("metrics.summarize_campaign"),
    Target("geometry.obb_overlap", kind="counter"),
    *[Target(name, kind="counter") for name in ROUTE_BUILDERS],
]

# Per-layer metric -> unit; README.md says what each one measures.
PER_LAYER = {
    "orchestrator.tick_us_p50": "us",
    "orchestrator.tick_us_p99": "us",
    "orchestrator.tick_self_us": "us/tick",
    "orchestrator.run_ms_p50": "ms",
    "orchestrator.run_ms_p88": "ms",
    "sim.environment_us_per_tick": "us/tick",
    "sim.action_self_us_per_tick": "us/tick",
    "sim.collision_us_per_tick": "us/tick",
    "sim.command_us_per_tick": "us/tick",
    "sim.route_builds_per_tick": "count/tick",
    "geometry.obb_tests_per_tick": "count/tick",
    "planners.generator_us_per_tick": "us/tick",
    "monitor.safety_us_per_tick": "us/tick",
    "monitor.objects_per_check": "count",
    "attacks.assessor_us_per_tick": "us/tick",
    "attacks.injector_us_per_tick": "us/tick",
    "attacks.activations": "count",
    "performance.oracle_us_per_tick": "us/tick",
    "metrics.finalize_us_per_tick": "us/tick",
    "metrics.hash_us_per_record": "us/record",
    "metrics.write_us_per_record": "us/record",
    "metrics.read_us_per_record": "us/record",
    "metrics.summarize_us_per_run": "us/run",
    "metrics.trace_bytes_per_record": "B/record",
    "scenario.load_ms": "ms",
    "scenario.spawn_us_per_run": "us/run",
    "campaign.self_ms": "ms",
    "campaign.reaggregate_self_ms": "ms",
    "campaign.pool_cpu_util": "ratio",
    "campaign.parent_cpu_s": "s",
    "tracing_overhead_pct": "%",
    "report_s": "s",
    "trace_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer metrics that come from the spans and counts of one
    traced pass."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        durations[name].append(end - start)

    ticks = calls["orchestrator.run_tick"]
    if ticks == 0:
        raise RuntimeError("traced pass recorded no ticks")

    def per_tick_us(*names: str) -> float:
        return 1e6 * sum(total[n] for n in names) / ticks

    def per_call_us(name: str, denominator: float) -> float:
        return 1e6 * total[name] / denominator if denominator else 0.0

    written = counts.get("metrics.write_trace", 0)
    read = counts.get("metrics.read_trace", 0)
    return {
        "orchestrator.tick_us_p50": 1e6 * statistics.median(durations["orchestrator.run_tick"]),
        "orchestrator.tick_us_p99": 1e6 * percentile(durations["orchestrator.run_tick"], 99),
        "orchestrator.tick_self_us": 1e6 * own["orchestrator.run_tick"] / ticks,
        "orchestrator.run_ms_p50": 1e3 * statistics.median(durations["campaign.run_scenario"]),
        "orchestrator.run_ms_p88": 1e3 * percentile(durations["campaign.run_scenario"], 88),
        "sim.environment_us_per_tick": per_tick_us("sim.build_perceived_state"),
        "sim.action_self_us_per_tick": 1e6 * own["sim.step_dynamics"] / ticks,
        "sim.collision_us_per_tick": per_tick_us("sim.detect_collision"),
        "sim.command_us_per_tick": per_tick_us("sim.maneuver_to_command"),
        "sim.route_builds_per_tick": sum(counts.get(n, 0) for n in ROUTE_BUILDERS) / ticks,
        "geometry.obb_tests_per_tick": counts.get("geometry.obb_overlap", 0) / ticks,
        "planners.generator_us_per_tick": per_tick_us("planners.plan"),
        "monitor.safety_us_per_tick": per_tick_us("orchestrator.safety_check"),
        "monitor.objects_per_check": (counts.get("orchestrator.safety_check", 0)
                                      / max(calls["orchestrator.safety_check"], 1)),
        "attacks.assessor_us_per_tick": per_tick_us("attacks.FaultInjector.plan"),
        "attacks.injector_us_per_tick": per_tick_us(
            "attacks.FaultInjector.activate", "attacks.FaultInjector.active_directives"),
        "attacks.activations": counts.get("attacks.FaultInjector.activate", 0),
        "performance.oracle_us_per_tick": per_tick_us("orchestrator.performance_check"),
        "metrics.finalize_us_per_tick": per_tick_us("metrics.finalize_tick"),
        "metrics.hash_us_per_record": per_tick_us("metrics.trace_hash"),
        "metrics.write_us_per_record": per_call_us("metrics.write_trace", written),
        "metrics.read_us_per_record": per_call_us("metrics.read_trace", read),
        "metrics.summarize_us_per_run": per_call_us("metrics.summarize_run",
                                                    calls["metrics.summarize_run"]),
        "scenario.spawn_us_per_run": per_call_us("scenario.spawn_scenario",
                                                 calls["scenario.spawn_scenario"]),
        "campaign.self_ms": 1e3 * (own["campaign.run_campaign"]
                                   + own["campaign._execute_run"]),
        "campaign.reaggregate_self_ms": 1e3 * own["campaign.reaggregate_from_traces"],
    }
