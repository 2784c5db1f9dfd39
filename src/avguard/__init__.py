"""avguard: a deterministic multi-role verification and validation
testbench for AI intersection planners.

An orchestration controller sequences a planner under test with safety,
security, fault-injection, performance, and recovery roles around a
built-in kinematic four-way intersection simulator, then aggregates
seeded campaigns into dependability reports.
"""

from .attacks import AttackSchedule, FaultInjector, ScheduleEntry, TriggerKind
from .campaign import (
    CampaignPlan,
    CampaignResult,
    reaggregate_from_traces,
    run_campaign,
)
from .geometry import Route, obb_overlap, rect_corners
from .metrics import (
    CampaignSummary,
    IterationRecord,
    RunSummary,
    TerminationStatus,
    read_trace,
    render_report,
    summarize_campaign,
    summarize_run,
    trace_hash,
    write_trace,
)
from .monitor import SafetyParams, safety_check
from .orchestrator import (
    RoleBinding,
    RoleKind,
    RolePanic,
    RunContext,
    RunOptions,
    RunResult,
    run_scenario,
    run_tick,
)
from .performance import PerfFlags, PerfThresholds, performance_check
from .planners import ExternalPlanner, PlannerConfig, PlannerKind, plan
from .scenario import (
    AttackConfig,
    ParseError,
    ScenarioSpec,
    ValidationError,
    load_scenario_file,
    parse_scenario_file,
    reference_specs,
    spawn_scenario,
)
from .seeding import stable_mix, stream_for
from .sim import ScenarioBase, SimParams, spawn_world, step_dynamics
from .state import (
    AgentKind,
    AgentState,
    FaultDirective,
    FaultKind,
    GroundTruthWorld,
    Maneuver,
    PerceivedObject,
    PerceivedState,
    Provenance,
    RouteGoal,
    Verdict,
    VerdictLevel,
)

__version__ = "0.1.0"

__all__ = [
    "AgentKind",
    "AgentState",
    "AttackConfig",
    "AttackSchedule",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSummary",
    "ExternalPlanner",
    "FaultDirective",
    "FaultInjector",
    "FaultKind",
    "GroundTruthWorld",
    "IterationRecord",
    "Maneuver",
    "ParseError",
    "PerceivedObject",
    "PerceivedState",
    "PerfFlags",
    "PerfThresholds",
    "PlannerConfig",
    "PlannerKind",
    "Provenance",
    "RoleBinding",
    "RoleKind",
    "RolePanic",
    "Route",
    "RouteGoal",
    "RunContext",
    "RunOptions",
    "RunResult",
    "RunSummary",
    "SafetyParams",
    "ScenarioBase",
    "ScenarioSpec",
    "ScheduleEntry",
    "SimParams",
    "TerminationStatus",
    "TriggerKind",
    "ValidationError",
    "Verdict",
    "VerdictLevel",
    "load_scenario_file",
    "obb_overlap",
    "parse_scenario_file",
    "performance_check",
    "plan",
    "read_trace",
    "reaggregate_from_traces",
    "rect_corners",
    "reference_specs",
    "render_report",
    "run_campaign",
    "run_scenario",
    "run_tick",
    "safety_check",
    "spawn_scenario",
    "spawn_world",
    "stable_mix",
    "step_dynamics",
    "stream_for",
    "summarize_campaign",
    "summarize_run",
    "trace_hash",
    "write_trace",
]
