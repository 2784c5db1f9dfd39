"""avguard: a deterministic multi-role verification and validation
testbench for AI intersection planners.

An orchestration controller sequences a planner under test with safety,
security, fault-injection, performance, and recovery roles around a
built-in kinematic four-way intersection simulator, then aggregates
seeded campaigns into dependability reports.
"""

from .campaign import CampaignPlan, run_campaign
from .metrics import (
    read_trace,
    render_report,
    summarize_run,
    trace_hash,
    write_trace,
)
from .orchestrator import RunOptions, run_scenario
from .scenario import reference_specs
from .seeding import stable_mix

__version__ = "0.1.0"

# What the demos, the tests and the README's library example import;
# every other name lives in its module (avguard.sim, avguard.monitor, ...).
__all__ = [
    "CampaignPlan",
    "RunOptions",
    "read_trace",
    "reference_specs",
    "render_report",
    "run_campaign",
    "run_scenario",
    "stable_mix",
    "summarize_run",
    "trace_hash",
    "write_trace",
]
