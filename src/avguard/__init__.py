"""avguard: a deterministic multi-role verification and validation
testbench for AI intersection planners.

An orchestration controller sequences a planner under test with safety,
security, fault-injection, performance, and recovery roles around a
built-in kinematic four-way intersection simulator, then aggregates
seeded campaigns into dependability reports.
"""

import importlib

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

# The module each name in __all__ comes from. Each loads on first access
# (PEP 562), so importing avguard, or loading a scenario, does not load
# the campaign, the orchestrator or the trace codec. A scenario's own
# types live in avguard.config, so loading one loads no simulator or role
# either: reference_specs needs only avguard.scenario and avguard.config.
_HOMES = {
    "CampaignPlan": "campaign",
    "RunOptions": "orchestrator",
    "read_trace": "metrics",
    "reference_specs": "scenario",
    "render_report": "metrics",
    "run_campaign": "campaign",
    "run_scenario": "orchestrator",
    "stable_mix": "seeding",
    "summarize_run": "metrics",
    "trace_hash": "metrics",
    "write_trace": "metrics",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        globals()[name] = value
        return value
    # A submodule: avguard.sim works after a plain ``import avguard``, as it
    # did when this package imported every module up front.
    if name.isidentifier():
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
