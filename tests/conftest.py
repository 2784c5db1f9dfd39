"""Shared fixtures: reference campaigns reused across test modules, and
a writer for the external planner scripts the adapter tests start.

The full 6-scenario x 15-run campaigns are the most expensive artifacts
in the suite, so they are built once per session and shared by the
campaign, CLI, and acceptance tests.
"""

from __future__ import annotations

import sys
import textwrap
import time

import pytest

from avguard import CampaignPlan, reference_specs, run_campaign


@pytest.fixture(scope="session")
def reference_campaign(tmp_path_factory):
    """(CampaignResult, out_dir, wall_seconds) with recovery enabled."""
    out = tmp_path_factory.mktemp("campaign_recovery_on")
    plan = CampaignPlan(specs=reference_specs(), runs_per_spec=15,
                        base_seed=0, recovery_enabled=True, parallelism=1)
    start = time.perf_counter()
    result = run_campaign(plan, out_dir=str(out))
    elapsed = time.perf_counter() - start
    return result, str(out), elapsed


@pytest.fixture(scope="session")
def no_recovery_campaign(tmp_path_factory):
    """(CampaignResult, out_dir) for the recovery-disabled ablation."""
    out = tmp_path_factory.mktemp("campaign_recovery_off")
    plan = CampaignPlan(specs=reference_specs(), runs_per_spec=15,
                        base_seed=0, recovery_enabled=False, parallelism=1)
    result = run_campaign(plan, out_dir=str(out))
    return result, str(out)


@pytest.fixture
def planner_script(tmp_path):
    """Write a Python planner body to a file; return the command that runs it."""
    def write(body: str) -> list[str]:
        path = tmp_path / "planner.py"
        path.write_text(textwrap.dedent(body))
        return [sys.executable, str(path)]
    return write
