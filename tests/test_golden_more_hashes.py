"""Golden campaign digests beyond ``test_golden_hashes.py``: another base
seed, and the turning routes.

``test_golden_hashes.py`` pins the reference campaign at base seed 0,
where every scenario drives the straight route. These pins add the
reference campaign at base seed 7, and the six reference specs with
``ego_goal`` set to left_turn and to right_turn at base seed 0, all
with recovery on. A turning route sends the monitor's route projection
and the command law down branches the straight route never takes.

ROADMAP item 10 (the monitor predicts the ego along its route) will
move the two turning-route digests on purpose; such a change updates
them here and says so. The seed-7 digest should hold through it.
"""

import dataclasses
import hashlib

import pytest

from avguard import CampaignPlan, reference_specs, run_campaign
from avguard.config import RouteGoal

# sha256 over the sorted "scenario\tseed\ttrace_hash" lines of all 90 runs.
DIGESTS = {
    ("straight", 7):
        "691d7924e64415335748bd0066713f0678cc2931c0b23f573440af4de16867fe",
    ("left_turn", 0):
        "8aab158a81fb569e10f79e9e8c407b89e0548ad5460a889ff0f6a6eefbc5c945",
    ("right_turn", 0):
        "990ff285399d5bff544bfa485d9d6828c88d91810e1b0deacc125e6206af509b",
}


@pytest.mark.parametrize("goal, base_seed", sorted(DIGESTS),
                         ids=lambda v: str(v))
def test_campaign_digest_is_pinned(goal, base_seed):
    specs = [dataclasses.replace(spec, ego_goal=RouteGoal(goal))
             for spec in reference_specs()]
    plan = CampaignPlan(specs=specs, runs_per_spec=15, base_seed=base_seed,
                        recovery_enabled=True, parallelism=1)
    result = run_campaign(plan)
    lines = sorted(f"{scenario_id}\t{seed}\t{digest}"
                   for (scenario_id, seed), digest
                   in result.trace_hashes.items())
    assert len(lines) == 90
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[goal, base_seed]
