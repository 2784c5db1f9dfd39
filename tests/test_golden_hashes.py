"""Golden trace hashes of the reference campaign at base seed 0.

Run 0 of each reference scenario is pinned with its tick count and
hash; every one of the 90 runs, with recovery on and off, is pinned
through a digest over the campaign's trace hashes. Any change to the tick path that moves a single hashed byte of these
traces fails here. A change that is meant to move them must update the
pinned values and say which hashes changed and why.
"""

import hashlib

import pytest

from avguard.metrics import trace_hash
from avguard.orchestrator import run_scenario
from avguard.scenario import reference_specs
from avguard.seeding import stable_mix

GOLDEN = {
    "nominal": (
        72, "4e4e29c1471d4fc9d2ca3df64b85950cdc78e33d03d61cfcf53d2d87c795b7aa"),
    "congested": (
        111, "8ff9686461877584f78d1ab1cb6dba671527273964d2025ce703e943776e91db"),
    "conflicting_traffic": (
        165, "be8087e79d42234974bdc853c218e8455a02928537644b5cec949b1108fec828"),
    "ghost_attack": (
        276, "5428a573d14409e70506c3b8d89195faffc423f98f3266f1c369df71192628cc"),
    "spoof_attack": (
        117, "8ae5462412ec21ea87d98054bf52f6265c80cecabaa8c8ad68e6fe78bd65a007"),
    "pedestrian_crossing": (
        215, "7175fb9ce35044654eec709b75490e4dfa1c1a48dfdc14c65a6774085ed2924b"),
}


def test_golden_covers_every_reference_spec():
    assert sorted(GOLDEN) == sorted(s.id for s in reference_specs())


@pytest.mark.parametrize("spec", reference_specs(), ids=lambda s: s.id)
def test_run_zero_trace_hash_is_pinned(spec):
    ticks, digest = GOLDEN[spec.id]
    result = run_scenario(spec, stable_mix(0, spec.id, 0))
    assert len(result.records) == ticks
    assert trace_hash(result.records) == digest


# sha256 over the sorted "scenario\tseed\ttrace_hash" lines of all 90 runs
# of the reference campaign at base seed 0 (the perfbench digest).
CAMPAIGN_DIGESTS = {
    "reference_campaign":
        "9d18da2a142c1ca4169f917ca7ec6bb65678b9f7d31f7441394f2f2d2ed1b5ee",
    "no_recovery_campaign":
        "5d73dce8dedf3477bba2251f21c16ddedc27d7a4eafe40627f6cde15e72d143c",
}


@pytest.mark.parametrize("fixture", sorted(CAMPAIGN_DIGESTS))
def test_every_reference_trace_hash_is_pinned(fixture, request):
    result = request.getfixturevalue(fixture)[0]
    lines = sorted(f"{scenario_id}\t{seed}\t{digest}"
                   for (scenario_id, seed), digest
                   in result.trace_hashes.items())
    assert len(lines) == 90
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == CAMPAIGN_DIGESTS[fixture]
