"""Golden trace hashes: run 0 of each reference scenario at base seed 0.

Any change to the tick path that moves a single hashed byte of these
traces fails here. A change that is meant to move them must update the
pinned values and say which hashes changed and why.
"""

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
