"""Pinned digests for the paths the reference campaign never takes.

The golden pins (``test_golden_hashes.py``, ``test_golden_more_hashes.py``)
run the reference specs, which use no perception noise, no heading bias,
no ``at_tick`` or ``periodic:N > 1`` trigger and only the gap-acceptance
planner. A rewrite of one of those branches could move bits without any
of them failing. Each spec here is a reference base plus the keys of
one such path; 5 runs of each at base seed 0 are pinned through the
perfbench digest form, sha256 over the sorted
"scenario\\tseed\\ttrace_hash" lines, at ``parallelism`` 1 and 2. The
persisted campaign is also checked against criterion 10 (each trace
decodes and re-encodes to its own bytes and hash) and criterion 08 (the
report rebuilt from the traces equals the in-memory one).
"""

import hashlib
import io
import os

import pytest

from avguard import (
    CampaignPlan,
    read_trace,
    run_campaign,
    trace_hash,
    write_trace,
)
from avguard.campaign import reaggregate_from_traces
from avguard.scenario import parse_scenario_file

RUNS = 5

# id -> (scenario file, the line that takes the path). Without that line
# the file is a reference scenario, or its default attack.
PATHS = {
    "perception_noise": ("""
[scenario]
id = perception_noise
base = congested

[sim]
perception_noise_std_m = 0.3
""", "perception_noise_std_m = 0.3"),
    "heading_bias": ("""
[scenario]
id = heading_bias
base = congested

[attack]
kind = spoof
trigger = periodic:1
duration_ticks = 1
heading_bias_rad = 0.5
""", "heading_bias_rad = 0.5"),
    "at_tick": ("""
[scenario]
id = at_tick
base = nominal

[attack]
kind = ghost
trigger = at_tick:20
duration_ticks = 40
max_activations = 1
""", "trigger = at_tick:20"),
    "periodic_5": ("""
[scenario]
id = periodic_5
base = congested

[attack]
kind = spoof
trigger = periodic:5
duration_ticks = 2
""", "trigger = periodic:5"),
    "aggressive": ("""
[scenario]
id = aggressive
base = conflicting

[planner]
kind = aggressive
""", "kind = aggressive"),
    "over_cautious": ("""
[scenario]
id = over_cautious
base = conflicting

[planner]
kind = over_cautious
""", "kind = over_cautious"),
}

DIGESTS = {
    # Perception noise draws through random.gauss, which calls libm's
    # log, cos and sin, so this pin holds on CI's platform (glibc,
    # x86-64) only. So does the heading-bias pin: sim._rotate calls
    # libm's cos and sin. ROADMAP item 2 lists the libm calls left on a
    # hashed path.
    "perception_noise":
        "4b8aecce905ef3b808ae88c4a4b2cdb675a58d3abd64f7aadeb147b03ae54e59",
    "heading_bias":
        "eaf59c1d5cdc15f7e264c587efabbfd3c06a40ea5fe276954802481f39a0bd76",
    "at_tick":
        "aca371a060514b58e426b69d4607411c1775c1aecc1f5f3608f592276ad6da75",
    "periodic_5":
        "beea3fc0499eeacb7e764727220f2c81bdafefa1848e6af614e10258a3a9664a",
    "aggressive":
        "fdf14d3aeda039b3c2130790b863125abfe3df30ce1fa71a8d4cc8b3058da916",
    "over_cautious":
        "9d62408ca89dfecf030209d93cbe7606c5f214518568397b8d40294ef5382356",
}


def digest(trace_hashes: dict) -> str:
    lines = sorted(f"{scenario_id}\t{seed}\t{h}"
                   for (scenario_id, seed), h in trace_hashes.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def per_path(trace_hashes: dict) -> dict:
    """Each path's digest over its own runs."""
    return {path: digest({key: h for key, h in trace_hashes.items()
                          if key[0] == path})
            for path in PATHS}


def plan(texts, parallelism: int = 1) -> CampaignPlan:
    return CampaignPlan(specs=[parse_scenario_file(t) for t in texts],
                        runs_per_spec=RUNS, base_seed=0,
                        parallelism=parallelism)


@pytest.fixture(scope="module")
def serial():
    return run_campaign(plan(text for text, _ in PATHS.values()))


@pytest.fixture(scope="module")
def persisted(tmp_path_factory):
    """(CampaignResult, out_dir) of the same plan on two workers."""
    out = str(tmp_path_factory.mktemp("path_coverage"))
    return run_campaign(plan((text for text, _ in PATHS.values()), 2),
                        out_dir=out), out


def test_every_run_completes_and_every_attack_fires(serial, persisted):
    for result in (serial, persisted[0]):
        assert len(result.run_summaries) == len(PATHS) * RUNS
        assert not any(s.failed for s in result.run_summaries)
    for summary in serial.run_summaries:
        if "[attack]" in PATHS[summary.scenario_id][0]:
            assert sum(summary.faults_injected.values()) >= 1


@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_digest_is_pinned(path, serial, persisted):
    assert per_path(serial.trace_hashes)[path] == DIGESTS[path]
    assert per_path(persisted[0].trace_hashes)[path] == DIGESTS[path]


def test_each_path_moves_its_runs():
    """Without its path line, each spec hashes differently: the pin
    covers the path, not only the base it sits on."""
    without = run_campaign(plan(text.replace(line + "\n", "")
                                for text, line in PATHS.values()))
    assert all(a != b for a, b in zip(per_path(without.trace_hashes).values(),
                                      DIGESTS.values()))


def test_traces_round_trip(persisted):
    result, out = persisted
    for (scenario_id, seed), expected in result.trace_hashes.items():
        path = os.path.join(out, scenario_id, f"{seed}.jsonl")
        records = read_trace(path)
        assert trace_hash(records) == expected
        buffer = io.StringIO()
        assert write_trace(records, buffer) == expected
        with open(path, "rb") as fh:
            assert buffer.getvalue().encode("utf-8") == fh.read()


def test_report_rebuilt_from_traces_is_equal(persisted):
    result, out = persisted
    assert reaggregate_from_traces(out) == result.summary
