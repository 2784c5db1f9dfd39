"""Deterministic, platform-independent seed derivation.

All randomness in a run flows from explicit 64-bit seeds through
``stable_mix`` (splitmix64 over an FNV-1a hash of the string key), so
identical (scenario, seed) inputs reproduce bit-for-bit on any platform.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
    return h


def stable_mix(base_seed: int, scenario_id: str, index: int) -> int:
    """Derive the per-run seed for run ``index`` of a scenario.

    stable_mix(b, s, i) = splitmix64(splitmix64(splitmix64(b) ^ fnv1a64(s)) ^ i)
    """
    h = splitmix64(base_seed & _MASK64)
    h = splitmix64(h ^ fnv1a64(scenario_id.encode("utf-8")))
    return splitmix64(h ^ (index & _MASK64))


def stream_for(seed: int, *tags: object) -> random.Random:
    """A random stream keyed by (seed, *tags); pure function of its key."""
    h = splitmix64(seed & _MASK64)
    for tag in tags:
        h = splitmix64(h ^ fnv1a64(str(tag).encode("utf-8")))
    return random.Random(h)


__all__ = ["stable_mix", "stream_for"]
