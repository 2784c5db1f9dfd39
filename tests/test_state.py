"""Core value types and rationale capping."""

import math

import numpy as np
import pytest

from avguard.state import (
    ConflictZone,
    normalize_heading,
    truncate_rationale,
)


class TestValueTypes:
    def test_normalize_heading_wraps(self):
        assert normalize_heading(0.0) == 0.0
        assert math.isclose(normalize_heading(3 * math.pi), math.pi)
        assert math.isclose(normalize_heading(-math.pi / 2), -math.pi / 2)
        # The branch cut maps -pi to +pi so the result is unique.
        assert normalize_heading(-math.pi) == pytest.approx(math.pi)

    def test_conflict_zone_distance(self):
        zone = ConflictZone(-10, 10, -10, 10)
        assert zone.distance_to(np.array([0.0, 0.0])) == 0.0
        assert zone.distance_to(np.array([13.0, 14.0])) == 5.0
        assert zone.contains(np.array([10.0, -10.0]))


class TestRationaleCap:
    def test_short_text_untouched(self):
        assert truncate_rationale("fine") == "fine"

    def test_long_text_capped_with_marker(self):
        text = "x" * 5000
        out = truncate_rationale(text)
        assert len(out) == 1024
        assert out.endswith("...[truncated]")
        assert out.startswith("xxx")

    def test_boundary_exact_cap(self):
        text = "y" * 1024
        assert truncate_rationale(text) == text
