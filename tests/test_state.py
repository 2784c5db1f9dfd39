"""Core value types and rationale capping."""

import math

import numpy as np
import pytest

from avguard.state import (
    AgentKind,
    AgentState,
    ConflictZone,
    FaultDirective,
    FaultKind,
    SpoofSpec,
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

    def test_agent_state_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            AgentState(id=1, kind=AgentKind.VEHICLE,
                       position=np.zeros(2), velocity=np.zeros(2),
                       acceleration=np.zeros(2), heading=0.0,
                       half_extent=np.array([2.0, 0.0]))

    def test_conflict_zone_distance(self):
        zone = ConflictZone(-10, 10, -10, 10)
        assert zone.distance_to(np.array([0.0, 0.0])) == 0.0
        assert zone.distance_to(np.array([13.0, 14.0])) == 5.0
        assert zone.contains(np.array([10.0, -10.0]))

    def test_spoof_spec_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            SpoofSpec(velocity_scale=0.0)

    def test_fault_directive_window(self):
        d = FaultDirective(kind=FaultKind.GHOST_OBSTACLE,
                           start_tick=5, end_tick=8)
        assert not d.active_at(4)
        assert d.active_at(5)
        assert d.active_at(8)
        assert not d.active_at(9)

    def test_fault_directive_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            FaultDirective(kind=FaultKind.GHOST_OBSTACLE,
                           start_tick=8, end_tick=5)


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
