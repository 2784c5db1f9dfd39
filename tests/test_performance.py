"""Performance oracle: acceleration, jerk, and clearance thresholds."""

from dataclasses import dataclass

import pytest

from avguard.config import PerfThresholds
from avguard.performance import performance_check


@dataclass
class FakeRecord:
    ego_accel_mps2: float


THRESHOLDS = PerfThresholds()


def history(accels):
    return [FakeRecord(a) for a in accels]


class TestAccelAndJerk:
    def test_below_thresholds(self):
        flags = performance_check(history([0.0, 1.0, 2.9]), 0.3, False, 0.1,
                                  THRESHOLDS)
        assert not flags.accel_violation
        # Jerk between the last two records: (2.9 - 1.0) / 0.1 = 19 > 5.
        assert flags.jerk_violation

    def test_smooth_history_clean(self):
        flags = performance_check(history([0.0, 0.3, 0.6]), 0.3, False, 0.1,
                                  THRESHOLDS)
        assert not flags.accel_violation
        assert not flags.jerk_violation

    def test_jerk_finite_difference(self):
        # 0 -> 2.0 m/s^2 in one 0.1 s tick: jerk = 20 m/s^3 > 5.
        flags = performance_check(history([0.0, 2.0]), 0.2, False, 0.1,
                                  THRESHOLDS)
        assert flags.jerk_violation
        assert not flags.accel_violation

    def test_accel_over_threshold(self):
        flags = performance_check(history([0.0, -8.0]), 0.2, False, 0.1,
                                  THRESHOLDS)
        assert flags.accel_violation

    def test_empty_history_is_clean(self):
        flags = performance_check([], 0.0, False, 0.1, THRESHOLDS)
        assert not (flags.accel_violation or flags.jerk_violation)

    def test_single_record_no_jerk(self):
        flags = performance_check(history([2.0]), 0.1, False, 0.1, THRESHOLDS)
        assert not flags.jerk_violation


class TestClearance:
    def test_exceeded_when_not_cleared(self):
        flags = performance_check([], 30.1, False, 0.1, THRESHOLDS)
        assert flags.clearance_exceeded

    def test_not_exceeded_when_cleared(self):
        flags = performance_check([], 30.1, True, 0.1, THRESHOLDS)
        assert not flags.clearance_exceeded

    def test_boundary_not_exceeded(self):
        flags = performance_check([], 30.0, False, 0.1, THRESHOLDS)
        assert not flags.clearance_exceeded


class TestThresholdValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PerfThresholds(max_abs_accel=0.0)
