"""Performance oracle: clearance, acceleration and jerk thresholds."""

from __future__ import annotations

from dataclasses import dataclass

from .config import PerfThresholds


@dataclass
class PerfFlags:
    """Which of the oracle's limits are broken: acceleration and jerk by the
    last executed motion, clearance time by an ego not yet clear."""

    accel_violation: bool = False
    jerk_violation: bool = False
    clearance_exceeded: bool = False


def performance_check(run_history: list, sim_time: float, ego_cleared: bool,
                      dt: float, thresholds: PerfThresholds) -> PerfFlags:
    """Flags for the most recently executed motion.

    The oracle runs before this tick's decision, so acceleration comes
    from the last finalized record and jerk from the last two (commanded
    accel is piecewise constant; jerk is its first difference over dt).
    """
    accel_violation = jerk_violation = False
    if run_history:
        last = run_history[-1]
        accel_violation = abs(last.ego_accel_mps2) > thresholds.max_abs_accel
        if len(run_history) >= 2:
            jerk = abs(last.ego_accel_mps2 - run_history[-2].ego_accel_mps2) / dt
            jerk_violation = jerk > thresholds.max_abs_jerk
    clearance_exceeded = sim_time > thresholds.max_clearance and not ego_cleared
    return PerfFlags(accel_violation=accel_violation,
                     jerk_violation=jerk_violation,
                     clearance_exceeded=clearance_exceeded)


__all__ = ["PerfFlags", "performance_check"]
