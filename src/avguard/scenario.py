"""Scenario configuration: typed spec, INI-style file parsing, validation.

A scenario file is a small sectioned key/value document. Each section
fills one config dataclass through the ``_KEYS`` table, and that
dataclass owns each key's default and range check: an omitted key takes
the dataclass default, and a value out of range is rejected with its
section named. Integer keys take whole numbers, every number must be
finite, and ``ghost_x_m`` and ``ghost_y_m`` are set together. A key or
section the parser does not read is rejected, and so is one given twice.
Values are literal: ``%`` has no special meaning. Example:

    [scenario]
    id = ghost_attack
    base = nominal
    ego_goal = straight
    max_ticks = 600

    [attack]
    kind = ghost
    trigger = ego_within:20
    duration_ticks = 80

    [safety]
    d_unsafe_m = 2.0
    d_warn_m = 4.0

Sections: scenario, attack, safety, performance, planner, sim. Units are
part of the key names (``_m``, ``_s``, ``_mps2`` ...).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .attacks import AttackConfig, TriggerKind
from .monitor import EGO_RADIUS, SafetyParams
from .performance import PerfThresholds
from .planners import PlannerConfig, PlannerKind
from .sim import VEHICLE_HALF_EXTENT, ScenarioBase, SimParams, spawn_world
from .state import FaultKind, GroundTruthWorld, RouteGoal


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(Exception):
    """A scenario file violates a documented invariant."""


def default_ghost_attack() -> AttackConfig:
    return AttackConfig(kind=FaultKind.GHOST_OBSTACLE,
                        trigger=TriggerKind.EGO_WITHIN_DISTANCE,
                        trigger_value=20.0, duration_ticks=80,
                        max_activations=1)


def default_spoof_attack() -> AttackConfig:
    return AttackConfig(kind=FaultKind.TRAJECTORY_SPOOF,
                        trigger=TriggerKind.PERIODIC,
                        trigger_value=1.0, duration_ticks=1,
                        max_activations=0)


@dataclass(frozen=True)
class ScenarioSpec:
    id: str = "scenario"
    base: ScenarioBase = ScenarioBase.NOMINAL
    attack: Optional[AttackConfig] = None
    ego_goal: RouteGoal = RouteGoal.STRAIGHT
    max_ticks: int = 600
    grace_ticks: int = 10
    allow_custom_pairing: bool = False
    safety_params: SafetyParams = field(default_factory=SafetyParams)
    perf_thresholds: PerfThresholds = field(default_factory=PerfThresholds)
    planner_config: PlannerConfig = field(default_factory=PlannerConfig)
    sim_params: SimParams = field(default_factory=SimParams)


_ATTACK_BASE_PAIRING = {
    FaultKind.GHOST_OBSTACLE: ScenarioBase.NOMINAL,
    FaultKind.TRAJECTORY_SPOOF: ScenarioBase.CONGESTED,
}


# The most samples the monitor's grid may hold: horizon / sample_dt.
# The grid is built in memory, so a sample_dt typed a few orders of
# magnitude too small would otherwise take gigabytes before a run starts.
MAX_SAFETY_SAMPLES = 100_000

# The least d_unsafe_m at which the monitor stays conservative. It takes
# the ego as a disc of radius EGO_RADIUS and a vehicle as one of its
# half-length, but a vehicle's corners lie hypot(*VEHICLE_HALF_EXTENT)
# from its centre. So two vehicles can overlap while their discs are
# still this far apart: 2 * (sqrt(5) - 2), about 0.472 m.
MIN_D_UNSAFE = 2.0 * (math.hypot(*VEHICLE_HALF_EXTENT) - EGO_RADIUS)


def validate_spec(spec: ScenarioSpec) -> None:
    """Raise ValidationError naming the first violated invariant."""
    if spec.attack is not None and not spec.allow_custom_pairing:
        expected = _ATTACK_BASE_PAIRING[spec.attack.kind]
        if spec.base != expected:
            raise ValidationError(
                f"attack {spec.attack.kind.value} requires base "
                f"{expected.value} (got {spec.base.value}); set "
                f"allow_custom_pairing to override")
    safety = spec.safety_params
    if safety.sample_dt > spec.sim_params.dt:
        raise ValidationError("safety invariant violated: sample_dt <= dt")
    if safety.horizon / safety.sample_dt > MAX_SAFETY_SAMPLES:
        raise ValidationError(
            f"safety invariant violated: horizon / sample_dt <= "
            f"{MAX_SAFETY_SAMPLES} (got {safety.horizon / safety.sample_dt:.6g})")
    if safety.d_unsafe < MIN_D_UNSAFE:
        raise ValidationError(
            f"safety invariant violated: d_unsafe_m >= {MIN_D_UNSAFE:.3f}, "
            f"the most the disc model under-reports two vehicles' overlap "
            f"(got {safety.d_unsafe:g})")
    if spec.max_ticks < 1:
        raise ValidationError("max_ticks must be >= 1")
    if spec.grace_ticks < 0:
        raise ValidationError("grace_ticks must be >= 0")


def spawn_scenario(spec: ScenarioSpec, seed: int) -> GroundTruthWorld:
    """Deterministic initial world for (spec, seed)."""
    validate_spec(spec)
    return spawn_world(spec.base, spec.ego_goal, seed, spec.sim_params)


# --- file parsing ---------------------------------------------------------

_BASE_ALIASES = {
    "nominal": ScenarioBase.NOMINAL,
    "congested": ScenarioBase.CONGESTED,
    "conflicting_traffic": ScenarioBase.CONFLICTING_TRAFFIC,
    "conflicting": ScenarioBase.CONFLICTING_TRAFFIC,
    "pedestrian_crossing": ScenarioBase.PEDESTRIAN_CROSSING,
    "pedestrian": ScenarioBase.PEDESTRIAN_CROSSING,
}

_GOAL_ALIASES = {
    "straight": RouteGoal.STRAIGHT,
    "left": RouteGoal.LEFT_TURN,
    "left_turn": RouteGoal.LEFT_TURN,
    "right": RouteGoal.RIGHT_TURN,
    "right_turn": RouteGoal.RIGHT_TURN,
}

_ATTACK_ALIASES = {
    "ghost": FaultKind.GHOST_OBSTACLE,
    "ghost_obstacle": FaultKind.GHOST_OBSTACLE,
    "spoof": FaultKind.TRAJECTORY_SPOOF,
    "trajectory_spoof": FaultKind.TRAJECTORY_SPOOF,
}

_PLANNER_ALIASES = {
    "gap_acceptance": PlannerKind.GAP_ACCEPTANCE,
    "over_cautious": PlannerKind.OVER_CAUTIOUS,
    "overcautious": PlannerKind.OVER_CAUTIOUS,
    "aggressive": PlannerKind.AGGRESSIVE,
}


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(value):
        raise ValueError("is not a finite number")
    return value


def _whole(raw: str) -> int:
    value = _number(raw)
    if not value.is_integer():
        raise ValueError("is not a whole number")
    return int(value)


def _boolean(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError("is not a boolean")


_TRIGGERS = {k.value: k for k in TriggerKind}


def _trigger(raw: str) -> tuple[TriggerKind, float]:
    kind_text, colon, value_text = raw.partition(":")
    kind = _TRIGGERS.get(kind_text.strip().lower())
    if kind is None or not colon:
        raise ValueError(f"is not <kind>:<value> with a kind in "
                         f"{sorted(_TRIGGERS)}")
    return kind, _number(value_text)


_READERS = {int: _whole, float: _number, bool: _boolean}

# section -> key -> (field of the section's dataclass, how to read it).
# ``how`` is an alias dict, str, bool, int, float or the trigger reader.
# Defaults and range checks belong to the dataclasses (and validate_spec),
# so a key missing here is unknown and a key left out of a file is not
# passed at all. ghost_x and ghost_y become AttackConfig.ghost_position.
_KEYS = {
    "scenario": {
        "id": ("id", str),
        "base": ("base", _BASE_ALIASES),
        "ego_goal": ("ego_goal", _GOAL_ALIASES),
        "max_ticks": ("max_ticks", int),
        "grace_ticks": ("grace_ticks", int),
        "allow_custom_pairing": ("allow_custom_pairing", bool),
    },
    "attack": {
        "kind": ("kind", _ATTACK_ALIASES),
        "trigger": ("trigger", _trigger),
        "duration_ticks": ("duration_ticks", int),
        "max_activations": ("max_activations", int),
        "ghost_x_m": ("ghost_x", float),
        "ghost_y_m": ("ghost_y", float),
        "spoof_target_id": ("spoof_target_id", int),
        "velocity_scale": ("velocity_scale", float),
        "heading_bias_rad": ("heading_bias", float),
    },
    "safety": {
        "horizon_s": ("horizon", float),
        "sample_dt_s": ("sample_dt", float),
        "d_unsafe_m": ("d_unsafe", float),
        "d_warn_m": ("d_warn", float),
        "margin_speed_gain_s": ("margin_speed_gain", float),
    },
    "performance": {
        "max_clearance_s": ("max_clearance", float),
        "max_abs_accel_mps2": ("max_abs_accel", float),
        "max_abs_jerk_mps3": ("max_abs_jerk", float),
    },
    "planner": {
        "kind": ("kind", _PLANNER_ALIASES),
        "caution": ("caution", float),
        "reaction_time_s": ("reaction_time", float),
    },
    "sim": {
        "dt_s": ("dt", float),
        "sensing_range_m": ("sensing_range", float),
        "a_brake_max_mps2": ("a_brake_max", float),
        "a_accel_max_mps2": ("a_accel_max", float),
        "perception_noise_std_m": ("perception_noise_std", float),
    },
}


def _read(section: str, items) -> dict:
    """The fields set by a section's (key, raw value) items, typed."""
    keys, fields = _KEYS[section], {}
    for key, raw in items:
        if key not in keys:
            raise ValidationError(f"[{section}] {key} is not a key this "
                                  f"section reads")
        field_name, how = keys[key]
        try:
            if isinstance(how, dict):
                value = how.get(raw.strip().lower())
                if value is None:
                    raise ValueError(f"is not one of {sorted(how)}")
            else:
                value = _READERS.get(how, how)(raw)
        except ValueError as exc:
            raise ValidationError(f"[{section}] {key} = {raw!r} {exc}") from exc
        fields[field_name] = value
    return fields


def _checked(section: str, build, *args, **fields):
    """``build(*args, **fields)``, its ValueError naming the section."""
    try:
        return build(*args, **fields)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {exc}") from exc


def _attack(fields: dict) -> AttackConfig:
    """The [attack] section over its kind's default attack."""
    kind = fields.pop("kind", None)
    if kind is None:
        raise ValidationError("[attack] kind is required")
    if "trigger" in fields:
        fields["trigger"], fields["trigger_value"] = fields["trigger"]
    x, y = fields.pop("ghost_x", None), fields.pop("ghost_y", None)
    if (x is None) != (y is None):
        missing = "ghost_x_m" if x is None else "ghost_y_m"
        raise ValidationError(f"[attack] ghost_x_m and ghost_y_m are set "
                              f"together; {missing} is missing")
    if x is not None:
        fields["ghost_position"] = (x, y)
    base = (default_ghost_attack() if kind == FaultKind.GHOST_OBSTACLE
            else default_spoof_attack())
    return _checked("attack", replace, base, **fields)


def parse_scenario_file(text: str) -> ScenarioSpec:
    """Parse and validate a scenario document; an omitted key takes its
    dataclass default."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(exc.lineno, "missing section header") from exc
    except configparser.DuplicateSectionError as exc:
        raise ParseError(exc.lineno, f"[{exc.section}] is given twice") from exc
    except configparser.DuplicateOptionError as exc:
        raise ParseError(exc.lineno,
                         f"[{exc.section}] {exc.option} is given twice") from exc
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else 0
        raise ParseError(line, str(exc)) from exc

    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if name not in _KEYS:
            raise ValidationError(f"[{name}] is not a known section; expected "
                                  f"one of {sorted(_KEYS)}")
    fields = {name: _read(name, parser.items(name)
                          if parser.has_section(name) else ())
              for name in _KEYS}

    scenario = fields["scenario"]
    scenario.setdefault("id", scenario.get("base", ScenarioSpec.base).value)
    spec = ScenarioSpec(
        **scenario,
        attack=(_attack(fields["attack"]) if parser.has_section("attack")
                else None),
        safety_params=_checked("safety", SafetyParams, **fields["safety"]),
        perf_thresholds=_checked("performance", PerfThresholds,
                                 **fields["performance"]),
        planner_config=_checked("planner", PlannerConfig, **fields["planner"]),
        sim_params=_checked("sim", SimParams, **fields["sim"]))
    validate_spec(spec)
    return spec


def load_scenario_file(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_scenario_file(fh.read())
        except UnicodeDecodeError as exc:  # name the file in the message
            exc.reason = f"{exc.reason} in {path}"
            raise


def reference_specs() -> list[ScenarioSpec]:
    """The six-scenario reference catalog used by the default campaign."""
    return [
        ScenarioSpec(id="nominal", base=ScenarioBase.NOMINAL),
        ScenarioSpec(id="congested", base=ScenarioBase.CONGESTED),
        ScenarioSpec(id="conflicting_traffic", base=ScenarioBase.CONFLICTING_TRAFFIC),
        ScenarioSpec(id="ghost_attack", base=ScenarioBase.NOMINAL,
                     attack=default_ghost_attack()),
        ScenarioSpec(id="spoof_attack", base=ScenarioBase.CONGESTED,
                     attack=default_spoof_attack()),
        ScenarioSpec(id="pedestrian_crossing", base=ScenarioBase.PEDESTRIAN_CROSSING),
    ]


__all__ = [
    "ParseError",
    "ScenarioSpec",
    "ValidationError",
    "default_ghost_attack",
    "default_spoof_attack",
    "load_scenario_file",
    "parse_scenario_file",
    "reference_specs",
    "spawn_scenario",
    "validate_spec",
]
