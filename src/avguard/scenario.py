"""Scenario configuration: typed spec, INI-style file parsing, validation.

A scenario file is a small sectioned key/value document; every omitted
key takes the documented default, and a key or section the parser does
not read is rejected. Example:

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
from dataclasses import dataclass, field
from typing import Optional

from .attacks import AttackConfig, TriggerKind
from .monitor import SafetyParams
from .performance import PerfThresholds
from .planners import PlannerConfig, PlannerKind
from .sim import ScenarioBase, SimParams, spawn_world
from .state import FaultKind, GhostSpec, GroundTruthWorld, RouteGoal, SpoofSpec


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(Exception):
    """A scenario file violates a documented invariant."""


class InvalidSpec(ValidationError):
    """A spec failed validation at run time (validation was bypassed)."""


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


def validate_spec(spec: ScenarioSpec) -> None:
    """Raise ValidationError naming the first violated invariant."""
    if spec.attack is not None and not spec.allow_custom_pairing:
        expected = _ATTACK_BASE_PAIRING[spec.attack.kind]
        if spec.base != expected:
            raise ValidationError(
                f"attack {spec.attack.kind.value} requires base "
                f"{expected.value} (got {spec.base.value}); set "
                f"allow_custom_pairing to override")
    sp = spec.safety_params
    if not (0.0 < sp.d_unsafe < sp.d_warn):
        raise ValidationError("safety invariant violated: 0 < d_unsafe < d_warn")
    if sp.sample_dt > spec.sim_params.dt:
        raise ValidationError("safety invariant violated: sample_dt <= dt")
    if spec.max_ticks < 1:
        raise ValidationError("max_ticks must be >= 1")
    if spec.grace_ticks < 0:
        raise ValidationError("grace_ticks must be >= 0")
    if spec.attack is not None and spec.attack.duration_ticks < 1:
        raise ValidationError("attack duration_ticks must be >= 1")
    if spec.attack is not None and spec.attack.max_activations < 0:
        raise ValidationError("attack max_activations must be >= 0")


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


_SECTIONS = ("scenario", "attack", "safety", "performance", "planner", "sim")


class _Section:
    """Typed accessors over one config section with invariant messages.

    Every accessor records the key it looked up, so ``reject_unread``
    can name a key the parser never asked for (a misspelling, say)
    instead of letting it fall back to its default without a word.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self._name = name
        self._data = dict(parser[name]) if parser.has_section(name) else {}
        self._read: set[str] = set()

    def _get(self, key: str) -> Optional[str]:
        self._read.add(key)
        return self._data.get(key)

    def reject_unread(self) -> None:
        unread = sorted(set(self._data) - self._read)
        if unread:
            raise ValidationError(f"[{self._name}] {unread[0]} is not a key "
                                  f"this section reads")

    def enum(self, key: str, aliases: dict, default):
        raw = self._get(key)
        if raw is None:
            return default
        value = aliases.get(raw.strip().lower())
        if value is None:
            raise ValidationError(
                f"[{self._name}] {key} = {raw!r} is not one of "
                f"{sorted(aliases)}")
        return value

    def number(self, key: str, default: float) -> float:
        raw = self._get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ValidationError(f"[{self._name}] {key} = {raw!r} "
                                  f"is not a number") from exc

    def integer(self, key: str, default: int) -> int:
        return int(self.number(key, default))

    def boolean(self, key: str, default: bool) -> bool:
        raw = self._get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValidationError(f"[{self._name}] {key} = {raw!r} is not a boolean")

    def text(self, key: str, default: str) -> str:
        raw = self._get(key)
        return default if raw is None else raw

    def has(self, key: str) -> bool:
        return key in self._data


def _parse_trigger(raw: str) -> tuple[TriggerKind, float]:
    kind_text, _, value_text = raw.partition(":")
    kinds = {k.value: k for k in TriggerKind}
    kind = kinds.get(kind_text.strip().lower())
    if kind is None:
        raise ValidationError(f"unknown trigger {kind_text!r}; expected one of "
                              f"{sorted(kinds)}")
    try:
        value = float(value_text) if value_text else 0.0
    except ValueError as exc:
        raise ValidationError(f"trigger value {value_text!r} is not a number") from exc
    return kind, value


def parse_scenario_file(text: str) -> ScenarioSpec:
    """Parse and validate a scenario document; defaults fill omissions."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(exc.lineno, "missing section header") from exc
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else 0
        raise ParseError(line, str(exc)) from exc

    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if name not in _SECTIONS:
            raise ValidationError(f"[{name}] is not a known section; expected "
                                  f"one of {sorted(_SECTIONS)}")
    sections = {name: _Section(parser, name) for name in _SECTIONS}

    scenario = sections["scenario"]
    base = scenario.enum("base", _BASE_ALIASES, ScenarioBase.NOMINAL)

    attack_section = sections["attack"]
    attack: Optional[AttackConfig] = None
    if parser.has_section("attack"):
        kind = attack_section.enum("kind", _ATTACK_ALIASES, None)
        if kind is None:
            raise ValidationError("[attack] kind is required")
        default = (default_ghost_attack() if kind == FaultKind.GHOST_OBSTACLE
                   else default_spoof_attack())
        trigger, trigger_value = default.trigger, default.trigger_value
        if attack_section.has("trigger"):
            trigger, trigger_value = _parse_trigger(attack_section.text("trigger", ""))
        ghost = GhostSpec(
            position=((attack_section.number("ghost_x_m", 0.0),
                       attack_section.number("ghost_y_m", 0.0))
                      if attack_section.has("ghost_x_m") else None))
        try:
            spoof = SpoofSpec(
                target_id=(attack_section.integer("spoof_target_id", 0)
                           if attack_section.has("spoof_target_id") else None),
                velocity_scale=attack_section.number("velocity_scale", 2.0),
                heading_bias=attack_section.number("heading_bias_rad", 0.0))
        except ValueError as exc:
            raise ValidationError(f"attack invariant violated: {exc}") from exc
        attack = AttackConfig(
            kind=kind, trigger=trigger, trigger_value=trigger_value,
            duration_ticks=attack_section.integer("duration_ticks",
                                                  default.duration_ticks),
            max_activations=attack_section.integer("max_activations",
                                                   default.max_activations),
            ghost=ghost, spoof=spoof)

    safety = sections["safety"]
    try:
        safety_params = SafetyParams(
            horizon=safety.number("horizon_s", 3.0),
            sample_dt=safety.number("sample_dt_s", 0.05),
            d_unsafe=safety.number("d_unsafe_m", 2.0),
            d_warn=safety.number("d_warn_m", 4.0),
            margin_speed_gain=safety.number("margin_speed_gain_s", 0.25))
    except ValueError as exc:
        raise ValidationError(f"safety invariant violated: {exc}") from exc

    performance = sections["performance"]
    try:
        perf = PerfThresholds(
            max_clearance=performance.number("max_clearance_s", 30.0),
            max_abs_accel=performance.number("max_abs_accel_mps2", 3.0),
            max_abs_jerk=performance.number("max_abs_jerk_mps3", 5.0))
    except ValueError as exc:
        raise ValidationError(f"performance invariant violated: {exc}") from exc

    planner = sections["planner"]
    try:
        planner_config = PlannerConfig(
            kind=planner.enum("kind", _PLANNER_ALIASES, PlannerKind.GAP_ACCEPTANCE),
            caution=planner.number("caution", 1.0),
            reaction_time=planner.number("reaction_time_s", 0.5))
    except ValueError as exc:
        raise ValidationError(f"planner invariant violated: {exc}") from exc

    sim_section = sections["sim"]
    sim_params = SimParams(
        dt=sim_section.number("dt_s", 0.1),
        sensing_range=sim_section.number("sensing_range_m", 60.0),
        a_brake_max=sim_section.number("a_brake_max_mps2", 8.0),
        a_accel_max=sim_section.number("a_accel_max_mps2", 3.0),
        perception_noise_std=sim_section.number("perception_noise_std_m", 0.0))

    spec = ScenarioSpec(
        id=scenario.text("id", base.value),
        base=base,
        attack=attack,
        ego_goal=scenario.enum("ego_goal", _GOAL_ALIASES, RouteGoal.STRAIGHT),
        max_ticks=scenario.integer("max_ticks", 600),
        grace_ticks=scenario.integer("grace_ticks", 10),
        allow_custom_pairing=scenario.boolean("allow_custom_pairing", False),
        safety_params=safety_params,
        perf_thresholds=perf,
        planner_config=planner_config,
        sim_params=sim_params)
    for section in sections.values():
        section.reject_unread()
    validate_spec(spec)
    return spec


def load_scenario_file(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_file(fh.read())


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
    "InvalidSpec",
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
