"""Scenario file parsing, validation, and the reference catalog."""

import re
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avguard.config import (
    AttackConfig,
    FaultKind,
    PerfThresholds,
    PlannerConfig,
    PlannerKind,
    RouteGoal,
    SafetyParams,
    ScenarioBase,
    SimParams,
    TriggerKind,
)
from avguard.scenario import (
    _KEYS,
    MIN_D_UNSAFE,
    ParseError,
    ScenarioSpec,
    ValidationError,
    default_ghost_attack,
    default_spoof_attack,
    load_scenario_file,
    parse_scenario_file,
    reference_specs,
    spawn_scenario,
    validate_spec,
)


REPO = Path(__file__).resolve().parents[1]


def parse(text):
    return parse_scenario_file(textwrap.dedent(text))


def with_key(section, key, value):
    """A valid file, but for ``key = value`` in ``section``."""
    text = "[scenario]\nallow_custom_pairing = true\n"
    if section != "scenario":
        text += f"[{section}]\n"
    if section == "attack":
        text += "kind = ghost\n"
    return text + f"{key} = {value}\n"


class TestDefaults:
    def test_minimal_file_gets_all_defaults(self):
        spec = parse("""
            [scenario]
            base = nominal
        """)
        assert spec.base == ScenarioBase.NOMINAL
        assert spec.attack is None
        assert spec.ego_goal == RouteGoal.STRAIGHT
        assert spec.max_ticks == 600
        assert spec.grace_ticks == 10
        assert spec.safety_params.horizon == 3.0
        assert spec.safety_params.sample_dt == 0.05
        assert spec.safety_params.d_unsafe == 2.0
        assert spec.safety_params.d_warn == 4.0
        assert spec.perf_thresholds.max_clearance == 30.0
        assert spec.perf_thresholds.max_abs_accel == 3.0
        assert spec.perf_thresholds.max_abs_jerk == 5.0
        assert spec.sim_params.dt == 0.1
        assert spec.sim_params.sensing_range == 60.0
        assert spec.planner_config.caution == 1.0

    def test_unit_suffixed_keys(self):
        spec = parse("""
            [scenario]
            base = nominal

            [safety]
            d_unsafe_m = 1.5
            d_warn_m = 5.0
            horizon_s = 2.0

            [performance]
            max_clearance_s = 45.0

            [sim]
            dt_s = 0.05
            sensing_range_m = 80.0
        """)
        assert spec.safety_params.d_unsafe == 1.5
        assert spec.safety_params.d_warn == 5.0
        assert spec.safety_params.horizon == 2.0
        assert spec.perf_thresholds.max_clearance == 45.0
        assert spec.sim_params.dt == 0.05
        assert spec.sim_params.sensing_range == 80.0


class TestAttackParsing:
    def test_ghost_attack_section(self):
        spec = parse("""
            [scenario]
            base = nominal

            [attack]
            kind = ghost
            trigger = ego_within:20
            duration_ticks = 80
            max_activations = 1
        """)
        assert spec.attack is not None
        assert spec.attack.kind == FaultKind.GHOST_OBSTACLE
        assert spec.attack.trigger == TriggerKind.EGO_WITHIN_DISTANCE
        assert spec.attack.trigger_value == 20.0
        assert spec.attack.duration_ticks == 80
        assert spec.attack.max_activations == 1

    def test_spoof_attack_section(self):
        spec = parse("""
            [scenario]
            base = congested

            [attack]
            kind = spoof
            trigger = periodic:1
            velocity_scale = 2.0
        """)
        assert spec.attack.kind == FaultKind.TRAJECTORY_SPOOF
        assert spec.attack.trigger == TriggerKind.PERIODIC
        assert spec.attack.velocity_scale == 2.0

    def test_at_tick_trigger(self):
        spec = parse("""
            [scenario]
            base = nominal
            allow_custom_pairing = true

            [attack]
            kind = spoof
            trigger = at_tick:50
        """)
        assert spec.attack.trigger == TriggerKind.AT_TICK
        assert spec.attack.trigger_value == 50.0


class TestValidation:
    def test_ghost_requires_nominal_base(self):
        with pytest.raises(ValidationError):
            parse("""
                [scenario]
                base = congested

                [attack]
                kind = ghost
            """)

    def test_spoof_requires_congested_base(self):
        with pytest.raises(ValidationError):
            parse("""
                [scenario]
                base = nominal

                [attack]
                kind = spoof
            """)

    def test_custom_pairing_override(self):
        spec = parse("""
            [scenario]
            base = congested
            allow_custom_pairing = true

            [attack]
            kind = ghost
        """)
        assert spec.base == ScenarioBase.CONGESTED
        assert spec.attack.kind == FaultKind.GHOST_OBSTACLE

    def test_d_unsafe_must_be_below_d_warn(self):
        with pytest.raises(ValidationError):
            parse("""
                [scenario]
                base = nominal

                [safety]
                d_unsafe_m = 5.0
                d_warn_m = 4.0
            """)

    @pytest.mark.parametrize("d_unsafe, valid", [(0.3, False), (0.5, True)])
    def test_d_unsafe_must_cover_the_disc_model_gap(self, d_unsafe, valid):
        text = f"""
            [scenario]
            base = nominal

            [safety]
            d_unsafe_m = {d_unsafe}
        """
        if valid:
            assert parse(text).safety_params.d_unsafe == d_unsafe
        else:
            with pytest.raises(ValidationError, match="d_unsafe_m >= 0.472"):
                parse(text)

    def test_sample_dt_cannot_exceed_dt(self):
        with pytest.raises(ValidationError):
            parse("""
                [scenario]
                base = nominal

                [safety]
                sample_dt_s = 0.2
            """)

    def test_max_ticks_must_be_positive(self):
        with pytest.raises(ValidationError):
            parse("""
                [scenario]
                base = nominal
                max_ticks = 0
            """)

    def test_negative_max_activations_rejected(self):
        # Would otherwise read as "cap already reached": an attack that
        # never fires.
        with pytest.raises(ValidationError, match="max_activations"):
            parse("""
                [scenario]
                base = nominal

                [attack]
                kind = ghost
                max_activations = -1
            """)

    def test_validate_spec_accepts_defaults(self):
        validate_spec(ScenarioSpec())

    @pytest.mark.parametrize("bad_id", ["", ".", "..", "../escaped",
                                        "sub/dir", "/abs", "a\\b"])
    def test_id_that_is_not_one_directory_name_rejected(self, bad_id):
        """The id names the run's directory under a campaign's out_dir:
        one that leaves it, or nests in it, would put runs where the
        report never looks."""
        with pytest.raises(ValidationError) as err:
            parse_scenario_file(f"[scenario]\nid = {bad_id}\n")
        assert repr(bad_id) in str(err.value)
        with pytest.raises(ValidationError):
            validate_spec(ScenarioSpec(id=bad_id))


class TestParseErrors:
    def test_garbage_line_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_scenario_file("[scenario]\nbase = nominal\ngarbage line\n")
        assert err.value.line == 3

    def test_key_before_section(self):
        with pytest.raises(ParseError):
            parse_scenario_file("base = nominal\n")

    @pytest.mark.parametrize("text, line, named", [
        ("[scenario]\nmax_ticks = 5\nmax_ticks = 6\n", 3,
         "[scenario] max_ticks is given twice"),
        ("[scenario]\nbase = nominal\n[safety]\n[scenario]\n", 4,
         "[scenario] is given twice"),
    ])
    def test_repeat_is_a_line_numbered_error(self, text, line, named):
        with pytest.raises(ParseError) as err:
            parse_scenario_file(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {named}"

    def test_percent_is_literal(self):
        assert parse_scenario_file("[scenario]\nid = 100%\n").id == "100%"
        assert parse_scenario_file(
            "[scenario]\nid = %(base)s\n").id == "%(base)s"

    def test_bad_number(self):
        with pytest.raises((ParseError, ValidationError)):
            parse("""
                [scenario]
                base = nominal
                max_ticks = lots
            """)

    @pytest.mark.parametrize("section, key, word, value", [
        ("scenario", "base", "nominal", ScenarioBase.NOMINAL),
        ("scenario", "base", "congested", ScenarioBase.CONGESTED),
        ("scenario", "base", "conflicting_traffic",
         ScenarioBase.CONFLICTING_TRAFFIC),
        ("scenario", "base", "conflicting", ScenarioBase.CONFLICTING_TRAFFIC),
        ("scenario", "base", "pedestrian_crossing",
         ScenarioBase.PEDESTRIAN_CROSSING),
        ("scenario", "base", "pedestrian", ScenarioBase.PEDESTRIAN_CROSSING),
        ("scenario", "ego_goal", "straight", RouteGoal.STRAIGHT),
        ("scenario", "ego_goal", "left_turn", RouteGoal.LEFT_TURN),
        ("scenario", "ego_goal", "left", RouteGoal.LEFT_TURN),
        ("scenario", "ego_goal", "right_turn", RouteGoal.RIGHT_TURN),
        ("scenario", "ego_goal", "right", RouteGoal.RIGHT_TURN),
        ("attack", "kind", "ghost_obstacle", FaultKind.GHOST_OBSTACLE),
        ("attack", "kind", "ghost", FaultKind.GHOST_OBSTACLE),
        ("attack", "kind", "trajectory_spoof", FaultKind.TRAJECTORY_SPOOF),
        ("attack", "kind", "spoof", FaultKind.TRAJECTORY_SPOOF),
        ("planner", "kind", "gap_acceptance", PlannerKind.GAP_ACCEPTANCE),
        ("planner", "kind", "over_cautious", PlannerKind.OVER_CAUTIOUS),
        ("planner", "kind", "overcautious", PlannerKind.OVER_CAUTIOUS),
        ("planner", "kind", "aggressive", PlannerKind.AGGRESSIVE),
    ])
    def test_every_accepted_word(self, section, key, word, value):
        """Each word an enum key accepts, and the value it reads as."""
        text = "[scenario]\nallow_custom_pairing = true\n"
        text += "" if section == "scenario" else f"[{section}]\n"
        spec = parse_scenario_file(f"{text}{key} = {word}\n")
        got = {"base": spec.base, "ego_goal": spec.ego_goal,
               "attack": spec.attack and spec.attack.kind,
               "planner": spec.planner_config.kind}
        assert got[key if section == "scenario" else section] == value

    def test_unknown_base(self):
        with pytest.raises((ParseError, ValidationError)):
            parse("""
                [scenario]
                base = motorway
            """)

    def test_bad_trigger_syntax(self):
        with pytest.raises((ParseError, ValidationError)):
            parse("""
                [scenario]
                base = nominal

                [attack]
                kind = ghost
                trigger = whenever
            """)

    @pytest.mark.parametrize("text, named", [
        ("[scenario]\nbase = nominal\nmax_tick = 5\n", "[scenario] max_tick"),
        ("[safety]\nd_unsafe = 3\n", "[safety] d_unsafe"),
    ])
    def test_misspelled_key_is_rejected(self, text, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            parse_scenario_file(text)

    @pytest.mark.parametrize("given_key, missing", [
        ("ghost_y_m", "ghost_x_m"), ("ghost_x_m", "ghost_y_m")])
    def test_ghost_position_needs_both_keys(self, given_key, missing):
        with pytest.raises(ValidationError,
                           match=re.escape(f"{missing} is missing")):
            parse_scenario_file(with_key("attack", given_key, "4"))

    def test_misspelled_section_is_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("[atack]")):
            parse("""
                [scenario]
                base = nominal

                [atack]
                kind = ghost
            """)

    def test_attack_without_kind_is_rejected(self):
        with pytest.raises(ValidationError, match="kind is required"):
            parse("""
                [scenario]
                base = nominal

                [attack]
                trigger = at_tick:5
            """)

    def test_bad_spoof_value_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="velocity_scale"):
            parse("""
                [scenario]
                base = congested

                [attack]
                kind = spoof
                velocity_scale = -1
            """)


class TestNumbers:
    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "max_ticks", "600.9"),
        ("attack", "duration_ticks", "1.5"),
        ("attack", "spoof_target_id", "2.7"),
    ])
    def test_integer_key_rejects_a_fraction(self, section, key, value):
        with pytest.raises(ValidationError, match=re.escape(
                f"[{section}] {key} = '{value}' is not a whole number")):
            parse_scenario_file(with_key(section, key, value))

    def test_integer_key_takes_a_whole_float(self):
        spec = parse_scenario_file(with_key("scenario", "max_ticks", "6e2"))
        assert spec.max_ticks == 600 and type(spec.max_ticks) is int

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "max_ticks", "nan"),
        ("scenario", "max_ticks", "inf"),
        ("safety", "horizon_s", "nan"),
        ("sim", "dt_s", "-inf"),
        ("attack", "trigger", "ego_within:nan"),
        ("attack", "trigger", "at_tick:inf"),
    ])
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ValidationError, match=re.escape(
                f"[{section}] {key} = '{value}' is not a finite number")):
            parse_scenario_file(with_key(section, key, value))


class TestRanges:
    @pytest.mark.parametrize("section, key, value, named", [
        ("safety", "horizon_s", "-1", "horizon"),
        ("safety", "sample_dt_s", "0", "sample_dt"),
        ("safety", "margin_speed_gain_s", "-0.5", "margin_speed_gain"),
        ("sim", "dt_s", "0", "dt"),
        ("sim", "sensing_range_m", "-5", "sensing_range"),
        ("sim", "a_brake_max_mps2", "-8", "a_brake_max"),
        ("sim", "a_accel_max_mps2", "0", "a_accel_max"),
        ("sim", "perception_noise_std_m", "-1", "perception_noise_std"),
        ("planner", "reaction_time_s", "-0.1", "reaction_time"),
        ("attack", "duration_ticks", "0", "duration_ticks"),
        ("attack", "trigger", "periodic:0", "trigger periodic"),
        ("attack", "trigger", "at_tick:5.7", "trigger at_tick"),
        ("attack", "trigger", "ego_within:-1", "trigger ego_within"),
    ])
    def test_out_of_range_value_rejected(self, section, key, value, named):
        with pytest.raises(ValidationError,
                           match=re.escape(f"[{section}] {named} ")):
            parse_scenario_file(with_key(section, key, value))


def _floats(lo, hi, away=None):
    return st.floats(lo, hi).filter(lambda v: v != away)


def _away(strategy, default):
    return strategy.filter(lambda v: v != default)


@st.composite
def _specs(draw):
    """A valid spec, attack included, with every field off its default."""
    kind = draw(st.sampled_from(list(FaultKind)))
    base = (default_ghost_attack() if kind == FaultKind.GHOST_OBSTACLE
            else default_spoof_attack())
    trigger = draw(_away(st.sampled_from(list(TriggerKind)), base.trigger))
    trigger_value = draw(_away(
        _floats(0.0, 100.0) if trigger == TriggerKind.EGO_WITHIN_DISTANCE
        else st.integers(1 if trigger == TriggerKind.PERIODIC else 0, 1000),
        base.trigger_value))
    attack = AttackConfig(
        kind=kind, trigger=trigger, trigger_value=trigger_value,
        duration_ticks=draw(_away(st.integers(1, 500), base.duration_ticks)),
        max_activations=draw(_away(st.integers(0, 9), base.max_activations)),
        ghost_position=(draw(_floats(-50.0, 50.0)), draw(_floats(-50.0, 50.0))),
        spoof_target_id=draw(st.integers(0, 50)),
        velocity_scale=draw(_floats(0.01, 10.0, 2.0)),
        heading_bias=draw(_floats(-3.0, 3.0, 0.0)))
    d_unsafe = draw(_floats(MIN_D_UNSAFE, 5.0, 2.0))
    d_warn = d_unsafe + draw(_floats(0.01, 5.0))
    assume(d_warn != 4.0)
    dt = draw(_floats(0.01, 1.0, 0.1))
    base_kind = draw(_away(st.sampled_from(list(ScenarioBase)),
                           ScenarioBase.NOMINAL))
    return ScenarioSpec(
        id=draw(_away(st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True),
                      base_kind.value)),
        base=base_kind,
        attack=attack,
        ego_goal=draw(_away(st.sampled_from(list(RouteGoal)),
                            RouteGoal.STRAIGHT)),
        max_ticks=draw(_away(st.integers(1, 5000), 600)),
        grace_ticks=draw(_away(st.integers(0, 100), 10)),
        allow_custom_pairing=True,
        safety_params=SafetyParams(
            horizon=draw(_floats(0.1, 10.0, 3.0)),
            sample_dt=draw(_floats(0.001, dt, 0.05)),
            d_unsafe=d_unsafe, d_warn=d_warn,
            margin_speed_gain=draw(_floats(0.0, 2.0, 0.25))),
        perf_thresholds=PerfThresholds(
            max_clearance=draw(_floats(1.0, 100.0, 30.0)),
            max_abs_accel=draw(_floats(0.1, 10.0, 3.0)),
            max_abs_jerk=draw(_floats(0.1, 10.0, 5.0))),
        planner_config=PlannerConfig(
            kind=draw(_away(st.sampled_from(list(PlannerKind)),
                            PlannerKind.GAP_ACCEPTANCE)),
            caution=draw(_floats(0.1, 5.0, 1.0)),
            reaction_time=draw(_floats(0.0, 3.0, 0.5))),
        sim_params=SimParams(
            dt=dt,
            sensing_range=draw(_floats(1.0, 200.0, 60.0)),
            a_brake_max=draw(_floats(0.5, 20.0, 8.0)),
            a_accel_max=draw(_floats(0.5, 10.0, 3.0)),
            perception_noise_std=draw(_floats(0.01, 2.0))))


def _as_ini(spec):
    """Every key of every section, spelled out here rather than taken
    from the parser's table, so a key mapped to the wrong field shows."""
    a, safety, perf = spec.attack, spec.safety_params, spec.perf_thresholds
    planner, sim = spec.planner_config, spec.sim_params
    sections = {
        "scenario": {
            "id": spec.id, "base": spec.base.value,
            "ego_goal": spec.ego_goal.value, "max_ticks": spec.max_ticks,
            "grace_ticks": spec.grace_ticks,
            "allow_custom_pairing": str(spec.allow_custom_pairing).lower()},
        "attack": {
            "kind": a.kind.value,
            "trigger": f"{a.trigger.value}:{a.trigger_value}",
            "duration_ticks": a.duration_ticks,
            "max_activations": a.max_activations,
            "ghost_x_m": a.ghost_position[0],
            "ghost_y_m": a.ghost_position[1],
            "spoof_target_id": a.spoof_target_id,
            "velocity_scale": a.velocity_scale,
            "heading_bias_rad": a.heading_bias},
        "safety": {
            "horizon_s": safety.horizon, "sample_dt_s": safety.sample_dt,
            "d_unsafe_m": safety.d_unsafe, "d_warn_m": safety.d_warn,
            "margin_speed_gain_s": safety.margin_speed_gain},
        "performance": {
            "max_clearance_s": perf.max_clearance,
            "max_abs_accel_mps2": perf.max_abs_accel,
            "max_abs_jerk_mps3": perf.max_abs_jerk},
        "planner": {
            "kind": planner.kind.value, "caution": planner.caution,
            "reaction_time_s": planner.reaction_time},
        "sim": {
            "dt_s": sim.dt, "sensing_range_m": sim.sensing_range,
            "a_brake_max_mps2": sim.a_brake_max,
            "a_accel_max_mps2": sim.a_accel_max,
            "perception_noise_std_m": sim.perception_noise_std},
    }
    assert ({name: set(keys) for name, keys in sections.items()}
            == {name: set(keys) for name, keys in _KEYS.items()})
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in keys.items())
                   for name, keys in sections.items())


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=_specs())
    def test_every_key_reaches_its_field(self, spec):
        assert parse_scenario_file(_as_ini(spec)) == spec


class TestReferenceFiles:
    @pytest.mark.parametrize("path", sorted((REPO / "scenarios").glob("*.ini")),
                             ids=lambda p: p.name)
    def test_file_parses_to_its_reference_spec(self, path):
        spec = load_scenario_file(str(path))
        assert spec == {s.id: s for s in reference_specs()}[spec.id]

    def test_readme_block_lists_the_defaults(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        ghost = next(s for s in reference_specs() if s.id == "ghost_attack")
        assert parse_scenario_file(block) == ghost


class TestReferenceCatalog:
    def test_six_scenarios_with_expected_pairings(self):
        specs = reference_specs()
        assert len(specs) == 6
        by_id = {s.id: s for s in specs}
        assert len(by_id) == 6
        ghost = next(s for s in specs
                     if s.attack and s.attack.kind == FaultKind.GHOST_OBSTACLE)
        spoof = next(s for s in specs
                     if s.attack and s.attack.kind == FaultKind.TRAJECTORY_SPOOF)
        assert ghost.base == ScenarioBase.NOMINAL
        assert spoof.base == ScenarioBase.CONGESTED
        for spec in specs:
            validate_spec(spec)

    def test_specs_spawn(self):
        for spec in reference_specs():
            world = spawn_scenario(spec, seed=0)
            assert world.clock.tick == 0
            assert world.agents
