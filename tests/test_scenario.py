"""Scenario file parsing, validation, and the reference catalog."""

import re
import textwrap
from pathlib import Path

import pytest

from avguard.attacks import TriggerKind
from avguard.scenario import (
    ParseError,
    ScenarioSpec,
    ValidationError,
    load_scenario_file,
    parse_scenario_file,
    reference_specs,
    spawn_scenario,
    validate_spec,
)
from avguard.sim import ScenarioBase
from avguard.state import FaultKind, RouteGoal


REPO = Path(__file__).resolve().parents[1]


def parse(text):
    return parse_scenario_file(textwrap.dedent(text))


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
        assert spec.attack.spoof.velocity_scale == 2.0

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


class TestParseErrors:
    def test_garbage_line_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_scenario_file("[scenario]\nbase = nominal\ngarbage line\n")
        assert err.value.line == 3

    def test_key_before_section(self):
        with pytest.raises(ParseError):
            parse_scenario_file("base = nominal\n")

    def test_bad_number(self):
        with pytest.raises((ParseError, ValidationError)):
            parse("""
                [scenario]
                base = nominal
                max_ticks = lots
            """)

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
        ("[scenario]\nbase = nominal\n[attack]\nkind = ghost\n"
         "ghost_y_m = 4\n", "[attack] ghost_y_m"),
    ])
    def test_misspelled_key_is_rejected(self, text, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            parse_scenario_file(text)

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
