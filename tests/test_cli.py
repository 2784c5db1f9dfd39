"""Command-line surface: subcommands, outputs, and exit codes."""

import hashlib
import json
import os

import pytest

from avguard.cli import EXIT_INVALID, EXIT_OK, EXIT_RUN_FAILURE, main
from avguard.metrics import render_report, summarize_campaign
from avguard.orchestrator import run_scenario
from avguard.scenario import load_scenario_file

NOMINAL_INI = """\
[scenario]
id = nominal
base = nominal
"""

CONGESTED_INI = """\
[scenario]
id = congested
base = congested
"""

BAD_PAIRING_INI = """\
[scenario]
base = congested

[attack]
kind = ghost
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "nominal.ini"
    path.write_text(NOMINAL_INI)
    return str(path)


@pytest.fixture
def scenario_dir(tmp_path):
    d = tmp_path / "scenarios"
    d.mkdir()
    (d / "01_nominal.ini").write_text(NOMINAL_INI)
    (d / "02_congested.ini").write_text(CONGESTED_INI)
    return str(d)


class TestValidate:
    def test_valid_file(self, scenario_file, capsys):
        assert main(["validate", "--scenario", scenario_file]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_invalid_pairing(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BAD_PAIRING_INI)
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.ini")
        assert main(["validate", "--scenario", missing]) == EXIT_INVALID

    def test_misspelled_key(self, tmp_path, capsys):
        path = tmp_path / "typo.ini"
        path.write_text(NOMINAL_INI + "max_tick = 5\n")
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert "[scenario] max_tick" in capsys.readouterr().err

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[scenario]\nbase = nominal\nnot a key value\n")
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID

    def test_decode_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[scenario]\nid = caf\xe9\n")
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("section, key", [
        # Each spec used to validate, then crash every run's monitor: the
        # ghost's separation overflowed to inf, and the spoofed velocity
        # made it NaN.
        ("[attack]\nkind = ghost\nghost_x_m = -1.7e308\n"
         "ghost_y_m = -1.7e308\n", "ghost_x_m"),
        ("[attack]\nkind = ghost\nghost_x_m = 2.5\nghost_y_m = 200.5\n",
         "ghost_y_m"),
        ("[scenario]\nbase = congested\n[attack]\nkind = spoof\n"
         "velocity_scale = 1e308\n", "velocity_scale"),
    ])
    def test_attack_out_of_range(self, tmp_path, capsys, section, key):
        path = tmp_path / "attack.ini"
        path.write_text(section)
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: [attack]") and key in err

    def test_sample_grid_too_fine(self, tmp_path, capsys):
        # 3 s / 1e-7 s is 3e7 samples: this spec used to validate, then
        # took 12.5 s and 1.6 GB for one 72-tick run.
        path = tmp_path / "fine.ini"
        path.write_text(NOMINAL_INI + "[safety]\nsample_dt_s = 1e-7\n")
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample_dt" in err


class TestInputErrors:
    """An input that cannot be read is an ``error:`` line and exit 1."""

    @pytest.mark.parametrize("case", ["validate_directory", "validate_not_utf8",
                                      "report_on_a_file", "campaign_on_a_file"])
    def test_unreadable_input(self, scenario_file, tmp_path, capsys, case):
        not_utf8 = tmp_path / "utf16.ini"
        not_utf8.write_bytes(b"\xff\xfe" + NOMINAL_INI.encode("utf-16-le"))
        report = ["--report", str(tmp_path / "r.csv")]
        argv = {
            "validate_directory": ["validate", "--scenario", str(tmp_path)],
            "validate_not_utf8": ["validate", "--scenario", str(not_utf8)],
            "report_on_a_file": ["report", "--traces", scenario_file, *report],
            "campaign_on_a_file": ["campaign", "--scenario-dir", scenario_file,
                                   "--out", str(tmp_path / "o"), *report],
        }[case]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error:")


class TestRun:
    def test_writes_trace_and_reports_outcome(self, scenario_file, tmp_path,
                                              capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", out])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "termination=" in printed
        trace = os.path.join(out, "nominal", "5.jsonl")
        assert os.path.exists(trace)
        with open(trace, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["tick"] == 0

    def test_no_recovery_flag(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", out, "--no-recovery"])
        assert code == EXIT_OK
        with open(os.path.join(out, "nominal", "5.jsonl"),
                  encoding="utf-8") as fh:
            for line in fh:
                assert not json.loads(line)["recovery_active"]


    def test_failed_run_leaves_a_failed_sidecar(self, scenario_file,
                                                tmp_path, capsys, monkeypatch):
        """A run that raises exits 2 and, as in a campaign, leaves a
        sidecar, so ``report`` counts it in its failed column."""
        import avguard.campaign as campaign_mod

        def broken(spec, seed, options):
            raise RuntimeError("injected role fault")

        monkeypatch.setattr(campaign_mod, "run_scenario", broken)
        out = tmp_path / "out"
        code = main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_RUN_FAILURE
        assert capsys.readouterr().err == (
            "run failed: RuntimeError: injected role fault\n")
        meta = json.loads((out / "nominal" / "5.run.json").read_text())
        assert meta["failed"] is True
        assert not (out / "nominal" / "5.jsonl").exists()
        assert main(["report", "--traces", str(out),
                     "--report", str(tmp_path / "r.csv")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == \
            "nominal,0,0.0,0.0,,,0,1"

    def test_run_output_can_be_reaggregated(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", out]) == EXIT_OK
        report = str(tmp_path / "r.csv")
        assert main(["report", "--traces", out, "--report", report]) == EXIT_OK
        result = run_scenario(load_scenario_file(scenario_file), 5)
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
        assert len(text.splitlines()) == 2  # header + the run's row
        assert text == render_report(summarize_campaign([result.summary]))


class TestCampaignAndReport:
    def test_campaign_then_identical_report(self, scenario_dir, tmp_path,
                                            capsys):
        out = str(tmp_path / "traces")
        report_a = str(tmp_path / "campaign.csv")
        code = main(["campaign", "--scenario-dir", scenario_dir,
                     "--runs", "2", "--base-seed", "3", "--out", out,
                     "--report", report_a])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        with open(report_a, encoding="utf-8") as fh:
            text = fh.read()
        assert printed == text
        assert text.splitlines()[0].startswith("scenario,")
        assert len(text.splitlines()) == 3  # header + two scenario rows

        report_b = str(tmp_path / "reaggregated.csv")
        code = main(["report", "--traces", out, "--report", report_b])
        assert code == EXIT_OK
        with open(report_b, encoding="utf-8") as fh:
            assert fh.read() == text

    def test_markdown_format(self, scenario_dir, tmp_path):
        out = str(tmp_path / "traces")
        report = str(tmp_path / "campaign.md")
        code = main(["campaign", "--scenario-dir", scenario_dir,
                     "--runs", "1", "--out", out, "--report", report,
                     "--format", "md"])
        assert code == EXIT_OK
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("| Scenario |")
        assert "**Overall Avg.**" in text

    def test_empty_scenario_dir_is_invalid(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["campaign", "--scenario-dir", str(empty),
                     "--out", str(tmp_path / "o"),
                     "--report", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID

    def test_report_on_missing_traces_dir(self, tmp_path):
        code = main(["report", "--traces", str(tmp_path / "nope"),
                     "--report", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID

    def test_report_on_a_directory_with_no_run_is_invalid(self, scenario_file,
                                                          tmp_path, capsys):
        out = tmp_path / "traces"
        assert main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = tmp_path / "r.csv"
        code = main(["report", "--traces", str(out / "nominal"),
                     "--report", str(report)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no run found" in err
        assert not report.exists()

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--runs", "-2"],
                                       ["--parallel", "0"],
                                       ["--parallel", "-3"]])
    def test_campaign_that_runs_nothing_is_invalid(self, scenario_dir,
                                                   tmp_path, capsys, flags):
        out, report = tmp_path / "o", tmp_path / "r.csv"
        code = main(["campaign", "--scenario-dir", scenario_dir,
                     "--out", str(out), "--report", str(report), *flags])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not report.exists()

    def test_report_on_a_cut_trace_is_invalid(self, scenario_dir, tmp_path,
                                              capsys):
        out = tmp_path / "traces"
        assert main(["campaign", "--scenario-dir", scenario_dir,
                     "--runs", "1", "--out", str(out),
                     "--report", str(tmp_path / "a.csv")]) == EXIT_OK
        trace = next((out / "nominal").glob("*.jsonl"))
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:-1]))
        capsys.readouterr()
        code = main(["report", "--traces", str(out),
                     "--report", str(tmp_path / "b.csv")])
        assert code == EXIT_INVALID
        assert "sidecar" in capsys.readouterr().err

    def test_report_on_a_trace_without_sidecar_is_invalid(self, scenario_file,
                                                          tmp_path, capsys):
        out = tmp_path / "traces"
        assert main(["campaign", "--scenario-dir", str(tmp_path),
                     "--runs", "2", "--out", str(out),
                     "--report", str(tmp_path / "a.csv")]) == EXIT_OK
        traces = sorted((out / "nominal").glob("*.jsonl"))
        assert len(traces) == 2
        traces[0].with_suffix(".run.json").unlink()
        capsys.readouterr()
        code = main(["report", "--traces", str(out),
                     "--report", str(tmp_path / "b.csv")])
        assert code == EXIT_INVALID
        assert str(traces[0]) in capsys.readouterr().err

    def test_duplicate_scenario_id_is_invalid(self, scenario_dir, tmp_path,
                                              capsys):
        with open(os.path.join(scenario_dir, "03_twin.ini"), "w",
                  encoding="utf-8") as fh:
            fh.write(CONGESTED_INI.replace("id = congested", "id = nominal"))
        out = tmp_path / "o"
        code = main(["campaign", "--scenario-dir", scenario_dir,
                     "--runs", "1", "--out", str(out),
                     "--report", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'nominal'" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["cut", "termination", "no_ticks",
                                        "threshold"])
    def test_report_on_a_damaged_sidecar_is_invalid(self, scenario_file,
                                                    tmp_path, capsys, damage):
        out = tmp_path / "out"
        assert main(["run", "--scenario", scenario_file, "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        sidecar = out / "nominal" / "5.run.json"
        text = sidecar.read_text()
        meta = json.loads(text)
        if damage == "cut":
            text = text[:100]
        else:
            if damage == "termination":
                meta["termination"] = "exploded"
            elif damage == "no_ticks":
                (out / "nominal" / "5.jsonl").write_bytes(b"")
                meta.update(ticks=0, trace_hash=hashlib.sha256().hexdigest())
            else:
                meta["max_clearance"] = 0.0
            text = json.dumps(meta)
        sidecar.write_text(text)
        capsys.readouterr()
        code = main(["report", "--traces", str(out),
                     "--report", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(sidecar) in err

    def test_failed_run_exit_code(self, scenario_dir, tmp_path, monkeypatch):
        import avguard.cli as cli_mod
        from avguard.campaign import CampaignResult
        from avguard.metrics import RunSummary, summarize_campaign

        def fake_run_campaign(plan, out_dir=None):
            summaries = [RunSummary.failed_run(spec.id, 0, "RuntimeError: x")
                         for spec in plan.specs]
            return CampaignResult(summary=summarize_campaign(summaries),
                                  run_summaries=summaries)

        monkeypatch.setattr(cli_mod, "run_campaign", fake_run_campaign)
        code = main(["campaign", "--scenario-dir", scenario_dir,
                     "--out", str(tmp_path / "o"),
                     "--report", str(tmp_path / "r.csv")])
        assert code == EXIT_RUN_FAILURE
