"""Command-line surface: run, campaign, report, validate.

Exit codes: 0 success, 1 validation/parse error, 2 run failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import metrics
from .campaign import (
    CampaignPlan,
    _execute_run,
    reaggregate_from_traces,
    run_campaign,
)
from .metrics import render_report
from .orchestrator import RunOptions
from .scenario import ParseError, ValidationError, load_scenario_file

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUN_FAILURE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avguard",
        description="Deterministic multi-role V&V testbench for an AI "
                    "intersection planner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single scenario")
    run.add_argument("--scenario", required=True, help="scenario file")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True, help="output directory for traces")
    run.add_argument("--no-recovery", action="store_true")
    run.add_argument("--halt-on-violation", action="store_true")

    campaign = sub.add_parser("campaign", help="run a seeded campaign")
    campaign.add_argument("--scenario-dir", required=True,
                          help="directory of scenario files")
    campaign.add_argument("--runs", type=int, default=15)
    campaign.add_argument("--base-seed", type=int, default=0)
    campaign.add_argument("--out", required=True)
    campaign.add_argument("--report", required=True, help="report file path")
    campaign.add_argument("--format", choices=("csv", "md"), default="csv")
    campaign.add_argument("--parallel", type=int, default=1)
    campaign.add_argument("--no-recovery", action="store_true")

    report = sub.add_parser("report", help="re-aggregate persisted traces")
    report.add_argument("--traces", required=True)
    report.add_argument("--report", required=True)
    report.add_argument("--format", choices=("csv", "md"), default="csv")

    validate = sub.add_parser("validate", help="validate a scenario file")
    validate.add_argument("--scenario", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_scenario_file(args.scenario)
    options = RunOptions(recovery_enabled=not args.no_recovery,
                         halt_on_violation=args.halt_on_violation)
    summary, digest, ticks = _execute_run(spec, args.seed, options, args.out)
    if summary.failed:
        print(f"run failed: {summary.error}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"termination={summary.termination.value} ticks={ticks} "
          f"unsafe_ticks={summary.unsafe_tick_count} "
          f"collision={summary.collision} "
          f"clearance_s={summary.clearance_time_s} trace_hash={digest}")
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    files = sorted(f for f in os.listdir(args.scenario_dir)
                   if f.endswith((".ini", ".cfg", ".scenario", ".conf")))
    specs = [load_scenario_file(os.path.join(args.scenario_dir, f))
             for f in files]
    plan = CampaignPlan(specs=specs, runs_per_spec=args.runs,
                        base_seed=args.base_seed,
                        recovery_enabled=not args.no_recovery,
                        parallelism=args.parallel)
    result = run_campaign(plan, out_dir=args.out)
    text = render_report(result.summary, args.format)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    if any(s.failed for s in result.run_summaries):
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    summary = reaggregate_from_traces(args.traces)
    text = render_report(summary, args.format)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    load_scenario_file(args.scenario)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "campaign": _cmd_campaign,
                "report": _cmd_report, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError, metrics.MalformedTrace, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
