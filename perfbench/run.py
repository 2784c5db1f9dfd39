"""avguard campaign benchmark.

    python3 perfbench/run.py --workload campaign_serial --seed 0 --seconds 55 --trace 0

Runs one workload of the reference campaign (the six ``scenarios/*.ini``
files x 15 runs, ``base_seed = --seed``) from the ``src/`` tree next to
this directory, checks that the outputs are correct, prints every
metric by name with its unit, and prints as its last line one JSON
object: ``correct``, ``attempted`` and ``failed`` (runs) and
``metrics``. ``--trace 0`` reports the end-to-end metrics, measured with
no wrappers installed; ``--trace 1`` reports the per-layer metrics from
a traced pass that follows an untraced one. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
WORK = os.path.join(ROOT, ".perfbench_work")

RUNS_PER_SPEC = 15
SETUP_PAIRS = 15
LOAD_REPEATS = 5
REPORT_REPEATS = 3

# The measuring machine is a shared VM whose speed drifts by up to 2x
# within minutes, and wall and CPU times drift alike. So a fixed kernel
# that runs no avguard code is timed around every measured interval, and
# the end-to-end times are scaled to a machine on which one calibration
# takes CALIBRATION_REFERENCE_S (README.md, "Machine-speed calibration").
CALIBRATION_ROUNDS = 3
CALIBRATION_RECORDS = 1600
CALIBRATION_REFERENCE_S = 0.1
# Set-up is interpreter start-up and imports, which the kernel above
# does not track. Each set-up probe is paired with a fresh interpreter
# that only imports numpy, and set-up is scaled to a machine on which
# that takes INTERPRETER_REFERENCE_S.
INTERPRETER_REFERENCE_S = 0.1

# sha256 over the sorted (scenario_id, seed, trace_hash) lines of the
# reference campaign. A change here changes reference trace hashes,
# which a change must name and explain.
REFERENCE_DIGESTS = {
    0: "9d18da2a142c1ca4169f917ca7ec6bb65678b9f7d31f7441394f2f2d2ed1b5ee",
}


@dataclass(frozen=True)
class Workload:
    parallelism: int
    persist: bool  # write traces to out_dir, then rebuild the report


WORKLOADS = {
    # The tick path plus trace_hash, with no I/O and no pool, so tick-path
    # gains show undiluted.
    "campaign_serial": Workload(parallelism=1, persist=False),
    # The CLI flow `campaign --out --parallel 2` then `report`: the
    # campaign layer's process pool (dispatch, pickling, stragglers) and
    # the trace codec's write and read paths. The report phase runs no
    # tick-path code.
    "campaign_parallel": Workload(parallelism=2, persist=True),
}

END_TO_END = {
    "setup_s": "s",
    "ticks_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_PROBE = """
import time
start = time.perf_counter()
import os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import avguard
from avguard.scenario import load_scenario_file, validate_spec
paths = sorted(os.path.join(sys.argv[2], n) for n in os.listdir(sys.argv[2])
               if n.endswith(".ini"))
for spec in [load_scenario_file(p) for p in paths]:
    validate_spec(spec)
os.rmdir(tempfile.mkdtemp(dir=sys.argv[3]))
print(len(paths), time.perf_counter() - start)
"""

INTERPRETER_PROBE = """
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""


@dataclass
class Pass:
    """One run_campaign call, plus the report rebuilds that follow it."""

    campaign_s: float
    digest: str
    runs: int
    failed: int
    parent_cpu_s: float
    child_cpu_s: float
    summaries: list
    trace_bytes: int = 0
    trace_records: int = 0
    report_s: list[float] = field(default_factory=list)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scenario_paths() -> list[str]:
    return sorted(glob.glob(os.path.join(SCENARIOS, "*.ini")))


def campaign_digest(trace_hashes: dict) -> str:
    lines = sorted(f"{sid}\t{seed}\t{digest}"
                   for (sid, seed), digest in trace_hashes.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class _Record:
    tick: int
    position: tuple[float, float]
    velocity: tuple[float, float]
    note: str
    braking: bool


def _calibration_round() -> float:
    """Seconds for CALIBRATION_RECORDS rounds of what a tick spends its
    time on: two-element numpy arithmetic, a frozen record, asdict,
    sorted-key JSON and sha256."""
    start = time.perf_counter()
    digest = hashlib.sha256()
    for i in range(CALIBRATION_RECORDS):
        position = numpy.array([0.5 * i, 1.0 + i])
        velocity = numpy.array([2.0, -1.0])
        moved = position + 0.1 * velocity
        gap = float(numpy.hypot(*(moved - position)))
        accel = float(numpy.clip(numpy.dot(position, velocity), -3.0, 3.0))
        record = _Record(i, (float(moved[0]), float(moved[1])),
                         (float(velocity[0]), float(velocity[1])),
                         f"gap {gap:.3f}", accel < 0.0)
        digest.update(json.dumps(dataclasses.asdict(record),
                                 sort_keys=True).encode("utf-8"))
        sorted([(gap, i), (accel, i + 1), (-gap, i + 2)])
    return time.perf_counter() - start


def _calibrate(_: int = 0) -> float:
    return statistics.median(_calibration_round()
                             for _ in range(CALIBRATION_ROUNDS))


def calibration_s(workers: int) -> float:
    """Median round time of the calibration kernel, run at once in
    ``workers`` processes and averaged over them."""
    if workers == 1:
        return _calibrate()
    # Forked like the campaign's own pool workers; no other thread is
    # alive between passes, so forking is safe here.
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return statistics.fmean(pool.map(_calibrate, range(workers)))


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference speed, from the calibrations
    taken just before and just after."""
    return seconds * 2.0 * CALIBRATION_REFERENCE_S / (before + after)


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_pass(plan, workload: Workload, problems: list[str]) -> Pass:
    """Time one run_campaign call; for persisting workloads, measure the
    traces and rebuild the report from them."""
    from avguard import campaign, metrics

    out_dir = (tempfile.mkdtemp(prefix="out-", dir=WORK)
               if workload.persist else None)
    try:
        self_cpu = cpu_seconds(resource.RUSAGE_SELF)
        child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        result = campaign.run_campaign(plan, out_dir=out_dir)
        elapsed = time.perf_counter() - start
        failed = sum(s.failed for s in result.run_summaries)
        done = Pass(campaign_s=elapsed,
                    digest=campaign_digest(result.trace_hashes),
                    runs=len(result.run_summaries), failed=failed,
                    summaries=result.run_summaries,
                    parent_cpu_s=cpu_seconds(resource.RUSAGE_SELF) - self_cpu,
                    child_cpu_s=cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu)
        if failed:
            problems.append(f"{failed} runs failed")
        if out_dir is None:
            return done
        for path in glob.glob(os.path.join(out_dir, "*", "*")):
            done.trace_bytes += os.path.getsize(path)
            if path.endswith(".jsonl"):
                with open(path, "rb") as fh:
                    done.trace_records += fh.read().count(b"\n")
        expected = {fmt: metrics.render_report(result.summary, fmt)
                    for fmt in ("csv", "md")}
        for _ in range(REPORT_REPEATS):
            start = time.perf_counter()
            rebuilt = campaign.reaggregate_from_traces(out_dir)
            texts = {fmt: metrics.render_report(rebuilt, fmt)
                     for fmt in ("csv", "md")}
            done.report_s.append(time.perf_counter() - start)
            if texts != expected:
                problems.append("report rebuilt from traces differs "
                                "from the in-memory report")
        return done
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir)


def count_ticks(plan, summaries) -> int:
    """Ticks of every run, read off its summary; a run that ended in a
    collision is run again, untimed, to count its records. A failed run
    counts none."""
    from avguard import orchestrator
    from avguard.seeding import stable_mix

    ticks = 0
    index = 0
    for spec in plan.specs:
        for i in range(plan.runs_per_spec):
            summary = summaries[index]
            index += 1
            seed = stable_mix(plan.base_seed, spec.id, i)
            if summary.seed != seed or summary.scenario_id != spec.id:
                raise RuntimeError(f"run order changed at {spec.id}/{seed}")
            status = summary.termination.value
            if status == "cleared":
                ticks += round(summary.clearance_time_s / spec.sim_params.dt)
            elif status == "timeout":
                ticks += spec.max_ticks
            elif status == "collision":
                result = orchestrator.run_scenario(spec, seed, plan.options())
                ticks += len(result.records)
    return ticks


def probe(script: str, *args: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; its printed fields."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout.split()


def measure_setup() -> tuple[float, float]:
    """Set-up time scaled to the reference speed, and raw. Set-up is what
    a fresh interpreter spends importing avguard, loading and validating
    the scenario files, and creating a temp directory. Each set-up probe
    is followed by an interpreter probe; the scaled figure is the median
    ratio of the pairs, so drift slower than a pair cancels."""
    ratios, raw = [], []
    for _ in range(SETUP_PAIRS):
        loaded, seconds = probe(SETUP_PROBE, SRC, SCENARIOS, WORK)
        if int(loaded) != len(scenario_paths()):
            raise RuntimeError(f"setup probe loaded {loaded} scenario files")
        raw.append(float(seconds))
        ratios.append(raw[-1] / float(probe(INTERPRETER_PROBE)[0]))
    return (INTERPRETER_REFERENCE_S * statistics.median(ratios),
            statistics.median(raw))


def load_specs() -> tuple[list, float]:
    """The scenario specs, and the median time to load and validate them."""
    from avguard.scenario import load_scenario_file, validate_spec

    samples = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        specs = [load_scenario_file(p) for p in scenario_paths()]
        for spec in specs:
            validate_spec(spec)
        samples.append(time.perf_counter() - start)
    return specs, statistics.median(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child
    (pool workers, set-up probes); Linux reports KiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown".
    The ceiling keeps git from reporting a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit()}


def source_fingerprint() -> str:
    """Hash of everything the campaign digest depends on: the avguard
    sources, the scenario files and the runs per scenario."""
    h = hashlib.sha256(f"runs_per_spec={RUNS_PER_SPEC}\n".encode("utf-8"))
    for path in (sorted(glob.glob(os.path.join(SRC, "avguard", "*.py")))
                 + scenario_paths()):
        h.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_digest(args: argparse.Namespace, digest: str, problems: list[str]) -> None:
    """The digest must match every other workload's for this seed and
    source tree; a change to the recorded reference digest is flagged."""
    stamp = os.path.join(WORK, f"digest-{source_fingerprint()}-seed{args.seed}")
    for path in glob.glob(stamp + "-*.txt"):
        with open(path, encoding="utf-8") as fh:
            other = fh.read().strip()
        if other != digest:
            problems.append(f"campaign digest {digest} differs from "
                            f"{os.path.basename(path)}: {other}")
    with open(f"{stamp}-{args.workload}.txt", "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    reference = REFERENCE_DIGESTS.get(args.seed)
    if reference and reference != digest:
        print(f"WARNING: reference trace hashes changed: campaign digest for "
              f"seed {args.seed} is {digest}, recorded {reference}",
              file=sys.stderr)


def measure_end_to_end(args, workload: Workload, plan,
                       problems: list[str]) -> tuple[dict, dict, list[Pass]]:
    """Set-up probes, then whole passes for as long as another pass of
    the mean length still fits in ``--seconds`` (always at least one).
    Each pass sits between two calibrations; every figure is the median
    over its samples."""
    setup_s, setup_raw = measure_setup()
    calibrations = [calibration_s(plan.parallelism)]
    passes: list[Pass] = []
    reference_s: list[float] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(plan, workload, problems))
        calibrations.append(calibration_s(plan.parallelism))
        reference_s.append(to_reference(passes[-1].campaign_s, *calibrations[-2:]))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    ticks = count_ticks(plan, passes[0].summaries)
    values = {
        "setup_s": setup_s,
        "ticks_per_ref_s": statistics.median(ticks / s for s in reference_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"ticks": ticks,
             "setup_s_raw": setup_raw,
             "ticks_per_s": statistics.median(ticks / p.campaign_s for p in passes),
             "campaign_s": statistics.median(p.campaign_s for p in passes),
             "campaign_s_passes": [p.campaign_s for p in passes],
             "calibration_s": calibrations}
    if workload.persist:
        extra["trace_mb"] = statistics.median(p.trace_bytes for p in passes) / 1e6
        check_records(passes, ticks, problems)
        extra["report_s"] = statistics.median(s for p in passes for s in p.report_s)
    return values, extra, passes


def check_records(passes: list[Pass], ticks: int, problems: list[str]) -> None:
    for p in passes:
        if p.trace_records != ticks:
            problems.append(f"traces hold {p.trace_records} records, "
                            f"the runs made {ticks} ticks")


def measure_per_layer(args, workload: Workload, plan, load_s: float,
                      problems: list[str]) -> tuple[dict, dict, list[Pass]]:
    """An untraced pass, then the same pass with every layer wrapped,
    each between two calibrations."""
    from layers import TARGETS, span_metrics
    from spans import Recorder, Tracer

    calibrations = [calibration_s(plan.parallelism)]
    untraced = run_pass(plan, workload, problems)
    calibrations.append(calibration_s(plan.parallelism))
    ticks = count_ticks(plan, untraced.summaries)
    spool = tempfile.mkdtemp(prefix="spool-", dir=WORK)
    recorder = Recorder(spool)
    try:
        with Tracer(recorder, TARGETS):
            traced = run_pass(plan, workload, problems)
        calibrations.append(calibration_s(plan.parallelism))
        root = next(i for i, span in enumerate(recorder.spans)
                    if span[0] == "campaign.run_campaign")
        recorder.merge_spool(root)
    finally:
        shutil.rmtree(spool)
    untraced_ref_s = to_reference(untraced.campaign_s, *calibrations[0:2])
    traced_ref_s = to_reference(traced.campaign_s, *calibrations[1:3])
    roots = sum(span[0] == "campaign._execute_run" for span in recorder.spans)
    if roots != traced.runs:
        raise RuntimeError(f"traced {roots} of {traced.runs} runs; pool "
                           f"workers must be forked to inherit the wrappers")

    values = span_metrics(recorder.spans, recorder.counts)
    traced_ticks = sum(span[0] == "orchestrator.run_tick" for span in recorder.spans)
    if traced_ticks != ticks:
        problems.append(f"traced pass made {traced_ticks} ticks, "
                        f"the untraced pass {ticks}")
    if workload.persist:
        check_records([untraced, traced], ticks, problems)
    workers = plan.parallelism
    run_cpu = untraced.child_cpu_s if workers > 1 else untraced.parent_cpu_s
    values.update({
        "metrics.trace_bytes_per_record": (untraced.trace_bytes / untraced.trace_records
                                           if untraced.trace_records else 0.0),
        "scenario.load_ms": 1e3 * load_s,
        "campaign.pool_cpu_util": run_cpu / (workers * untraced.campaign_s),
        "campaign.parent_cpu_s": untraced.parent_cpu_s,
        "tracing_overhead_pct": 100.0 * (1.0 - untraced_ref_s / traced_ref_s),
        "report_s": statistics.median(untraced.report_s) if untraced.report_s else 0.0,
        "trace_mb": untraced.trace_bytes / 1e6,
    })
    recorder.write(os.path.join(
        WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    extra = {"ticks": ticks, "ticks_per_s_untraced": ticks / untraced.campaign_s,
             "ticks_per_s_traced": ticks / traced.campaign_s,
             "calibration_s": calibrations,
             "spans": len(recorder.spans)}
    return values, extra, [untraced, traced]


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "avguard")) or not scenario_paths():
        print(f"perfbench: no src/avguard or scenarios/*.ini under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    from avguard.campaign import CampaignPlan
    from layers import PER_LAYER

    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    specs, load_s = load_specs()
    plan = CampaignPlan(specs=specs, runs_per_spec=RUNS_PER_SPEC,
                        base_seed=args.seed,
                        parallelism=min(workload.parallelism, env["nproc"]))
    problems: list[str] = []
    if args.trace:
        values, extra, passes = measure_per_layer(args, workload, plan, load_s,
                                                  problems)
        units = PER_LAYER
    else:
        values, extra, passes = measure_end_to_end(args, workload, plan, problems)
        units = END_TO_END
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"campaign digest differs between passes: {sorted(digests)}")
    digest = passes[0].digest
    check_digest(args, digest, problems)
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed for p in passes)
    extra["failed_run_ratio"] = failed / attempted

    print(f"digest {digest}")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, value in extra.items():
        print(f"extra {name} = {value!r}")
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "digest": digest, "problems": problems,
                   "metrics": values, "extra": extra}, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
