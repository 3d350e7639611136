#!/usr/bin/env python3
"""Record a perf-trajectory point from a bench run (Table IV/V/VI).

Runs the selected bench with ``CONTANGO_JSON_OUT`` and **appends** the
machine-readable suite report to a checked-in trajectory file (default
``BENCH_<bench>.json`` at the repo root).  Each PR that wants to claim a
perf delta adds a labelled point; history is kept, so release-over-release
diffs show both what got faster and why (wall seconds, the
full/incremental evaluation split and the stage-evaluation count ride along
in every report).

Trajectory file format::

    {"type": "contango_bench_trajectory", "bench": "table5",
     "points": [{"label": ..., "config": {...}, "report": {...}}, ...]}

A pre-existing file in the old single-report format
(``{"type": "contango_suite_report", ...}``) is migrated in place as the
first point (label ``pre-trajectory``).  Re-running with an existing label
replaces that point instead of duplicating it.

Usage:
    python3 scripts/bench_snapshot.py [--bench table4|table5|table6]
                                      [--label pr6-batched]
                                      [--build-dir build] [--out FILE]
                                      [--max-sinks 2000] [--threads 1]
                                      [--scenario huge] [--seed 1]
                                      [--workloads mega_1m.cbench]
                                      [--repeat 3]

``--repeat N`` runs the bench N times (default 1).  With N > 1 the point
also holds ``repeats``: every run's wall seconds (the suite report's
``wall_seconds``) and peak RSS in MB (the bench process's own, from
``os.wait4``), with their medians; ``report`` is the first run's.  On a
shared host one run can swing by 20 %, so a point meant to resolve a
change of that size should take the median of several.

``--workloads`` (table5 only) runs a collect_workloads() spec — scenario
families, ``.bench``/``.cbench`` files, directories — instead of a sweep;
per-run ``load_seconds`` land in the report, so a text-vs-binary pair of
points (e.g. ``pr9-text`` vs ``pr9-binary``) separates parse/load cost
from flow cost.

Exit status is non-zero when the bench fails or a report is malformed.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

BENCH_BINARIES = {
    "table4": "bench_table4_contest",
    "table5": "bench_table5_scaling",
    "table6": "bench_table6_variation",
}


def load_trajectory(path: pathlib.Path, bench: str):
    """Read an existing trajectory (migrating the legacy format), or start one."""
    trajectory = {"type": "contango_bench_trajectory", "bench": bench, "points": []}
    if not path.exists():
        return trajectory
    with open(path) as f:
        existing = json.load(f)
    if existing.get("type") == "contango_bench_trajectory":
        if existing.get("bench") != bench:
            raise ValueError(
                f"{path} tracks bench {existing.get('bench')!r}, not {bench!r}")
        trajectory["points"] = existing.get("points", [])
    elif existing.get("type") == "contango_suite_report":
        # Legacy layout: the file *was* the raw report. Keep it as history.
        trajectory["points"] = [{"label": "pre-trajectory", "config": {},
                                 "report": existing}]
    else:
        raise ValueError(f"{path}: unrecognized snapshot format")
    return trajectory


def run_bench(bench: pathlib.Path, env: dict):
    """Run the bench once; returns (exit status, peak RSS in MB).

    os.wait4 reads the rusage of this child alone, so each run's peak RSS
    is its own, not the running maximum over every child so far."""
    child = subprocess.Popen([str(bench)], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    return child.returncode, usage.ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", choices=sorted(BENCH_BINARIES), default="table5",
                        help="which bench driver to snapshot (default table5)")
    parser.add_argument("--label", default="",
                        help="point label (default: current git short hash)")
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding the bench binaries")
    parser.add_argument("--out", default="",
                        help="trajectory file (default BENCH_<bench>.json)")
    parser.add_argument("--max-sinks", type=int, default=2000,
                        help="CONTANGO_MAX_SINKS for the table5 sweep")
    parser.add_argument("--threads", type=int, default=1,
                        help="CONTANGO_THREADS (1 = serial, reproducible timing)")
    parser.add_argument("--scenario", default="",
                        help="CONTANGO_SCENARIO for the table5 sweep: run a "
                             "registered scenario family (e.g. 'huge') instead "
                             "of the TI-style chip")
    parser.add_argument("--seed", type=int, default=1,
                        help="CONTANGO_SEED for --scenario instances")
    parser.add_argument("--workloads", default="",
                        help="CONTANGO_WORKLOADS spec for the table5 driver: "
                             "run exactly these workloads (family names, "
                             ".bench/.cbench files, directories) instead of "
                             "a sink-count sweep; records load_seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per point; with N > 1 the point records "
                             "every run's wall seconds and peak RSS and "
                             "their medians (default 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    build_dir = pathlib.Path(args.build_dir)
    bench = build_dir / BENCH_BINARIES[args.bench]
    if not bench.exists():
        print(f"bench_snapshot: {bench} not found — build the project first",
              file=sys.stderr)
        return 1

    out = pathlib.Path(args.out or f"BENCH_{args.bench}.json")
    label = args.label
    if not label:
        probe = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                               capture_output=True, text=True)
        label = probe.stdout.strip() if probe.returncode == 0 else "snapshot"

    raw = build_dir / f"{args.bench}_snapshot.json"
    env = dict(os.environ)
    env.update({
        "CONTANGO_THREADS": str(args.threads),
        "CONTANGO_JSON_OUT": str(raw),
    })
    if args.bench == "table5":
        env["CONTANGO_MAX_SINKS"] = str(args.max_sinks)
    if args.bench != "table6":
        # Timing points exclude the optional MC pass unless the caller
        # exported CONTANGO_MC_TRIALS; table6 *is* the MC bench.
        env.setdefault("CONTANGO_MC_TRIALS", "0")
    if args.scenario:
        env["CONTANGO_SCENARIO"] = args.scenario
        env["CONTANGO_SEED"] = str(args.seed)
    if args.workloads:
        env["CONTANGO_WORKLOADS"] = args.workloads
        env["CONTANGO_SEED"] = str(args.seed)

    config = {
        "binary": BENCH_BINARIES[args.bench],
        "threads": args.threads,
    }
    if args.bench == "table5":
        config["max_sinks"] = args.max_sinks
        if args.scenario:
            config["scenario"] = args.scenario
            config["seed"] = args.seed
        if args.workloads:
            config["workloads"] = args.workloads
            config["seed"] = args.seed
    if args.repeat > 1:
        config["repeat"] = args.repeat

    report = None
    walls, rss = [], []
    for i in range(args.repeat):
        print(f"bench_snapshot: running {bench} "
              f"(threads={args.threads}, run {i + 1}/{args.repeat})")
        status, peak_mb = run_bench(bench, env)
        if status != 0:
            print(f"bench_snapshot: {BENCH_BINARIES[args.bench]} failed",
                  file=sys.stderr)
            return status
        with open(raw) as f:
            run_report = json.load(f)
        if (run_report.get("type") != "contango_suite_report"
                or not run_report.get("runs")):
            print("bench_snapshot: malformed suite report", file=sys.stderr)
            return 1
        report = report or run_report
        walls.append(run_report["wall_seconds"])
        rss.append(peak_mb)

    try:
        trajectory = load_trajectory(out, args.bench)
    except ValueError as e:
        print(f"bench_snapshot: {e}", file=sys.stderr)
        return 1
    trajectory["points"] = [p for p in trajectory["points"]
                            if p.get("label") != label]
    point = {"label": label, "config": config, "report": report}
    if args.repeat > 1:
        point["repeats"] = {
            "wall_seconds": walls,
            "peak_rss_mb": rss,
            "median_wall_seconds": statistics.median(walls),
            "median_peak_rss_mb": statistics.median(rss),
        }
    trajectory["points"].append(point)

    with open(out, "w") as f:
        json.dump(trajectory, f, indent=1, sort_keys=False)
        f.write("\n")

    print(f"bench_snapshot: wrote point '{label}' to {out} "
          f"({len(trajectory['points'])} point(s) total) — "
          f"{len(report['runs'])} run(s), "
          f"{statistics.median(walls):.1f} s wall (median of {len(walls)}), "
          f"{report['total_sim_runs']} sims, "
          f"{report.get('total_batched_stage_evals', 0)} stage evals")
    return 0


if __name__ == "__main__":
    sys.exit(main())
