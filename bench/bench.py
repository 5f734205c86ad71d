"""Benchmark driver: every workload of BENCHMARK.json over at least three
seeds, one traced run per workload, tier-1 wall time with its 15 slowest
tests and the time of each acceptance criterion, written to
BENCH_<pr>.json, optionally beside the same for a parent revision.

    python3 bench/bench.py --pr 34 --parent HEAD~1     # writes BENCH_34.json

Run it from anywhere inside a checkout; it changes no file of the checkout
but the one it writes.  Each run is one subprocess
``python3 perfbench/run.py --workload W --seed S --seconds N`` of the tree
under test, N being BENCHMARK.json's run_seconds, whose standard output
begins with the environment block and ends with the result object
``{correct, attempted, failed, metrics}``.  The workloads alternate within
a seed.  With ``--parent REV`` the parent's tree is extracted with ``git
archive`` into a temporary directory, every workload run alternates
between the two trees, and tier-1 and the criteria run once in each, so
that both columns come from one session: wall times of different sessions
on a shared machine do not compare.  The head column is the checkout as
it stands; ``dirty`` says whether it differs from its commit.

Per workload and metric the file holds the median, the quartiles and the
raw values, and ``noisy`` when the runs' spread (max - min over the median)
exceeds the metric's bound in BENCHMARK.json; and the same of each run's
wall-clock timings (``wall_clock``, uncorrected by the speed probe) and of
the probe's speed factor over the timed call (``speed_factor_call``), so
that a gain in the corrected metrics can be told from one in wall time.
With a parent, ``deltas`` holds the relative change of each median from
the parent's, signed so that a positive delta is an improvement, the
wall-clock ones named ``wall_clock.<metric>``.

``layers`` holds, per workload, the per-layer metrics of one
``perfbench/run.py --trace 1`` run at seed 1 of each tree (alternating
trees), with the run's failed checks: a failed check is recorded, and a
run that prints no result is recorded as its error, without aborting the
file.  With a parent, each metric has its head/parent ratio, and
``slower`` names the layers more than 10% worse than the parent's.  The
overheads in RAW_LAYERS are reported raw, with no ratio and no flag.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# How the criteria of a tree are timed: in-process, by the tree's own
# acceptance.run_criteria, which reports each criterion's seconds.
CRITERIA_SCRIPT = (
    "import json\n"
    "from qtraj.acceptance import run_criteria\n"
    "print(json.dumps([{'id': r.cid, 'title': r.title, 'passed': r.passed, "
    "'seconds': r.seconds} for r in run_criteria()]))\n"
)


# Per-layer metrics that are the difference of two timings, each dominated
# by the machine's speed swings, and often negative: a ratio of them means
# nothing.
RAW_LAYERS = {"ensemble.overhead_ms", "trace.overhead_ms"}
# A layer is flagged when it is worse than the parent's by more than this.
LAYER_SLOWER = 0.10
TRACE_SEED = 1


# A line of pytest's --durations report: seconds, phase and test id.
DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)")


def parse_durations(stdout: str) -> list[dict]:
    """The slowest tests of a pytest run, in the order of its --durations
    report, as [{"seconds", "phase", "test"}]: the matching lines after the
    report's "slowest ... durations" heading, none without it."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if "slowest" in line and "durations" in line),
                 len(lines))
    return [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
            for m in map(DURATION.fullmatch, lines[start + 1:]) if m]


def parse_run(stdout: str) -> tuple[dict, dict, dict]:
    """(environment block, run report, result object) of the standard output
    of one perfbench/run.py run: its first JSON line, the line that holds
    the report (empty if none does) and its last."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not lines or "env" not in lines[0] or "metrics" not in lines[-1]:
        raise ValueError("not the output of perfbench/run.py:\n" + stdout[-2000:])
    report = next((line["report"] for line in lines if "report" in line), {})
    return lines[0]["env"], report, lines[-1]


def describe(values: list[float], bound: float | None) -> dict:
    """Median, quartiles and raw values of one metric's runs, and whether
    their spread exceeds bound (relative to the median)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    out = {"median": median, "q1": q1, "q3": q3, "values": values}
    if bound is not None:
        out["noisy"] = bool(median and (max(values) - min(values)) / abs(median) > bound)
    return out


def summarize(results: list[dict], bounds: dict) -> dict:
    """Per workload: the runs' correctness, each metric and each wall-clock
    timing described, and the speed factor of the timed calls, from results
    [{"workload", "seed", "result", "report"}] in run order."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload]
        metrics, wall = {}, {}
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            for name, value in run["report"].get("wall_clock", {}).items():
                wall.setdefault(name, []).append(value)
        factors = [run["report"]["speed_factor"]["call"] for run in runs
                   if "speed_factor" in run["report"]]
        out[workload] = {
            "seeds": [run["seed"] for run in runs],
            "correct": all(run["result"]["correct"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "metrics": {name: describe(values, bounds.get(name))
                        for name, values in sorted(metrics.items())},
            "wall_clock": {name: describe(values, bounds.get(name))
                           for name, values in sorted(wall.items())},
        }
        if factors:
            out[workload]["speed_factor_call"] = describe(factors, None)
    return out


def deltas(head: dict, parent: dict, better: dict) -> dict:
    """Relative change of each median from the parent's, positive where the
    head is better (better[name] is "higher" or "lower")."""
    out = {}
    for workload, summary in head.items():
        for group, prefix in (("metrics", ""), ("wall_clock", "wall_clock.")):
            for name, metric in summary.get(group, {}).items():
                base = parent.get(workload, {}).get(group, {}).get(name)
                if base is None or not base["median"] or name not in better:
                    continue
                change = (metric["median"] - base["median"]) / abs(base["median"])
                out.setdefault(workload, {})[prefix + name] = (
                    change if better[name] == "higher" else -change)
    return out


def run_workload(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def trace_summary(stdout: str, stderr: str = "") -> dict:
    """The per-layer metrics of one traced run, from its standard output,
    with its correctness and the names of its failed checks; a run that
    printed no result gives the end of its error output instead."""
    try:
        _, report, result = parse_run(stdout)
    except ValueError as exc:
        return {"error": stderr[-2000:] or str(exc)[-2000:]}
    return {"correct": result["correct"], "failed": result["failed"],
            "failed_checks": [c["name"] for c in report.get("checks", []) if not c["passed"]],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_trace(tree: Path, workload: str, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(TRACE_SEED),
         "--seconds", str(seconds), "--trace", "1"], cwd=tree, capture_output=True, text=True)
    return trace_summary(proc.stdout, proc.stderr)


def layers(traces: dict, better: dict) -> dict:
    """Per workload, each tree's traced run; with a parent, the head/parent
    ratio of each metric but RAW_LAYERS, and the metrics worse than the
    parent's by more than LAYER_SLOWER (better[name] is "higher" or
    "lower")."""
    out = {}
    for workload, runs in traces.items():
        out[workload] = dict(runs)
        head, parent = (runs.get(tag, {}).get("metrics") for tag in ("head", "parent"))
        if not (head and parent):
            continue
        ratios = {name: value / parent[name] for name, value in head.items()
                  if name not in RAW_LAYERS and parent.get(name)}
        out[workload]["ratios"] = ratios
        lower = {name for name in ratios if better.get(name) == "lower"}
        out[workload]["slower"] = sorted(
            name for name, r in ratios.items()
            if (r > 1 + LAYER_SLOWER if name in lower else r * (1 + LAYER_SLOWER) < 1))
    return out


def python_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}


def run_tier1(tree: Path) -> dict:
    """Wall time, summary line and 15 slowest tests of one tier-1 run of
    tree."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=15"], cwd=tree, env=python_env(tree),
        capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
            "durations": parse_durations(proc.stdout)}


def run_criteria(tree: Path) -> list[dict]:
    proc = subprocess.run([sys.executable, "-c", CRITERIA_SCRIPT], cwd=tree,
                          env=python_env(tree), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """The files of rev, extracted with git archive (no worktree is registered)."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def measure(trees: dict, workloads: list, seeds: list, seconds: int, log) -> dict:
    """Every run of every tree, alternating trees run by run (their order
    flips with each seed), then one traced run per workload and tree (the
    order flipping with each workload), then tier-1 and the criteria of
    each tree."""
    out = {tag: {"runs": [], "env": None, "traces": {}} for tag in trees}
    for k, seed in enumerate(seeds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for workload in workloads:
            for tag in order:
                env, report, result = run_workload(trees[tag], workload, seed, seconds)
                out[tag]["env"] = out[tag]["env"] or env
                kept = {key: report[key] for key in ("wall_clock", "speed_factor") if key in report}
                out[tag]["runs"].append({"workload": workload, "seed": seed, "result": result,
                                         "report": kept})
                log(f"{tag} {workload} seed {seed}: " + json.dumps(
                    {n: m["value"] for n, m in result["metrics"].items()}) + " wall " +
                    json.dumps(kept.get("wall_clock")))
    for k, workload in enumerate(workloads):
        for tag in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            trace = out[tag]["traces"][workload] = run_trace(trees[tag], workload, seconds)
            log(f"{tag} {workload} trace: " + json.dumps(trace))
    for tag in trees:
        out[tag]["tier1"] = run_tier1(trees[tag])
        log(f"{tag} tier-1: {out[tag]['tier1']}")
        out[tag]["criteria"] = run_criteria(trees[tag])
        log(f"{tag} criteria: " + json.dumps({c["id"]: round(c["seconds"], 2)
                                              for c in out[tag]["criteria"]}))
    return out


def report(measured: dict, spec: dict, revs: dict) -> dict:
    """The BENCH file's content from the measurements of each tree."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    columns = {}
    for tag, data in measured.items():
        columns[tag] = {"rev": revs[tag], "commit": commit_of(revs[tag]) if revs[tag] else None,
                        "env": data["env"], "workloads": summarize(data["runs"], bounds)}
        if tag == "head" and revs[tag]:
            columns[tag]["dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip())
        columns[tag].update({key: data[key] for key in ("tier1", "criteria") if key in data})
    out = {"command": "perfbench/run.py", **columns}
    traces = {}
    for tag, data in measured.items():
        for workload, trace in data.get("traces", {}).items():
            traces.setdefault(workload, {})[tag] = trace
    if traces:
        out["layers"] = layers(traces, better)
    if "parent" in columns:
        out["deltas"] = deltas(columns["head"]["workloads"], columns["parent"]["workloads"],
                               better)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="PR number; the file is BENCH_<pr>.json")
    p.add_argument("--parent", help="a revision to measure alternately, as the parent column")
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (at least 3)")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        p.error(f"give at least 3 seeds, got {args.seeds}")
    out = ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees, revs = {"head": ROOT}, {"head": "HEAD"}
        if args.parent:
            trees["parent"], revs["parent"] = extract(args.parent, Path(tmp) / "parent"), args.parent
        measured = measure(trees, workloads, seeds, spec["run_seconds"],
                           lambda line: print(line, file=sys.stderr, flush=True))
    result = report(measured, spec, revs)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
