#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds per workload and
report each end-to-end metric's spread against its bound, next to the
spread of the uncorrected wall-clock timings.

    python3 perfbench/steady.py --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per (seed, workload), each in a fresh process,
one at a time, rotating the workload order from seed to seed so slow phases
of the machine spread over all workloads.  The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.  Raw
results go to ``.perfbench_runs/steady-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = p.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for k, seed in enumerate(args.seeds):
        order = args.workloads[k % len(args.workloads):] + args.workloads[:k % len(args.workloads)]
        for w in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
            report = next(line["report"] for line in lines if "report" in line)
            result = lines[-1]
            results[w].append({"seed": seed, **result, "wall_clock": report["wall_clock"]})
            values = {m: round(v["value"], 6) for m, v in result["metrics"].items()}
            print(f"{w:16s} seed {seed:3d} correct={result['correct']} {values}", flush=True)

    out = ROOT / ".perfbench_runs" / f"steady-{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    ok = True
    print(f"\n{'workload':16s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          f" {'wall-clock spread':>18s}")
    for w, runs in results.items():
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(vals)
            raw = [r["wall_clock"].get(metric["name"]) for r in runs]
            raw_s = f"{spread(raw):18.4f}" if None not in raw else " " * 18
            flag = "" if s < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{w:16s} {metric['name']:12s} {statistics.median(vals):12.6g} "
                  f"{s:8.4f} {metric['bound']:6.2f} {raw_s}{flag}")
    print(f"\nall runs correct: {ok}; raw results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
