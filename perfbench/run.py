#!/usr/bin/env python3
"""qtraj benchmark entry point.

    python3 perfbench/run.py --workload jump-lattice --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports qtraj from the
checkout's ``src`` directory and writes scratch files under
``.perfbench_runs``.  ``--trace 0`` times the workload's CLI call and prints
the end-to-end metrics; ``--trace 1`` runs the traced layer drive and prints
the per-layer metrics.  Run detail goes to standard output as JSON lines (the
environment block, then the run report); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Exit code 0 after a completed run (its correctness is in the result), 2 when
an argument is invalid or the checkout holds no qtraj sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from envinfo import environment, pin_blas_threads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
HASH_SEED = "0"


def parse_args(argv):
    p = argparse.ArgumentParser(description="qtraj benchmark: one run of one workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20, help="run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing salts dictionary layouts per process, which moves
        # interpreter-bound timings by several percent from run to run.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    args = parse_args(argv)
    if not (SRC / "qtraj" / "__init__.py").is_file():
        print(f"error: no qtraj sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    env = environment()
    emit({"env": env})

    w = WORKLOADS[args.workload]
    mode = "trace" if args.trace else "e2e"
    workdir = RUNS / f"{mode}-{w.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            from tracing import run_trace

            report = run_trace(w, args.seed, args.seconds, workdir,
                               RUNS / f"spans-{w.name}-{args.seed}.json")
        else:
            from e2e import run_e2e

            report = run_e2e(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {k: v for k, v in report.items() if k != "metrics"}
    emit({"report": detail, "loadavg_end": list(os.getloadavg())})
    emit({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
