"""End-to-end run of one workload: the timed CLI call and its oracle gate.

Order within a run, all under one :class:`speed.SpeedProbe`:

1. One warm-up model build, then a block of timed builds (below).
2. The timed call: one in-process ``qtraj.cli.main([...])`` with the
   workload's specification; ``traj_per_s`` is trajectories per second of
   that whole call (spec resolution, model build, ensemble, aggregation and
   file writes).
3. ``oracle_s``: the median over repeated ``qtraj master`` calls for the
   same model and sample times, each followed by a block of timed builds.
   Every repeat must write the same bytes.
4. The gate (``gate.run_checks``) and the SHA-256 digest of the run's files.
5. ``peak_rss_mb``: ``ru_maxrss`` of the process.

``setup_s`` is one model build through the public API (preset, meter, engine
configuration).  The builds take ``SETUP_SHARE`` of the run length, split
into blocks spread over the run so that they see the machine in many states;
a block's value is the median build time, corrected by the probe samples of
that block, and ``setup_s`` is the median over blocks.

The three timings are corrected to the machine's uncontended speed by the
probe; the report also carries them as measured on the wall clock.

An operation is one CLI call.  A call fails when it exits non-zero or raises;
the timed call also fails when any gate check fails, and an oracle repeat
fails when its bytes differ from the first repeat's.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from qtraj import cli

from gate import Check, digest, run_checks
from model import build_config
from speed import SpeedProbe
from workloads import Workload, oracle_spec, run_spec

SETUP_SHARE = 0.05
MIN_SETUP_REPEATS_PER_BLOCK = 11


def setup_block(probe: SpeedProbe, w: Workload, seed: int, budget_s: float):
    """Build the model repeatedly for ``budget_s``; returns (median wall time
    of one build, the probe's speed factor over the block, number of builds)."""
    builds = []
    with probe.region() as rec:
        t_end = time.perf_counter() + budget_s
        while len(builds) < MIN_SETUP_REPEATS_PER_BLOCK or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            build_config(w, seed)
            builds.append(time.perf_counter() - t0)
    return statistics.median(builds), probe.speed_factor(rec), len(builds)


def cli_call(probe: SpeedProbe, spec: dict, spec_path: Path, out_dir: Path):
    """Run one CLI experiment in-process; returns (exit code, timed region)."""
    spec_path.write_text(json.dumps(spec, sort_keys=True))
    argv = [spec["experiment"], "--spec", str(spec_path), "--out", str(out_dir)]
    with probe.region() as rec:
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, rec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_e2e(w: Workload, seed: int, seconds: float, workdir: Path,
            n_traj: int | None = None, oracle_repeats: int | None = None) -> dict:
    """One end-to-end run; returns the report with metrics, checks and digest."""
    n_traj = w.n_traj(seconds) if n_traj is None else n_traj
    oracle_repeats = w.oracle_repeats(seconds) if oracle_repeats is None else oracle_repeats
    workdir.mkdir(parents=True, exist_ok=True)
    run_dir = workdir / "run"

    block_s = SETUP_SHARE * seconds / (oracle_repeats + 1)
    with SpeedProbe() as probe:
        build_config(w, seed)
        setup = [setup_block(probe, w, seed, block_s)]
        rc, call = cli_call(probe, run_spec(w, seed, n_traj), workdir / "run.spec.json", run_dir)
        oracles = []
        oracle_digests = []
        for k in range(oracle_repeats):
            out = workdir / f"oracle-{k}"
            orc, rec = cli_call(probe, oracle_spec(w, seed), workdir / "oracle.spec.json", out)
            oracles.append(rec)
            oracle_digests.append(digest(out) if orc == 0 else None)
            if k > 0 and orc == 0:
                shutil.rmtree(out)
            setup.append(setup_block(probe, w, seed, block_s))
    oracle_failed = sum(1 for dg in oracle_digests if dg is None or dg != oracle_digests[0])

    checks = [Check("exit", rc == 0, f"timed call exit code {rc}"),
              Check("oracle-exit", oracle_digests[0] is not None, "first oracle call succeeded")]
    if all(c.passed for c in checks):
        checks += run_checks(w, run_dir, workdir / "oracle-0")
    run_ok = all(c.passed for c in checks)

    metrics = {
        "traj_per_s": {"value": n_traj / probe.corrected(call), "unit": "1/s"},
        "setup_s": {"value": statistics.median(t * f for t, f, _ in setup), "unit": "s"},
        "oracle_s": {"value": statistics.median(probe.corrected(r) for r in oracles),
                     "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return {
        "workload": w.name,
        "seed": seed,
        "n_traj": n_traj,
        "oracle_repeats": oracle_repeats,
        "setup_blocks": len(setup),
        "setup_builds": sum(n for _, _, n in setup),
        "wall_clock": {
            "traj_per_s": n_traj / call.wall,
            "setup_s": statistics.median(t for t, _, _ in setup),
            "oracle_s": statistics.median(r.wall for r in oracles),
        },
        "speed_factor": {"setup": statistics.median(f for _, f, _ in setup),
                         "call": probe.speed_factor(call)},
        "probe_samples": len(probe.samples),
        "probe_mean_us": 1e6 * probe.mean_sample_s(),
        "digest": digest(run_dir) if rc == 0 else None,
        "oracle_digest": oracle_digests[0],
        "checks": [c.__dict__ for c in checks],
        "attempted": 1 + oracle_repeats,
        "failed": (0 if run_ok else 1) + oracle_failed,
        "metrics": metrics,
    }
