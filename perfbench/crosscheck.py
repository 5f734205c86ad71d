#!/usr/bin/env python3
"""Cross-check layer costs against the baseline table in ROADMAP.md.

    python3 perfbench/crosscheck.py

Measures, on the two-level preset the table used: ``evolve_jump`` (T=1,
nu=5, normalized) per trajectory, the batched density kernel (M=2, through a
one-chunk ``run_ensemble``) per path-step, and ``evolve_coupled_sse`` per
step, each as the median of repeats, and prints the ratio to the table's
figure.  A ratio outside [0.5, 2] needs an explanation.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layer cost -> figure in the ROADMAP baseline table.
BASELINE = {
    "evolve_jump two-level ms/traj": 0.28,
    "density kernel M=2 ns/path-step": 600.0,
    "evolve_coupled_sse us/step": 9.0,
}


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from qtraj import (DiffusionConfig, JumpConfig, StateVector, evolve_coupled_sse,
                       evolve_jump, get_preset, preset_meter, run_ensemble)

    preset = get_preset("two-level")
    meter = preset_meter(preset)
    eta = StateVector(np.ones(2, dtype=complex) / np.sqrt(2))
    times = np.linspace(0.1, 1.0, 10)
    R = {"R": preset.R.entries}

    jcfg = JumpConfig(H=preset.H, meter=meter, nu=preset.nu)
    n_jump = 200
    jump_ms = _median_time(
        lambda: [evolve_jump(jcfg, eta, 1.0, index=i) for i in range(n_jump)], 5) / n_jump * 1e3

    dcfg = DiffusionConfig(H=preset.H, R=preset.R, gamma=preset.gamma, pointer=meter.pointer,
                           dt=1e-3, M=2)
    rho0 = np.kron(np.outer(eta.amps, eta.amps.conj()), np.outer(eta.amps, eta.amps.conj()))
    n_paths = 512
    dens_ns = _median_time(
        lambda: run_ensemble(dcfg, rho0, 1.0, n_paths, sample_times=times, equation="density"),
        3) / (n_paths * 1000) * 1e9

    ccfg = DiffusionConfig(H=preset.H, R=preset.R, gamma=preset.gamma, pointer=meter.pointer,
                           dt=1e-3)
    coupled_us = _median_time(
        lambda: evolve_coupled_sse(ccfg, eta, 1.0, record_times=times), 50) / 1000 * 1e6

    measured = dict(zip(BASELINE, (jump_ms, dens_ns, coupled_us)))
    print(f"{'layer':34s} {'ROADMAP':>9s} {'measured':>9s} {'ratio':>6s}")
    for key, base in BASELINE.items():
        ratio = measured[key] / base
        flag = "" if 0.5 <= ratio <= 2.0 else "  <-- gap above 2x"
        print(f"{key:34s} {base:9.3f} {measured[key]:9.3f} {ratio:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
