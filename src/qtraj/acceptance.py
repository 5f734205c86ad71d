"""Executable acceptance criteria.

Each criterion is a self-contained check with pinned tolerances; the CLI
selftest prints the pass/fail table of all of them, and the test suite
asserts all of them.  Monte-Carlo criteria use fixed seeds, so a failing run
is reproducible bit for bit.  Criteria 3, 4, 7 and 8 run their ensembles
on worker processes on every usable CPU, since ensemble statistics do not
depend on the worker count.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import DiffusionConfig, mean_field_evolve
from .ensemble import (
    MasterConfig,
    jump_to_diffusion_bridge,
    master_generator,
    mean_field_limit_error,
    rk4_solve,
    run_ensemble,
    usable_cpus,
)
from .errors import ValidationError
from .jumps import JumpConfig
from .linalg import DensityMatrix, HermitianOperator, StateVector, kron_power, propagator, slot_sum
from .manybody import (
    ManyBodyConfig,
    _densities,
    _mixing_batch,
    entropy_after_first_event,
    mixing_brute_force_oracle,
    mixing_reduction,
    permutation_defect,
)
from .meter import build_gaussian_meter, gaussian_pointer, sharp_projections
from .presets import get_preset, preset_meter, two_atoms, two_level
from .rng import stream

SEED = 20260810


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _product_density(eta: StateVector, M: int) -> DensityMatrix:
    return StateVector(kron_power(eta.amps, M)).density()


def _uniform_state(d: int) -> StateVector:
    return StateVector(np.ones(d, dtype=complex) / math.sqrt(d))


def criterion_1() -> tuple[bool, str]:
    """Outcome-family completeness for the two-level and lattice presets."""
    defects = []
    for preset in (two_level(), get_preset("lattice-particle", d=8)):
        meter = preset_meter(preset, n_points=1024)
        defects.append(meter.povm_defect)
    ok = all(d <= 1e-6 for d in defects)
    return ok, f"completeness defects: {defects[0]:.2e}, {defects[1]:.2e} (tol 1e-6)"


def criterion_2() -> tuple[bool, str]:
    """Sharp-meter projection family: idempotent, orthogonal, complete."""
    rng = stream(SEED, 2)
    d = 8
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    R = HermitianOperator((A + A.conj().T) / 2.0)
    projs = sharp_projections(R, kappa=0.5)
    worst = 0.0
    total = np.zeros((d, d), dtype=complex)
    items = list(projs.items())
    for i, (_, E) in enumerate(items):
        worst = max(worst, float(np.max(np.abs(E @ E - E))))
        total += E
        for j in range(i + 1, len(items)):
            worst = max(worst, float(np.max(np.abs(E @ items[j][1]))))
    worst = max(worst, float(np.max(np.abs(total - np.eye(d)))))
    return worst <= 1e-12, f"max projection defect {worst:.2e} (tol 1e-12, {len(items)} cells)"


def criterion_3() -> tuple[bool, str]:
    """Mean-square normalization of the linear jump unravelling."""
    preset = two_level()
    R = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
    meter = build_gaussian_meter(0.3, R)
    cfg = JumpConfig(H=preset.H, meter=meter, nu=5.0, seed=SEED + 3, mode="linear")
    stats = run_ensemble(cfg, _uniform_state(2), T=1.0, n_traj=20000, sample_times=[1.0],
                         n_workers=usable_cpus())
    dev = abs(stats.weight_mean[0] - 1.0)
    bound = 3.0 * stats.weight_se[0]
    return dev <= bound, f"|E||chi||^2 - 1| = {dev:.2e} vs 3*SE = {bound:.2e} (n=20000)"


def _within_3se_of_oracle(stats, obs, mcfg: MasterConfig, rho0) -> tuple[bool, float]:
    """Whether every Monte-Carlo mean of stats (T = 1) lies within 3 SE of
    Tr(X rho) along the RK4 solution of mcfg's master equation from rho0
    (dt = 1e-3), and the largest |MC - oracle| / (3 SE)."""
    _, rhos = rk4_solve(master_generator(mcfg), rho0, 1.0, 1e-3,
                        record_times=stats.sample_times)
    ok = True
    worst = 0.0
    for o, name in enumerate(stats.names):
        exact = np.einsum("ij,nji->n", obs[name], rhos).real
        dev = np.abs(stats.obs_mean[:, o] - exact)
        bound = 3.0 * stats.obs_se[:, o]
        ok = ok and bool(np.all(dev <= bound))
        worst = max(worst, float(np.max(dev / np.maximum(bound, 1e-300))))
    return ok, worst


def _criterion_4_scenario(H: HermitianOperator, label: str, seed: int) -> tuple[bool, str]:
    d = 4
    R = HermitianOperator(np.diag([-1.5, -0.5, 0.5, 1.5]).astype(complex))
    meter = build_gaussian_meter(0.3, R)
    cfg = JumpConfig(H=H, meter=meter, nu=5.0, seed=seed, mode="normalized")
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = proj[0, 1] = proj[1, 0] = proj[1, 1] = 0.5
    obs = {"R": R.entries, "coherence": proj}
    times = np.linspace(0.1, 1.0, 10)
    eta = _uniform_state(d)
    stats = run_ensemble(cfg, eta, T=1.0, n_traj=20000, observables=obs, sample_times=times,
                         n_workers=usable_cpus())
    ok, worst = _within_3se_of_oracle(stats, obs, MasterConfig.from_jump(cfg), eta.density())
    return ok, f"{label}: max |MC - master| / (3 SE) = {worst:.2f}"


def criterion_4() -> tuple[bool, str]:
    """Jump unravelling reproduces the averaged master equation."""
    R_diag = np.diag([-1.5, -0.5, 0.5, 1.5]).astype(complex)
    H_comm = HermitianOperator(0.4 * R_diag @ R_diag - 0.3 * R_diag)
    hop = np.zeros((4, 4), dtype=complex)
    for j in range(3):
        hop[j, j + 1] = hop[j + 1, j] = -1.0
    ok1, d1 = _criterion_4_scenario(H_comm, "[R,H]=0", SEED + 41)
    ok2, d2 = _criterion_4_scenario(HermitianOperator(hop), "[R,H]!=0", SEED + 42)
    return ok1 and ok2, f"{d1}; {d2}"


def criterion_5() -> tuple[bool, str]:
    """Label-average oracle equals the iterated mixing reduction."""
    preset = two_atoms()
    rng = stream(SEED, 5)
    worst = 0.0
    for M in (2, 3):
        meter = preset_meter(preset)
        cfg = ManyBodyConfig(M=M, d=2, H_single=preset.H, meter=meter, nu=preset.nu)
        v = rng.standard_normal(2 ** M) + 1j * rng.standard_normal(2 ** M)
        rho = StateVector(v).density()
        lams = [float(x) for x in rng.uniform(-1.0, 1.3, size=4)]
        oracle = mixing_brute_force_oracle(cfg, rho, lams).entries
        iterated = rho.entries
        for lam in lams:
            iterated = mixing_reduction(cfg, iterated, lam).entries
        worst = max(worst, float(np.max(np.abs(oracle - iterated))))
    return worst <= 1e-10, f"max |oracle - iterated| = {worst:.2e} (tol 1e-10, n=4 events)"


def criterion_6() -> tuple[bool, str]:
    """Many-body density trajectory properties at M=2."""
    preset = two_atoms()
    meter = preset_meter(preset)
    cfg = ManyBodyConfig(M=2, d=2, H_single=preset.H, meter=meter, nu=3.0, seed=SEED + 6)
    eta = StateVector(np.array([0.8, 0.6j]))
    rho0 = _product_density(eta, 2)
    times = np.linspace(0.1, 1.0, 10)
    n_traj = 5000
    # One batch, whose rows equal run_trajectories' bit for bit and keep their final rows.
    cols = _mixing_batch(cfg, rho0, 1.0, "linear", range(n_traj), times)
    finals = _densities(*cfg._mixing_basis[1:3], cols.states, cols.log_weight)
    traces = np.exp(cols.log_weight)
    counts = cols.counts.astype(float)
    min_eig = float(np.min(cols.min_eig))
    max_defect = max(permutation_defect(rho, 2, 2) for rho in finals)
    t_mean = float(np.mean(traces))
    t_se = float(np.std(traces, ddof=1) / math.sqrt(n_traj))
    c_mean = float(np.mean(counts))
    c_se = float(np.std(counts, ddof=1) / math.sqrt(n_traj))
    psi2 = StateVector(kron_power(eta.amps, 2)).normalized()
    ent = entropy_after_first_event(cfg, psi2, 0.4)
    checks = {
        "min_eig": min_eig >= -1e-10,
        "trace": abs(t_mean - 1.0) <= 3.0 * t_se,
        "defect": max_defect <= 1e-9,
        "count": abs(c_mean - 6.0) <= 3.0 * c_se,
        "entropy": ent > 1e-6,
    }
    detail = (
        f"min_eig={min_eig:.1e}, |E tr - 1|={abs(t_mean - 1.0):.1e} (3SE={3 * t_se:.1e}), "
        f"defect={max_defect:.1e}, count={c_mean:.3f} vs 6 (3SE={3 * c_se:.2e}), "
        f"entropy@1st={ent:.2e}"
    )
    return all(checks.values()), detail


def criterion_7() -> tuple[bool, str]:
    """Mean-one martingale of the linear diffusive state equation: within
    3 SE at dt = 1e-4; at dt = 1e-3 within 3 SE plus the a-priori Euler bias
    bound expm1(T dt ||D||^2), D = (1/2) (gamma/hbar)^2 sigma^2 R^2."""
    preset = two_level()
    pointer = gaussian_pointer(1024, 6.0)
    R = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
    eta = _uniform_state(2)
    T = 1.0
    results = {}
    for dt in (1e-3, 1e-4):
        cfg = DiffusionConfig(H=preset.H, R=R, gamma=1.0, pointer=pointer,
                              dt=dt, seed=SEED + 7)
        stats = run_ensemble(cfg, eta, T=T, n_traj=10000, sample_times=[T],
                             n_workers=usable_cpus(), equation="linear")
        results[dt] = (float(stats.weight_mean[0]), float(stats.weight_se[0]))
    m3, se3 = results[1e-3]
    m4, se4 = results[1e-4]
    r_max = float(np.max(np.abs(np.linalg.eigvalsh(R.entries))))
    d_norm = 0.5 * (cfg.gamma / cfg.hbar) ** 2 * cfg.noise.sigma2 * r_max ** 2
    bias = math.expm1(T * 1e-3 * d_norm ** 2)
    fine_ok = abs(m4 - 1.0) <= 3.0 * se4
    coarse_ok = abs(m3 - 1.0) <= 3.0 * se3 + bias
    return fine_ok and coarse_ok, (
        f"dt=1e-4: |E-1|={abs(m4 - 1):.2e} (3SE={3 * se4:.2e}); "
        f"dt=1e-3: |E-1|={abs(m3 - 1):.2e} (3SE={3 * se3:.2e} + bias bound {bias:.1e})"
    )


def _criterion_8_case(M: int, seed: int) -> tuple[bool, str]:
    preset = two_level()
    pointer = gaussian_pointer(1024, 6.0)
    R = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
    cfg = DiffusionConfig(H=preset.H, R=R, gamma=1.0, pointer=pointer,
                          dt=1e-4, seed=seed, M=M)
    D = 2 ** M
    eta = _uniform_state(2)
    pure = _product_density(eta, M).entries
    rho0 = DensityMatrix(0.9 * pure + 0.1 * np.eye(D) / D)
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = proj[0, 1] = proj[1, 0] = proj[1, 1] = 0.5
    obs = {"R": slot_sum(R.entries, M) / M, "coherence": slot_sum(proj, M) / M}
    times = np.linspace(0.1, 1.0, 10)
    stats = run_ensemble(cfg, rho0, T=1.0, n_traj=10000, observables=obs,
                         sample_times=times, n_workers=usable_cpus(), equation="density")
    ok, worst = _within_3se_of_oracle(stats, obs, MasterConfig.from_diffusion(cfg), rho0)
    return ok, f"M={M}: max |MC - Lindblad| / (3 SE) = {worst:.2f}"


def criterion_8() -> tuple[bool, str]:
    """Diffusive density unravelling reproduces the Lindblad oracle."""
    ok1, d1 = _criterion_8_case(1, SEED + 81)
    ok2, d2 = _criterion_8_case(2, SEED + 82)
    return ok1 and ok2, f"{d1}; {d2}"


def criterion_9() -> tuple[bool, str]:
    """Generator-level jump-to-diffusion convergence."""
    preset = two_level()
    pointer = gaussian_pointer(1024, 6.0)
    base = DiffusionConfig(H=preset.H, R=preset.R, gamma=1.0, pointer=pointer, dt=1e-3)
    report = jump_to_diffusion_bridge(base, [100.0, 1000.0, 10000.0])
    ok = report.monotone_decreasing and report.final_error <= 5e-2
    errs = ", ".join(f"{e:.3e}" for e in report.errors)
    return ok, f"e(nu) = [{errs}], final {report.final_error:.2e} (tol 5e-2)"


def criterion_10() -> tuple[bool, str]:
    """Mean-field limit of the jump master equation."""
    preset = two_level()
    mod_pointer = gaussian_pointer(1024, 6.0, phase_slope=0.7)
    base = DiffusionConfig(H=preset.H, R=preset.R, gamma=1.0, pointer=mod_pointer, dt=1e-3)
    err = mean_field_limit_error(base, 1e4)
    q0 = base.noise.q0
    real_pointer = gaussian_pointer(1024, 6.0)
    real_base = DiffusionConfig(H=preset.H, R=preset.R, gamma=1.0, pointer=real_pointer, dt=1e-3)
    eta = _uniform_state(2)
    path = mean_field_evolve(real_base, eta, T=1.0)
    free = propagator(preset.H, 1.0) @ eta.amps
    dev = float(np.max(np.abs(path.states[0] - free)))
    ok = err <= 5e-2 and abs(q0) > 1e-3 and dev <= 1e-9
    return ok, (
        f"q0={q0:.4f}, generator error at nu=1e4: {err:.2e} (tol 5e-2); "
        f"real packet vs free evolution: {dev:.1e} (tol 1e-9)"
    )


def criterion_11() -> tuple[bool, str]:
    """Byte-identical outputs for the same seed across worker counts."""
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for threads in (1, 2):
            out = Path(tmp) / f"threads{threads}"
            code = cli_main([
                "jump", "--seed", "7", "--traj", "100",
                "--threads", str(threads), "--out", str(out),
            ])
            if code != 0:
                return False, f"CLI run with --threads {threads} exited with {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        if names != sorted(p.name for p in outs[1].iterdir()):
            return False, "output file sets differ between worker counts"
        diffs = [n for n in names if not filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False)]
        ok = not diffs
        return ok, f"compared files {names}, mismatches: {diffs if diffs else 'none'}"


CRITERIA = [
    (1, "Outcome-family completeness (two-level, lattice d=8)", criterion_1),
    (2, "Projection-postulate recovery (sharp meter)", criterion_2),
    (3, "Linear jump mean-square normalization", criterion_3),
    (4, "Jump unravelling matches the averaged master equation", criterion_4),
    (5, "Mixing oracle equals iterated reduction (M=2,3)", criterion_5),
    (6, "Many-body density trajectory properties (M=2)", criterion_6),
    (7, "Diffusive martingale E||chi||^2 = 1", criterion_7),
    (8, "Diffusive unravelling matches the Lindblad oracle (M=1,2)", criterion_8),
    (9, "Jump-to-diffusion bridge, decreasing generator error", criterion_9),
    (10, "Mean-field limit of the jump master equation", criterion_10),
    (11, "Determinism across worker counts", criterion_11),
]


def run_criteria(ids=None) -> list[CriterionResult]:
    """Run the given criteria, all by default; an empty list, an unknown
    number and a repeated one are rejected before any criterion runs."""
    table = {c: (title, fn) for c, title, fn in CRITERIA}
    ids = list(table) if ids is None else list(ids)
    if not ids:
        raise ValidationError("no acceptance criterion numbers given")
    for k, cid in enumerate(ids):
        if cid not in table:
            raise ValidationError(f"no acceptance criterion numbered {cid}")
        if cid in ids[:k]:
            raise ValidationError(f"acceptance criterion {cid} given twice")
    results = []
    for cid in ids:
        title, fn = table[cid]
        start = time.perf_counter()
        passed, detail = fn()
        # Criteria often compute numpy.bool_, which json cannot serialize.
        seconds = time.perf_counter() - start
        results.append(CriterionResult(cid, title, bool(passed), detail, seconds))
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.cid:>2}. {r.title} ({r.seconds:.1f}s)")
        lines.append(f"        {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
