"""Deterministic oracles and Monte-Carlo ensemble statistics.

The stochastic engines are validated against master equations obtained by
averaging: dropping the martingale part of the jump equation leaves

    drho/dt = -(i/hbar)[H, rho]
              + nu ( sum_i G(lambda_i) rho G(lambda_i)^dag |f0|^2 dlambda_i - rho ),

per particle slot for M particles (total intensity M nu with the label
average folded in), and the diffusive equation averages to the Lindblad form

    drho/dt = -(i/hbar)[H, rho]
              + (gamma/hbar)^2 sigma^2 sum_k ( R_k rho R_k - {R_k^2, rho}/2 ).

Ensembles run in contiguous chunks of trajectory indices.  Jump and density
trajectories run each chunk as one batch of the event engine of
:mod:`qtraj.jumps` (rows in H's eigenbasis, reductions elementwise in R's
eigenbasis); diffusion paths run each chunk through their equation's batched
kernel.  A trajectory's numbers do not depend on the chunk it ran in, and
aggregation uses exact compensated summation in trajectory-index order, so
serial and parallel runs produce identical statistics.  The
jump-to-diffusion bridge compares generators directly (as superoperator
matrices), which keeps Monte-Carlo noise out of the convergence-rate
measurement.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .diffusion import (
    DiffusionConfig,
    _coupled_batch,
    _density_batch,
    _step_grid,
)
from .errors import ValidationError
from .jumps import JumpConfig, _jump_batch
from .linalg import (
    HermitianOperator,
    _check_particles,
    as_matrix,
    embed_at_slot,
    kron_power,
    slot_sum,
)
from .manybody import DensityTrajectory, ManyBodyConfig, _mixing_batch
from .meter import MeterModel, build_gaussian_meter

MASTER_MODES = ("jump-averaged", "diffusive")
_DIFFUSION_CHUNK = 512
# Rows per event-engine batch, and the byte budget of one stacked density
# batch (2 rows at D = 64, 1 row at D = 256), which keeps peak memory flat.
_EVENT_CHUNK = 512
_DENSITY_BATCH_BYTES = 128 * 1024
# Weight mode of each diffusion equation.
_DIFFUSION_EQUATIONS = {"linear": "linear", "coupled": "normalized", "density": "linear"}


@dataclass(frozen=True)
class MasterConfig:
    """Inputs of an averaged (deterministic) generator.

    H is the full-space Hamiltonian, already lifted for M > 1.  Jump mode
    needs the single-particle meter and the per-particle intensity nu;
    diffusive mode needs the single-particle coupling operator R, gamma and
    the pointer dispersion sigma^2.
    """

    mode: str
    H: HermitianOperator
    hbar: float = 1.0
    M: int = 1
    meter: MeterModel | None = None
    nu: float = 0.0
    R: HermitianOperator | None = None
    gamma: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if self.mode not in MASTER_MODES:
            raise ValidationError(f"mode must be one of {MASTER_MODES}, got {self.mode!r}")
        _check_particles(self.M)
        if self.mode == "jump-averaged":
            if self.meter is None:
                raise ValidationError("jump-averaged mode requires a meter")
            if self.nu < 0:
                raise ValidationError(f"nu >= 0 required, got {self.nu}")
            d = self.meter.dim
            if self.H.dim != d ** self.M:
                raise ValidationError(
                    f"H must act on d^M = {d ** self.M}, got {self.H.dim}"
                )
            pk = self.meter.packet_matrix
            dlam = self.meter.pointer.weights
            kernel = (pk * dlam[:, None]).T @ pk.conj()
            object.__setattr__(self, "_kernel", kernel)
            object.__setattr__(self, "_VM", kron_power(self.meter.eigenvectors, self.M))
            object.__setattr__(self, "_d", d)
        else:
            if self.R is None:
                raise ValidationError("diffusive mode requires the coupling operator R")
            if self.sigma2 <= 0:
                raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
            d = self.R.dim
            if self.H.dim != d ** self.M:
                raise ValidationError(
                    f"H must act on d^M = {d ** self.M}, got {self.H.dim}"
                )
            Rks = [embed_at_slot(self.R.entries, k, self.M) for k in range(1, self.M + 1)]
            object.__setattr__(self, "_Rks", Rks)
            object.__setattr__(self, "_Rk2s", [Rk @ Rk for Rk in Rks])

    @classmethod
    def from_jump(cls, cfg: JumpConfig) -> "MasterConfig":
        return cls(mode="jump-averaged", H=cfg.H, hbar=cfg.hbar, meter=cfg.meter, nu=cfg.nu)

    @classmethod
    def from_manybody(cls, cfg: ManyBodyConfig) -> "MasterConfig":
        return cls(
            mode="jump-averaged",
            H=HermitianOperator(cfg.hamiltonian),
            hbar=cfg.hbar,
            M=cfg.M,
            meter=cfg.meter,
            nu=cfg.nu,
        )

    @classmethod
    def from_diffusion(cls, cfg: DiffusionConfig) -> "MasterConfig":
        return cls(
            mode="diffusive",
            H=HermitianOperator(slot_sum(cfg.H.entries, cfg.M)),
            hbar=cfg.hbar,
            M=cfg.M,
            R=cfg.R,
            gamma=cfg.gamma,
            sigma2=cfg.noise.sigma2,
        )


def jump_master_step(cfg: MasterConfig, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the averaged jump equation.

    The outcome integral contracts to the overlap kernel
    C[x, y] = sum_i f0(l_i - kappa r_x) conj(f0(l_i - kappa r_y)) dlambda_i
    applied entrywise in the measured-observable eigenbasis, once per slot.
    Trace-free up to the meter's completeness defect times nu.
    """
    if cfg.mode != "jump-averaged":
        raise ValidationError("jump_master_step requires a jump-averaged config")
    rho = np.asarray(rho, dtype=complex)
    H = cfg.H.entries
    out = (-1j / cfg.hbar) * (H @ rho - rho @ H)
    if cfg.nu == 0:
        return out
    VM = cfg._VM
    d, M = cfg._d, cfg.M
    rt = VM.conj().T @ rho @ VM
    tens = rt.reshape((d,) * (2 * M))
    acc = np.zeros_like(tens)
    for k in range(M):
        shape = [1] * (2 * M)
        shape[k] = d
        shape[M + k] = d
        acc = acc + tens * cfg._kernel.reshape(shape)
    back = VM @ acc.reshape(rho.shape) @ VM.conj().T
    return out + cfg.nu * back - cfg.M * cfg.nu * rho


def diffusive_master_step(cfg: MasterConfig, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the averaged diffusive equation (Lindblad form,
    one channel sqrt((gamma/hbar)^2 sigma^2) R(k) per slot).  Trace-free to
    rounding."""
    if cfg.mode != "diffusive":
        raise ValidationError("diffusive_master_step requires a diffusive config")
    rho = np.asarray(rho, dtype=complex)
    H = cfg.H.entries
    out = (-1j / cfg.hbar) * (H @ rho - rho @ H)
    rate = (cfg.gamma / cfg.hbar) ** 2 * cfg.sigma2
    for Rk, Rk2 in zip(cfg._Rks, cfg._Rk2s):
        out = out + rate * (Rk @ rho @ Rk - 0.5 * (Rk2 @ rho + rho @ Rk2))
    return out


def master_generator(cfg: MasterConfig):
    """Generator closure for :func:`rk4_solve`."""
    if cfg.mode == "jump-averaged":
        return lambda rho: jump_master_step(cfg, rho)
    return lambda rho: diffusive_master_step(cfg, rho)


def superop_matrix(step, dim: int) -> np.ndarray:
    """Dense row-major superoperator matrix of a linear map on dim x dim
    matrices, built column by column from the elementary-matrix basis."""
    cols = np.empty((dim * dim, dim * dim), dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for j in range(dim * dim):
        basis.flat[j] = 1.0
        cols[:, j] = step(basis).reshape(-1)
        basis.flat[j] = 0.0
    return cols


def _generator_norm(step, dim: int) -> float:
    if dim <= 32:
        return float(np.linalg.norm(superop_matrix(step, dim), 2))
    rng = np.random.default_rng(0)
    est = 0.0
    for _ in range(8):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x /= np.linalg.norm(x)
        est = max(est, float(np.linalg.norm(step(x))))
    return 4.0 * est


def rk4_solve(step, rho0, T: float, dt: float, record_times=None):
    """Classic fourth-order integration of drho/dt = step(rho).

    Hermiticity is restored by symmetrization after every step.  The step
    size must satisfy the stability bound dt * ||generator|| <= 0.1.
    Returns (times, densities) at the requested record times (default: T).
    """
    arr = as_matrix(rho0)
    if not T > 0 or dt <= 0:
        raise ValidationError(f"need T > 0 and dt > 0, got T={T}, dt={dt}")
    gen_norm = _generator_norm(step, arr.shape[0])
    if dt * gen_norm > 0.1 + 1e-12:
        raise ValidationError(
            f"dt * ||generator|| = {dt * gen_norm:.3e} violates the stability "
            f"bound 0.1; reduce dt below {0.1 / max(gen_norm, 1e-300):.3e}"
        )
    times = np.asarray(record_times if record_times is not None else [T], dtype=float)
    n_steps, _, rec_map = _step_grid(T, dt, times)
    rho = arr.astype(complex).copy()
    out = np.empty((times.size, *rho.shape), dtype=complex)
    for j in rec_map.get(0, []):
        out[j] = rho
    for s in range(n_steps):
        k1 = step(rho)
        k2 = step(rho + 0.5 * dt * k1)
        k3 = step(rho + 0.5 * dt * k2)
        k4 = step(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        for j in rec_map.get(s + 1, []):
            out[j] = rho
    return times, out


def _fsum_mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    mean = math.fsum(values.tolist()) / n
    if n < 2:
        return mean, 0.0
    # Squares through libm pow, as float ** 2 rounds them: numpy's square is
    # correctly rounded and differs from pow in the last bit of about 0.1% of
    # values, which could move the last bit of the standard error.
    var = math.fsum(map(pow, (values - mean).tolist(), repeat(2.0))) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass
class EnsembleStats:
    """Per-time Monte-Carlo means and standard errors.

    Observable estimators are weight * <X>, where the weight is the squared
    norm (or trace) of the linear solution and 1 in normalized mode; in both
    cases the mean estimates Tr(X rho_master(t)).
    """

    sample_times: np.ndarray
    n_traj: int
    mode: str
    names: tuple[str, ...]
    obs_mean: np.ndarray  # (n_times, n_obs)
    obs_se: np.ndarray
    weight_mean: np.ndarray  # (n_times,)
    weight_se: np.ndarray
    entropy_mean: np.ndarray | None = None
    entropy_se: np.ndarray | None = None
    count_mean: float | None = None
    count_se: float | None = None


def _aggregate(
    sample_times, mode, names, weights, obs_norm, entropy=None, counts=None, n_traj=None
) -> EnsembleStats:
    n = weights.shape[0]
    ns = weights.shape[1]
    no = obs_norm.shape[2]
    estim = weights[:, :, None] * obs_norm
    obs_mean = np.empty((ns, no))
    obs_se = np.empty((ns, no))
    w_mean = np.empty(ns)
    w_se = np.empty(ns)
    for s in range(ns):
        w_mean[s], w_se[s] = _fsum_mean_se(weights[:, s])
        for o in range(no):
            obs_mean[s, o], obs_se[s, o] = _fsum_mean_se(estim[:, s, o])
    ent_mean = ent_se = None
    if entropy is not None:
        ent_mean = np.empty(ns)
        ent_se = np.empty(ns)
        for s in range(ns):
            ent_mean[s], ent_se[s] = _fsum_mean_se(entropy[:, s])
    c_mean = c_se = None
    if counts is not None:
        c_mean, c_se = _fsum_mean_se(np.asarray(counts, dtype=float))
    return EnsembleStats(
        sample_times=np.asarray(sample_times, dtype=float),
        n_traj=n if n_traj is None else n_traj,
        mode=mode,
        names=tuple(names),
        obs_mean=obs_mean,
        obs_se=obs_se,
        weight_mean=w_mean,
        weight_se=w_se,
        entropy_mean=ent_mean,
        entropy_se=ent_se,
        count_mean=c_mean,
        count_se=c_se,
    )


def _as_observable_dict(observables) -> dict[str, np.ndarray]:
    """Name -> matrix of a dict or a list of (name, operator) pairs."""
    return {str(k): as_matrix(v) for k, v in dict(observables or {}).items()}


def run_trajectories(
    cfg,
    initial,
    T: float,
    n_traj: int,
    observables=None,
    sample_times=None,
    n_workers: int = 1,
    mode: str = "normalized",
) -> list:
    """Trajectories 0..n_traj-1 of a JumpConfig (Trajectory objects) or a
    ManyBodyConfig (DensityTrajectory objects in the given mode).

    Indices are split into at least n_workers contiguous chunks of at most
    _EVENT_CHUNK rows (densities: at most _DENSITY_BATCH_BYTES per stacked
    batch); each chunk runs as one batch of the event engine.  Trajectory i
    uses the random stream (cfg.seed, i) and is bit-identical in any chunk.
    """
    obs = _as_observable_dict(observables)
    if isinstance(cfg, JumpConfig):
        size = _EVENT_CHUNK

        def batch(idx):
            return _jump_batch(cfg, initial, T, idx, sample_times, obs)
    elif isinstance(cfg, ManyBodyConfig):
        size = min(_EVENT_CHUNK, max(1, _DENSITY_BATCH_BYTES // (16 * cfg.dim ** 2)))

        def batch(idx):
            return _mixing_batch(cfg, initial, T, mode, idx, sample_times, obs)
    else:
        raise ValidationError(f"unsupported config type {type(cfg).__name__}")
    n_chunks = min(n_traj, max(n_workers, -(-n_traj // size)))
    chunks = [range(j * n_traj // n_chunks, (j + 1) * n_traj // n_chunks)
              for j in range(n_chunks)]
    return [t for part in _map_chunks(batch, chunks, n_workers) for t in part]


def trajectory_stats(trajs, mode: str) -> EnsembleStats:
    """Per-time statistics of jump or density trajectories that share their
    sample times and observables; weights are the reported squared norms
    (traces), and density trajectories add entropy statistics."""
    first = trajs[0]
    if first.sample_times is None:
        raise ValidationError("trajectory statistics need sampled trajectories")
    names = list(first.observable_series)
    density = isinstance(first, DensityTrajectory)
    weights = np.stack([t.trace_series if density else t.norm2_series for t in trajs])
    obs_norm = np.empty((len(trajs), first.sample_times.size, len(names)))
    for i, t in enumerate(trajs):
        for o, name in enumerate(names):
            obs_norm[i, :, o] = t.observable_series[name]
    entropy = np.stack([t.entropy_series for t in trajs]) if density else None
    return _aggregate(first.sample_times, mode, names, weights, obs_norm,
                      entropy=entropy, counts=[t.count for t in trajs])


def run_ensemble(
    cfg,
    initial,
    T: float,
    n_traj: int,
    observables=None,
    sample_times=None,
    n_workers: int = 1,
    equation: str | None = None,
) -> EnsembleStats:
    """Run n_traj independent trajectories of any stochastic config and
    aggregate per-time statistics.

    Trajectory i uses the random stream (cfg.seed, i); aggregation runs in
    index order with exact summation, so the result is independent of the
    worker count.  Jump and many-body configs run through
    :func:`run_trajectories` (for a ManyBodyConfig, equation is the density
    mode, default "normalized").  A DiffusionConfig runs its batched kernel
    in chunks of _DIFFUSION_CHUNK paths; the equation and its weight mode are

    * "linear": linear state equation, weight ||chi||^2, mode "linear";
    * "coupled": unitary-dilation state equation, weight ||psi||^2 (one to
      rounding), mode "normalized";
    * "density": M-particle density equation, weight Tr(rho), mode "linear",
      with entropy statistics.

    A DiffusionConfig needs one of these equations; there is no default.
    """
    if n_traj < 2:
        raise ValidationError(f"n_traj must be >= 2, got {n_traj}")
    if sample_times is None:
        sample_times = np.linspace(T / 10.0, T, 10)
    sample_times = np.asarray(sample_times, dtype=float)
    obs = _as_observable_dict(observables)
    names = list(obs.keys())

    if isinstance(cfg, (JumpConfig, ManyBodyConfig)):
        mode = cfg.mode if isinstance(cfg, JumpConfig) else equation or "normalized"
        trajs = run_trajectories(cfg, initial, T, n_traj, obs, sample_times, n_workers, mode)
        return trajectory_stats(trajs, mode)

    if isinstance(cfg, DiffusionConfig):
        if equation not in _DIFFUSION_EQUATIONS:
            raise ValidationError(
                f"diffusion ensembles need equation= one of {tuple(_DIFFUSION_EQUATIONS)}, "
                f"got {equation!r}"
            )

        def batch(idx):
            if equation == "density":
                return _density_batch(cfg, initial, T, idx, sample_times, obs)
            return _coupled_batch(cfg, initial, T, idx, sample_times, obs, equation)

        chunks = [
            range(lo, min(lo + _DIFFUSION_CHUNK, n_traj))
            for lo in range(0, n_traj, _DIFFUSION_CHUNK)
        ]
        parts = _map_chunks(batch, chunks, n_workers)
        weights = np.concatenate([p[0] for p in parts], axis=0)
        obs_norm = np.concatenate([p[1] for p in parts], axis=0)
        entropy = np.concatenate([p[2] for p in parts], axis=0) if equation == "density" else None
        return _aggregate(sample_times, _DIFFUSION_EQUATIONS[equation], names, weights, obs_norm,
                          entropy=entropy)

    raise ValidationError(f"unsupported config type {type(cfg).__name__}")


def _map_chunks(worker, chunks, n_workers: int):
    if n_workers <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        return list(ex.map(worker, chunks))


@dataclass
class BridgeReport:
    """Generator-level comparison of rescaled jump models against the
    diffusive limit."""

    nus: np.ndarray
    kappas: np.ndarray
    errors: np.ndarray
    monotone_decreasing: bool
    final_error: float


def _jump_superop(base: DiffusionConfig, kappa: float, nu: float) -> np.ndarray:
    """Superoperator matrix of the averaged jump generator of base's H and R,
    measured by a Gaussian meter of strength kappa (base's pointer grid size
    and phase slope) at rate nu."""
    meter = build_gaussian_meter(kappa, base.R, n_points=base.pointer.size,
                                 phase_slope=base.pointer.phase_slope)
    cfg = MasterConfig(mode="jump-averaged", H=base.H, hbar=base.hbar, meter=meter, nu=float(nu))
    return superop_matrix(master_generator(cfg), base.dim)


def jump_to_diffusion_bridge(base: DiffusionConfig, nu_list) -> BridgeReport:
    """For each nu, build the jump model at kappa = gamma / sqrt(nu) and
    measure the relative Frobenius distance between its averaged generator
    and the diffusive one.  Requires a zero-mean-momentum pointer, otherwise
    the mean-field drift dominates the comparison."""
    nus = np.asarray(list(nu_list), dtype=float)
    if nus.size < 2 or np.any(np.diff(nus) <= 0):
        raise ValidationError("nu list must be increasing with at least two entries")
    if base.M != 1:
        raise ValidationError("the bridge is a single-particle comparison; use M=1")
    if abs(base.noise.q0) > 1e-8:
        raise ValidationError(
            f"bridge requires q0 = 0 (mean-field drift would dominate), got q0={base.noise.q0!r}"
        )
    L_diff = superop_matrix(master_generator(MasterConfig.from_diffusion(base)), base.dim)
    denom = float(np.linalg.norm(L_diff))
    errors = np.empty(nus.size)
    kappas = np.empty(nus.size)
    for j, nu in enumerate(nus):
        kappa = base.gamma / math.sqrt(nu)
        kappas[j] = kappa
        errors[j] = float(np.linalg.norm(_jump_superop(base, kappa, nu) - L_diff)) / denom
    monotone = bool(np.all(np.diff(errors) < 0))
    return BridgeReport(
        nus=nus,
        kappas=kappas,
        errors=errors,
        monotone_decreasing=monotone,
        final_error=float(errors[-1]),
    )


def mean_field_limit_error(base: DiffusionConfig, nu: float) -> float:
    """Relative generator distance between the jump model at kappa = gamma/nu
    and the unitary mean-field generator with effective Hamiltonian
    H - gamma q0 R."""
    if base.pointer.analytic_tag != "gaussian":
        raise ValidationError("mean-field comparison requires a Gaussian pointer")
    L_jump = _jump_superop(base, base.gamma / nu, nu)
    Heff = base.H.entries - base.gamma * base.noise.q0 * base.R.entries
    L_mf = superop_matrix(lambda rho: (-1j / base.hbar) * (Heff @ rho - rho @ Heff), base.dim)
    return float(np.linalg.norm(L_jump - L_mf) / np.linalg.norm(L_mf))
