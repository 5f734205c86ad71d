"""Deterministic oracles and Monte-Carlo ensemble statistics.

The stochastic engines are validated against master equations obtained by
averaging: dropping the martingale part of the jump equation leaves

    drho/dt = -(i/hbar)[H, rho]
              + nu ( sum_i G(lambda_i) rho G(lambda_i)^dag |f0|^2 dlambda_i - rho ),

per particle slot for M particles (total intensity M nu with the label
average folded in), and the diffusive equation averages to the Lindblad form

    drho/dt = -(i/hbar)[H, rho]
              + (gamma/hbar)^2 sigma^2 sum_k ( R_k rho R_k - {R_k^2, rho}/2 ).

Both are evaluated in the product eigenbasis of the measured observable,
where each is a commutator with the rotated Hamiltonian plus a Hadamard
product with a fixed mask (see :class:`MasterConfig`); :func:`rk4_solve`
rotates into that basis once and steps there.

Ensembles run through one chunk runner, :func:`run_trajectories`, in
contiguous blocks of trajectory indices.  Each block is one batch of its
engine: the event engine of :mod:`qtraj.jumps` for jump and density
trajectories (free gaps elementwise in a basis of H's eigenvectors,
reductions elementwise in R's eigenbasis), or its equation's batched kernel
for diffusion paths.  Every batch returns columns (:class:`EventColumns`),
with no object per trajectory, and :func:`trajectory_stats` aggregates
them; a run drops final states.  Event rows are bit-identical in any
block and diffusion blocks do not depend on the worker count; aggregation
uses exact compensated summation in trajectory-index order, so serial and
parallel runs produce identical statistics.  The jump-to-diffusion bridge
compares generators directly (as superoperator matrices), which keeps
Monte-Carlo noise out of the convergence-rate measurement.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .diffusion import DiffusionConfig, _coupled_batch, _density_batch
from .errors import ValidationError
from .jumps import EventColumns, JumpConfig, _jump_batch, _step_grid
from .linalg import (
    HermitianOperator,
    _check_particles,
    as_matrix,
    hermitian_eig,
    kron_power,
    slot_sum,
)
from .manybody import ManyBodyConfig, _mixing_batch
from .meter import MeterModel, build_gaussian_meter

MASTER_MODES = ("jump-averaged", "diffusive")
# Stability bound of rk4_solve on dt * ||generator||.
RK4_BOUND = 0.1
# Rows per batch, and the byte budget of one mixing batch's rows of S_M
# copy blocks, C(d^2 + M - 1, M) entries each: 20 rows at D = 64, where 20
# to 96 ran equally fast and twice as fast as 2, and 4 at D = 256.  An event
# needs about two D x D arrays per row, which caps the budget.
_CHUNK = 512
_MIXING_BATCH_BYTES = 256 * 1024
DIFFUSION_EQUATIONS = ("linear", "coupled", "density")


@dataclass(frozen=True)
class MasterConfig:
    """Inputs of an averaged (deterministic) generator.

    H is the full-space Hamiltonian, already lifted for M > 1.  Jump mode
    needs the single-particle meter and the per-particle intensity nu;
    diffusive mode needs the single-particle coupling operator R, gamma and
    the pointer dispersion sigma^2.

    Construction builds the generator of :func:`master_generator` in the
    product eigenbasis U = V^{(x)M} of the measured observable (the meter's
    R in jump mode, R in diffusive mode).  There both equations of the
    module docstring read L(X) = -(i/hbar)(H_U X - X H_U) + Gamma o X with
    H_U = U^dag H U and a fixed D x D Hadamard mask

    * jump-averaged: Gamma[x, y] = nu sum_k C[x_k, y_k] - M nu, with the
      overlap kernel C[a, b] = sum_i f0(l_i - kappa r_a) conj(f0(l_i - kappa r_b)) dlambda_i;
    * diffusive: Gamma[x, y] = -(gamma/hbar)^2 sigma^2 sum_k (r_{x_k} - r_{y_k})^2 / 2,

    where x_k is the slot-k digit of the product index x and r_a the
    eigenvalues of R.  The jump generator is trace-free up to the meter's
    completeness defect times nu; the diffusive mask has a zero diagonal.
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
            V = self.meter.eigenvectors
            pk = self.meter.packet_matrix
            kernel = (pk * self.meter.pointer.weights[:, None]).T @ pk.conj()
            mask = self.nu * _slot_mask(kernel, self.M) - self.M * self.nu
        else:
            if self.R is None:
                raise ValidationError("diffusive mode requires the coupling operator R")
            if self.sigma2 <= 0:
                raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
            r, V = hermitian_eig(self.R)
            rate = (self.gamma / self.hbar) ** 2 * self.sigma2
            mask = (-0.5 * rate) * _slot_mask((r[:, None] - r[None, :]) ** 2, self.M)
        d = V.shape[0]
        if self.H.dim != d ** self.M:
            raise ValidationError(f"H must act on d^M = {d ** self.M}, got {self.H.dim}")
        U = kron_power(V, self.M)
        H_U = U.conj().T @ self.H.entries @ U
        object.__setattr__(self, "_generator", MasterGenerator(U, H_U, mask, self.hbar))

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


def _slot_mask(g: np.ndarray, M: int) -> np.ndarray:
    """The D x D matrix sum_k g[x_k, y_k] over the slots of an M-fold
    product index pair (x, y), for a d x d matrix g."""
    d = g.shape[0]
    out = np.zeros((d,) * (2 * M), dtype=g.dtype)
    for k in range(M):
        shape = [1] * (2 * M)
        shape[k] = shape[M + k] = d
        out += g.reshape(shape)
    return out.reshape(d ** M, d ** M)


@dataclass(frozen=True, eq=False)
class MasterGenerator:
    """Averaged generator held in the working basis U:
    L(X) = -(i/hbar)(H X - X H) + mask o X for X = U^dag rho U.

    Calling it applies the generator in the original basis,
    rho -> U L(U^dag rho U) U^dag, so it serves :func:`superop_matrix` like
    any linear map; :func:`rk4_solve` steps :meth:`rhs` in U's basis.
    """

    U: np.ndarray
    H: np.ndarray
    mask: np.ndarray
    hbar: float

    def rhs(self, X: np.ndarray) -> np.ndarray:
        """The generator in U's basis."""
        return (-1j / self.hbar) * (self.H @ X - X @ self.H) + self.mask * X

    def to_basis(self, rho: np.ndarray) -> np.ndarray:
        return self.U.conj().T @ rho @ self.U

    def from_basis(self, X: np.ndarray) -> np.ndarray:
        return self.U @ X @ self.U.conj().T

    def __call__(self, rho) -> np.ndarray:
        return self.from_basis(self.rhs(self.to_basis(np.asarray(rho, dtype=complex))))

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @cached_property
    def norm(self) -> float:
        """Upper bound (max w - min w) / hbar + max |mask| on ||L|| for the RK4
        stability bound, w the eigenvalues of H: the commutator part is normal
        with eigenvalues (w_i - w_j) / hbar, the Hadamard part has norm max |mask|."""
        w = np.linalg.eigvalsh(self.H)
        return float((w[-1] - w[0]) / self.hbar + np.max(np.abs(self.mask)))


def master_generator(cfg: MasterConfig) -> MasterGenerator:
    """The averaged generator of cfg, the one input :func:`rk4_solve` takes."""
    return cfg._generator


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


def rk4_solve(gen: MasterGenerator, rho0, T: float, dt: float, record_times=None):
    """Classic fourth-order integration of drho/dt = gen(rho).

    The state moves into the generator's basis U once; each stage there is
    a commutator (two D x D products) plus one Hadamard product, and
    Hermiticity is restored by symmetrization after every step.  States
    rotate back only at record times, and a record at t = 0 returns rho0 as
    given.  The step size must satisfy the stability bound
    dt * gen.norm <= RK4_BOUND.  Returns (times, densities) at the requested
    record times (default: T).
    """
    if not isinstance(gen, MasterGenerator):
        raise ValidationError(
            f"rk4_solve needs a generator from master_generator, got {type(gen).__name__}"
        )
    arr = as_matrix(rho0)
    if arr.shape[0] != gen.dim:
        raise ValidationError(
            f"rho0 must act on the generator's dimension {gen.dim}, got {arr.shape[0]}"
        )
    if not T > 0 or dt <= 0:
        raise ValidationError(f"need T > 0 and dt > 0, got T={T}, dt={dt}")
    gen_norm = gen.norm
    if dt * gen_norm > RK4_BOUND + 1e-12:
        raise ValidationError(
            f"dt * ||generator|| = {dt * gen_norm:.3e} violates the stability "
            f"bound {RK4_BOUND}; reduce dt below {RK4_BOUND / max(gen_norm, 1e-300):.3e}"
        )
    times = np.asarray(record_times if record_times is not None else [T], dtype=float)
    n_steps, _, rec_map = _step_grid(T, dt, times)
    out = np.empty((times.size, *arr.shape), dtype=complex)
    for j in rec_map.get(0, []):
        out[j] = arr
    step = gen.rhs
    rho = gen.to_basis(arr)
    for s in range(n_steps):
        k1 = step(rho)
        k2 = step(rho + 0.5 * dt * k1)
        k3 = step(rho + 0.5 * dt * k2)
        k4 = step(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        for j in rec_map.get(s + 1, []):
            out[j] = gen.from_basis(rho)
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
    """Per-time Monte-Carlo means and standard errors of the weights, the
    observable estimators weight * <X> and, for density rows, the entropy.

    The weight is a row's reported squared norm (or trace), one in
    normalized mode; the estimator's mean estimates Tr(X rho_master(t)).
    """

    sample_times: np.ndarray
    names: tuple[str, ...]
    obs_mean: np.ndarray  # (n_times, n_obs)
    obs_se: np.ndarray
    weight_mean: np.ndarray  # (n_times,)
    weight_se: np.ndarray
    entropy_mean: np.ndarray | None = None
    entropy_se: np.ndarray | None = None


def physical_memory() -> int:
    """Bytes of physical memory, the bound of every result allocation."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_result_size(n_traj: int, n_samples: int, n_observables: int) -> None:
    """Reject n_traj result rows beyond physical memory, before any array
    exists.  A row holds its index, event count, log weight and final norm
    or trace, and per sample a weight, entropy, minimum eigenvalue and one
    value per observable, 8 bytes each; events are not counted."""
    memory = physical_memory()
    record_bytes = 8 * (3 + n_observables)
    row_bytes = 32 + n_samples * record_bytes
    if row_bytes > memory:
        raise ValidationError(f"n_samples must be at most {(memory - 32) // record_bytes} "
                              f"for {record_bytes}-byte records, got {n_samples}")
    if n_traj * row_bytes > memory:
        raise ValidationError(f"n_traj must be at most {memory // row_bytes} "
                              f"for {row_bytes}-byte result rows, got {n_traj}")


def run_trajectories(
    cfg,
    initial,
    T: float,
    n_traj: int,
    observables=None,
    sample_times=None,
    n_workers: int = 1,
    equation: str | None = None,
) -> EventColumns:
    """Columns of trajectories 0..n_traj-1 of any stochastic config, row i
    being trajectory i, which uses the random stream (cfg.seed, i).

    equation is the density mode of a ManyBodyConfig (default "normalized")
    and the equation of a DiffusionConfig (required, see
    :func:`run_ensemble`; paths record at T when no sample times are given).
    Indices run in contiguous blocks, each one batch of its engine whose
    final states are dropped as it returns (a caller that needs them runs
    the batch), and the blocks' columns are concatenated in index order.
    Event rows are bit-identical in any block, so a block holds at most
    _CHUNK rows and a 1/n_workers share (mixing rows: at most
    _MIXING_BATCH_BYTES of them, sized from the copy-block row, not from the
    D x D density); density paths agree with other batch sizes only to
    rounding, so a diffusion block holds _CHUNK paths whatever n_workers.
    """
    if n_traj < 1:
        raise ValidationError(f"n_traj must be >= 1, got {n_traj}")
    obs = {str(k): as_matrix(v) for k, v in dict(observables or {}).items()}
    if isinstance(cfg, DiffusionConfig) and sample_times is None:
        sample_times = [T]
    check_result_size(n_traj, 0 if sample_times is None else np.size(sample_times), len(obs))
    share = -(-n_traj // max(n_workers, 1))
    kw = {"sample_times": sample_times, "observables": obs}
    if isinstance(cfg, JumpConfig):
        size = min(_CHUNK, share)
        batch = partial(_jump_batch, cfg, initial, T, **kw)
    elif isinstance(cfg, ManyBodyConfig):
        entries = math.comb(cfg.d ** 2 + cfg.M - 1, cfg.M)
        size = min(_CHUNK, share, max(1, _MIXING_BATCH_BYTES // (16 * entries)))
        batch = partial(_mixing_batch, cfg, initial, T, equation or "normalized", **kw)
    elif isinstance(cfg, DiffusionConfig):
        if equation not in DIFFUSION_EQUATIONS:
            raise ValidationError(f"diffusion ensembles need equation= one of "
                                  f"{DIFFUSION_EQUATIONS}, got {equation!r}")
        size = _CHUNK
        batch = (partial(_density_batch, cfg, initial, T, **kw) if equation == "density"
                 else partial(_coupled_batch, cfg, initial, T, equation=equation, **kw))
    else:
        raise ValidationError(f"unsupported config type {type(cfg).__name__}")
    chunks = (range(lo, min(lo + size, n_traj)) for lo in range(0, n_traj, size))
    return EventColumns.concat(
        _map_chunks(lambda idx: replace(batch(idx), states=None), chunks, n_workers))


def _series_stats(series: np.ndarray) -> np.ndarray:
    """(means, standard errors) per sample of series[row, sample]."""
    return np.array([_fsum_mean_se(series[:, s]) for s in range(series.shape[1])]).T


def trajectory_stats(cols: EventColumns) -> EnsembleStats:
    """Per-time statistics of the columns of any stochastic run, summed over
    rows in index order: weights are the reported squared norms (traces),
    observable estimators weight * <X>; density rows add entropy statistics."""
    if cols.sample_times is None:
        raise ValidationError("trajectory statistics need sampled trajectories")
    obs = np.array([_series_stats(cols.weights * v) for v in cols.values]).reshape(
        -1, 2, cols.sample_times.size)
    extra = {}
    if cols.entropy is not None:
        extra["entropy_mean"], extra["entropy_se"] = _series_stats(cols.entropy)
    w_mean, w_se = _series_stats(cols.weights)
    return EnsembleStats(sample_times=cols.sample_times, names=cols.names, obs_mean=obs[:, 0].T,
                         obs_se=obs[:, 1].T, weight_mean=w_mean, weight_se=w_se, **extra)


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
    """:func:`trajectory_stats` of :func:`run_trajectories`: per-time
    statistics of n_traj >= 2 independent trajectories of any stochastic
    config, at ten equal steps up to T unless sample_times are given, and
    independent of the worker count.

    A JumpConfig runs in its own mode, and for a ManyBodyConfig equation is
    the density mode (default "normalized").  A DiffusionConfig needs one of
    ``DIFFUSION_EQUATIONS``, each with its weight:

    * "linear": linear state equation, weight ||chi||^2;
    * "coupled": unitary-dilation state equation, weight ||psi||^2 (one to
      rounding);
    * "density": M-particle density equation, weight Tr(rho), with entropy
      statistics.
    """
    if n_traj < 2:
        raise ValidationError(f"n_traj must be >= 2, got {n_traj}")
    if sample_times is None:
        sample_times = np.linspace(T / 10.0, T, 10)
    return trajectory_stats(run_trajectories(cfg, initial, T, n_traj, observables,
                                             sample_times, n_workers, equation))


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
