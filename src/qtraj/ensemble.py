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
rotates into that basis once and advances there from record to record,
in a form chosen by size alone: up to D = RK4_MATRIX_MAX_DIM = 16 the RK4
step is tabulated as one real D^2 x D^2 matrix S on the state's Hermitian
coordinates, and a stride of s steps applies the powers S^(2^k) of the
binary digits of s, squared once; above it each step is applied in turn
through four D x D products (the timings that place the crossover are
quoted at RK4_MATRIX_MAX_DIM).

Ensembles run through one chunk iterator, :func:`trajectory_chunks`, which
yields contiguous chunks of trajectory indices in index order as they
finish.  Each chunk is one batch of its engine: the event engine of
:mod:`qtraj.jumps` for jump and density trajectories (free gaps
elementwise in a basis of H's eigenvectors, reductions elementwise in R's
eigenbasis), or its equation's batched kernel for diffusion paths.  Every
batch returns columns (:class:`EventColumns`), with no object per
trajectory, and drops its states.  The chunks run on forked worker
processes (:func:`_map_chunks`), which return what the caller keeps: whole
columns for :func:`run_trajectories`, which concatenates them, or the
series alone for :func:`series_columns`, with an event chunk's
trajectories.jsonl lines rendered beside them for the CLI.  A run that
streams its chunks holds one window of chunks besides the kept series.
Event rows are bit-identical in any chunk and diffusion chunks do not
depend on the worker count; aggregation uses exact compensated summation
in trajectory-index order, so serial and parallel runs produce identical
statistics.  The jump-to-diffusion bridge
compares generators directly (as closed-form superoperator matrices,
:meth:`MasterGenerator.superop`), which keeps
Monte-Carlo noise out of the convergence-rate measurement.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, cycle, islice, repeat

import numpy as np

from .diffusion import DiffusionConfig, _batch_charge, _diffusion_batch
from .errors import NumericError, SimulationError, ValidationError, check_memory
from .jumps import (EventColumns, JumpConfig, _event_bound, _event_charge, _jump_batch,
                    _record_times, _step_grid)
from .linalg import (
    HermitianOperator,
    _real_if_exact,
    as_matrix,
    check_hermitian,
    check_integer,
    check_model,
    hermitian_coordinates,
    hermitian_eig,
    hermitian_from_coordinates,
    kron_power,
    real_superop,
    slot_sum,
)
from .manybody import ManyBodyConfig, _mixing_batch
from .meter import MeterModel, build_gaussian_meter
from .records import encode, text_bytes

MASTER_MODES = ("jump-averaged", "diffusive")
# Stability bound of rk4_solve on dt * ||generator||.
RK4_BOUND = 0.1
# rk4_solve advances by D^2 x D^2 powers of the step matrix for
# D <= RK4_MATRIX_MAX_DIM, for larger D step by step through four
# hermitian_rhs products.  1000 steps on one thread in 10 and in 1 records,
# the matrix and its ladder built included: D = 2 to 9 took 48-56 ms through
# hermitian_rhs, nearly all numpy call overhead, and 0.4-1.1 ms by powers;
# D = 16 took 38-42 ms against 12-13 ms, D = 27 71-87 ms against 159-214 ms
# and D = 32 105-110 ms against 431-626 ms, as the matrix build grows like
# D^6 and each squaring like D^6.
RK4_MATRIX_MAX_DIM = 16
# Paths per diffusion chunk, and rows per event chunk at most.  Event
# chunks are further sized by bytes: the rows of an event chunk, at their
# batch's charge per row (jumps._event_charge), fit within
# _EVENT_CHUNK_BYTES, and beside the kept columns; and they are at most a
# 1/n share of the run, n the workers, so that every worker has a chunk.
# That is 512 rows on the jump-lattice workload, and 50 on the jump run
# spec at nu = 1e4 (d = 8, 3.3 MB a row), the most rows whose peak holds
# over many chunks in one process (each worker process holds its own
# chunk): ru_maxrss of that run at 100 and 1000 trajectories was 92.7 and
# 99.3 MB in chunks of 38 rows, 100.8 and 106.9 at 44, 108.8 and 116.3 at
# 50, 106.2 and 125.2 at 56 and 115.4 and 136.0 at 64 (156.8 and 695.7
# unchunked).  The loop costs about 36 us a step beside 0.9 us a row and
# step, so fewer rows cost time: 1000 trajectories took 38.2 and 40.3 s of
# CPU at 38 rows, 29.4 and 27.7 at 50, and 20.4 and 17.5 unchunked.
# A mixing chunk's rows of S_M copy blocks, C(d^2 + M - 1, M) entries each,
# also fit in _MIXING_BATCH_BYTES: 48 rows at D = 64 and 10 at D = 256.  An
# event needs only each branch's block of Y per row, so larger mixing
# batches pay off: the many-mixing run spec (D = 64, 500 trajectories, one
# BLAS thread) took 1.71, 1.36, 1.12, 0.94, 0.89, 0.83, 0.80 and 0.80 s of
# CPU at 8, 12, 16, 20, 32, 48, 64 and 96 rows (medians of 4).
_CHUNK = 512
_EVENT_CHUNK_BYTES = 160 << 20
_MIXING_BATCH_BYTES = 612 * 1024


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
        check_model(self.M, self.nu, self.hbar)
        if self.mode == "jump-averaged":
            if self.meter is None:
                raise ValidationError("jump-averaged mode requires a meter")
            V = self.meter.eigenvectors
            pk = self.meter.packet_matrix
            kernel = (pk * self.meter.pointer.weights[:, None]).T @ pk.conj()
            mask = self.nu * _slot_mask(kernel, self.M) - self.M * self.nu
        else:
            if self.R is None:
                raise ValidationError("diffusive mode requires the coupling operator R")
            if self.sigma2 <= 0:
                raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
            g_h = self.gamma / self.hbar
            if not math.isfinite(g_h * g_h * self.sigma2):
                raise ValidationError(f"(gamma/hbar)^2 sigma2 must be finite, got gamma="
                                      f"{self.gamma!r}, hbar={self.hbar!r}, sigma2={self.sigma2!r}")
            r, V = hermitian_eig(self.R)
            rate = (self.gamma / self.hbar) ** 2 * self.sigma2
            mask = (-0.5 * rate) * _slot_mask((r[:, None] - r[None, :]) ** 2, self.M)
        d = V.shape[0]
        if self.H.dim != d ** self.M:
            raise ValidationError(f"H must act on d^M = {d ** self.M}, got {self.H.dim}")
        U = kron_power(V, self.M)
        H_U = U.conj().T @ self.H.entries @ U
        object.__setattr__(self, "_generator", MasterGenerator(
            U, _hermitian_part(H_U), _hermitian_part(mask), self.hbar))

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


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, exactly Hermitian, as a real array when its
    imaginary part is exactly zero."""
    return _real_if_exact(0.5 * (A + A.conj().T))


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

    H and the mask are exactly Hermitian, and each is stored as a real
    array when its imaginary part is exactly zero (see :class:`MasterConfig`).
    :meth:`superop` is the D^2 x D^2 matrix of L in closed form, in U's
    basis or in the original one, where the generator acts as
    rho -> U L(U^dag rho U) U^dag.  :func:`rk4_solve` takes RK4 steps in
    one of two forms: up to RK4_MATRIX_MAX_DIM by powers of the real matrix
    :meth:`rk4_matrix` of the step, and above it one step at a time through
    :meth:`hermitian_rhs`, one product on exactly Hermitian states.
    """

    U: np.ndarray
    H: np.ndarray
    mask: np.ndarray
    hbar: float

    def hermitian_rhs(self, X: np.ndarray) -> np.ndarray:
        """L(X) = -(i/hbar)(H X - X H) + mask o X for an exactly Hermitian,
        C-contiguous X, from one product: with B = -(i/hbar) H X,
        X H = (H X)^dag gives L(X) = B + B^dag + mask o X, which is exactly
        Hermitian again.  A real H takes one real GEMM on the float view of
        X, in which a product from the left acts on rows only."""
        B = np.matmul(self.H, X if self.H.dtype.kind == "c" else X.view(np.float64)).view(complex)
        B *= -1j / self.hbar
        out = B + B.conj().T
        out += self.mask * X
        return out

    def superop(self, original_basis: bool = True) -> np.ndarray:
        """The row-major D^2 x D^2 matrix of the generator: in U's basis
        L_U = -(i/hbar)(H (x) I - I (x) H^T) + diag(vec mask), and in the
        original basis (U (x) conj U) L_U (U (x) conj U)^dag."""
        eye = np.eye(self.dim)
        L = (-1j / self.hbar) * (np.kron(self.H, eye) - np.kron(eye, self.H.T))
        L[np.diag_indices_from(L)] += self.mask.reshape(-1)
        if not original_basis:
            return L
        W = np.kron(self.U, self.U.conj())
        return W @ L @ W.conj().T

    def rk4_matrix(self, dt: float) -> np.ndarray:
        """One classic RK4 step of size dt in U's basis, :func:`_rk4_step`
        applied to the identity, as the real matrix of
        :func:`qtraj.linalg.real_superop` on Hermitian coordinates."""
        L = real_superop(self.superop(original_basis=False))
        return _rk4_step(partial(np.matmul, L), np.eye(L.shape[0]), dt)

    def to_basis(self, rho: np.ndarray) -> np.ndarray:
        return self.U.conj().T @ rho @ self.U

    def from_basis(self, X: np.ndarray) -> np.ndarray:
        return self.U @ X @ self.U.conj().T

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


def _rk4_step(apply, x: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of size dt from x for dx/dt = L(x), L = apply
    linear and time-independent: the degree-4 Taylor polynomial of
    exp(dt L) on x, x + dt L(x + (dt/2) L(x + (dt/3) L(x + (dt/4) L(x))))."""
    y = x
    for k in (4.0, 3.0, 2.0, 1.0):
        y = apply(y)
        y *= dt / k
        y += x
    return y


def _repeated(step, x: np.ndarray, stride: int) -> np.ndarray:
    """step applied stride times to x."""
    for _ in range(stride):
        x = step(x)
    return x


def _squaring_ladder(S: np.ndarray, longest: int) -> list[np.ndarray]:
    """S, S^2, S^4, ..., one rung per binary digit of longest, each the
    square of the one before.  The rungs are charged as 8 D^4 bytes each
    through :func:`qtraj.errors.check_memory`."""
    rungs = longest.bit_length()
    check_memory("rungs of the step-matrix ladder", rungs, S.nbytes, "matrices")
    ladder = [S]
    while len(ladder) < rungs:
        ladder.append(ladder[-1] @ ladder[-1])
    return ladder


def _climbed(ladder: list[np.ndarray], x: np.ndarray, stride: int) -> np.ndarray:
    """S^stride x from the ladder of S: the rung of each binary digit of
    stride that is set, applied low digit first."""
    for k, rung in enumerate(ladder):
        if stride >> k & 1:
            x = rung @ x
    return x


def rk4_solve(gen: MasterGenerator, rho0, T: float, dt: float, record_times=None):
    """Classic fourth-order integration of drho/dt = L(rho), L the
    averaged generator gen.

    rho0 must be Hermitian within HERMITICITY_TOL.  The state moves into the
    generator's basis U once and is symmetrized there once.  Then one loop
    over the record steps, in time order, advances the state by the stride
    of steps to the next record, in one of two forms chosen by size alone:

    * D <= RK4_MATRIX_MAX_DIM: the generator does not depend on time, so the
      classic RK4 step :func:`_rk4_step` is the fixed real D^2 x D^2 matrix
      S = :meth:`MasterGenerator.rk4_matrix` on the state's Hermitian
      coordinates, and s steps are S^s.  A ladder S, S^2, S^4, ... is
      squared once, up to the longest stride, and a stride applies the rung
      of each of its binary digits: about log2(s) matrix-vector products
      in place of s.  The powers round differently from s single steps,
      by an amount that grows with s: below 1e-13 of the state over 1000
      steps, 2.4e-12 over 10^5 at D = 4 (1.1e-14 step by step);
    * larger D: :func:`_rk4_step` applies :meth:`MasterGenerator.hermitian_rhs`,
      one D x D product plus one Hadamard product, to the state itself,
      step by step.  Its output is exactly Hermitian for an exactly
      Hermitian input, and real-weighted sums keep that.

    Either way every state is exactly Hermitian in U's basis with no
    further symmetrization; the timings that set the crossover are quoted at
    RK4_MATRIX_MAX_DIM.  States rotate back only at record times, a record
    at t = 0 returns rho0 as given, and no step is taken past the last
    record.  The step size must satisfy the stability bound
    dt * gen.norm <= RK4_BOUND.
    Returns (times, densities) at the requested record times (default: T).
    """
    if not isinstance(gen, MasterGenerator):
        raise ValidationError(
            f"rk4_solve needs a generator from master_generator, got {type(gen).__name__}"
        )
    arr = as_matrix(rho0, "rho0")
    if arr.shape[0] != gen.dim:
        raise ValidationError(
            f"rho0 must act on the generator's dimension {gen.dim}, got {arr.shape[0]}"
        )
    check_hermitian(arr, "rho0")
    gen_norm = gen.norm
    if dt * gen_norm > RK4_BOUND + 1e-12:
        raise ValidationError(
            f"dt * ||generator|| = {dt * gen_norm:.3e} violates the stability "
            f"bound {RK4_BOUND}; reduce dt below {RK4_BOUND / max(gen_norm, 1e-300):.3e}"
        )
    _, times, rec_map = _step_grid(T, dt, record_times)
    out = np.empty((times.size, *arr.shape), dtype=complex)
    for j in rec_map.pop(0, []):
        out[j] = arr
    steps = sorted(rec_map)
    strides = np.diff(steps, prepend=0).tolist()
    rho = gen.to_basis(arr)
    rho = 0.5 * (rho + rho.conj().T)
    if gen.dim <= RK4_MATRIX_MAX_DIM:
        advance = partial(_climbed, _squaring_ladder(gen.rk4_matrix(dt), max(strides, default=0)))
        x, decode = hermitian_coordinates(rho), hermitian_from_coordinates
    else:
        advance = partial(_repeated, partial(_rk4_step, gen.hermitian_rhs, dt=dt))
        x, decode = rho, np.asarray
    for s, stride in zip(steps, strides):
        x = advance(x, stride)
        for j in rec_map[s]:
            out[j] = gen.from_basis(decode(x))
    return times, out


def _floats(values: np.ndarray):
    """The entries of a 1-D array as Python floats, made 4096 at a time:
    a whole column's floats would cost 32 bytes a row."""
    return chain.from_iterable(values[i:i + 4096].tolist() for i in range(0, values.size, 4096))


def _fsum_mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    mean = math.fsum(_floats(values)) / n
    if n < 2:
        return mean, 0.0
    # Squares through libm pow, as float ** 2 rounds them: numpy's square is
    # correctly rounded and differs from pow in the last bit of about 0.1% of
    # values, which could move the last bit of the standard error.
    var = math.fsum(map(pow, _floats(values - mean), repeat(2.0))) / (n - 1)
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


def check_result_size(n_traj: int, n_samples: int, n_observables: int,
                      events: float = 0.0) -> int:
    """The bytes of the columns that n_traj rows keep beyond their chunks,
    rejected through :func:`qtraj.errors.check_memory` before any array
    exists.  A row keeps its index, event count, log weight and final norm
    or trace; per sample a weight, entropy, minimum eigenvalue and one value
    per observable; and per event (events a bound on its event count,
    :func:`qtraj.jumps._event_bound`, where the events are kept) a time and
    an outcome, as :func:`run_trajectories` keeps them, 8 bytes each.

    The window of chunks beside these columns is charged by
    :func:`trajectory_chunks`."""
    record_bytes = 8 * (3 + n_observables)
    check_memory("n_samples", n_samples, record_bytes, "records", fixed=32)
    row = 32 + n_samples * record_bytes + 16 * events
    check_memory("n_traj", n_traj, row, "result rows")
    return n_traj * math.ceil(row)


# The per-sample series of a row, all that trajectory_stats reads.
SERIES = ("weights", "values", "entropy", "min_eig")
# What trajectory_chunks yields of each chunk: its whole columns (states
# dropped), its series alone, or its series and its trajectories.jsonl lines.
KEEP = ("events", "series", "records")


def trajectory_chunks(
    cfg,
    initial,
    T: float,
    n_traj: int,
    observables=None,
    sample_times=None,
    n_workers: int = 1,
    equation: str | None = None,
    keep: str = "events",
):
    """The columns of trajectories 0..n_traj-1 of any stochastic config, as
    an iterator over consecutive chunks of rows in index order; row i is
    trajectory i, which uses the random stream (cfg.seed, i).

    n_traj, keep, the config type and sample_times (default: T) are
    validated, and the run's memory decided, when this is called, before
    anything is drawn; each batch checks its own inputs (initial state,
    observables, equation) and its own charge when it runs.  equation is
    the density mode of a ManyBodyConfig (default "normalized") and the
    equation of a DiffusionConfig (required, see :func:`run_ensemble`); a
    JumpConfig carries its own mode and takes none.

    Each chunk is one batch of its engine, run where the chunk runs, in a
    worker process or in-process (:func:`_map_chunks`), whose states (final
    rows, or a diffusion batch's recorded states) are dropped there.  keep
    (:data:`KEEP`) says what comes back of it: "events" its columns, events
    included; "series" its indices and per-sample series (:data:`SERIES`),
    all :func:`series_columns` reads; "records", for event configs, the pair
    of those series and the chunk's trajectories.jsonl lines
    (:func:`qtraj.records.encode`, seeded cfg.seed), scanned where the
    chunk ran and rendered there whole in a worker, or lazily, block by
    block as they are written, in-process.

    The memory rule: the columns the run keeps (:func:`check_result_size`,
    events included only with keep "events") and one window of chunks must
    fit.  In-process the window is one chunk, charged rows times its
    batch's bytes per row plus its fixed bytes
    (:func:`qtraj.jumps._event_charge`, :func:`qtraj.diffusion._batch_charge`).
    A pool of n workers holds n chunks ahead of the one the parent
    consumes, each in its batch or finished and waiting for the parent as
    its result: its kept columns and lines (:func:`qtraj.records.text_bytes`
    a row).  Each of these n + 1 chunks is charged its batch plus its
    result.  Event rows are bit-identical in any
    chunk, so an event chunk holds at most _CHUNK rows, a 1/n share, n
    being n_workers capped at :func:`usable_cpus`, the rows that fit in
    _EVENT_CHUNK_BYTES (for mixing rows also in _MIXING_BATCH_BYTES, sized
    from the copy-block row) and the rows that fit beside the kept columns.
    Density paths agree with other batch sizes only to rounding, so a
    diffusion chunk holds _CHUNK paths whatever n_workers and memory.  The
    run fails before any draw unless the kept columns and one chunk (of one
    row, for events) fit; then the worker count, min(n_workers, chunks,
    usable CPUs), falls until the pool's window fits, to one (in-process)
    at the least, before any process starts.
    """
    check_integer("n_traj", n_traj, 1)
    sample_times = _record_times(sample_times, T)
    if keep not in KEEP:
        raise ValidationError(f"keep must be one of {KEEP}, got {keep!r}")
    n_workers = max(1, min(n_workers, usable_cpus()))
    kw = {"sample_times": sample_times, "observables": observables}
    if isinstance(cfg, (JumpConfig, ManyBodyConfig)):
        if isinstance(cfg, JumpConfig):
            if equation is not None:
                raise ValidationError(f"a JumpConfig runs in its own mode {cfg.mode!r}; "
                                      f"pass no equation, got {equation!r}")
            rate, copies, size = cfg.nu, 0, _CHUNK
            batch = partial(_jump_batch, cfg, initial, T, **kw)
        else:
            rate, copies = cfg.total_intensity, cfg.copy_row_bytes
            size = min(_CHUNK, max(1, _MIXING_BATCH_BYTES // copies))
            batch = partial(_mixing_batch, cfg, initial, T, equation or "normalized", **kw)
        row, fixed = _event_charge(rate, T, sample_times.size, copies)
        size = min(size, -(-n_traj // n_workers), max(1, int(_EVENT_CHUNK_BYTES // row)))
        least = 1
    elif isinstance(cfg, DiffusionConfig):
        if keep == "records":
            raise ValidationError("diffusion paths have no records; keep 'events' or 'series'")
        rate, size = 0.0, min(_CHUNK, n_traj)
        least = size
        row, fixed = _batch_charge(cfg, equation, sample_times.size)
        batch = partial(_diffusion_batch, cfg, initial, T, equation, **kw)
    else:
        raise ValidationError(f"unsupported config type {type(cfg).__name__}")
    n_obs, events = len(observables or {}), _event_bound(rate, T)
    kept = check_result_size(n_traj, sample_times.size, n_obs, events * (keep == "events"))
    # An event chunk shrinks to the rows that fit beside the kept columns,
    # one row at the least; a diffusion chunk must fit whole.
    size = min(size, check_memory("rows of a chunk beside the kept columns", least, row,
                                  "rows", fixed=kept + fixed))
    result = kept // n_traj
    if keep == "records":
        result += text_bytes(events, sample_times.size, n_obs, isinstance(cfg, ManyBodyConfig))
    # How many chunks of a pool's window fit (a count of 0 never raises,
    # as the kept columns fit).
    fit = check_memory("chunks in flight", 0, size * (row + result) + fixed, "chunks", fixed=kept)
    n_workers = min(n_workers, -(-n_traj // size), max(1, fit - 1))

    def run(idx):
        cols = replace(batch(idx), states=None)
        if keep == "events":
            return cols
        series = EventColumns(indices=cols.indices, sample_times=cols.sample_times,
                              names=cols.names, **{name: getattr(cols, name) for name in SERIES})
        if keep == "series":
            return series
        lines = encode(cfg.seed, cols)
        return series, list(lines) if n_workers > 1 else lines

    chunks = (range(lo, min(lo + size, n_traj)) for lo in range(0, n_traj, size))
    return _map_chunks(run, chunks, n_workers)


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
    being trajectory i: the chunks of :func:`trajectory_chunks`, with the
    same arguments, concatenated in index order, events included, and
    charged as kept.  Use :func:`series_columns` where the per-sample series
    are enough."""
    return EventColumns.concat(list(trajectory_chunks(
        cfg, initial, T, n_traj, observables, sample_times, n_workers, equation)))


def series_columns(chunks, n_traj: int) -> EventColumns:
    """The indices and per-sample series (:data:`SERIES`) of n_traj rows,
    from chunks of their columns in index order, such as those of
    :func:`trajectory_chunks`: each is copied into an array allocated once,
    at the first chunk, so a chunk is dropped once the next is taken.
    Events, final values and log weights are not kept."""
    out, lo = None, 0
    for cols in chunks:
        if out is None:
            shapes = {name: getattr(cols, name).shape for name in SERIES
                      if getattr(cols, name) is not None}
            out = EventColumns(indices=np.empty(n_traj, dtype=np.intp),
                               sample_times=cols.sample_times, names=cols.names,
                               **{name: np.empty((*shape[:-2], n_traj, shape[-1]))
                                  for name, shape in shapes.items()})
        hi = lo + cols.indices.size
        out.indices[lo:hi] = cols.indices
        for name in shapes:
            getattr(out, name)[..., lo:hi, :] = getattr(cols, name)
        lo = hi
        del cols  # before the next chunk is drawn
    return out


def _series_stats(series: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(means, standard errors) per sample of series[row, sample], times
    weights[row, sample] if given, one sample at a time."""
    return np.array([_fsum_mean_se(series[:, s] if weights is None else weights[:, s] * series[:, s])
                     for s in range(series.shape[1])]).T


def trajectory_stats(cols: EventColumns) -> EnsembleStats:
    """Per-time statistics of the columns of any stochastic run, summed over
    rows in index order: weights are the reported squared norms (traces),
    observable estimators weight * <X>; density rows add entropy statistics."""
    obs = np.array([_series_stats(v, cols.weights) for v in cols.values]).reshape(
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
    """:func:`trajectory_stats` of :func:`trajectory_chunks`: per-time
    statistics of n_traj >= 2 independent trajectories of any stochastic
    config, at ten equal steps up to T unless sample_times are given, and
    independent of the worker count.

    A JumpConfig runs in its own mode and takes no equation; for a
    ManyBodyConfig equation is the density mode (default "normalized").  A
    DiffusionConfig needs one of
    :data:`qtraj.diffusion.EQUATIONS`, each with its weight:

    * "linear": linear state equation, weight ||chi||^2;
    * "coupled": unitary-dilation state equation, weight ||psi||^2 (one to
      rounding);
    * "density": M-particle density equation, weight Tr(rho), with entropy
      statistics.
    """
    check_integer("n_traj", n_traj, 2)
    if sample_times is None:
        _record_times(None, T)  # T, before its ten steps are built from it
        sample_times = np.linspace(T / 10.0, T, 10)
    return trajectory_stats(series_columns(trajectory_chunks(
        cfg, initial, T, n_traj, observables, sample_times, n_workers, equation, "series"),
        n_traj))


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


# The chunk function of a forked worker process, set by _install at its
# start: it is inherited through the fork, never pickled.
_task = None


def _install(worker, cpus):
    """Start a worker process: set its chunk function, and pin it to the
    next CPU of cpus, a queue holding one of the parent's CPUs (or None)
    per worker.

    Left to the OS, forked workers could share the parent's CPU with
    another CPU idle for a whole run: on a 2-CPU VM both workers and the
    parent ran every chunk of a 1.1-1.3 s call on CPU 0, at half the
    throughput, in 1 or 2 of every 6-10 fresh processes.  Placement
    changes no result; a CPU that cannot be taken is left to the
    scheduler.  Called in the parent (a stand-in pool), it sets the chunk
    function alone."""
    from multiprocessing import parent_process

    global _task
    _task = worker
    if parent_process() is None:
        return
    cpu = cpus.get()
    if cpu is not None:  # None where the OS has no affinity call
        with suppress(OSError):
            os.sched_setaffinity(0, {cpu})


def _run_task(idx):
    return _task(idx)


def _map_chunks(worker, chunks, n_workers: int):
    """An iterator over worker of each of chunks (an iterator), in order.

    One worker, or a platform without fork, maps in-process.  Otherwise
    n_workers forked processes run the chunks, each on its own CPU
    (:func:`_install`): each inherits worker at the fork, and only index
    ranges and results cross between processes.  Up
    to n_workers chunks run ahead of the one the consumer holds, and their
    results are yielded in index order, so a failing chunk raises when its
    turn comes, as it would in-process, and a worker that dies raises a
    SimulationError.  When the iterator ends, fails or is closed, the
    chunks not yet started are cancelled and every worker is joined."""
    if n_workers <= 1 or not hasattr(os, "fork"):
        yield from map(worker, chunks)
        return
    # Loaded here, so that a process that starts no pool never loads them.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    context = get_context("fork")
    cpus = context.SimpleQueue()
    mask = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    for cpu in islice(cycle(mask), n_workers):
        cpus.put(cpu)
    pool = ProcessPoolExecutor(n_workers, mp_context=context, initializer=_install,
                               initargs=(worker, cpus))
    try:
        ahead = deque(pool.submit(_run_task, idx) for idx in islice(chunks, n_workers))
        while ahead:
            current = ahead.popleft()
            ahead.extend(pool.submit(_run_task, idx) for idx in islice(chunks, 1))
            yield current.result()
    except BrokenProcessPool as exc:
        raise SimulationError("a worker process ended abruptly, killed or out of memory; "
                              "rerun with one worker to run every chunk in-process") from exc
    finally:
        pool.shutdown(cancel_futures=True)
        cpus.close()


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
    return master_generator(cfg).superop()


def jump_to_diffusion_bridge(base: DiffusionConfig, nu_list) -> BridgeReport:
    """For each nu, build the jump model at kappa = gamma / sqrt(nu) and
    measure the relative Frobenius distance between its averaged generator
    and the diffusive one.  Requires a zero-mean-momentum pointer, otherwise
    the mean-field drift dominates the comparison."""
    nus = np.asarray(list(nu_list), dtype=float)
    if nus.size < 2 or np.any(np.diff(nus) <= 0):
        raise ValidationError("nu list must be increasing with at least two entries")
    if not nus[0] > 0:
        raise ValidationError(f"bridge jump rates must be positive, got nu={float(nus[0])!r}")
    if base.M != 1:
        raise ValidationError("the bridge is a single-particle comparison; use M=1")
    if abs(base.noise.q0) > 1e-8:
        raise ValidationError(
            f"bridge requires q0 = 0 (mean-field drift would dominate), got q0={base.noise.q0!r}"
        )
    L_diff = master_generator(MasterConfig.from_diffusion(base)).superop()
    denom = float(np.linalg.norm(L_diff))
    errors = np.empty(nus.size)
    kappas = np.empty(nus.size)
    for j, nu in enumerate(nus):
        kappa = base.gamma / math.sqrt(nu)
        kappas[j] = kappa
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            errors[j] = float(np.linalg.norm(_jump_superop(base, kappa, nu) - L_diff)) / denom
        if not math.isfinite(errors[j]):
            raise NumericError(f"the bridge distance at nu={float(nu)!r} is not finite")
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
    D = base.dim
    L_mf = MasterGenerator(np.eye(D), Heff, np.zeros((D, D)), base.hbar).superop()
    return float(np.linalg.norm(L_jump - L_mf) / np.linalg.norm(L_mf))
