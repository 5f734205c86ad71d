"""Diffusive (central-limit) regime of the monitored dynamics.

When the scattering rate grows while the per-event coupling shrinks like
kappa = gamma / sqrt(nu) (with a zero-mean-momentum pointer), the counting
noise converges to Wiener noise whose statistics are set by the logarithmic
derivative of the pointer packet, the osmotic velocity -f0'/f0.  This module
realizes the limiting equations with classical Gaussian processes carrying
the limit covariances:

* linear state equation   dchi + K chi dt = gamma R chi dv,
  K = (i/hbar) H + (1/2) (gamma/hbar)^2 R sigma^2 R, with complex noise
  E[dv dv] = c1 dt, E[dv* dv] = c2 dt; the drift exactly balances the noise
  quadratic variation, making ||chi||^2 a mean-one martingale.  The
  Hamiltonian factor of each Euler-Maruyama step is applied as the exact
  unitary, so the gamma = 0 limit conserves the norm to rounding and the
  O(dt) weak bias comes only from the measurement terms: with
  D = (1/2) (gamma/hbar)^2 sigma^2 R^2 a step raises E||chi||^2 by exactly
  dt^2 E<chi|D^2|chi>, so 0 <= E||chi_T||^2 - 1 <= expm1(T dt ||D||^2).
* coupled (dilation) equation  dpsi + K psi dt = (i/hbar) gamma R psi du
  with a real Wiener du of variance sigma^2 dt.  The noise enters as an
  R-generated phase, so the integrator steps with the exact unitary factor
  exp((i/hbar) gamma R du); R-populations are then conserved pathwise when
  [R, H] = 0, as the continuum equation demands.
* density equation for M particles, driven by one complex Wiener process
  with the covariance of sqrt(M) v, trace-normalized in the mean.

The linear state equation uses Euler-Maruyama stepping.  The density equation
factors the noise exactly as the completely positive map
exp(gamma dw Rbar) . exp(gamma dw* Rbar), with the noise mean moved out of
the Euler drift; this has the same first-order weak accuracy but keeps the
positivity defect at the O(dt^2) level (a plain Euler step dips to
O(sqrt(dt)^3) negativity near the spectrum edge, which violates the
positivity contract at practical step sizes).  Every factor of a density
step preserves Hermiticity, so the kernel steps the density in D^2 real
coordinates (the diagonal, Re and Im of the upper triangle) with a real
step matrix and the real modulus of the noise factor; the noise phase is
applied only when the noise is complex (a phase-modulated packet), and the
complex density is rebuilt only at record steps.  A real packet gives
exactly real noise: noise_covariance computes c1 and c2 from the same real
sums.  With noise=False the noise map is replaced by its exact one-step
mean, so the same kernel steps the averaged (Lindblad-form) equation.  The
kernels draw the noise in their step loops, each path from its own stream;
a complex increment dv is two normals mapped by the Cholesky factors of
_noise_chol.  All noise draws are pure functions of (seed, path index, step
index).

The two state equations share one batched kernel, _coupled_states: the rows
live in R's eigenbasis, where each step is an elementwise factor (the
coupled phase or the linear Euler factor) followed by the fixed unitary
VR^dag exp(-i H dt / hbar) VR.  The density equation has its own,
_density_states.  The kernels run as a batch of one by evolve_diffusive_sse /
evolve_coupled_sse / evolve_diffusive_density and in chunks by
run_ensemble.  Every path draws from its own stream; state paths are
bit-identical in any batch (their products are elementwise sums), density
ones agree to rounding (their step is a BLAS product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import NumericError, ValidationError
from .linalg import (
    HermitianOperator,
    StateVector,
    _check_particles,
    as_matrix,
    embed_at_slot,
    hermitian_eig,
    kron_power,
    propagator,
    slot_sum,
    spectrum_entropy,
)
from .meter import PointerState, STATE_NORM_TOL
from .rng import stream

BLOWUP_LIMIT = 1e6
POSITIVITY_TOL = 1e-6
_NOISE_BLOCK = 64
# Density kernel: steps per normal draw and per batch of noise factors
# (2 MB of normals and 1 MB of real factors at 512 paths and D = 4).
_DRAW_BLOCK = 256
_FACTOR_BLOCK = 16


class NoiseCovariance(NamedTuple):
    """Per-unit-time noise statistics derived from the pointer packet."""

    c1: complex  # E[dv dv] / dt
    c2: float    # E[dv* dv] / dt, equals sigma^2 / hbar^2
    q0: float    # mean pointer momentum (f0, Q f0), Q = i hbar d/dlambda
    sigma2: float


def noise_covariance(pointer: PointerState, hbar: float = 1.0) -> NoiseCovariance:
    """Quadrature evaluation of the osmotic-velocity covariances.

    Uses the closed-form derivative for tagged Gaussian packets and
    second-order finite differences for tabulated ones.  sigma^2 is defined
    as hbar^2 c2 so the martingale balance of the linear equation is exact
    by construction.
    """
    if hbar <= 0:
        raise ValidationError(f"hbar must be positive, got {hbar}")
    mask = pointer.support
    if not np.any(mask):
        raise ValidationError("pointer packet has empty support")
    lo, hi = np.flatnonzero(mask)[[0, -1]]
    if not np.all(mask[lo : hi + 1]):
        raise NumericError(
            "pointer packet vanishes inside its bulk support; "
            "osmotic velocity is degenerate there"
        )
    f0 = pointer.values[lo : hi + 1]
    df0 = pointer.derivative_values()[lo : hi + 1]
    dlam = pointer.weights[lo : hi + 1]
    lp = -df0 / f0
    dens = np.abs(f0) ** 2 * dlam
    # c1 and c2 from the same real sums: for a real packet (Im lp = 0) they
    # give c2 == Re c1 and Im c1 == 0 exactly, so the noise is exactly real.
    re, im = lp.real, lp.imag
    c1 = complex(np.sum((re * re - im * im) * dens), 2.0 * np.sum(re * im * dens))
    c2 = float(np.sum((re * re + im * im) * dens))
    q0 = float((1j * hbar * np.sum(f0.conj() * df0 * dlam)).real)
    return NoiseCovariance(c1=c1, c2=c2, q0=q0, sigma2=hbar * hbar * c2)


def _noise_chol(dt: float, c1: complex, c2: float) -> tuple[float, float, float]:
    """Cholesky factors (a11, a21, a22) mapping two standard normals z to
    Re dv = a11 z1, Im dv = a21 z1 + a22 z2, the complex increment with
    E[dv dv] = c1 dt and E[dv* dv] = c2 dt."""
    if c2 < abs(c1) - 1e-12:
        raise ValidationError(f"covariance table needs c2 >= |c1|, got c1={c1}, c2={c2}")
    vx = max((c2 + c1.real) / 2.0 * dt, 0.0)
    vy = max((c2 - c1.real) / 2.0 * dt, 0.0)
    cxy = c1.imag / 2.0 * dt
    a11 = math.sqrt(vx)
    a21 = cxy / a11 if a11 > 0 else 0.0
    a22 = math.sqrt(max(vy - a21 * a21, 0.0))
    return a11, a21, a22


@dataclass(frozen=True)
class DiffusionConfig:
    """Configuration of the diffusive-regime integrators.

    H and R are single-particle operators; for the M-particle density
    equation the Hamiltonian is lifted as a sum over slots.  The pointer
    supplies the noise covariances, the mean momentum q0 and the dispersion
    sigma^2 through :func:`noise_covariance`.
    """

    H: HermitianOperator
    R: HermitianOperator
    gamma: float
    pointer: PointerState
    dt: float
    hbar: float = 1.0
    seed: int = 0
    M: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.hbar <= 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        _check_particles(self.M)
        if self.H.dim != self.R.dim:
            raise ValidationError("H and R must share a dimension")
        cov = noise_covariance(self.pointer, self.hbar)
        if cov.sigma2 <= 0:
            raise ValidationError("pointer packet has zero dispersion sigma^2")
        object.__setattr__(self, "noise", cov)

    @property
    def dim(self) -> int:
        return self.H.dim


@dataclass
class StatePath:
    times: np.ndarray
    states: np.ndarray  # (n_times, d)
    norm2: np.ndarray


@dataclass
class DensityPath:
    times: np.ndarray
    rhos: np.ndarray  # (n_times, D, D)
    trace: np.ndarray
    entropy: np.ndarray
    min_eig: np.ndarray


def _step_grid(T: float, dt: float, times) -> tuple[int, np.ndarray, dict[int, list[int]]]:
    """(step count, record steps, rec_map) of a fixed-step run over [0, T]:
    rec[j] is the step of record time times[j] and rec_map[s] the record
    slots to fill after step s.  T must be a positive multiple of dt and
    every record time a grid point in [0, T]."""
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValidationError(f"T={T} must be a positive multiple of dt={dt}")
    times = np.asarray(times, dtype=float)
    rec = np.round(times / dt).astype(int)
    if np.any(np.abs(rec * dt - times) > 1e-9) or np.any(rec < 0) or np.any(rec > n_steps):
        raise ValidationError("record times must align with the integration step grid")
    rec_map: dict[int, list[int]] = {}
    for j, s in enumerate(rec.tolist()):
        rec_map.setdefault(s, []).append(j)
    return n_steps, rec, rec_map


def _guard(ok: np.ndarray, what: str, seed: int, indices, times):
    """Raise a NumericError unless ok holds everywhere; ok[i, s] is the
    verdict on path indices[i] at record time times[s], and the message names
    the seed, the path index and the time of the first failing path."""
    if not np.all(ok):
        i, s = np.argwhere(~ok)[0]
        raise NumericError(
            f"{what} at t={float(times[s])!r} (seed={seed}, path index={indices[i]}); "
            "reduce dt, or rerun that index alone to reproduce"
        )


def _rows_matmul(y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """y @ M as a sum of elementwise products, so every row is rounded the
    same way whatever the number of rows (BLAS matmul does not promise that)."""
    out = y[:, :1] * M[0]
    for k in range(1, M.shape[0]):
        out += y[:, k : k + 1] * M[k]
    return out


def _coupled_states(
    cfg: DiffusionConfig, eta: StateVector, T: float, indices, sample_times,
    equation: str = "coupled",
) -> tuple[np.ndarray, np.ndarray]:
    """Paths of the coupled (default) or the linear state equation, one row
    per index.

    The rows live in R's eigenbasis (eigenvalues w), where a step is an
    elementwise factor f followed by the fixed unitary
    VR^dag exp(-i H dt / hbar) VR; rows are rotated back only at record
    steps.  Coupled: the exact phase f = exp((i/hbar) gamma w du), du sigma
    sqrt(dt) times one normal.  Linear: the Euler-Maruyama factor
    f = 1 - dt (1/2) (gamma/hbar)^2 sigma^2 w^2 + gamma dv w, dv built by
    :func:`_noise_chol` from two normals.  Each path draws from its own
    stream in blocks of _NOISE_BLOCK steps (the same normals as one draw of
    all steps) and the products are :func:`_rows_matmul`, so a row is
    bit-identical in any batch.  A recorded squared norm beyond BLOWUP_LIMIT
    or not finite fails :func:`_guard`.  Returns (record steps, states),
    states[i, j] the unnormalized state of path indices[i] at record step j.
    """
    if cfg.M != 1:
        raise ValidationError("the state equations are single-particle; use M=1")
    if abs(eta.norm2() - 1.0) > STATE_NORM_TOL:
        raise ValidationError("initial state must be normalized")
    n_steps, rec, rec_map = _step_grid(T, cfg.dt, sample_times)
    gens = [stream(cfg.seed, i) for i in indices]
    n = len(gens)
    wR, VR = hermitian_eig(cfg.R)
    UT = (VR.conj().T @ propagator(cfg.H, cfg.dt, cfg.hbar) @ VR).T
    amps = eta.amps.astype(complex)
    y = np.tile(VR.conj().T @ amps, (n, 1))
    out = np.empty((n, rec.size, cfg.dim), dtype=complex)
    if 0 in rec_map:
        out[:, rec_map[0]] = amps
    linear = equation == "linear"
    if linear:
        a11, a21, a22 = _noise_chol(cfg.dt, cfg.noise.c1, cfg.noise.c2)
        g_h = cfg.gamma / cfg.hbar
        drift = 1.0 - cfg.dt * 0.5 * g_h * g_h * cfg.noise.sigma2 * wR * wR
        rate = cfg.gamma * wR
    else:
        du_scale = math.sqrt(cfg.noise.sigma2 * cfg.dt)
        rate = (cfg.gamma / cfg.hbar) * wR
    z = np.empty((n, _NOISE_BLOCK, 2 if linear else 1))
    factor = np.empty((_NOISE_BLOCK, n, cfg.dim), dtype=complex)
    # _guard rejects every non-finite record, so numpy's inf/nan warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0
        while s < n_steps:
            block = min(_NOISE_BLOCK, n_steps - s)
            for k, g in enumerate(gens):
                g.standard_normal(out=z[k, :block])
            zt = z[:, :block].transpose(1, 0, 2)  # (step, path, normal)
            re, im = factor[:block].real, factor[:block].imag
            if linear:  # re = drift + gamma Re(dv) w, im = gamma Im(dv) w
                np.multiply((a11 * zt[:, :, 0])[:, :, None], rate, out=re)
                re += drift
                np.multiply((a21 * zt[:, :, 0] + a22 * zt[:, :, 1])[:, :, None], rate, out=im)
            else:  # phase arguments du * rate, built in place to keep the block small
                z *= du_scale
                np.multiply(zt, rate, out=re)
                np.sin(re, out=im)
                np.cos(re, out=re)
            for b in range(block):
                y *= factor[b]
                y = _rows_matmul(y, UT)
                if s + b + 1 in rec_map:
                    chi = _rows_matmul(y, VR.T)
                    n2 = np.einsum("ni,ni->n", chi.conj(), chi).real
                    _guard((n2 <= BLOWUP_LIMIT)[:, None],
                           f"squared norm exceeded {BLOWUP_LIMIT:.0e}",
                           cfg.seed, indices, [(s + b + 1) * cfg.dt])
                    out[:, rec_map[s + b + 1]] = chi[:, None, :]
            s += block
    return rec, out


def _coupled_batch(cfg, eta, T, indices, sample_times, observables, equation="coupled"):
    """State-equation paths reduced to (weights, obs): weights[i, s] =
    ||chi||^2 and obs[i, s, o] the normalized expectation of observable o.
    Rows are reduced one by one as in :func:`_single_path`, so a path's
    values do not depend on the batch it ran in."""
    states = _coupled_states(cfg, eta, T, indices, sample_times, equation)[1]
    n, n_times, d = states.shape
    flat = states.reshape(n * n_times, d)
    n2 = np.einsum("ni,ni->n", flat.conj(), flat).real
    obs = np.empty((n * n_times, len(observables)))
    for o, X in enumerate(observables.values()):
        obs[:, o] = np.einsum("ni,ij,nj->n", flat.conj(), X, flat).real / n2
    return n2.reshape(n, n_times), obs.reshape(n, n_times, len(observables))


def _single_path(equation, cfg, eta, T, index, record_times) -> StatePath:
    """Path `index` as a batch of one, recorded at record_times (default: T)."""
    rec, states = _coupled_states(
        cfg, eta, T, [index], [T] if record_times is None else record_times, equation
    )
    chi = states[0]
    return StatePath(rec * cfg.dt, chi, np.einsum("ni,ni->n", chi.conj(), chi).real)


def evolve_diffusive_sse(
    cfg: DiffusionConfig, eta: StateVector, T: float, index: int = 0, record_times=None
) -> StatePath:
    """One path of the linear diffusive state equation, a batch of one of
    :func:`_coupled_states`: per step the Euler-Maruyama factor of the
    measurement terms, then the exact unitary exp(-i H dt / hbar)."""
    return _single_path("linear", cfg, eta, T, index, record_times)


def evolve_coupled_sse(
    cfg: DiffusionConfig, eta: StateVector, T: float, index: int = 0, record_times=None
) -> StatePath:
    """One unitary-dilation path, a batch of one of :func:`_coupled_states`:
    per step the exact phase factor exp((i/hbar) gamma R du), then
    exp(-i H dt / hbar).

    Pathwise norm-preserving; R-populations are exactly conserved whenever
    [R, H] = 0 because the noise acts as an R-generated phase.
    """
    return _single_path("coupled", cfg, eta, T, index, record_times)


def _hermitian_index(D: int):
    """Row-major positions (diag, up, lo) in vec(rho) of the diagonal, the
    strict upper triangle and its mirror in the lower one."""
    I, J = np.triu_indices(D, 1)
    return np.arange(D) * (D + 1), I * D + J, J * D + I


def _density_kernel(cfg: DiffusionConfig):
    """Stepping data in the eigenbasis of the mean coupling operator Rbar,
    in real Hermitian coordinates.

    In that basis every lifted R(k) is diagonal, so the exact noise factor
    exp(gamma dw Rbar) acts as an elementwise rank-one scaling of the
    density.  The deterministic part of a step is the constant superoperator

        P0 = kron(E0, conj(E0)) + dt * S,
        E0 = expm(-K' dt),  S[rho] = (gamma/hbar)^2 sigma^2
                                     sum_k (R_k - Rbar) rho (R_k - Rbar),

    with K' = K + (1/2) gamma^2 M c1 Rbar^2 absorbing the one-step mean of
    the noise factor.  Every factor of a step is a completely positive map,
    so positivity holds pathwise up to rounding, while the one-step mean
    still matches the density equation to first weak order.

    A Hermitian D x D matrix has D^2 real coordinates x: the diagonal
    rho_ii, then Re rho_ij and Im rho_ij over the strict upper triangle
    (row-major, see :func:`_hermitian_index`).  P0 maps Hermitian matrices
    to Hermitian ones, so it acts on x as a real D^2 x D^2 matrix P: the
    column of a coordinate is P0 applied to that coordinate's Hermitian unit
    matrix (E_ii, E_ij + E_ji or i E_ij - i E_ji), read in coordinates.
    Returns (VM, w, rbar, P), w the single-particle eigenvalues of R and
    rbar the diagonal of Rbar.
    """
    M = cfg.M
    w, V = hermitian_eig(cfg.R)
    VM = kron_power(V, M)
    rk_vecs = [np.diag(embed_at_slot(np.diag(w), k, M)).real for k in range(1, M + 1)]
    rbar = sum(rk_vecs) / M
    Ht = slot_sum(V.conj().T @ cfg.H.entries @ V, M)
    g_h = cfg.gamma / cfg.hbar
    Kt = (1j / cfg.hbar) * Ht + np.diag(
        0.5 * g_h * g_h * cfg.noise.sigma2 * sum(rk * rk for rk in rk_vecs)
    ).astype(complex)
    Kp = Kt + np.diag(0.5 * cfg.gamma ** 2 * cfg.M * cfg.noise.c1 * rbar * rbar)
    E0 = expm(-Kp * cfg.dt)
    P0 = np.kron(E0, E0.conj())
    exchange = sum(np.outer(rk - rbar, rk - rbar).ravel() for rk in rk_vecs)
    P0 += np.diag(cfg.dt * g_h * g_h * cfg.noise.sigma2 * exchange)
    diag, up, lo = _hermitian_index(VM.shape[0])
    # The rows read back (diagonal, upper triangle) applied to the Hermitian
    # unit matrices E_ii, E_ij + E_ji and i E_ij - i E_ji
    A = P0[np.concatenate([diag, up])]
    cols = np.concatenate([A[:, diag], A[:, up] + A[:, lo], 1j * (A[:, up] - A[:, lo])], axis=1)
    # C order fixes the BLAS kernel, and so the rounding, of the step GEMM
    return VM, w, rbar, np.ascontiguousarray(np.concatenate([cols.real, cols[diag.size :].imag]))


def _density_states(cfg: DiffusionConfig, rho0, T: float, indices, sample_times,
                    noise: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Paths of the M-particle density equation, one per index.

    The state lives in Rbar's eigenbasis in the real Hermitian coordinates
    of :func:`_density_kernel`, one column of D^2 reals per path.  Per step
    the constant factor P is one real GEMM, and the noise factor
    G = a (x) conj(a), a = exp(gamma dw Rbar), is one elementwise product
    with its modulus |G_IJ| = exp(gamma Re dw (r_I + r_J)), r = rbar, on
    the diagonal, Re and Im rows alike.  Since Rbar = (1/M) sum_k R_k, the
    real a = b^{(x)M} with b = exp(gamma Re dw w / M): d real exponentials
    per path-step.  Only when dw has an imaginary part is each off-diagonal
    (Re, Im) pair then rotated by the phase phi_IJ = gamma Im dw (r_I - r_J)
    of G, built the same way as e^{i phi_IJ} = p_I conj(p_J), p = q^{(x)M},
    q = exp(i gamma Im dw w / M); real noise builds and applies no phase.
    Every step factor maps Hermitian matrices to Hermitian ones, so the
    coordinates describe the state exactly and no symmetrization is needed.
    Each path draws both normals of every step from its own stream in
    blocks of _DRAW_BLOCK steps (the same sequence as one draw of all
    steps), and the factors are built for _FACTOR_BLOCK steps at once.  With
    noise=False nothing is drawn and G is its exact one-step mean
    E[G]_IJ = exp(gamma^2 dt M (c1 r_I^2 + 2 c2 r_I r_J + conj(c1) r_J^2) / 2),
    whose phase is nonzero only for a complex c1.  Returns (record steps,
    rhos) with rhos[i, j] the density of path indices[i] at record step j,
    rebuilt as a complex matrix and rotated back to the original basis.
    """
    arr = as_matrix(rho0)
    M = cfg.M
    D = cfg.dim ** M
    if arr.shape != (D, D):
        raise ValidationError(f"initial density must have shape {(D, D)}, got {arr.shape}")
    if abs(float(np.trace(arr).real) - 1.0) > 1e-8:
        raise ValidationError("initial density must have unit trace")
    n_steps, rec, rec_map = _step_grid(T, cfg.dt, sample_times)
    VM, w, rbar, P = _density_kernel(cfg)
    n = len(indices)
    diag, up, lo = _hermitian_index(D)
    U = up.size
    rt = (VM.conj().T @ arr @ VM).reshape(D * D)
    x = np.repeat(np.concatenate([rt[diag].real, rt[up].real, rt[up].imag])[:, None], n, axis=1)
    y = np.empty_like(x)
    out = np.empty((n, rec.size, D, D), dtype=complex)
    flat = np.empty((D * D, n), dtype=complex)

    def record(slots):
        flat[diag] = x[:D]
        flat[up] = x[D : D + U] + 1j * x[D + U :]
        flat[lo] = flat[up].conj()
        out[:, slots] = (VM @ flat.T.reshape(n, D, D) @ VM.conj().T)[:, None]

    c1, c2 = M * cfg.noise.c1, M * cfg.noise.c2
    if noise:
        gens = [stream(cfg.seed, i) for i in indices]
        a11, a21, a22 = _noise_chol(cfg.dt, c1, c2)
        rotate = a21 != 0.0 or a22 != 0.0
        z = np.empty((n, _DRAW_BLOCK, 2))
        G = np.empty((_FACTOR_BLOCK, D * D, n))
        if rotate:  # cos and sin of phi_IJ over the upper triangle
            cos, sin = np.empty((2, _FACTOR_BLOCK, U, n))
            rot = np.empty((_FACTOR_BLOCK, U, n), dtype=complex)
    else:
        r = rbar[:, None]
        expo = 0.5 * cfg.gamma ** 2 * cfg.dt * (
            c1 * r * r + 2.0 * c2 * r * r.T + np.conj(c1) * r.T * r.T).reshape(D * D)
        mod, phi = np.exp(expo.real), expo[up].imag
        rotate = bool(np.any(phi != 0.0))
        G, cos, sin = (
            np.broadcast_to(f[:, None], (_FACTOR_BLOCK, f.size, 1))
            for f in (np.concatenate([mod[diag], mod[up], mod[up]]), np.cos(phi), np.sin(phi))
        )

    def power(b):
        # b^{(x)M} along axis 1 of b (step, d, path)
        a = b
        for _ in range(M - 1):
            a = (a[:, :, None] * b[:, None]).reshape(b.shape[0], -1, n)
        return a

    def upper(a, b, out):
        # out[:, k] = a_i b_j over the upper-triangle entries (i, j > i)
        row = 0
        for i in range(D - 1):
            np.multiply(a[:, i : i + 1], b[:, i + 1 :], out=out[:, row : row + D - 1 - i])
            row += D - 1 - i

    def build_factors(zb):
        # G[:m] (and the phases) for the m steps whose normals are zb, shaped
        # (path, step, 2)
        m = zb.shape[1]
        zt = zb.transpose(1, 2, 0)  # (step, normal, path)
        a = power(np.exp((cfg.gamma / M) * (a11 * zt[:, 0])[:, None] * w[:, None]))
        np.multiply(a, a, out=G[:m, :D])
        upper(a, a, G[:m, D : D + U])
        G[:m, D + U :] = G[:m, D : D + U]
        if rotate:
            im_dw = a21 * zt[:, 0] + a22 * zt[:, 1]
            p = power(np.exp((1j * cfg.gamma / M) * im_dw[:, None] * w[:, None]))
            upper(p, p.conj(), rot[:m])
            cos[:m], sin[:m] = rot[:m].real, rot[:m].imag

    if rotate:
        t1, t2 = np.empty((2, U, n))

    if 0 in rec_map:
        record(rec_map[0])
    # _guard rejects every non-finite record, so numpy's inf/nan warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0
        while s < n_steps:
            block = min(_DRAW_BLOCK, n_steps - s)
            if noise:
                for k, g in enumerate(gens):
                    g.standard_normal(out=z[k, :block])
            for j in range(block):
                f = j % _FACTOR_BLOCK
                if noise and f == 0:
                    build_factors(z[:, j : min(j + _FACTOR_BLOCK, block)])
                np.matmul(P, x, out=y)
                np.multiply(y, G[f], out=y)
                if rotate:  # (re, im) <- (c re - s im, s re + c im)
                    re, im = y[D : D + U], y[D + U :]
                    np.multiply(re, sin[f], out=t1)
                    np.multiply(im, sin[f], out=t2)
                    re *= cos[f]
                    re -= t2
                    im *= cos[f]
                    im += t1
                x, y = y, x
                if s + j + 1 in rec_map:
                    record(rec_map[s + j + 1])
            s += block
    return rec, out


def _density_spectra(rhos: np.ndarray, seed: int, indices, times):
    """Trace, entropy and minimum eigenvalue of recorded densities, rhos[i, s]
    the density of path indices[i] at record time times[s], with the blow-up
    (a trace beyond BLOWUP_LIMIT or not finite) and positivity guards of
    :func:`_guard` applied."""
    trace = np.einsum("...ii->...", rhos).real
    _guard(np.abs(trace) <= BLOWUP_LIMIT, f"density trace exceeded {BLOWUP_LIMIT:.0e}",
           seed, indices, times)
    eigs = np.linalg.eigvalsh(rhos)
    min_eig = eigs[..., 0]
    _guard(min_eig >= -POSITIVITY_TOL * np.maximum(np.sum(np.abs(eigs), axis=-1), 1e-30),
           f"positivity defect beyond -{POSITIVITY_TOL:.0e} of the trace norm",
           seed, indices, times)
    return trace, spectrum_entropy(eigs), min_eig


def evolve_diffusive_density(
    cfg: DiffusionConfig,
    rho0,
    T: float,
    index: int = 0,
    record_times=None,
    noise: bool = True,
) -> DensityPath:
    """One path of the M-particle diffusive density equation, a batch of one
    of :func:`_density_states`.

    Each step applies the completely positive deterministic factor from
    :func:`_density_kernel` followed by the exact completely positive noise
    map exp(gamma dw Rbar) . exp(gamma dw* Rbar); the recorded densities are
    Hermitian by construction.  With noise=False the noise map is
    replaced by its exact one-step mean, which steps the averaged
    (Lindblad-form) equation with the same first-order accuracy.
    """
    rec, rhos = _density_states(
        cfg, rho0, T, [index], [T] if record_times is None else record_times, noise
    )
    times = rec * cfg.dt
    trace, entropy, min_eig = _density_spectra(rhos, cfg.seed, [index], times)
    return DensityPath(times=times, rhos=rhos[0], trace=trace[0], entropy=entropy[0],
                       min_eig=min_eig[0])


def mean_field_evolve(
    cfg: DiffusionConfig, eta: StateVector, T: float, record_times=None
) -> StatePath:
    """Deterministic macroscopic-limit evolution under H - gamma q0 R.

    For a real packet (q0 = 0) this is the free unitary evolution.
    """
    rec_times = np.asarray(record_times if record_times is not None else [T], dtype=float)
    Heff = cfg.H.entries - cfg.gamma * cfg.noise.q0 * cfg.R.entries
    w, V = hermitian_eig(Heff)
    et = V.conj().T @ eta.amps
    out = np.empty((rec_times.size, cfg.dim), dtype=complex)
    for j, t in enumerate(rec_times):
        out[j] = V @ (np.exp(-1j * w * (t / cfg.hbar)) * et)
    norm2 = np.einsum("ni,ni->n", out.conj(), out).real
    return StatePath(times=rec_times, states=out, norm2=norm2)


def _density_batch(cfg, rho0, T, indices, sample_times, observables):
    """Density-equation paths reduced to (traces, obs, entropy), with obs
    holding normalized expectations Tr(X rho) / Tr(rho)."""
    rec, rhos = _density_states(cfg, rho0, T, indices, sample_times)
    trace, entropy, _ = _density_spectra(rhos, cfg.seed, indices, rec * cfg.dt)
    obs = np.empty((*trace.shape, len(observables)))
    for o, X in enumerate(observables.values()):
        obs[..., o] = np.einsum("ij,nsji->ns", X, rhos).real / trace
    return trace, obs, entropy
