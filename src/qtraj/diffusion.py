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
sums.  The averaged (Lindblad-form) equation is not stepped here: its one
integrator is the RK4 oracle ensemble.rk4_solve.

Both kernels take their noise from one generator, _noise_blocks.  Each path
draws from its own stream (a generator of :func:`qtraj.rng.generators`),
_DRAW_BLOCK steps at a time, and the kernels build their step factors for
runs of at most _FACTOR_BLOCK steps.  A complex increment dv is two normals
mapped by the Cholesky factors of _noise_chol; the linear state equation
draws one normal per step when the noise is real, and the density equation
always draws two.  All noise draws are pure functions of (seed, path index,
step index), whatever the block sizes.

The two state equations share one batched kernel, _coupled_states: the rows
live in R's eigenbasis, where each step is an elementwise factor (the
coupled phase or the linear Euler factor) followed by the fixed unitary
VR^dag exp(-i H dt / hbar) VR.  The rows are one (d, n) array, each
component contiguous over the n paths, and the unitary is applied by
_rows_product as a sum of elementwise products, component k ascending, the
row operand first (numpy's SIMD complex multiply rounds a * b and b * a
differently).  The density equation has its own, _density_states.  Each
of the three EQUATIONS runs through one batch function, _diffusion_batch,
which returns event-engine columns without events: in fixed blocks of
paths from ensemble.run_trajectories, and as a batch of one from
evolve_diffusive_sse / evolve_coupled_sse / evolve_diffusive_density.
Every path draws from its own stream; state paths are bit-identical in any
batch (their products are elementwise sums), density ones agree to
rounding (their step is a BLAS product).  A path that blows up or loses
positivity fails through the event engine's guard, qtraj.jumps._guard.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError, check_memory
from .jumps import EventColumns, _guard, _index_column, _observables, _record_times, _step_grid
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    check_model,
    embed_at_slot,
    expm_small,
    hermitian_coordinates,
    hermitian_eig,
    hermitian_from_coordinates,
    initial_state,
    kron_power,
    propagator,
    slot_sum,
    real_superop,
    spectrum_entropy,
)
from .meter import PointerState
from .rng import generators

BLOWUP_LIMIT = 1e6
POSITIVITY_TOL = 1e-6
EQUATIONS = ("linear", "coupled", "density")
_REDUCE_DT = "reduce dt, or "
# Steps per normal draw and per run of step factors (for 512 paths: 2 MB of
# normals, and 1 MB of real density factors at D = 4).
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
    check_model(hbar=hbar)
    mask = pointer.support
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
    # A packet too steep for floats gives inf or nan, which DiffusionConfig rejects
    with np.errstate(over="ignore", invalid="ignore"):
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
        check_model(self.M, d=self.H.dim)
        if self.H.dim != self.R.dim:
            raise ValidationError("H and R must share a dimension")
        cov = noise_covariance(self.pointer, self.hbar)
        if cov.sigma2 <= 0:
            raise ValidationError("pointer packet has zero dispersion sigma^2")
        g_h = self.gamma / self.hbar
        scales = {"c1": cov.c1, "c2": cov.c2, "q0": cov.q0, "sigma^2": cov.sigma2,
                  "(gamma/hbar)^2 sigma^2": g_h * g_h * cov.sigma2}
        for name, value in scales.items():
            if not cmath.isfinite(value):
                raise ValidationError(f"noise scale {name} must be finite, got {value!r}")
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


def _rows_product(y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The rows (d, n) y, one path per column, times M: out[j] = the sum
    over ascending k of y[k] * M[k, j].  Each product is elementwise with
    the row operand first (numpy's SIMD complex multiply rounds a * b and
    b * a differently), so every path is rounded the same way whatever the
    number of paths; a BLAS product does not promise that."""
    out = y[0] * M[0][:, None]
    for k in range(1, M.shape[0]):
        out += y[k] * M[k][:, None]
    return out


def _noise_blocks(cfg: DiffusionConfig, indices, n_steps: int, width: int):
    """The standard normals of paths indices, width per step, in runs of at
    most _FACTOR_BLOCK steps: yields (s, z) with z[i, j] the normals of path
    indices[i] at step s + j.  Each path draws from its own stream,
    _DRAW_BLOCK steps at a time (the same sequence as one draw of all
    steps); z is a view of the draw buffer, valid until the next yield."""
    gens = generators(cfg.seed, indices)
    z = np.empty((len(gens), _DRAW_BLOCK, width))
    for s in range(0, n_steps, _DRAW_BLOCK):
        block = min(_DRAW_BLOCK, n_steps - s)
        for k, g in enumerate(gens):
            g.standard_normal(out=z[k, :block])
        for j in range(0, block, _FACTOR_BLOCK):
            yield s + j, z[:, j : min(j + _FACTOR_BLOCK, block)]


def _batch_charge(cfg: DiffusionConfig, equation: str, n_times: int) -> tuple[int, int]:
    """(bytes per path, fixed bytes) that one batch of equation's kernel is
    charged for n_times records, as its memory check and the window of
    concurrent chunks count them.

    The state equations (:func:`_coupled_states`): 16 bytes a component for
    each record twice (out, and the conjugate copy of _diffusion_batch) and
    64 more times (the factor run, the rows and their products), and 8 KB of
    normals; traced peaks were 33-35 bytes per path, record and component at
    d = 16 and 64.  The density equation (:func:`_density_states`): four
    complex D^2 x D^2 matrices for _density_kernel (its peak is about 3.1 of
    them), fixed; per path, in real D x D copies, its complex records (two
    each), x and y (two), the record rebuild (six) and the factor run G, and
    with complex noise cos, sin, rot, t1 and t2 over the upper triangle."""
    if equation != "density":
        return 16 * cfg.dim * (2 * n_times + 64) + 8192, 0
    D = cfg.dim ** cfg.M
    _, a21, a22 = _noise_chol(cfg.dt, cfg.M * cfg.noise.c1, cfg.M * cfg.noise.c2)
    rotate = a21 != 0.0 or a22 != 0.0
    return 8 * D * D * (2 * n_times + 8 + _FACTOR_BLOCK) + rotate * 264 * D * (D - 1), 64 * D ** 4


def _coupled_states(
    cfg: DiffusionConfig, eta: StateVector, T: float, indices, sample_times,
    equation: str = "coupled",
) -> np.ndarray:
    """Paths of the coupled (default) or the linear state equation, one row
    per index.

    The rows live in R's eigenbasis (eigenvalues w), where a step is an
    elementwise factor f followed by the fixed unitary
    VR^dag exp(-i H dt / hbar) VR; rows are rotated back only at record
    steps.  Coupled: the exact phase f = exp((i/hbar) gamma w du), du sigma
    sqrt(dt) times one normal.  Linear: the Euler-Maruyama factor
    f = 1 - dt (1/2) (gamma/hbar)^2 sigma^2 w^2 + gamma dv w, dv built by
    :func:`_noise_chol` from two normals, or from one when the noise is real
    (a21 = a22 = 0), where the second would never be read.  The rows are a
    (d, n) array, y[k, i] component k of path indices[i]; the factors are
    built as (step, d, n) for each run of normals from
    :func:`_noise_blocks`, and the products are :func:`_rows_product` (UT
    on every step, VR^T at record steps), so a row is bit-identical in any
    batch.  A recorded squared norm beyond BLOWUP_LIMIT or not finite fails
    :func:`_guard` at its requested time.  Returns states[i, j], the
    unnormalized state of path indices[i] at record time j of
    :func:`_step_grid`.
    """
    if cfg.M != 1:
        raise ValidationError("the state equations are single-particle; use M=1")
    eta = initial_state(eta, StateVector, cfg.dim)
    n_steps, times, rec_map = _step_grid(T, cfg.dt, sample_times)
    n = len(indices)
    check_memory(f"paths of a d={cfg.dim} state batch", n,
                 _batch_charge(cfg, equation, times.size)[0], "paths")
    wR, VR = hermitian_eig(cfg.R)
    UT = (VR.conj().T @ propagator(cfg.H, cfg.dt, cfg.hbar) @ VR).T
    y = np.tile((VR.conj().T @ eta.amps)[:, None], (1, n))
    out = np.empty((n, times.size, cfg.dim), dtype=complex)
    if 0 in rec_map:
        out[:, rec_map[0]] = eta.amps
    linear = equation == "linear"
    width = 1
    if linear:
        a11, a21, a22 = _noise_chol(cfg.dt, cfg.noise.c1, cfg.noise.c2)
        width = 1 if a21 == a22 == 0 else 2
        g_h = cfg.gamma / cfg.hbar
        drift = (1.0 - cfg.dt * 0.5 * g_h * g_h * cfg.noise.sigma2 * wR * wR)[:, None]
        rate = (cfg.gamma * wR)[:, None]
    else:
        du_scale = math.sqrt(cfg.noise.sigma2 * cfg.dt)
        rate = ((cfg.gamma / cfg.hbar) * wR)[:, None]
    # Real noise (the linear equation with width 1) leaves im at zero.
    factor = np.zeros((_FACTOR_BLOCK, cfg.dim, n), dtype=complex)
    # _guard rejects every non-finite record, so numpy's inf/nan warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for s, z in _noise_blocks(cfg, indices, n_steps, width):
            m = z.shape[1]
            zt = z.transpose(1, 2, 0)[:, :, None, :]  # (step, normal, 1, path)
            re, im = factor[:m].real, factor[:m].imag
            if linear:  # re = drift + gamma Re(dv) w, im = gamma Im(dv) w
                np.multiply(a11 * zt[:, 0], rate, out=re)
                re += drift
                if width == 2:
                    np.multiply(a21 * zt[:, 0] + a22 * zt[:, 1], rate, out=im)
            else:  # phase arguments du * rate, built in place to keep the run small
                z *= du_scale
                np.multiply(zt[:, 0], rate, out=re)
                np.sin(re, out=im)
                np.cos(re, out=re)
            for b in range(m):
                y *= factor[b]
                y = _rows_product(y, UT)
                if s + b + 1 in rec_map:
                    chi = _rows_product(y, VR.T)
                    n2 = (chi.real * chi.real + chi.imag * chi.imag).sum(axis=0)
                    _guard(n2 <= BLOWUP_LIMIT, f"squared norm exceeded {BLOWUP_LIMIT:.0e}",
                           cfg.seed, indices, times[rec_map[s + b + 1][0]], _REDUCE_DT)
                    out[:, rec_map[s + b + 1]] = chi.T[:, None, :]
    return out


def _density_kernel(cfg: DiffusionConfig):
    """Stepping data in the eigenbasis of the mean coupling operator Rbar,
    in real Hermitian coordinates.

    In that basis every lifted R(k) is diagonal, so the exact noise factor
    exp(gamma dw Rbar) acts as an elementwise rank-one scaling of the
    density.  The deterministic part of a step is the constant superoperator

        P0 = kron(E0, conj(E0)) + dt * S,
        E0 = exp(-K' dt),  S[rho] = (gamma/hbar)^2 sigma^2
                                    sum_k (R_k - Rbar) rho (R_k - Rbar),

    with K' = K + (1/2) gamma^2 M c1 Rbar^2 absorbing the one-step mean of
    the noise factor, and E0 from :func:`qtraj.linalg.expm_small`.  Every
    factor of a step is a completely positive map, so positivity holds
    pathwise up to rounding, while the one-step mean still matches the
    density equation to first weak order.

    A Hermitian D x D matrix has D^2 real coordinates x: the diagonal
    rho_ii, then Re rho_ij and Im rho_ij over the strict upper triangle
    (row-major, see :func:`qtraj.linalg.hermitian_coordinates`).  P0 maps
    Hermitian matrices to Hermitian ones, so it acts on x as the real
    D^2 x D^2 matrix P of :func:`qtraj.linalg.real_superop`.  Returns (VM, w, rbar, P), w the single-particle eigenvalues of R and
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
    E0 = expm_small(-Kp * cfg.dt)
    P0 = np.kron(E0, E0.conj())
    exchange = sum(np.outer(rk - rbar, rk - rbar).ravel() for rk in rk_vecs)
    P0 += np.diag(cfg.dt * g_h * g_h * cfg.noise.sigma2 * exchange)
    return VM, w, rbar, real_superop(P0)


def _density_states(cfg: DiffusionConfig, rho0, T: float, indices, sample_times) -> np.ndarray:
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
    The factors are built for each run of normals from
    :func:`_noise_blocks`, two per step.  A bad rho0 or a batch beyond
    memory (:func:`qtraj.errors.check_memory`) fails before any draw.
    Returns rhos[i, j], the density of path indices[i] at record time j of
    :func:`_step_grid`, rebuilt as a complex matrix and rotated back to the
    original basis.
    """
    M = cfg.M
    D = cfg.dim ** M
    rho = initial_state(rho0, DensityMatrix, D)
    n_steps, times, rec_map = _step_grid(T, cfg.dt, sample_times)
    n, U = len(indices), D * (D - 1) // 2
    a11, a21, a22 = _noise_chol(cfg.dt, M * cfg.noise.c1, M * cfg.noise.c2)
    rotate = a21 != 0.0 or a22 != 0.0
    per_path = _batch_charge(cfg, "density", times.size)[0]
    check_memory(f"paths of a D={D} density batch", n, per_path, "paths", fixed=64 * D ** 4)
    VM, w, rbar, P = _density_kernel(cfg)
    x = np.repeat(hermitian_coordinates(VM.conj().T @ rho.entries @ VM)[:, None], n, axis=1)
    y = np.empty_like(x)
    out = np.empty((n, times.size, D, D), dtype=complex)

    def record(slots):
        rhos = hermitian_from_coordinates(x).transpose(2, 0, 1)
        out[:, slots] = (VM @ rhos @ VM.conj().T)[:, None]

    G = np.empty((_FACTOR_BLOCK, D * D, n))
    if rotate:  # cos and sin of phi_IJ over the upper triangle
        cos, sin = np.empty((2, _FACTOR_BLOCK, U, n))
        rot = np.empty((_FACTOR_BLOCK, U, n), dtype=complex)
        t1, t2 = np.empty((2, U, n))

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

    if 0 in rec_map:
        record(rec_map[0])
    # _guard rejects every non-finite record, so numpy's inf/nan warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for s, z in _noise_blocks(cfg, indices, n_steps, 2):
            # G[:m] and the phases for the m steps of z, from the normals as
            # (step, normal, path), copied: a strided view slows every product
            m = z.shape[1]
            zt = np.ascontiguousarray(z.transpose(1, 2, 0))
            a = power(np.exp((cfg.gamma / M) * (a11 * zt[:, 0])[:, None] * w[:, None]))
            np.multiply(a, a, out=G[:m, :D])
            upper(a, a, G[:m, D : D + U])
            G[:m, D + U :] = G[:m, D : D + U]
            if rotate:
                im_dw = a21 * zt[:, 0] + a22 * zt[:, 1]
                p = power(np.exp((1j * cfg.gamma / M) * im_dw[:, None] * w[:, None]))
                upper(p, p.conj(), rot[:m])
                cos[:m], sin[:m] = rot[:m].real, rot[:m].imag
            for f in range(m):
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
                if s + f + 1 in rec_map:
                    record(rec_map[s + f + 1])
    return out


def _density_spectra(rhos: np.ndarray, seed: int, indices, times):
    """Trace, entropy and minimum eigenvalue of recorded densities, rhos[i, s]
    the density of path indices[i] at record time times[s], with the blow-up
    (a trace beyond BLOWUP_LIMIT or not finite) and positivity guards of
    :func:`_guard` applied."""
    trace = np.einsum("...ii->...", rhos).real
    _guard(np.abs(trace) <= BLOWUP_LIMIT, f"density trace exceeded {BLOWUP_LIMIT:.0e}",
           seed, indices, times, _REDUCE_DT)
    eigs = np.linalg.eigvalsh(rhos)
    min_eig = eigs[..., 0]
    _guard(min_eig >= -POSITIVITY_TOL * np.maximum(np.sum(np.abs(eigs), axis=-1), 1e-30),
           f"positivity defect beyond -{POSITIVITY_TOL:.0e} of the trace norm",
           seed, indices, times, _REDUCE_DT)
    return trace, spectrum_entropy(eigs), min_eig


def _diffusion_batch(cfg: DiffusionConfig, initial, T: float, equation: str, indices,
                     sample_times=None, observables=None) -> EventColumns:
    """Paths of one diffusive equation at the given indices, one batch of
    its kernel (:func:`_coupled_states` for "linear" and "coupled",
    :func:`_density_states` for "density"), recorded at sample_times
    (:func:`qtraj.jumps._record_times`, default: T).  Returns columns without events: weights[i, s] the
    squared norm ||chi||^2 (the trace Tr rho), values[o, i, s] the
    normalized expectation of observable o, states[i, s] the recorded
    state, and for densities entropy and min_eig.  Rows are reduced one by
    one, so a path's series do not depend on the batch it ran in."""
    if equation not in EQUATIONS:
        raise ValidationError(f"diffusion ensembles need equation= one of "
                              f"{EQUATIONS}, got {equation!r}")
    times = _record_times(sample_times, T)
    indices = _index_column(indices)
    obs = _observables(observables, cfg.dim ** cfg.M if equation == "density" else cfg.dim)
    extra = {}
    if equation == "density":
        states = _density_states(cfg, initial, T, indices, times)
        weights, entropy, min_eig = _density_spectra(states, cfg.seed, indices, times)
        extra = {"entropy": entropy, "min_eig": min_eig}
        values = np.empty((len(obs), *weights.shape))
        for o, X in enumerate(obs.values()):
            values[o] = np.einsum("ij,nsji->ns", X, states).real / weights
    else:
        states = _coupled_states(cfg, initial, T, indices, times, equation)
        n, n_times, d = states.shape
        flat = states.reshape(n * n_times, d)
        n2 = np.einsum("ni,ni->n", flat.conj(), flat).real
        values = np.empty((len(obs), n * n_times))
        for o, X in enumerate(obs.values()):
            values[o] = np.einsum("ni,ij,nj->n", flat.conj(), X, flat).real / n2
        weights, values = n2.reshape(n, n_times), values.reshape(-1, n, n_times)
    return EventColumns(indices=indices, weights=weights,
                        sample_times=times, names=tuple(obs), values=values, states=states,
                        **extra)


def evolve_diffusive_sse(
    cfg: DiffusionConfig, eta: StateVector, T: float, index: int = 0, record_times=None
) -> StatePath:
    """One path of the linear diffusive state equation, a batch of one of
    :func:`_diffusion_batch`: per step the Euler-Maruyama factor of the
    measurement terms, then the exact unitary exp(-i H dt / hbar)."""
    cols = _diffusion_batch(cfg, eta, T, "linear", [index], record_times)
    return StatePath(cols.sample_times, cols.states[0], cols.weights[0])


def evolve_coupled_sse(
    cfg: DiffusionConfig, eta: StateVector, T: float, index: int = 0, record_times=None
) -> StatePath:
    """One unitary-dilation path, a batch of one of :func:`_diffusion_batch`:
    per step the exact phase factor exp((i/hbar) gamma R du), then
    exp(-i H dt / hbar).

    Pathwise norm-preserving; R-populations are exactly conserved whenever
    [R, H] = 0 because the noise acts as an R-generated phase.
    """
    cols = _diffusion_batch(cfg, eta, T, "coupled", [index], record_times)
    return StatePath(cols.sample_times, cols.states[0], cols.weights[0])


def evolve_diffusive_density(
    cfg: DiffusionConfig, rho0, T: float, index: int = 0, record_times=None
) -> DensityPath:
    """One path of the M-particle diffusive density equation, a batch of one
    of :func:`_diffusion_batch`.

    Each step applies the completely positive deterministic factor from
    :func:`_density_kernel` followed by the exact completely positive noise
    map exp(gamma dw Rbar) . exp(gamma dw* Rbar); the recorded densities are
    Hermitian by construction.  Its mean over paths follows the Lindblad
    equation, whose oracle is ensemble.rk4_solve.
    """
    cols = _diffusion_batch(cfg, rho0, T, "density", [index], record_times)
    return DensityPath(cols.sample_times, cols.states[0], cols.weights[0], cols.entropy[0],
                       cols.min_eig[0])


def mean_field_evolve(
    cfg: DiffusionConfig, eta: StateVector, T: float, record_times=None
) -> StatePath:
    """Deterministic macroscopic-limit evolution under H - gamma q0 R.

    For a real packet (q0 = 0) this is the free unitary evolution; eta
    passes :func:`qtraj.linalg.initial_state`.
    """
    eta = initial_state(eta, StateVector, cfg.dim)
    rec_times = _record_times(record_times, T)
    Heff = cfg.H.entries - cfg.gamma * cfg.noise.q0 * cfg.R.entries
    w, V = hermitian_eig(Heff)
    et = V.conj().T @ eta.amps
    out = np.empty((rec_times.size, cfg.dim), dtype=complex)
    for j, t in enumerate(rec_times):
        out[j] = V @ (np.exp(-1j * w * (t / cfg.hbar)) * et)
    norm2 = np.einsum("ni,ni->n", out.conj(), out).real
    return StatePath(times=rec_times, states=out, norm2=norm2)
