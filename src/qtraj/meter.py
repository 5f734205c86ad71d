"""Single-meter measurement model.

A meter is a pointer wave packet f0 on a discretized one-dimensional scale,
coupled with strength kappa to a Hermitian system observable R.  A reading
lambda acts on the system through the localizer F(lambda) = f0(lambda - kappa R)
and its renormalized form G(lambda) = F(lambda) / f0(lambda), both evaluated by
functional calculus in the eigenbasis of R.  The family G carries the complete
outcome statistics: the operators G(lambda)^dag G(lambda), integrated against the
pointer density |f0(lambda)|^2 dlambda, must resolve the identity.  That
completeness defect is computed at construction and enforced against a
tolerance, because the whole jump machinery downstream relies on it.

Pointer packets are dimensionless; kappa carries the physical scale.  The
standard packet is the Gaussian exp(-pi lambda^2 / 2), whose squared modulus is
the unit-weight Gaussian density exp(-pi lambda^2).  Grid coverage follows the
rule half_width >= 6 + kappa * max|spec(R)|, which keeps the truncated
completeness defect below the default tolerance of 1e-6.  Any other packet
is a tabulated PointerState(grid, values, weights) without a tag, evaluated
between grid points by cubic splines; scipy's spline module is loaded on the
first such evaluation, so a run on Gaussian packets never imports scipy.

Grid points where |f0| falls below 1e-12 carry no outcome probability mass
and are excluded from the sampling support; G is singular exactly there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError, check_memory
from .linalg import (HermitianOperator, StateVector, as_matrix, check_integer, hermitian_eig,
                     initial_state, propagator)

DEFAULT_GRID_SIZE = 1024
DEFAULT_TOL_POVM = 1e-6
# By Poisson summation the trapezoid sum of the packet on a grid of spacing h
# aliases by about 4 exp(-pi / h^2), so a coarser grid cannot meet
# DEFAULT_TOL_POVM whatever its half-width.
MAX_POINTER_SPACING = math.sqrt(math.pi / math.log(4.0 / DEFAULT_TOL_POVM))
POINTER_ZERO = 1e-12
COVERAGE_BASE = 6.0
POINTER_NORM_TOL = 1e-8
# Peak bytes of a Gaussian pointer per grid point, and of a meter per grid
# point and column (d + 2 of them), measured with tracemalloc: 81 at 1e5 and
# 1e6 points; 43-57 at d = 2 to 1024 (the outcome tables included).
_POINT_BYTES = 88
_METER_BYTES = 64


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for an increasing grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-D array with at least two points")
    dx = np.diff(grid)
    w = np.empty_like(grid)
    w[0] = dx[0] / 2.0
    w[-1] = dx[-1] / 2.0
    w[1:-1] = (dx[:-1] + dx[1:]) / 2.0
    return w


def coverage_half_width(kappa: float, r_max: float) -> float:
    """Grid half-width needed to keep the completeness defect below tolerance."""
    return COVERAGE_BASE + abs(kappa) * abs(r_max)


@dataclass(frozen=True)
class PointerState:
    """Discretized meter wave packet with quadrature weights.

    Parameters
    ----------
    grid : strictly increasing pointer positions.
    values : complex packet amplitudes f0 on the grid, unit quadrature norm.
    weights : positive quadrature weights.
    analytic_tag : "gaussian" enables closed forms; None means tabulated.
    phase_slope : linear phase a in f0 = |f0| exp(i a lambda), Gaussian tag only.
    amplitude : peak amplitude of the Gaussian form, set by normalization.
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    analytic_tag: str | None = None
    phase_slope: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=complex)
        weights = np.array(self.weights, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("pointer grid must be 1-D with at least two points")
        if values.shape != grid.shape or weights.shape != grid.shape:
            raise ValidationError("grid, values and weights must have equal lengths")
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("pointer grid must be strictly increasing")
        if not np.all(weights > 0):
            raise ValidationError("quadrature weights must be positive")
        if not (np.all(np.isfinite(values.real)) and np.all(np.isfinite(values.imag))):
            raise ValidationError("pointer values contain non-finite entries")
        norm2 = float(np.sum(np.abs(values) ** 2 * weights))
        if abs(norm2 - 1.0) > POINTER_NORM_TOL:
            raise ValidationError(
                f"pointer packet must have unit quadrature norm, got {norm2!r}"
            )
        for name, arr in (("grid", grid), ("values", values), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_splines", None)
        if not self.support.any():
            raise ValidationError("pointer packet has empty sampling support")

    @property
    def size(self) -> int:
        return self.grid.shape[0]

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2 * self.weights))

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of grid points with non-negligible amplitude."""
        return np.abs(self.values) >= POINTER_ZERO

    def evaluate(self, x) -> np.ndarray:
        """Packet amplitude at arbitrary points.

        Uses the closed Gaussian form when tagged; otherwise a cubic spline
        through the tabulated values, zero outside the grid.  The splines,
        and scipy's spline module, are loaded on the first tabulated call.
        """
        x = np.asarray(x, dtype=float)
        if self.analytic_tag == "gaussian":
            with np.errstate(over="ignore"):  # x^2 beyond floats: the packet is 0 there
                out = self.amplitude * np.exp(-0.5 * math.pi * x ** 2)
            if self.phase_slope != 0.0:
                out = out * np.exp(1j * self.phase_slope * x)
            return np.asarray(out, dtype=complex)
        splines = object.__getattribute__(self, "_splines")
        if splines is None:
            from scipy.interpolate import CubicSpline

            splines = (
                CubicSpline(self.grid, self.values.real, extrapolate=False),
                CubicSpline(self.grid, self.values.imag, extrapolate=False),
            )
            object.__setattr__(self, "_splines", splines)
        re = splines[0](x)
        im = splines[1](x)
        out = np.nan_to_num(re, nan=0.0) + 1j * np.nan_to_num(im, nan=0.0)
        return np.asarray(out, dtype=complex)

    def derivative_values(self) -> np.ndarray:
        """d f0 / d lambda on the grid (closed form or second-order differences)."""
        if self.analytic_tag == "gaussian":
            return (-math.pi * self.grid + 1j * self.phase_slope) * self.values
        return np.gradient(self.values, self.grid)


def gaussian_pointer(
    n_points: int = DEFAULT_GRID_SIZE,
    half_width: float = COVERAGE_BASE,
    phase_slope: float = 0.0,
) -> PointerState:
    """Standard Gaussian packet exp(-pi lambda^2 / 2) on a uniform grid.

    The packet is renormalized so that its quadrature norm is exactly one;
    an optional linear phase exp(i a lambda) models a packet with nonzero
    mean momentum.
    """
    n_points = check_integer("n_points", n_points, 16)
    check_memory("n_points", n_points, _POINT_BYTES, "pointer points")
    if not half_width > 0:
        raise ValidationError(f"half_width must be positive, got {half_width}")
    spacing = 2.0 * half_width / (n_points - 1)
    if spacing > MAX_POINTER_SPACING:
        raise ValidationError(
            f"pointer grid spacing {spacing:.3g} ({n_points} pointer points over half-width "
            f"{half_width!r}) exceeds {MAX_POINTER_SPACING:.3g}: too coarse to resolve the packet"
        )
    # Below the least normal float the weights lose precision, and the norm underflows to 0
    if spacing < sys.float_info.min:
        raise ValidationError(f"pointer grid spacing {spacing:.3g} ({n_points} pointer points over "
                              f"half-width {half_width!r}) underflows the quadrature")
    if not math.isfinite(phase_slope * half_width):
        raise ValidationError(f"phase_slope {phase_slope!r} over half-width {half_width!r} "
                              f"must give a finite phase")
    grid = np.linspace(-half_width, half_width, n_points)
    raw = np.exp(-0.5 * math.pi * grid ** 2)
    weights = trapezoid_weights(grid)
    amplitude = 1.0 / math.sqrt(float(np.sum(raw ** 2 * weights)))
    values = amplitude * raw * np.exp(1j * phase_slope * grid)
    return PointerState(grid, values, weights, "gaussian", phase_slope, amplitude)


class MeterModel:
    """Coupling strength, measured observable and pointer packet, with the
    reduction family G(lambda) cached over the sampling support.

    Immutable after construction; safe to share across threads.

    Attributes
    ----------
    eigenvalues, eigenvectors : spectral data of R.
    support_indices : grid indices with usable pointer amplitude.
    packet_matrix : f0(lambda_i - kappa r_x) over the full grid, shape (N, d).
    reduction_family : diagonal of G(lambda_i) in the R eigenbasis, support only.
    outcome_weight_matrix : |f0(lambda_i - kappa r_x)|^2 dlambda_i, support only.
    cumulative_outcomes : its column-wise cumulative sums, blocked for search.
    povm_defect : completeness defect of the discretized outcome family, at
        most DEFAULT_TOL_POVM.
    """

    def __init__(self, kappa: float, R: HermitianOperator, pointer: PointerState):
        if not isinstance(R, HermitianOperator):
            R = HermitianOperator(np.asarray(R, dtype=complex))
        self.kappa = float(kappa)
        if not math.isfinite(self.kappa):
            raise ValidationError(f"kappa must be finite, got {self.kappa}")
        self.R = R
        self.pointer = pointer
        check_memory(f"pointer points at d={R.dim}", pointer.size, _METER_BYTES * (R.dim + 2),
                     "meter rows")
        self.eigenvalues, self.eigenvectors = hermitian_eig(R)

        grid = pointer.grid
        shifted = grid[:, None] - self.kappa * self.eigenvalues[None, :]
        self.packet_matrix = pointer.evaluate(shifted)

        self.support_indices = np.flatnonzero(pointer.support)
        pk_s = self.packet_matrix[self.support_indices, :]
        f0_s = pointer.values[self.support_indices]
        dlam_s = pointer.weights[self.support_indices]
        self.reduction_family = pk_s / f0_s[:, None]
        self.outcome_weight_matrix = (np.abs(pk_s) ** 2) * dlam_s[:, None]
        self.support_mu0 = (np.abs(f0_s) ** 2) * dlam_s
        mu0_total = float(np.sum(self.support_mu0))
        self.mu0_cdf = np.cumsum(self.support_mu0) / mu0_total

        # Completeness: sum_i G^dag G |f0|^2 dlambda is diagonal in the R basis.
        # The f0 factors cancel against the localizer, so the sum runs over the
        # full grid; the sub-threshold exclusion affects only outcome sampling,
        # whose weights are renormalized over the support.
        povm_diag = (np.abs(self.packet_matrix) ** 2 * pointer.weights[:, None]).sum(axis=0)
        self.povm_defect = float(np.max(np.abs(povm_diag - 1.0)))
        if not self.povm_defect <= DEFAULT_TOL_POVM:
            r_max = float(np.max(np.abs(self.eigenvalues)))
            raise ValidationError(
                f"outcome family completeness defect {self.povm_defect:.3e} exceeds "
                f"tol_povm={DEFAULT_TOL_POVM:.1e}; grid half-width should be at least "
                f"{coverage_half_width(self.kappa, r_max)!r}"
            )

    @property
    def dim(self) -> int:
        return self.R.dim

    @cached_property
    def cumulative_outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """cumsum(outcome_weight_matrix, 0) in blocks for a coarse-then-fine
        inverse CDF, so one search costs O(nb + b) instead of O(S): (the last
        row of each of the first nb - 1 blocks followed by the total row,
        the S rows in nb blocks of b = ceil(sqrt(S)) rows, shape (nb, b, d)).
        In the blocks the total row and the padding are +inf, so a search
        never counts past the last index.  Built on first use."""
        cum = np.cumsum(self.outcome_weight_matrix, axis=0)
        S, d = cum.shape
        b = math.isqrt(S - 1) + 1
        nb = -(-S // b)
        blocks = np.full((nb * b, d), np.inf)
        blocks[:S - 1] = cum[:-1]
        blocks = blocks.reshape(nb, b, d)
        return np.concatenate([blocks[:-1, -1], cum[-1:]]), blocks

    @property
    def grid(self) -> np.ndarray:
        return self.pointer.grid

    @property
    def support_grid(self) -> np.ndarray:
        return self.pointer.grid[self.support_indices]

    def _check_in_range(self, lam: float):
        g = self.pointer.grid
        if not g[0] <= lam <= g[-1]:
            raise ValidationError(
                f"lambda={float(lam)} outside pointer grid range [{float(g[0])}, {float(g[-1])}]"
            )

    def localizer(self, lam: float) -> np.ndarray:
        """F(lambda) = f0(lambda I - kappa R) by functional calculus on R."""
        self._check_in_range(lam)
        diag = self.pointer.evaluate(lam - self.kappa * self.eigenvalues)
        V = self.eigenvectors
        return (V * diag) @ V.conj().T

    def reduction(self, lam: float) -> np.ndarray:
        """G(lambda) = F(lambda) / f0(lambda), the localizer over f0(lambda).

        Raises a degenerate-point error when |f0(lambda)| is below 1e-12;
        such points carry no outcome probability and must be excluded.
        """
        self._check_in_range(lam)
        f0 = complex(self.pointer.evaluate(lam))
        if abs(f0) < POINTER_ZERO:
            raise NumericError(
                f"reduction operator degenerate at lambda={float(lam)}: "
                f"|f0| = {abs(f0):.3e} below {POINTER_ZERO:.0e}"
            )
        return self.localizer(lam) / f0

    def reduction_closed_form(self, lam: float) -> np.ndarray:
        """Closed Gaussian form exp(pi kappa R (lambda I - kappa R / 2)),
        including the phase factor of a momentum-shifted packet."""
        if self.pointer.analytic_tag != "gaussian":
            raise ValidationError("closed-form reduction requires a Gaussian pointer")
        w = self.eigenvalues
        expo = math.pi * self.kappa * w * (lam - 0.5 * self.kappa * w)
        diag = np.exp(expo - 1j * self.pointer.phase_slope * self.kappa * w)
        V = self.eigenvectors
        return (V * diag) @ V.conj().T

    def output_density(self, eta: StateVector) -> np.ndarray:
        """Outcome probability density p(lambda_i) = ||F(lambda_i) eta||^2.

        Equals ||G(lambda_i) eta||^2 |f0(lambda_i)|^2 on the support and is
        finite on the whole grid; integrates to one up to the completeness
        defect.
        """
        eta = initial_state(eta, StateVector, self.dim)
        et = self.eigenvectors.conj().T @ eta.amps
        return (np.abs(self.packet_matrix) ** 2) @ (np.abs(et) ** 2)

    def posterior_state(self, eta: StateVector, lam: float) -> StateVector:
        """Conditioned state G(lambda) eta / ||G(lambda) eta|| = F(lambda) eta /
        ||F(lambda) eta||, which needs no f0(lambda) and so holds where it vanishes."""
        psi = self.localizer(lam) @ eta.amps
        n = float(np.linalg.norm(psi))
        if n < 1e-12:
            raise NumericError(
                f"zero-likelihood outcome lambda={float(lam)}: ||F eta|| = {n:.3e}"
            )
        return StateVector(psi / n)


def build_gaussian_meter(
    kappa: float,
    R: HermitianOperator,
    n_points: int = DEFAULT_GRID_SIZE,
    phase_slope: float = 0.0,
) -> MeterModel:
    """Meter with a Gaussian pointer sized by the coverage rule for R."""
    r_max = float(np.max(np.abs(np.linalg.eigvalsh(as_matrix(R)))))
    half_width = coverage_half_width(kappa, r_max)
    pointer = gaussian_pointer(n_points, half_width, phase_slope)
    return MeterModel(kappa, R, pointer)


def sharp_projections(R, kappa: float) -> dict[float, np.ndarray]:
    """Spectral projectors of kappa R binned into the cells [y, y + kappa).

    Recovers the textbook projection postulate in the sharp-pointer limit:
    the returned family is idempotent, mutually orthogonal and complete.
    Keys are the cell anchors y, integer multiples of kappa.
    """
    if not kappa > 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if kappa == math.inf:
        raise ValidationError("kappa must be finite, got inf")
    w, V = hermitian_eig(R)
    bins = np.floor(w)  # floor(kappa*w / kappa) = floor(w), kept as floats beyond int64
    out: dict[float, np.ndarray] = {}
    for m in np.unique(bins):
        cols = V[:, bins == m]
        out[float(kappa * m)] = cols @ cols.conj().T
    return out


def single_kick_evolve(
    meter: MeterModel,
    H: HermitianOperator,
    eta: StateVector,
    t0: float,
    t: float,
    lam: float | None = None,
    hbar: float = 1.0,
) -> StateVector:
    """Exact single-kick evolution: free motion on [t0, 0), one reduction
    G(lambda) at time zero, free motion on (0, t].

    With lam=None no kick is applied and the result is the free evolution
    over the whole interval.  The returned state is not renormalized.
    """
    if not (t0 <= 0 < t):
        raise ValidationError(f"need t0 <= 0 < t, got t0={t0}, t={t}")
    if lam is None:
        return StateVector(propagator(H, t - t0, hbar) @ eta.amps)
    psi = propagator(H, -t0, hbar) @ eta.amps
    psi = meter.reduction(lam) @ psi
    return StateVector(propagator(H, t, hbar) @ psi)


def joint_single_kick(meter: MeterModel, eta: StateVector) -> np.ndarray:
    """Joint amplitude table psi(x, lambda) = f0(lambda - kappa r_x) eta_x.

    Rows follow the eigenbasis of R (ascending eigenvalues), columns the
    pointer grid.  Column norms reproduce the output density, tying the
    reduced description back to the coupled system-meter picture.
    """
    et = meter.eigenvectors.conj().T @ eta.amps
    return meter.packet_matrix.T * et[:, None]
