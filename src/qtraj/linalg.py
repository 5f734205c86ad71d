"""Dense complex linear algebra for finite-dimensional quantum systems.

Provides the value types used across the package (state vectors, Hermitian
operators, density matrices) plus the operations the engines are built on:
Hermitian eigendecomposition, exact unitary propagators, tensor-slot
embeddings and their slot sums, slot permutations, von Neumann entropy, and
the D^2 real coordinates of Hermitian matrices with the real matrices of
Hermitian-preserving superoperators on them.

Matrix inputs pass one gate, :func:`_checked` (rank, non-empty, square, finite)
by way of a value type or :func:`as_matrix`, and :func:`check_hermitian`.
All value types are immutable after construction: wrapped arrays are copied
and marked read-only, so instances are safe to share across threads.
Tensor ordering is row-major with slot 1 varying slowest, matching repeated
Kronecker products.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericError, ValidationError, check_memory

HERMITICITY_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10
STATE_NORM_TOL = 1e-8
MAX_PARTICLES = 4
# Trajectory indices are held in intp columns.
INDEX_LIMIT = 2 ** 63
# Peak bytes per entry of the D x D operators of a product space, measured
# with tracemalloc at D = 256 to 1024: 48 for slot_sum, 56 for
# permutation_defect, 82-84 for a density run's initial state and lifted
# observables before its kernel.
_SPACE_BYTES = 96


def check_integer(name: str, value, low, high=INDEX_LIMIT - 1) -> int:
    """The one check of a count or an index: value as an int, a
    ValidationError unless it is an integer (a float is not) in low..high."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if not value <= high:
        raise ValidationError(f"{name} must be <= {high}, got {value}")
    return value


def check_model(M: int = 1, nu: float = 0.0, hbar: float = 1.0, d: int | None = None):
    """The one check of the model parameters: an integer particle count in
    1..MAX_PARTICLES, a finite jump rate nu >= 0 and hbar > 0, each failed
    by NaN, and, given d, the D x D operators of the product space D = d^M
    charged against memory."""
    if check_integer("M", M, 1, math.inf) > MAX_PARTICLES:
        raise CapacityError(f"at most {MAX_PARTICLES} particles supported, got M={M}")
    if not nu >= 0:
        raise ValidationError(f"nu >= 0 required, got {nu}")
    if nu == math.inf:
        raise ValidationError("nu must be finite, got inf")
    if not hbar > 0:
        raise ValidationError(f"hbar must be positive, got {hbar}")
    if d is not None:
        check_memory("d^(2M)", check_integer("d", d, 1) ** (2 * M), _SPACE_BYTES,
                     "product-space operator entries")


def _checked(arr: np.ndarray, name: str, ndim: int) -> np.ndarray:
    """The one gate of every array the package takes: arr, a ValidationError
    unless it is non-empty and finite with ndim axes, square if a matrix."""
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    arr = _checked(np.array(values, dtype=complex, order="C"), name, ndim)
    arr.setflags(write=False)
    return arr


def as_matrix(op, name: str = "matrix") -> np.ndarray:
    """An operator-like object as a complex ndarray: a value type's entries,
    checked when it was built, or an array through :func:`_checked`."""
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        return op.entries
    return _checked(np.asarray(op, dtype=complex), name, 2)


def check_hermitian(arr: np.ndarray, name: str):
    """The one Hermiticity check: a ValidationError unless the matrix arr is
    Hermitian within HERMITICITY_TOL, failed by NaN."""
    asym = float(np.max(np.abs(arr.conj().T - arr)))
    if not asym <= HERMITICITY_TOL:
        raise ValidationError(f"{name} is not Hermitian: max |A - A^dag| = {asym:.3e} "
                              f"exceeds {HERMITICITY_TOL:.1e}")


def _check_density(arr: np.ndarray):
    """The checks of DensityMatrix on its finite square entries."""
    check_hermitian(arr, "density matrix")
    tr = np.trace(arr)
    if abs(tr.imag) > 1e-12 or tr.real < -1e-12:
        raise ValidationError(f"density matrix trace must be real and >= 0, got {tr}")
    wmin = float(np.linalg.eigvalsh(arr)[0])
    if wmin < DENSITY_EIG_FLOOR:
        raise ValidationError(f"density matrix has eigenvalue {wmin:.3e} below {DENSITY_EIG_FLOOR:.1e}")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a finite-dimensional Hilbert space."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen_array(self.amps, "amps", 1))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm2(self) -> float:
        """Squared Euclidean norm."""
        return float(np.vdot(self.amps, self.amps).real)

    def normalized(self) -> "StateVector":
        n2 = self.norm2()
        if n2 < 1e-300:
            raise ValidationError("cannot normalize a (near-)zero state vector")
        return StateVector(self.amps / math.sqrt(n2))

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix of the normalized state."""
        v = self.normalized().amps
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix, validated entrywise at construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, "operator", 2)
        check_hermitian(arr, "operator")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite Hermitian matrix with nonnegative trace."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, "density matrix", 2)
        _check_density(arr)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def initial_state(state, kind, dim: int):
    """state as a kind, StateVector or DensityMatrix (built from an array):
    a ValidationError unless on dimension dim with unit norm or trace."""
    if isinstance(state, (StateVector, DensityMatrix)) and not isinstance(state, kind):
        raise ValidationError(f"initial state must be a {kind.__name__} or an array, "
                              f"got a {type(state).__name__}")
    state = state if isinstance(state, kind) else kind(state)
    vector = kind is StateVector
    shape = (dim,) if vector else (dim, dim)
    if state.dim != dim:
        raise ValidationError(f"initial {'state' if vector else 'density'} must have shape "
                              f"{shape}, got {(state.dim,) * len(shape)}")
    size = state.norm2() if vector else state.trace()
    if abs(size - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"initial state must be normalized, norm^2={size!r}" if vector
                              else f"initial density must have unit trace, got {size!r}")
    return state


@functools.cache
def _hermitian_index(D: int):
    """Row-major positions (diag, up, lo) in vec(rho) of the diagonal, the
    strict upper triangle and its mirror in the lower one, built once per D
    and read-only, since every caller shares them."""
    I, J = np.triu_indices(D, 1)
    index = np.arange(D) * (D + 1), I * D + J, J * D + I
    for arr in index:
        arr.flags.writeable = False
    return index


def hermitian_coordinates(A: np.ndarray) -> np.ndarray:
    """The D^2 real coordinates of a Hermitian D x D matrix: the diagonal,
    then Re and Im of the strict upper triangle (row-major, see
    :func:`_hermitian_index`)."""
    D = A.shape[0]
    diag, up, _ = _hermitian_index(D)
    flat = A.reshape(D * D)
    return np.concatenate([flat[diag].real, flat[up].real, flat[up].imag])


def hermitian_from_coordinates(x: np.ndarray) -> np.ndarray:
    """The Hermitian D x D matrices of a (D^2, ...) stack of coordinates x
    (see :func:`hermitian_coordinates`), as a (D, D, ...) complex array: the
    exact inverse on exactly Hermitian matrices."""
    D = math.isqrt(x.shape[0])
    diag, up, lo = _hermitian_index(D)
    flat = np.empty(x.shape, dtype=complex)
    flat[diag] = x[:D]
    flat[up] = x[D : D + up.size] + 1j * x[D + up.size :]
    flat[lo] = flat[up].conj()
    return flat.reshape(D, D, *x.shape[1:])


def _real_if_exact(A: np.ndarray) -> np.ndarray:
    """A as a real array when its imaginary part is exactly zero."""
    return A if np.any(A.imag) else np.ascontiguousarray(A.real)


def real_superop(S: np.ndarray) -> np.ndarray:
    """The real D^2 x D^2 matrix by which a Hermitian-preserving
    superoperator S (row-major, acting on vec(rho)) maps the coordinates of
    :func:`hermitian_coordinates`: the column of a coordinate is S applied
    to that coordinate's Hermitian unit matrix (E_ii, E_ij + E_ji or
    i E_ij - i E_ji), read in coordinates."""
    diag, up, lo = _hermitian_index(math.isqrt(S.shape[0]))
    # The rows read back (diagonal, upper triangle) applied to the Hermitian
    # unit matrices E_ii, E_ij + E_ji and i E_ij - i E_ji
    A = S[np.concatenate([diag, up])]
    cols = np.concatenate([A[:, diag], A[:, up] + A[:, lo], 1j * (A[:, up] - A[:, lo])], axis=1)
    # C order fixes the BLAS kernel, and so the rounding, of a product with it
    return np.ascontiguousarray(np.concatenate([cols.real, cols[diag.size :].imag]))


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (w, V) with eigenvalues w ascending and unitary V such that
    A = V diag(w) V^dag, once A passes :func:`as_matrix` and :func:`check_hermitian`.
    """
    arr = as_matrix(A)
    check_hermitian(arr, "matrix")
    w, V = np.linalg.eigh(arr)
    return w, V


def propagator(H, t: float, hbar: float = 1.0) -> np.ndarray:
    """Unitary exp(-i H t / hbar) computed through the eigenbasis of H; a
    phase w t / hbar beyond floats raises a ValidationError."""
    check_model(hbar=hbar)
    w, V = hermitian_eig(H)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        angles = w * (float(t) / hbar)
    if not np.isfinite(angles).all():
        raise ValidationError(f"propagator phases must be finite, got t={t}, hbar={hbar}")
    phases = np.exp(-1j * angles)
    return (V * phases) @ V.conj().T


def expm_small(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small square matrix A by scaling and squaring:
    the Taylor sum of X = A / 2^s, with s the least such that ||X||_1 <= 1/2,
    squared s times (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  Terms are
    added until one falls below the unit roundoff of the sum, in the 1-norm;
    at ||X||_1 <= 1/2 that takes at most 15.  A 1-norm beyond floats raises
    a ValidationError, an exponential beyond them a NumericError."""
    A = as_matrix(A)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are rejected below
        norm = np.linalg.norm(A, 1)
        if not math.isfinite(norm):  # finite entries can still overflow the norm
            raise ValidationError(f"expm_small needs a finite 1-norm, got {norm}")
        s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
        X = A / 2.0 ** s
        E = np.eye(A.shape[0], dtype=complex) + X
        term, k = X, 1
        while np.linalg.norm(term, 1) > 2.0 ** -53 * np.linalg.norm(E, 1):
            k += 1
            term = term @ X / k
            E += term
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise NumericError(f"expm_small overflows at 1-norm {norm:.3g}")
    return E


def kron_power(a: np.ndarray, M: int) -> np.ndarray:
    """The M-fold Kronecker power of a vector or matrix, built left to right
    as kron(kron(a, a), a)..., the slot order of :func:`embed_at_slot`."""
    out = a
    for _ in range(M - 1):
        out = np.kron(out, a)
    return out


def embed_at_slot(A, k: int, M: int) -> np.ndarray:
    """Lift a single-particle operator to slot k of an M-fold tensor product.

    Slots are numbered 1..M with slot 1 varying slowest.  The result acts as
    A on factor k and as the identity elsewhere.
    """
    arr = as_matrix(A)
    d = arr.shape[0]
    check_model(M, d=d)
    check_integer("slot index k", k, 1, M)
    out = np.eye(d ** (k - 1), dtype=complex)
    out = np.kron(out, arr)
    out = np.kron(out, np.eye(d ** (M - k), dtype=complex))
    return out


def slot_sum(A, M: int) -> np.ndarray:
    """sum_k embed_at_slot(A, k, M) over the slots k = 1..M, added from zero
    in slot order: a one-particle operator summed over M particles."""
    return sum(embed_at_slot(A, k, M) for k in range(1, M + 1))


def embed_pair(W, k: int, l: int, M: int, d: int) -> np.ndarray:
    """Lift a two-particle operator on slots (k, l), k < l, of an M-fold product.

    W must be a d^2 x d^2 matrix in the row-major basis |i_k i_l>.
    """
    arr = as_matrix(W)
    if arr.shape[0] != d * d:
        raise ValidationError(
            f"pair operator must act on dimension d^2={d * d}, got {arr.shape[0]}"
        )
    check_model(M, d=d)
    if not 1 <= check_integer("k", k, 1) < check_integer("l", l, 1) <= M:
        raise ValidationError(f"need 1 <= k < l <= M, got k={k}, l={l}, M={M}")
    w4 = arr.reshape(d, d, d, d)
    letters = "abcdefghijklmnopqrstuvwx"
    out_idx = list(letters[:M])
    in_idx = list(letters[M:2 * M])
    operands = [w4]
    subs = [out_idx[k - 1] + out_idx[l - 1] + in_idx[k - 1] + in_idx[l - 1]]
    eye = np.eye(d, dtype=complex)
    for j in range(M):
        if j not in (k - 1, l - 1):
            operands.append(eye)
            subs.append(out_idx[j] + in_idx[j])
    expr = ",".join(subs) + "->" + "".join(out_idx) + "".join(in_idx)
    D = d ** M
    return np.einsum(expr, *operands).reshape(D, D)


def permutation_matrix(perm: tuple[int, ...], d: int, M: int) -> np.ndarray:
    """Explicit matrix of the slot permutation where output slot j carries
    input slot perm[j] (0-indexed).  Built by basis-index arithmetic so it
    serves as an independent cross-check of the transpose-based routines."""
    if sorted(perm) != list(range(M)):
        raise ValidationError(f"perm must be a permutation of 0..{M - 1}, got {perm}")
    D = d ** M
    weights = [d ** (M - 1 - j) for j in range(M)]
    P = np.zeros((D, D), dtype=complex)
    for src in range(D):
        rem = src
        digits = []
        for j in range(M):
            digits.append(rem // weights[j])
            rem %= weights[j]
        dst = sum(digits[perm[j]] * weights[j] for j in range(M))
        P[dst, src] = 1.0
    return P


def permute_slots_matrix(rho: np.ndarray, perm: tuple[int, ...], d: int, M: int) -> np.ndarray:
    """Conjugate an operator on (C^d)^{x M} by the slot permutation."""
    tensor = rho.reshape((d,) * (2 * M))
    axes = tuple(perm) + tuple(M + p for p in perm)
    return np.transpose(tensor, axes=axes).reshape(d ** M, d ** M)


def spectrum_entropy(eigs: np.ndarray) -> np.ndarray:
    """Entropy -sum p ln p (nats) along the last axis of eigenvalue arrays,
    with negative eigenvalues clipped and the rest trace-normalized; zero
    for an all-zero spectrum."""
    p = np.clip(eigs, 0.0, None)
    tot = np.sum(p, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(tot > 0, p / tot, 0.0)
        terms = np.where(frac > 0, frac * np.log(frac), 0.0)
    return -np.sum(terms, axis=-1)


def von_neumann_entropy(rho) -> float:
    """Entropy -sum p ln p (nats) of the trace-normalized density matrix."""
    arr = as_matrix(rho)
    tr = float(np.trace(arr).real)
    if tr <= 0:
        raise ValidationError(f"entropy requires positive trace, got {tr}")
    return float(spectrum_entropy(np.linalg.eigvalsh(arr)))
