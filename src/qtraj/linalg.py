"""Dense complex linear algebra for finite-dimensional quantum systems.

Provides the value types used across the package (state vectors, Hermitian
operators, density matrices) plus the operations the engines are built on:
Hermitian eigendecomposition, exact unitary propagators, tensor-slot
embeddings and their slot sums, slot permutations, and von Neumann entropy.

All value types are immutable after construction: wrapped arrays are copied
and marked read-only, so instances are safe to share across threads.
Tensor ordering is row-major with slot 1 varying slowest, matching repeated
Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

HERMITICITY_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10
MAX_PARTICLES = 4


def _check_particles(M: int):
    """Reject a particle count outside 1..MAX_PARTICLES."""
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if M > MAX_PARTICLES:
        raise CapacityError(f"at most {MAX_PARTICLES} particles supported, got M={M}")


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=complex, order="C")
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def as_matrix(op) -> np.ndarray:
    """Unwrap an operator-like object (value type or ndarray) to an ndarray."""
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        return op.entries
    arr = np.asarray(op, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _max_asymmetry(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr - arr.conj().T)))


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
        arr = _frozen_array(self.entries, "entries", 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"operator must be square, got shape {arr.shape}")
        asym = _max_asymmetry(arr)
        if asym > HERMITICITY_TOL:
            raise ValidationError(
                f"operator is not Hermitian: max |A - A^dag| = {asym:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite Hermitian matrix with nonnegative trace."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, "entries", 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {arr.shape}")
        asym = _max_asymmetry(arr)
        if asym > HERMITICITY_TOL:
            raise ValidationError(
                f"density matrix is not Hermitian: max asymmetry {asym:.3e}"
            )
        tr = complex(np.trace(arr))
        if abs(tr.imag) > 1e-12 or tr.real < -1e-12:
            raise ValidationError(f"density matrix trace must be real and >= 0, got {tr}")
        wmin = float(np.linalg.eigvalsh(arr)[0])
        if wmin < DENSITY_EIG_FLOOR:
            raise ValidationError(
                f"density matrix has eigenvalue {wmin:.3e} below {DENSITY_EIG_FLOOR:.1e}"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (w, V) with eigenvalues w ascending and unitary V such that
    A = V diag(w) V^dag.  Raises a validation error naming the maximum
    asymmetry when the input is not Hermitian.
    """
    arr = as_matrix(A)
    asym = _max_asymmetry(arr)
    if asym > HERMITICITY_TOL:
        raise ValidationError(
            f"eigendecomposition requires a Hermitian matrix: "
            f"max |A - A^dag| = {asym:.3e}"
        )
    w, V = np.linalg.eigh(arr)
    return w, V


def propagator(H, t: float, hbar: float = 1.0) -> np.ndarray:
    """Unitary exp(-i H t / hbar) computed through the eigenbasis of H."""
    if hbar <= 0:
        raise ValidationError(f"hbar must be positive, got {hbar}")
    w, V = hermitian_eig(H)
    phases = np.exp(-1j * w * (float(t) / hbar))
    return (V * phases) @ V.conj().T


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
    if not 1 <= k <= M:
        raise ValidationError(f"slot index k must satisfy 1 <= k <= M, got k={k}, M={M}")
    d = arr.shape[0]
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
    if not (1 <= k < l <= M):
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
