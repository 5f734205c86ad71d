"""Indistinguishable-particle monitoring: mixing reductions and the
stochastic density-matrix trajectory.

M identical particles scatter independently off meter quanta, so the merged
event stream is Poisson with intensity M nu, but the observer cannot tell
which particle scattered.  Conditioning on an outcome therefore averages the
single-particle reduction over the particle label,

    rho -> (1/M) sum_k G(k, lambda) rho G(k, lambda)^dag,

which maps pure states to mixtures and generically produces entropy even
though each hidden-label operation is pure.  A brute-force oracle enumerates
all label assignments for a short event list and must agree with the
iterated mixing reduction; that identity is the module's correctness anchor.

Label averaging commutes with slot permutations, so a permutation-invariant
initial density stays invariant, and by Schur-Weyl duality such a density is
a direct sum of blocks A_lambda (x) I_{m_lambda} over the irreducible
representations lambda of S_M.  The engine keeps only one copy of each
A_lambda (:class:`_BlockRows`): C(d^2 + M - 1, M) entries against D^2, 816
against 4096 at d = 4, M = 3.  It therefore rejects an initial density that
is not permutation-invariant.  A batch rebuilds its final densities in the
full tensor space, where criterion 6 and the tests watch their symmetry
defect; ensemble runs drop them as each batch returns.

Density trajectories run on the event engine of :mod:`qtraj.jumps`, whose
loop, schedule and outcome sampler they share.  In the copy basis of the
blocks (``ManyBodyConfig._mixing_basis``) the total Hamiltonian is
diagonal, so a free gap is elementwise phases; each mixing event is applied
elementwise in the product eigenbasis of R, on the density rebuilt there
from every copy.  The outcome law is outcome_weight_matrix @ p with p the
slot-averaged R-populations.  Basis changes whose matrices are exactly
real, as in every preset, run as real GEMMs on the float view of the
complex rows (:func:`_left`).  evolve_density is a batch of one, and the
only place a DensityTrajectory object is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError
from .jumps import EventColumns, _run_rows
from .linalg import (
    HERMITICITY_TOL,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _check_density,
    _check_particles,
    as_matrix,
    embed_at_slot,
    embed_pair,
    hermitian_eig,
    kron_power,
    permutation_matrix,
    permute_slots_matrix,
    slot_sum,
    spectrum_entropy,
    von_neumann_entropy,
)
from .meter import MeterModel

MAX_BRUTE_FORCE_EVENTS = 6


def nearest_neighbor_coupling(d: int, strength: float) -> np.ndarray:
    """Diagonal pair potential coupling adjacent sites: strength on |i, j>
    with |i - j| = 1, zero elsewhere."""
    W = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if abs(i - j) == 1:
                W[i * d + j, i * d + j] = strength
    return W


def _transpositions(M: int) -> list[tuple[int, ...]]:
    """The slot transpositions (k l), k < l, as permutations of range(M),
    starting with (0 1)."""
    perms = []
    for k in range(M):
        for l in range(k + 1, M):
            perm = list(range(M))
            perm[k], perm[l] = perm[l], perm[k]
            perms.append(tuple(perm))
    return perms


def permutation_defect(rho, d: int, M: int) -> float:
    """Max over slot transpositions of the entrywise deviation of the
    conjugated operator from the original."""
    arr = as_matrix(rho)
    worst = 0.0
    for perm in _transpositions(M):
        swapped = permute_slots_matrix(arr, perm, d, M)
        worst = max(worst, float(np.max(np.abs(swapped - arr))))
    return worst


def _isotypic_blocks(d: int, M: int) -> list[tuple[np.ndarray, int]]:
    """(B, m) for each S_M block of (C^d)^{x M}: B real with orthonormal
    columns spanning one copy, m the block's multiplicity.

    A permutation-invariant operator is a direct sum of A_lambda (x) I_m over
    the irreducible representations lambda of S_M, with A_lambda = B^T rho B,
    so its spectrum is that of each A_lambda repeated m times.  The class sum
    T of the transpositions takes the content sum of lambda on block lambda,
    distinct for every lambda when M <= 4, and the transposition of slots 0
    and 1 has eigenvalues +-1 inside it.  For M <= 4 the smaller of its two
    eigenspaces in a block is one copy: one eigenvector of the transposition
    in the representation, tensored with the block's A_lambda space.  Both
    operators are found at once as the eigenspaces of T + S_01 / 4.
    """
    D = d ** M
    swaps = [permutation_matrix(perm, d, M).real for perm in _transpositions(M)]
    S01 = swaps[0] if swaps else np.eye(D)
    vals, vecs = np.linalg.eigh(sum(swaps, np.zeros((D, D))) + S01 / 4)
    content = np.rint(vals)
    upper = vals > content
    blocks = []
    for c in np.unique(content):
        block = content == c
        sides = [block & upper, block & ~upper]
        copy = min(sides, key=lambda side: np.count_nonzero(side) or D + 1)
        blocks.append((vecs[:, copy], int(np.count_nonzero(block) // np.count_nonzero(copy))))
    return blocks


def _real_if_exact(A: np.ndarray) -> np.ndarray:
    """A as a real array when its imaginary part is exactly zero."""
    return A if np.any(A.imag) else np.ascontiguousarray(A.real)


def _left(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X for a stack X whose last axis is contiguous.  A real A (see
    :func:`_real_if_exact`) takes one real GEMM on the float view of X, in
    which a product from the left acts on rows only."""
    if A.dtype.kind == "c":
        return np.matmul(A, X)
    return np.matmul(A, X.view(np.float64)).view(complex)


def _sandwich(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X A^dag = A (A X)^dag for a stack X of Hermitian matrices: two
    GEMMs (:func:`_left`)."""
    return _left(A, np.conjugate(_left(A, X).swapaxes(-1, -2), order="C"))


class _Block(NamedTuple):
    """One S_M block of the mixing engine: m copies of a Q-dimensional
    space, at columns cols of the full copy bases and at entries of a row.
    F and E are the copies as an (m, D, Q) stack in the original basis and
    in R's product eigenbasis."""

    m: int
    Q: int
    cols: slice
    entries: slice
    F: np.ndarray
    E: np.ndarray

    def view(self, rows: np.ndarray) -> np.ndarray:
        """The block of a stack of rows, as a view of Q x Q matrices."""
        return rows[:, self.entries].reshape(rows.shape[0], self.Q, self.Q)


def _rebuild(full: np.ndarray, copies, blocks, rows: np.ndarray) -> np.ndarray:
    """Densities full Z full^dag of a stack of rows, Z the direct sum over
    the blocks of I_m (x) A_lambda, given every copy's columns (full) and
    each block's copies.  Z full^dag is blockwise; full (Z full^dag) is one
    D x D GEMM."""
    n, D = rows.shape[0], full.shape[0]
    Yh = np.empty((n, D, D), dtype=complex)
    for U, b in zip(copies, blocks):
        Y = _left(U, b.view(rows)[:, None])
        np.conjugate(Y.swapaxes(2, 3), out=Yh[:, b.cols].reshape(n, b.m, b.Q, D))
    return _left(full, Yh)


@dataclass(frozen=True)
class ManyBodyConfig:
    """Configuration of an M-particle monitored system.

    The single-particle meter supplies kappa, R and the pointer packet; nu is
    the per-particle scattering intensity, so the merged observed stream has
    intensity M nu.  W, if given, is a pair potential on d^2 applied once to
    every unordered pair of slots k < l; it must be symmetric under the swap
    |i, j> <-> |j, i>, or the total Hamiltonian would single out a slot order.
    """

    M: int
    d: int
    H_single: HermitianOperator
    meter: MeterModel
    nu: float
    W: np.ndarray | None = None
    hbar: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_particles(self.M)
        if self.nu < 0:
            raise ValidationError(f"nu >= 0 required, got {self.nu}")
        if self.hbar <= 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if self.H_single.dim != self.d or self.meter.dim != self.d:
            raise ValidationError(
                "H_single and meter must act on dimension d="
                f"{self.d}, got {self.H_single.dim} and {self.meter.dim}"
            )
        h = slot_sum(self.H_single.entries, self.M)
        if self.W is not None:
            d = self.d
            W = as_matrix(self.W)
            if W.shape != (d * d, d * d):
                raise ValidationError(
                    f"pair potential W must have shape {(d * d, d * d)}, got {W.shape}"
                )
            swapped = W.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
            defect = float(np.max(np.abs(swapped - W)))
            if defect > HERMITICITY_TOL:
                raise ValidationError(
                    f"pair potential W is not swap-symmetric: max |S W S - W| = {defect:.3e} "
                    f"exceeds {HERMITICITY_TOL:.1e}, with S|i,j> = |j,i>"
                )
            for k in range(1, self.M + 1):
                for l in range(k + 1, self.M + 1):
                    h += embed_pair(W, k, l, self.M, d)
        object.__setattr__(self, "_h_total", h)
        object.__setattr__(self, "_heig", hermitian_eig(h))

    @property
    def dim(self) -> int:
        return self.d ** self.M

    @property
    def total_intensity(self) -> float:
        return self.M * self.nu

    @property
    def hamiltonian(self) -> np.ndarray:
        return self._h_total

    def free_step(self, rho: np.ndarray, dt: float) -> np.ndarray:
        """Exact unitary conjugation over a gap of length dt."""
        w, V = self._heig
        ph = np.exp(-1j * w * (dt / self.hbar))
        return (V * ph) @ (V.conj().T @ rho @ V) @ (V.conj().T * ph.conj()[:, None])

    @cached_property
    def _mixing_basis(self):
        """Constants of the mixing engine, built on first use: (w, F, E,
        blocks, pairs, digits, slot_average).

        Each :class:`_Block` spans m aligned copies U_j of one space: an
        invariant rho is sum_j U_j A U_j^dag, A = U_j^dag rho U_j for every j.
        U_1 = B W (B from :func:`_isotypic_blocks`, W the eigenvectors of
        B^dag H B, eigenvalues w), so H is diag(w) on every copy.  The
        slot-permuted images of U_1 have Gram matrix G (x) I_Q, and G's top m
        eigenvectors combine them into the copies.  F holds every copy's
        columns, E = (V_R^dag)^{(x) M} F, and row entry e is A[pairs[:, e]]
        of its block, indexed into w.  Product state x has R-index
        digits[x, k] in slot k, and slot_average[x, a] = #{k: digits[x, k] =
        a} / M.  Exactly real F and E are stored real (for :func:`_left`)."""
        d, M, D = self.d, self.M, self.dim
        index = np.arange(D).reshape((d,) * M)
        perms = [index.transpose(p).reshape(-1) for p in itertools.permutations(range(M))]
        CR = kron_power(self.meter.eigenvectors, M).conj().T
        w, blocks, pairs = [], [], []
        col = entry = 0
        for B, m in _isotypic_blocks(d, M):
            h, W = np.linalg.eigh(_real_if_exact(B.T @ self._h_total @ B))
            Q = h.size
            images = np.stack([(B @ W)[p] for p in perms])
            g, v = np.linalg.eigh(np.einsum("aiq,biq->ab", images.conj(), images) / Q)
            U = np.einsum("ak,aiq->kiq", v[:, -m:] / np.sqrt(g[-m:]), images)
            blocks.append(_Block(m, Q, slice(col, col + m * Q), slice(entry, entry + Q * Q),
                                 _real_if_exact(U), _real_if_exact(np.matmul(CR, U))))
            pairs.append(np.indices((Q, Q)).reshape(2, -1) + len(w))
            w.extend(h)
            col, entry = col + m * Q, entry + Q * Q
        F = np.concatenate([b.F.transpose(1, 0, 2).reshape(D, -1) for b in blocks], axis=1)
        digits = np.array(list(itertools.product(range(d), repeat=M)))
        slot_average = np.stack(
            [np.count_nonzero(digits == a, axis=1) for a in range(d)], axis=1
        ) / M
        return (np.array(w), F, _real_if_exact(CR @ F), blocks, np.concatenate(pairs, axis=1),
                digits, slot_average)


@dataclass
class DensityTrajectory:
    """One realized density-matrix trajectory.

    rho is the final a-posteriori density: trace one in normalized mode, the
    mean-normalized linear solution in linear mode, with log_weight holding
    the log trace of the linear solution.  Per-sample series carry the
    reported trace, entropy, minimum eigenvalue and requested normalized
    expectations.
    """

    events: tuple[tuple[float, float], ...]
    t_final: float
    rho: DensityMatrix
    log_weight: float
    sample_times: np.ndarray | None = None
    trace_series: np.ndarray | None = None
    entropy_series: np.ndarray | None = None
    min_eig_series: np.ndarray | None = None
    observable_series: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.events)


def mixing_reduction(cfg: ManyBodyConfig, rho, lam: float) -> DensityMatrix:
    """Label-averaged single-event reduction
    (1/M) sum_k G(k, lambda) rho G(k, lambda)^dag, not renormalized."""
    arr = as_matrix(rho)
    g = cfg.meter.reduction(lam)
    out = np.zeros_like(arr)
    for k in range(1, cfg.M + 1):
        gk = embed_at_slot(g, k, cfg.M)
        out += gk @ arr @ gk.conj().T
    out /= cfg.M
    return DensityMatrix((out + out.conj().T) / 2.0)


def mixing_povm_element(cfg: ManyBodyConfig, lam: float) -> np.ndarray:
    """E(lambda) = (1/M) sum_k G(k, lambda)^dag G(k, lambda); its trace against
    rho is the unnormalized outcome density at lambda."""
    g = cfg.meter.reduction(lam)
    return slot_sum(g.conj().T @ g, cfg.M) / cfg.M


def mixing_brute_force_oracle(cfg: ManyBodyConfig, rho, lams) -> DensityMatrix:
    """Average over all M^n hidden label assignments of the chronological
    reduction product.  Must equal the n-fold iterated mixing reduction;
    kept deliberately independent of it as the correctness oracle."""
    lams = [float(x) for x in lams]
    n = len(lams)
    if n > MAX_BRUTE_FORCE_EVENTS:
        raise CapacityError(
            f"brute-force oracle supports at most {MAX_BRUTE_FORCE_EVENTS} events, got {n}"
        )
    arr = as_matrix(rho)
    if n == 0:
        return DensityMatrix(arr)
    gs = [cfg.meter.reduction(lam) for lam in lams]
    embedded = [
        [embed_at_slot(g, k, cfg.M) for k in range(1, cfg.M + 1)] for g in gs
    ]
    out = np.zeros_like(arr)
    for labels in itertools.product(range(cfg.M), repeat=n):
        op = np.eye(cfg.dim, dtype=complex)
        for j, k in enumerate(labels):
            op = embedded[j][k] @ op
        out += op @ arr @ op.conj().T
    out /= cfg.M ** n
    return DensityMatrix((out + out.conj().T) / 2.0)


class _BlockRows:
    """Mixing-engine rows: one copy A_lambda of each S_M block of a
    density, side by side, in the copy basis of
    ``ManyBodyConfig._mixing_basis``.

    H is diagonal there, so a free gap multiplies each entry by two phases.
    In R's product eigenbasis the mixing reduction (1/M) sum_k G_k rho
    G_k^dag is the Hadamard product with K = (1/M) sum_k a_k a_k^dag,
    a_k[x] = g(lambda, x_k): an event rebuilds the density there from every
    copy (:func:`_rebuild`), multiplies it by K and projects it onto the
    first copy of each block (:func:`_sandwich`).  A spectrum is each
    A_lambda's, repeated m times, and an observable X is
    sum_lambda Re Tr(X_lambda A_lambda) with X_lambda = sum_j U_j^dag X U_j.
    """

    collapse = "density trace collapsed at a mixing event"

    def __init__(self, cfg: ManyBodyConfig, rho: np.ndarray, n: int, observables):
        self.w, self.F, self.E, self.blocks, self.pairs, self.digits, self.slot_average = (
            cfg._mixing_basis)
        self.G = _real_if_exact(cfg.meter.reduction_family)
        self.M = cfg.M
        first = [(b.F[0].conj().T @ rho @ b.F[0]).reshape(-1) for b in self.blocks]
        self.rows = np.tile(np.concatenate(first), (n, 1))
        self.XT = np.array([
            np.concatenate([(b.F.conj().transpose(0, 2, 1) @ X @ b.F).sum(axis=0).T.reshape(-1)
                            for b in self.blocks])
            for X in observables.values()]).reshape(len(observables), self.rows.shape[1])

    def advance(self, phases):
        self.rows *= phases[:, self.pairs[0]] * phases.conj()[:, self.pairs[1]]

    def record(self, rows):
        """(minimum eigenvalue, entropy, observables) of each row."""
        A = self.rows[rows]
        eigs = np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b.view(A)), b.m, axis=1)
                                       for b in self.blocks], axis=1), axis=1)
        values = np.add.reduce(A[:, None, :] * self.XT, axis=2).real
        return eigs[:, 0], spectrum_entropy(eigs), values

    def rotate_in(self, rows):
        return _rebuild(self.E, [b.E for b in self.blocks], self.blocks, self.rows[rows])

    def populations(self, rot):
        diag = np.ascontiguousarray(rot.diagonal(0, 1, 2).real)
        return np.matmul(diag[:, None, :], self.slot_average)[:, 0, :]

    def reduce(self, rot, idx):
        a = self.G[idx][:, self.digits]
        rot *= np.matmul(a, a.conj().transpose(0, 2, 1))
        out = np.empty((rot.shape[0], self.rows.shape[1]), dtype=complex)
        for b in self.blocks:
            A = _sandwich(b.E[0].conj().T, rot)
            np.add(A, A.conj().transpose(0, 2, 1), out=b.view(out))
        out *= 0.5 / self.M
        # The trace of (1/M) K o rot, which the projection onto the copies keeps.
        return out, np.ascontiguousarray(rot.diagonal(0, 1, 2).real).sum(axis=1) / self.M

    def store(self, rows, reduced, tr):
        self.rows[rows] = reduced / tr[:, None]

    def final(self) -> np.ndarray:
        """Rows rebuilt in the original basis; releases the rows."""
        rows, self.rows = self.rows, None
        return _rebuild(self.F, [b.F for b in self.blocks], self.blocks, rows)


def _mixing_batch(cfg: ManyBodyConfig, rho0: DensityMatrix, T: float, mode: str, indices,
                  sample_times=None, observables=None) -> EventColumns:
    """Density trajectories at the given indices, run as one batch of the
    event engine; row r equals evolve_density(cfg, rho0, T, mode,
    indices[r], ...) bit for bit, final density (states[r]) included, which
    run_trajectories drops."""
    if mode not in ("normalized", "linear"):
        raise ValidationError(f"mode must be 'normalized' or 'linear', got {mode!r}")
    if abs(rho0.trace() - 1.0) > 1e-8:
        raise ValidationError(f"initial density must have unit trace, got {rho0.trace()!r}")
    if rho0.dim != cfg.dim:
        raise ValidationError(f"initial density dimension {rho0.dim} != d^M = {cfg.dim}")
    defect = permutation_defect(rho0, cfg.d, cfg.M)
    if defect > HERMITICITY_TOL:
        raise ValidationError(
            "initial density is not permutation-invariant: max slot-swap defect "
            f"{defect:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    linear = mode == "linear"
    rho = rho0.entries.astype(complex)
    obs = observables or {}
    indices = list(indices)
    kern = _BlockRows(cfg, rho, len(indices), obs)
    cols, sch, records = _run_rows(kern, cfg.meter, cfg.seed, cfg.total_intensity, T, indices,
                                   sample_times, obs, linear, cfg.hbar)
    cols.min_eig, cols.entropy = (sch.collect([rec[j] for rec in records]) for j in (0, 1))
    final = kern.final()
    if linear:
        final *= np.exp(cols.log_weight)[:, None, None]
    final += final.conj().transpose(0, 2, 1)
    final *= 0.5
    _check_density(final)
    cols.final = np.array([np.trace(f).real for f in final])
    cols.states = final
    return cols


def evolve_density(
    cfg: ManyBodyConfig,
    rho0: DensityMatrix,
    T: float,
    mode: str = "normalized",
    index: int = 0,
    sample_times=None,
    observables: dict[str, np.ndarray] | None = None,
) -> DensityTrajectory:
    """Propagate one a-posteriori density trajectory exactly.

    Event times follow Poisson(M nu).  In normalized mode outcomes are drawn
    from Tr{E(lambda) rho} |f0|^2 dlambda and the trace is renormalized after
    each event; in linear mode outcomes follow the bare pointer density and
    the log trace is accumulated, making the reported trace a mean-one
    martingale.  A batch of one of the event engine, and the only place a
    DensityTrajectory object is built.
    """
    cols = _mixing_batch(cfg, rho0, T, mode, [index], sample_times, observables)
    sampled = cols.sample_times is not None
    series = [a[0] if sampled else None for a in (cols.weights, cols.entropy, cols.min_eig)]
    return DensityTrajectory(cols.events(0), float(T), DensityMatrix(cols.states[0]),
                             float(cols.log_weight[0]), cols.sample_times, *series,
                             dict(zip(cols.names, cols.values[:, 0])) if sampled else {})


def entropy_after_first_event(cfg: ManyBodyConfig, psi: StateVector, lam: float) -> float:
    """Entropy produced by one normalized mixing event on a pure state."""
    return von_neumann_entropy(mixing_reduction(cfg, psi.density(), lam))
