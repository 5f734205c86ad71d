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
is not permutation-invariant.  A batch returns its final rows, checked on
the blocks; :func:`_densities` alone rebuilds D x D densities from rows, for
their traces and for evolve_density, criterion 6 and the tests.

Density trajectories run on the event engine of :mod:`qtraj.jumps`, whose
loop, schedule and outcome sampler they share.  In the copy basis of the
blocks (``ManyBodyConfig._mixing_basis``) the total Hamiltonian is
diagonal, so a free gap is elementwise phases.  A mixing event never builds
the D x D density.  On an invariant rho the label average is the S_M
symmetrization of the slot-1 term G_1 rho G_1^dag, so by Schur's lemma each
block's new copy is A'_lambda = (1/m_lambda) sum_j U_j^dag G_1 rho G_1^dag
U_j over its m_lambda copies U_j.  In copy coordinates G_1 is
Y = sum_c g(lambda, c) T_c, with T_c the slot-1 projector onto R-digit c.
G_1 commutes with the permutations of slots 2..M, and the copies are
adapted to them, so Y joins only copies of one branch and the event is a
few small products per branch (:meth:`_BlockRows.reduce`).  The outcome law
is outcome_weight_matrix @ p, and the slot-1 R-populations p are linear
functionals of a row.  A free gap cannot change a spectrum, so records keep
each row's block spectra until its next event.  Exactly real basis changes,
as in every preset, run as real GEMMs (:func:`_left`).  evolve_density is a
batch of one, and the only place a DensityTrajectory object is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError, check_memory
from .jumps import MODES, EventColumns, _observables, _run_rows
from .linalg import (
    DENSITY_EIG_FLOOR,
    HERMITICITY_TOL,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _real_if_exact,
    as_matrix,
    check_model,
    embed_at_slot,
    embed_pair,
    hermitian_eig,
    initial_state,
    kron_power,
    permutation_matrix,
    permute_slots_matrix,
    slot_sum,
    spectrum_entropy,
    von_neumann_entropy,
)
from .meter import MeterModel

MAX_BRUTE_FORCE_EVENTS = 6
# Peak bytes per entry of a D x D operator and per d + 2 while a mixing
# config is built and its copy basis derived (the slot-1 projectors' blocks
# alone are up to d such operators at M = 2, where one group holds every
# copy), measured with tracemalloc: 19-29 from D = 64 to 1024 (d = 4 to 32,
# M = 2 to 4; 687 MB at d = 32, M = 2), since the projectors are built one
# at a time.  When all d were built at once it was 33-48 (1.47 GB there).
_BASIS_BYTES = 48


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
    check_model(M, d=d)
    if arr.shape[0] != d ** M:
        raise ValidationError(f"rho must act on d^M = {d ** M}, got {arr.shape[0]}")
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


def _left(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X for a stack X whose last axis is contiguous.  A real A (see
    :func:`_real_if_exact`) times a complex X takes one real GEMM on the float
    view of X, in which a product from the left acts on rows only; other
    pairs take np.matmul."""
    if A.dtype.kind == "c" or X.dtype.kind != "c":
        return np.matmul(A, X)
    return np.matmul(A, X.view(np.float64)).view(complex)


class _Block(NamedTuple):
    """One S_M block of the mixing engine: m copies of a Q-dimensional
    space, at columns cols of the full copy basis and at entries of a row.
    F holds the copies as an (m, D, Q) stack in the original basis."""

    m: int
    Q: int
    cols: slice
    entries: slice
    F: np.ndarray

    def view(self, rows: np.ndarray) -> np.ndarray:
        """The block of a stack of rows, as a view of Q x Q matrices."""
        return rows[..., self.entries].reshape(*rows.shape[:-1], self.Q, self.Q)


class _Group(NamedTuple):
    """Copies that share their branch under the permutations of slots
    2..M, between which alone the slot-1 projectors have entries: their
    size x size block is at entries at of a flattened stack, and members
    lists (block index, offset in the group) of each copy."""

    at: slice
    size: int
    members: tuple[tuple[int, int], ...]


def _densities(F: np.ndarray, blocks, rows: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """Symmetrized densities F Z F^dag of a stack of rows times exp(log_w),
    exactly 1 where log_w is 0 (normalized mode), Z the direct sum over the
    blocks of I_m (x) A_lambda, given every copy's columns F.  Z F^dag is
    blockwise; F (Z F^dag) is one D x D GEMM."""
    n, D = rows.shape[0], F.shape[0]
    Yh = np.empty((n, D, D), dtype=complex)
    for b in blocks:
        Y = _left(b.F, b.view(rows)[:, None])
        np.conjugate(Y.swapaxes(2, 3), out=Yh[:, b.cols].reshape(n, b.m, b.Q, D))
    states = _left(F, Yh)
    states *= np.exp(log_w)[:, None, None]
    # One row's adjoint at a time: the temporaries stay small beside the states.
    for state in states:
        state += state.conj().T
    states *= 0.5
    return states


@dataclass(frozen=True)
class ManyBodyConfig:
    """Configuration of an M-particle monitored system.

    The single-particle meter supplies kappa, R and the pointer packet; nu is
    the per-particle scattering intensity, so the merged observed stream has
    intensity M nu.  W, if given, is a pair potential on d^2 applied once to
    every unordered pair of slots k < l; it must be a Hermitian operator
    (checked as H_single is), symmetric under the swap |i, j> <-> |j, i>,
    or the total Hamiltonian would single out a slot order.
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
        check_model(self.M, self.nu, self.hbar)
        if self.H_single.dim != self.d or self.meter.dim != self.d:
            raise ValidationError(
                "H_single and meter must act on dimension d="
                f"{self.d}, got {self.H_single.dim} and {self.meter.dim}"
            )
        d = self.H_single.dim
        check_memory("d^(2M)", d ** (2 * self.M), _BASIS_BYTES * (d + 2), "copy-basis entries")
        h = slot_sum(self.H_single.entries, self.M)
        if self.W is not None:
            try:
                W = HermitianOperator(as_matrix(self.W)).entries
            except ValidationError as exc:
                raise ValidationError(f"pair potential W: {exc}") from None
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
    def copy_row_bytes(self) -> int:
        """Bytes of a mixing-engine row: C(d^2 + M - 1, M) complex entries."""
        return 16 * math.comb(self.d ** 2 + self.M - 1, self.M)

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
        """Constants of the mixing engine, built on first use: (w, F, blocks,
        groups, pairs, T, populations).

        Each :class:`_Block` spans m aligned copies U_j of one space: an
        invariant rho is sum_j U_j A U_j^dag, A = U_j^dag rho U_j for every j.
        U_1 = B W (B from :func:`_isotypic_blocks`, W the eigenvectors of
        B^dag H B, eigenvalues w), so H is diag(w) on every copy.  The
        slot-permuted images of U_1 have Gram matrix G (x) I_Q, and G's top m
        eigenvectors combine them into the copies.  A unitary mix of aligned
        copies is aligned again, so the copies are then turned into
        eigenvectors of sum_s (2M)^s X_s, where X_s = sum_{t > s} (s t) are
        the Jucys-Murphy elements of slots 2..M (0-based s >= 1): its
        eigenvalue names the copy's branch under the permutations that fix
        slot 1 (the Gelfand-Tsetlin basis of that chain).  F holds every
        copy's columns, and row entry e is A[pairs[:, e]] of its block,
        indexed into w.

        With E = (V_R^dag)^{(x) M} F, T_c = E^dag Pi_c E is the projector
        onto R-digit c in slot 1 in copy coordinates.  It commutes with the
        permutations of slots 2..M, so it joins only copies of one branch (a
        :class:`_Group`), and T stores each group's block of every T_c,
        flattened and stacked: T[at][i * size + j, c].  The population
        functionals act on the float view of a row: row.view(float) @
        populations[:, c] = Tr(Pi_c rho).  Exactly real F and T are stored
        real (for :func:`_left`)."""
        d, M, D = self.d, self.M, self.dim
        index = np.arange(D).reshape((d,) * M)
        perms = [index.transpose(p).reshape(-1) for p in itertools.permutations(range(M))]
        jm = []
        for s in range(1, M - 1):
            for t in range(s + 1, M):
                swap = list(range(M))
                swap[s], swap[t] = t, s
                jm.append(((2 * M) ** s, index.transpose(swap).reshape(-1)))
        CR = kron_power(self.meter.eigenvectors, M).conj().T
        w, blocks, pairs, branches = [], [], [], []
        col = entry = 0
        for B, m in _isotypic_blocks(d, M):
            h, W = np.linalg.eigh(_real_if_exact(B.T @ self._h_total @ B))
            Q = h.size
            images = np.stack([(B @ W)[p] for p in perms])
            g, v = np.linalg.eigh(np.einsum("aiq,biq->ab", images.conj(), images) / Q)
            U = np.einsum("ak,aiq->kiq", v[:, -m:] / np.sqrt(g[-m:]), images)
            XU = sum((a * U[:, p] for a, p in jm), np.zeros_like(U))
            branch, O = np.linalg.eigh(np.einsum("jiq,kiq->jk", U.conj(), XU) / Q)
            U = np.einsum("jk,jiq->kiq", O, U)
            branches += [(int(np.rint(x)), len(blocks), col + j * Q) for j, x in enumerate(branch)]
            blocks.append(_Block(m, Q, slice(col, col + m * Q), slice(entry, entry + Q * Q),
                                 _real_if_exact(U)))
            pairs.append(np.indices((Q, Q)).reshape(2, -1) + len(w))
            w.extend(h)
            col, entry = col + m * Q, entry + Q * Q
        F = np.concatenate([b.F.transpose(1, 0, 2).reshape(D, -1) for b in blocks], axis=1)
        # Slot 1 is the leading digit of a product index.
        E = _real_if_exact(CR @ F).reshape(d, D // d, D)
        groups, group_cols = [], []
        at = 0
        for key in sorted({key for key, _, _ in branches}):
            members, cols = [], []
            for _, b, start in (x for x in branches if x[0] == key):
                members.append((b, len(cols)))
                cols.extend(range(start, start + blocks[b].Q))
            size = len(cols)
            groups.append(_Group(slice(at, at + size * size), size, tuple(members)))
            group_cols.append(np.ix_(cols, cols))
            at += size * size
        # One D x D T_c at a time, of which only the group blocks are kept,
        # each written where it is stored, in the layout the stacked build of
        # all d of them left (see _BASIS_BYTES).
        T = np.empty((at, d), dtype=E.dtype)
        P = np.empty((d, sum(b.Q * b.Q for b in blocks), 2))
        for c, Ec in enumerate(E):
            Tc = Ec.conj().T @ Ec
            T[:, c] = np.concatenate([Tc[cols].reshape(-1) for cols in group_cols])
            Pc = np.concatenate([Tc[b.cols, b.cols].reshape(b.m, b.Q, b.m, b.Q)
                                 .trace(axis1=0, axis2=2).T.reshape(-1) for b in blocks])
            P[c, :, 0], P[c, :, 1] = Pc.real, -Pc.imag
        return (np.array(w), F, blocks, groups, np.concatenate(pairs, axis=1), T,
                P.reshape(d, -1).T)


@dataclass
class DensityTrajectory:
    """One realized density-matrix trajectory.

    rho is the final a-posteriori density: trace one in normalized mode, the
    mean-normalized linear solution in linear mode, with log_weight holding
    the log trace of the linear solution.  Per-sample series carry the
    reported trace, entropy, minimum eigenvalue and requested normalized
    expectations at the sample times (T alone unless others were
    requested).
    """

    events: tuple[tuple[float, float], ...]
    t_final: float
    rho: DensityMatrix
    log_weight: float
    sample_times: np.ndarray
    trace_series: np.ndarray
    entropy_series: np.ndarray
    min_eig_series: np.ndarray
    observable_series: dict[str, np.ndarray]

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
    An event stays in copy coordinates (:meth:`reduce`): with Y = sum_c
    g(lambda, c) T_c and Z the direct sum of I_m (x) A_lambda, each block's
    new copy is (1/m) sum_j Y_j Z Y_j^dag, Y_j the rows of copy j, and the
    reduced trace is sum_lambda m Tr A'_lambda.  Y has entries only within
    a :class:`_Group`, so Y_j Z Y_j^dag sums over the copies of j's group.
    rotate_in hands the rows themselves to the event, and their
    R-populations are one product with the population functionals.  A
    spectrum is each A_lambda's, repeated m times; each row keeps its
    minimum eigenvalue and entropy from its first record after an event
    until its next event, and the final check reads them.  An observable X
    is sum_lambda Re Tr(X_lambda A_lambda) with X_lambda = sum_j U_j^dag X
    U_j.  :meth:`finish` rebuilds D x D densities only for their traces.
    """

    collapse = "density trace collapsed at a mixing event"
    invalid = "final density has an eigenvalue below DENSITY_EIG_FLOOR or a bad trace"
    series = ("min_eig", "entropy")

    def __init__(self, cfg: ManyBodyConfig, rho: np.ndarray, n: int, observables):
        (self.w, self.F, self.blocks, self.groups, self.pairs, self.T,
         self.P) = cfg._mixing_basis
        self.G = _real_if_exact(cfg.meter.reduction_family)
        first = [(b.F[0].conj().T @ rho @ b.F[0]).reshape(-1) for b in self.blocks]
        self.rows = np.tile(np.concatenate(first), (n, 1))
        self.XT = np.array([
            np.concatenate([(b.F.conj().transpose(0, 2, 1) @ X @ b.F).sum(axis=0).T.reshape(-1)
                            for b in self.blocks])
            for X in observables.values()]).reshape(len(observables), self.rows.shape[1])
        # Minimum eigenvalue and entropy of each row, valid where fresh.
        self.min_eig, self.entropy = np.empty(n), np.empty(n)
        self.fresh = np.zeros(n, dtype=bool)

    def advance(self, phases):
        self.rows *= phases[:, self.pairs[0]] * phases.conj()[:, self.pairs[1]]

    def spectra(self, A):
        """The ascending spectrum of each row of A."""
        return np.sort(np.concatenate([np.repeat(np.linalg.eigvalsh(b.view(A)), b.m, axis=1)
                                       for b in self.blocks], axis=1), axis=1)

    def refresh(self, rows):
        """Indices of the selected rows, after computing the spectral values
        of those that had an event since they were last computed."""
        idx = np.arange(self.fresh.size)[rows]
        stale = idx[~self.fresh[idx]]
        if stale.size:
            eigs = self.spectra(self.rows[stale])
            self.min_eig[stale], self.entropy[stale] = eigs[:, 0], spectrum_entropy(eigs)
            self.fresh[stale] = True
        return idx

    def record(self, rows):
        """Minimum eigenvalue, entropy and observables of each row."""
        idx = self.refresh(rows)
        A = self.rows[rows]
        return {"min_eig": self.min_eig[idx], "entropy": self.entropy[idx],
                "values": np.add.reduce(A[:, None, :] * self.XT, axis=2).real}

    def rotate_in(self, rows):
        return self.rows[rows]

    def populations(self, Z):
        return np.matmul(Z.view(np.float64)[:, None, :], self.P)[:, 0, :]

    def reduce(self, Z, idx):
        n = Z.shape[0]
        Y = _left(self.T, self.G[idx][:, :, None])[:, :, 0]
        # conj(Y Z) is kept whole, or as its real and imaginary parts when Y
        # is real, so that every product below is a real GEMM with no
        # conjugate transpose.
        parts = Z[None] if Y.dtype.kind == "c" else np.stack([Z.real, -Z.imag])
        S = [None] * len(self.blocks)
        for grp in self.groups:
            Yg = Y[:, grp.at].reshape(n, grp.size, grp.size)
            W = np.empty((len(parts), n, grp.size, grp.size), dtype=Y.dtype)
            for k, q in grp.members:
                # Y's columns of a copy, times its block.
                c = slice(q, q + self.blocks[k].Q)
                np.matmul(Yg[:, :, c], self.blocks[k].view(parts), out=W[..., c])
            if len(parts) == 1:
                np.conjugate(W, out=W)
            for k, q in grp.members:
                # Y_j (Y_j Z)^dag of copy j, summed over the block's copies.
                r = slice(q, q + self.blocks[k].Q)
                Sj = np.matmul(Yg[:, r], W[:, :, r].swapaxes(2, 3))
                S[k] = Sj if S[k] is None else S[k] + Sj
        out = np.empty_like(Z)
        tr = np.zeros(n)
        for b, Sb in zip(self.blocks, S):
            Sb = Sb[0] if len(Sb) == 1 else Sb[0] + 1j * Sb[1]
            A = b.view(out)
            np.add(Sb, Sb.conj().swapaxes(1, 2), out=A)
            A *= 0.5 / b.m
            tr += b.m * np.trace(A, axis1=1, axis2=2).real
        return out, tr

    def store(self, rows, reduced, tr):
        self.rows[rows] = reduced / tr[:, None]
        self.fresh[rows] = False

    def finish(self, log_w):
        """The rows; their densities' traces, eight rows at a time; which
        pass: lowest eigenvalue times exp(log_w) at least DENSITY_EIG_FLOOR,
        finite trace at least -1e-12.  Releases the rows."""
        self.refresh(slice(None))
        rows, self.rows = self.rows, None
        final = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], 8):
            states = _densities(self.F, self.blocks, rows[lo:lo + 8], log_w[lo:lo + 8])
            final[lo:lo + 8] = [np.trace(f).real for f in states]
        min_eig = self.min_eig * np.exp(log_w)
        return rows, final, (min_eig >= DENSITY_EIG_FLOOR) & (-1e-12 <= final) & (final < np.inf)


def _mixing_batch(cfg: ManyBodyConfig, rho0: DensityMatrix, T: float, mode: str, indices,
                  sample_times=None, observables=None) -> EventColumns:
    """Density trajectories at the given indices, run as one batch of the
    event engine; row r equals evolve_density(cfg, rho0, T, mode,
    indices[r], ...) bit for bit, states[r] being its final copy-block row
    (see :func:`_densities`), which run_trajectories drops."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    rho0 = initial_state(rho0, DensityMatrix, cfg.dim)
    defect = permutation_defect(rho0, cfg.d, cfg.M)
    if defect > HERMITICITY_TOL:
        raise ValidationError(
            "initial density is not permutation-invariant: max slot-swap defect "
            f"{defect:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    obs = _observables(observables, cfg.dim)
    kern = _BlockRows(cfg, rho0.entries.astype(complex), len(indices), obs)
    return _run_rows(kern, cfg.meter, cfg.seed, cfg.total_intensity, T, indices, sample_times,
                     obs, mode == "linear", cfg.hbar, cfg.copy_row_bytes)


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
    martingale.  The series are recorded at sample_times (default: T).  A
    batch of one of the event engine, and the only place a
    DensityTrajectory object is built.
    """
    cols = _mixing_batch(cfg, rho0, T, mode, [index], sample_times, observables)
    rho = _densities(*cfg._mixing_basis[1:3], cols.states, cols.log_weight)[0]
    return DensityTrajectory(cols.events(0), float(T), DensityMatrix(rho),
                             float(cols.log_weight[0]), cols.sample_times, cols.weights[0],
                             cols.entropy[0], cols.min_eig[0],
                             dict(zip(cols.names, cols.values[:, 0])))


def entropy_after_first_event(cfg: ManyBodyConfig, psi: StateVector, lam: float) -> float:
    """Entropy produced by one normalized mixing event on a pure state."""
    return von_neumann_entropy(mixing_reduction(cfg, psi.density(), lam))
