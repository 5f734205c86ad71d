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

The engine works in the full tensor space.  Label averaging commutes with
slot permutations, so a permutation-symmetric initial density stays
symmetric; no per-step projection is applied and any drift of the symmetry
defect is a bug signal, which the tests watch for.

Density trajectories run on the event engine of :mod:`qtraj.jumps`, whose
loop, schedule and outcome sampler they share: rows are densities in the
eigenbasis of the total Hamiltonian, and each mixing event is applied
elementwise in the product eigenbasis of R (:class:`_DensityRows`).  The
outcome law is outcome_weight_matrix @ p with p the slot-averaged
R-populations.  evolve_density is a batch of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .jumps import _events, _run_rows, _sample_grid, _series
from .linalg import (
    HERMITICITY_TOL,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    _check_particles,
    as_matrix,
    embed_at_slot,
    embed_pair,
    hermitian_eig,
    kron_power,
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


def permutation_defect(rho, d: int, M: int) -> float:
    """Max over slot transpositions of the entrywise deviation of the
    conjugated operator from the original."""
    arr = as_matrix(rho)
    worst = 0.0
    for k in range(M):
        for l in range(k + 1, M):
            perm = list(range(M))
            perm[k], perm[l] = perm[l], perm[k]
            swapped = permute_slots_matrix(arr, tuple(perm), d, M)
            worst = max(worst, float(np.max(np.abs(swapped - arr))))
    return worst


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
        """Constants of the mixing engine, built on first use: (C, C^dag,
        digits, slot_average).  C = V_R^dag V_H maps H's eigenbasis into R's
        product eigenbasis, in which state x has single-particle R-index
        digits[x, k] in slot k; slot_average[x, a] = #{k: digits[x, k] = a} / M
        maps R-populations to the slot-averaged single-particle ones."""
        C = kron_power(self.meter.eigenvectors, self.M).conj().T @ self._heig[1]
        digits = np.array(list(itertools.product(range(self.d), repeat=self.M)))
        slot_average = np.stack(
            [np.count_nonzero(digits == a, axis=1) for a in range(self.d)], axis=1
        ) / self.M
        return C, np.ascontiguousarray(C.conj().T), digits, slot_average


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


class _DensityRows:
    """Mixing-engine rows: densities in the eigenbasis of the total H.

    A free gap multiplies a density by the outer product of the phases.  In
    R's product eigenbasis the mixing reduction (1/M) sum_k G_k rho G_k^dag
    is the Hadamard product with K = (1/M) sum_k a_k a_k^dag, where
    a_k[x] = g(lambda, x_k); an event therefore costs four D x D products.
    Observables are Re sum(X_H^T * rho), O(D^2) each.
    """

    collapse = "density trace collapsed at a mixing event"

    def __init__(self, cfg: ManyBodyConfig, rho: np.ndarray, n: int, observables):
        self.w, self.V = cfg._heig
        self.C, self.CH, self.digits, self.slot_average = cfg._mixing_basis
        self.G = cfg.meter.reduction_family
        self.M = cfg.M
        Vh = self.V.conj().T
        self.rho = np.tile(Vh @ rho @ self.V, (n, 1, 1))
        self.XT = np.array([(Vh @ X @ self.V).T for X in observables.values()]).reshape(
            len(observables), cfg.dim ** 2)

    def advance(self, phases):
        self.rho *= phases[:, :, None] * phases.conj()[:, None, :]

    def record(self, rows):
        """(minimum eigenvalue, entropy, observables) of each row."""
        rho = self.rho[rows]
        eigs = np.linalg.eigvalsh(rho)
        flat = rho.reshape(rho.shape[0], 1, -1)
        return eigs[:, 0], spectrum_entropy(eigs), np.add.reduce(flat * self.XT, axis=2).real

    def rotate_in(self, rows):
        return np.matmul(np.matmul(self.C, self.rho[rows]), self.CH)

    def populations(self, rot):
        diag = np.ascontiguousarray(rot.diagonal(0, 1, 2).real)
        return np.matmul(diag[:, None, :], self.slot_average)[:, 0, :]

    def reduce(self, rot, idx):
        a = self.G[idx][:, self.digits]
        rot *= np.matmul(a, a.conj().transpose(0, 2, 1)) / self.M
        back = np.matmul(np.matmul(self.CH, rot), self.C)
        back = (back + back.conj().transpose(0, 2, 1)) / 2.0
        return back, np.ascontiguousarray(back.diagonal(0, 1, 2).real).sum(axis=1)

    def store(self, rows, reduced, tr):
        self.rho[rows] = reduced / tr[:, None, None]

    def final(self) -> np.ndarray:
        """Rows rotated back to the original basis; releases the rows, so
        the outputs built next can reuse their memory."""
        rho, self.rho = self.rho, None
        return np.matmul(np.matmul(self.V, rho), self.V.conj().T)


def _mixing_batch(cfg: ManyBodyConfig, rho0: DensityMatrix, T: float, mode: str, indices,
                  sample_times=None, observables=None) -> list[DensityTrajectory]:
    """Density trajectories at the given indices, run as one batch of the
    event engine; entry r equals evolve_density(cfg, rho0, T, mode,
    indices[r], ...) bit for bit."""
    if mode not in ("normalized", "linear"):
        raise ValidationError(f"mode must be 'normalized' or 'linear', got {mode!r}")
    if abs(rho0.trace() - 1.0) > 1e-8:
        raise ValidationError(f"initial density must have unit trace, got {rho0.trace()!r}")
    if rho0.dim != cfg.dim:
        raise ValidationError(f"initial density dimension {rho0.dim} != d^M = {cfg.dim}")
    samples = _sample_grid(sample_times, T)
    linear = mode == "linear"
    rho = rho0.entries.astype(complex)
    obs = observables or {}
    indices = list(indices)
    kern = _DensityRows(cfg, rho, len(indices), obs)
    sch, outcome, log_w, weights, records = _run_rows(
        kern, cfg.meter, cfg.seed, cfg.total_intensity, T, indices, samples, linear, cfg.hbar
    )
    min_eig, entropy = (sch.collect([rec[j] for rec in records]) for j in (0, 1))
    values = _series(sch, [rec[2] for rec in records], len(obs))
    final = kern.final()
    if linear:
        final *= np.exp(log_w)[:, None, None]
    final = (final + final.conj().transpose(0, 2, 1)) / 2.0
    grid = cfg.meter.support_grid
    sampled = sample_times is not None
    out = []
    for r in range(len(indices)):
        out.append(DensityTrajectory(
            events=_events(sch, outcome, r, grid),
            t_final=float(T),
            rho=DensityMatrix(final[r]),
            log_weight=float(log_w[r]) if linear else 0.0,
            sample_times=samples if sampled else None,
            trace_series=weights[r] if sampled else None,
            entropy_series=entropy[r] if sampled else None,
            min_eig_series=min_eig[r] if sampled else None,
            observable_series=(
                {name: values[o, r] for o, name in enumerate(obs)} if sampled else {}
            ),
        ))
    return out


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
    martingale.  A batch of one of the event engine.
    """
    return _mixing_batch(cfg, rho0, T, mode, [index], sample_times, observables)[0]


def entropy_after_first_event(cfg: ManyBodyConfig, psi: StateVector, lam: float) -> float:
    """Entropy produced by one normalized mixing event on a pure state."""
    return von_neumann_entropy(mixing_reduction(cfg, psi.density(), lam))
