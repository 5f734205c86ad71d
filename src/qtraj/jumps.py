"""Poisson-driven quantum-jump trajectories, and the event engine they share
with the label-averaged density trajectories of :mod:`qtraj.manybody`.

Between scattering events the state evolves under the exact unitary
propagator of H; at each event one reduction operator G(lambda) acts once,
which realizes the counting rule (dn)^2 = dn without any time-discretization
error.  Two modes are supported:

* normalized: event times follow a homogeneous Poisson process with the
  configured intensity (valid because the reduction family resolves the
  identity against the pointer density, which the meter enforces at
  construction) and outcomes are drawn from the a-posteriori law
  w(lambda) ~ ||G(lambda) chi||^2 |f0(lambda)|^2 dlambda; the state is
  renormalized after every jump.
* linear: same event-time law, outcomes drawn from the bare pointer density,
  state left unnormalized (tracked as a normalized direction plus a log
  squared-norm weight).  The squared norm is then a mean-one martingale,
  which the test suite checks by Monte Carlo.

Trajectories are pure functions of (config, trajectory index).  Trajectory i
draws from its own stream (seed, i): first every exponential gap of its
Poisson clock up to the first one that passes T (m + 1 gaps for m events),
then one uniform per event.  Because the outcome family is complete, the
clock does not depend on the state, so each trajectory's event times,
uniforms and merged timeline of sample and event times are known before its
state exists.

There are two derivations of these draws that agree bit for bit.
:func:`sample_poisson_times` on a fresh :func:`qtraj.rng.stream`, then
``rng.random(m)``, is the reference: one scalar gap per call.  A batch
(:func:`_event_draws`) serves all its rows from one generator re-keyed per
row (:class:`qtraj.rng.Streams`): it draws each row's gaps as one block and
sums them with a sequential cumulative sum, then re-keys the row, redraws
exactly m + 1 gaps and draws the m uniforms.

The event engine (:func:`_run_rows`) advances a batch of trajectories, one
row each, through their timelines together: step k takes every row to its
k-th point.

* Rows are held in a basis of eigenvectors of H, where a free gap is the
  elementwise phase exp(-i w dt / hbar).
* At an event the rows are taken into the eigenbasis of R, where the
  reduction is elementwise, and back.
* Outcomes follow outcome_weight_matrix @ p for the R-populations p, drawn
  by a row-wise coarse-then-fine inverse CDF (:func:`_draw_outcomes`).

A row's arithmetic is elementwise or one stacked matmul per row, so a
trajectory is bit-identical whether it runs alone (:func:`evolve_jump`, a
batch of one) or in a batch (:func:`_jump_batch`).  The rows are a kernel
object: :class:`_PureRows` here, amplitudes in H's eigenbasis; for
label-averaged densities ``manybody._BlockRows``, one copy of each S_M block
of the density.

A batch returns columns (:class:`EventColumns`); a :class:`Trajectory`
object is built only by :func:`evolve_jump`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError
from .linalg import HermitianOperator, StateVector, hermitian_eig
from .meter import MeterModel, STATE_NORM_TOL
from .rng import Streams

MODES = ("normalized", "linear")
# Kinds of timeline points.  IDLE points (the end time T, and the padding
# after it in rows with fewer events) only advance the clock.
SAMPLE, EVENT, IDLE = 0, 1, 2
# Outcome totals and post-event norms below this are a degenerate state.
VANISHING = 1e-300
_PHASE_BLOCK_BYTES = 1 << 20
# Widest first block of exponential gaps per row (2 KB).
_GAP_BLOCK = 256


@dataclass(frozen=True)
class JumpConfig:
    """Configuration of a single-particle jump unravelling."""

    H: HermitianOperator
    meter: MeterModel
    nu: float
    hbar: float = 1.0
    seed: int = 0
    mode: str = "normalized"

    def __post_init__(self):
        if self.nu < 0:
            raise ValidationError(f"nu >= 0 required, got {self.nu}")
        if self.hbar <= 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.H.dim != self.meter.dim:
            raise ValidationError(
                f"H dimension {self.H.dim} does not match meter dimension {self.meter.dim}"
            )
        object.__setattr__(self, "_heig", hermitian_eig(self.H))

    def free_step(self, amps: np.ndarray, dt: float) -> np.ndarray:
        """Exact unitary evolution of amplitudes over a gap of length dt."""
        w, V = self._heig
        return V @ (np.exp(-1j * w * (dt / self.hbar)) * (V.conj().T @ amps))

    @cached_property
    def _rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, C^dag) with C = V_R^dag V_H, from H's eigenbasis into R's;
        built on first use."""
        C = self.meter.eigenvectors.conj().T @ self._heig[1]
        return C, np.ascontiguousarray(C.conj().T)


@dataclass
class Trajectory:
    """One realized jump trajectory.

    state is the final state at t_final: normalized in normalized mode, the
    unnormalized linear solution in linear mode.  log_weight is the log of
    the squared norm of the linear solution (zero in normalized mode).
    Optional per-sample series hold the reported squared norm and normalized
    expectation values at the requested sample times.
    """

    events: tuple[tuple[float, float], ...]
    t_final: float
    state: StateVector
    log_weight: float
    sample_times: np.ndarray | None = None
    norm2_series: np.ndarray | None = None
    observable_series: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.events)


@dataclass
class EventColumns:
    """Results of trajectories (or diffusion paths) as columns; row r is
    trajectory indices[r].

    Row r's events are entries offsets[r]:offsets[r + 1] of times and of
    outcomes (support indices into the pointer readings grid).  final is the
    final squared norm or trace; the series are weights[r], values[o, r] for
    names[o] and, for densities, entropy and min_eig; states, the final
    states, only in an event batch, not in a run's columns.  Diffusion
    columns carry no events: counts, times, outcomes, grid, log_weight,
    final and states are None.
    """

    indices: np.ndarray
    weights: np.ndarray
    sample_times: np.ndarray | None
    names: tuple[str, ...]
    values: np.ndarray
    counts: np.ndarray | None = None
    times: np.ndarray | None = None
    outcomes: np.ndarray | None = None
    grid: np.ndarray | None = None
    log_weight: np.ndarray | None = None
    final: np.ndarray | None = None
    states: np.ndarray | None = None
    entropy: np.ndarray | None = None
    min_eig: np.ndarray | None = None

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)])

    def events(self, r: int) -> tuple[tuple[float, float], ...]:
        """Row r's (time, pointer reading) pairs."""
        lo, hi = self.offsets[r:r + 2]
        return tuple(zip(self.times[lo:hi].tolist(), self.grid[self.outcomes[lo:hi]].tolist()))

    @classmethod
    def concat(cls, parts) -> "EventColumns":
        """The rows of parts in order."""
        def join(name):
            first = getattr(parts[0], name)
            if name in ("grid", "sample_times", "names") or first is None:
                return first
            return np.concatenate([getattr(p, name) for p in parts], axis=int(name == "values"))
        return cls(**{f.name: join(f.name) for f in fields(cls)})


def sample_poisson_times(nu: float, T: float, rng: np.random.Generator) -> np.ndarray:
    """Event times of a homogeneous Poisson process on [0, T), one gap per
    draw; the reference of the batched draws of :func:`_event_draws`."""
    if nu < 0:
        raise ValidationError(f"nu >= 0 required, got {nu}")
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    if nu == 0:
        return np.empty(0)
    times = []
    t = rng.exponential(1.0 / nu)
    while t < T:
        times.append(t)
        t += rng.exponential(1.0 / nu)
    return np.array(times)


def _draw_outcomes(meter: MeterModel, pops: np.ndarray, u: np.ndarray):
    """Row-wise inverse-CDF draws from the laws outcome_weight_matrix @ pops[r].

    Row r's outcome is the first support index whose cumulative weight
    exceeds u[r] times the row's total (the last index if none does), found
    among the block ends of ``meter.cumulative_outcomes`` and then inside
    one block.  Returns (support indices, totals).
    """
    coarse, blocks = meter.cumulative_outcomes
    p = pops[:, :, None]
    cum = np.matmul(coarse, p)[:, :, 0]
    total = cum[:, -1]
    x = (u * total)[:, None]
    # The last block holds the rest, so the total is not compared.
    block = np.add.reduce(cum[:, :-1] <= x, axis=1)
    fine = np.matmul(blocks[block], p)[:, :, 0]
    return block * blocks.shape[1] + np.add.reduce(fine <= x, axis=1), total


def sample_outcome(meter: MeterModel, chi, rng: np.random.Generator) -> float:
    """Draw one pointer reading from the a-posteriori law of a normalized chi."""
    amps = chi.amps if isinstance(chi, StateVector) else np.asarray(chi, dtype=complex)
    ct = meter.eigenvectors.conj().T @ amps
    idx, total = _draw_outcomes(meter, (np.abs(ct) ** 2)[None, :], np.array([rng.random()]))
    if not total[0] >= VANISHING:
        raise NumericError("all outcome weights vanish; state is degenerate")
    return float(meter.grid[meter.support_indices[idx[0]]])


def _record_times(times, T: float) -> np.ndarray:
    """Validated record times, in any order (empty when none are
    requested): T must be positive and finite, and every time finite and
    in [0, T]."""
    if not 0 < T < math.inf:
        raise ValidationError(f"T must be positive and finite, got {T}")
    times = np.empty(0) if times is None else np.asarray(times, dtype=float)
    if not np.all((times >= 0) & (times <= T)):
        raise ValidationError(f"record times must be finite and lie in [0, T={T}]")
    return times


def _step_grid(T: float, dt: float, times) -> tuple[int, np.ndarray, dict[int, list[int]]]:
    """(step count, record steps, rec_map) of a fixed-step run over [0, T]:
    rec[j] is the step of record time times[j] and rec_map[s] the record
    slots to fill after step s.  T must be a positive multiple of dt and
    every record time a grid point in [0, T] (:func:`_record_times`)."""
    times = _record_times(times, T)
    n_steps = int(round(T / dt)) if dt > 0 and T / dt < math.inf else 0
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValidationError(f"T={T} must be a positive multiple of dt={dt}")
    rec = np.round(times / dt).astype(int)
    if np.any(np.abs(rec * dt - times) > 1e-9):
        raise ValidationError("record times must align with the integration step grid")
    rec_map: dict[int, list[int]] = {}
    for j, s in enumerate(rec.tolist()):
        rec_map.setdefault(s, []).append(j)
    return n_steps, rec, rec_map


@dataclass
class _Schedule:
    """Draws and merged timelines of a batch of rows.

    Row r has counts[r] events, whose times follow those of rows < r in
    the flat array times.  t[r, k] is the time of row r's k-th timeline
    point and gaps[k, r] the time since its previous point, in units of
    hbar.  steps[k] = (sample rows, event rows, span) describes step k,
    which takes every row to its k-th point: the rows whose k-th point is a
    sample or an event (None for no row, a full slice for all rows, else an
    index array) and the span of the step's events in the flat event
    arrays.  The flat event and sample arrays list every event (row, event
    number, uniform) and every sample (row, sample number) in step order.
    """

    counts: np.ndarray
    times: np.ndarray
    n_samples: int
    t: np.ndarray
    gaps: np.ndarray
    steps: list
    event_rows: np.ndarray
    event_slots: np.ndarray
    event_uniforms: np.ndarray
    sample_rows: np.ndarray
    sample_slots: np.ndarray

    def collect(self, parts, tail=()) -> np.ndarray:
        """(rows, samples, *tail) array of the values recorded at the sample
        steps, given in step order."""
        out = np.empty((self.counts.size, self.n_samples, *tail))
        if parts:
            out[self.sample_rows, self.sample_slots] = np.concatenate(parts)
        return out


def _event_draws(seed: int, rate: float, T: float, indices):
    """Each row's Poisson event times and outcome uniforms.

    Row r draws from stream (seed, indices[r]) exactly what
    ``sample_poisson_times(rate, T, rng)`` and then ``rng.random(m)`` draw
    for its m events: m + 1 exponential gaps, then m uniforms.  The gaps
    come as one block per row and a sequential cumulative sum, which adds
    them in the reference's order; a row whose block ends before T redraws
    a block twice as wide.  Then each row is reset and redraws exactly
    m + 1 gaps, so its uniforms start where the reference's do.

    Returns (times, counts, uniforms): times[r] holds row r's event times
    first and values >= T after them, and the uniforms are flat in row
    order.
    """
    streams = Streams(seed, indices)
    n = len(streams.keys)
    if rate == 0:
        return np.full((n, 1), np.inf), np.zeros(n, dtype=np.intp), np.empty(0)
    mean = rate * T
    width = min(_GAP_BLOCK, math.ceil(mean + 4.0 * math.sqrt(mean)) + 4)
    times = np.empty((n, 0))
    rows = np.arange(n)
    while rows.size:
        # Rows that have not reached T redraw a wider block from the start.
        width = max(width, 2 * times.shape[1])
        wide = np.full((n, width), np.inf)
        wide[:, :times.shape[1]] = times
        for r in rows.tolist():
            streams.reset(r).standard_exponential(out=wide[r])
        # exponential(scale) is scale times standard_exponential, bit for bit.
        wide[rows] = np.cumsum(wide[rows] * (1.0 / rate), axis=1)
        times = wide
        rows = rows[times[rows, -1] < T]
    counts = np.add.reduce(times < T, axis=1)
    uniforms = np.empty(int(counts.sum()))
    spare = np.empty(int(counts.max(initial=0)) + 1)
    lo = 0
    for r, m in enumerate(counts.tolist()):
        rng = streams.reset(r)
        rng.standard_exponential(out=spare[:m + 1])
        rng.random(out=uniforms[lo:lo + m])
        lo += m
    return times, counts, uniforms


def _schedule(seed: int, rate: float, T: float, indices, samples, hbar: float) -> _Schedule:
    times, counts, uniforms = _event_draws(seed, rate, T, indices)
    n, ns = counts.size, samples.size
    n_ev = int(counts.max(initial=0))
    keys = np.full((n, ns + n_ev + 1), np.inf)
    keys[:, :ns] = samples
    keys[:, -1] = T
    first = times[:, :n_ev]
    keys[:, ns:ns + n_ev] = np.where(first < T, first, np.inf)
    # A stable sort keeps column order at equal times: a sample precedes an
    # event, and both precede the end point T.  Padding (inf) sorts last.
    col = np.argsort(keys, axis=1, kind="stable")
    t = keys[np.arange(n)[:, None], col]
    kind = np.where(col < ns, SAMPLE, np.where(np.isfinite(t) & (col < ns + n_ev), EVENT, IDLE))
    t = np.minimum(t, T)
    n_pts = t.shape[1]
    gaps = np.empty((n_pts, n))
    gaps[0] = t[:, 0]
    np.subtract(t[:, 1:].T, t[:, :-1].T, out=gaps[1:])
    gaps /= hbar

    def points(which):
        """Rows at such points in step order, and where each step's run starts."""
        k, r = np.nonzero(kind.T == which)
        return r, col[r, k], np.searchsorted(k, np.arange(n_pts + 1)).tolist()

    s_rows, s_cols, sb = points(SAMPLE)
    e_rows, e_cols, eb = points(EVENT)
    every = slice(None)
    steps = [
        (None if a == b else every if b - a == n else s_rows[a:b],
         None if c == e else every if e - c == n else e_rows[c:e],
         slice(c, e))
        for a, b, c, e in zip(sb, sb[1:], eb, eb[1:])
    ]
    e_slots = e_cols - ns
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return _Schedule(counts, times[times < T], ns, t, gaps, steps, e_rows, e_slots,
                     uniforms[offsets[e_rows] + e_slots], s_rows, s_cols)


def _run_rows(kern, meter: MeterModel, seed: int, rate: float, T: float, indices,
              sample_times, names, linear: bool, hbar: float):
    """The event loop shared by the jump and mixing engines.

    ``kern`` holds one state row per index in a basis of eigenvectors of H
    (eigenvalues ``kern.w``) and implements advance (elementwise phases), record (a tuple
    of per-row values at a sample), rotate_in and populations (R-basis rows
    and their populations), reduce (unnormalized reduced rows and their
    norm) and store.  Rows are selected by an index array or by a full slice,
    and the kernel must treat both alike; the last value of a record holds
    the observables, in the order of names.  Returns (the rows' event
    columns, without final values, the schedule, the kernel's records in
    step order).  A NumericError names the seed, trajectory index and time
    to rerun.
    """
    samples = _record_times(sample_times, T)
    sch = _schedule(seed, rate, T, indices, samples, hbar)
    n = len(indices)
    log_w = np.zeros(n)
    u = sch.event_uniforms
    if linear:
        # Outcomes follow the bare pointer density: draw them all up front.
        cdf = meter.mu0_cdf
        outcomes = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
    else:
        outcomes = np.empty(u.size, dtype=np.intp)
    records, weight_parts = [], []
    minus_iw = -1j * kern.w
    # Phases of the next steps, computed together within a byte budget.
    phase_steps = max(1, _PHASE_BLOCK_BYTES // (16 * n * kern.w.size))

    def fail(values, rows, k, what):
        r = np.arange(n)[rows][np.argmin(values >= VANISHING)]
        raise NumericError(
            f"{what} at t={float(sch.t[r, k])!r} (seed={seed}, "
            f"trajectory index={indices[r]}); rerun that index alone to reproduce"
        )

    for k, (s_rows, e_rows, span) in enumerate(sch.steps):
        if k % phase_steps == 0:
            phases = np.exp(np.multiply.outer(sch.gaps[k:k + phase_steps], minus_iw))
        kern.advance(phases[k % phase_steps])
        if s_rows is not None:
            records.append(kern.record(s_rows))
            if linear:
                weight_parts.append(np.exp(log_w[s_rows]))
        if e_rows is not None:
            rot = kern.rotate_in(e_rows)
            if not linear:
                idx, total = _draw_outcomes(meter, kern.populations(rot), u[span])
                # NaN fails these comparisons too, and np.minimum propagates it.
                if not np.minimum.reduce(total) >= VANISHING:
                    fail(total, e_rows, k, "all outcome weights vanish; state is degenerate")
                outcomes[span] = idx
            reduced, norm = kern.reduce(rot, outcomes[span])
            if not np.minimum.reduce(norm) >= VANISHING:
                fail(norm, e_rows, k, kern.collapse)
            kern.store(e_rows, reduced, norm)
            if linear:
                log_w[e_rows] += np.log(norm)
    cols = EventColumns(
        indices=np.array(indices, dtype=np.intp),
        counts=sch.counts,
        times=sch.times,
        outcomes=np.empty(u.size, dtype=np.intp),
        grid=meter.support_grid,
        log_weight=log_w,
        weights=sch.collect(weight_parts) if linear else np.ones((n, samples.size)),
        sample_times=None if sample_times is None else samples,
        names=tuple(names),
        values=np.ascontiguousarray(
            sch.collect([rec[-1] for rec in records], (len(names),)).transpose(2, 0, 1)),
    )
    # From step order to row order.
    cols.outcomes[cols.offsets[sch.event_rows] + sch.event_slots] = outcomes
    return cols, sch, records


class _PureRows:
    """Jump-engine rows: normalized amplitudes in H's eigenbasis."""

    collapse = "reduction annihilated the state (zero likelihood)"

    def __init__(self, cfg: JumpConfig, eta: StateVector, n: int, observables):
        self.w, self.V = cfg._heig
        self.C, self.CH = cfg._rotation
        self.G = cfg.meter.reduction_family
        Vh = self.V.conj().T
        self.y = np.tile(Vh @ eta.amps, (n, 1))
        self.X = np.array([Vh @ X @ self.V for X in observables.values()]).reshape(
            len(observables), self.w.size, self.w.size)

    def advance(self, phases):
        self.y *= phases

    def record(self, rows):
        y = self.y[rows]
        Xy = np.matmul(self.X, y[:, None, :, None])[..., 0]
        return (np.add.reduce(y.conj()[:, None, :] * Xy, axis=-1).real,)

    def rotate_in(self, rows):
        return np.matmul(self.C, self.y[rows][:, :, None])[:, :, 0]

    def populations(self, ct):
        return (ct * ct.conj()).real

    def reduce(self, ct, idx):
        ct *= self.G[idx]
        n2 = np.add.reduce((ct * ct.conj()).real, axis=1)
        return np.matmul(self.CH, ct[:, :, None])[:, :, 0], n2

    def store(self, rows, reduced, n2):
        self.y[rows] = reduced / np.sqrt(n2)[:, None]

    def final(self) -> np.ndarray:
        """Rows rotated back to the original basis."""
        return np.matmul(self.V, self.y[:, :, None])[:, :, 0]


def _jump_batch(cfg: JumpConfig, eta: StateVector, T: float, indices,
                sample_times=None, observables=None) -> EventColumns:
    """Trajectories at the given indices, run as one batch of the event
    engine; row r equals evolve_jump(cfg, eta, T, indices[r], ...) bit for
    bit."""
    if abs(eta.norm2() - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"initial state must be normalized, norm^2={eta.norm2()!r}")
    obs = observables or {}
    indices = list(indices)
    kern = _PureRows(cfg, eta.normalized(), len(indices), obs)
    linear = cfg.mode == "linear"
    cols, _, _ = _run_rows(kern, cfg.meter, cfg.seed, cfg.nu, T, indices, sample_times, obs,
                           linear, cfg.hbar)
    final = kern.final()
    if linear:
        final *= np.exp(0.5 * cols.log_weight)[:, None]
    if not np.isfinite(final).all():
        raise ValidationError("amps contains non-finite entries")
    cols.final = np.array([np.vdot(amps, amps).real for amps in final])
    cols.states = final
    return cols


def evolve_jump(
    cfg: JumpConfig,
    eta: StateVector,
    T: float,
    index: int = 0,
    sample_times=None,
    observables: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Propagate one trajectory exactly from a normalized initial state.

    Event times are Poisson(nu); between events the evolution is the exact
    unitary, at events exactly one reduction is applied.  With sample_times
    given, the reported squared norm (1 in normalized mode, exp(log_weight)
    in linear mode) and normalized expectations of the observables are
    recorded at those times.  A batch of one of the event engine, and the
    only place a Trajectory object is built.
    """
    cols = _jump_batch(cfg, eta, T, [index], sample_times, observables)
    sampled = cols.sample_times is not None
    return Trajectory(cols.events(0), float(T), StateVector(cols.states[0]),
                      float(cols.log_weight[0]), cols.sample_times,
                      cols.weights[0] if sampled else None,
                      dict(zip(cols.names, cols.values[:, 0])) if sampled else {})


def trajectory_product_check(
    cfg: JumpConfig,
    events,
    eta: StateVector,
    T: float,
) -> tuple[StateVector, StateVector]:
    """Evolve a fixed event list two independent ways.

    The stepwise route interleaves exact unitary gaps with reductions; the
    product route assembles the chronological operator product with every
    reduction rotated into the Heisenberg picture at its event time, then
    applies one final unitary.  The two must agree to rounding.
    """
    events = [(float(t), float(lam)) for t, lam in events]
    if any(not 0 <= t < T for t, _ in events):
        raise ValidationError("event times must lie in [0, T)")
    if sorted(t for t, _ in events) != [t for t, _ in events]:
        raise ValidationError("event times must be chronologically ordered")
    meter = cfg.meter

    # Route 1: stepwise.
    amps = eta.amps.copy()
    t = 0.0
    for t_ev, lam in events:
        if t_ev > t:
            amps = cfg.free_step(amps, t_ev - t)
            t = t_ev
        amps = meter.reduction(lam) @ amps
    if T > t:
        amps = cfg.free_step(amps, T - t)
    step_state = StateVector(amps)

    # Route 2: chronological product in the Heisenberg picture.
    amps2 = eta.amps.copy()
    for t_ev, lam in events:
        amps2 = cfg.free_step(amps2, t_ev)
        amps2 = meter.reduction(lam) @ amps2
        amps2 = cfg.free_step(amps2, -t_ev)
    amps2 = cfg.free_step(amps2, T)
    return step_state, StateVector(amps2)
