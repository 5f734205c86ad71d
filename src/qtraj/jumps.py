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
* At an event the jump rows are taken into the eigenbasis of R, where the
  reduction is elementwise, and back; mixing rows apply their event in
  their own copy coordinates.
* Outcomes follow outcome_weight_matrix @ p for the R-populations p, drawn
  by a row-wise coarse-then-fine inverse CDF (:func:`_draw_outcomes`).

A row's arithmetic is elementwise or one stacked matmul per row, so a
trajectory is bit-identical whether it runs alone (:func:`evolve_jump`, a
batch of one) or in a batch (:func:`_jump_batch`).  The rows are a kernel
object: :class:`_PureRows` here, amplitudes in H's eigenbasis; for
label-averaged densities ``manybody._BlockRows``, one copy of each S_M block
of the density.  The loop also finishes the columns from the kernel's
final rows, so a batch function only validates its input.  A row fails,
here and in the diffusive batches, through the one guard :func:`_guard`.

A batch returns columns (:class:`EventColumns`); a :class:`Trajectory`
object is built only by :func:`evolve_jump`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError, check_memory
from .linalg import (HermitianOperator, StateVector, as_matrix, check_integer, check_model,
                     hermitian_eig, initial_state)
from .meter import MeterModel
from .rng import Streams

MODES = ("normalized", "linear")
# Kinds of timeline points.  IDLE points (the end time T, and the padding
# after it in rows with fewer events) only advance the clock.
SAMPLE, EVENT, IDLE = 0, 1, 2
# Outcome totals and post-event norms below this are a degenerate state.
VANISHING = 1e-300
DEGENERATE = "all outcome weights vanish; state is degenerate"
# Byte budget of the phases of consecutive steps, computed together (held
# twice while they are).  On the jump-lattice workload (512 rows, d = 8),
# medians of 6 alternating benchmark runs gave peak RSS 50.9, 49.2, 48.9 and
# 48.9 MB at 1 MB, 256, 128 and 64 KB, with trajectories/s within noise.
_PHASE_BLOCK_BYTES = 1 << 18
# Widest first block of exponential gaps per row (2 KB).
_GAP_BLOCK = 256
# The charge of an event batch (_event_charge), from tracemalloc peaks with
# its returned columns.  Per row and event (draws, timeline, loop, record) at
# nu = 1e4 and 1e5, T = 1: 126-180 over 4 to 16 rows, 290-340 for one row.
_EVENT_BYTES = 320
# Per row and sample (timeline, records, columns), fitted from 1 and 64 rows
# of the default jump and many specs at 930 and 2800 samples: 82-90 (jump)
# and 113-125 (mixing), normalized and linear.
_SAMPLE_BYTES = 128
# Per batch and sample (a step and a record dict of small arrays), from the
# same fits: 570-700 (jump) and 840-970 (mixing); one row of 2800 samples
# peaked at 1.9-3.0 MB.
_BATCH_SAMPLE_BYTES = 1024


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
        check_model(nu=self.nu, hbar=self.hbar)
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
    The per-sample series hold the reported squared norm and normalized
    expectation values at the sample times (T alone unless others were
    requested).
    """

    events: tuple[tuple[float, float], ...]
    t_final: float
    state: StateVector
    log_weight: float
    sample_times: np.ndarray
    norm2_series: np.ndarray
    observable_series: dict[str, np.ndarray]

    @property
    def count(self) -> int:
        return len(self.events)


@dataclass
class EventColumns:
    """Results of trajectories (or diffusion paths) as columns; row r is
    trajectory indices[r].

    Row r's events are entries offsets[r]:offsets[r + 1] of times and of
    outcomes (support indices into the pointer readings grid).  states[r] is
    an event batch's final amplitudes or mixing copy-block row, and final its
    squared norm or density trace (of the linear solution in linear mode);
    the series are weights[r], values[o, r] for names[o] and, for densities,
    entropy and min_eig, each recorded at every one of sample_times (T
    alone unless others were requested).  Diffusion columns carry no
    events: counts, times, outcomes, grid, log_weight and final are None,
    and states[r, s] is the state recorded at sample_times[s].
    run_trajectories drops states.
    """

    indices: np.ndarray
    weights: np.ndarray
    sample_times: np.ndarray
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
    check_model(nu=nu)
    _record_times(None, T)
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
    with np.errstate(invalid="ignore"):  # inf * 0 on a row of zero total, which callers reject
        fine = np.matmul(blocks[block], p)[:, :, 0]
    return block * blocks.shape[1] + np.add.reduce(fine <= x, axis=1), total


def sample_outcome(meter: MeterModel, chi, rng: np.random.Generator) -> float:
    """Draw one pointer reading from the a-posteriori law of a normalized chi."""
    amps = chi.amps if isinstance(chi, StateVector) else np.asarray(chi, dtype=complex)
    ct = meter.eigenvectors.conj().T @ amps
    idx, total = _draw_outcomes(meter, (np.abs(ct) ** 2)[None, :], np.array([rng.random()]))
    if not total[0] >= VANISHING:
        raise NumericError(DEGENERATE)
    return float(meter.grid[meter.support_indices[idx[0]]])


def _record_times(times, T: float) -> np.ndarray:
    """Validated record times, in any order (T alone when none are given):
    T must be positive and finite, and every time finite and in [0, T].
    The one default of every engine's record times."""
    if not 0 < T < math.inf:
        raise ValidationError(f"T must be positive and finite, got {T}")
    times = np.asarray([T] if times is None else times, dtype=float)
    if not np.all((times >= 0) & (times <= T)):
        raise ValidationError(f"record times must be finite and lie in [0, T={T}]")
    return times


def _observables(observables, dim: int) -> dict[str, np.ndarray]:
    """Every batch function's observables (none by default) as complex
    matrices by str name, a ValidationError unless each acts on dim with
    finite entries."""
    obs = {str(k): as_matrix(v, f"observable {str(k)!r}")
           for k, v in dict(observables or {}).items()}
    for name, X in obs.items():
        if X.shape[0] != dim:
            raise ValidationError(f"observable {name!r} must act on dimension {dim}, "
                                  f"got {X.shape[0]}")
    return obs


def _index_column(indices) -> np.ndarray:
    """A batch's trajectory indices as its intp column, each an integer in
    0..INDEX_LIMIT - 1 (:func:`qtraj.linalg.check_integer`)."""
    return np.array([check_integer("trajectory index", i, 0) for i in indices], dtype=np.intp)


def _guard(ok, what: str, seed: int, indices, times, advice: str = ""):
    """Raise the NumericError of the first failure in row order unless ok
    holds: ok[i] (ok[i, s]) is trajectory indices[i] at times[i] (times[s])."""
    if not np.all(ok):
        at = tuple(np.argwhere(~ok)[0])
        t = float(np.broadcast_to(times, ok.shape)[at])
        raise NumericError(f"{what} at t={t!r} (seed={seed}, trajectory index={indices[at[0]]}); "
                           f"{advice}rerun that index alone to reproduce")


def _step_grid(T: float, dt: float, times) -> tuple[int, np.ndarray, dict[int, list[int]]]:
    """(step count, record times, rec_map) of a fixed-step run over [0, T]:
    the record times are :func:`_record_times` of times (T alone when none
    are given) and rec_map[s] the slots among them to fill after step s.
    T must be a positive multiple of dt and every record time a grid point
    in [0, T], with fewer than 2**53 steps."""
    times = _record_times(times, T)
    n_steps = int(round(T / dt)) if dt > 0 and T / dt < 2.0 ** 53 else 0
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValidationError(f"T={T} must be a positive multiple of dt={dt}, "
                              f"fewer than 2**53 steps")
    rec = np.round(times / dt).astype(int)
    if np.any(np.abs(rec * dt - times) > 1e-9):
        raise ValidationError("record times must align with the integration step grid")
    rec_map: dict[int, list[int]] = {}
    for j, s in enumerate(rec.tolist()):
        rec_map.setdefault(s, []).append(j)
    return n_steps, times, rec_map


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
    t: np.ndarray
    gaps: np.ndarray
    steps: list
    event_rows: np.ndarray
    event_slots: np.ndarray
    event_uniforms: np.ndarray
    sample_rows: np.ndarray
    sample_slots: np.ndarray


def _event_bound(rate: float, T: float) -> float:
    """Four standard deviations above a row's mean event count rate T."""
    mean = rate * T
    return mean + 4.0 * math.sqrt(mean)


def _event_charge(rate: float, T: float, n_samples: int, copies: int = 0) -> tuple[float, int]:
    """(bytes per row, fixed bytes) that one event batch of n_samples record
    times is charged, as its own check, the chunk sizing and the window of
    concurrent chunks count them: per row, _EVENT_BYTES for each of
    :func:`_event_bound` events, _SAMPLE_BYTES for each sample and copies
    bytes (a mixing row's copy blocks); fixed, _BATCH_SAMPLE_BYTES for each
    sample."""
    return (_EVENT_BYTES * _event_bound(rate, T) + _SAMPLE_BYTES * n_samples + copies,
            _BATCH_SAMPLE_BYTES * n_samples)


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
    n, events = len(indices), _event_bound(rate, T)
    streams = Streams(seed, indices)
    if rate == 0:
        return np.full((n, 1), np.inf), np.zeros(n, dtype=np.intp), np.empty(0)
    width = min(_GAP_BLOCK, math.ceil(events) + 4)
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
    return _Schedule(counts, times[times < T], t, gaps, steps, e_rows, e_slots,
                     uniforms[offsets[e_rows] + e_slots], s_rows, s_cols)


def _run_rows(kern, meter: MeterModel, seed: int, rate: float, T: float, indices,
              sample_times, names, linear: bool, hbar: float, copies: int = 0) -> EventColumns:
    """The event loop shared by the jump and mixing engines: the rows' columns.
    Rows beyond memory at :func:`_event_charge` fail before any draw.

    ``kern`` holds one state row per index in a basis of eigenvectors of H
    (eigenvalues ``kern.w``) and implements advance (elementwise phases),
    record (per-row values at a sample by name: "values", the observables in
    the order of names, and the EventColumns series named in kern.series),
    rotate_in (the rows an event reads: amplitudes in R's eigenbasis for
    :class:`_PureRows`, the copy-block rows themselves for the mixing
    kernel), populations (their R-populations), reduce (unnormalized reduced
    rows and their norm), store and finish.  Rows are
    selected by an index array or by a full slice, and the kernel must treat
    both alike.  finish(log_w, zero in normalized mode) returns the final
    rows, their final values and whether each row passes the kernel's
    final check (a failure is kern.invalid, raised by :func:`_guard`).
    """
    samples = _record_times(sample_times, T)
    index = _index_column(indices)
    n = index.size
    per_row, fixed = _event_charge(rate, T, samples.size, copies)
    check_memory("batch rows", n, per_row, "event rows", fixed)
    sch = _schedule(seed, rate, T, index, samples, hbar)
    log_w = np.zeros(n)
    u = sch.event_uniforms
    if linear:
        # Outcomes follow the bare pointer density: draw them all up front.
        cdf = meter.mu0_cdf
        outcomes = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
    else:
        outcomes = np.empty(u.size, dtype=np.intp)
    records = []
    minus_iw = -1j * kern.w
    # Phases of the next steps, computed together within a byte budget.
    phase_steps = max(1, _PHASE_BLOCK_BYTES // (16 * n * kern.w.size))
    for k, (s_rows, e_rows, span) in enumerate(sch.steps):
        if k % phase_steps == 0:
            phases = np.exp(np.multiply.outer(sch.gaps[k:k + phase_steps], minus_iw))
        kern.advance(phases[k % phase_steps])
        if s_rows is not None:
            records.append(kern.record(s_rows))
            if linear:
                records[-1]["weights"] = np.exp(log_w[s_rows])
        if e_rows is not None:
            rot = kern.rotate_in(e_rows)
            if not linear:
                idx, total = _draw_outcomes(meter, kern.populations(rot), u[span])
                # NaN fails these comparisons too.
                _guard(total >= VANISHING, DEGENERATE, seed, index[e_rows], sch.t[e_rows, k])
                outcomes[span] = idx
            reduced, norm = kern.reduce(rot, outcomes[span])
            _guard(norm >= VANISHING, kern.collapse, seed, index[e_rows], sch.t[e_rows, k])
            kern.store(e_rows, reduced, norm)
            if linear:
                log_w[e_rows] += np.log(norm)
    states, final, ok = kern.finish(log_w)
    _guard(ok, kern.invalid, seed, index, sch.t[:, -1])  # every row's last point is T

    def collect(name, tail=()):
        """(rows, samples, *tail) array of a recorded series."""
        out = np.empty((n, samples.size, *tail))
        if records:
            out[sch.sample_rows, sch.sample_slots] = np.concatenate([rec[name] for rec in records])
        return out

    cols = EventColumns(
        indices=index,
        counts=sch.counts,
        times=sch.times,
        outcomes=np.empty(u.size, dtype=np.intp),
        grid=meter.support_grid,
        log_weight=log_w,
        weights=collect("weights") if linear else np.ones((n, samples.size)),
        sample_times=samples,
        names=tuple(names),
        values=np.ascontiguousarray(collect("values", (len(names),)).transpose(2, 0, 1)),
        final=final,
        states=states,
        **{name: collect(name) for name in kern.series},
    )
    # From step order to row order.
    cols.outcomes[cols.offsets[sch.event_rows] + sch.event_slots] = outcomes
    return cols


class _PureRows:
    """Jump-engine rows: normalized amplitudes in H's eigenbasis."""

    collapse = "reduction annihilated the state (zero likelihood)"
    invalid = "final state has non-finite entries"
    series = ()

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
        return {"values": np.add.reduce(y.conj()[:, None, :] * Xy, axis=-1).real}

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

    def finish(self, log_w):
        """Rows rotated back to the original basis, scaled to the linear
        solution by exp(log_w / 2); their squared norms; which of them are
        finite."""
        states = np.matmul(self.V, self.y[:, :, None])[:, :, 0]
        states *= np.exp(0.5 * log_w)[:, None]
        return (states, np.array([np.vdot(amps, amps).real for amps in states]),
                np.isfinite(states).all(axis=1))


def _jump_batch(cfg: JumpConfig, eta: StateVector, T: float, indices,
                sample_times=None, observables=None) -> EventColumns:
    """Trajectories at the given indices, run as one batch of the event
    engine; row r equals evolve_jump(cfg, eta, T, indices[r], ...) bit for
    bit."""
    eta = initial_state(eta, StateVector, cfg.H.dim)
    obs = _observables(observables, cfg.H.dim)
    kern = _PureRows(cfg, eta.normalized(), len(indices), obs)
    return _run_rows(kern, cfg.meter, cfg.seed, cfg.nu, T, indices, sample_times, obs,
                     cfg.mode == "linear", cfg.hbar)


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
    unitary, at events exactly one reduction is applied.  The reported
    squared norm (1 in normalized mode, exp(log_weight) in linear mode) and
    normalized expectations of the observables are recorded at sample_times
    (default: T).  A batch of one of the event engine, and the only place a
    Trajectory object is built.
    """
    cols = _jump_batch(cfg, eta, T, [index], sample_times, observables)
    return Trajectory(cols.events(0), float(T), StateVector(cols.states[0]),
                      float(cols.log_weight[0]), cols.sample_times, cols.weights[0],
                      dict(zip(cols.names, cols.values[:, 0])))


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
