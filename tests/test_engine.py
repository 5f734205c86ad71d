"""The shared event engine of the jump and mixing trajectories: batch
layout independence, draw order, an independent one-path reference loop,
reproducible numeric failures and byte-identical CLI outputs."""

import dataclasses
import filecmp
import json
import math
import tracemalloc

import numpy as np
import pytest

from qtraj import (
    DiffusionConfig,
    HermitianOperator,
    JumpConfig,
    ManyBodyConfig,
    NumericError,
    StateVector,
    ValidationError,
    build_gaussian_meter,
    evolve_density,
    evolve_diffusive_sse,
    evolve_jump,
    gaussian_pointer,
    mixing_povm_element,
    mixing_reduction,
    nearest_neighbor_coupling,
    run_trajectories,
    sample_poisson_times,
)
from qtraj.cli import main
from qtraj.ensemble import MasterConfig, master_generator, rk4_solve
from qtraj.jumps import _draw_outcomes, _jump_batch, _schedule
from qtraj.linalg import spectrum_entropy
from qtraj.manybody import _mixing_batch
from qtraj.rng import stream

R3 = HermitianOperator(np.diag([-1.0, 0.0, 1.0]).astype(complex))
H3 = HermitianOperator(
    np.array([[0.3, 1.0, 0.0], [1.0, 0.0, 0.5j], [0.0, -0.5j, -0.2]], dtype=complex)
)
HX = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
R01 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
TIMES = np.linspace(0.1, 1.0, 10)


def jump_setup(mode):
    cfg = JumpConfig(H=H3, meter=build_gaussian_meter(0.6, R3), nu=6.0, seed=41, mode=mode)
    eta = StateVector(np.array([0.6, 0.48j, 0.64]))
    obs = {"R": R3.entries, "H": H3.entries}
    return cfg, eta, obs


def mixing_setup():
    cfg = ManyBodyConfig(M=2, d=2, H_single=HX, meter=build_gaussian_meter(0.5, R01), nu=3.0,
                         W=nearest_neighbor_coupling(2, 0.4), seed=42)
    rho0 = StateVector(np.kron([0.8, 0.6j], [0.8, 0.6j])).density()
    obs = {"R": np.kron(R01.entries, np.eye(2)) / 2 + np.kron(np.eye(2), R01.entries) / 2}
    return cfg, rho0, obs


def same_row(cols, r, traj):
    """Whether row r of event columns equals a trajectory object bit for bit."""
    density = hasattr(traj, "rho")
    state, final = ((traj.rho.entries, traj.rho.trace()) if density
                    else (traj.state.amps, traj.state.norm2()))
    same = (cols.events(r) == traj.events and np.array_equal(cols.states[r], state)
            and cols.final[r] == final and cols.log_weight[r] == traj.log_weight)
    if traj.sample_times is None:
        return same and cols.sample_times is None and traj.observable_series == {}
    pairs = ([(cols.weights, traj.trace_series), (cols.entropy, traj.entropy_series),
              (cols.min_eig, traj.min_eig_series)] if density
             else [(cols.weights, traj.norm2_series)])
    pairs += [(cols.values[o], traj.observable_series[name]) for o, name in enumerate(cols.names)]
    return (same and np.array_equal(cols.sample_times, traj.sample_times)
            and list(traj.observable_series) == list(cols.names)
            and all(np.array_equal(col[r], series) for col, series in pairs))


def same_columns(a, b):
    """Whether two event column sets are equal field by field, bit for bit."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


class TestRunTrajectories:
    @pytest.mark.parametrize("engine", ["jump", "mixing"])
    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_no_trajectories_rejected(self, engine, n_traj):
        cfg, initial, _ = jump_setup("normalized") if engine == "jump" else mixing_setup()
        with pytest.raises(ValidationError, match=f"n_traj must be >= 1, got {n_traj}"):
            run_trajectories(cfg, initial, 1.0, n_traj)

    @pytest.mark.parametrize("engine", ["jump", "mixing", "linear", "coupled", "density"])
    def test_results_hold_no_states(self, engine):
        equation = None
        if engine == "jump":
            cfg, initial, obs = jump_setup("normalized")
        elif engine == "mixing":
            cfg, initial, obs = mixing_setup()
        else:
            M, equation, eta = 1 + (engine == "density"), engine, np.array([0.6, 0.8j])
            cfg = DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=gaussian_pointer(256, 6.0),
                                  dt=0.01, M=M)
            initial = StateVector(np.kron(eta, eta)).density() if M == 2 else StateVector(eta)
            obs = {}
        cols = run_trajectories(cfg, initial, 0.1, 30, obs, [0.05, 0.1], 2, equation)
        assert cols.weights.shape == (30, 2) and cols.states is None

    def test_mixing_run_holds_no_final_densities(self):
        # D = 64: the final densities of 100 trajectories alone take 6.5 MB.
        d, M, n = 4, 3, 100
        H = HermitianOperator(np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1))
        R = HermitianOperator(np.diag(np.arange(d) - 1.5))
        cfg = ManyBodyConfig(M=M, d=d, H_single=H, meter=build_gaussian_meter(0.5, R), nu=5.0,
                             W=nearest_neighbor_coupling(d, 0.5), seed=5)
        v = np.full(d, 0.5)
        rho0 = StateVector(np.kron(np.kron(v, v), v)).density()
        run_trajectories(cfg, rho0, 0.2, 2)  # builds the config's cached copy basis
        tracemalloc.start()
        try:
            cols = run_trajectories(cfg, rho0, 0.2, n, sample_times=[0.1, 0.2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * cfg.dim ** 2 * 16
        assert cols.states is None and cols.counts.sum() > 0


class TestBatchLayout:
    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    def test_jump_rows_equal_single_trajectories(self, mode):
        cfg, eta, obs = jump_setup(mode)
        batch = _jump_batch(cfg, eta, 1.0, range(600), TIMES, obs)
        assert batch.counts.sum() > 0
        for i in range(0, 600, 13):
            assert same_row(batch, i, evolve_jump(cfg, eta, 1.0, i, TIMES, obs)), i

    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    def test_mixing_rows_equal_single_trajectories(self, mode):
        cfg, rho0, obs = mixing_setup()
        batch = _mixing_batch(cfg, rho0, 1.0, mode, range(600), TIMES, obs)
        for i in range(0, 600, 29):
            single = evolve_density(cfg, rho0, 1.0, mode, i, TIMES, obs)
            assert same_row(batch, i, single), i

    def test_event_times_follow_the_row_stream(self):
        cfg, eta, _ = jump_setup("normalized")
        batch = _jump_batch(cfg, eta, 1.0, range(50, 80))
        for r, i in enumerate(range(50, 80)):
            times = sample_poisson_times(cfg.nu, 1.0, stream(cfg.seed, i))
            assert [t for t, _ in batch.events(r)] == times.tolist()

    def test_mixing_event_times_use_the_merged_intensity(self):
        cfg, rho0, _ = mixing_setup()
        batch = _mixing_batch(cfg, rho0, 1.0, "linear", range(20))
        for i in range(20):
            times = sample_poisson_times(cfg.total_intensity, 1.0, stream(cfg.seed, i))
            assert [t for t, _ in batch.events(i)] == times.tolist()


class TestSchedule:
    """The batched draws of _schedule against one fresh stream per row."""

    @pytest.mark.parametrize("rate, T, indices", [
        pytest.param(0.0, 1.0, range(4), id="nu-zero"),
        # 400 events per row on average: every row outruns the first block.
        pytest.param(400.0, 1.0, range(7, 12), id="outrun-first-block"),
        pytest.param(25.0, 0.1, [*range(60), 2 ** 32, 2 ** 64 - 1], id="zero-and-many"),
    ])
    def test_draws_equal_the_row_streams(self, rate, T, indices):
        samples = np.linspace(0.0, T, 5)
        sch = _schedule(9, rate, T, indices, samples, 1.0)
        times, uniforms = [], []
        for i in indices:
            rng = stream(9, i)
            times.append(sample_poisson_times(rate, T, rng))
            uniforms.append(rng.random(times[-1].size))
        counts = [t.size for t in times]
        assert sch.counts.tolist() == counts
        assert np.array_equal(sch.times, np.concatenate([np.empty(0), *times]))
        # Uniforms in row order, from the step order of the flat event arrays.
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        in_rows = np.empty(offsets[-1])
        in_rows[offsets[sch.event_rows] + sch.event_slots] = sch.event_uniforms
        assert np.array_equal(in_rows, np.concatenate([np.empty(0), *uniforms]))
        for r, t in enumerate(times):
            line = np.sort(np.concatenate([samples, t, [T]]))
            assert np.array_equal(sch.t[r, :line.size], line)
            assert (sch.t[r, line.size:] == T).all()
        if rate == 25.0:
            assert min(counts) == 0 and max(counts) >= 6


def record_run(path, T, times):
    """Record at times up to T on one of the event engines or one of the
    fixed-step integrators."""
    if path == "jump":
        cfg, eta, _ = jump_setup("normalized")
        return evolve_jump(cfg, eta, T, 0, times)
    if path == "mixing":
        cfg, rho0, _ = mixing_setup()
        return evolve_density(cfg, rho0, T, "normalized", 0, times)
    if path == "sse":
        cfg = DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=gaussian_pointer(256, 6.0), dt=0.1)
        return evolve_diffusive_sse(cfg, StateVector(np.array([0.6, 0.8])), T, record_times=times)
    cfg, eta, _ = jump_setup("normalized")
    gen = master_generator(MasterConfig.from_jump(cfg))
    return rk4_solve(gen, eta.density(), T, 0.005, record_times=times)


class TestRecordTimes:
    """Every record time is validated, wherever it stands in the list."""

    @pytest.mark.parametrize("path", ["jump", "mixing", "sse", "master"])
    @pytest.mark.parametrize("T, times, message", [
        pytest.param(1.0, [0.1, 5.0, 0.2], r"record times must be finite and lie in \[0, T=1.0\]",
                     id="beyond-T"),
        pytest.param(1.0, [0.5, -1.0, 0.7], r"record times must be finite and lie in \[0, T=1.0\]",
                     id="negative"),
        pytest.param(1.0, [0.5, math.nan, 0.7],
                     r"record times must be finite and lie in \[0, T=1.0\]", id="nan"),
        pytest.param(math.inf, [0.5], "T must be positive and finite, got inf", id="infinite-T"),
    ])
    def test_invalid_record_times_rejected(self, path, T, times, message):
        with pytest.raises(ValidationError, match=message):
            record_run(path, T, times)

    @pytest.mark.parametrize("path", ["jump", "mixing", "sse", "master"])
    def test_unordered_record_times_accepted(self, path):
        ordered = record_run(path, 1.0, [0.2, 0.5, 1.0])
        shuffled = record_run(path, 1.0, [0.5, 1.0, 0.2])
        series = {"jump": lambda r: r.norm2_series, "mixing": lambda r: r.trace_series,
                  "sse": lambda r: r.norm2, "master": lambda r: r[1]}[path]
        assert np.array_equal(series(shuffled), series(ordered)[[1, 2, 0]])


def draw_index(weights, rng):
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), cdf.size - 1)


def reference_jump(cfg, eta, T, index):
    """One path, event by event, from free_step and meter.reduction."""
    meter = cfg.meter
    rng = stream(cfg.seed, index)
    amps, t, log_w, events = eta.amps.copy(), 0.0, 0.0, []
    for t_ev in sample_poisson_times(cfg.nu, T, rng):
        amps = cfg.free_step(amps, t_ev - t)
        t = t_ev
        if cfg.mode == "linear":
            idx = draw_index(meter.support_mu0, rng)
        else:
            pops = np.abs(meter.eigenvectors.conj().T @ amps) ** 2
            idx = draw_index(meter.outcome_weight_matrix @ pops, rng)
        lam = float(meter.support_grid[idx])
        amps = meter.reduction(lam) @ amps
        n2 = float(np.vdot(amps, amps).real)
        amps, log_w = amps / math.sqrt(n2), log_w + math.log(n2)
        events.append((float(t_ev), lam))
    amps = cfg.free_step(amps, T - t)
    return events, amps * math.exp(0.5 * log_w) if cfg.mode == "linear" else amps


def reference_density(cfg, rho0, T, index, povm, times=()):
    """One path from free_step, mixing_povm_element and mixing_reduction:
    its events, its final density and its densities at the given times."""
    meter = cfg.meter
    rng = stream(cfg.seed, index)
    rho, t, events, sampled = rho0.entries.copy(), 0.0, [], []
    pending = list(times)
    for t_ev in sample_poisson_times(cfg.total_intensity, T, rng):
        # A sample at an event's time precedes the event, as in the engine.
        while pending and pending[0] <= t_ev:
            sampled.append(cfg.free_step(rho, pending.pop(0) - t))
        rho = cfg.free_step(rho, t_ev - t)
        t = t_ev
        law = np.einsum("ixy,yx->i", povm, rho).real * meter.support_mu0
        lam = float(meter.support_grid[draw_index(law, rng)])
        rho = mixing_reduction(cfg, rho, lam).entries
        rho = rho / np.trace(rho).real
        events.append((float(t_ev), lam))
    sampled += [cfg.free_step(rho, ts - t) for ts in pending]
    return events, cfg.free_step(rho, T - t), sampled


class TestOutcomeSampler:
    def test_matches_plain_inverse_cdf(self):
        meter = build_gaussian_meter(0.6, R3)
        rng = np.random.default_rng(5)
        pops = rng.random((400, 3))
        u = np.concatenate([[0.0, 1.0], rng.random(398)])
        idx, total = _draw_outcomes(meter, pops, u)
        last = meter.support_mu0.size - 1
        for p, ui, i, tot in zip(pops, u, idx, total):
            cdf = np.cumsum(meter.outcome_weight_matrix @ p)
            assert tot == pytest.approx(cdf[-1], rel=1e-12)
            assert i == min(int(np.searchsorted(cdf, ui * cdf[-1], side="right")), last)
        assert idx[1] == last


class TestReferenceLoop:
    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    def test_jump_engine_matches_reference(self, mode):
        cfg, eta, _ = jump_setup(mode)
        for i in range(40):
            traj = evolve_jump(cfg, eta, 1.0, index=i)
            events, amps = reference_jump(cfg, eta, 1.0, i)
            assert [t for t, _ in traj.events] == [t for t, _ in events]
            assert np.max(np.abs(np.array(traj.events) - np.array(events).reshape(-1, 2)),
                          initial=0.0) <= 1e-12
            assert np.max(np.abs(traj.state.amps - amps)) <= 1e-12

    def test_mixing_engine_matches_reference(self):
        cfg, rho0, _ = mixing_setup()
        povm = np.array([mixing_povm_element(cfg, lam) for lam in cfg.meter.support_grid])
        for i in range(12):
            traj = evolve_density(cfg, rho0, 1.0, index=i, sample_times=TIMES)
            events, rho, sampled = reference_density(cfg, rho0, 1.0, i, povm, TIMES)
            assert traj.events == tuple(events)
            assert np.max(np.abs(traj.rho.entries - rho)) <= 1e-12
            # The engine reads spectra from the S_M blocks, the reference in full.
            eigs = np.linalg.eigvalsh(np.array(sampled))
            assert np.max(np.abs(traj.min_eig_series - eigs[:, 0])) <= 1e-12
            assert np.max(np.abs(traj.entropy_series - spectrum_entropy(eigs))) <= 1e-12


class TestReproducibleFailure:
    def test_annihilated_state_names_seed_index_and_time(self):
        # Far from the pointer peak, G(lambda) underflows to zero on |1>.
        meter = build_gaussian_meter(40.0, R01)
        cfg = JumpConfig(H=HermitianOperator(np.zeros((2, 2))), meter=meter, nu=5.0,
                         seed=17, mode="linear")
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(NumericError) as err:
            _jump_batch(cfg, eta, 1.0, range(3, 9))
        msg = str(err.value)
        assert "annihilated" in msg and "seed=17" in msg and "trajectory index=3" in msg
        t_first = sample_poisson_times(cfg.nu, 1.0, stream(17, 3))[0]
        assert f"t={float(t_first)!r}" in msg
        with pytest.raises(NumericError, match="trajectory index=3"):
            evolve_jump(cfg, eta, 1.0, index=3)


def write_spec(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names)


class TestCliLayouts:
    @pytest.mark.parametrize("experiment,fields", [
        ("jump", {"n_traj": 1100, "seed": 9}),
        ("many", {"n_traj": 600, "seed": 9, "T": 0.5, "n_samples": 4}),
        ("many", {"preset": "lattice-particle", "overrides": {"d": 4, "M": 3},
                  "n_traj": 50, "seed": 9, "T": 0.2, "n_samples": 3}),
    ])
    def test_bytes_independent_of_threads_and_reruns(self, tmp_path, experiment, fields):
        spec = write_spec(tmp_path / "spec.json", experiment=experiment, **fields)
        outs = []
        # 1100 jump rows run in three chunks of at most 512 rows at 1 to 3
        # workers and in four at 4.  Mixing chunks hold at most 512 rows of
        # d = 2, M = 2 and at most 20 of d = 4, M = 3 (D = 64): 600 rows run
        # in two chunks at 1 and 2 workers, three at 3 and four at 4; 50 rows
        # in chunks of 20, 20 and 10 at 1 and 2 workers, of 17, 17 and 16 at
        # 3 and of 13, 13, 13 and 11 at 4.
        for name, threads in (("t1", "1"), ("t2", "2"), ("t3", "3"), ("t4", "4"),
                              ("again", "1")):
            out = tmp_path / name
            assert main([experiment, "--spec", spec, "--threads", threads, "--out", str(out)]) == 0
            outs.append(out)
        assert all(same_files(outs[0], out) for out in outs[1:])
