"""The shared event engine of the jump and mixing trajectories: batch
layout independence, draw order, an independent one-path reference loop,
reproducible numeric failures and byte-identical CLI outputs; and the input
checks of every engine."""

import concurrent.futures
import dataclasses
import filecmp
import json
import math
import os
import time
import tracemalloc
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from qtraj import (
    DensityMatrix,
    DiffusionConfig,
    HermitianOperator,
    JumpConfig,
    ManyBodyConfig,
    MeterModel,
    NumericError,
    PointerState,
    StateVector,
    ValidationError,
    build_gaussian_meter,
    embed_at_slot,
    embed_pair,
    ensemble,
    evolve_coupled_sse,
    evolve_density,
    evolve_diffusive_density,
    evolve_diffusive_sse,
    evolve_jump,
    gaussian_pointer,
    get_preset,
    hermitian_eig,
    jump_to_diffusion_bridge,
    mean_field_evolve,
    mean_field_limit_error,
    mixing_povm_element,
    mixing_reduction,
    nearest_neighbor_coupling,
    noise_covariance,
    permutation_defect,
    propagator,
    run_ensemble,
    run_trajectories,
    sample_poisson_times,
    series_columns,
    sharp_projections,
    trajectory_chunks,
    trajectory_product_check,
    trajectory_stats,
    von_neumann_entropy,
)
from qtraj.cli import main
from qtraj.diffusion import _batch_charge, _diffusion_batch
from qtraj.ensemble import MasterConfig, check_result_size, master_generator, rk4_solve
from qtraj.jumps import (EventColumns, _draw_outcomes, _event_charge, _jump_batch, _PureRows,
                         _schedule)
from qtraj.linalg import as_matrix, permutation_matrix, spectrum_entropy
from qtraj.manybody import _densities, _mixing_batch
from qtraj.meter import trapezoid_weights
from qtraj.rng import stream, stream_keys

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


def d64_setup():
    """Three particles on four lattice sites (D = 64) in a product state."""
    d = 4
    H = HermitianOperator(np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1))
    R = HermitianOperator(np.diag(np.arange(d) - 1.5))
    cfg = ManyBodyConfig(M=3, d=d, H_single=H, meter=build_gaussian_meter(0.5, R), nu=5.0,
                         W=nearest_neighbor_coupling(d, 0.5), seed=5)
    v = np.full(d, 0.5)
    return cfg, StateVector(np.kron(np.kron(v, v), v)).density()


def same_row(cols, r, traj, cfg=None):
    """Whether row r of event columns equals a trajectory object bit for bit;
    a density row's final copy-block row is compared as the density that
    the ManyBodyConfig cfg maps it to."""
    density = hasattr(traj, "rho")
    if density:
        state, final = traj.rho.entries, traj.rho.trace()
        rows = slice(r, r + 1)
        row = _densities(*cfg._mixing_basis[1:3], cols.states[rows], cols.log_weight[rows])[0]
    else:
        state, final, row = traj.state.amps, traj.state.norm2(), cols.states[r]
    same = (cols.events(r) == traj.events and np.array_equal(row, state)
            and cols.final[r] == final and cols.log_weight[r] == traj.log_weight)
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
        n = 100
        cfg, rho0 = d64_setup()
        run_trajectories(cfg, rho0, 0.2, 2)  # builds the config's cached copy basis
        tracemalloc.start()
        try:
            cols = run_trajectories(cfg, rho0, 0.2, n, sample_times=[0.1, 0.2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * cfg.dim ** 2 * 16
        assert cols.states is None and cols.counts.sum() > 0

    def test_event_chunks_hold_the_rows_of_their_byte_budget(self, monkeypatch):
        # A row is charged its batch's bytes per row; a budget of 3.5 rows
        # makes chunks of three, which concatenate to the run of one chunk,
        # and whose series are kept.
        cfg, eta, obs = jump_setup("linear")
        whole = run_trajectories(cfg, eta, 1.0, 10, obs, TIMES)
        row = _event_charge(cfg.nu, 1.0, len(TIMES))[0]
        monkeypatch.setattr(ensemble, "_EVENT_CHUNK_BYTES", 3.5 * row)
        chunks = list(trajectory_chunks(cfg, eta, 1.0, 10, obs, TIMES))
        assert [c.indices.size for c in chunks] == [3, 3, 3, 1]
        assert same_columns(EventColumns.concat(chunks), whole)
        kept = series_columns(iter(chunks), 10)
        assert all(np.array_equal(getattr(kept, name), getattr(whole, name))
                   for name in ("indices", "weights", "values", "sample_times"))
        assert kept.names == whole.names and kept.counts is None and kept.final is None

    def test_series_keep_no_chunk_while_the_next_is_drawn(self):
        # The window of chunks in flight is charged beside the kept series
        # alone, so a consumed chunk must be freed before the next is drawn.
        cfg, eta, obs = jump_setup("linear")
        drawn = []

        def draw(idx):
            assert all(ref() is None for ref in drawn), "a consumed chunk is still held"
            cols = _jump_batch(cfg, eta, 1.0, idx, TIMES, obs)
            drawn.append(weakref.ref(cols))
            return cols

        kept = series_columns(map(draw, (range(0, 3), range(3, 6), range(6, 8))), 8)
        assert np.array_equal(kept.indices, np.arange(8))

    @pytest.mark.parametrize("rows_that_fit, workers", [(4, 1), (8, 2), (12, 3)])
    def test_workers_capped_by_their_chunks_together(self, monkeypatch, rows_that_fit, workers):
        # Three chunks of 4 paths on 3 CPUs: as many workers run as their
        # chunks fit in memory together beside the columns the run keeps,
        # one at the least, with one chunk more, the one the parent
        # consumes; each chunk charged its batch and its kept columns.
        cfg = DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=gaussian_pointer(256, 6.0), dt=0.1)
        per_path, fixed = _batch_charge(cfg, "coupled", len(TIMES))
        assert fixed == 0
        kept = check_result_size(12, len(TIMES), 0)
        monkeypatch.setattr("qtraj.errors.physical_memory",
                            lambda: kept + (rows_that_fit + 4) * (per_path + kept // 12))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(ensemble, "_CHUNK", 4)
        seen = []
        monkeypatch.setattr(ensemble, "_map_chunks", lambda worker, chunks, n: seen.append(n))
        trajectory_chunks(cfg, StateVector(np.array([1.0, 0.0])), 1.0, 12,
                          sample_times=TIMES, n_workers=3, equation="coupled")
        assert seen == [workers]

    def test_the_window_charges_the_lines_of_record_chunks(self, monkeypatch):
        # Two chunks of 4 rows on 2 CPUs, in memory for the kept columns and
        # three chunks at their batch charge and kept series: chunks of
        # series run on two workers, chunks that carry their lines, charged
        # records.text_bytes a row more, in-process.
        cfg, eta, obs = jump_setup("normalized")
        row, fixed = _event_charge(cfg.nu, 1.0, len(TIMES))
        kept = check_result_size(8, len(TIMES), len(obs))
        memory = kept + 3 * math.ceil(4 * (row + kept // 8) + fixed)
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: memory)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = []
        monkeypatch.setattr(ensemble, "_map_chunks", lambda worker, chunks, n: seen.append(n))
        for keep in ("series", "records"):
            trajectory_chunks(cfg, eta, 1.0, 8, obs, TIMES, n_workers=2, keep=keep)
        assert seen == [2, 1]

    def test_thread_pool_capped_at_usable_cpus(self, monkeypatch):
        # A stand-in pool records its size and runs each chunk as it is
        # submitted, so no process starts; the chunks are sized for the 3
        # usable CPUs, not for the 100 000 workers asked for.
        sizes, chunks = [], []

        class SerialPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def submit(self, run, idx):
                chunks.append(len(idx))
                done = Future()
                done.set_result(run(idx))
                return done

            def shutdown(self, cancel_futures):
                pass

        real = getattr(os, "sched_getaffinity", lambda pid: None)
        mask = real(0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(ensemble, "_task", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg, eta, obs = jump_setup("normalized")
        cols = run_trajectories(cfg, eta, 1.0, 40, obs, TIMES, n_workers=100_000)
        assert sizes == [3] and chunks == [14, 14, 12]
        assert same_columns(cols, run_trajectories(cfg, eta, 1.0, 40, obs, TIMES))
        # The worker start, run in this process, left its CPUs alone.
        assert real(0) == mask

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ensemble.usable_cpus() < 2,
                        reason="workers are placed on two CPUs of this process's")
    def test_each_worker_runs_on_its_own_cpu(self):
        # Which worker runs which chunk is the OS's choice, but each keeps
        # one CPU of the parent's throughout, no two share one, and the
        # parent's own CPUs are untouched.
        mask = os.sched_getaffinity(0)
        seen = list(ensemble._map_chunks(
            lambda idx: (idx.start, os.getpid(), tuple(os.sched_getaffinity(0))),
            (range(k, k + 1) for k in range(8)), 2))
        assert [start for start, _, _ in seen] == list(range(8))
        placed = {(pid, cpus) for _, pid, cpus in seen}
        assert len({pid for pid, _ in placed}) == len(placed) <= 2
        assert len({cpus for _, cpus in placed}) == len(placed)
        assert all(len(cpus) == 1 and cpus[0] in sorted(mask)[:2] for _, cpus in placed)
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_a_cpu_that_cannot_be_taken_is_left_to_the_scheduler(self, monkeypatch):
        # The second worker is offered a CPU no machine has: it runs
        # unpinned, on the CPUs it inherited, and every chunk comes back.
        # Chunks of 50 ms outlast the second worker's start, so a start
        # that failed would break the pool before the first worker is done.
        real = os.sched_getaffinity
        mask = real(0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(mask), 1 << 20})
        seen = list(ensemble._map_chunks(
            lambda idx: time.sleep(0.05) or (idx.start, frozenset(real(0))),
            (range(k, k + 1) for k in range(6)), 2))
        assert [start for start, _ in seen] == list(range(6))
        assert {cpus for _, cpus in seen} <= {frozenset({min(mask)}), frozenset(mask)}


def diffusion_setup(M=1, dt=1e-3):
    cfg = DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=gaussian_pointer(256, 6.0), dt=dt, M=M)
    return cfg, StateVector(np.array([0.6, 0.8j]))


def maximally_mixed(D):
    return DensityMatrix(np.eye(D, dtype=complex) / D)


def tabulated_pointer(**changes):
    """The 256-point Gaussian packet as a tabulated PointerState, with the
    given fields replaced."""
    p = gaussian_pointer(256, 6.0)
    return PointerState(**{"grid": p.grid, "values": p.values, "weights": p.weights, **changes})


def pointer_with_nan():
    values = gaussian_pointer(256, 6.0).values.copy()
    values[3] = np.nan
    return tabulated_pointer(values=values)


METER = build_gaussian_meter(0.5, R01)


class NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name}")


# Input checks of every engine and oracle: a call that must raise a
# ValidationError, and a pattern of its message.
REJECTED_INPUTS = [
    pytest.param(lambda: evolve_diffusive_sse(*diffusion_setup(dt=0.3), 1.0),
                 r"T=1\.0 must be a positive multiple of dt=0\.3", id="step-grid-multiple"),
    pytest.param(lambda: rk4_solve(master_generator(MasterConfig.from_diffusion(
                     diffusion_setup()[0])), maximally_mixed(2), 1.0, 0.0),
                 r"T=1\.0 must be a positive multiple of dt=0\.0", id="rk4-dt-zero"),
    pytest.param(lambda: run_ensemble(*jump_setup("normalized")[:2], 1.0, 1),
                 r"n_traj must be >= 2, got 1", id="ensemble-one-trajectory"),
    # Times beyond floats, rejected before anything is computed from them.
    pytest.param(lambda: propagator(HX, math.inf),
                 r"^propagator phases must be finite, got t=inf, hbar=1\.0$",
                 id="propagator-t-inf"),
    pytest.param(lambda: propagator(HX, -math.inf),
                 r"^propagator phases must be finite, got t=-inf", id="propagator-t-minus-inf"),
    pytest.param(lambda: mean_field_evolve(*diffusion_setup(), math.inf),
                 r"^T must be positive and finite, got inf$", id="mean-field-T-inf"),
    pytest.param(lambda: run_ensemble(*jump_setup("normalized")[:2], math.inf, 4),
                 r"^T must be positive and finite, got inf$", id="ensemble-T-inf"),
    pytest.param(lambda: run_ensemble(*jump_setup("normalized")[:2], -math.inf, 4),
                 r"^T must be positive and finite, got -inf$", id="ensemble-T-minus-inf"),
    pytest.param(lambda: evolve_diffusive_sse(*diffusion_setup(), 1e300),
                 r"^T=1e\+300 must be a positive multiple of dt=0\.001, "
                 r"fewer than 2\*\*53 steps$",
                 id="step-count"),
    pytest.param(lambda: run_trajectories(object(), diffusion_setup()[1], 1.0, 2),
                 r"unsupported config type object", id="unsupported-config"),
    pytest.param(lambda: evolve_coupled_sse(*diffusion_setup(M=2), 0.1),
                 r"the state equations are single-particle; use M=1", id="state-two-particles"),
    pytest.param(lambda: evolve_diffusive_sse(diffusion_setup()[0], StateVector(np.ones(2)), 0.1),
                 r"initial state must be normalized", id="state-unnormalized"),
    pytest.param(lambda: evolve_diffusive_density(diffusion_setup()[0], maximally_mixed(4), 0.1),
                 r"initial density must have shape \(2, 2\), got \(4, 4\)",
                 id="density-shape"),
    pytest.param(lambda: evolve_diffusive_density(diffusion_setup()[0], np.eye(2), 0.1),
                 r"initial density must have unit trace", id="density-trace"),
    pytest.param(lambda: _diffusion_batch(*diffusion_setup(), 0.1, "jump-averaged", [0]),
                 r"diffusion ensembles need equation= one of \('linear', "
                 r"'coupled', 'density'\), got 'jump-averaged'", id="diffusion-equation"),
    pytest.param(lambda: _mixing_batch(mixing_setup()[0], maximally_mixed(4), 0.1, "bogus", [0]),
                 r"mode must be one of \('normalized', 'linear'\), got 'bogus'",
                 id="mixing-mode"),
    pytest.param(lambda: _mixing_batch(mixing_setup()[0], maximally_mixed(2), 0.1, "linear", [0]),
                 r"initial density must have shape \(4, 4\), got \(2, 2\)", id="mixing-dim"),
    # The averaged generator's inputs.
    pytest.param(lambda: MasterConfig(mode="bogus", H=HX),
                 r"mode must be one of \('jump-averaged', 'diffusive'\), got 'bogus'",
                 id="master-mode"),
    pytest.param(lambda: MasterConfig(mode="jump-averaged", H=HX),
                 r"jump-averaged mode requires a meter", id="master-no-meter"),
    pytest.param(lambda: MasterConfig(mode="jump-averaged", H=HX, meter=METER, nu=-1.0),
                 r"nu >= 0 required, got -1\.0", id="master-nu"),
    pytest.param(lambda: MasterConfig(mode="jump-averaged", H=HX, meter=METER, nu=math.nan),
                 r"nu >= 0 required, got nan", id="master-nu-nan"),
    pytest.param(lambda: MasterConfig(mode="jump-averaged", H=HX, meter=METER, nu=1.0,
                                      hbar=math.nan),
                 r"hbar must be positive, got nan", id="master-hbar-nan"),
    pytest.param(lambda: MasterConfig(mode="jump-averaged", H=HX, meter=METER, nu=1.0, hbar=0.0),
                 r"hbar must be positive, got 0\.0", id="master-jump-hbar-zero"),
    pytest.param(lambda: MasterConfig(mode="diffusive", H=HX, R=R01, sigma2=1.0, gamma=1.0,
                                      hbar=0.0),
                 r"hbar must be positive, got 0\.0", id="master-diffusive-hbar-zero"),
    pytest.param(lambda: MasterConfig(mode="diffusive", H=HX),
                 r"diffusive mode requires the coupling operator R", id="master-no-R"),
    pytest.param(lambda: MasterConfig(mode="diffusive", H=HX, R=R01, sigma2=0.0),
                 r"sigma2 must be positive, got 0\.0", id="master-sigma2"),
    pytest.param(lambda: MasterConfig(mode="diffusive", H=HX, R=R01, sigma2=1.0, M=2),
                 r"H must act on d\^M = 4, got 2", id="master-H-dim"),
    # Engine configurations.
    pytest.param(lambda: JumpConfig(H=HX, meter=METER, nu=1.0, hbar=0.0),
                 r"hbar must be positive, got 0\.0", id="jump-hbar"),
    pytest.param(lambda: JumpConfig(H=HX, meter=METER, nu=math.nan),
                 r"nu >= 0 required, got nan", id="jump-nu-nan"),
    pytest.param(lambda: JumpConfig(H=HX, meter=METER, nu=math.inf),
                 r"nu must be finite, got inf", id="jump-nu-inf"),
    pytest.param(lambda: JumpConfig(H=HX, meter=METER, nu=1.0, hbar=math.nan),
                 r"hbar must be positive, got nan", id="jump-hbar-nan"),
    pytest.param(lambda: JumpConfig(H=HX, meter=METER, nu=1.0, mode="bogus"),
                 r"mode must be one of \('normalized', 'linear'\), got 'bogus'", id="jump-mode"),
    pytest.param(lambda: JumpConfig(H=H3, meter=METER, nu=1.0),
                 r"H dimension 3 does not match meter dimension 2", id="jump-dim"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=2, H_single=HX, meter=METER, nu=-1.0),
                 r"nu >= 0 required, got -1\.0", id="many-nu"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=2, H_single=HX, meter=METER, nu=1.0, hbar=-1.0),
                 r"hbar must be positive, got -1\.0", id="many-hbar"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=2, H_single=HX, meter=METER, nu=math.nan),
                 r"nu >= 0 required, got nan", id="many-nu-nan"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=2, H_single=HX, meter=METER, nu=1.0,
                                        hbar=math.nan),
                 r"hbar must be positive, got nan", id="many-hbar-nan"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=3, H_single=HX, meter=METER, nu=1.0),
                 r"H_single and meter must act on dimension d=3, got 2 and 2", id="many-d"),
    pytest.param(lambda: ManyBodyConfig(M=2, d=2, H_single=HX, meter=METER, nu=1.0,
                                        W=np.eye(2)),
                 r"pair potential W must have shape \(4, 4\), got \(2, 2\)", id="many-W-shape"),
    pytest.param(lambda: evolve_diffusive_sse(*diffusion_setup(dt=0.0), 1.0),
                 r"T=1\.0 must be a positive multiple of dt=0\.0", id="diffusion-dt"),
    pytest.param(lambda: evolve_diffusive_sse(*diffusion_setup(dt=math.nan), 1.0),
                 r"T=1\.0 must be a positive multiple of dt=nan", id="diffusion-dt-nan"),
    pytest.param(lambda: dataclasses.replace(diffusion_setup()[0], hbar=0.0),
                 r"hbar must be positive, got 0\.0", id="diffusion-hbar"),
    pytest.param(lambda: dataclasses.replace(diffusion_setup()[0], H=H3),
                 r"H and R must share a dimension", id="diffusion-dims"),
    pytest.param(lambda: noise_covariance(gaussian_pointer(256, 6.0), hbar=0.0),
                 r"hbar must be positive, got 0\.0", id="noise-hbar"),
    pytest.param(lambda: noise_covariance(gaussian_pointer(256, 6.0), hbar=math.nan),
                 r"hbar must be positive, got nan", id="noise-hbar-nan"),
    pytest.param(lambda: propagator(HX, 1.0, hbar=math.nan),
                 r"hbar must be positive, got nan", id="propagator-hbar-nan"),
    # The pointer packet and its quadrature.
    pytest.param(lambda: tabulated_pointer(grid=[0.0], values=[1.0], weights=[1.0]),
                 r"pointer grid must be 1-D with at least two points", id="pointer-points"),
    pytest.param(lambda: tabulated_pointer(weights=np.ones(3)),
                 r"grid, values and weights must have equal lengths", id="pointer-lengths"),
    pytest.param(lambda: tabulated_pointer(grid=gaussian_pointer(256, 6.0).grid[::-1]),
                 r"pointer grid must be strictly increasing", id="pointer-order"),
    pytest.param(lambda: tabulated_pointer(weights=-gaussian_pointer(256, 6.0).weights),
                 r"quadrature weights must be positive", id="pointer-weights"),
    pytest.param(pointer_with_nan, r"pointer values contain non-finite entries", id="pointer-nan"),
    pytest.param(lambda: tabulated_pointer(values=2 * gaussian_pointer(256, 6.0).values),
                 r"pointer packet must have unit quadrature norm, got 4\.0", id="pointer-norm"),
    pytest.param(lambda: PointerState(grid=[0.0, 1e26], values=[1e-13, 1e-13],
                                      weights=[5e25, 5e25]),
                 r"^pointer packet has empty sampling support$", id="pointer-empty-support"),
    pytest.param(lambda: trapezoid_weights(np.zeros(1)),
                 r"grid must be a 1-D array with at least two points", id="trapezoid-points"),
    # Event draws and checks.
    pytest.param(lambda: sample_poisson_times(-1.0, 1.0, stream(0, 0)),
                 r"nu >= 0 required, got -1\.0", id="poisson-nu"),
    pytest.param(lambda: sample_poisson_times(1.0, 0.0, stream(0, 0)),
                 r"T must be positive and finite, got 0\.0", id="poisson-T"),
    pytest.param(lambda: sample_poisson_times(math.nan, 1.0, NoDraws()),
                 r"nu >= 0 required, got nan", id="poisson-nu-nan"),
    # A draw would never reach T = inf.
    pytest.param(lambda: sample_poisson_times(5.0, math.inf, NoDraws()),
                 r"T must be positive and finite, got inf", id="poisson-T-inf"),
    pytest.param(lambda: trajectory_product_check(jump_setup("normalized")[0], [(2.0, 0.0)],
                                                  jump_setup("normalized")[1], 1.0),
                 r"event times must lie in \[0, T\)", id="product-check-time"),
    # A coupling strength that is not a number, or not finite.
    pytest.param(lambda: MeterModel(math.nan, R01, gaussian_pointer(256, 6.0)),
                 r"kappa must be finite, got nan", id="meter-kappa-nan"),
    pytest.param(lambda: MeterModel(math.inf, R01, gaussian_pointer(256, 6.0)),
                 r"kappa must be finite, got inf", id="meter-kappa-inf"),
    pytest.param(lambda: sharp_projections(R01, math.nan),
                 r"kappa must be positive, got nan", id="sharp-kappa-nan"),
    pytest.param(lambda: sharp_projections(R01, math.inf),
                 r"kappa must be finite, got inf", id="sharp-kappa-inf"),
    # Closed forms that need a Gaussian pointer, given a tabulated one.
    pytest.param(lambda: MeterModel(0.5, R01, tabulated_pointer()).reduction_closed_form(0.0),
                 r"closed-form reduction requires a Gaussian pointer", id="closed-form-tabulated"),
    pytest.param(lambda: mean_field_limit_error(dataclasses.replace(
                     diffusion_setup()[0], pointer=tabulated_pointer()), 10.0),
                 r"mean-field comparison requires a Gaussian pointer", id="mean-field-tabulated"),
    pytest.param(lambda: get_preset("bogus"), r"unknown preset 'bogus'; choose from \[",
                 id="preset-name"),
    pytest.param(lambda: stream_keys(-1, [0]),
                 r"stream seeds and indices must be non-negative", id="stream-seed"),
    pytest.param(lambda: jump_to_diffusion_bridge(diffusion_setup(M=2)[0], [10.0, 20.0]),
                 r"the bridge is a single-particle comparison; use M=1", id="bridge-M2"),
    # kappa = gamma / sqrt(nu) needs a positive rate.
    pytest.param(lambda: jump_to_diffusion_bridge(diffusion_setup()[0], [0.0, 100.0]),
                 r"bridge jump rates must be positive, got nu=0\.0", id="bridge-nu-zero"),
    pytest.param(lambda: jump_to_diffusion_bridge(diffusion_setup()[0], [-5.0, 100.0]),
                 r"bridge jump rates must be positive, got nu=-5\.0", id="bridge-nu-negative"),
    # A grid too coarse for the packet, however wide: rejected before the
    # amplitude of an unresolved packet divides by zero.
    pytest.param(lambda: gaussian_pointer(1024, 10006.0),
                 r"^pointer grid spacing 19\.6 \(1024 pointer points over half-width 10006\.0\) "
                 r"exceeds 0\.455: too coarse to resolve the packet$", id="pointer-spacing"),
    pytest.param(lambda: build_gaussian_meter(1e6, R01),
                 r"pointer grid spacing 1\.96e\+03 \(1024 pointer points", id="meter-coarse"),
    # A grid whose quadrature norm underflows, or a phase beyond floats.
    pytest.param(lambda: gaussian_pointer(256, 5e-324),
                 r"^pointer grid spacing 0 \(256 pointer points over half-width 5e-324\) "
                 r"underflows the quadrature$", id="pointer-underflow"),
    pytest.param(lambda: gaussian_pointer(256, 6.0, phase_slope=math.inf),
                 r"^phase_slope inf over half-width 6\.0 must give a finite phase$",
                 id="pointer-phase-inf"),
    pytest.param(lambda: gaussian_pointer(256, 6.0, phase_slope=-math.inf),
                 r"^phase_slope -inf over half-width 6\.0 must give a finite phase$",
                 id="pointer-phase-minus-inf"),
    # Noise scales beyond floats.
    pytest.param(lambda: dataclasses.replace(diffusion_setup()[0], gamma=1e200),
                 r"noise scale \(gamma/hbar\)\^2 sigma\^2 must be finite, got inf",
                 id="noise-rate"),
    pytest.param(lambda: dataclasses.replace(diffusion_setup()[0], hbar=1e300),
                 r"noise scale sigma\^2 must be finite, got inf", id="noise-sigma2"),
    pytest.param(lambda: dataclasses.replace(
                     diffusion_setup()[0], pointer=gaussian_pointer(256, 6.0, phase_slope=1e300)),
                 r"noise scale c1 must be finite", id="noise-c1"),
    pytest.param(lambda: MasterConfig(mode="diffusive", H=HX, R=R01, gamma=1e200, sigma2=1.0),
                 r"\(gamma/hbar\)\^2 sigma2 must be finite, got gamma=1e\+200, hbar=1\.0, "
                 r"sigma2=1\.0", id="master-rate"),
    # A row's events count against memory before anything is drawn.
    pytest.param(lambda: run_trajectories(dataclasses.replace(jump_setup("normalized")[0],
                                                              nu=1e300),
                                          jump_setup("normalized")[1], 1.0, 2),
                 r"^n_traj must be at most 0 for 1\.6e\+301-byte result rows, got 2$",
                 id="events-beyond-memory"),
    # Linear-algebra value types and helpers.
    pytest.param(lambda: StateVector(np.eye(2)),
                 r"amps must be 1-dimensional, got shape \(2, 2\)", id="state-2d"),
    pytest.param(lambda: StateVector(np.empty(0)), r"amps must be non-empty", id="state-empty"),
    pytest.param(lambda: as_matrix(np.ones((2, 3))),
                 r"matrix must be square, got shape \(2, 3\)", id="as-matrix-square"),
    # A raw matrix passes the same gate as the value types.
    pytest.param(lambda: hermitian_eig([[math.nan, 0.0], [0.0, 1.0]]),
                 r"^matrix contains non-finite entries$", id="eig-nan"),
    pytest.param(lambda: hermitian_eig([[math.inf, 0.0], [0.0, 1.0]]),
                 r"^matrix contains non-finite entries$", id="eig-inf"),
    pytest.param(lambda: propagator([[0.0, math.nan], [math.nan, 0.0]], 1.0),
                 r"^matrix contains non-finite entries$", id="propagator-H-nan"),
    pytest.param(lambda: sharp_projections([[math.nan, 0.0], [0.0, 1.0]], 1.0),
                 r"^matrix contains non-finite entries$", id="sharp-R-nan"),
    pytest.param(lambda: von_neumann_entropy([[math.nan, 0.0], [0.0, 0.5]]),
                 r"^matrix contains non-finite entries$", id="entropy-nan"),
    pytest.param(lambda: embed_at_slot([[math.nan, 0.0], [0.0, 1.0]], 1, 2),
                 r"^matrix contains non-finite entries$", id="embed-nan"),
    pytest.param(lambda: permutation_defect(np.full((4, 4), math.nan), 2, 2),
                 r"^matrix contains non-finite entries$", id="permutation-defect-nan"),
    pytest.param(lambda: rk4_solve(master_generator(MasterConfig.from_diffusion(
                     diffusion_setup()[0])), [[math.nan, 0.0], [0.0, 0.5]], 1.0, 1e-3),
                 r"^rho0 contains non-finite entries$", id="rk4-rho0-nan"),
    pytest.param(lambda: HermitianOperator(np.ones((2, 3))),
                 r"operator must be square, got shape \(2, 3\)", id="operator-square"),
    pytest.param(lambda: DensityMatrix(np.ones((2, 3))),
                 r"density matrix must be square, got shape \(2, 3\)", id="density-square"),
    pytest.param(lambda: DensityMatrix(-np.eye(2) / 2),
                 r"density matrix trace must be real and >= 0, got \(-1\+0j\)",
                 id="density-negative-trace"),
    pytest.param(lambda: StateVector(np.zeros(2)).normalized(),
                 r"cannot normalize a \(near-\)zero state vector", id="normalize-zero"),
    pytest.param(lambda: embed_pair(np.eye(2), 1, 2, 2, 2),
                 r"pair operator must act on dimension d\^2=4, got 2", id="pair-shape"),
    pytest.param(lambda: embed_pair(np.eye(4), 2, 1, 2, 2),
                 r"need 1 <= k < l <= M, got k=2, l=1, M=2", id="pair-slots"),
    pytest.param(lambda: permutation_matrix((0, 0), 2, 2),
                 r"perm must be a permutation of 0\.\.1, got \(0, 0\)", id="permutation"),
]


@pytest.mark.parametrize("call, message", REJECTED_INPUTS)
def test_invalid_input_rejected(call, message):
    with pytest.raises(ValidationError, match=message) as exc:
        call()
    assert type(exc.value) is ValidationError


def batch_case(engine):
    """(batch, initial, state of the wrong dimension, observables): batch(initial,
    observables) runs three trajectories of one batch function."""
    if engine == "jump":
        cfg, eta, obs = jump_setup("normalized")
        return (lambda init, o: _jump_batch(cfg, init, 1.0, range(3), TIMES, o),
                eta, StateVector(np.array([0.6, 0.8])), obs)
    if engine == "mixing":
        cfg, rho0, obs = mixing_setup()
        return (lambda init, o: _mixing_batch(cfg, init, 1.0, "linear", range(3), TIMES, o),
                rho0, maximally_mixed(2), obs)
    M = 2 if engine == "density" else 1
    cfg, eta = diffusion_setup(M=M, dt=0.01)
    initial = StateVector(np.kron(eta.amps, eta.amps)).density() if M == 2 else eta
    wrong = maximally_mixed(2) if M == 2 else StateVector(np.ones(3) / math.sqrt(3))
    obs = {"R": np.kron(R01.entries, np.eye(2)) if M == 2 else R01.entries}
    return (lambda init, o: _diffusion_batch(cfg, init, 0.1, engine, range(3), [0.05, 0.1], o),
            initial, wrong, obs)


def entries(state):
    return state.amps if isinstance(state, StateVector) else state.entries


BATCH_ENGINES = ["jump", "mixing", "linear", "coupled", "density"]


class TestBatchInputs:
    """Each batch function takes its initial state as a value type or an
    array, and rejects a state or an observable of the wrong dimension
    before anything is drawn."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a stream was keyed")

        for target in ("qtraj.rng.Streams", "qtraj.rng.generators", "qtraj.jumps.Streams",
                       "qtraj.diffusion.generators"):
            monkeypatch.setattr(target, drawn)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_array_initial_state_equals_value_type(self, engine):
        batch, initial, _, obs = batch_case(engine)
        assert same_columns(batch(np.array(entries(initial)), obs), batch(initial, obs))

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_wrong_dimension_state_rejected_before_draws(self, engine, no_draws):
        batch, _, wrong, obs = batch_case(engine)
        for state in (wrong, np.array(entries(wrong))):
            with pytest.raises(ValidationError, match=r"^initial (state|density) must have "
                                                      r"shape \((\d+, )*\d+,?\), got "):
                batch(state, obs)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_other_kind_of_state_rejected_before_draws(self, engine, no_draws):
        batch, initial, _, obs = batch_case(engine)
        other = (initial.density() if isinstance(initial, StateVector)
                 else StateVector(np.ones(initial.dim)))
        with pytest.raises(ValidationError, match=f"^initial state must be a "
                                                  f"{type(initial).__name__} or an array, got "
                                                  f"a {type(other).__name__}$"):
            batch(other, obs)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_wrong_dimension_observable_rejected_before_draws(self, engine, no_draws):
        batch, initial, _, obs = batch_case(engine)
        dim = next(iter(obs.values())).shape[0]
        with pytest.raises(ValidationError, match=f"^observable 'X' must act on dimension "
                                                  f"{dim}, got {dim + 1}$"):
            batch(initial, {**obs, "X": np.eye(dim + 1)})

    @pytest.mark.parametrize("run", [lambda: evolve_jump(*jump_setup("normalized")[:2], 1e300),
                                     lambda: evolve_density(*mixing_setup()[:2], 1e300)],
                             ids=["jump", "mixing"])
    def test_events_beyond_memory_rejected_before_draws(self, run, no_draws, monkeypatch):
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 2 ** 25)
        with pytest.raises(ValidationError, match=r"^batch rows must be at most 0 for "
                                                  r"1\.92e\+303-byte event rows beyond 1024 "
                                                  r"fixed bytes, got 1$"):
            run()

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=str)
    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_non_finite_observable_rejected_before_draws(self, engine, bad, no_draws):
        batch, initial, _, obs = batch_case(engine)
        X = np.eye(next(iter(obs.values())).shape[0])
        X[0, 0] = bad
        with pytest.raises(ValidationError, match="^observable 'X' contains non-finite entries$"):
            batch(initial, {**obs, "X": X})


def test_one_row_has_zero_standard_errors():
    cfg, eta, obs = jump_setup("normalized")
    cols = run_trajectories(cfg, eta, 1.0, 1, obs, TIMES)
    stats = trajectory_stats(cols)
    assert np.array_equal(stats.obs_mean, (cols.weights * cols.values)[:, 0].T)
    assert np.array_equal(stats.weight_mean, cols.weights[0])
    assert not stats.obs_se.any() and not stats.weight_se.any()


def test_non_finite_bridge_distance_names_nu():
    # The CLI's 1024-point packet: its jump generator at nu = 1e300 overflows.
    base = dataclasses.replace(diffusion_setup()[0], pointer=gaussian_pointer(1024, 6.0))
    with pytest.raises(NumericError, match=r"^the bridge distance at nu=1e\+300 is not finite$"):
        jump_to_diffusion_bridge(base, [1.0, 1e300])


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
            assert same_row(batch, i, single, cfg), i

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

    def test_non_finite_final_state_names_seed_index_and_T(self, monkeypatch):
        # No events, and a record checks nothing: only the final check sees
        # the NaN row.
        cfg, eta, _ = jump_setup("linear")
        advance = _PureRows.advance

        def poisoned(kern, phases):
            advance(kern, phases)
            kern.y[1] = np.nan

        monkeypatch.setattr(_PureRows, "advance", poisoned)
        with pytest.raises(NumericError) as err:
            _jump_batch(dataclasses.replace(cfg, nu=0.0), eta, 1.0, range(3, 6))
        assert str(err.value) == (
            "final state has non-finite entries at t=1.0 (seed=41, trajectory index=4); "
            "rerun that index alone to reproduce")

    def test_final_density_check_reads_only_copy_blocks(self, monkeypatch):
        cfg, rho0 = d64_setup()
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for mode in ("normalized", "linear"):
            cols = _mixing_batch(cfg, rho0, 0.2, mode, range(4))
            assert cols.states.shape == (4, math.comb(4 ** 2 + 3 - 1, 3)) and cols.counts.sum() > 0
            states = _densities(*cfg._mixing_basis[1:3], cols.states, cols.log_weight)
            assert states.shape == (4, 64, 64)
        # The copy blocks are 20 x 20 and 4 x 4.
        assert shapes and max(shapes) == 20

    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    def test_failed_final_density_check_exits_3(self, tmp_path, capsys, monkeypatch, mode):
        # A two-atom density (D = 4) of trace one has an eigenvalue of at most 1/4.
        monkeypatch.setattr("qtraj.manybody.DENSITY_EIG_FLOOR", 0.5)
        spec = write_spec(tmp_path / "s.json", experiment="many", mode=mode, n_traj=4, T=0.5)
        assert main(["many", "--spec", spec, "--seed", "7", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: final density has an eigenvalue below DENSITY_EIG_FLOOR or a bad trace "
            "at t=0.5 (seed=7, trajectory index=0); rerun that index alone to reproduce\n")


def poison_row(monkeypatch, row):
    """Make row of every jump batch NaN after each free gap."""
    advance = _PureRows.advance

    def poisoned(kern, phases):
        advance(kern, phases)
        kern.y[row] = np.nan

    monkeypatch.setattr(_PureRows, "advance", poisoned)


def first_event(rate, seed, index):
    return float(sample_poisson_times(rate, 1.0, stream(seed, index))[0])


def degenerate_outcome(monkeypatch):
    cfg, eta, _ = jump_setup("normalized")
    poison_row(monkeypatch, 1)
    return (lambda: _jump_batch(cfg, eta, 1.0, range(3, 6)),
            "all outcome weights vanish; state is degenerate", 41, 4, first_event(6.0, 41, 4))


def annihilation(monkeypatch):
    # Far from the pointer peak, G(lambda) underflows to zero on |1>.
    cfg = JumpConfig(H=HermitianOperator(np.zeros((2, 2))), meter=build_gaussian_meter(40.0, R01),
                     nu=5.0, seed=17, mode="linear")
    eta = StateVector(np.array([0.0, 1.0]))
    return (lambda: _jump_batch(cfg, eta, 1.0, range(3, 9)),
            "reduction annihilated the state (zero likelihood)", 17, 3, first_event(5.0, 17, 3))


def non_finite_final_state(monkeypatch):
    cfg, eta, _ = jump_setup("linear")
    poison_row(monkeypatch, 1)
    return (lambda: _jump_batch(dataclasses.replace(cfg, nu=0.0), eta, 1.0, range(3, 6)),
            "final state has non-finite entries", 41, 4, 1.0)


def mixing_collapse(monkeypatch):
    cfg = ManyBodyConfig(M=2, d=2, H_single=HermitianOperator(np.zeros((2, 2))),
                         meter=build_gaussian_meter(40.0, R01), nu=5.0, seed=17)
    rho0 = StateVector(np.array([0.0, 0.0, 0.0, 1.0])).density()
    return (lambda: _mixing_batch(cfg, rho0, 1.0, "linear", range(3, 9)),
            "density trace collapsed at a mixing event", 17, 3, first_event(10.0, 17, 3))


def mixing_final_check(monkeypatch):
    # A two-atom density of trace one has an eigenvalue of at most 1/4.
    monkeypatch.setattr("qtraj.manybody.DENSITY_EIG_FLOOR", 0.5)
    cfg, rho0, _ = mixing_setup()
    return (lambda: _mixing_batch(cfg, rho0, 0.5, "normalized", range(2, 5)),
            "final density has an eigenvalue below DENSITY_EIG_FLOOR or a bad trace", 42, 2, 0.5)


def diffusive_blow_up(equation, what):
    def case(monkeypatch):
        # A squared norm or trace near one exceeds the limit at the first record.
        monkeypatch.setattr("qtraj.diffusion.BLOWUP_LIMIT", 0.5)
        cfg, eta = diffusion_setup(M=1, dt=1e-3)
        initial = eta.density() if equation == "density" else eta
        return (lambda: _diffusion_batch(dataclasses.replace(cfg, seed=3), initial, 0.02,
                                         equation, [4, 5], [0.009, 0.02]),
                f"{what} exceeded 5e-01", 3, 4, 0.009)
    return case


def positivity(monkeypatch):
    # Path index 5 has a negative eigenvalue at its second record, t = 0.02.
    cfg, eta = diffusion_setup(M=1, dt=1e-3)
    rho0 = eta.density()
    eigvalsh = np.linalg.eigvalsh

    def negative(a):
        eigs = eigvalsh(a)
        eigs[1, 1, 0] = -0.5
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", negative)
    return (lambda: _diffusion_batch(cfg, rho0, 0.02, "density", [4, 5], [0.009, 0.02]),
            "positivity defect beyond -1e-06 of the trace norm", 0, 5, 0.02)


@pytest.mark.parametrize("case, advice", [
    pytest.param(degenerate_outcome, "", id="degenerate-outcome"),
    pytest.param(annihilation, "", id="annihilation"),
    pytest.param(non_finite_final_state, "", id="non-finite-final-state"),
    pytest.param(mixing_collapse, "", id="mixing-collapse"),
    pytest.param(mixing_final_check, "", id="mixing-final-check"),
    pytest.param(diffusive_blow_up("linear", "squared norm"), "reduce dt, or ", id="linear"),
    pytest.param(diffusive_blow_up("coupled", "squared norm"), "reduce dt, or ", id="coupled"),
    pytest.param(diffusive_blow_up("density", "density trace"), "reduce dt, or ",
                 id="density-trace"),
    pytest.param(positivity, "reduce dt, or ", id="positivity"),
])
def test_every_row_failure_names_seed_index_and_time(monkeypatch, case, advice):
    # One message format for every trajectory-level failure of the engines.
    run, what, seed, index, t = case(monkeypatch)
    with pytest.raises(NumericError) as err:
        run()
    assert str(err.value) == (f"{what} at t={t!r} (seed={seed}, trajectory index={index}); "
                              f"{advice}rerun that index alone to reproduce")


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
