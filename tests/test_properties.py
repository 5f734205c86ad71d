"""Property tests of engine invariants, drawn by hypothesis (skipped when it
is not installed)."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_engine import (HX, METER, R01, R3, TIMES, diffusion_setup, jump_setup,  # noqa: E402
                         mixing_setup, same_columns, same_row)
from test_manybody import (block_spectrum_error, hopping_config,  # noqa: E402
                           invariant_density)
from test_master import (MODES, general_map, generator_error, master_case,  # noqa: E402
                         random_hermitian)

from qtraj import (DensityMatrix, DiffusionConfig, HermitianOperator,  # noqa: E402
                   JumpConfig, ManyBodyConfig, SimulationError, StateVector, ValidationError,
                   evolve_coupled_sse, evolve_density, evolve_diffusive_density,
                   evolve_diffusive_sse, evolve_jump, gaussian_pointer, hermitian_eig,
                   mean_field_evolve, mixing_reduction, permutation_defect, propagator,
                   run_ensemble, von_neumann_entropy)
from qtraj.cli import (EQUATIONS, EXPERIMENTS, OVERRIDES_READ, READS,  # noqa: E402
                       _resolved_for_hash, main, spec_from_dict)
from qtraj.diffusion import _diffusion_batch  # noqa: E402
from qtraj.ensemble import MasterConfig, master_generator, rk4_solve  # noqa: E402
from qtraj.jumps import EventColumns, _jump_batch  # noqa: E402
from qtraj.linalg import (embed_at_slot, embed_pair, expm_small,  # noqa: E402
                          hermitian_coordinates,
                          hermitian_from_coordinates, real_superop)
from qtraj.manybody import _BlockRows, _densities, _mixing_batch  # noqa: E402
from qtraj.meter import (DEFAULT_GRID_SIZE, DEFAULT_TOL_POVM, MeterModel,  # noqa: E402
                         coverage_half_width, sharp_projections)
from qtraj.records import spec_hash  # noqa: E402
from qtraj.rng import Streams, generators, stream, stream_keys  # noqa: E402


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    shape=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3),
                           (2, 4), (3, 4)]),
    amplitude=st.sampled_from([-1.0, 0.7, -1j, 0.6 + 0.8j]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_spectrum_equals_full_spectrum(shape, amplitude, seed):
    d, M = shape
    err, _ = block_spectrum_error(d, M, amplitude, np.random.default_rng(seed))
    assert err <= 1e-12


# The S_M copy blocks of the mixing engine, with real and complex hopping.
COPY_BLOCK_CASES = {
    "shape": st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]),
    "amplitude": st.sampled_from([-1.0, 0.7, -1j, 0.6 + 0.8j]),
}


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(**COPY_BLOCK_CASES, phase_slope=st.sampled_from([0.0, 0.7]),
                  seed=st.integers(0, 2 ** 32 - 1))
# A phase-modulated pointer with real H: the event's complex branch.
@hypothesis.example(shape=(2, 3), amplitude=-1.0, phase_slope=0.7, seed=1)
def test_copy_blocks_rebuild_the_state_and_apply_one_event(shape, amplitude, phase_slope, seed):
    d, M = shape
    cfg = hopping_config(d, M, amplitude, phase_slope=phase_slope)
    gen = np.random.default_rng(seed)
    rho = invariant_density(d, M, gen)
    # A row holds one copy of each block: C(d^2 + M - 1, M) entries.
    kern = _BlockRows(cfg, rho, 1, {})
    assert kern.rows.shape == (1, math.comb(d * d + M - 1, M))
    # Projected onto the copies and rebuilt, the state comes back.
    rebuilt = _densities(kern.F, kern.blocks, kern.finish(np.zeros(1))[0], np.zeros(1))[0]
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12
    # One event, rebuilt in R's eigenbasis and projected back, is the
    # full-space mixing reduction.
    kern, every = _BlockRows(cfg, rho, 1, {}), slice(None)
    idx = gen.integers(cfg.meter.support_grid.size, size=1)
    reduced, trace = kern.reduce(kern.rotate_in(every), idx)
    kern.store(every, reduced, np.ones(1))
    ref = mixing_reduction(cfg, rho, cfg.meter.support_grid[idx[0]]).entries
    scale = max(1.0, float(np.max(np.abs(ref))))
    rebuilt = _densities(kern.F, kern.blocks, kern.finish(np.zeros(1))[0], np.zeros(1))[0]
    assert np.max(np.abs(rebuilt - ref)) <= 1e-12 * scale
    assert abs(trace[0] - np.trace(ref).real) <= 1e-12 * scale


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(**COPY_BLOCK_CASES, seed=st.integers(0, 2 ** 32 - 1))
def test_copy_average_equals_the_label_sum(shape, amplitude, seed):
    # On an invariant rho, (1/m) sum_j U_j^dag G_1 rho G_1^dag U_j over a
    # block's copies is the label average (1/M) sum_k G_k rho G_k^dag seen
    # by the first copy, for any single-particle operator g.
    d, M = shape
    cfg = hopping_config(d, M, amplitude)
    gen = np.random.default_rng(seed)
    rho = invariant_density(d, M, gen)
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    slots = [embed_at_slot(g, k, M) for k in range(1, M + 1)]
    label = sum(G @ rho @ G.conj().T for G in slots) / M
    one = slots[0] @ rho @ slots[0].conj().T
    scale = max(1.0, float(np.max(np.abs(label))))
    for b in _BlockRows(cfg, rho, 1, {}).blocks:
        average = sum(U.conj().T @ one @ U for U in b.F) / b.m
        assert np.max(np.abs(average - b.F[0].conj().T @ label @ b.F[0])) <= 1e-12 * scale


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(**COPY_BLOCK_CASES, mode=st.sampled_from(["normalized", "linear"]),
                  start=st.integers(0, 10 ** 6))
def test_rebuilt_states_stay_permutation_invariant_over_a_run(shape, amplitude, mode, start):
    d, M = shape
    cfg = hopping_config(d, M, amplitude, nu=4.0, seed=start)
    rho0 = invariant_density(d, M, np.random.default_rng(start))
    cols = _mixing_batch(cfg, DensityMatrix(rho0), 1.0, mode, range(start, start + 3))
    assert cols.counts.sum() > 0
    for state in _densities(*cfg._mixing_basis[1:3], cols.states, cols.log_weight):
        assert permutation_defect(state, d, M) <= 1e-12 * np.max(np.abs(state))


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    mode=st.sampled_from(MODES),
    d=st.sampled_from([2, 3]),
    M=st.sampled_from([1, 2]),
    angle=st.floats(0.0, 3.0),
    slope=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_master_generator_matches_reference_and_keeps_hermiticity(mode, d, M, angle, slope,
                                                                 seed):
    assert generator_error(mode, d, M, angle, slope, seed) <= 1e-12
    gen = master_generator(master_case(mode, d, M, angle, slope, seed))
    D, S = d ** M, gen.superop()
    out = (S @ random_hermitian(D, np.random.default_rng(seed)).reshape(-1)).reshape(D, D)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * np.max(np.abs(out))
    # The closed-form RK4 norm bounds the spectral norm of the superoperator.
    assert np.linalg.norm(S, 2) <= gen.norm * (1 + 1e-12)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    mode=st.sampled_from(MODES),
    d=st.sampled_from([2, 3]),
    M=st.sampled_from([1, 2]),
    angle=st.floats(0.0, 3.0),
    slope=st.floats(-1.5, 1.5),
    real_h=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_hermitian_stage_equals_the_general_generator(mode, d, M, angle, slope, real_h, seed):
    # A real H at angle 0 stays real in R's eigenbasis: the real-GEMM path.
    angle = 0.0 if real_h else angle
    gen = master_generator(master_case(mode, d, M, angle, slope, seed, real_h))
    assert (gen.H.dtype == np.float64) == real_h
    X = random_hermitian(d ** M, np.random.default_rng(seed + 1))
    got, ref = gen.hermitian_rhs(X), general_map(gen, original_basis=False)(X)
    assert np.array_equal(got, got.conj().T)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(D=st.integers(1, 5), n_kraus=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_hermitian_coordinates_round_trip_and_carry_the_superoperator(D, n_kraus, seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(D, rng)
    x = hermitian_coordinates(A)
    assert x.dtype == np.float64 and x.shape == (D * D,)
    assert np.array_equal(hermitian_from_coordinates(x), A)
    # A stack of coordinates, one matrix per column, decodes to each matrix
    # and to the decode of each column alone.
    stack = [random_hermitian(D, rng) for _ in range(n_kraus + 1)]
    cols = np.stack([hermitian_coordinates(B) for B in stack], axis=1)
    decoded = hermitian_from_coordinates(cols)
    assert decoded.shape == (D, D, len(stack))
    for j, B in enumerate(stack):
        assert np.array_equal(decoded[..., j], B)
        assert np.array_equal(decoded[..., j], hermitian_from_coordinates(cols[:, j]))
    # X -> sum_k c_k K_k X K_k^dag with real c_k preserves Hermiticity; the
    # average with its mirror S[(j, i), (l, k)]^* makes it do so exactly.
    K = rng.standard_normal((n_kraus, D, D)) + 1j * rng.standard_normal((n_kraus, D, D))
    S = sum(c * np.kron(k, k.conj()) for c, k in zip(rng.standard_normal(n_kraus), K))
    swap = np.arange(D * D).reshape(D, D).T.ravel()
    S = 0.5 * (S + S[np.ix_(swap, swap)].conj())
    got = hermitian_from_coordinates(real_superop(S) @ x)
    ref = (S @ A.reshape(-1)).reshape(D, D)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(
    engine=st.sampled_from(["jump", "mixing"]),
    mode=st.sampled_from(["normalized", "linear"]),
    sampled=st.booleans(),
    start=st.integers(0, 10 ** 6),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
)
def test_chunked_rows_equal_one_batch_and_a_batch_of_one(engine, mode, sampled, start, sizes):
    times = TIMES if sampled else None
    if engine == "jump":
        cfg, eta, obs = jump_setup(mode)

        def batch(idx):
            return _jump_batch(cfg, eta, 1.0, idx, times, obs)

        def single(i):
            return evolve_jump(cfg, eta, 1.0, i, times, obs)
    else:
        cfg, rho0, obs = mixing_setup()

        def batch(idx):
            return _mixing_batch(cfg, rho0, 1.0, mode, idx, times, obs)

        def single(i):
            return evolve_density(cfg, rho0, 1.0, mode, i, times, obs)
    bounds = np.concatenate([[start], start + np.cumsum(sizes)]).tolist()
    whole = batch(range(bounds[0], bounds[-1]))
    parts = [batch(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    assert same_columns(EventColumns.concat(parts), whole)
    for r, i in enumerate(range(bounds[0], bounds[-1])):
        assert same_row(whole, r, single(i), cfg), i


# Paths of the state equations over one draw block and a partial second one,
# recorded at the start, inside factor runs and at T.
SSE_T = 0.3
SSE_TIMES = [0.0, 0.013, 0.016, 0.2, SSE_T]
SINGLE_PATH = {"linear": evolve_diffusive_sse, "coupled": evolve_coupled_sse}


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(
    equation=st.sampled_from(["linear", "coupled"]),
    d=st.sampled_from([2, 3, 5]),
    phase_slope=st.sampled_from([0.0, 0.7]),
    seed=st.integers(0, 2 ** 32 - 1),
    start=st.integers(0, 10 ** 6),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
def test_diffusion_rows_equal_one_batch_and_a_batch_of_one(equation, d, phase_slope, seed,
                                                           start, sizes):
    gen = np.random.default_rng(seed)
    H, R = (HermitianOperator(random_hermitian(d, gen)) for _ in range(2))
    cfg = DiffusionConfig(H=H, R=R, gamma=0.8, dt=1e-3, seed=seed,
                          pointer=gaussian_pointer(256, 6.0, phase_slope=phase_slope))
    amps = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    eta = StateVector(amps / np.linalg.norm(amps))
    obs = {"R": R.entries, "H": H.entries}

    def batch(idx):
        return _diffusion_batch(cfg, eta, SSE_T, equation, idx, SSE_TIMES, obs)

    bounds = np.concatenate([[start], start + np.cumsum(sizes)]).tolist()
    whole = batch(range(bounds[0], bounds[-1]))
    parts = [batch(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    assert same_columns(EventColumns.concat(parts), whole)
    for r, i in enumerate(range(bounds[0], bounds[-1])):
        path = SINGLE_PATH[equation](cfg, eta, SSE_T, i, SSE_TIMES)
        assert np.array_equal(path.norm2, whole.weights[r]), i
        for o, X in enumerate(obs.values()):
            value = np.einsum("ni,ij,nj->n", path.states.conj(), X, path.states).real
            assert np.array_equal(value / path.norm2, whole.values[o, r]), i


# Index words at the 32- and 64-bit edges, where the key's word count changes.
EDGE_INDICES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2 ** 160 - 1),
    extra=st.lists(st.integers(0, 2 ** 96), max_size=6),
)
# Seeds of five words, which the pool mixes in after its first four.
@hypothesis.example(seed=2 ** 128, extra=[])
@hypothesis.example(seed=2 ** 160 - 1, extra=[])
def test_batched_stream_keys_and_draws_equal_seed_sequence(seed, extra):
    indices = EDGE_INDICES + extra
    keys = stream_keys(seed, indices)
    streams = Streams(seed, indices)
    gens = generators(seed, indices)
    for r, i in enumerate(indices):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        assert np.array_equal(keys[r], ref), i
        rng, fresh = streams.reset(r), stream(seed, i)
        assert np.array_equal(rng.exponential(0.25, 3), fresh.exponential(0.25, 3)), i
        assert np.array_equal(rng.random(3), fresh.random(3)), i
        assert np.array_equal(gens[r].standard_normal(6),
                              stream(seed, i).standard_normal(6)), i


# Finite JSON numbers, as a spec file holds them.
POSITIVE = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
SPEC_FIELDS = {
    "preset": st.sampled_from(["two-level", "lattice-particle", "two-atoms"]),
    "overrides": st.fixed_dictionaries({}, optional={
        "M": st.integers(1, 4), "kappa": POSITIVE, "nu": POSITIVE, "hbar": POSITIVE,
        "pointer_points": st.integers(16, 4096),
        "interaction": st.sampled_from(["none", "nearest-neighbor"]),
    }),
    "T": POSITIVE,
    "dt": POSITIVE,
    "n_samples": st.integers(1, 1000),
    "mode": st.sampled_from(["normalized", "linear"]),
    "n_traj": st.integers(2, 10 ** 9),
    "seed": st.integers(0, 2 ** 64),
    "threads": st.integers(1, 64),
    "observables": st.lists(st.sampled_from(["R", "H", "projector:0", "projector:1"]),
                            max_size=3),
    "nus": st.lists(POSITIVE, min_size=2, max_size=4),
    "initial_state": st.sampled_from(["uniform", "basis:0", "basis:1"]),
    "kick_lambdas": st.none() | st.lists(st.floats(-5, 5), max_size=3),
    "out": st.text("abc/", min_size=1, max_size=8),
}


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(d=st.integers(2, 5), scale=st.floats(0.1, 2.0), kappa=st.floats(-5.0, 5.0),
                  extra=st.floats(0.0, 4.0), margin=st.floats(0.05, 1.0),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_meters_on_covering_grids_are_complete(d, scale, kappa, extra, margin, seed):
    R = HermitianOperator(scale * random_hermitian(d, np.random.default_rng(seed)))
    r_max = float(np.max(np.abs(np.linalg.eigvalsh(R.entries))))
    wide = gaussian_pointer(DEFAULT_GRID_SIZE, coverage_half_width(kappa, r_max) + extra)
    assert MeterModel(kappa, R, wide).povm_defect <= DEFAULT_TOL_POVM
    # A grid that cuts into the most shifted packet, far inside the coverage
    # half-width, is rejected when the meter is built.
    hypothesis.assume(abs(kappa) * r_max >= 1.0)
    narrow = gaussian_pointer(DEFAULT_GRID_SIZE, abs(kappa) * r_max + margin)
    with pytest.raises(ValidationError, match="half-width should be at least"):
        MeterModel(kappa, R, narrow)


# Model parameters at the edges of the floats, NaN included.
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 5e-324, 1, 1e300])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(M=EDGES, nu=EDGES, hbar=EDGES, kappa=EDGES, dt=EDGES, width=EDGES,
                  slope=EDGES)
def test_model_builds_fail_only_with_simulation_errors(M, nu, hbar, kappa, dt, width, slope):
    with contextlib.suppress(SimulationError):
        gaussian_pointer(256, width, slope)
    with contextlib.suppress(SimulationError):
        sharp_projections(R01, kappa)
    pointer = gaussian_pointer(256, 6.0)
    try:
        meter = MeterModel(kappa, R01, pointer)
    except SimulationError:
        meter = METER
    builds = [
        lambda: JumpConfig(H=HX, meter=meter, nu=nu, hbar=hbar),
        lambda: ManyBodyConfig(M=M, d=2, H_single=HX, meter=meter, nu=nu, hbar=hbar),
        lambda: DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=pointer, dt=1e-3, hbar=hbar, M=M),
        lambda: DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=pointer, dt=dt),
        lambda: MasterConfig(mode="jump-averaged", H=HX, M=M, meter=meter, nu=nu, hbar=hbar),
        lambda: MasterConfig(mode="diffusive", H=HX, M=M, R=R01, gamma=1.0, sigma2=1.0, nu=nu,
                             hbar=hbar),
    ]
    for build in builds:
        with contextlib.suppress(SimulationError):
            build()


@st.composite
def specs(draw):
    """A JSON specification object that RunSpec accepts, with a random
    subset of its optional fields."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    raw = draw(st.fixed_dictionaries({"experiment": st.just(experiment)},
                                     optional=SPEC_FIELDS))
    if experiment in EQUATIONS and draw(st.booleans()):
        raw["equation"] = draw(st.sampled_from(EQUATIONS[experiment]))
    return raw


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(raw=specs(), n_traj=st.sampled_from([0, 1]))
def test_random_valid_specs_round_trip(raw, n_traj):
    spec = spec_from_dict(raw)
    # The resolved spec, written out as JSON, parses back to itself.
    again = spec_from_dict(json.loads(json.dumps(asdict(spec))))
    assert again == spec
    assert spec_hash(_resolved_for_hash(again)) == spec_hash(_resolved_for_hash(spec))
    with pytest.raises(ValidationError, match=f"^n_traj must be >= 2, got {n_traj}$"):
        spec_from_dict({**raw, "n_traj": n_traj})


# Runnable specs for the exit-code contract: each field an experiment reads
# takes a usual value or, one time in eight, an edge value, valid or not.
# Sizes stay at desk scale (d <= 3, T <= 0.2 at dt >= 1e-3, a few
# trajectories), except n_traj and n_samples far beyond FUZZ_MEMORY, which
# the size checks must reject before anything of that size is allocated.
FUZZ_MEMORY = 2 ** 25
FUZZ_PEAK = 2 * FUZZ_MEMORY
MEMORY_USERS = ("errors",)  # the modules that call physical_memory
FUZZ_FIELDS = {  # name: (usual values, edge values)
    "T": ([0.02, 0.2], [1e-3, 0.0, math.inf]),
    "dt": ([1e-3], [0.01, 0.3, -1e-3]),
    "n_samples": ([1, 4], [10 ** 9]),
    "n_traj": ([2, 3], [10 ** 12]),
    "mode": (["normalized", "linear"], []),
    "initial_state": (["uniform", "basis:1"], ["basis:3", [1.0, [0.0, 1.0]], [0.0, 0.0]]),
    "observables": ([["R"], ["H", "projector:1"]], [["projector:3"]]),
    "kick_lambdas": ([None, [0.0, 3.0]], [[-1e3]]),
    "nus": ([[10.0, 100.0]], [[1.0], [100.0, 10.0], [0.0, 10.0], [10.0, 1e300]]),
}
FUZZ_OVERRIDES = {
    "d": ([2, 3], [1]),
    "M": ([1, 2], [4, 0, 5]),
    "kappa": ([0.3, 1.0], [0.0, -1.0, 40.0, 1e6]),
    "nu": ([1.0, 5.0], [0.0, 30.0, -1.0, 1e9]),
    "gamma": ([1.0, 0.5], [0.0, 10.0, 1e200]),
    "hbar": ([1.0, 0.8], [0.05, 0.0, 1e300]),
    "pointer_points": ([256], [16, 8]),
    "pointer_phase_slope": ([0.0, 0.7], [1e300]),
    "interaction": (["nearest-neighbor", "none"], []),
    "interaction_strength": ([0.5], [-2.0]),
}


@st.composite
def run_specs(draw):
    """A specification of any experiment that sets some of the fields and
    overrides the experiment reads, from FUZZ_FIELDS and FUZZ_OVERRIDES."""
    def pick(values):
        usual, edges = values
        return draw(st.sampled_from(edges if edges and draw(st.integers(0, 7)) == 0 else usual))

    experiment = draw(st.sampled_from(EXPERIMENTS))
    # One worker: the run stays in-process, where its peak is traced.
    raw = {"experiment": experiment, "seed": draw(st.sampled_from([0, 1, 2 ** 64 - 1])),
           "threads": 1}
    raw["preset"] = draw(st.sampled_from(["two-level", "lattice-particle", "two-atoms"]))
    if experiment in EQUATIONS:
        raw["equation"] = draw(st.sampled_from(EQUATIONS[experiment]))
    for name in sorted(READS[experiment] & set(FUZZ_FIELDS)):
        # T and the counts are always set: the defaults run for seconds.
        if name in ("T", "n_traj", "n_samples") or draw(st.booleans()):
            raw[name] = pick(FUZZ_FIELDS[name])
    key = (experiment, raw["equation"]) if experiment in EQUATIONS else experiment
    raw["overrides"] = {}
    for name in sorted(OVERRIDES_READ[key] - {"d"}):
        if draw(st.booleans()):
            raw["overrides"][name] = pick(FUZZ_OVERRIDES[name])
    if raw["preset"] == "lattice-particle":  # its own d = 8 is too large to run here
        raw["overrides"]["d"] = pick(FUZZ_OVERRIDES["d"])
    return raw


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(raw=run_specs())
def test_every_run_exits_with_its_code(raw):
    # A run ends in 0 or in the exit code of its SimulationError, with a
    # one-line message and no traceback, and allocates nothing beyond the
    # memory the size checks are told the machine has.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for module in MEMORY_USERS:
            patch.setattr(f"qtraj.{module}.physical_memory", lambda: FUZZ_MEMORY)
        path = Path(tmp, "spec.json")
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                code = main([raw["experiment"], "--spec", str(path), "--out", tmp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (0, 2, 3, 4)
    message = err.getvalue()
    assert (message == "") == (code == 0)
    assert code == 0 or message.startswith("error: ") and message.count("\n") == 1, message
    assert peak < FUZZ_PEAK


# Every public entry point that takes a matrix, a time, a rate, a count or
# an index, with the valid values of those arguments; configs are not drawn.
# An integer argument (an int here) takes its edge values from INT_EDGES.
JUMP_CFG, ETA3, _ = jump_setup("normalized")
MIX_CFG, RHO4, _ = mixing_setup()
DIFF_CFG, ETA2 = diffusion_setup()
MIXED2 = np.eye(2) / 2
INT_VALUES = [0, -1, 5, 40, 2 ** 64, 1e300, math.inf, math.nan, 2.5]
INT_EDGES = st.sampled_from(INT_VALUES)
EDGE_CALLS = {
    "propagator": (propagator, {"H": HX.entries, "t": 0.1, "hbar": 1.0}),
    "hermitian_eig": (hermitian_eig, {"A": HX.entries}),
    "sharp_projections": (sharp_projections, {"R": R01.entries, "kappa": 1.0}),
    "von_neumann_entropy": (von_neumann_entropy, {"rho": MIXED2}),
    "embed_at_slot": (lambda A, M: embed_at_slot(A, 1, M), {"A": HX.entries, "M": 2}),
    "embed_pair": (lambda W, M: embed_pair(W, 1, 2, M, 2),
                   {"W": np.kron(HX.entries, HX.entries), "M": 2}),
    "permutation_defect": (lambda rho, M: permutation_defect(rho, 2, M),
                           {"rho": RHO4.entries, "M": 2}),
    "gaussian_pointer": (gaussian_pointer, {"n_points": 256}),
    "expm_small": (expm_small, {"A": HX.entries}),
    "mean_field_evolve": (lambda eta, T: mean_field_evolve(DIFF_CFG, eta, T),
                          {"eta": ETA2.amps, "T": 0.1}),
    "run_ensemble": (lambda eta, T, X, n_traj: run_ensemble(JUMP_CFG, eta, T, n_traj, {"X": X}),
                     {"eta": ETA3.amps, "T": 0.1, "X": R3.entries, "n_traj": 2}),
    "rk4_solve": (lambda rho0, T, dt: rk4_solve(
                      master_generator(MasterConfig.from_diffusion(DIFF_CFG)), rho0, T, dt),
                  {"rho0": MIXED2, "T": 0.1, "dt": 1e-2}),
    "evolve_jump": (lambda eta, T, X, index: evolve_jump(JUMP_CFG, eta, T, index,
                                                         observables={"X": X}),
                    {"eta": ETA3.amps, "T": 0.1, "X": R3.entries, "index": 0}),
    "evolve_density": (lambda rho0, T, index: evolve_density(MIX_CFG, rho0, T, index=index),
                       {"rho0": RHO4.entries, "T": 0.1, "index": 0}),
    "evolve_diffusive_sse": (lambda eta, T: evolve_diffusive_sse(DIFF_CFG, eta, T),
                             {"eta": ETA2.amps, "T": 0.01}),
    "evolve_coupled_sse": (lambda eta, T, index: evolve_coupled_sse(DIFF_CFG, eta, T, index),
                           {"eta": ETA2.amps, "T": 0.01, "index": 0}),
    "evolve_diffusive_density": (lambda rho0, T: evolve_diffusive_density(DIFF_CFG, rho0, T),
                                 {"rho0": MIXED2, "T": 0.01}),
}


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(name=st.sampled_from(sorted(EDGE_CALLS)), data=st.data())
def test_entry_points_fail_only_with_simulation_errors(name, data):
    # One argument at an edge of the floats (of the integers, for a count or
    # an index), or one entry of a matrix or state there: the call returns
    # or raises a SimulationError, and allocates nothing beyond the memory
    # the size checks are told of.
    call, args = EDGE_CALLS[name]
    key = data.draw(st.sampled_from(sorted(args)))
    value = data.draw(INT_EDGES if isinstance(args[key], int) else EDGES)
    if isinstance(args[key], np.ndarray):
        arr = np.array(args[key], dtype=complex)
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = value
        value = arr
    with pytest.MonkeyPatch.context() as patch:
        for module in MEMORY_USERS:
            patch.setattr(f"qtraj.{module}.physical_memory", lambda: FUZZ_MEMORY)
        tracemalloc.start()
        try:
            with contextlib.suppress(SimulationError):
                call(**{**args, key: value})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < FUZZ_PEAK


INT_ARGS = [(name, key) for name, (_, args) in sorted(EDGE_CALLS.items())
            for key, value in sorted(args.items()) if isinstance(value, int)]


def test_integer_arguments_fail_only_with_simulation_errors():
    # Each count, index and particle count at each integer edge, exhaustively:
    # a float, NaN, inf, a value beyond the intp columns or the particle cap,
    # and a negative one return or raise a SimulationError.
    other = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("qtraj.errors.physical_memory", lambda: FUZZ_MEMORY)
        for name, key in INT_ARGS:
            call, args = EDGE_CALLS[name]
            for value in INT_VALUES:
                try:
                    call(**{**args, key: value})
                except SimulationError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected and reported below
                    other.append(f"{name}({key}={value!r}): {type(exc).__name__}: {exc}")
    assert len(INT_ARGS) == 8 and other == []
