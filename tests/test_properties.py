"""Property tests of engine invariants, drawn by hypothesis (skipped when it
is not installed)."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_engine import TIMES, jump_setup, mixing_setup, same_columns, same_row  # noqa: E402
from test_manybody import (block_spectrum_error, hopping_config,  # noqa: E402
                           invariant_density)
from test_master import MODES, generator_error, master_case, random_hermitian  # noqa: E402

from qtraj import (DensityMatrix, ValidationError, evolve_density, evolve_jump,  # noqa: E402
                   mixing_reduction, permutation_defect)
from qtraj.cli import EQUATIONS, EXPERIMENTS, _resolved_for_hash, spec_from_dict  # noqa: E402
from qtraj.ensemble import master_generator, superop_matrix  # noqa: E402
from qtraj.jumps import EventColumns, _jump_batch  # noqa: E402
from qtraj.manybody import _BlockRows, _mixing_batch  # noqa: E402
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
@hypothesis.given(**COPY_BLOCK_CASES, seed=st.integers(0, 2 ** 32 - 1))
def test_copy_blocks_rebuild_the_state_and_apply_one_event(shape, amplitude, seed):
    d, M = shape
    cfg = hopping_config(d, M, amplitude)
    gen = np.random.default_rng(seed)
    rho = invariant_density(d, M, gen)
    # A row holds one copy of each block: C(d^2 + M - 1, M) entries.
    assert _BlockRows(cfg, rho, 1, {}).rows.shape == (1, math.comb(d * d + M - 1, M))
    # Projected onto the copies and rebuilt, the state comes back.
    assert np.max(np.abs(_BlockRows(cfg, rho, 1, {}).final()[0] - rho)) <= 1e-12
    # One event, rebuilt in R's eigenbasis and projected back, is the
    # full-space mixing reduction.
    kern, every = _BlockRows(cfg, rho, 1, {}), slice(None)
    idx = gen.integers(cfg.meter.support_grid.size, size=1)
    reduced, trace = kern.reduce(kern.rotate_in(every), idx)
    kern.store(every, reduced, np.ones(1))
    ref = mixing_reduction(cfg, rho, cfg.meter.support_grid[idx[0]]).entries
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(kern.final()[0] - ref)) <= 1e-12 * scale
    assert abs(trace[0] - np.trace(ref).real) <= 1e-12 * scale


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(**COPY_BLOCK_CASES, mode=st.sampled_from(["normalized", "linear"]),
                  start=st.integers(0, 10 ** 6))
def test_rebuilt_states_stay_permutation_invariant_over_a_run(shape, amplitude, mode, start):
    d, M = shape
    cfg = hopping_config(d, M, amplitude, nu=4.0, seed=start)
    rho0 = invariant_density(d, M, np.random.default_rng(start))
    cols = _mixing_batch(cfg, DensityMatrix(rho0), 1.0, mode, range(start, start + 3))
    assert cols.counts.sum() > 0
    for state in cols.states:
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
    out = gen(random_hermitian(d ** M, np.random.default_rng(seed)))
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * np.max(np.abs(out))
    # The closed-form RK4 norm bounds the spectral norm of the superoperator.
    assert np.linalg.norm(superop_matrix(gen, d ** M), 2) <= gen.norm * (1 + 1e-12)


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
        assert same_row(whole, r, single(i)), i


# Index words at the 32- and 64-bit edges, where the key's word count changes.
EDGE_INDICES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2 ** 160 - 1),
    extra=st.lists(st.integers(0, 2 ** 96), max_size=6),
)
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
