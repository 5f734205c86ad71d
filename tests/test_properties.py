"""Property tests of engine invariants, drawn by hypothesis (skipped when it
is not installed)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_manybody import block_spectrum_error  # noqa: E402
from test_master import MODES, generator_error, master_case, random_hermitian  # noqa: E402

from qtraj.ensemble import master_generator  # noqa: E402


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
