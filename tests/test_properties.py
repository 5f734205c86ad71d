"""Property tests of engine invariants, drawn by hypothesis (skipped when it
is not installed)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_manybody import block_spectrum_error  # noqa: E402


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
