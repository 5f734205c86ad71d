"""The acceptance criteria through the same entry point as ``qtraj
selftest``, with their seeds, trajectory counts and bounds unchanged.
Criterion 7 (the linear-SSE martingale, about 16 s) runs only in the
selftest until that kernel gets faster."""

import pytest

from qtraj import acceptance


@pytest.mark.parametrize("cid", [1, 2, 3, 4, 5, 6, 8, 9, 10, 11])
def test_criterion_passes(cid):
    result = acceptance.run_criterion(cid)
    assert result.passed, result.detail
