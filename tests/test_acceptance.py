"""The acceptance criteria through the same entry point as ``qtraj
selftest``, with their seeds, trajectory counts and bounds unchanged."""

import pytest

from qtraj import acceptance


@pytest.mark.parametrize("cid", range(1, 12))
def test_criterion_passes(cid):
    result = acceptance.run_criterion(cid)
    assert result.passed, result.detail
