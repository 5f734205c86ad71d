"""The acceptance criteria that run in a few seconds, through the same entry
point as ``qtraj selftest``, with their seeds, trajectory counts and bounds
unchanged.  Criteria 4, 7 and 8 take longer and run only in the selftest."""

import pytest

from qtraj import acceptance


@pytest.mark.parametrize("cid", [1, 2, 3, 5, 6, 9, 10, 11])
def test_criterion_passes(cid):
    result = acceptance.run_criterion(cid)
    assert result.passed, result.detail
