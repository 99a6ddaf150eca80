"""Every ``crossagg selftest`` check, run as one test each."""

import pytest

from crossagg.selftest import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_selftest_check_passes(name):
    CHECKS[name]()
