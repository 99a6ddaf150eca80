"""Every ``crossagg selftest`` check, run as one test each."""

import pytest

from crossagg import autodiff as ad
from crossagg import selftest
from crossagg.selftest import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_selftest_check_passes(name):
    CHECKS[name]()


def test_failing_bare_assert_reports_its_source_line(monkeypatch):
    # softmax_rows checks with bare asserts (the package is not rewritten by
    # pytest); probabilities that do not sum to 1 must fail with the line.
    attention = ad.window_attention

    def unnormalized(*args, **kwargs):
        out, p = attention(*args, **kwargs)
        return out, 2 * p

    monkeypatch.setattr(ad, "window_attention", unnormalized)
    lines = []
    assert not selftest.run_selftests("softmax_rows", emit=lines.append)
    assert lines == ["[FAIL] softmax_rows: assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)"]
