"""Negative controls: a report check shown to fail on a defect of known size.

Each control adds a defect of size delta at one seam, by a monkeypatch, and
asserts that the check reads delta within a factor of 2, so that it responds
linearly; that it fails at delta = 10 x tolerance, where it passed without the
defect; and that the other checks of the same call keep their bits.  The
controls so far cover table1's seven rows.
"""

import numpy as np
import pytest

from spinorlab import checks
from spinorlab.duals import ELEMENT_NAMES, KinematicPoint, closed_form

DELTAS = (1e-8, 1e-6, 1e-4)
K = KinematicPoint(1.3, 0.8, 0.7, 0.3)
E01 = np.zeros((4, 4))
E01[0, 1] = 1.0


def shifted_closed_form(target, delta):
    """``closed_form`` with ``delta`` added to entry (0, 1) of ``target``'s matrix.  It
    replaces the name ``checks`` reads; ``duals`` builds FG and GXiDagger from its own
    ``closed_form``, which stays as it is, so only ``target``'s row moves."""
    def shifted(name, t):
        exact = closed_form(name, t)
        return exact + delta * E01 if name == target else exact

    return shifted


def table1_rows(tolerance):
    return checks.operator_residuals(np.random.default_rng(0), 100, K, tolerance)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", ELEMENT_NAMES)
def test_a_table1_row_reads_a_defect_in_its_closed_form(name, delta, monkeypatch):
    tolerance = delta / 10
    want = table1_rows(tolerance)
    monkeypatch.setattr(checks, "closed_form", shifted_closed_form(name, delta))
    for before, after in zip(want, table1_rows(tolerance), strict=True):
        if after["name"] != f"row-{name}":
            assert after == before
            continue
        assert before["status"] == "pass"
        assert after["status"] == "fail"
        assert delta / 2 <= after["residual"] <= 2 * delta
