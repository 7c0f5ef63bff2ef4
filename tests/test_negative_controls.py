"""Negative controls: a report check shown to fail on a defect of known size.

Each control adds a defect of size delta at one seam of ``checks``, by a
monkeypatch, and asserts that the check reads delta within a factor of 2, so
that it responds linearly; that it fails, where it passed without the defect
(table1's rows at a tolerance of delta / 10, embed's bounds at their fixed
tolerances of 1e-10 and 1e-9); and that the other checks of the same call
keep their bits.  The controls so far cover table1's seven rows and embed's
three bounds: 10 of the 38 checks that ``REPORTS`` in
``tests/test_known_defects.py`` names, and a test holds both counts.
"""

import numpy as np
import pytest

from spinorlab import checks, cli
from spinorlab.duals import ELEMENT_NAMES, KinematicPoint, closed_form
from spinorlab.multivector import _product
from spinorlab.quaternions import QuatMatrix2
from spinorlab.weyl import _matrices

from test_known_defects import REPORTS

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


def shifted_quaternion_products(delta):
    """``QuatMatrix2`` with ``delta`` added to entry (0, 0) of each product of two
    matrices, whose embedding moves by delta at (0, 0) and (1, 1).  In embed only
    gl2h-homomorphism multiplies them; the Clifford relations were cached before."""
    class Shifted(QuatMatrix2):
        __slots__ = ()

        def __mul__(self, other):
            q = super().__mul__(other).q.copy()
            q[..., 0, 0, 0] += delta
            return QuatMatrix2._of(q)

    return Shifted


SCALAR = np.eye(16)[0]  # the coefficients of the scalar blade

#: embed's bound: the name in ``checks`` that its seam replaces, and the seam for delta
EMBED_SEAMS = {
    "gl2h-homomorphism": ("QuatMatrix2", shifted_quaternion_products),
    # x y gains delta times the scalar blade, so its even block gains delta I
    "even-block-multiplicativity": ("_product", lambda d: lambda x, y: _product(x, y) + d * SCALAR),
    # a nilpotent shift: the zero divisor that invertibility-transport measures stays singular
    "intertwined-representations": ("_matrices", lambda d: lambda c: _matrices(c) + d * E01),
}


def embed_checks():
    args = cli.build_parser().parse_args(["embed"])
    return args.suite(args)["checks"]


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", EMBED_SEAMS)
def test_an_embed_bound_reads_a_defect_at_its_seam(name, delta, monkeypatch):
    want = embed_checks()
    seam, shifted = EMBED_SEAMS[name]
    monkeypatch.setattr(checks, seam, shifted(delta))
    for before, after in zip(want, embed_checks(), strict=True):
        if after["name"] != name:
            assert after == before
            continue
        assert before["status"] == "pass"
        assert after["status"] == "fail"
        assert delta / 2 <= after["residual"] <= 2 * delta


def test_every_control_is_of_a_check_that_a_report_names():
    named = {name for _, _, bounds in REPORTS.values() for name in bounds}
    assert len(named) == 38
    assert {f"row-{name}" for name in ELEMENT_NAMES} | set(EMBED_SEAMS) <= named
