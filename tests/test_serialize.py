"""JSON formats: multivectors written, matrices and spinors written and read."""

import json
from fractions import Fraction

import numpy as np
import pytest

from spinorlab.multivector import Multivector, blade_key, gamma, random_multivector, scalar
from spinorlab.serialize import (
    MalformedInputError,
    dump_json,
    matrix_from_obj,
    matrix_to_obj,
    multivector_to_obj,
    spinor_from_obj,
    spinor_to_obj,
)


def test_multivector_float_roundtrip():
    # The written floats read back from the file text with every bit.
    rng = np.random.default_rng(0)
    x = random_multivector(rng)
    back = json.loads(dump_json(multivector_to_obj(x)))
    assert back == {blade_key(m): [v.real, v.imag] for m, v in x.items()}


def test_multivector_exact_roundtrip():
    x = Multivector({0: Fraction(1, 3), 0b0011: Fraction(-2, 7), 0b1111: 4})
    assert json.loads(dump_json(multivector_to_obj(x))) == {
        "": [[1, 3], [0, 1]], "01": [[-2, 7], [0, 1]], "0123": [[4, 1], [0, 1]],
    }


def test_multivector_scalar_key_is_empty_string():
    assert multivector_to_obj(scalar(2.5)) == {"": [2.5, 0.0]}


def test_multivector_complex_coefficients():
    assert multivector_to_obj(scalar(1 + 2j) + 3j * gamma(0)) == {
        "": [1.0, 2.0], "0": [0.0, 3.0],
    }


def test_bool_coefficients_round_trip():
    # Multivector keeps a bool as an exact int; the file must hold plain ints,
    # not true or false.
    x = Multivector({0: True, 5: True, 6: False})
    obj = multivector_to_obj(x)
    assert obj == {"": [[1, 1], [0, 1]], "02": [[1, 1], [0, 1]]}
    assert all(type(v) is int for pair in obj.values() for part in pair for v in part)


#: (pair, error) for each kind of part the matrix and spinor readers refuse
BAD_PARTS = [
    ([1], "coefficient must be [re, im], got [1]"),
    ([[1, 2, 3], 0], "bad exact value [1, 2, 3]"),
    ([[1, 0], 0], "bad exact value [1, 0]"),
    ([True, 0], "bad numeric value True"),
    ([0, False], "bad numeric value False"),
]


def test_a_zero_imaginary_part_reads_as_positive_zero():
    psi = spinor_from_obj([[-0.0, -0.0], [[1, 3], 0], [2, [0, -5]], [10**20, -1.5]])
    assert repr(psi.tolist()) == repr([complex(-0.0, 0.0), complex(1 / 3, 0.0),
                                      complex(2.0, 0.0), complex(1e20, -1.5)])


def test_matrix_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_obj(matrix_to_obj(m))
    assert abs(back - m).max() < 1e-15


def test_matrix_bad_inputs():
    with pytest.raises(MalformedInputError):
        matrix_from_obj([[1, 2], [3, 4]])
    with pytest.raises(MalformedInputError):
        matrix_from_obj([[[1, 0]] * 3] * 4)
    for pair, message in BAD_PARTS:
        with pytest.raises(MalformedInputError) as info:
            matrix_from_obj([[[0, 0]] * 4] * 3 + [[[0, 0]] * 3 + [pair]])
        assert str(info.value) == message


def test_spinor_roundtrip():
    v = np.array([1 + 2j, 0, -1j, 0.5])
    back = spinor_from_obj(spinor_to_obj(v))
    assert abs(back - v).max() < 1e-15


def test_spinor_bad_inputs():
    with pytest.raises(MalformedInputError):
        spinor_from_obj([[1, 0]] * 3)
    with pytest.raises(MalformedInputError):
        spinor_from_obj({"a": 1})
    for pair, message in BAD_PARTS:
        with pytest.raises(MalformedInputError) as info:
            spinor_from_obj([[0, 0]] * 3 + [pair])
        assert str(info.value) == message
