"""JSON round trips for multivectors, matrices, and spinors."""

import json
from fractions import Fraction

import numpy as np
import pytest

from spinorlab.multivector import Multivector, gamma, random_multivector, scalar
from spinorlab.serialize import (
    MalformedInputError,
    dump_json,
    matrix_from_obj,
    matrix_to_obj,
    multivector_from_obj,
    multivector_to_obj,
    spinor_from_obj,
    spinor_to_obj,
)


def test_multivector_float_roundtrip():
    rng = np.random.default_rng(0)
    x = random_multivector(rng)
    back = multivector_from_obj(multivector_to_obj(x))
    assert all(abs(back.coefficient(m) - v) < 1e-15 for m, v in x.items())


def test_multivector_exact_roundtrip():
    x = Multivector({0: Fraction(1, 3), 0b0011: Fraction(-2, 7), 0b1111: 4})
    obj = multivector_to_obj(x)
    assert obj[""] == [[1, 3], [0, 1]]
    assert obj["01"] == [[-2, 7], [0, 1]]
    assert obj["0123"] == [[4, 1], [0, 1]]
    back = multivector_from_obj(obj)
    assert back.coefficient(0) == Fraction(1, 3)
    assert back.coefficient(0b0011) == Fraction(-2, 7)


def test_multivector_scalar_key_is_empty_string():
    assert multivector_to_obj(scalar(2.5)) == {"": [2.5, 0.0]}
    assert multivector_from_obj({"": [2.5, 0.0]}) == scalar(2.5)


def test_multivector_complex_coefficients():
    obj = multivector_to_obj(scalar(1 + 2j) + 3j * gamma(0))
    back = multivector_from_obj(obj)
    assert back.coefficient(0) == 1 + 2j
    assert back.coefficient(1) == 3j


def test_bool_coefficients_round_trip():
    # Multivector keeps a bool as an exact int; the file must hold plain ints,
    # which the reader's exact-pair test accepts.
    x = Multivector({0: True, 5: True, 6: False})
    obj = multivector_to_obj(x)
    assert obj == {"": [[1, 1], [0, 1]], "02": [[1, 1], [0, 1]]}
    assert all(type(v) is int for pair in obj.values() for part in pair for v in part)
    assert multivector_from_obj(json.loads(dump_json(obj))) == x


def test_multivector_bad_inputs():
    with pytest.raises(MalformedInputError):
        multivector_from_obj(["not", "a", "dict"])
    with pytest.raises(MalformedInputError):
        multivector_from_obj({"10": [1, 0]})
    with pytest.raises(MalformedInputError):
        multivector_from_obj({"01": [1]})
    with pytest.raises(MalformedInputError):
        multivector_from_obj({"01": [[1, 2, 3], 0]})


@pytest.mark.parametrize("key", ["a", "-1", " 1", "1 ", "+1", "\u0663", "x0"])
def test_a_blade_key_that_is_not_generator_digits_is_refused(key):
    with pytest.raises(MalformedInputError) as info:
        multivector_from_obj({key: [1, 0]})
    assert str(info.value) == f"bad blade key {key!r}"


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


def test_spinor_roundtrip():
    v = np.array([1 + 2j, 0, -1j, 0.5])
    back = spinor_from_obj(spinor_to_obj(v))
    assert abs(back - v).max() < 1e-15


def test_spinor_bad_inputs():
    with pytest.raises(MalformedInputError):
        spinor_from_obj([[1, 0]] * 3)
    with pytest.raises(MalformedInputError):
        spinor_from_obj({"a": 1})
