"""JSON formats for multivectors, 4x4 matrices, and spinors.

Multivector (written, not read): object mapping blade keys ("" scalar,
"01", "0123", ...) to [re, im] pairs, each part of an int or Fraction
coefficient written as an exact [num, den] integer pair.

Matrix: 4x4 nested array of [re, im].  Spinor / dual spinor: flat array of
four [re, im] pairs.  Each part read is a finite number, or an exact
[num, den] integer pair with den != 0.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .multivector import Multivector, blade_key


class MalformedInputError(ValueError):
    """Input file or object does not match the documented schema."""


def _part_to_obj(x):
    if isinstance(x, int):
        return [int(x), 1]  # a bool coefficient is the int 1 or 0
    return [x.numerator, x.denominator]


def _part_from_obj(obj):
    # exact type tests: JSON true and false load as bool, a subclass of int
    if isinstance(obj, list):
        if len(obj) != 2 or not all(type(v) is int for v in obj) or obj[1] == 0:
            raise MalformedInputError(f"bad exact value {obj!r}")
        return Fraction(obj[0], obj[1])
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        return obj
    raise MalformedInputError(f"bad numeric value {obj!r}")


def _as_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        raise MalformedInputError("exact value too large for a float") from None


def _scalar_to_pair(c):
    if isinstance(c, (int, Fraction)):
        return [_part_to_obj(c), [0, 1]]
    c = complex(c)
    return [c.real, c.imag]


def _complex_from_pair(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise MalformedInputError(f"coefficient must be [re, im], got {pair!r}")
    re = _part_from_obj(pair[0])
    im = _part_from_obj(pair[1])
    return complex(_as_float(re), _as_float(im) + 0.0)  # a -0.0 imaginary part reads as 0.0


def multivector_to_obj(a: Multivector) -> dict:
    return {blade_key(mask): _scalar_to_pair(value) for mask, value in a.items()}


def matrix_to_obj(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 4:
        raise MalformedInputError("matrix JSON must be a 4x4 array of [re, im]")
    out = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != 4:
            raise MalformedInputError(f"matrix row {i} must have 4 entries")
        for j, pair in enumerate(row):
            out[i, j] = _complex_from_pair(pair)
    return out


def spinor_to_obj(components) -> list:
    v = np.asarray(components, dtype=complex).reshape(4)
    return [[float(c.real), float(c.imag)] for c in v]


def spinor_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 4:
        raise MalformedInputError("spinor JSON must be an array of 4 [re, im] pairs")
    return np.array([_complex_from_pair(p) for p in obj])


def load_json(path) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise MalformedInputError(f"JSON in {path} is nested too deeply") from None


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2)
