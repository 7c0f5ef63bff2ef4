"""JSON formats for multivectors, 4x4 matrices, and spinors.

Multivector: object mapping blade keys ("" scalar, "01", "0123", ...) to
[re, im] pairs.  Each part is a finite number, or an exact [num, den]
integer pair with den != 0 when the coefficient is rational (ints and
Fractions round-trip exactly).

Matrix: 4x4 nested array of [re, im].  Spinor / dual spinor: flat array of
four [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .multivector import Multivector, blade_key, mask_from_key


class MalformedInputError(ValueError):
    """Input file or object does not match the documented schema."""


def _part_to_obj(x):
    if isinstance(x, int):
        return [x, 1]
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return float(x)


def _part_from_obj(obj):
    if isinstance(obj, list):
        if len(obj) != 2 or not all(isinstance(v, int) for v in obj) or obj[1] == 0:
            raise MalformedInputError(f"bad exact value {obj!r}")
        return Fraction(obj[0], obj[1])
    if isinstance(obj, int) or isinstance(obj, float) and math.isfinite(obj):
        return obj
    raise MalformedInputError(f"bad numeric value {obj!r}")


def _scalar_to_pair(c):
    if isinstance(c, (int, Fraction)):
        return [_part_to_obj(c), [0, 1]]
    c = complex(c)
    return [c.real, c.imag]


def _scalar_from_pair(pair):
    if not isinstance(pair, list) or len(pair) != 2:
        raise MalformedInputError(f"coefficient must be [re, im], got {pair!r}")
    re = _part_from_obj(pair[0])
    im = _part_from_obj(pair[1])
    if im == 0:
        return re
    return complex(float(re), float(im))


def multivector_to_obj(a: Multivector) -> dict:
    return {blade_key(mask): _scalar_to_pair(value) for mask, value in a.items()}


def multivector_from_obj(obj) -> Multivector:
    if not isinstance(obj, dict):
        raise MalformedInputError("multivector JSON must be an object")
    coeffs = {}
    for key, pair in obj.items():
        try:
            mask = mask_from_key(key)
        except ValueError as exc:
            raise MalformedInputError(str(exc)) from exc
        coeffs[mask] = _scalar_from_pair(pair)
    return Multivector(coeffs)


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
            value = _scalar_from_pair(pair)
            out[i, j] = complex(value)
    return out


def spinor_to_obj(components) -> list:
    v = np.asarray(components, dtype=complex).reshape(4)
    return [[float(c.real), float(c.imag)] for c in v]


def spinor_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 4:
        raise MalformedInputError("spinor JSON must be an array of 4 [re, im] pairs")
    return np.array([complex(_scalar_from_pair(p)) for p in obj])


def load_json(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
