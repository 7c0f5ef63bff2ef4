"""JSON formats for multivectors, 4x4 matrices, and spinors.

Multivector (written, not read): object mapping blade keys ("" scalar,
"01", "0123", ...) to [re, im] pairs.  Matrix: 4x4 nested array of [re, im].
Spinor / dual spinor: flat array of four [re, im] pairs.

Each part is written as a float, an exact coefficient too.  Each part read is a
finite JSON number: not a pair, not true or false, and an integer only if it
fits a float.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .multivector import Multivector, blade_key


class MalformedInputError(ValueError):
    """Input file or object does not match the documented schema."""


def _part_from_obj(obj) -> float:
    # exact type tests: JSON true and false load as bool, a subclass of int
    if type(obj) is int:
        try:
            return float(obj)
        except OverflowError:
            raise MalformedInputError("exact value too large for a float") from None
    if type(obj) is float and math.isfinite(obj):
        return obj
    raise MalformedInputError(f"bad numeric value {obj!r}")


def _pairs(values) -> list:
    """The [re, im] pairs of complex values, as floats."""
    return [[float(v.real), float(v.imag)] for v in values]


def _complex_from_pair(pair) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise MalformedInputError(f"coefficient must be [re, im], got {pair!r}")
    re = _part_from_obj(pair[0])
    return complex(re, _part_from_obj(pair[1]) + 0.0)  # a -0.0 imaginary part reads as 0.0


def multivector_to_obj(a: Multivector) -> dict:
    return {blade_key(mask): _pairs([value])[0] for mask, value in a.items()}


def matrix_to_obj(m: np.ndarray) -> list:
    return [_pairs(row) for row in np.asarray(m, dtype=complex)]


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
    return _pairs(np.asarray(components, dtype=complex).reshape(4))


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
