"""Output oracles that do not import spinorlab.

Everything here is derived from the defining relations, not from the
package under test: the blade algebra from e_mu e_nu + e_nu e_mu =
2 eta_mu_nu, the Weyl gammas and Xi^dagger from their closed forms, and
the Klein-four Cayley table from its definition.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

ETA = (1, -1, -1, -1)
BLADES = 16

# -- exact blade algebra ------------------------------------------------------


def _indices(mask: int) -> tuple:
    return tuple(mu for mu in range(4) if mask >> mu & 1)


def _reduce_word(word: list) -> tuple[int, int]:
    """Sort a word of generators with e_mu e_nu = -e_nu e_mu (mu != nu) and
    contract e_mu e_mu = eta_mu; both follow from the anticommutator."""
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
            elif word[i] == word[i + 1]:
                sign *= ETA[word[i]]
                del word[i:i + 2]
                changed = True
                continue
            i += 1
    return sign, sum(1 << mu for mu in word)


SIGN = [[0] * BLADES for _ in range(BLADES)]
MASK = [[0] * BLADES for _ in range(BLADES)]
for _a in range(BLADES):
    for _b in range(BLADES):
        SIGN[_a][_b], MASK[_a][_b] = _reduce_word(list(_indices(_a) + _indices(_b)))

GRADE = [bin(m).count("1") for m in range(BLADES)]


def mv_mul(a: dict, b: dict) -> dict:
    """Geometric product of {mask: coefficient} dicts; zero terms dropped."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = MASK[ma][mb]
            out[m] = out.get(m, 0) + SIGN[ma][mb] * ca * cb
    return {m: v for m, v in out.items() if v != 0}


def mv_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, v in b.items():
        out[m] = out.get(m, 0) + sign * v
    return {m: v for m, v in out.items() if v != 0}


def _graded(a: dict, flips) -> dict:
    return {m: -v if flips(GRADE[m]) else v for m, v in a.items()}


def grade_involution(a: dict) -> dict:
    return _graded(a, lambda k: k % 2 == 1)


def reversion(a: dict) -> dict:
    return _graded(a, lambda k: (k * (k - 1) // 2) % 2 == 1)


def clifford_conjugation(a: dict) -> dict:
    return _graded(a, lambda k: (k * (k + 1) // 2) % 2 == 1)


def anticommutator(mu: int, nu: int) -> dict:
    """What e_mu e_nu + e_nu e_mu must equal: 2 eta_mu_nu times the scalar."""
    return {0: 2 * ETA[mu]} if mu == nu else {}


def is_exact(a: dict) -> bool:
    return all(type(v) in (int, Fraction) for v in a.values())


def mv_distance(a: dict, b: dict) -> float:
    return max((abs(a.get(m, 0) - b.get(m, 0)) for m in set(a) | set(b)), default=0)


# -- matrices -------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: Weyl gammas with sigma^mu = (I, s) in the upper-right block
GAMMAS = [np.block([[_Z2, _I2], [_I2, _Z2]])] + [
    np.block([[_Z2, s], [-s, _Z2]]) for s in _PAULI
]
GAMMA0 = GAMMAS[0]
IDENTITY = np.eye(4, dtype=complex)
MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])


def energy(m: float, p: float) -> float:
    return math.sqrt(p * p + m * m)


def xi_dagger(m: float, p: float, theta: float, phi: float) -> np.ndarray:
    """Closed form of Xi^dagger: block diagonal, entries linear in E and p."""
    e = energy(m, p)
    s, c = math.sin(theta), math.cos(theta)
    ep = complex(math.cos(phi), -math.sin(phi))
    em = ep.conjugate()
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0], x[0, 1] = p * s, ep * (e - p * c)
    x[1, 0], x[1, 1] = -em * (e + p * c), -p * s
    x[2, 2], x[2, 3] = -p * s, ep * (e + p * c)
    x[3, 2], x[3, 3] = -em * (e - p * c), p * s
    return (-1j / m) * x


def xi(m, p, theta, phi) -> np.ndarray:
    return xi_dagger(m, p, theta, phi).conj().T


def op_g(phi: float) -> np.ndarray:
    ep = complex(math.cos(phi), -math.sin(phi))
    em = ep.conjugate()
    return np.array(
        [[0, 0, 0, -1j * ep], [0, 0, 1j * em, 0],
         [0, -1j * ep, 0, 0], [1j * em, 0, 0, 0]],
        dtype=complex,
    )


def op_f(theta: float, phi: float) -> np.ndarray:
    s, c = math.sin(theta), math.cos(theta)
    ep = complex(math.cos(phi), -math.sin(phi))
    em = ep.conjugate()
    return 1j * np.array(
        [[0, 0, -s, ep * c], [0, 0, em * c, s],
         [s, -ep * c, 0, 0], [-em * c, -s, 0, 0]],
        dtype=complex,
    )


def group_elements(name: str, kin: dict) -> list:
    """[I, G, F, FG] for GF and [I, G, XiDagger, G XiDagger] for GXiDagger."""
    g = op_g(kin["phi"])
    if name == "GF":
        other = op_f(kin["theta"], kin["phi"])
    else:
        other = xi_dagger(kin["mass"], kin["momentum"], kin["theta"], kin["phi"])
    return [IDENTITY, g, other, other @ g]


def random_delta(rng) -> np.ndarray:
    """Delta in the block pattern [[A, B], [C, A^dag]], B and C Hermitian."""
    a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    b = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    c = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    b, c = (b + b.conj().T) / 2, (c + c.conj().T) / 2
    return np.block([[a, b], [c, a.conj().T]])


def omega_from_delta(delta, kin: dict) -> np.ndarray:
    """Omega = g0 Delta Xi g0."""
    x = xi(kin["mass"], kin["momentum"], kin["theta"], kin["phi"])
    return GAMMA0 @ delta @ x @ GAMMA0


def close(a, b, rel: float) -> bool:
    """Entrywise agreement relative to the larger operand's scale."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    scale = max(1.0, float(abs(a).max(initial=0.0)), float(abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(abs(a - b).max(initial=0.0)) <= rel * scale


# -- Klein four-group -----------------------------------------------------------------

K4_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
LABELS = {"GF": ["I", "G", "F", "FG"], "GXiDagger": ["I", "G", "XiDagger", "GXiDagger"]}


def cayley_csv(group: str) -> str:
    labels = LABELS[group]
    rows = [[""] + labels] + [
        [labels[i]] + [labels[j] for j in K4_TABLE[i]] for i in range(4)
    ]
    return "\n".join(",".join(r) for r in rows) + "\n"


# -- report formats -----------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def pair(obj) -> complex:
    """A [re, im] pair; each part a number or an exact [num, den] pair."""
    re, im = (Fraction(*x) if isinstance(x, list) else x for x in obj)
    return complex(float(re), float(im))


def matrix_of(obj) -> np.ndarray:
    return np.array([[pair(v) for v in row] for row in obj], dtype=complex)


def mv_of(obj) -> dict:
    """{blade key: [re, im]} to {mask: complex}."""
    return {sum(1 << int(ch) for ch in key): pair(v) for key, v in obj.items()}
