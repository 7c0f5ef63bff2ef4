"""Core multivector arithmetic: products, grades, involutions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.multivector import (
    BLADE_COUNT,
    DIMENSION,
    GRADE,
    METRIC,
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    hermitian_blade,
    involution,
    random_multivector,
    scalar,
)
from spinorlab.multivector import (
    _INVOLUTIONS,
    _MUL_SIGN,
    _exact_product,
    _involute,
    _numerators,
    _product,
)
from spinorlab.weyl import _BLADE_MATS, _coefficients, _matrices, from_matrix, to_matrix

ONE = scalar(1)
VOLUME = blade((0, 1, 2, 3))


def hermitian_coefficients(x):
    """Coefficients of x in the self-adjoint basis of the hermitian blades."""
    return [x.coefficient(m) / hermitian_blade(m).coefficient(m) for m in range(BLADE_COUNT)]


def rational_multivectors():
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=8
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=BLADE_COUNT - 1), coeff, max_size=6
    ).map(Multivector)


def test_signature_is_spacetime():
    assert (METRIC.count(1), METRIC.count(-1)) == (1, 3)
    assert METRIC == (1, -1, -1, -1)


def test_generator_squares():
    assert gamma(1) * gamma(1) == scalar(-1)
    assert gamma(0) * gamma(0) == ONE
    for mu in range(4):
        assert gamma(mu) * gamma(mu) == scalar(METRIC[mu])


def test_orthogonal_generators_give_bivector():
    assert gamma(0) * gamma(1) == Multivector({0b0011: 1})


def test_idempotent_style_expansion():
    x = ONE + gamma(0)
    assert x * x == scalar(2) + 2 * gamma(0)


def test_clifford_relation_all_pairs_exact():
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) * gamma(nu) + gamma(nu) * gamma(mu)
            expected = scalar(2 * METRIC[mu]) if mu == nu else Multivector()
            assert anti == expected


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors(), rational_multivectors())
def test_associativity_exact_rational(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors(), rational_multivectors())
def test_bilinearity_exact_rational(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_associativity_float():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (random_multivector(rng) for _ in range(3))
        assert coefficient_distance((a * b) * c, a * (b * c)) < 1e-12


def even_and_odd(x):
    """The parts of x that the grade involution keeps and flips."""
    flipped = x.grade_involution()
    return Fraction(1, 2) * (x + flipped), Fraction(1, 2) * (x - flipped)


def test_grade_involution_splits_even_and_odd_examples():
    mixed = scalar(2) + gamma(1) + 5 * blade((0, 3)) + VOLUME
    even, odd = even_and_odd(mixed)
    assert even == scalar(2) + 5 * blade((0, 3)) + VOLUME
    assert odd == gamma(1)
    assert all(type(v) in (int, Fraction) for _, v in even.items() + odd.items())


def test_even_and_odd_parts_decompose_and_are_orthogonal():
    rng = np.random.default_rng(1)
    x = random_multivector(rng)
    even, odd = even_and_odd(x)
    assert coefficient_distance(even + odd, x) == 0
    assert all(bin(m).count("1") % 2 == 0 for m, _ in even.items())
    assert all(bin(m).count("1") % 2 == 1 for m, _ in odd.items())
    assert even.grade_involution() == even and odd.grade_involution() == -1 * odd


def test_even_part_is_closed_under_the_product():
    rng = np.random.default_rng(2)
    (a, b), (c, _) = even_and_odd(random_multivector(rng)), even_and_odd(random_multivector(rng))
    for product, parity in ((a * c, 0), (a * b, 1), (b * b, 0)):
        assert all(bin(m).count("1") % 2 == parity for m, v in product.items() if abs(v) > 1e-12)


def test_involution_examples():
    assert involution("reversion", Multivector({0b0011: 1})) == -1 * Multivector({0b0011: 1})
    assert involution("grade", gamma(2)) == -1 * gamma(2)
    assert involution("clifford_conj", VOLUME) == VOLUME
    assert involution("complex_conj", scalar(1j)) == scalar(-1j)


def test_involutions_square_to_identity():
    rng = np.random.default_rng(2)
    for kind in ("grade", "reversion", "clifford_conj", "complex_conj"):
        for _ in range(20):
            x = random_multivector(rng)
            assert coefficient_distance(
                involution(kind, involution(kind, x)), x
            ) == 0


def test_involution_grade_signs():
    for mask in range(BLADE_COUNT):
        k = GRADE[mask]
        b = Multivector({mask: 1})
        assert involution("grade", b) == (-1) ** k * b
        assert involution("reversion", b) == (-1) ** (k * (k - 1) // 2) * b


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors())
def test_reversion_is_antiautomorphism(a, b):
    lhs = involution("reversion", a * b)
    rhs = involution("reversion", b) * involution("reversion", a)
    assert lhs == rhs


def test_unknown_involution_rejected():
    with pytest.raises(ValueError):
        involution("transpose", ONE)


def pseudoscalar_square_sign(p, q):
    # Independent sign oracle for the square of the volume element.
    n = p + q
    return (-1) ** (q + n * (n - 1) // 2)


def test_pseudoscalar_square_matches_sign_oracle():
    want = pseudoscalar_square_sign(1, 3)
    assert VOLUME * VOLUME == scalar(want)
    assert want == -1


def test_chiral_element_squares_to_plus_one():
    chiral = 1j * VOLUME
    assert chiral * chiral == ONE
    assert chiral.items() == [(0b1111, 1j)]


def test_blade_constructor_absorbs_reordering_sign():
    assert blade((1, 0)) == -1 * Multivector({0b0011: 1})
    assert VOLUME == Multivector({0b1111: 1})
    assert blade((1, 1)) == scalar(-1)


def test_hermitian_blades_fixed_by_hermitian_conjugation():
    for mask in range(BLADE_COUNT):
        hb = hermitian_blade(mask)
        assert involution("dirac_dagger", hb) == hb


def test_plain_bivector_flips_under_hermitian_conjugation():
    e12 = Multivector({0b0110: 1})
    assert involution("dirac_dagger", e12) == -1 * e12


def test_hermitian_coefficient_roundtrip():
    rng = np.random.default_rng(3)
    x = random_multivector(rng)
    coeffs = hermitian_coefficients(x)
    rebuilt = Multivector()
    for mask, c in enumerate(coeffs):
        rebuilt = rebuilt + c * hermitian_blade(mask)
    assert coefficient_distance(rebuilt, x) < 1e-15
    assert all(involution("dirac_dagger", hermitian_blade(m)) == hermitian_blade(m)
               for m in range(BLADE_COUNT))


def test_random_real_multivector_has_real_coefficients():
    rng = np.random.default_rng(4)
    x = random_multivector(rng, real=True)
    assert all(complex(v).imag == 0 for _, v in x.items())
    h = random_multivector(rng, hermitian=True)
    assert all(abs(c.imag) < 1e-15 for c in hermitian_coefficients(h))


# -- the dense 16-slot kernel ------------------------------------------------


def reference_blade_product(a, b):
    """Sign and mask of blade a times blade b, by sorting the generator
    list and cancelling repeated generators against the metric."""
    idx = [j for j in range(4) if a >> j & 1] + [j for j in range(4) if b >> j & 1]
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    kept = []
    for j in idx:
        if kept and kept[-1] == j:
            kept.pop()
            sign *= METRIC[j]
        else:
            kept.append(j)
    return sign, sum(1 << j for j in kept)


def test_dense_product_matches_blade_table_reference():
    # The reference sums exact rationals of the float parts, so the only
    # rounding left is the kernel's own.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        a, b = random_multivector(rng), random_multivector(rng)
        re, im = [Fraction(0)] * BLADE_COUNT, [Fraction(0)] * BLADE_COUNT
        for ma, ca in a.items():
            for mb, cb in b.items():
                sign, m = reference_blade_product(ma, mb)
                ar, ai = Fraction(ca.real), Fraction(ca.imag)
                br, bi = Fraction(cb.real), Fraction(cb.imag)
                re[m] += sign * (ar * br - ai * bi)
                im[m] += sign * (ar * bi + ai * br)
        want = np.array([complex(float(r), float(i)) for r, i in zip(re, im)])
        got = np.array([(a * b).coefficient(m) for m in range(BLADE_COUNT)])
        worst = max(worst, abs(got - want).max() / abs(want).max())
    assert worst <= 1e-15


def test_exact_operands_keep_exact_types():
    a = Multivector({0: 2, 3: Fraction(1, 3), 9: -1, 15: Fraction(-5, 7)})
    b = Multivector({1: Fraction(3, 4), 6: 2, 3: 1})
    results = [a * b, b * a, a + b, a - b, -a, 3 * a, a * Fraction(1, 2),
               a.grade_involution(), a.reversion(), a.clifford_conjugation(),
               a.complex_conjugate(), involution("dirac_dagger", a)]
    for x in results:
        assert all(type(v) in (int, Fraction) for _, v in x.items())
    assert (a - a).items() == []
    assert (gamma(1) * gamma(1)).items() == [(0, -1)]
    assert type((gamma(1) * gamma(1)).coefficient(0)) is int
    shifted = a + Multivector({3: Fraction(1, 6)})
    assert coefficient_distance(a, shifted) == Fraction(1, 6)
    assert type(coefficient_distance(a, shifted)) is Fraction
    assert a.items() == [(0, 2), (3, Fraction(1, 3)), (9, -1), (15, Fraction(-5, 7))]
    ints = Multivector({0: 2, 5: -3, 15: 7}) * Multivector({1: 1, 6: -4})
    assert all(type(v) is int for _, v in ints.items())
    # a holds ints in slots 0 and 9, and b in slots 3 and 6, yet a Fraction
    # operand makes every nonzero slot of the product a Fraction
    for x in (a * b, b * a, Multivector({0: Fraction(2, 1)}) * gamma(1)):
        assert x.items() and all(type(v) is Fraction for _, v in x.items())
    assert (a * b).coefficient(3) == 2
    assert repr(ints) == "Multivector(2*e0 + 12*e01 + 3*e2 + -8*e12 + 28*e03 + -7*e123)"


def pairwise_fraction_product(a, b):
    """The exact product one blade pair at a time in int and Fraction
    arithmetic, each pair reduced as it is added: the reference that the
    integer-numerator kernel must match slot for slot."""
    out = [0] * BLADE_COUNT
    for ma, ca in enumerate(a):
        for mb, cb in enumerate(b):
            if ca and cb:
                if _MUL_SIGN[ma][mb] > 0:
                    out[ma ^ mb] += ca * cb
                else:
                    out[ma ^ mb] -= ca * cb
    return out


#: denominator bases that share factors (2, 3, 5, 7, 11, 13) across draws
SHARED_BASES = (2**20, 3**12, 10**6, 7 * 11 * 13, 2 * 3 * 5 * 7 * 11 * 13)
BIG = st.integers(-(2**200), 2**200)
DENOMINATORS = st.one_of(
    st.integers(1, 10**12),
    st.builds(lambda base, k: base * k, st.sampled_from(SHARED_BASES), st.integers(1, 10**5)),
)
EXACT_VALUES = st.one_of(
    BIG,
    st.integers(-9, 9),
    st.builds(Fraction, BIG, DENOMINATORS),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    BIG.map(lambda n: Fraction(n, 1)),
)


@st.composite
def exact_operand_pairs(draw):
    """Two exact coefficient rows with 0-16 nonzero slots each, int, Fraction
    or mixed.  Some pairs are built so that products cancel: a vector times
    itself (every bivector slot cancels), or an operand times its negated
    reverse (the grade-2 and grade-3 slots cancel)."""
    def row(slots):
        values = [0] * BLADE_COUNT
        for m in draw(st.lists(st.sampled_from(slots), max_size=len(slots), unique=True)):
            values[m] = draw(EXACT_VALUES)
        return np.array(values, dtype=object)

    kind = draw(st.sampled_from(("independent", "vector-squared", "reverse")))
    if kind == "vector-squared":
        a = row([1, 2, 4, 8])
        return a, a.copy()
    a = row(list(range(BLADE_COUNT)))
    if kind == "reverse":
        return a, -_involute("reversion", a)
    return a, row(list(range(BLADE_COUNT)))


@settings(max_examples=300, deadline=None)
@given(exact_operand_pairs())
def test_exact_product_matches_pairwise_fraction_reference(pair):
    a, b = pair
    got = _exact_product(a, b)
    assert got.dtype == object and got.shape == (BLADE_COUNT,)
    assert got.tolist() == pairwise_fraction_product(a.tolist(), b.tolist())
    fraction = any(isinstance(v, Fraction) for v in [*a, *b])
    assert all(type(v) in (int, Fraction) for v in got)
    assert all(type(v) is (Fraction if fraction else int) for v in got if v)


def test_exact_product_cancels_to_exact_zero():
    v = np.array([0, Fraction(1, 3), 5, 0, 2**200, 0, 0, 0, Fraction(-7, 10**12)]
                 + [0] * 7, dtype=object)
    square = _exact_product(v, v)
    assert square.tolist() == pairwise_fraction_product(v.tolist(), v.tolist())
    assert [m for m, c in enumerate(square) if c] == [0]


@settings(max_examples=40, deadline=None)
@given(st.lists(exact_operand_pairs(), min_size=1, max_size=5))
def test_stacked_exact_product_is_row_by_row(pairs):
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    stacked = _product(a, b)
    assert stacked.dtype == object and stacked.shape == a.shape
    for got, x, y in zip(stacked, a, b):
        assert got.tolist() == _exact_product(x, y).tolist()
        assert all(type(v) in (int, Fraction) for v in got)
    # one right operand broadcast against the stack, as ideals uses it
    assert _product(a, b[0]).tolist() == [_exact_product(x, b[0]).tolist() for x in a]


#: a real or imaginary part: zero, or of either sign with magnitude 1e-5 to 1e5
FLOAT_PARTS = st.one_of(st.just(0.0), st.builds(
    lambda sign, magnitude: sign * magnitude, st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e-5, max_value=1e5)))
FLOAT_ROWS = st.lists(st.builds(complex, FLOAT_PARTS, FLOAT_PARTS),
                      min_size=BLADE_COUNT, max_size=BLADE_COUNT).map(np.array)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(FLOAT_ROWS, FLOAT_ROWS), min_size=1, max_size=5))
def test_single_row_fast_paths_match_stacked_kernels(pairs):
    """The single-row branches give the stacked kernels' bits, which the
    batched checks in ``checks.py`` rely on to match the trial-by-trial loop."""
    a = np.stack([x for x, _ in pairs])
    b = np.stack([y for _, y in pairs])
    mats, products = _matrices(a), _product(a, b)
    back = _coefficients(mats)
    for x, y, m, xm, xy in zip(a, b, mats, back, products):
        assert same_bits(to_matrix(Multivector._of(x)), m)
        assert same_bits(from_matrix(m)._c, xm)
        assert same_bits((Multivector._of(x) * Multivector._of(y))._c, xy)


def test_items_lists_only_nonzero_slots_in_mask_order():
    x = Multivector({9: 1.5, 2: 0, 4: 0.0, 1: -2j})
    assert x.items() == [(1, -2j), (9, 1.5)]
    assert Multivector().items() == []
    assert (gamma(0) + gamma(0).grade_involution()).items() == []
    # a zero of any type is dropped, so it leaves an exact row exact and int
    x = Multivector({3: 2, 4: 0.0, 5: 0j, 6: Fraction(0), 7: np.float64(0), 8: np.int64(0)})
    assert x._c.dtype == object and typed(x._c) == typed([0, 0, 0, 2] + [0] * 12)


def test_mixed_exact_and_complex_give_complex():
    exact = Multivector({0: 1, 5: Fraction(1, 2)})
    inexact = Multivector({5: 0.25 + 1j})
    for x in (exact * inexact, inexact * exact, exact + inexact, inexact - exact,
              0.5 * exact, exact * 1j):
        assert x.items()
        assert all(type(v) is complex for _, v in x.items())
    assert (exact * inexact).items() == [(0, 0.125 + 0.5j), (5, 0.25 + 1j)]
    assert (exact + inexact).coefficient(5) == 0.75 + 1j
    assert exact == Multivector({0: 1.0, 5: 0.5})
    assert hash(exact) == hash(Multivector({0: 1.0, 5: 0.5}))


def test_matrix_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = random_multivector(rng)
        assert coefficient_distance(from_matrix(to_matrix(x)), x) < 1e-15
    exact = Multivector({0: 2, 6: Fraction(1, 4), 15: -3})
    assert coefficient_distance(from_matrix(to_matrix(exact)), exact) == 0


def test_repr_prints_real_coefficients_as_floats():
    assert repr(Multivector({0: 0.5, 3: 2j, 5: 1 + 1j})) == (
        "Multivector(0.5 + 2j*e01 + (1+1j)*e02)"
    )
    assert repr(Multivector({6: Fraction(1, 2)})) == "Multivector(Fraction(1, 2)*e12)"
    assert repr(Multivector()) == "Multivector(0)"


# The first 16 draws of rng.uniform(-1, 1) from default_rng(0).  Seeded
# suites sample their operands through random_multivector, so a change in
# the number or order of its draws must show here.
PINNED_DRAWS = [
    0.2739233746429086, -0.4604265724722594, -0.9180529521276106, -0.9669447289429418,
    0.6265404784005448, 0.8255111545554434, 0.21327155153435973, 0.4589931219679968,
    0.08724998293084574, 0.8701448475755365, 0.6317071082430643, -0.9945229996597038,
    0.7148085531751387, -0.9328288493890713, 0.45931089285988813, -0.648688758794882,
]


def test_random_multivector_draws_are_pinned():
    real = random_multivector(np.random.default_rng(0), real=True)
    assert real.items() == list(enumerate(PINNED_DRAWS))
    herm = random_multivector(np.random.default_rng(0), hermitian=True)
    assert herm.items() == [
        (m, v * 1j if GRADE[m] in (2, 3) else v) for m, v in enumerate(PINNED_DRAWS)
    ]
    assert repr(herm).startswith(
        "Multivector(0.2739233746429086 + -0.4604265724722594*e0 + "
        "-0.9180529521276106*e1 + -0.9669447289429418j*e01 + "
    )
    vector = random_multivector(np.random.default_rng(0), grades=(1,))
    assert vector.items() == [
        (1 << j, complex(PINNED_DRAWS[2 * j], PINNED_DRAWS[2 * j + 1])) for j in range(4)
    ]


def test_out_of_range_masks_and_generators_are_refused():
    with pytest.raises(ValueError, match="blade mask 16 out of range"):
        Multivector({BLADE_COUNT: 1})
    with pytest.raises(ValueError, match="gamma index 4 out of range"):
        gamma(4)


def test_sign_table_matches_the_matrix_representation():
    # weyl builds each blade's matrix as a product of gamma matrices, without
    # _MUL_SIGN, so the table is checked against an independent product.
    for a in range(BLADE_COUNT):
        for b in range(BLADE_COUNT):
            assert np.array_equal(_BLADE_MATS[a] @ _BLADE_MATS[b],
                                  _MUL_SIGN[a][b] * _BLADE_MATS[a ^ b]), (a, b)


# -- the exact kernels against their dense forms -------------------------------------
#
# The exact kernels skip zero slots, leave int rows unscaled and locate the
# distance on integer numerators.  The dense forms below handle every slot the
# plain way and are the reference: each kernel must give the same element
# types and values slot for slot.


def dense_exact_product(a, b):
    """Every slot of both rows scaled to integer numerators over its row's lcm."""
    a, b = a.tolist(), b.tolist()
    da, db = math.lcm(*[v.denominator for v in a]), math.lcm(*[v.denominator for v in b])
    x = [v.numerator * (da // v.denominator) for v in a]
    y = [v.numerator * (db // v.denominator) for v in b]
    out = [0] * BLADE_COUNT
    right = [(mb, cb) for mb, cb in enumerate(y) if cb]
    for ma, ca in enumerate(x):
        if not ca:
            continue
        sign_row = _MUL_SIGN[ma]
        for mb, cb in right:
            if sign_row[mb] > 0:
                out[ma ^ mb] += ca * cb
            else:
                out[ma ^ mb] -= ca * cb
    if any(issubclass(t, Fraction) for t in {*map(type, a), *map(type, b)}):
        den = da * db
        out = [Fraction(v, den) if v else 0 for v in out]
    return np.array(out, dtype=object)


def dense_involute(kind, c):
    negated, conjugates = _INVOLUTIONS[kind]
    if negated is not None:
        c = np.where(negated, -c, c)
    return c.conj() if conjugates else c


def dense_distance(x, y):
    """numpy's object max keeps the first of equal slots."""
    return np.abs(x - y).max()


def typed(values):
    return [(type(v), v) for v in values]


#: nonzero exact values: ints, bools, Fractions, values of size 2**70 and
#: denominators up to 2**70
EXACT_NONZERO = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.just(True),
    st.sampled_from((2**70, -(2**70), 2**70 + 1, Fraction(2**70), Fraction(-1, 2**70))),
    st.builds(Fraction, st.integers(-(2**70), 2**70).filter(bool), st.integers(1, 2**70)),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)),
)
#: the zeros an exact row can hold: int 0, a subtraction's Fraction(0), False
EXACT_ZEROS = st.sampled_from((0, Fraction(0), False))
#: small values, so that slots tie in size across int, bool and Fraction
EXACT_SMALL = st.sampled_from((0, 1, -1, True, False, Fraction(0), Fraction(1), Fraction(-1),
                               Fraction(1, 2), Fraction(-1, 2)))


@st.composite
def exact_rows(draw, values=EXACT_NONZERO):
    """A length-16 object row: a zero of some kind in every slot, then
    values written into a drawn set of slots."""
    row = [draw(EXACT_ZEROS) for _ in range(BLADE_COUNT)]
    for m in draw(st.sets(st.integers(0, BLADE_COUNT - 1))):
        row[m] = draw(values)
    return np.array(row, dtype=object)


ANY_EXACT_ROW = st.one_of(exact_rows(), exact_rows(EXACT_SMALL))


@settings(max_examples=200, deadline=None)
@given(ANY_EXACT_ROW, ANY_EXACT_ROW)
def test_exact_product_matches_the_dense_kernel(a, b):
    got = _exact_product(a, b)
    assert got.dtype == object and got.shape == (BLADE_COUNT,)
    assert typed(got) == typed(dense_exact_product(a, b))


def test_a_fraction_zero_makes_the_product_fraction():
    a = np.array([0] * BLADE_COUNT, dtype=object)
    a[1], a[9] = 3, Fraction(0)
    b = np.array([0] * BLADE_COUNT, dtype=object)
    b[2] = 5
    want = [(int, 0)] * BLADE_COUNT
    want[3] = (Fraction, 15)
    assert typed(_exact_product(a, b)) == want == typed(dense_exact_product(a, b))
    a[9] = 0
    want[3] = (int, 15)
    assert typed(_exact_product(a, b)) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_INVOLUTIONS)), st.lists(ANY_EXACT_ROW, min_size=1, max_size=3),
       st.booleans())
def test_exact_involutions_match_the_dense_kernel(kind, rows, stacked):
    for c in [np.stack(rows)] if stacked else rows:
        before = typed(c.ravel())
        got = _involute(kind, c)
        assert got.dtype == object and got.shape == c.shape
        assert typed(got.ravel()) == typed(dense_involute(kind, c).ravel())
        assert typed(c.ravel()) == before  # the operand is left as it was


@st.composite
def exact_row_pairs(draw):
    """Two rows, often one a few slots away from the other, so that equal
    gaps, zero gaps included, are common."""
    x = draw(ANY_EXACT_ROW)
    if draw(st.booleans()):
        return x, draw(ANY_EXACT_ROW)
    y = x.copy()
    for m in draw(st.sets(st.integers(0, BLADE_COUNT - 1), max_size=4)):
        y[m] = draw(st.one_of(EXACT_SMALL, EXACT_NONZERO))
    return x, y


@settings(max_examples=300, deadline=None)
@given(exact_row_pairs())
def test_exact_distance_matches_the_dense_kernel(pair):
    x, y = pair
    got = coefficient_distance(Multivector._of(x), Multivector._of(y))
    assert typed([got]) == typed([dense_distance(x, y)])


def test_exact_distance_keeps_the_first_of_equal_gaps():
    def row(values):
        out = np.array([0] * BLADE_COUNT, dtype=object)
        for m, v in values.items():
            out[m] = v
        return Multivector._of(out)

    zero = row({})
    cases = [
        (row({}), zero, (int, 0)),
        (row({0: Fraction(0)}), zero, (Fraction, 0)),
        (row({3: Fraction(0)}), zero, (int, 0)),
        (row({2: 1, 5: Fraction(1)}), zero, (int, 1)),
        (row({2: Fraction(-1), 5: 1}), zero, (Fraction, 1)),
        (row({1: True, 4: -1}), zero, (int, 1)),
        (row({2: Fraction(1, 2)}), row({2: 1, 7: Fraction(1, 2)}), (Fraction, Fraction(1, 2))),
        (row({4: 2**70 + 1}), row({4: Fraction(1, 2**70)}),
         (Fraction, 2**70 + 1 - Fraction(1, 2**70))),
    ]
    for a, b, want in cases:
        got = coefficient_distance(a, b)
        assert (type(got), got) == want
        assert typed([got]) == typed([dense_distance(a._c, b._c)])


def checked_product(x, y):
    """``x * y`` on the operands' kept integer forms, checked slot for slot
    against ``_exact_product`` on fresh copies of the rows and against the
    dense kernel; after it, each operand's kept form is its fresh form."""
    got = x * y
    fresh = _exact_product(x._c.copy(), y._c.copy())
    assert typed(got._c) == typed(fresh) == typed(dense_exact_product(x._c, y._c))
    for operand in (x, y):
        assert operand._q == _numerators(operand._c.tolist())
    return got


@settings(max_examples=150, deadline=None)
@given(ANY_EXACT_ROW, ANY_EXACT_ROW, ANY_EXACT_ROW, st.integers(0, DIMENSION - 1))
def test_products_on_kept_forms_match_the_fresh_and_dense_kernels(ra, rb, rc, mu):
    a, b, c = Multivector._of(ra), Multivector._of(rb), Multivector._of(rc)
    ab = checked_product(a, b)
    checked_product(ab, c)
    checked_product(a, checked_product(b, c))
    checked_product(b.reversion(), a.reversion())
    # gamma(mu) is one module constant, so its form is kept across calls
    g = gamma(mu)
    for x, y in ((g, a), (a, g), (g, g), (checked_product(g, b), g)):
        checked_product(x, y)
    # the distance reads the forms the products kept
    assert typed([coefficient_distance(a, b)]) == typed([dense_distance(ra, rb)])
    assert typed([coefficient_distance(ab, c)]) == typed([dense_distance(ab._c, rc)])


def test_a_float_multivector_never_gets_a_form():
    rng = np.random.default_rng(5)
    x, y = random_multivector(rng), random_multivector(rng)
    exact = Multivector({1: Fraction(1, 2), 6: 3})
    for z in (x * y, x * exact, exact * x, x * gamma(2)):
        assert z._q is None
    coefficient_distance(x, exact)
    # an exact operand of a complex product keeps no form either
    assert x._q is y._q is exact._q is None


@pytest.mark.parametrize("value", [None, "1", b"1", "", [1], {}],
                         ids=["None", "str", "bytes", "empty-str", "list", "dict"])
def test_a_coefficient_that_is_not_a_number_is_refused(value):
    with pytest.raises(ValueError) as info:
        Multivector({0: 1, 5: value})
    assert str(info.value) == f"coefficient {value!r} of blade mask 5 is not a number"


@pytest.mark.parametrize("mask, message", [
    (16, "blade mask 16 out of range"),
    (-1, "blade mask -1 out of range"),
    (1.5, "blade mask 1.5 is not an integer"),
    (np.float64(2.0), f"blade mask {np.float64(2.0)!r} is not an integer"),
    ("3", "blade mask '3' is not an integer"),
])
def test_a_mask_that_is_not_a_blade_is_refused(mask, message):
    for make in (hermitian_blade, lambda m: Multivector({m: 1})):
        with pytest.raises(ValueError) as info:
            make(mask)
        assert str(info.value) == message


def test_integer_masks_of_any_integer_type_are_accepted():
    for mask in (np.int64(5), np.uint8(5), 5):
        assert Multivector({mask: 2}).items() == [(5, 2)]
    assert hermitian_blade(np.int64(6)).items() == [(6, 1j)]


@pytest.mark.parametrize("mask, want", [
    (True, Multivector({1: 1})), (False, Multivector({0: 1})),
    (np.int64(6), Multivector({6: 1j})), (np.uint8(14), Multivector({14: 1j})),
])
def test_hermitian_blade_reads_the_mask_its_multivector_accepted(mask, want):
    # _TURNED[True] would be a boolean index, not slot 1; 16 and -1 are refused above
    assert hermitian_blade(mask) == want == hermitian_blade(int(mask))


@pytest.mark.parametrize("k", [np.int8(3), np.int64(3), np.uint8(3)])
def test_a_numpy_integer_keeps_a_multivector_exact_from_either_side(k):
    for x in (k * gamma(1), gamma(1) * k, Multivector({2: k})):
        ((_, value),) = x.items()
        assert (type(value), value) == (int, 3)
    half = Multivector({2: Fraction(1, 2)})
    assert (half * k).items() == (k * half).items() == [(2, Fraction(3, 2))]
    assert Multivector({0: k, 1: 0.5})._c.dtype == complex  # mixed with a float, as before
