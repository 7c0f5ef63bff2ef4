"""Group machinery for dual mappings and the Clifford group hierarchy.

Covers closure checking for sets of Omega operators, finite group
generation with Cayley tables, orbit partitions of dual spinors, and
membership tests for the Lipschitz / Pin / Spin chain.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .duals import InvalidOperatorError, KinematicPoint, validate_omega
from .multivector import _GRADES, _ODD, _SP, _XOR, Multivector, _product
from .weyl import (COMMUTATOR_TOL, CONJUGATION_TOL, DEDUP_TOL, GROUP_TOL, KEY_ROUNDING, ZERO_TOL,
                   _I2, _coefficients, _dagger, _invertible, _matrices, multivector_inverse)

GENERATION_CAP = 1024


class CapExceeded(RuntimeError):
    """The generated group has more than ``cap`` (``count`` = cap + 1) elements:
    the walk passed the cap, or ``witness`` names an element of infinite order."""

    def __init__(self, cap: int, witness: str | None = None):
        self.cap, self.count, self.witness = cap, cap + 1, witness
        found = witness or f"{self.count} elements found"
        super().__init__(f"group generation exceeded cap {cap} ({found})")


# -- closure of Omega sets -----------------------------------------------------


class ClosureReport(NamedTuple):
    """Pairwise commutation scan result; truthy iff every pair commutes."""

    commutes: bool
    worst_norm: float
    worst_pair: tuple[int, int] | None
    tolerance: float

    def __bool__(self) -> bool:
        return self.commutes


def check_abelian_closure(candidates, k: KinematicPoint) -> ClosureReport:
    """Decide whether a set of valid Omega operators can close into a group.

    Closure holds iff every pair commutes; equivalently every product again
    satisfies the Omega validity condition.  Invalid candidates are rejected
    before the scan with :class:`InvalidOperatorError` naming the candidate.
    """
    mats = [np.asarray(m, dtype=complex) for m in candidates]
    for i, m in enumerate(mats):
        try:
            validate_omega(m, k).require()
        except InvalidOperatorError as exc:
            raise InvalidOperatorError(f"candidate {i}: {exc}") from exc
    stack = np.array(mats).reshape(-1, 4, 4)
    # [i, j] = |m_i m_j - m_j m_i|, kept for i < j; NaN fails > 0 and drops out
    norms = abs(stack[:, None] @ stack - stack @ stack[:, None]).max(axis=(-2, -1))
    norms = np.where(np.triu(norms > 0, 1), norms, 0.0)
    worst = float(norms.max(initial=0.0))
    worst_pair = tuple(map(int, np.argwhere(norms == worst)[0])) if worst > 0 else None
    return ClosureReport(worst <= COMMUTATOR_TOL, worst, worst_pair, COMMUTATOR_TOL)


# -- finite matrix groups --------------------------------------------------------


class FiniteMatrixGroup:
    """Deduplicated element list with its Cayley table (index-valued); its size is ``order``."""

    __slots__ = ("elements", "labels", "table")

    def __init__(self, elements: list, labels: list, table: np.ndarray):
        self.elements, self.labels, self.table = elements, labels, table

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        every = np.arange(self.order)
        (hits,) = np.nonzero(((self.table == every) & (self.table.T == every)).all(axis=1))
        if not len(hits):
            raise ValueError("group has no identity element")
        return int(hits[0])

    def element_order(self, i: int) -> int:
        e = self.identity_index
        j, n = i, 1
        while j != e:
            j = self.table[j, i]
            n += 1
            if n > self.order:
                raise ValueError("element order exceeds group order; table is broken")
        return n


#: products looked up per keyed call while building a Cayley table or
#: closing a group; a call's temporaries hold _TABLE_BLOCK * n key gaps
_TABLE_BLOCK = 64
#: unit-modulus weights of the lookup key Re(w . row)
_KEY_WEIGHTS = np.exp(1j * np.arange(1, 17))


def _key(rows: np.ndarray) -> np.ndarray:
    """Key of each row of a (n, 16) or (n, 4) stack; NaN, which matches any key, on overflow."""
    key = (rows @ _KEY_WEIGHTS[:rows.shape[-1]]).real
    return np.where(np.isfinite(key), key, np.nan)


def _matches(stored: np.ndarray, keys: np.ndarray, x: np.ndarray, tol: float):
    """Boolean matrix, [i, j] set where x[i] is within max-entry distance
    ``tol`` of stored[j], whose keys are ``keys``.  Only pairs with keys within
    16 ``tol`` (|w| = 1) plus ``KEY_ROUNDING`` of the 1-norm (ten times a
    key's rounding), or NaN, get the full entry test."""
    reach = 16 * tol + KEY_ROUNDING * (abs(x).sum(axis=-1) + 16 * tol)
    hits = ~(abs(keys - _key(x)[:, None]) > reach[:, None])
    i, j = np.divmod(np.flatnonzero(hits), len(keys))
    hits[i, j] = (abs(stored[j] - x[i]) <= tol).all(axis=-1)
    return hits


def _lookup(stored: np.ndarray, keys: np.ndarray, x: np.ndarray, tol: float):
    """Index of the first row of ``stored`` within ``tol`` of each row of x, or -1, by key."""
    hits = _matches(stored, keys, x, tol)
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)


def _build_table(stack: np.ndarray, tol: float, hint=None) -> np.ndarray:
    """Cayley table of a (n, 4, 4) stack: [i, j] is the first element within max-entry distance
    ``tol`` of g_i g_j.  Each block of rows takes one stacked product: ``_TABLE_BLOCK // 16``
    rows, or in a group of under 16 elements as many as make ``_TABLE_BLOCK`` products.
    A block keeps its rows of the table ``hint`` if each product lies within DEDUP_TOL (at most
    ``tol``) of its hinted element and no two elements lie within 2 ``tol`` (plus rounding), so the
    hinted element is the only match; any other block is looked up by key."""
    n = len(stack)
    flat = stack.reshape(n, 16)
    keys = _key(flat)
    if hint is not None and any(  # each element's first match within 2 tol must be itself
            (_lookup(flat, keys, flat[i:i + _TABLE_BLOCK], 2 * tol * (1 + KEY_ROUNDING))
             != np.arange(i, min(i + _TABLE_BLOCK, n))).any() for i in range(0, n, _TABLE_BLOCK)):
        hint = None
    table, rows = np.empty((n, n), dtype=int), max(_TABLE_BLOCK // 16, _TABLE_BLOCK // max(1, n))
    for i in range(0, n, rows):
        prods = stack[i:i + rows, None] @ stack
        if hint is not None and (abs(stack[hint[i:i + rows]] - prods) <= DEDUP_TOL).all():
            table[i:i + rows] = hint[i:i + rows]
            continue
        prods = prods.reshape(-1, 16)
        found = np.concatenate([_lookup(flat, keys, prods[j:j + _TABLE_BLOCK], tol)
                                for j in range(0, len(prods), _TABLE_BLOCK)])
        if (found < 0).any():
            raise ValueError("element set is not closed under products")
        table[i:i + rows] = found.reshape(-1, n)
    return table


def group_from_elements(elements, labels=None, tol: float = GROUP_TOL) -> FiniteMatrixGroup:
    """Build a group from an explicit closed element list, verifying closure."""
    mats = [np.asarray(m, dtype=complex) for m in elements]
    labels = [f"g{i}" for i in range(len(mats))] if labels is None else list(labels)
    if len(labels) != len(mats):
        raise ValueError(f"{len(labels)} labels for {len(mats)} elements")
    for i in (i for i, m in enumerate(mats) if m.shape != (4, 4)):
        raise ValueError(f"element {i} is not a 4x4 matrix")
    group = FiniteMatrixGroup(mats, labels, _build_table(np.array(mats), tol))
    (lost,) = np.nonzero(~(group.table == group.identity_index).any(axis=1))
    if len(lost):
        raise ValueError(f"element {lost[0]} has no inverse")
    return group


def generate_group(generators, cap: int = GENERATION_CAP, labels=None) -> FiniteMatrixGroup:
    """Close a generator set under products and inverses.

    Breadth-first from the identity: each element is multiplied on the
    right by every generator and every generator inverse, and a product
    within max-entry distance ``10 * DEDUP_TOL`` of an element found before
    it is a duplicate.  Raises :class:`CapExceeded` once more than ``cap``
    distinct elements appear, or once the spectrum of a new element proves
    infinite order (``_screen``; ``witness`` names it).  The generators and
    their inverses are screened this way before the walk starts, under the
    names that the walk's first block gives them.

    The walk takes its queue in blocks of ``_TABLE_BLOCK // len(steps)``
    parents: one stacked product, a lookup among the stored elements and one
    among the block's earlier products, then a greedy pass in discovery
    order.  A lookup fully tests only rows with keys ``Re(w . row)`` within 16
    tolerances plus rounding, as every match has, so the result is exact.

    The walk notes the element each product became, and the table it composes from them, as
    g_i g_j = (g_i g_parent(j)) step(j), is ``_build_table``'s hint.
    """
    gens = [np.asarray(m, dtype=complex) for m in generators]
    labels = [f"g{i}" for i in range(len(gens))] if labels is None else list(labels)
    if len(labels) != len(gens):
        raise ValueError(f"{len(labels)} labels for {len(gens)} generators")
    for i, g in enumerate(gens):
        if g.shape != (4, 4):
            raise ValueError(f"generator {i} is not a 4x4 matrix")
        if not _invertible(np.linalg.det(g)):
            raise ValueError(f"generator {i} is not invertible")
    mats = np.reshape([m for g in gens for m in (g, np.linalg.inv(g))], (-1, 4, 4))
    steps = [step for name in labels for step in (name, f"{name}^-1")]
    _screen(mats.reshape(-1, 16), steps, cap)

    flat, tol = np.eye(4, dtype=complex).reshape(1, 16), 10 * DEDUP_TOL
    keys, names, done = _key(flat), ["I"], 0
    right, origin = [], []  # each product's element, by blocks; each element's (parent, step)
    while done < len(flat):
        parents = flat[done:done + max(1, _TABLE_BLOCK // max(1, len(steps)))].reshape(-1, 4, 4)
        prods = (parents[:, None] @ mats).reshape(-1, 16)
        at = _lookup(flat, keys, prods, tol)
        dup = at >= 0
        inner = _matches(prods, _key(prods), prods, tol)
        for later, earlier in zip(*np.nonzero(np.tril(inner, -1))):
            if not dup[earlier]:
                dup[later] = True
        new = np.flatnonzero(~dup)
        names += [_compose_label(names[done + j // len(steps)], steps[j % len(steps)])
                  for j in new]
        _screen(prods[new], names[len(names) - len(new):], cap)
        if len(names) > cap:
            raise CapExceeded(cap)
        # a merged product is the first new product it matches, which came before it
        at[new] = len(flat) + np.arange(len(new))
        merged = np.flatnonzero(dup & (at < 0))
        if len(merged):
            at[merged] = at[new[inner[merged][:, new].argmax(axis=1)]]
        right.append(at.reshape(len(parents), len(steps)))
        origin += [(done + j // len(steps), j % len(steps)) for j in new]
        flat = np.concatenate([flat, prods[new]])
        keys = np.concatenate([keys, _key(prods[new])])
        done += len(parents)
    stack, right = flat.reshape(-1, 4, 4), np.concatenate(right)
    table = np.empty((len(stack), len(stack)), dtype=int)
    table[:, 0] = np.arange(len(stack))  # element 0 is I
    for j, (parent, step) in enumerate(origin, 1):
        table[:, j] = right[table[:, parent], step]
    return FiniteMatrixGroup(list(stack), names, _build_table(stack, tol, table))


def _screen(rows: np.ndarray, labels: list, cap: int) -> None:
    """Raise :class:`CapExceeded` if the spectrum of a row of ``rows`` (n, 16),
    named ``labels[i]``, proves it has infinite order.  ``generate_group``
    screens its generators and their inverses first, then each new element.

    Finite order puts every eigenvalue on the unit circle, so |tr g| <= 4,
    and at +-1 if g is Hermitian.  A change of up to ``10 * DEDUP_TOL`` per
    entry, the walk's merge distance, moves the trace, and each eigenvalue of
    a Hermitian g by a Hermitian change, by at most four times that (Weyl's
    inequality); ``KEY_ROUNDING`` of the row's 1-norm covers rounding.
    """
    g = rows.reshape(-1, 4, 4)
    slack = 40 * DEDUP_TOL + KEY_ROUNDING * abs(rows).sum(axis=-1)
    trace, off = abs(np.einsum("nii->n", g)), np.zeros(len(g))
    (herm,) = np.nonzero((g == _dagger(g)).all(axis=(-2, -1)) & np.isfinite(rows).all(axis=-1))
    off[herm] = abs(abs(np.linalg.eigvalsh(g[herm])) - 1).max(axis=-1)
    (hits,) = np.nonzero((trace > 4 + slack) | (off > slack))
    if len(hits):
        i = hits[0]
        why = (f"has |tr| {trace[i]:.9g} > 4" if trace[i] > 4 + slack[i]
               else f"is Hermitian with an eigenvalue modulus off 1 by {off[i]:.3g}")
        raise CapExceeded(cap, f"{labels[i]} {why}: infinite order")


def _compose_label(a: str, b: str) -> str:
    if a == "I":
        return b
    if b == "I":
        return a
    return f"{a}·{b}"


class GroupIdentification(NamedTuple):
    """A group's name (orders <= 4 resolved exactly) and its order."""

    name: str
    order: int


def identify_group(group: FiniteMatrixGroup) -> GroupIdentification:
    """Name the group from its Cayley table: trivial/Z2/Z3 by order, K4 vs Z4
    at order 4, and beyond that its sorted element orders, as
    ``"order-n profile [...]"``."""
    n = group.order
    orders = sorted(group.element_order(i) for i in range(n))
    name = {1: "trivial", 2: "Z2", 3: "Z3"}.get(n, f"order-{n} profile {orders}")
    if n == 4:  # Klein group iff every non-identity element is its own inverse
        name = "K4" if all(o <= 2 for o in orders) else "Z4"
    return GroupIdentification(name, n)


# -- orbits of dual spinors --------------------------------------------------------


class OrbitPartition(NamedTuple):
    """Partition of supplied duals into orbit classes."""

    classes: list
    representatives: list
    orbit_sizes: list


@np.errstate(over="ignore", invalid="ignore")  # a non-finite image is refused below
def orbit_partition(group: FiniteMatrixGroup, duals, tol: float = GROUP_TOL) -> OrbitPartition:
    """Group the supplied dual spinors into orbit classes.

    Duals are row covectors of 4 entries, as :func:`~spinorlab.duals.dual_of` returns
    them, so the group acts on the right, ``psi -> psi @ g``.
    Classes open in input order, so they are listed by smallest index and the
    representative is the first member; a dual joins the first open class with
    an image within max-entry distance ``tol`` (absolute) of it.  ``orbit_sizes``
    counts the distinct images of each representative, which divides the group order
    when no two images merge within ``tol``.  A non-finite dual raises ValueError, and a
    representative with a non-finite image OverflowError (a member's are not formed).
    Open duals are taken ``_TABLE_BLOCK // order`` at a time, matched by one keyed lookup.
    """
    rows = np.array([np.asarray(d, complex).reshape(4) for d in duals],
                    dtype=complex).reshape(-1, 4)
    if not np.isfinite(rows).all():
        raise ValueError(f"dual {np.isfinite(rows).all(axis=-1).argmin()} is not finite")
    mats = np.array(group.elements)

    classes, sizes = [], []
    keys, unassigned = _key(rows), np.ones(len(rows), dtype=bool)
    while unassigned.any():
        block = np.flatnonzero(unassigned)[:max(1, _TABLE_BLOCK // len(mats))]
        images = (rows[block, None, None] @ mats)[:, :, 0]
        hits = _matches(rows, keys, images.reshape(-1, 4), tol)
        hits = hits.reshape(len(block), len(mats), -1).any(axis=1)
        opened = []
        for r, i in enumerate(block):
            if unassigned[i]:
                hits[r, i] = True  # a member even if no image lands on it; the block closes
                members = np.flatnonzero(unassigned & hits[r])
                unassigned[members] = False
                classes.append(members.tolist())
                opened.append(r)
        images = images[opened]
        finite = np.isfinite(images).all(axis=(1, 2))
        if not finite.all():
            raise OverflowError(f"dual {block[opened][finite.argmin()]} is too large: "
                                "an image overflows")
        # near[r, i, j]: image j of row r is within tol of image i, so near[r, i, i] is set
        near = (abs(images[:, None] - images[:, :, None]) <= tol).all(axis=-1)
        sizes += (near.argmax(axis=-1) == np.arange(len(mats))).sum(axis=-1).tolist()
    return OrbitPartition(classes, [cls[0] for cls in classes], sizes)


# -- Clifford group hierarchy ---------------------------------------------------------


class MembershipRecord(NamedTuple):
    """Flags for the chain Spin+ ⊂ Pin ⊂ Lipschitz ⊂ units of Cl(1,3)."""

    even: bool
    invertible: bool
    in_gamma: bool
    in_pin: bool
    in_spin: bool
    in_spin_plus: bool
    norm: complex


#: coefficient slots of the generators e_0 .. e_3; slot c of x e_mu is
#: x[_E_SLOTS[mu, c]] * _E_SIGNS[0, mu, c], and of hat(x) e_mu the same with _E_SIGNS[1]
_VECTOR_SLOTS = [1 << mu for mu in range(4)]
_E_SLOTS = _XOR[_VECTOR_SLOTS]
_E_SIGNS = _SP[_E_SLOTS, np.arange(16)].astype(int) * np.where(_ODD[_E_SLOTS], [[[1]], [[-1]]], 1)
_LAST = [(None, None)]  # the last x given to _pin_data and its data, stored as one pair


def _times_generators(c: np.ndarray) -> np.ndarray:
    """c e_mu and hat(c) e_mu (..., 2, 4, 16) of coefficient rows c (..., 16), with the
    bits of _product: e_mu is a unit blade, and + 0 turns each -0 into the +0 its sum gives."""
    return c[..., None, _E_SLOTS] * _E_SIGNS + 0


def _pin_data(x: Multivector) -> tuple:
    """All membership(x) and twisted_adjoint(x) compare with tol, as computed (an exact mass may
    not fit a float): x's odd mass; x * rev(x)'s scalar and off-scalar mass; and, None if x has no
    inverse, x e_mu x^-1 and hat(x) e_mu x^-1 (2, 4, 16) with the bits of (x * e_mu) * x^-1, each
    row's mass off grade 1, and for x e_mu x^-1 its max and the max |imag| on grade 1."""
    last, data = _LAST[0]
    if last is x:
        return data
    norm_mv = x * x.reversion()
    scalars = abs(x._c[_ODD]).sum(), norm_mv._c[0], abs(norm_mv._c[1:]).sum()
    try:
        x_inv = multivector_inverse(x)
    except ZeroDivisionError:
        data = *scalars, None
    else:
        images = _product(_times_generators(x._c), x_inv._c)
        stray = abs(np.where(_GRADES == 1, 0, images)).sum(axis=-1)
        data = *scalars, (images, stray, stray[0].max(),
                          abs(images[0][:, _VECTOR_SLOTS].imag).max())
    _LAST[0] = x, data
    return data


def membership(x: Multivector, tol: float = ZERO_TOL) -> MembershipRecord:
    """Classify x within the Clifford group hierarchy.

    in_gamma requires conjugation x e_mu x^-1 to land on grade 1 with real
    coefficients for all four generators; in_pin additionally pins the
    reversion norm x * rev(x) to a +-1 scalar; in_spin adds evenness and
    in_spin_plus picks the +1 norm sheet.  x is measured once by ``_pin_data``,
    shared with a following ``twisted_adjoint(x)``, which calls this function
    for its Pin test; here only tol is compared.
    """
    odd, scalar, off_scalar, conjugates = _pin_data(x)
    even = bool(odd <= tol)
    norm = complex(scalar)
    if conjugates is None:
        return MembershipRecord(even, False, False, False, False, False, norm)
    _, _, worst_stray, worst_imag = conjugates
    in_gamma = bool(worst_stray <= tol and worst_imag <= tol)
    unit = bool(off_scalar <= tol) and (abs(norm - 1) <= tol or abs(norm + 1) <= tol)
    in_pin = in_gamma and unit
    in_spin = in_pin and even
    in_spin_plus = in_spin and abs(norm - 1) <= tol
    return MembershipRecord(even, True, in_gamma, in_pin, in_spin, in_spin_plus, norm)


def twisted_adjoint(x: Multivector) -> np.ndarray:
    """Lorentz matrix of a Pin element via grade-twisted conjugation.

    Returns Lambda with hat(x) e_nu x^-1 = Lambda[mu, nu] e_mu, where hat is
    the grade involution (so odd elements act with the extra sign).  x and -x
    produce the same Lambda, and Lambda^T g Lambda = g.  It re-reads membership(x)'s data.
    """
    if not membership(x).in_pin:
        raise ValueError("twisted_adjoint requires a Pin element")
    (_, images), (_, stray) = _pin_data(x)[3][:2]
    if stray.max() > CONJUGATION_TOL:
        raise ValueError(f"conjugation left grade 1 by {stray[stray > CONJUGATION_TOL][0]:.3e}")
    return images[:, _VECTOR_SLOTS].real.T


def exp_bivector(b: Multivector) -> Multivector:
    """Exponential of a pure bivector, the generator of rotors.

    The Weyl image of a bivector is block diagonal with traceless 2x2
    chiral blocks A, and A @ A = -det(A) I, so each block has the closed
    form exp(A) = cosh(s) I + sinh(s)/s A with s^2 = -det(A) (one block
    per commuting simple part).  Real bivectors land in Spin+(1,3).
    """
    if any(m.bit_count() != 2 for m, _ in b.items()):
        raise ValueError("exp_bivector requires a pure grade-2 argument")
    m = _matrices(b._c.astype(complex, copy=False))
    out = np.zeros((4, 4), dtype=complex)
    for blk in (slice(0, 2), slice(2, 4)):
        a = m[blk, blk]
        (a00, a01), (a10, a11) = a.tolist()
        s = cmath.sqrt(a01 * a10 - a00 * a11)
        sinhc = cmath.sinh(s) / s if s else 1
        out[blk, blk] = cmath.cosh(s) * _I2 + sinhc * a
    return Multivector._of(_coefficients(out))
