"""A first walk through the spacetime algebra Cl(1,3).

Multivectors are dictionaries of blade coefficients; the geometric product
handles signs and the metric automatically.  Run this file directly.
"""

from fractions import Fraction

from spinorlab import blade, gamma, involution, scalar

# Generators square to the metric signs (+1, -1, -1, -1).
for mu in range(4):
    print(f"gamma{mu}^2 =", gamma(mu) * gamma(mu))

# Orthogonal generators anticommute, so their product is a bivector blade.
print("\ngamma0 * gamma1 =", gamma(0) * gamma(1))
print("gamma1 * gamma0 =", gamma(1) * gamma(0))

# The algebra is happy with exact rational coefficients.
x = scalar(Fraction(1, 2)) + Fraction(3, 4) * blade((0, 1))
print("\nexact element:", x)
print("its square:   ", x * x)

# Grade structure: the grade involution splits a mixed element into its
# even and odd parts.
volume = blade((0, 1, 2, 3))
mixed = scalar(2) + gamma(1) + 5 * blade((0, 3)) + volume
flipped = involution("grade", mixed)
print("even part of mixed:", 0.5 * (mixed + flipped))
print("odd part of mixed: ", 0.5 * (mixed - flipped))

# The three canonical involutions flip signs grade by grade.
b = blade((0, 1))
print("\nreversion(e01)      =", involution("reversion", b))
print("grade_involution(e2) =", involution("grade", gamma(2)))
print("clifford_conj(e0123) =", involution("clifford_conj", volume))

# Two square roots of +-1 at the top grade: the volume element squares to
# -1, the chiral element i*e0123 squares to +1.
chiral = 1j * volume
print("\nvolume^2 =", volume * volume)
print("chiral^2 =", chiral * chiral)
