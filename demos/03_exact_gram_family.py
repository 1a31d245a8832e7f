"""
The exact Gram family behind the solver
=======================================

"""

# every ternary quartic f has a 6-dimensional affine family of symmetric
# Gram matrices G(lambda) with m^T G(lambda) m = f for the monomial vector
# m = (x^2, y^2, z^2, yz, xz, xy); the family is built in exact arithmetic,
# each G a (6, 6) numpy array of Fractions
from fractions import Fraction

import numpy as np

from quartic_sos import build_family, gram_to_quartic, parse_quartic

f = parse_quartic("x^4 + y^4 + z^4 + x^2*y^2")
family = build_family(f)
print("base Gram matrix rows:")
for row in family.base:
    print("  ", [str(c) for c in row])

# the identity m^T G(lambda) m = f holds exactly at every rational lambda
lam = (Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7), Fraction(1), Fraction(-1, 2))
G = family.matrix_at(lam)
print("gram_to_quartic(G(lambda)) == f:", gram_to_quartic(G) == f)

# a signed representation f = s1 p1^2 + s2 p2^2 + s3 p3^2 is the same thing
# as a rank-3 point of the family; build one side from the other
from quartic_sos import QuadraticForm, lambda_of_gram, representation_to_gram

p1 = QuadraticForm.parse("x^2 + y*z")
p2 = QuadraticForm.parse("y^2 - x*z")
p3 = QuadraticForm.parse("z^2 + x*y")
G_rep = representation_to_gram((1, 1, -1), (p1, p2, p3))
h = gram_to_quartic(G_rep)
print("represented quartic:", h)

# read the lambda coordinates back off the Gram matrix, exactly; shifting
# along a kernel direction moves the coordinates without changing h
from quartic_sos import KERNEL_BASIS

lam_rep = lambda_of_gram(build_family(h), G_rep)
print("lambda of the representation:", [str(v) for v in lam_rep])
G_shift = G_rep + 2 * KERNEL_BASIS[3]
print("same quartic after a kernel shift:", gram_to_quartic(G_shift) == h)
print("shifted lambda:", [str(v) for v in lambda_of_gram(build_family(h), G_shift)])

# mixing the forms by an orthogonal matrix changes nothing: the Gram
# matrix, hence the class, only sees the span of (p1, p2, p3)
H = [
    [Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)],
    [Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)],
    [Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3)],
]
mixed = tuple(
    QuadraticForm(tuple(sum(H[i][j] * p.coeffs[k] for j, p in enumerate((p1, p2, p3))) for k in range(6)))
    for i in range(3)
)
print("orthogonal mixing invariance:",
      np.array_equal(representation_to_gram((1, 1, 1), mixed), representation_to_gram((1, 1, 1), (p1, p2, p3))))
