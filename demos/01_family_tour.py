"""
Tour of the matrix families
===========================

Builds one small member of every family and prints it, with the parameter
grid that generated it.
"""

from fractions import Fraction

from rimealg import (
    FamilySpec,
    MuVector,
    PhiVector,
    beta_from_phi,
    build,
    describe,
    unitary_beta,
)


def show(op, title):
    print(title)
    for row in op.dense_rows():
        print("  [" + ", ".join(f"{str(v):>5}" for v in row) + "]")
    print()


phi = PhiVector((2, 1))
params = beta_from_phi(3, phi)
print("coefficient grid for beta=3, phi=(2,1):")
for i in (1, 2):
    print("  ", [str(params.entry(i, j)) for j in (1, 2)])
print("pair sum beta_12 + beta_21 =", params.entry(1, 2) + params.entry(2, 1))
print()

specs = [
    FamilySpec("rime-quantum", 2, beta=3, phi=(2, 1)),
    FamilySpec("rime-unitary", 2, mu=(0, 1)),
    FamilySpec("cg", 2, q2inv=-2, p=1),
    FamilySpec("classical-rime", 2, phi=(2, 1)),
    FamilySpec("classical-cg", 2),
    FamilySpec("classical-unitary", 2, mu=(0, 1)),
    FamilySpec("boundary", 2),
]
for spec in specs:
    show(build(spec), str(describe(spec)))

# the skew grid is the beta -> 0 limit of the quantum one
mu = MuVector((0, 1, 3))
skew = unitary_beta(mu)
print("skew grid 1/(mu_i - mu_j) for mu=(0,1,3):")
for i in (1, 2, 3):
    print("  ", [str(skew.entry(i, j)) for j in (1, 2, 3)])

small = beta_from_phi(Fraction(1, 1000), PhiVector(tuple(1 + Fraction(1, 1000) * m for m in mu.mu)))
print("same grid from beta=1/1000 and phi_i = 1 + beta*mu_i (entry (2,1)):")
print("  ", small.entry(2, 1), "vs limit", skew.entry(2, 1))
