"""
One solution, two coordinate systems
====================================
"""

from fractions import Fraction

from rimealg import (
    FamilySpec,
    PhiVector,
    beta_from_phi,
    build,
    classical_cg_r,
    classical_rime_r,
    conjugate_pair,
    hecke_multiplicities,
    rime_from_beta,
    x_matrix,
)

beta = Fraction(3)
phi = PhiVector((2, 1))

# the basis-change matrix is built from elementary symmetric polynomials of
# the weights, one omitted per row; its determinant is the product of
# pairwise differences, so distinct weights keep it invertible
x = x_matrix(phi)
print("X =", x.dense_rows(), " det =", x.det())

cg = build(FamilySpec("cg", 2, q2inv=1 - beta, p=1))
rime = rime_from_beta(beta_from_phi(beta, phi))
moved = conjugate_pair(cg, x)
print("conjugated normal form equals the rime matrix:", moved == rime)

# same statement one level down, for the classical matrices
r = classical_rime_r(phi)
moved_r = conjugate_pair(classical_cg_r(2), x)
print("conjugated classical normal form equals r:    ", moved_r == r)

# the conjugation is a similarity, so spectra agree before moving anything:
# both are Hecke with eigenvalues 1 and beta - 1, each with the same multiplicity
print("multiplicities cg  :", hecke_multiplicities(cg, beta))
print("multiplicities rime:", hecke_multiplicities(rime, beta))

# a bigger instance, exactly, in a blink
phi5 = PhiVector((7, 5, 3, 2, 1))
big = conjugate_pair(build(FamilySpec("cg", 5, q2inv=1 - beta, p=1)), x_matrix(phi5))
print("n=5 conjugation matches:", big == rime_from_beta(beta_from_phi(beta, phi5)))
