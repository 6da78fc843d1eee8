"""
Degeneration to the skew grid, and the exponential laws
=======================================================

A float demonstration on top of the exact layer: the coefficient grid
beta_ij(beta) converges to 1/(mu_i - mu_j) at first order along
phi_i = 1 + beta*mu_i.  Then, exactly, the laws that the exponential of r
obeys: r^2 = -r makes I + t r a semigroup under t + s - ts (the
renormalized parameter 1 - e^(-h)), and r0^2 = 0 makes I - r0 the inverse
of I + r0 = exp(r0).  Each law is asserted, so the script fails if one
breaks.
"""

from fractions import Fraction

from rimealg import (
    MuVector,
    PhiVector,
    classical_rime_r,
    classical_unitary_r0,
    identity,
    unitary_limit_curve,
)

betas = [10.0**-k for k in range(1, 6)]
for mu_values in ((0, 1), (0, 1, 3), (-2, 0, 1, 3)):
    curve = unitary_limit_curve(MuVector(mu_values), betas)
    print(f"mu = {mu_values}")
    for b, d in zip(curve.betas, curve.deviations):
        print(f"  beta = {b:8.0e}   max deviation = {d:.6e}")
    print(f"  fitted log-log slope = {curve.slope:.4f}  (first-order convergence)")
    print()

r = classical_rime_r(PhiVector((2, 1)))
r0 = classical_unitary_r0(MuVector((0, 1)))
eye = identity(r.n, 2)
print("exact exponential laws")
for t, s in ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)),
             (Fraction(-3), Fraction(2, 3))):
    holds = (eye + t * r) @ (eye + s * r) == eye + (t + s - t * s) * r
    print(f"  t = {t}, s = {s}: (I + t r)(I + s r) == I + ({t + s - t * s}) r: {holds}")
    assert holds
holds = (eye + r0) @ (eye - r0) == eye
print(f"  (I + r0)(I - r0) == I: {holds}")
assert holds
