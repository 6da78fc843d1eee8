"""Float demonstrations: coefficient-grid degeneration and the renormalization law."""

import math
from fractions import Fraction

import pytest

from rimealg.families import MuVector
from rimealg.limits import LimitCurve, unitary_limit_curve


def test_limit_curve_validates_samples():
    LimitCurve((1e-2, 1e-3), (1e-2, 1e-3), 1.0)
    with pytest.raises(ValueError):
        LimitCurve((1e-3, 1e-2), (0.1, 0.2), 1.0)
    with pytest.raises(ValueError):
        LimitCurve((1e-2, -1e-3), (0.1, 0.2), 1.0)


@pytest.mark.parametrize("deviations", [(1.0,), (0.1, 0.01, 0.001), ()])
def test_limit_curve_needs_one_deviation_per_beta(deviations):
    with pytest.raises(ValueError, match="one deviation per beta"):
        LimitCurve((0.1, 0.01), deviations, 1.0)


def test_unitary_limit_two_weights_is_exactly_linear():
    betas = (1e-2, 1e-3, 1e-4)
    curve = unitary_limit_curve(MuVector((0, 1)), betas)
    # (2,1) pair deviates by exactly beta, the (1,2) pair not at all
    assert curve.deviations == betas
    assert abs(curve.slope - 1.0) < 1e-9


def test_unitary_limit_three_weights_decreases_monotonically():
    curve = unitary_limit_curve(MuVector((0, 1, 3)), (1e-1, 1e-2, 1e-3, 1e-4))
    assert all(a >= b for a, b in zip(curve.deviations, curve.deviations[1:]))
    assert abs(curve.slope - 1.0) <= 0.1


def test_unitary_limit_reads_an_iterator_of_betas_once():
    mu = MuVector((0, 1, 3))
    betas = [1e-1, 1e-2, 1e-3, 1e-4]
    expected = unitary_limit_curve(mu, betas)
    assert unitary_limit_curve(mu, iter(betas)) == expected
    assert unitary_limit_curve(mu, (b for b in betas)) == expected
    with pytest.raises(ValueError, match="beta samples must be strictly decreasing"):
        unitary_limit_curve(mu, (b for b in reversed(betas)))


@pytest.mark.parametrize("betas, message", [
    ([math.inf], "finite"),
    ([1e-2, math.nan], "finite"),
    ([-1.0], "positive"),
    ([1e-2, 0.0], "positive"),
    ([1e-3, 1e-2], "strictly decreasing"),
    ([1e-2, 1e-2], "strictly decreasing"),
])
def test_unitary_limit_validates_betas_first(betas, message):
    # mu = (0, 1) collides at beta = -1 (phi_2 = 0); the samples are refused before any grid
    with pytest.raises(ValueError, match=f"beta samples must be {message}"):
        unitary_limit_curve(MuVector((0, 1)), betas)
    with pytest.raises(ValueError, match=f"beta samples must be {message}"):
        LimitCurve(tuple(betas), tuple(1.0 for _ in betas), 1.0)


def _inline_deviations(mu, betas):
    # the grid formula written out: beta_ij = beta*phi_i/(phi_i - phi_j) against 1/(mu_i - mu_j)
    out = []
    for b in betas:
        bq = Fraction(b)
        phi = [1 + bq * m for m in mu]
        out.append(float(max(
            (abs(bq * phi[i] / (phi[i] - phi[j]) - Fraction(1) / (mu[i] - mu[j]))
             for i in range(len(mu)) for j in range(len(mu)) if i != j),
            default=Fraction(0))))
    return tuple(out)


@pytest.mark.parametrize("mu, betas", [
    ((5,), (0.5, 0.1)),
    ((0, 1), (1e-2, 1e-3, 1e-4)),
    ((0, 1, 3), (1e-1, 1e-2, 1e-3, 1e-4)),
    ((Fraction(-7, 2), 9, Fraction(1, 3)), (0.25, 3e-3, 1e-6)),
    ((-2, 5, 1, 7), (0.3, 0.05, 1e-3, 2e-6)),
])
def test_unitary_limit_deviations_match_inline_formula(mu, betas):
    mu = tuple(Fraction(m) for m in mu)
    curve = unitary_limit_curve(MuVector(mu), betas)
    assert curve.betas == betas
    assert curve.deviations == _inline_deviations(mu, betas)


def test_unitary_limit_detects_weight_collision():
    # 1 + beta*mu vanishes exactly at mu = -1/beta; beta = 1/64 is an exact float
    with pytest.raises(ValueError):
        unitary_limit_curve(MuVector((0, -64)), (0.015625,))


def test_renormalization_semigroup_law_in_float():
    def beta(h):
        return 1.0 - math.exp(-h)

    for h1, h2 in ((0.5, 0.25), (1.0, 2.0), (0.1, 0.9)):
        lhs = beta(h1 + h2)
        rhs = beta(h1) + beta(h2) - beta(h1) * beta(h2)
        assert abs(lhs - rhs) <= 1e-12
