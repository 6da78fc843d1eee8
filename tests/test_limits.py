"""Float demonstrations: coefficient-grid degeneration and exponential closed forms."""

import math
from fractions import Fraction

import pytest

from rimealg.core import Operator, identity, zero
from rimealg.families import MuVector, PhiVector, classical_rime_r, classical_unitary_r0
from rimealg.limits import LimitCurve, exp_formula_check, unitary_limit_curve

from oracle import transpose


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


def test_exp_formula_idempotent_case():
    r = classical_rime_r(PhiVector((2, 1)))
    assert exp_formula_check(r, 0.5, 30) <= 1e-12


def test_exp_formula_nilpotent_case():
    r0 = classical_unitary_r0(MuVector((0, 1)))
    # series truncates after the linear term, only rounding remains
    assert exp_formula_check(r0, 1.0, 30) <= 1e-12
    assert exp_formula_check(r0, 0.7, 5) <= 1e-12


def test_exp_formula_trivial_and_rejections():
    assert exp_formula_check(zero(2, 2), 1.0, 10) == 0.0
    with pytest.raises(ValueError):
        exp_formula_check(identity(2, 2), 1.0, 10)
    with pytest.raises(ValueError):
        exp_formula_check(identity(2), 1.0, 10)
    # a negative number of terms is refused, not read as the identity alone,
    # and so is a bool or a float, not read as one term or left to range()
    for r in (classical_rime_r(PhiVector((2, 1))), classical_unitary_r0(MuVector((0, 1)))):
        with pytest.raises(ValueError, match="terms must be non-negative, got -3"):
            exp_formula_check(r, 0.5, -3)
        for terms in (True, 2.5):
            with pytest.raises(ValueError, match=r"^terms must be an int, got "):
                exp_formula_check(r, 0.5, terms)


def dense_series_deviation(r, h, terms, coeff):
    """Oracle: the same series on dense float rows, every product summed over all columns."""
    rf = [[float(v) for v in row] for row in r.dense_rows()]
    size = len(rf)
    eye = [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    term, acc = eye, [row[:] for row in eye]
    for k in range(1, terms + 1):
        nxt = []
        for trow in term:
            out = []
            for j in range(size):
                s = 0.0  # a plain loop: sum() of floats rounds differently from Python 3.12 on
                for m in range(size):
                    s += trow[m] * rf[m][j]
                out.append(s * (h / k))
            nxt.append(out)
        term = nxt
        acc = [[a + t for a, t in zip(arow, trow)] for arow, trow in zip(acc, term)]
    return max(abs(acc[i][j] - (eye[i][j] + coeff * rf[i][j]))
               for i in range(size) for j in range(size))


def conjugated(rng):
    """r = M D M^-1 for M = L L^T, L unit lower triangular: -(projector) or a square-zero D.

    M is dense with non-integer entries, so each entry of a product sums up to n^2
    inexact terms and their order matters.
    """
    n = rng.choice((1, 2, 3))
    size = n * n

    def small():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    low = Operator(n, 2, [[1 if i == j else small() if i > j else 0 for j in range(size)]
                          for i in range(size)])
    m = low @ transpose(low)
    nilpotent = rng.random() < 0.5
    if nilpotent:  # only the last column is nonzero, and not on the diagonal
        d = [[small() if j == size - 1 > i else 0 for j in range(size)] for i in range(size)]
    else:
        rank = rng.randint(0, size)
        d = [[-1 if i == j < rank else 0 for j in range(size)] for i in range(size)]
    return m @ Operator(n, 2, d) @ m.inverse(), nilpotent


def test_series_matches_dense_float_oracle(rng):
    cases = [conjugated(rng) for _ in range(40)]
    cases += [(classical_rime_r(PhiVector((3, 2, 1))), False),
              (classical_unitary_r0(MuVector((0, 1, 3))), True)]
    for r, nilpotent in cases:
        h = rng.choice((0.25, 0.5, 0.7, 1.0, 2.5, -1.0))
        coeff = h if nilpotent else 1.0 - math.exp(-h)
        for terms in (0, rng.randint(1, 30)):  # with no term the series stores none of r's cells
            assert exp_formula_check(r, h, terms) == dense_series_deviation(r, h, terms, coeff)


def test_series_ignores_the_order_rows_were_built_in(rng):
    # equal operators give equal floats: from_items with reversed items stores every
    # row's columns in descending order
    for _ in range(20):
        r, _ = conjugated(rng)
        backwards = Operator.from_items(r.n, 2, reversed(list(r.nonzero_items())))
        assert backwards == r
        assert exp_formula_check(backwards, 0.7, 20) == exp_formula_check(r, 0.7, 20)


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
def test_exp_formula_rejects_non_finite_h(h):
    for r in (classical_rime_r(PhiVector((2, 1))), classical_unitary_r0(MuVector((0, 1)))):
        with pytest.raises(ValueError, match="h must be finite"):
            exp_formula_check(r, h, 5)


def test_exp_formula_rejects_overflowing_closed_form():
    # e^800 is past the largest double; the nilpotent closed form has no exponential
    with pytest.raises(ValueError, match="overflows"):
        exp_formula_check(classical_rime_r(PhiVector((2, 1))), -800.0, 5)
    assert exp_formula_check(classical_unitary_r0(MuVector((0, 1))), -800.0, 5) <= 1e-9


def test_series_overflow_reads_nan():
    # the terms overflow to inf - inf in some cells: the deviation is nan, not a finite max
    r = classical_rime_r(PhiVector((2, 1)))
    assert math.isnan(exp_formula_check(r, 1e300, 5))


def test_renormalization_semigroup_law_in_float():
    def beta(h):
        return 1.0 - math.exp(-h)

    for h1, h2 in ((0.5, 0.25), (1.0, 2.0), (0.1, 0.9)):
        lhs = beta(h1 + h2)
        rhs = beta(h1) + beta(h2) - beta(h1) * beta(h2)
        assert abs(lhs - rhs) <= 1e-12
