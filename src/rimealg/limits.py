"""Floating-point demonstrations of the limit and exponential statements.

Everything exact lives in :mod:`rimealg.verify`; this module covers the two
statements that are analytic rather than algebraic: the degeneration of the
coefficient grid beta_ij toward its skew-symmetric limit as beta -> 0, and
the exponential formulas that the idempotent/nilpotent relations integrate
to.  Rationals are cast to double precision entry by entry, so the reported
deviations are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, isfinite, isnan, log, nan
from numbers import Integral
from statistics import linear_regression
from typing import Iterable, Sequence

from .core import Operator
from .families import MuVector, PhiVector, beta_from_phi, unitary_beta
from .verify import check_idempotent_exponential, check_nilpotent_exponential

__all__ = ["LimitCurve", "unitary_limit_curve", "exp_formula_check"]


def _check_betas(betas: Sequence[float]) -> None:
    if not all(map(isfinite, betas)):
        raise ValueError("beta samples must be finite")
    if any(b <= 0 for b in betas):
        raise ValueError("beta samples must be positive")
    if any(a <= b for a, b in zip(betas, betas[1:])):
        raise ValueError("beta samples must be strictly decreasing")


@dataclass(frozen=True)
class LimitCurve:
    """Max deviation of beta_ij from its limit grid, per sampled beta.

    ``betas`` must be finite, positive and strictly decreasing, with one
    deviation per beta; ``slope`` is the log-log least-squares slope of
    deviation against beta (the analytic statement predicts 1: the error is
    first order in beta).
    """

    betas: tuple[float, ...]
    deviations: tuple[float, ...]
    slope: float

    def __post_init__(self):
        _check_betas(self.betas)
        if len(self.deviations) != len(self.betas):
            raise ValueError(
                f"expected one deviation per beta, got {len(self.deviations)} for {len(self.betas)}"
            )


def _fit_slope(betas: Sequence[float], deviations: Sequence[float]) -> float:
    points = [(log(b), log(d)) for b, d in zip(betas, deviations) if d > 0]
    if len({x for x, _ in points}) < 2:  # repeated betas are rejected by LimitCurve
        return float("nan")
    xs, ys = zip(*points)
    return linear_regression(xs, ys).slope


def unitary_limit_curve(mu: MuVector, betas: Iterable[float]) -> LimitCurve:
    """Deviation of beta_ij(beta) from the skew grid along phi_i = 1 + beta*mu_i.

    ``betas`` is read once, so an iterator gives the curve of its values.
    They are validated first (finite, positive, strictly decreasing).
    For each sampled beta, the float is promoted to the rational it
    represents and the grid ``beta_from_phi(beta, phi)`` is compared
    entrywise, exactly, with the limit grid ``unitary_beta(mu)``; the curve
    records the max over i != j.  Deviations are first order in beta, so the
    fitted log-log slope is 1.
    """
    betas = tuple(betas)
    _check_betas(betas)
    limit = unitary_beta(mu).beta_offdiag
    deviations = []
    for b in betas:
        bq = Fraction(b)
        phi = [1 + bq * m for m in mu.mu]
        if len(set(phi)) != mu.n or any(v == 0 for v in phi):
            raise ValueError(f"phi collision at beta = {b}: {phi}")
        grid = beta_from_phi(bq, PhiVector(phi)).beta_offdiag
        deviations.append(float(max(abs(x - y) for row, lrow in zip(grid, limit)
                                    for x, y in zip(row, lrow))))
    return LimitCurve(tuple(float(b) for b in betas), tuple(deviations),
                      _fit_slope(betas, deviations))


def exp_formula_check(r: Operator, h: float, terms: int) -> float:
    """Max deviation of the truncated series exp(h*r) from its closed form.

    The input must satisfy r^2 = -r (closed form I + (1 - e^(-h)) r) or
    r^2 = 0 (closed form I + h*r; at h = 1 this is the familiar I + r).
    Both relations are verified exactly before any float enters.  A
    non-finite h, one at which e^(-h) overflows, or a number of terms that
    is not a non-negative int raises ValueError; a series that overflows at
    finite h reads nan.
    """
    if r.arity != 2:
        raise ValueError("exp_formula_check expects an arity-2 operator")
    if not isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    if not isinstance(terms, Integral) or isinstance(terms, bool):
        raise ValueError(f"terms must be an int, got {terms!r}")
    if terms < 0:
        raise ValueError(f"terms must be non-negative, got {terms}")
    if check_idempotent_exponential(r).passed:
        try:
            coeff = 1.0 - exp(-h)
        except OverflowError:
            raise ValueError(f"e^(-h) overflows a float at h = {h}") from None
    elif check_nilpotent_exponential(r).passed:
        coeff = h
    else:
        raise ValueError("operator is neither idempotent (r^2 = -r) nor nilpotent (r^2 = 0)")
    # term rows keep ascending columns: every product entry sums its terms in the
    # order of a dense row-by-column product, however r's rows were built
    rf = [{c: float(v) for c, v in row.items()} for row in r.rows]
    term = [{i: 1.0} for i in range(len(rf))]
    acc = [{i: 1.0} for i in range(len(rf))]
    for k in range(1, terms + 1):
        scale = h / k
        nxt = []
        for trow, arow in zip(term, acc):
            prod = {}
            for m, tv in trow.items():
                for j, rv in rf[m].items():
                    prod[j] = prod.get(j, 0.0) + tv * rv
            nxt.append({j: prod[j] * scale for j in sorted(prod)})
            for j, v in nxt[-1].items():
                arow[j] = arow.get(j, 0.0) + v
        term = nxt
    # the closed form is I + coeff*r; a cell stored in neither acc nor r deviates by 0
    deviations = [
        abs(arow.get(j, 0.0) - ((1.0 if i == j else 0.0) + coeff * rrow.get(j, 0.0)))
        for i, (arow, rrow) in enumerate(zip(acc, rf))
        for j in arow.keys() | rrow.keys()
    ]
    return nan if any(map(isnan, deviations)) else max(deviations)
