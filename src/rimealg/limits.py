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
from math import exp, log
from statistics import linear_regression
from typing import Sequence

from .core import Operator
from .families import MuVector

__all__ = ["LimitCurve", "unitary_limit_curve", "exp_formula_check"]


@dataclass(frozen=True)
class LimitCurve:
    """Max deviation of beta_ij from its limit grid, per sampled beta.

    ``betas`` must be strictly decreasing and positive; ``slope`` is the
    log-log least-squares slope of deviation against beta (the analytic
    statement predicts 1: the error is first order in beta).
    """

    betas: tuple[float, ...]
    deviations: tuple[float, ...]
    slope: float

    def __post_init__(self):
        if any(b <= 0 for b in self.betas):
            raise ValueError("beta samples must be positive")
        if any(a <= b for a, b in zip(self.betas, self.betas[1:])):
            raise ValueError("beta samples must be strictly decreasing")


def _fit_slope(betas: Sequence[float], deviations: Sequence[float]) -> float:
    points = [(log(b), log(d)) for b, d in zip(betas, deviations) if d > 0]
    if len({x for x, _ in points}) < 2:  # repeated betas are rejected by LimitCurve
        return float("nan")
    xs, ys = zip(*points)
    return linear_regression(xs, ys).slope


def unitary_limit_curve(mu: MuVector, betas: Sequence[float]) -> LimitCurve:
    """Deviation of beta_ij(beta) from the skew grid along phi_i = 1 + beta*mu_i.

    For each sampled beta the grid beta_ij = beta*phi_i/(phi_i - phi_j) is
    evaluated exactly (the float beta is promoted to the rational it
    represents) and compared entrywise with the limit grid 1/(mu_i - mu_j);
    the curve records the max over i != j.  Deviations are first order in
    beta, so the fitted log-log slope is 1.
    """
    values = mu.mu
    n = mu.n
    deviations = []
    for b in betas:
        bq = Fraction(b)
        phi = [1 + bq * m for m in values]
        if len(set(phi)) != n or any(v == 0 for v in phi):
            raise ValueError(f"phi collision at beta = {b}: {phi}")
        worst = Fraction(0)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                bij = bq * phi[i] / (phi[i] - phi[j])
                limit = Fraction(1) / (values[i] - values[j])
                dev = abs(bij - limit)
                if dev > worst:
                    worst = dev
        deviations.append(float(worst))
    curve = LimitCurve(tuple(float(b) for b in betas), tuple(deviations),
                       _fit_slope(betas, deviations))
    return curve


def exp_formula_check(r: Operator, h: float, terms: int) -> float:
    """Max deviation of the truncated series exp(h*r) from its closed form.

    The input must satisfy r^2 = -r (closed form I + (1 - e^(-h)) r) or
    r^2 = 0 (closed form I + h*r; at h = 1 this is the familiar I + r).
    Both relations are verified exactly before any float enters.
    """
    if r.arity != 2:
        raise ValueError("exp_formula_check expects an arity-2 operator")
    square = r @ r
    if (square + r).is_zero():
        coeff = 1.0 - exp(-h)
    elif square.is_zero():
        coeff = h
    else:
        raise ValueError("operator is neither idempotent (r^2 = -r) nor nilpotent (r^2 = 0)")
    import numpy as np  # here, not at module level, so that importing rimealg skips numpy

    rf = r.to_float()
    size = rf.shape[0]
    eye = np.eye(size)
    term = eye
    acc = eye.copy()
    for k in range(1, terms + 1):
        term = term @ rf * (h / k)
        acc = acc + term
    target = eye + coeff * rf
    return float(np.max(np.abs(acc - target)))
