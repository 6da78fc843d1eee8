"""Floating-point demonstration of the unitary limit of the coefficient grid.

Everything exact lives in :mod:`rimealg.verify`, the exponential laws that
the idempotent/nilpotent relations integrate to among them.  This module
covers the one statement that is read through floats: the degeneration of
the coefficient grid beta_ij toward its skew-symmetric limit as beta -> 0.
Each deviation is computed exactly and cast to double precision once, so
the reported curve is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, log
from statistics import linear_regression
from typing import Iterable, Sequence

from .families import MuVector, PhiVector, beta_from_phi, unitary_beta

__all__ = ["LimitCurve", "unitary_limit_curve"]


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

