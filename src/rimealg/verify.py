"""Exact verification of the identities satisfied by the matrix families.

Quantum side: the Yang-Baxter equation in braid form, the Hecke quadratic
relation with its eigenvalue multiplicities, structural classification of
the zero pattern (ice / rime / strict rime), basis equivalence with the
Cremmer-Gervais solution, and the linearity P*Rhat = I + beta*r connecting
a solution to its classical limit.  Classical side: the classical
Yang-Baxter equation together with its associative splitting, the
homogeneous and non-homogeneous associative variants, braid identities,
and the idempotent/nilpotent exponential laws.

Every check is exact: a report passes only when its residual vanishes
identically over the rationals.  Failing reports carry the
lexicographically first nonzero residual entry as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Union

from .core import (
    LEGS,
    Operator,
    _chain_sum,
    _conjugate_minus,
    _require_space,
    _scaled_rows,
    as_rational,
    embed,
    flip21,
    identity,
    permutation,
)
from .families import (
    FAMILY_TAGS,
    FamilySpec,
    GeneralRimeData,
    MuVector,
    PhiVector,
    RimeParams,
    beta_from_phi,
    boundary_b,
    build,
    classical_cg_r,
    classical_rime_r,
    classical_unitary_r0,
    cremmer_gervais,
    describe,
    rime_from_beta,
    unitary_beta,
    x_matrix,
)

__all__ = [
    "VerificationReport",
    "StructureClass",
    "check_ybe",
    "check_hecke",
    "hecke_multiplicities",
    "assoc_A",
    "assoc_Aprime",
    "check_cybe",
    "check_nonhomogeneous_acybe",
    "check_homogeneous_acybe",
    "check_tilde_relations",
    "check_braid_identities",
    "check_idempotent_exponential",
    "check_nilpotent_exponential",
    "check_quantization",
    "check_equivalence_quantum",
    "check_equivalence_classical",
    "classify_structure",
    "check_beta_constancy",
    "run_checks",
    "run_suite",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact check.

    ``passed`` is true iff every residual involved is identically zero;
    ``max_residual`` is the largest absolute residual entry and ``witness``
    the first nonzero one as (row multi-index, column multi-index, value).
    ``metadata`` records the parameters and, for compound checks, which
    sub-relation failed.
    """

    name: str
    passed: bool
    max_residual: Fraction
    witness: Optional[tuple]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StructureClass:
    """Zero-pattern classification of an arity-2 operator.

    ``tag`` is one of ice (column index set equals the row index set on
    every nonzero entry), rime (column set contained in the row set),
    strict-rime (rime with alpha_ij * gamma_ij nonzero for all i != j) or
    none.  ``data`` holds the extracted coefficients whenever the pattern
    is rime.
    """

    tag: str
    data: Optional[GeneralRimeData]


def _verdict(name: str, parts, metadata=None) -> VerificationReport:
    """Combine named residual operators into one report."""
    meta = dict(metadata or {})
    max_residual = _ZERO
    witness = None
    for part_name, res in parts:
        m = res.max_abs()
        if m > max_residual:
            max_residual = m
        if m and witness is None:
            row, col, value = res.first_nonzero()
            witness = (row, col, value)
            if len(parts) > 1:
                meta["failed_part"] = part_name
    return VerificationReport(name, max_residual == 0, max_residual, witness, meta)


def _quadratic_residual(a: Operator, c1, c0) -> Operator:
    """The exact operator a a + c1 a + c0 I, as one chain sum in ints (see core._chain_sum)."""
    d, (rows,) = _scaled_rows(a)
    terms = [(1, (rows, rows)), (as_rational(c1), (rows,)), (as_rational(c0), ())]
    return _chain_sum(a.n, a.arity, d, terms)


# -- the arity-3 identities, as chain terms over the legs of one operator ------

# each identity is a table of terms (c, legs); leg 0 is r12, 1 is r13 and 2 is r23
_YBE = ((1, (0, 2, 0)), (-1, (2, 0, 2)))
_BRAID = ((1, (0, 1, 2)), (-1, (2, 1, 0)))
_A = ((1, (1, 0)), (-1, (0, 2)), (1, (2, 1)))
_A_PRIME = ((1, (0, 1)), (-1, (2, 0)), (1, (1, 2)))
_CYBE = _A_PRIME + tuple((-c, legs) for c, legs in _A)
_SHIFTED_A = _A + ((1, (1,)),)
# the arity-2 companions of the associative identities
_SKEW = "r + r21"
_SHIFTED = "r + r21 - (P - I)"

# each arity-3 check: its report name, its parts as (part name, residual), and
# the acybe variant it reports; a check without a variant reports n instead
_ARITY3 = {
    "ybe": ("ybe", (("ybe", _YBE),), None),
    "cybe": ("cybe", (("cybe", _CYBE),), None),
    "nonhomogeneous-acybe": ("acybe", (("A(r) = -r13", _SHIFTED_A), ("r + r21 = P - I", _SHIFTED)),
                             "non-homogeneous"),
    "homogeneous-acybe": ("acybe", (("A(r) = 0", _A), ("r + r21 = 0", _SKEW)), "homogeneous"),
    "tilde": ("tilde", (("A(rt) = I/4", _SHIFTED_A), ("rt + rt21 = P", _SHIFTED)), None),
    "braid": ("braid", (("r12 r23 r12 = r23 r12 r23", _YBE), ("r12 r13 r23 = r23 r13 r12", _BRAID)),
              None),
}
# skew families (r + r21 = 0) take the homogeneous acybe; their suites use _NILPOTENT
_SKEW_FAMILIES = ("rime-unitary", "classical-unitary", "boundary")


def _leg_sums(r: Operator, *identities) -> list[Operator]:
    """Each identity's sum of c r_l1 ... r_lj over its terms, as an arity-3 operator.

    r is scaled once, at arity 2: D, the lcm of its denominators, and the
    int rows of D r (see core._scaled_rows).  Every leg that a term uses is
    embedded from those rows once, in the order 12, 13, 23; embedding only
    reindexes, so no embedded entry is converted again.  Each identity is
    one chain sum in ints over the legs (see core._chain_sum), so no
    arity-3 product of Fractions is made.
    """
    used = sorted({leg for terms in identities for _, legs in terms for leg in legs})
    d, (rows,) = _scaled_rows(r)
    scaled = Operator._wrap(r.n, r.arity, tuple(rows))
    leg_rows = {leg: embed(scaled, LEGS[leg])._rows for leg in used}
    return [_chain_sum(r.n, 3, d, [(c, [leg_rows[leg] for leg in legs]) for c, legs in terms])
            for terms in identities]


class _LegPass:
    """The residuals of the arity-3 checks ``names`` on one operator, each made once.

    ``names`` are check names: keys of _ARITY3, or "acybe", whose variant
    is the family's, or for an untagged ``r`` (``family`` None) the
    homogeneous one exactly when r + r21 = 0; other names are ignored.  The
    first leg sum asked for sums the identities of every named check in one
    _leg_sums call, so r is scaled and its legs embedded once.  The pair
    residuals are made at their first use.
    """

    def __init__(self, r: Operator, names, family=None):
        self.r = r
        self._names = names
        self._family = family
        self._residuals = {}

    def _key(self, name: str) -> str:
        if name != "acybe":
            return name
        family = self._family
        if family in _SKEW_FAMILIES or (family is None and self._residual(_SKEW).is_zero()):
            return "homogeneous-acybe"
        return "nonhomogeneous-acybe"

    def _residual(self, source) -> Operator:
        done = self._residuals
        if source not in done:
            r = self.r
            if source == _SKEW:
                done[source] = r + flip21(r)
            elif source == _SHIFTED:
                done[source] = self._residual(_SKEW) - (permutation(r.n) - identity(r.n, 2))
            else:
                keys = [self._key(name) for name in self._names
                        if name in _ARITY3 or name == "acybe"]
                identities = dict.fromkeys(source for key in keys for _, source in _ARITY3[key][1]
                                           if not isinstance(source, str))
                done.update(zip(identities, _leg_sums(r, *identities)))
        return done[source]

    def report(self, name: str) -> VerificationReport:
        """The report of the arity-3 check ``name``, which must be one of ``names``."""
        report_name, parts, variant = _ARITY3[self._key(name)]
        meta = {"n": self.r.n} if variant is None else {"variant": variant}
        residuals = [(part, self._residual(source)) for part, source in parts]
        return _verdict(report_name, residuals, meta)


def _check_arity3(r: Operator, name: str) -> VerificationReport:
    return _LegPass(r, (name,)).report(name)


# -- quantum checks -------------------------------------------------------


def check_ybe(rhat: Operator) -> VerificationReport:
    """Braid-form Yang-Baxter equation: R12 R23 R12 = R23 R12 R23 (see _leg_sums)."""
    return _check_arity3(rhat, "ybe")


def check_hecke(rhat: Operator, beta) -> VerificationReport:
    """Quadratic relation Rhat^2 = beta*Rhat + (1 - beta)*I."""
    beta = as_rational(beta)
    residual = _quadratic_residual(rhat, -beta, beta - 1)
    return _verdict("hecke", [("hecke", residual)], {"beta": str(beta)})


def hecke_multiplicities(rhat: Operator, beta) -> tuple[int, int]:
    """Multiplicities of the eigenvalues 1 and beta - 1 of a Hecke operator.

    Uses the projector trace (Rhat - (beta - 1) I) / (2 - beta), which is
    exact and equals the multiplicity of eigenvalue 1 whenever the Hecke
    relation holds and beta != 2.  A non-integer trace therefore signals a
    non-Hecke input.
    """
    beta = as_rational(beta)
    if beta == 2:
        raise ValueError("multiplicities are undefined at beta = 2 (coincident eigenvalues)")
    size = rhat.size
    t = (rhat.trace() - (beta - _ONE) * size) / (2 - beta)
    if t.denominator != 1:
        raise ValueError(f"projector trace {t} is not an integer; operator is not Hecke for beta = {beta}")
    m_plus = int(t)
    return m_plus, size - m_plus


# -- classical checks -----------------------------------------------------


def assoc_A(r: Operator) -> Operator:
    """Associative combination A(r) = r13 r12 - r12 r23 + r23 r13."""
    return _leg_sums(r, _A)[0]


def assoc_Aprime(r: Operator) -> Operator:
    """Mirror combination A'(r) = r12 r13 - r23 r12 + r13 r23."""
    return _leg_sums(r, _A_PRIME)[0]


def check_cybe(r: Operator) -> VerificationReport:
    """Classical Yang-Baxter equation [r12,r23] + [r12,r13] + [r13,r23] = 0.

    Its residual is A'(r) - A(r) for every operator, which is how _CYBE
    states it (see _leg_sums).
    """
    return _check_arity3(r, "cybe")


def check_nonhomogeneous_acybe(r: Operator) -> VerificationReport:
    """Non-homogeneous associative equation A(r) = -r13 with companion r + r21 = P - I."""
    return _check_arity3(r, "nonhomogeneous-acybe")


def check_homogeneous_acybe(r: Operator) -> VerificationReport:
    """Homogeneous associative equation A(r) = 0 with companion skew symmetry r + r21 = 0."""
    return _check_arity3(r, "homogeneous-acybe")


def check_tilde_relations(r: Operator) -> VerificationReport:
    """Shifted form rt = r + I/2: A(rt) = I (x) I (x) I / 4 and rt + rt21 = P.

    For every operator, A(r + I/2) - I/4 = A(r) + r13 and
    rt + rt21 - P = r + r21 - (P - I), so the two residuals are those of the
    non-homogeneous acybe and rt itself is never built; the tests hold both
    identities, witness included, against rt built directly.
    """
    return _check_arity3(r, "tilde")


def check_braid_identities(r: Operator) -> VerificationReport:
    """Both braid identities for an arity-2 operator (see _leg_sums).

    They hold whenever r^2 = -r and A(r) = A'(r) = -r13; those hypotheses
    are themselves verified by the idempotency and acybe checks run next to
    this one in the suites.
    """
    return _check_arity3(r, "braid")


def check_idempotent_exponential(r: Operator) -> VerificationReport:
    """r^2 = -r, which gives the semigroup law of the exponential.

    For every operator, (I + t r)(I + s r) - (I + (t + s - t s) r) =
    t s (r^2 + r), so when r^2 = -r the flow I + t*r composes as
    I + (t + s - t s) r, the exact form of e^(h r) = I + (1 - e^(-h)) r.
    The tests hold that identity; the law is not computed again here.
    """
    return _verdict("idempotent", [("r^2 = -r", _quadratic_residual(r, 1, 0))], {"n": r.n})


def check_nilpotent_exponential(r0: Operator) -> VerificationReport:
    """r0^2 = 0, which makes I + r0 invertible with inverse I - r0.

    For every operator, (I + r)(I - r) - I = -r^2, so the inverse law is a
    consequence of r0^2 = 0.  The tests hold that identity; the product
    is not computed again here.
    """
    return _verdict("nilpotent", [("r^2 = 0", _quadratic_residual(r0, 0, 0))], {"n": r0.n})


# -- bridges between the two sides ----------------------------------------


def check_quantization(rhat: Operator, beta, r: Operator) -> VerificationReport:
    """Linearity of the solution in its classical companion: P Rhat = I + beta r.

    At beta = 0 the expansion parameter is absorbed into r itself (the
    skew-symmetric family), so the relation checked becomes P Rhat = I + r.
    The residual is one chain sum in ints (see core._chain_sum).
    """
    beta = as_rational(beta)
    coeff = beta if beta else _ONE
    n = rhat.n
    # raise what P @ Rhat and (P Rhat - I) - coeff r raise on a mismatched operand
    _require_space(n, 2, rhat, "composition")
    _require_space(n, 2, r, "subtraction")
    d, (flip, rhat_rows, r_rows) = _scaled_rows(permutation(n), rhat, r)
    residual = _chain_sum(n, 2, d, [(1, (flip, rhat_rows)), (-1, ()), (-coeff, (r_rows,))])
    return _verdict("quantization", [("P Rhat = I + beta r", residual)], {"beta": str(beta)})


def check_equivalence_quantum(phi: PhiVector, beta) -> VerificationReport:
    """Conjugating the p = 1 Cremmer-Gervais solution by X(phi) gives the rime one.

    At beta = 1 the Cremmer-Gervais solution, whose q^-2 is 1 - beta, does
    not exist, so beta = 1 raises ValueError (the suites skip it there).
    The residual (X (x) X) cg (X^-1 (x) X^-1) - Rhat is one chain sum.
    """
    beta = as_rational(beta)
    if beta == 1:
        raise ValueError("equivalence-quantum is undefined at beta = 1, "
                         "where the Cremmer-Gervais q2inv = 1 - beta vanishes")
    return _equivalence_quantum(phi, beta, x_matrix(phi), rime_from_beta(beta_from_phi(beta, phi)))


def check_equivalence_classical(weights: Union[PhiVector, MuVector]) -> VerificationReport:
    """Conjugation by X carries the classical normal forms onto the rime r-matrices.

    A PhiVector compares classical_cg_r with classical_rime_r, a MuVector
    boundary_b with classical_unitary_r0, conjugated by X of its weights;
    anything else raises TypeError.  The residual is one chain sum, as in
    check_equivalence_quantum.
    """
    if isinstance(weights, PhiVector):
        return _equivalence_classical(weights, x_matrix(weights), classical_rime_r(weights))
    if isinstance(weights, MuVector):
        x = x_matrix(PhiVector(weights.mu))
        return _equivalence_classical(weights, x, classical_unitary_r0(weights))
    raise TypeError(f"classical equivalence expects a PhiVector or a MuVector, "
                    f"got {type(weights).__name__}")


# The two equivalence reports from a caller's X(phi) and target: the public
# checks build both, a suite hands over its own X, Rhat and r, so it builds
# none of them twice.  The residual (X (x) X) a (X^-1 (x) X^-1) - target is
# one chain sum (core._conjugate_minus).


def _equivalence_quantum(phi: PhiVector, beta: Fraction, x: Operator,
                         rhat: Operator) -> VerificationReport:
    cg = cremmer_gervais(phi.n, _ONE - beta, _ONE)
    meta = {"beta": str(beta), "phi": ",".join(str(v) for v in phi.phi)}
    return _verdict("equivalence-quantum", [("Ad X(phi)", _conjugate_minus(cg, x, rhat))], meta)


def _equivalence_classical(weights: Union[PhiVector, MuVector], x: Operator,
                           r: Operator) -> VerificationReport:
    if isinstance(weights, PhiVector):
        source = classical_cg_r(weights.n)
        meta = {"which": "rime", "phi": ",".join(str(v) for v in weights.phi)}
    else:
        source = boundary_b(weights.n)
        meta = {"which": "boundary", "mu": ",".join(str(v) for v in weights.mu)}
    return _verdict("equivalence-classical", [("Ad X", _conjugate_minus(source, x, r))], meta)


# -- structure ------------------------------------------------------------


def classify_structure(m: Operator) -> StructureClass:
    """Classify the zero pattern of an arity-2 operator.

    Row (i, j) may be nonzero only in the columns (k, l) with {k, l} a
    subset of {i, j}: at most the four offsets of (i, j), (j, i), (i, i) and
    (j, j).  The pattern is rime when every row keeps to them, ice when
    additionally no row with i != j uses (i, i) or (j, j), and strict rime
    when the extracted alpha_ij and gamma_ij are nonzero for every i != j.
    """
    if m.arity != 2:
        raise ValueError("classification applies to arity-2 operators")
    n = m.n
    rows = m.rows
    for i in range(n):
        for j in range(n):
            if not rows[i * n + j].keys() <= {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}:
                return StructureClass("none", None)

    def grid(col, keep_diagonal=False):
        # entry at row (i, j), column offset col(i, j); zero at i = j unless kept
        return tuple(
            tuple(rows[i * n + j].get(col(i, j), _ZERO) if keep_diagonal or i != j else _ZERO
                  for j in range(n))
            for i in range(n)
        )

    alpha = grid(lambda i, j: j * n + i, keep_diagonal=True)
    gamma = grid(lambda i, j: i * (n + 1))
    gamma_prime = grid(lambda i, j: j * (n + 1))
    data = GeneralRimeData(n, alpha, grid(lambda i, j: i * n + j), gamma, gamma_prime)
    if not any(map(any, gamma)) and not any(map(any, gamma_prime)):
        return StructureClass("ice", data)
    strict = all(
        alpha[i][j] and gamma[i][j]
        for i in range(n)
        for j in range(n)
        if i != j
    )
    return StructureClass("strict-rime" if strict else "rime", data)


def check_beta_constancy(p: RimeParams) -> VerificationReport:
    """Re-verify that beta_ij + beta_ji equals the stored scalar for every pair."""
    max_residual = _ZERO
    witness = None
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            dev = p.entry(i, j) + p.entry(j, i) - p.beta
            if dev and witness is None:
                witness = ((i, j), (j, i), dev)
            if abs(dev) > max_residual:
                max_residual = abs(dev)
    meta = {"beta": str(p.beta)}
    return VerificationReport("beta-constancy", max_residual == 0, max_residual, witness, meta)


# -- check tables and suites -----------------------------------------------

_IDEMPOTENT = ("cybe", "acybe", "tilde", "idempotent", "braid")
_NILPOTENT = ("cybe", "acybe", "nilpotent")
# the suite checks that run on a quantum family's Rhat; the others run on its r
_ON_RHAT = ("ybe", "hecke", "multiplicities")
# each family's suite in order, before the applicability rules of _suite_checks
_SUITES = {
    "rime-quantum": ("beta-constancy", "ybe", "hecke", "multiplicities", "classify",
                     "equivalence-quantum", "quantization", *_IDEMPOTENT, "equivalence-classical"),
    "rime-unitary": ("beta-constancy", "ybe", "hecke", "multiplicities", "classify",
                     "quantization", *_NILPOTENT, "equivalence-classical"),
    "cg": ("ybe", "hecke", "multiplicities", "classify", "quantization"),
    "classical-rime": (*_IDEMPOTENT, "equivalence-classical"),
    "classical-cg": _IDEMPOTENT,
    "classical-unitary": (*_NILPOTENT, "equivalence-classical"),
    "boundary": _NILPOTENT,
}


def _multiplicity_report(rhat: Operator, beta) -> VerificationReport:
    n = rhat.n
    expected = (n * (n + 1) // 2, n * (n - 1) // 2)
    meta = {"expected": str(expected)}
    try:
        observed = hecke_multiplicities(rhat, beta)
    except ValueError as exc:
        if as_rational(beta) == 2:  # undefined for every operator: a usage error, not a verdict
            raise
        meta["error"] = str(exc)
        return VerificationReport("multiplicities", False, _ONE, None, meta)
    meta["observed"] = str(observed)
    deviation = Fraction(abs(observed[0] - expected[0]))
    return VerificationReport("multiplicities", observed == expected, deviation, None, meta)


def _classification_report(m: Operator, expected: str) -> VerificationReport:
    observed = classify_structure(m).tag
    meta = {"expected": expected, "observed": observed}
    passed = observed == expected
    return VerificationReport("classify", passed, _ZERO if passed else _ONE, None, meta)


def _expected_rime_class(params: RimeParams) -> str:
    off = [
        (params.entry(i, j), params.entry(j, i))
        for i in range(1, params.n + 1)
        for j in range(1, params.n + 1)
        if i != j
    ]
    if all(bij == 0 for bij, _ in off):
        return "ice"
    if all(bij != 0 and bji != 1 for bij, bji in off):
        return "strict-rime"
    return "rime"


def _no_beta() -> Fraction:
    raise ValueError("hecke and multiplicities need beta")


def _operator_checks(op, beta, family, names) -> dict[str, Callable[[], VerificationReport]]:
    """Name -> not-yet-run check for the checks that need only an operator.

    ``op`` and ``beta`` are zero-argument callables that only a running check
    calls.  The arity-3 checks (ybe, cybe, acybe, tilde, braid) share one
    _LegPass over op() for the checks in ``names``, made when the first of
    them runs, so the union of their identities is summed in one leg pass.
    They build their reports through the same _LegPass.report as the public
    check_* functions, but do not call those functions; the other checks
    are looked up as module globals at call time.
    """
    legs = cache(lambda: _LegPass(op(), names, family))
    return {
        "ybe": lambda: legs().report("ybe"),
        "hecke": lambda: check_hecke(op(), beta()),
        "multiplicities": lambda: _multiplicity_report(op(), beta()),
        "classify": lambda: VerificationReport(
            "classify", True, _ZERO, None, {"observed": classify_structure(op()).tag}),
        "cybe": lambda: legs().report("cybe"),
        "acybe": lambda: legs().report("acybe"),
        "tilde": lambda: legs().report("tilde"),
        "idempotent": lambda: check_idempotent_exponential(op()),
        "nilpotent": lambda: check_nilpotent_exponential(op()),
        "braid": lambda: legs().report("braid"),
    }


def run_checks(op: Operator, names, beta=_no_beta, family=None) -> list[VerificationReport]:
    """Run operator-only checks on ``op`` by name, in the requested order.

    ``op`` must have arity 2, else ValueError before any check runs.
    ``beta`` is a zero-argument callable, called only if hecke or
    multiplicities runs; multiplicities at beta = 2, where no multiplicity
    is defined, raises ValueError.  ``family`` is the tag ``op`` was built
    from, or None, else ValueError.  ``classify`` reports the observed tag
    and always passes.
    """
    if family is not None and family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_TAGS}")
    names = tuple(names)  # read twice below, so an iterator is taken once
    table = _operator_checks(lambda: op, beta, family, names)
    for name in names:
        if name not in table:
            raise ValueError(f"unknown check {name!r}; document input supports {', '.join(table)}")
    if op.arity != 2:
        raise ValueError(f"every check needs an arity-2 operator, got arity {op.arity}")
    return [table[name]() for name in names]


def _suite_checks(spec: FamilySpec, names=None) -> list[tuple[str, Callable[[], VerificationReport]]]:
    """The named checks, by default the family's applicable ones, as (name, not-yet-run check) pairs.

    A name outside the applicable checks raises ValueError, listing them.
    """
    tag = spec.family
    phi = PhiVector(spec.phi) if spec.phi is not None else None
    mu = MuVector(spec.mu) if spec.mu is not None else None
    params = beta = expected = None
    if tag == "cg":
        beta = _ONE - spec.q2inv
        expected = "ice" if (spec.n <= 2 or spec.q2inv == 1) else "none"
    elif tag in ("rime-quantum", "rime-unitary"):
        params = beta_from_phi(spec.beta, phi) if phi is not None else unitary_beta(mu)
        beta = params.beta
        expected = _expected_rime_class(params)
    skip = set()
    if beta == 2:  # coincident eigenvalues: multiplicities undefined
        skip.add("multiplicities")
    if beta == 1:  # the Cremmer-Gervais coefficient degenerates
        skip.add("equivalence-quantum")
    if tag == "rime-quantum" and not phi.strict:  # no classical companion
        skip.update(("quantization", *_IDEMPOTENT, "equivalence-classical"))
    if (tag == "rime-quantum" and beta == 0) or (tag == "cg" and (spec.p != 1 or spec.q2inv == 1)):
        skip.add("quantization")
    available = [name for name in _SUITES[tag] if name not in skip]
    names = available if names is None else tuple(names)
    missing = [name for name in names if name not in available]
    if missing:
        raise ValueError(
            f"check(s) {','.join(missing)} not applicable to family {tag!r}; "
            f"available: {','.join(available)}"
        )

    rhat = cache(lambda: build(spec) if params is None else rime_from_beta(params))

    @cache
    def r() -> Operator:  # the family's classical operator, or Rhat's companion
        if phi is not None:
            return classical_rime_r(phi)
        if mu is not None:
            return classical_unitary_r0(mu)
        return boundary_b(spec.n) if tag == "boundary" else classical_cg_r(spec.n)

    x = cache(lambda: x_matrix(phi if mu is None else PhiVector(mu.mu)))  # X of the weights

    quantum = _operator_checks(rhat, lambda: beta, tag, [name for name in names if name in _ON_RHAT])
    table = _operator_checks(r, _no_beta, tag, [name for name in names if name not in _ON_RHAT])
    table.update((name, quantum[name]) for name in _ON_RHAT)
    table.update({
        "beta-constancy": lambda: check_beta_constancy(params),
        "classify": lambda: _classification_report(rhat(), expected),
        "equivalence-quantum": lambda: _equivalence_quantum(phi, beta, x(), rhat()),
        "quantization": lambda: check_quantization(rhat(), beta, r()),
        "equivalence-classical": lambda: _equivalence_classical(phi if mu is None else mu, x(), r()),
    })
    return [(name, table[name]) for name in names]


def run_suite(spec: FamilySpec, names=None) -> list[VerificationReport]:
    """Run every check applicable to the family, in a fixed order.

    Quantum rime: beta constancy, YBE, Hecke, multiplicities (skipped at
    beta = 2), classification, basis equivalence (skipped at beta = 1 where
    the Cremmer-Gervais coefficient degenerates), then for strict phi the
    full classical battery on the companion r-matrix.  Cremmer-Gervais:
    YBE, Hecke, multiplicities, classification, and at p = 1 the
    quantization bridge.  Classical families: classical Yang-Baxter with
    splitting, the applicable associative variant, shifted/tilde relations,
    idempotent or nilpotent exponential law, braid identities, and basis
    equivalence where a weight vector is available.

    With ``names``, only the named checks run, in the requested order (a
    repeated name runs again); a name outside the family's suite raises
    ValueError, listing the available ones, before any check runs.
    """
    checks = _suite_checks(spec, names)
    fam = describe(spec)
    reports = [check() for _, check in checks]
    return [replace(rep, metadata={**fam, **rep.metadata}) for rep in reports]
