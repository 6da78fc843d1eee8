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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .core import (
    Operator,
    _chain_sum,
    _from_scaled,
    _pairs,
    _require_space,
    _scaled_rows,
    _slot,
    _swap_offsets,
    as_rational,
    embed,
    flip21,
    multi_index,
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


# -- every identity, as a table of chain terms over named operands -----------------

# A table is a tuple of terms (c, factors), and its residual is the sum of
# c F1 ... Fj.  A factor names a one-letter operand and its placement: "r12",
# "r13" and "r23" are the legs of r on V (x) V (x) V, "r21" its flip, "X1"
# and "X2" are X (x) I and I (x) X on V (x) V, and a bare "r" is r as it is;
# "P" is the flip itself.  A term with no factors reads as c I.  A
# coefficient is a number, or the name of a scalar bound when the check
# runs, negated by a leading "-".
_YBE = ((1, ("r12", "r23", "r12")), (-1, ("r23", "r12", "r23")))
_BRAID = ((1, ("r12", "r13", "r23")), (-1, ("r23", "r13", "r12")))
_A = ((1, ("r13", "r12")), (-1, ("r12", "r23")), (1, ("r23", "r13")))
_A_PRIME = ((1, ("r12", "r13")), (-1, ("r23", "r12")), (1, ("r13", "r23")))
_CYBE = _A_PRIME + tuple((-c, legs) for c, legs in _A)
_SHIFTED_A = _A + ((1, ("r13",)),)
# the arity-2 companions of the associative identities: r + r21 and r + r21 - (P - I)
_SKEW = ((1, ("r",)), (1, ("r21",)))
_SHIFTED = _SKEW + ((-1, ("P",)), (1, ()))
# the quadratic laws r^2 + r, r^2 and the Hecke law r^2 - beta r + (beta - 1) I
_SQUARE_PLUS = ((1, ("r", "r")), (1, ("r",)))
_SQUARE = ((1, ("r", "r")),)
_HECKE = ((1, ("r", "r")), ("-beta", ("r",)), ("beta", ()), (-1, ()))
# P Rhat - I - c r for Rhat "R" and its classical companion "r"
_QUANTIZATION = ((1, ("P", "R")), (-1, ()), ("-c", ("r",)))
# (X (x) X) a - t (X (x) X): X carries a onto t, stated without X^-1
_CONJUGATION = ((1, ("X1", "X2", "a")), (-1, ("t", "X1", "X2")))

# each check: its report name, its parts as (part name, table), and the acybe
# variant it reports; a check without a variant reports n, unless its caller
# gives the metadata
_CHECKS = {
    "ybe": ("ybe", (("ybe", _YBE),), None),
    "cybe": ("cybe", (("cybe", _CYBE),), None),
    "nonhomogeneous-acybe": ("acybe", (("A(r) = -r13", _SHIFTED_A), ("r + r21 = P - I", _SHIFTED)),
                             "non-homogeneous"),
    "homogeneous-acybe": ("acybe", (("A(r) = 0", _A), ("r + r21 = 0", _SKEW)), "homogeneous"),
    "tilde": ("tilde", (("A(rt) = I/4", _SHIFTED_A), ("rt + rt21 = P", _SHIFTED)), None),
    "braid": ("braid", (("r12 r23 r12 = r23 r12 r23", _YBE), ("r12 r13 r23 = r23 r13 r12", _BRAID)),
              None),
    "idempotent": ("idempotent", (("r^2 = -r", _SQUARE_PLUS),), None),
    "nilpotent": ("nilpotent", (("r^2 = 0", _SQUARE),), None),
    "hecke": ("hecke", (("hecke", _HECKE),), None),
    "quantization": ("quantization", (("P Rhat = I + beta r", _QUANTIZATION),), None),
    "equivalence-quantum": ("equivalence-quantum", (("Ad X(phi)", _CONJUGATION),), None),
    "equivalence-classical": ("equivalence-classical", (("Ad X", _CONJUGATION),), None),
}
# skew families (r + r21 = 0) take the homogeneous acybe; their suites use _NILPOTENT
_SKEW_FAMILIES = ("rime-unitary", "classical-unitary", "boundary")


def _bind(c, bound):
    """A table coefficient: a number, or a name read from ``bound``, negated by a leading "-"."""
    return (-bound[c[1:]] if c[0] == "-" else bound[c]) if isinstance(c, str) else c


class _Identities:
    """The residual of every table above on named operands, each summed once, at first use.

    The operands are scaled once, together, when the engine is made: D, the
    lcm of all their denominators, and the int rows of D times each (see
    core._scaled_rows).  Every other factor is made from those rows once, at
    first use, by reindexing only: the legs through embed, the flip through
    flip21, the slots through core._slot and D P from the flip's offsets, so
    no entry is converted again; each factor's rows are turned into the
    (column, int) pairs the kernel folds over once too (see core._pairs).
    Each table is one chain sum in ints (see core._chain_sum) on the space
    of its first factor, which every factor must act on, kept as its int
    rows over one scale.  A report makes one Fraction for the largest entry
    of each failing part and one for the witness, none when the check
    passes; ``residual`` makes the whole Operator for the callers that
    want one.
    """

    def __init__(self, **operands: Operator):
        self.operands = operands
        self.n = next(iter(operands.values())).n
        self._d, scaled = _scaled_rows(*operands.values())
        self._factors = {key: Operator._wrap(op.n, op.arity, rows)
                         for (key, op), rows in zip(operands.items(), scaled)}
        self._pairs = {}
        self._sums = {}

    def _factor(self, name) -> Operator:
        factors, n = self._factors, self.n
        if name not in factors:
            if name == "P":
                factors[name] = Operator._wrap(n, 2, tuple({s: self._d} for s in _swap_offsets(n)))
            else:
                op, place = factors[name[0]], name[1:]
                factors[name] = (flip21(op) if place == "21" else
                                 _slot(op, int(place)) if place in ("1", "2") else embed(op, int(place)))
        return factors[name]

    def _sum(self, table, **bound) -> tuple[int, int, dict[int, dict[int, int]]]:
        """(arity, S, rows) of ``table``'s sum (see core._chain_sum), coefficients read from ``bound``."""
        table = tuple((_bind(c, bound), names) for c, names in table)
        result = self._sums.get(table)
        if result is None:
            factors = {name: self._factor(name) for _, names in table for name in names}
            first = next(iter(factors.values()))
            n, arity, pairs = first.n, first.arity, self._pairs
            for name, f in factors.items():
                _require_space(n, arity, f, "chain sum")
                if name not in pairs:
                    pairs[name] = _pairs(f._rows)
            terms = [(c, [pairs[name] for name in names]) for c, names in table]
            result = self._sums[table] = (arity, *_chain_sum(n, arity, self._d, terms))
        return result

    def residual(self, table, **bound) -> Operator:
        """The sum of ``table`` as an Operator, its named coefficients read from ``bound``."""
        return _from_scaled(self.n, *self._sum(table, **bound))

    def report(self, check: str, meta=None, **bound) -> VerificationReport:
        """The report of ``check``, a key of _CHECKS; ``meta`` defaults to n or the acybe variant.

        Each part's largest entry is a Fraction over that part's own scale,
        so parts of different scales (D^2 and D in acybe and tilde) compare
        exactly.  The witness is the lowest column of the first nonzero row
        of the first part that fails, whose name goes to ``failed_part``
        when the check has more than one part.
        """
        name, parts, variant = _CHECKS[check]
        if meta is None:
            meta = {"n": self.n} if variant is None else {"variant": variant}
        n, max_residual, witness = self.n, _ZERO, None
        for part, table in parts:
            arity, scale, rows = self._sum(table, **bound)
            if rows:
                top = max(abs(v) for row in rows.values() for v in row.values())
                max_residual = max(max_residual, Fraction(top, scale))
                if witness is None:
                    i = min(rows)
                    j = min(rows[i])
                    value = Fraction(rows[i][j], scale)
                    witness = (multi_index(i, n, arity), multi_index(j, n, arity), value)
                    if len(parts) > 1:
                        meta["failed_part"] = part
        return VerificationReport(name, witness is None, max_residual, witness, meta)


# -- quantum checks -------------------------------------------------------


def check_ybe(rhat: Operator) -> VerificationReport:
    """Braid-form Yang-Baxter equation: R12 R23 R12 = R23 R12 R23 (see _Identities)."""
    return _Identities(r=rhat).report("ybe")


def check_hecke(rhat: Operator, beta) -> VerificationReport:
    """Quadratic relation Rhat^2 = beta*Rhat + (1 - beta)*I (see _Identities)."""
    return _hecke(_Identities(r=rhat), beta)


def _hecke(engine: _Identities, beta) -> VerificationReport:
    beta = as_rational(beta)
    return engine.report("hecke", {"beta": str(beta)}, beta=beta)


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
    return _Identities(r=r).residual(_A)


def assoc_Aprime(r: Operator) -> Operator:
    """Mirror combination A'(r) = r12 r13 - r23 r12 + r13 r23."""
    return _Identities(r=r).residual(_A_PRIME)


def check_cybe(r: Operator) -> VerificationReport:
    """Classical Yang-Baxter equation [r12,r23] + [r12,r13] + [r13,r23] = 0.

    Its residual is A'(r) - A(r) for every operator, which is how _CYBE
    states it (see _Identities).
    """
    return _Identities(r=r).report("cybe")


def check_nonhomogeneous_acybe(r: Operator) -> VerificationReport:
    """Non-homogeneous associative equation A(r) = -r13 with companion r + r21 = P - I."""
    return _Identities(r=r).report("nonhomogeneous-acybe")


def check_homogeneous_acybe(r: Operator) -> VerificationReport:
    """Homogeneous associative equation A(r) = 0 with companion skew symmetry r + r21 = 0."""
    return _Identities(r=r).report("homogeneous-acybe")


def check_tilde_relations(r: Operator) -> VerificationReport:
    """Shifted form rt = r + I/2: A(rt) = I (x) I (x) I / 4 and rt + rt21 = P.

    For every operator, A(r + I/2) - I/4 = A(r) + r13 and
    rt + rt21 - P = r + r21 - (P - I), so the two residuals are those of the
    non-homogeneous acybe and rt itself is never built; the tests hold both
    identities, witness included, against rt built directly.
    """
    return _Identities(r=r).report("tilde")


def check_braid_identities(r: Operator) -> VerificationReport:
    """Both braid identities for an arity-2 operator (see _Identities).

    They hold whenever r^2 = -r and A(r) = A'(r) = -r13; those hypotheses
    are themselves verified by the idempotency and acybe checks run next to
    this one in the suites.
    """
    return _Identities(r=r).report("braid")


def check_idempotent_exponential(r: Operator) -> VerificationReport:
    """r^2 = -r, which gives the semigroup law of the exponential.

    For every operator, (I + t r)(I + s r) - (I + (t + s - t s) r) =
    t s (r^2 + r), so when r^2 = -r the flow I + t*r composes as
    I + (t + s - t s) r, the exact form of e^(h r) = I + (1 - e^(-h)) r.
    The tests hold that identity; the law is not computed again here.
    """
    return _Identities(r=r).report("idempotent")


def check_nilpotent_exponential(r0: Operator) -> VerificationReport:
    """r0^2 = 0, which makes I + r0 invertible with inverse I - r0.

    For every operator, (I + r)(I - r) - I = -r^2, so the inverse law is a
    consequence of r0^2 = 0.  The tests hold that identity; the product
    is not computed again here.
    """
    return _Identities(r=r0).report("nilpotent")


# -- bridges between the two sides ----------------------------------------


def check_quantization(rhat: Operator, beta, r: Operator) -> VerificationReport:
    """Linearity of the solution in its classical companion: P Rhat = I + beta r.

    At beta = 0 the expansion parameter is absorbed into r itself (the
    skew-symmetric family), so the relation checked becomes P Rhat = I + r.
    The residual P Rhat - I - c r, with c = beta or 1, is one table of
    _Identities on Rhat and r together.
    """
    beta = as_rational(beta)
    # raise what P @ Rhat and (P Rhat - I) - c r raise on a mismatched operand
    _require_space(rhat.n, 2, rhat, "composition")
    _require_space(rhat.n, 2, r, "subtraction")
    return _Identities(R=rhat, r=r).report("quantization", {"beta": str(beta)}, c=beta or _ONE)


def check_equivalence_quantum(phi: PhiVector, beta) -> VerificationReport:
    """Conjugating the p = 1 Cremmer-Gervais solution by X(phi) gives the rime one.

    At beta = 1 the Cremmer-Gervais solution, whose q^-2 is 1 - beta, does
    not exist, so beta = 1 raises ValueError (the suites skip it there);
    ``phi`` other than a PhiVector raises TypeError.  The residual is
    (X (x) X) cg - Rhat (X (x) X), with no X^-1 (see _equivalence).
    """
    beta = as_rational(beta)
    if beta == 1:
        raise ValueError("equivalence-quantum is undefined at beta = 1, "
                         "where the Cremmer-Gervais q2inv = 1 - beta vanishes")
    if not isinstance(phi, PhiVector):
        raise TypeError(f"quantum equivalence expects a PhiVector, got {type(phi).__name__}")
    return _equivalence(phi, x_matrix(phi), _normal_form(phi, beta),
                        rime_from_beta(beta_from_phi(beta, phi)), beta)


def check_equivalence_classical(weights: Union[PhiVector, MuVector]) -> VerificationReport:
    """Conjugation by X carries the classical normal forms onto the rime r-matrices.

    A PhiVector compares classical_cg_r with classical_rime_r, a MuVector
    boundary_b with classical_unitary_r0, conjugated by X of its weights;
    anything else raises TypeError.  The residual has no X^-1, as in
    check_equivalence_quantum.
    """
    if isinstance(weights, PhiVector):
        return _equivalence(weights, x_matrix(weights), _normal_form(weights), classical_rime_r(weights))
    if isinstance(weights, MuVector):
        return _equivalence(weights, x_matrix(PhiVector(weights.mu)), _normal_form(weights),
                            classical_unitary_r0(weights))
    raise TypeError(f"classical equivalence expects a PhiVector or a MuVector, "
                    f"got {type(weights).__name__}")


def _normal_form(weights: Union[PhiVector, MuVector], beta=None) -> Operator:
    """The operator X of ``weights`` carries onto the rime one.

    It is CG(1 - beta, 1) for a ``beta``, else classical_cg_r for phi and
    boundary_b for mu; it takes no parameter but n and ``beta``.
    """
    if beta is not None:
        return cremmer_gervais(weights.n, _ONE - beta, _ONE)
    return (classical_cg_r if isinstance(weights, PhiVector) else boundary_b)(weights.n)


def _equivalence(weights: Union[PhiVector, MuVector], x: Operator, a: Operator, target: Operator,
                 beta=None) -> VerificationReport:
    """The equivalence report that X of ``weights`` carries the normal form ``a`` onto ``target``.

    ``a`` is _normal_form(weights, beta).  The public checks build X, a and
    the target, a suite hands over its own, so it builds none of them twice.
    The residual (X (x) X) a - target (X (x) X) vanishes for a singular X
    too, so it proves X (x) X a (X^-1 (x) X^-1) = target only once
    det X != 0: a singular X raises ValueError.
    """
    if not x.det():
        raise ValueError("matrix is singular, cannot invert")
    if beta is not None:
        check = "equivalence-quantum"
        meta = {"beta": str(beta), "phi": ",".join(map(str, weights.phi))}
    elif isinstance(weights, PhiVector):
        check = "equivalence-classical"
        meta = {"which": "rime", "phi": ",".join(map(str, weights.phi))}
    else:
        check = "equivalence-classical"
        meta = {"which": "boundary", "mu": ",".join(map(str, weights.mu))}
    return _Identities(X=x, a=a, t=target).report(check, meta)


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
    strict = all(alpha[i][j] and gamma[i][j] for i in range(n) for j in range(n) if i != j)
    return StructureClass("strict-rime" if strict else "rime", data)


def check_beta_constancy(p: RimeParams) -> VerificationReport:
    """Re-verify that beta_ij + beta_ji equals the stored scalar for every pair."""
    deviations = [((i, j), (j, i), p.entry(i, j) + p.entry(j, i) - p.beta)
                  for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)]
    witness = next((dev for dev in deviations if dev[2]), None)
    max_residual = max((abs(dev[2]) for dev in deviations), default=_ZERO)
    meta = {"beta": str(p.beta)}
    return VerificationReport("beta-constancy", max_residual == 0, max_residual, witness, meta)


# -- check tables and suites -----------------------------------------------

_IDEMPOTENT = ("cybe", "acybe", "tilde", "idempotent", "braid")
_NILPOTENT = ("cybe", "acybe", "nilpotent")
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
    n = params.n
    off = [(params.entry(i, j), params.entry(j, i))
           for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if all(bij == 0 for bij, _ in off):
        return "ice"
    if all(bij != 0 and bji != 1 for bij, bji in off):
        return "strict-rime"
    return "rime"


def _no_beta() -> Fraction:
    raise ValueError("hecke and multiplicities need beta")


def _recall(memo: dict, key, make: Callable):
    """memo[key], set to make() first when it is absent."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _once(make: Callable) -> Callable:
    """A zero-argument callable returning make(), which runs at its first call only.

    It does what functools.cache does for a function of no arguments, but
    makes no wrapper: making one costs more than a memo-hit suite's checks.
    """
    memo = {}
    return lambda: _recall(memo, None, make)


def _operator_checks(rhat, r, beta, family) -> dict[str, Callable[[], VerificationReport]]:
    """Name -> not-yet-run check for the checks that need only an operator.

    ``rhat``, ``r`` and ``beta`` are zero-argument callables that only a
    running check calls: ybe, hecke, multiplicities and classify read
    rhat(), the others r().  Each distinct callable gets one _Identities,
    made when its first check runs, so the checks on one operator share its
    scale, legs and residuals; a document passes its one operator as both.
    acybe takes the family's variant, or for an untagged operator
    (``family`` None) the homogeneous one exactly when r + r21 = 0.
    """
    engines = {}

    def identities(source) -> _Identities:
        return _recall(engines, source, lambda: _Identities(r=source()))

    def acybe() -> VerificationReport:
        engine = identities(r)
        skew = family in _SKEW_FAMILIES or (family is None and not engine._sum(_SKEW)[2])
        return engine.report("homogeneous-acybe" if skew else "nonhomogeneous-acybe")

    return {
        "ybe": lambda: identities(rhat).report("ybe"),
        "hecke": lambda: _hecke(identities(rhat), beta()),
        "multiplicities": lambda: _multiplicity_report(rhat(), beta()),
        "classify": lambda: VerificationReport(
            "classify", True, _ZERO, None, {"observed": classify_structure(rhat()).tag}),
        **{name: acybe if name == "acybe" else (lambda name=name: identities(r).report(name))
           for name in ("cybe", "acybe", "tilde", "idempotent", "nilpotent", "braid")},
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
    rhat = r = (lambda: op)  # one callable: every check of op shares one _Identities
    table = _operator_checks(rhat, r, beta, family)
    for name in names:
        if name not in table:
            raise ValueError(f"unknown check {name!r}; document input supports {', '.join(table)}")
    if op.arity != 2:
        raise ValueError(f"every check needs an arity-2 operator, got arity {op.arity}")
    return [table[name]() for name in names]


# the checks of a suite's classical operator, whose reports the suites share
_COMPANIONS = ("cybe", "acybe", "tilde", "idempotent", "nilpotent", "braid", "equivalence-classical")


@lru_cache(maxsize=16)
def _companion_reports(recipe, constructors) -> dict[str, VerificationReport]:
    """Check name -> report of the classical operator made from ``recipe``; filled by _suite_checks.

    ``recipe`` is the operator's PhiVector, its MuVector, or (tag, n) for
    classical-cg and boundary, and it fixes every field of those reports:
    the acybe variant is the non-homogeneous one for phi and classical-cg
    and the homogeneous one for mu and boundary.  ``constructors`` are the
    functions that build the operator and its X, as this module looks them
    up, so a replaced constructor makes a new entry.  An entry holds
    reports only, no operator or engine.  The (classical-cg, n) and
    (boundary, n) entries also serve every phi and every mu of that n: a
    suite of a weight vector reads them for the passing reports it takes
    over from its normal form (see _suite_checks), and fills them when
    they are empty.
    """
    return {}


def _suite_checks(spec: FamilySpec, names=None) -> list[tuple[str, Callable[[], VerificationReport]]]:
    """The named checks, by default the family's applicable ones, as (name, not-yet-run check) pairs.

    A name outside the applicable checks raises ValueError, listing them.

    The checks of r, the classical operator, read and fill r's memo entry
    (see _companion_reports).  When r comes from a phi or a mu and the
    suite runs equivalence-classical, or r's entry holds its report, a
    companion check first takes that report.  If it passed, the check
    takes the report of the normal form, the operand a of that
    equivalence, from the normal form's own entry, which one engine on the
    normal form fills when it is empty; it keeps that report if it passes
    (see run_suite for why it is r's).  Otherwise it runs r's own table,
    so a failing report always carries r's own witness and max_residual.
    A check requested without the equivalence, on a cold entry, runs r's
    own table too, so it costs what it did before.
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

    rhat = _once(lambda: build(spec) if params is None else rime_from_beta(params))
    weights = phi if mu is None else mu  # None for cg, classical-cg and boundary

    @_once
    def r() -> Operator:  # the family's classical operator, or Rhat's companion
        if phi is not None:
            return classical_rime_r(phi)
        if mu is not None:
            return classical_unitary_r0(mu)
        return boundary_b(spec.n) if tag == "boundary" else classical_cg_r(spec.n)

    x = _once(lambda: x_matrix(phi if mu is None else PhiVector(mu.mu)))  # X of the weights
    nf = _once(lambda: _normal_form(weights))  # the classical normal form X carries onto r

    table = _operator_checks(rhat, r, lambda: beta, tag)
    table.update({
        "beta-constancy": lambda: check_beta_constancy(params),
        "classify": lambda: _classification_report(rhat(), expected),
        "equivalence-quantum": lambda: _equivalence(phi, x(), _normal_form(phi, beta), rhat(), beta),
        "quantization": lambda: check_quantization(rhat(), beta, r()),
        "equivalence-classical": lambda: _equivalence(weights, x(), nf(), r()),
    })
    # r's checks go through the memo of its recipe: a hit builds no operator, X or engine
    recipe = weights if weights is not None else (tag, spec.n)
    constructors = (classical_rime_r, classical_unitary_r0, classical_cg_r, boundary_b, x_matrix)
    reports = _once(lambda: _companion_reports(recipe, constructors))

    @_once
    def normal_form_checks():  # the normal form's memo entry, and its checks on one engine
        nf_tag = "classical-cg" if mu is None else "boundary"
        return (_companion_reports((nf_tag, spec.n), constructors),
                _operator_checks(nf, nf, _no_beta, nf_tag))

    def companion(name) -> VerificationReport:
        # only where this suite runs r's equivalence anyway, or an earlier one did:
        # a check run alone then costs what it did
        memo, eq = reports(), "equivalence-classical"
        if name != eq and (eq in names or eq in memo) and _recall(memo, eq, table[eq]).passed:
            nf_memo, checks = normal_form_checks()
            report = _recall(nf_memo, name, checks[name])
            if report.passed:
                return report
        return table[name]()

    def remembered(name):
        return lambda: _recall(reports(), name, lambda: companion(name))

    return [(name, remembered(name) if name in _COMPANIONS else table[name]) for name in names]


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
    repeated name returns the same report); a name outside the family's
    suite raises ValueError, listing the available ones, before any check
    runs.

    The checks of the classical operator (cybe, acybe, tilde, idempotent,
    nilpotent, braid, equivalence-classical) read and fill a memo of at
    most 16 recipes (see _companion_reports), so a suite that shares its
    phi, its mu, or a parameterless operator with an earlier one returns
    that suite's reports without computing them again.

    The companions of a phi or a mu (every one of those checks but
    equivalence-classical) are verified once per normal form, classical_cg_r
    for phi and boundary_b for mu.  Every table of those checks is a
    polynomial in r12, r13, r23, r21, P and I, and conjugation by
    X (x) X (x) X commutes with each of them.  So once equivalence-classical
    has proved r = Ad X(a) for the normal form a, with det X != 0, a table
    vanishes on r exactly when it vanishes on a, and a passing report of a,
    which carries no witness and the same name and metadata, is r's.  r's
    own tables still run when the equivalence fails, when a's report fails
    and when the suite neither runs nor remembers the equivalence, so a
    failure is always reported on r itself.
    """
    checks = _suite_checks(spec, names)
    fam = describe(spec)
    reports = [check() for _, check in checks]
    return [VerificationReport(rep.name, rep.passed, rep.max_residual, rep.witness, {**fam, **rep.metadata})
            for rep in reports]
