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

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .core import (
    Operator,
    _chain_sum,
    _from_scaled,
    _pairs,
    _placed,
    _placed_arity,
    _require_space,
    _scaled_rows,
    as_rational,
    multi_index,
)
# embed is unused here, but perfbench/selftest.py checks that its tracer
# patches rimealg.verify.embed
from .core import embed  # noqa: F401
from .families import (
    FAMILY_TAGS,
    FamilySpec,
    GeneralRimeData,
    MuVector,
    PhiVector,
    RimeParams,
    _broken_pair,
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
# P R (X (x) I) - (I (x) X)(I + c a): the twisted quantization, stated without X^-1
_TWISTED = ((1, ("P", "R", "X1")), (-1, ("X2",)), ("-c", ("X2", "a")))

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


# a factor of a chain sum: its space and its kernel pair rows
_Factor = namedtuple("_Factor", "n arity rows")


def _bind(c, bound):
    """A table coefficient: a number, or a name read from ``bound``, negated by a leading "-"."""
    return (-bound[c[1:]] if c[0] == "-" else bound[c]) if isinstance(c, str) else c


class _Identities:
    """The residual of every table above on named operands, each summed once, at first use.

    The operands are scaled once, together, when the engine is made: D, the
    lcm of all their denominators, and the int rows of D times each (see
    core._scaled_rows).  Every factor is made from those rows once, at first
    use, straight into the (column, int) pair rows the kernel folds over:
    an operand as it is through core._pairs, and its legs, flip and slots,
    and D P from the one-entry row {0: D}, through the cached placement
    table of their place (see core._placed), so no entry is converted again
    and no Operator is made.  Each table is one chain sum in ints (see
    core._chain_sum) on the space of its first factor, which every factor
    must act on, kept as its int rows over one scale.  A report makes one
    Fraction for the largest entry of each failing part and one for the
    witness, none when the check passes; ``residual`` makes the whole
    Operator for the callers that want one.
    """

    def __init__(self, **operands: Operator):
        self.operands = operands
        self.n = next(iter(operands.values())).n
        self._d, scaled = _scaled_rows(*operands.values())
        self._scaled = {key: (op, rows) for (key, op), rows in zip(operands.items(), scaled)}
        self._factors = {}
        self._sums = {}

    def _factor(self, name) -> _Factor:
        factor = self._factors.get(name)
        if factor is None:
            if name == "P":
                factor = _Factor(self.n, 2, _placed(({0: self._d},), self.n, "P"))
            else:
                (op, rows), place = self._scaled[name[0]], name[1:]
                factor = (_Factor(op.n, op.arity, _pairs(rows)) if not place else
                          _Factor(op.n, _placed_arity(op.arity, place), _placed(rows, op.n, place)))
            self._factors[name] = factor
        return factor

    def _sum(self, table, **bound) -> tuple[int, int, dict[int, dict[int, int]]]:
        """(arity, S, rows) of ``table``'s sum (see core._chain_sum), coefficients read from ``bound``."""
        table = tuple((_bind(c, bound), names) for c, names in table)
        result = self._sums.get(table)
        if result is None:
            factors = {name: self._factor(name) for _, names in table for name in names}
            n, arity, _ = next(iter(factors.values()))
            for f in factors.values():
                _require_space(n, arity, f, "chain sum")
            terms = [(c, [factors[name].rows for name in names]) for c, names in table]
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


class _Vanishing(_Identities):
    """An engine on n whose tables are proved to vanish (see run_suite): it reports passes, summing none."""

    def __init__(self, n: int):
        self.n = n

    def _sum(self, table, **bound):
        return 0, 1, {}


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
    this one in the suites.  For the second, the identity B2 of run_suite
    at s = 1 writes r12 r13 r23 - r23 r13 r12 through A' + r13, A + r13 and
    r^2 + r, which all vanish then.
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
    return _conjugation(_Identities(X=x, a=a, t=target), weights, beta)


def _conjugation(engine: _Identities, weights: Union[PhiVector, MuVector], beta=None) -> VerificationReport:
    """``engine``'s equivalence report of ``weights``: the quantum one for a ``beta``, else the classical."""
    if beta is not None:
        check, meta = "equivalence-quantum", {"beta": str(beta), "phi": ",".join(map(str, weights.phi))}
    elif isinstance(weights, PhiVector):
        check, meta = "equivalence-classical", {"which": "rime", "phi": ",".join(map(str, weights.phi))}
    else:
        check, meta = "equivalence-classical", {"which": "boundary", "mu": ",".join(map(str, weights.mu))}
    return engine.report(check, meta)


# -- structure ------------------------------------------------------------


def classify_structure(m: Operator) -> StructureClass:
    """Classify the zero pattern of an arity-2 operator.

    Row (i, j) may be nonzero only in the columns (k, l) with {k, l} a
    subset of {i, j}: at most the four offsets of (i, j), (j, i), (i, i) and
    (j, j).  The pattern is rime when every row keeps to them, ice when
    additionally no row with i != j uses (i, i) or (j, j), and strict rime
    when the extracted alpha_ij and gamma_ij are nonzero for every i != j
    (see _pattern_tag).  ``data`` is extracted for rime-pattern input only.
    """
    if m.arity != 2:
        raise ValueError("classification applies to arity-2 operators")
    tag = _pattern_tag(m)
    if tag == "none":
        return StructureClass("none", None)
    n, rows = m.n, m._rows

    def grid(col, keep_diagonal=False):
        # entry at row (i, j), column offset col(i, j); zero at i = j unless kept
        return tuple(
            tuple(rows[i * n + j].get(col(i, j), _ZERO) if keep_diagonal or i != j else _ZERO
                  for j in range(n))
            for i in range(n)
        )

    return StructureClass(tag, GeneralRimeData(
        n, grid(lambda i, j: j * n + i, keep_diagonal=True), grid(lambda i, j: i * n + j),
        grid(lambda i, j: i * (n + 1)), grid(lambda i, j: j * (n + 1))))


def _pattern_tag(m: Operator) -> str:
    """classify_structure's tag of an arity-2 operator, read from its row keys in one pass.

    Since no zero is stored, an entry is nonzero exactly when its column is
    a key of its row: alpha_ij sits at (j, i), gamma_ij at (i, i) and
    gamma'_ij at (j, j) of row (i, j).
    """
    n, rows = m.n, m._rows
    ice = strict = True
    for i in range(n):
        ii = i * (n + 1)
        for j in range(n):
            keys, ji, jj = rows[i * n + j].keys(), j * n + i, j * (n + 1)
            if not keys <= {i * n + j, ji, ii, jj}:
                return "none"
            if i != j:
                gamma = ii in keys
                if gamma or jj in keys:
                    ice = False
                if not (gamma and ji in keys):
                    strict = False
    return "ice" if ice else "strict-rime" if strict else "rime"


def check_beta_constancy(p: RimeParams) -> VerificationReport:
    """Re-verify that beta_ij + beta_ji equals the stored scalar for every pair.

    The pair sums are tested in ints (see families._broken_pair); only a
    failing grid builds its deviations, for the witness and max_residual.
    """
    meta = {"beta": str(p.beta)}
    if _broken_pair(p.beta_offdiag, p.beta) is None:
        return VerificationReport("beta-constancy", True, _ZERO, None, meta)
    deviations = [((i, j), (j, i), p.entry(i, j) + p.entry(j, i) - p.beta)
                  for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)]
    witness = next((dev for dev in deviations if dev[2]), None)
    max_residual = max((abs(dev[2]) for dev in deviations), default=_ZERO)
    return VerificationReport("beta-constancy", max_residual == 0, max_residual, witness, meta)


# -- check tables and suites -----------------------------------------------

_IDEMPOTENT = ("cybe", "acybe", "tilde", "idempotent", "braid")
_NILPOTENT = ("cybe", "acybe", "nilpotent")
# each family's suite in order, before the applicability rules of _applicable
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
# the checks of a suite's classical operator, whose reports the suites share
_COMPANIONS = frozenset(("cybe", "acybe", "tilde", "idempotent", "nilpotent", "braid",
                         "equivalence-classical"))
# the checks a suite decides from their premises (see run_suite): check -> family -> premises,
# in the order a suite decides them.  A premise is a check of the family's suite, which must be
# requested and pass; a (tag, check) pair, check's report on the normal form of (tag, n), which
# must pass; or a fact of _FACTS, which the suite computes and never reports.  First the carry:
# r's checks from the normal form X carries onto r, whose report, the last premise, is r's.
# The square law is r^2 = -r for phi, r^2 = 0 for mu
_DERIVED = {**{check: {family: ("equivalence-classical", (nf, check))
                       for family, nf in (("rime-quantum", "classical-cg"), ("classical-rime", "classical-cg"),
                                          ("rime-unitary", "boundary"), ("classical-unitary", "boundary"))
                       if check in _SUITES[nf]}
               for check in (*_IDEMPOTENT, "nilpotent")},
            "ybe": {"rime-quantum": ("quantization", "cybe", "acybe", "idempotent"),
                    "rime-unitary": ("quantization", "cybe", "acybe", "nilpotent"),
                    "cg": (("classical-cg", "cybe"), ("classical-cg", "acybe"),
                           ("classical-cg", "idempotent"), "weight-preserving", "twisted quantization")},
            "hecke": {"rime-quantum": ("quantization", "acybe", "idempotent"),
                      "rime-unitary": ("quantization", "acybe", "nilpotent"),
                      "cg": (("classical-cg", "acybe"), ("classical-cg", "idempotent"),
                             "twisted quantization")},
            "equivalence-quantum": {"rime-quantum": ("quantization", "equivalence-classical",
                                                     "normal form quantization")}}


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


def _classification_report(m: Operator, expected: Optional[str]) -> VerificationReport:
    """The observed tag against ``expected``; without one (a document) it is reported alone and passes."""
    observed = _pattern_tag(m)
    if expected is None:
        return VerificationReport("classify", True, _ZERO, None, {"observed": observed})
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


class _Operands:
    """What the checks of one call read, each operand made at its first use and kept.

    This one holds a single operator, made by ``make`` when a check first
    reads it, as both Rhat and r: a document's operator in run_checks, or
    the normal form whose reports a suite takes over.  ``beta`` is a
    zero-argument callable that only hecke and multiplicities call;
    ``family`` is the tag the operator was built from, or None.  Its checks
    read no memo.
    """

    expected = None  # classify reports the observed class alone

    def __init__(self, make: Callable[[], Operator], beta: Callable, family: Optional[str]):
        self._make, self.beta, self.family = make, beta, family
        self._made, self._engines = {}, {}

    def rhat(self) -> Operator:
        return _recall(self._made, "op", self._make)

    r = rhat

    def engine(self, op: Operator) -> _Identities:
        """The one _Identities of ``op``, so the checks of an operator share its scale, legs and sums."""
        return _recall(self._engines, id(op), lambda: _Identities(r=op))

    def run(self, name: str) -> VerificationReport:
        return _CHECK_TABLE[name](self)


class _SuiteOperands(_Operands):
    """The operands of one suite: its spec, weights, RimeParams, beta and r's memo entry.

    Rhat, r, X of the weights, the normal form X carries onto r, each
    fact of _FACTS and each report of a check not of r are made at first
    use and kept.  ``derived`` maps each check the suite decides from its
    premises to them (see run_suite).  ``entry`` is r's memo entry when
    the caller looked it up already, else None and looked up at the first
    check of r; ``key`` is its (recipe, constructors).
    """

    def __init__(self, spec: FamilySpec, phi, mu, params, beta, derived, key, entry):
        self.spec, self.phi, self.mu, self.params, self.beta = spec, phi, mu, params, lambda: beta
        self.family, self.derived, self._key, self._entry = spec.family, derived, key, entry
        self.weights = phi if mu is None else mu  # None for cg, classical-cg and boundary
        self._made, self._engines = {}, {}
        if self.family == "cg":
            self.expected = "ice" if (spec.n <= 2 or spec.q2inv == 1) else "none"
        elif params is not None:
            self.expected = _expected_rime_class(params)

    def rhat(self) -> Operator:
        return _recall(self._made, "rhat", self._quantum)

    def _quantum(self) -> Operator:
        return build(self.spec) if self.params is None else rime_from_beta(self.params)

    def r(self) -> Operator:
        return _recall(self._made, "r", self._classical)

    def _classical(self) -> Operator:  # the family's classical operator, or Rhat's companion
        if self.phi is not None:
            return classical_rime_r(self.phi)
        if self.mu is not None:
            return classical_unitary_r0(self.mu)
        return boundary_b(self.spec.n) if self.family == "boundary" else classical_cg_r(self.spec.n)

    def x(self) -> Operator:  # X of the weights
        return _recall(self._made, "x",
                       lambda: x_matrix(self.phi if self.mu is None else PhiVector(self.mu.mu)))

    def nf(self) -> Operator:  # the classical normal form X carries onto r; for cg, r itself
        return _recall(self._made, "nf", lambda: self.r() if self.weights is None else _normal_form(self.weights))

    def cg(self) -> Operator:  # the quantum normal form X carries onto Rhat
        return _recall(self._made, "cg", lambda: _normal_form(self.phi, self.beta()))

    def entry(self) -> dict[str, VerificationReport]:
        if self._entry is None:
            self._entry = _companion_reports(*self._key)
        return self._entry

    def run(self, name: str) -> VerificationReport:
        """The report of ``name``: remembered, else decided from its premises, else its own table's.

        A check of r reads and fills r's memo entry.  Its pass from the
        premises is the normal form's report; that of ybe, hecke and
        equivalence-quantum is the one its table would give.
        """
        memo = self.entry() if name in _COMPANIONS else self._made
        if name not in memo:
            premises = self.derived.get(name)
            if premises and all(map(self.holds, premises)):
                memo[name] = _PASSES[name](self, _Vanishing(self.spec.n)) if name in _PASSES else \
                    self._normal_form_report(*premises[-1])
            else:
                memo[name] = _CHECK_TABLE[name](self)
        return memo[name]

    def holds(self, premise) -> bool:
        """Whether ``premise`` of _DERIVED holds; a check of the suite is one it requested."""
        if premise in _FACTS:
            return _recall(self._made, premise, lambda: _FACTS[premise](self))
        return (self._normal_form_report(*premise) if isinstance(premise, tuple) else self.run(premise)).passed

    def _normal_form_report(self, tag: str, check: str) -> VerificationReport:
        """``check``'s report on the normal form of (tag, n), from its memo entry, which one engine fills."""
        memo, nf = _recall(self._made, tag, lambda: (_companion_reports((tag, self.spec.n), self._key[1]),
                                                     _Operands(self.nf, _no_beta, tag)))
        return _recall(memo, check, lambda: nf.run(check))


def _acybe(o: _Operands) -> VerificationReport:
    """acybe on r: the family's variant, or untagged the homogeneous one exactly when r + r21 = 0."""
    engine = o.engine(o.r())
    skew = o.family in _SKEW_FAMILIES or (o.family is None and not engine._sum(_SKEW)[2])
    return engine.report("homogeneous-acybe" if skew else "nonhomogeneous-acybe")


def _of_r(check: str) -> Callable[[_Operands], VerificationReport]:
    return lambda o: o.engine(o.r()).report(check)


# every check by name, as a function of the operands of one call; ybe, hecke,
# multiplicities and classify read Rhat, the others r
_CHECK_TABLE = {
    "ybe": lambda o: o.engine(o.rhat()).report("ybe"),
    "hecke": lambda o: _hecke(o.engine(o.rhat()), o.beta()),
    "multiplicities": lambda o: _multiplicity_report(o.rhat(), o.beta()),
    "classify": lambda o: _classification_report(o.rhat(), o.expected),
    **{name: _of_r(name) for name in ("cybe", "tilde", "idempotent", "nilpotent", "braid")},
    "acybe": _acybe,
    "beta-constancy": lambda o: check_beta_constancy(o.params),
    "equivalence-quantum": lambda o: _equivalence(o.phi, o.x(), o.cg(), o.rhat(), o.beta()),
    "quantization": lambda o: check_quantization(o.rhat(), o.beta(), o.r()),
    "equivalence-classical": lambda o: _equivalence(o.weights, o.x(), o.nf(), o.r()),
}
# the pass of each check of _DERIVED on a _Vanishing engine, through its table route's helper
_PASSES = {
    "ybe": lambda o, engine: engine.report("ybe"),
    "hecke": lambda o, engine: _hecke(engine, o.beta()),
    "equivalence-quantum": lambda o, engine: _conjugation(engine, o.phi, o.beta()),
}


def _twist(n: int, p: Fraction) -> Operator:
    """D = diag(p, p^2, ..., p^n), for a nonzero p."""
    return Operator._wrap(n, 1, tuple({i: p ** (i + 1)} for i in range(n)))


def _weight_preserving(m: Operator) -> bool:
    """Whether every stored column (k, l) of row (i, j) has k + l = i + j: m commutes with D (x) D."""
    n = m.n
    return all(c // n + c % n == i // n + i % n for i, row in enumerate(m._rows) for c in row)


def _vanishes(table, c, **operands: Operator) -> bool:
    """Whether ``table`` sums to zero on ``operands``, its coefficient c bound to ``c``."""
    return not _Identities(**operands)._sum(table, c=c)[2]


# the premises of _DERIVED that no check reports, as functions of a suite's operands
_FACTS = {
    # the normal form's own quantization P CG(1 - beta, 1) = I + beta a, a = classical_cg_r
    "normal form quantization": lambda o: _vanishes(_QUANTIZATION, o.beta(), R=o.cg(), r=o.nf()),
    # P CG(q, p) (D (x) I) = (I (x) D)(I + beta a), a = classical_cg_r, D = diag(p, ..., p^n)
    "twisted quantization": lambda o: _vanishes(_TWISTED, o.beta(), R=o.rhat(), a=o.r(),
                                                X=_twist(o.spec.n, o.spec.p)),
    "weight-preserving": lambda o: _weight_preserving(o.rhat()),
}
# the checks that need only an operator, which run_checks offers a document
_OPERATOR_CHECKS = ("ybe", "hecke", "multiplicities", "classify", "cybe", "acybe", "tilde", "idempotent",
                    "nilpotent", "braid")


def run_checks(op: Operator, names, beta=_no_beta, family=None) -> list[VerificationReport]:
    """Run operator-only checks on ``op`` by name, in the requested order.

    ``op`` must have arity 2, else ValueError before any check runs.
    ``beta`` is a zero-argument callable, called only if hecke or
    multiplicities runs; multiplicities at beta = 2, where no multiplicity
    is defined, raises ValueError.  ``family`` is the tag ``op`` was built
    from, or None, else ValueError.  ``classify`` reports the observed tag
    and always passes.  Every check of ``op`` shares one _Identities.
    """
    if family is not None and family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_TAGS}")
    names = tuple(names)  # read twice below, so an iterator is taken once
    for name in names:
        if name not in _OPERATOR_CHECKS:
            raise ValueError(f"unknown check {name!r}; document input supports {', '.join(_OPERATOR_CHECKS)}")
    if op.arity != 2:
        raise ValueError(f"every check needs an arity-2 operator, got arity {op.arity}")
    operands = _Operands(lambda: op, beta, family)
    return [operands.run(name) for name in names]


@lru_cache(maxsize=16)
def _companion_reports(recipe, constructors) -> dict[str, VerificationReport]:
    """Check name -> report of the classical operator made from ``recipe``; filled by run_suite.

    ``recipe`` is the operator's PhiVector, its MuVector, or (tag, n) for
    classical-cg and boundary, and it fixes every field of those reports:
    the acybe variant is the non-homogeneous one for phi and classical-cg
    and the homogeneous one for mu and boundary.  ``constructors`` are the
    functions that build the operator and its X, as this module looks them
    up, so a replaced constructor makes a new entry.  An entry holds
    reports only, no operator or engine.  The (classical-cg, n) and
    (boundary, n) entries also hold the reports of the normal forms that
    the (tag, check) premises of _DERIVED name, for every phi, every mu
    and cg of that n: a suite reads a premise there, and fills it when it
    is absent (see run_suite).
    """
    return {}


def _applicable(spec: FamilySpec, phi: Optional[PhiVector], beta) -> tuple[str, ...]:
    """The family's suite in order, less the checks that do not apply to ``spec``."""
    tag = spec.family
    skip = set()
    if beta == 2:  # coincident eigenvalues: multiplicities undefined
        skip.add("multiplicities")
    if beta == 1:  # the Cremmer-Gervais coefficient degenerates
        skip.add("equivalence-quantum")
    if tag == "rime-quantum" and not phi.strict:  # no classical companion
        skip.update(("quantization", *_IDEMPOTENT, "equivalence-classical"))
    if (tag == "rime-quantum" and beta == 0) or (tag == "cg" and (spec.p != 1 or spec.q2inv == 1)):
        skip.add("quantization")
    return tuple(name for name in _SUITES[tag] if name not in skip)


@lru_cache(maxsize=64)
def _derived(tag: str, names: tuple, available: tuple) -> dict:
    """The rows of _DERIVED that a suite of ``tag`` requesting ``names`` of ``available`` decides, in order.

    A check is decided from its premises when it is requested with every
    premise that is a check of its suite, or, where it has none (cg), with
    the whole suite.  It is cached on its arguments, as _DERIVED and
    _SUITES are fixed at import, so callers only read the dict.
    """
    return {name: premises for name, rows in _DERIVED.items() if name in names and (premises := rows.get(tag))
            and set([p for p in premises if p in _SUITES[tag]] or available) <= set(names)}


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
    that suite's reports without computing them again.  When every
    requested check is one of them and r's entry holds them all, the suite
    returns them from that one lookup, before any operand is made.

    A suite decides each check of _DERIVED from its premises, by one rule:
    when the suite requests every premise that is a check of its suite (a
    cg suite, whose premises are none, must request its whole suite), it
    decides the check after every other check, in _DERIVED's order, and if
    every premise passes, the check's report is the pass its table would
    give, and that table is not summed.  A premise that is a check of the
    suite passes through the same route; a (tag, check) premise is the
    report of check on the normal form of (tag, n), read from that memo
    entry and, when absent, computed there by one engine on the normal
    form (for cg, r itself); a fact of _FACTS is computed once and never
    reported.  The pass of a check of r is the normal form's report, which
    carries no witness and the same name and metadata; that of ybe, hecke
    and equivalence-quantum comes from its table route's helper on an
    engine whose tables vanish (_Vanishing).  The check's own table runs
    whenever a premise is not requested (a check alone, beta = 0, a phi
    holding 0) or fails, so a failing report always carries its own
    witness and max_residual.

    The rows rest on these identities.  First the carry, for r's checks
    but equivalence-classical in a suite of a phi or a mu: every table of
    cybe, acybe, tilde, idempotent, nilpotent and braid is a polynomial in
    r12, r13, r23, r21, P and I, and conjugation by X (x) X (x) X commutes
    with each of them.  So once equivalence-classical has proved
    r = Ad X(a) for the normal form a (classical_cg_r for phi, boundary_b
    for mu), with det X != 0, a table vanishes on r exactly when it
    vanishes on a.  Then, for every arity-2 r and rationals c, s and beta,
    with P Rhat = I + c r, Y and H(Rhat) = Rhat^2 - beta Rhat + (beta - 1) I
    the YBE and Hecke residuals, B2(r) = r12 r13 r23 - r23 r13 r12 and
    P13 = P12 P23 P12:

    - Y(Rhat) = -P13 (c^2 CYBE(r) + c^3 B2(r));
    - B2(r) = r12 (A'(r) + s r13) - (A(r) + s r13) r12 - (r^2 + s r)12 r13
      + r13 (r^2 + s r)12, where A' = A + CYBE;
    - H(Rhat) = beta S + beta^2 S r - beta^2 (r^2 + r) at c = beta, and
      K + K r - r^2 at c = 1, beta = 0, with K = r + r21, S = K - P + I;
    - if P CG = I + c a, (X (x) X) CG - Rhat (X (x) X) = c P ((X (x) X) a - r (X (x) X)).

    Quantization gives c = beta, or 1 for mu (whose beta is 0).  The
    non-homogeneous acybe and r^2 = -r (phi) make A + r13, S and r^2 + r
    vanish, s = 1; the homogeneous acybe and r^2 = 0 (mu) do so for A, K
    and r^2, s = 0.  equivalence-classical makes (X (x) X) a = r (X (x) X)
    for a = classical_cg_r, and the fact "normal form quantization" is the
    normal form's own P CG(1 - beta, 1) = I + beta a.

    A cg suite quantizes CG(q, p) at every p through a twist.  With
    D = diag(p, p^2, ..., p^n), F = D (x) I, a = classical_cg_r and
    beta = 1 - q^-2, the fact "twisted quantization",
    P CG (D (x) I) = (I (x) D)(I + beta a), gives P R1 = I + beta a for
    R1 = F^-1 CG F.  With a's cybe, acybe and idempotent passing,
    Y(R1) = H(R1) = 0 by the identities above at c = beta.  For every
    invertible diagonal D and arity-2 R, with R1 = F^-1 R F:

    - H(R) = F H(R1) F^-1;
    - Y(R) = W Y(R1) W^-1 with W = D^2 (x) D (x) I, when R commutes with
      D (x) D: ybe also needs the fact "weight-preserving", that every
      stored column (k, l) of row (i, j) of CG has k + l = i + j.
    """
    tag = spec.family
    phi = PhiVector(spec.phi) if spec.phi is not None else None
    mu = MuVector(spec.mu) if spec.mu is not None else None
    params = beta = None
    if tag == "cg":
        beta = _ONE - spec.q2inv
    elif tag in ("rime-quantum", "rime-unitary"):
        params = beta_from_phi(spec.beta, phi) if phi is not None else unitary_beta(mu)
        beta = params.beta
    available = _applicable(spec, phi, beta)
    names = available if names is None else tuple(names)
    missing = [name for name in names if name not in available]
    if missing:
        raise ValueError(
            f"check(s) {','.join(missing)} not applicable to family {tag!r}; "
            f"available: {','.join(available)}"
        )
    # r's memo key: a replaced constructor makes a new entry
    weights = phi if mu is None else mu
    key = (weights if weights is not None else (tag, spec.n),
           (classical_rime_r, classical_unitary_r0, classical_cg_r, boundary_b, x_matrix))
    entry = None
    if names and _COMPANIONS.issuperset(names):  # r's checks only: look r up first, as the first check would
        entry = _companion_reports(*key)
        if all(map(entry.__contains__, names)):
            return _with_family(spec, [entry[name] for name in names])
    derived = _derived(tag, names, available)
    operands = _SuiteOperands(spec, phi, mu, params, beta, derived, key, entry)
    # the derived checks last, in _DERIVED's order, so every other check runs in the requested order
    order = [name for name in dict.fromkeys(names) if name not in derived] + list(derived)
    reports = {name: operands.run(name) for name in order}
    return _with_family(spec, [reports[name] for name in names])


def _with_family(spec: FamilySpec, reports) -> list[VerificationReport]:
    """Each report with describe(spec) merged into a fresh copy of its metadata.

    The copies skip the frozen __init__ (one object.__setattr__ a field):
    each takes the report's fields as they are and a new metadata dict.
    """
    fam = describe(spec)
    out = []
    for rep in reports:
        copy = object.__new__(VerificationReport)
        copy.__dict__.update(rep.__dict__, metadata={**fam, **rep.metadata})
        out.append(copy)
    return out
