"""Exact identity checks: each verdict validated on known passes and known failures."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_distinct, random_rational
from oracle import chain_table, charpoly, matrix_unit, transpose, verdict
from rimealg.core import (
    Operator,
    conjugate_pair,
    embed,
    flip21,
    identity,
    kron,
    permutation,
    zero,
)
from rimealg.families import (
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
    rime_general,
    unitary_beta,
    x_matrix,
)
from rimealg.verify import (
    assoc_A,
    assoc_Aprime,
    check_beta_constancy,
    check_braid_identities,
    check_cybe,
    check_equivalence_classical,
    check_equivalence_quantum,
    check_hecke,
    check_homogeneous_acybe,
    check_idempotent_exponential,
    check_nilpotent_exponential,
    check_nonhomogeneous_acybe,
    check_quantization,
    check_tilde_relations,
    check_ybe,
    classify_structure,
    hecke_multiplicities,
    StructureClass,
    VerificationReport,
    run_checks,
    run_suite,
)

F = Fraction

RIME_2 = rime_from_beta(beta_from_phi(3, PhiVector((2, 1))))

small_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2)))


def operators2(n):
    size = n * n
    row = st.lists(small_rationals, min_size=size, max_size=size)
    rows = st.lists(row, min_size=size, max_size=size)
    return rows.map(lambda data: Operator(n, 2, data))


def _tampered(op, row, col, value):
    data = op.dense_rows()
    data[row][col] = F(value)
    return Operator(op.n, op.arity, data)


def random_phi(rng, n):
    return PhiVector(random_distinct(rng, n, nonzero=True))


def random_mu(rng, n):
    return MuVector(random_distinct(rng, n, nonzero=False))


# -- Yang-Baxter ---------------------------------------------------------------


def test_ybe_identity_passes():
    rep = check_ybe(identity(2, 2))
    assert rep.passed
    assert rep.max_residual == 0
    assert rep.witness is None


def test_ybe_rime_passes():
    assert check_ybe(RIME_2).passed


def test_ybe_detects_tampering():
    bad = _tampered(RIME_2, 1, 2, 5)  # row (1,2), column (2,1): 4 -> 5
    rep = check_ybe(bad)
    assert not rep.passed
    assert rep.max_residual > 0
    row, col, value = rep.witness
    assert len(row) == len(col) == 3
    assert value != 0


# -- Hecke ----------------------------------------------------------------------


def test_hecke_permutation():
    assert check_hecke(permutation(2), 0).passed


def test_hecke_rime_and_square_entry():
    assert check_hecke(RIME_2, 3).passed
    # spot value of the square fixed by the quadratic relation
    square = RIME_2 @ RIME_2
    assert square.entry((1, 2), (1, 1)) == -18


def test_hecke_failure_witness():
    bad = permutation(2) + kron(matrix_unit(1, 1, 2), matrix_unit(1, 1, 2))
    rep = check_hecke(bad, 0)
    assert not rep.passed
    assert rep.witness == ((1, 1), (1, 1), F(3))


def test_hecke_multiplicities_known_cases(rng):
    assert hecke_multiplicities(RIME_2, 3) == (3, 1)
    assert hecke_multiplicities(permutation(2), 0) == (3, 1)
    rhat = rime_from_beta(beta_from_phi(F(1, 2), random_phi(rng, 3)))
    assert hecke_multiplicities(rhat, F(1, 2)) == (6, 3)


def test_hecke_multiplicities_rejections():
    with pytest.raises(ValueError):
        hecke_multiplicities(RIME_2, 2)
    lopsided = Operator(2, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(ValueError):
        hecke_multiplicities(lopsided, 0)


@given(st.data(), st.integers(2, 3))
def test_hecke_holds_for_every_beta(data, n):
    beta = data.draw(small_rationals)
    phi = data.draw(
        st.lists(small_rationals.filter(bool), min_size=n, max_size=n, unique=True)
    )
    rhat = rime_from_beta(beta_from_phi(beta, PhiVector(tuple(phi))))
    assert check_hecke(rhat, beta).passed
    if beta != 2:
        assert hecke_multiplicities(rhat, beta) == (n * (n + 1) // 2, n * (n - 1) // 2)


# -- classical equations -----------------------------------------------------------


def test_assoc_combinations_known_values():
    assert assoc_A(zero(2, 2)).is_zero()
    assert assoc_Aprime(zero(2, 2)).is_zero()
    r0 = classical_unitary_r0(MuVector((0, 1)))
    assert assoc_A(r0).is_zero()
    r = classical_rime_r(PhiVector((2, 1)))
    assert assoc_A(r) == -embed(r, 13)
    assert assoc_Aprime(r) == -embed(r, 13)


def test_cybe_known_solutions():
    assert check_cybe(zero(2, 2)).passed
    assert check_cybe(classical_rime_r(PhiVector((2, 1)))).passed
    assert check_cybe(boundary_b(3)).passed


def _assoc_oracle(r):
    # A(r) and A'(r) built from the embedded legs with @, + and -
    r12, r13, r23 = embed(r, 12), embed(r, 13), embed(r, 23)
    return r13 @ r12 - r12 @ r23 + r23 @ r13, r12 @ r13 - r23 @ r12 + r13 @ r23


@given(operators2(2))
def test_cybe_splitting_identity_on_arbitrary_operators(r):
    # the splitting identity: the commutator residual equals A'(r) - A(r) for any operator
    a, a_prime = _assoc_oracle(r)
    rep = check_cybe(r)
    assert rep.max_residual == (a_prime - a).max_abs()


@given(st.sampled_from((2, 3)).flatmap(operators2))
def test_cybe_report_equals_splitting_report(r):
    # the report, witness included, must be the one the splitting A'(r) - A(r) gives
    a, a_prime = _assoc_oracle(r)
    split = verdict("cybe", [("cybe", a_prime - a)], {"n": r.n})
    rep = check_cybe(r)
    assert rep == split


def _count_leg_placements(monkeypatch) -> list:
    """The legs the engine places, as the ints 12, 13 and 23, in the order it places them."""
    import rimealg.verify as verify

    legs = []
    placed = verify._placed

    def counting_placed(rows, n, place):
        if place in ("12", "13", "23"):
            legs.append(int(place))
        return placed(rows, n, place)

    monkeypatch.setattr(verify, "_placed", counting_placed)
    return legs


def test_check_cybe_embeds_once_and_makes_no_operator_product(monkeypatch):
    embeds = _count_leg_placements(monkeypatch)
    products = []
    matmul = Operator.__matmul__

    def counting_matmul(a, b):
        products.append(a.arity)
        return matmul(a, b)

    monkeypatch.setattr(Operator, "__matmul__", counting_matmul)
    assert check_cybe(classical_rime_r(PhiVector((3, 2, 1)))).passed
    assert sorted(embeds) == [12, 13, 23]
    assert not check_cybe(_tampered(classical_cg_r(3), 1, 5, 1)).passed
    assert products == []


@pytest.mark.parametrize("check", [check_cybe, check_nonhomogeneous_acybe, check_homogeneous_acybe,
                                   check_tilde_relations, check_braid_identities])
def test_arity3_checks_embed_each_leg_once(check, monkeypatch):
    r = classical_rime_r(PhiVector((3, 2, 1)))
    embeds = _count_leg_placements(monkeypatch)
    check(r)
    assert sorted(embeds) == [12, 13, 23]  # in the order the check's tables first use them


def test_nonhomogeneous_acybe(rng):
    for n in (2, 3, 4):
        assert check_nonhomogeneous_acybe(classical_rime_r(random_phi(rng, n))).passed
        assert check_nonhomogeneous_acybe(classical_cg_r(n)).passed
    rep = check_nonhomogeneous_acybe(classical_unitary_r0(MuVector((0, 1))))
    assert not rep.passed
    assert rep.metadata["variant"] == "non-homogeneous"
    assert rep.metadata["failed_part"] == "A(r) = -r13"


def test_homogeneous_acybe(rng):
    for n in (2, 3, 4):
        assert check_homogeneous_acybe(classical_unitary_r0(random_mu(rng, n))).passed
        assert check_homogeneous_acybe(boundary_b(n)).passed
    rep = check_homogeneous_acybe(classical_rime_r(PhiVector((2, 1))))
    assert not rep.passed
    assert rep.metadata["variant"] == "homogeneous"


def test_tilde_relations():
    assert check_tilde_relations(classical_rime_r(PhiVector((2, 1)))).passed
    assert check_tilde_relations(classical_cg_r(2)).passed
    rep = check_tilde_relations(zero(2, 2))
    assert not rep.passed
    assert rep.metadata["failed_part"] == "rt + rt21 = P"


def sparse_operators2(n):
    # about half the cells zero, so the arity-3 products stay cheap at n = 3
    size = n * n
    row = st.lists(st.one_of(st.just(F(0)), small_rationals), min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size).map(lambda data: Operator(n, 2, data))


@given(st.sampled_from((1, 2, 3)).flatmap(sparse_operators2))
def test_tilde_report_equals_shifted_form_oracle(r):
    # the relations as stated, on rt = r + I/2; check_tilde_relations never builds rt
    n = r.n
    rt = r + F(1, 2) * identity(n, 2)
    parts = [
        ("A(rt) = I/4", _assoc_oracle(rt)[0] - F(1, 4) * identity(n, 3)),
        ("rt + rt21 = P", rt + flip21(rt) - permutation(n)),
    ]
    assert check_tilde_relations(r) == verdict("tilde", parts, {"n": n})


def test_braid_identities(rng):
    for n in (2, 3):
        assert check_braid_identities(classical_rime_r(random_phi(rng, n))).passed
        assert check_braid_identities(classical_cg_r(n)).passed
    assert check_braid_identities(permutation(3)).passed


def test_idempotent_exponential():
    rep = check_idempotent_exponential(classical_rime_r(PhiVector((2, 1))))
    assert rep.passed  # includes the semigroup law once r^2 = -r holds
    assert check_idempotent_exponential(zero(2, 2)).passed
    rep = check_idempotent_exponential(classical_unitary_r0(MuVector((0, 1))))
    assert not rep.passed
    assert rep.witness is not None


def test_nilpotent_exponential(rng):
    assert check_nilpotent_exponential(classical_unitary_r0(MuVector((0, 1)))).passed
    for n in (2, 3, 4):
        assert check_nilpotent_exponential(boundary_b(n)).passed
    rep = check_nilpotent_exponential(permutation(2) - identity(2, 2))
    assert not rep.passed


# -- the exponential of r, exactly ------------------------------------------------

EXP_STEPS = (F(1, 2), F(-3), F(7, 5))


def _partial_sums(r, h, terms):
    """Yield sum_{k <= N} (h r)^k / k! for N = 0 .. terms, one exact term at a time."""
    term = identity(r.n, 2)
    acc = term
    yield acc
    for k in range(1, terms + 1):
        term = (F(1, k) * h) * (term @ r)
        acc = acc + term
        yield acc


@pytest.mark.parametrize("phi", [(2, 1), (3, 2, 1), (5, -1, 2), (F(7, 2), 4, 1, -3)],
                         ids=["2-1", "3-2-1", "5--1-2", "7/2-4-1--3"])
def test_exponential_partial_sums_of_an_idempotent(phi):
    # r^2 = -r makes r^k = (-1)^(k-1) r, so each partial sum of exp(h r) is
    # I + c_N r with c_N = -sum_{1 <= k <= N} (-h)^k / k!, the truncation of 1 - e^(-h)
    r = classical_rime_r(PhiVector(tuple(F(p) for p in phi)))
    assert not r.is_zero()
    assert check_idempotent_exponential(r).passed
    assert not check_nilpotent_exponential(r).passed
    eye = identity(r.n, 2)
    for h in EXP_STEPS:
        c, power = F(0), F(1)
        for k, partial in enumerate(_partial_sums(r, h, 8)):
            if k:
                power *= -h / k
                c -= power
            assert partial == eye + c * r
        for t in EXP_STEPS:
            assert (eye + h * r) @ (eye + t * r) == eye + (h + t - h * t) * r


@pytest.mark.parametrize("r0", [
    classical_unitary_r0(MuVector((0, 1))),
    classical_unitary_r0(MuVector((0, 1, 3))),
    classical_unitary_r0(MuVector((-2, 0, 1, 3))),
    classical_unitary_r0(MuVector((F(1, 2), 5, -3))),
    boundary_b(2),
    boundary_b(3),
], ids=["mu-0-1", "mu-0-1-3", "mu--2-0-1-3", "mu-1/2-5--3", "boundary-2", "boundary-3"])
def test_exponential_series_of_a_nilpotent_stops_at_the_linear_term(r0):
    # r0^2 = 0: every partial sum of exp(h r0) past the first is I + h r0, and
    # exp(-r0) = I - r0 inverts it
    assert not r0.is_zero()
    assert check_nilpotent_exponential(r0).passed
    assert not check_idempotent_exponential(r0).passed
    eye = identity(r0.n, 2)
    for h in EXP_STEPS:
        partials = list(_partial_sums(r0, h, 6))
        assert partials[0] == eye
        assert all(p == eye + h * r0 for p in partials[1:])
        assert (eye + h * r0) @ (eye - h * r0) == eye
    assert (eye + r0) @ (eye - r0) == eye


def _conjugated(rng):
    """r = M D M^-1 for M = L L^T, L unit lower triangular: -(projector) or a square-zero D."""
    n = rng.choice((1, 2, 3))
    size = n * n

    def small():
        return F(rng.randint(-9, 9), rng.randint(1, 7))

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


def test_exponential_laws_on_conjugated_operators(rng):
    # dense operators with mixed denominators, similar to an idempotent or a nilpotent
    for _ in range(30):
        r, nilpotent = _conjugated(rng)
        eye = identity(r.n, 2)
        if nilpotent:
            assert check_nilpotent_exponential(r).passed
            assert (eye + r) @ (eye - r) == eye
        else:
            assert check_idempotent_exponential(r).passed
            t, s = rng.choice(EXP_STEPS), rng.choice(EXP_STEPS)
            assert (eye + t * r) @ (eye + s * r) == eye + (t + s - t * s) * r


def test_exponential_checks_reject_a_shifted_entry():
    # a shifted entry breaks r^2 = -r (r^2 = 0); the report, witness included,
    # is verdict over that relation's residual
    r = classical_rime_r(PhiVector((3, 2, 1)))
    r0 = classical_unitary_r0(MuVector((0, 1, 3)))
    for op, check, name, part, square in (
            (r, check_idempotent_exponential, "idempotent", "r^2 = -r", lambda a: a @ a + a),
            (r0, check_nilpotent_exponential, "nilpotent", "r^2 = 0", lambda a: a @ a)):
        bad = Operator.from_items(op.n, 2, [*op.nonzero_items(), ((1, 2), (2, 1), F(1, 3))])
        assert bad != op
        rep = check(bad)
        assert not rep.passed
        assert rep.witness is not None
        assert rep == verdict(name, [(part, square(bad))], {"n": bad.n})


# arbitrary operators next to known idempotents (r^2 = -r) and nilpotents (r^2 = 0)
EXPONENTIAL_CASES = st.one_of(
    st.integers(1, 3).flatmap(operators2),
    st.sampled_from([zero(2, 2), classical_rime_r(PhiVector((3, 2, 1))), classical_cg_r(3),
                     classical_unitary_r0(MuVector((0, 1, 3))), boundary_b(3)]),
)


@given(EXPONENTIAL_CASES, small_rationals, small_rationals)
def test_exponential_law_identities_on_arbitrary_operators(r, t, s):
    # the identities that make each law a consequence of its first relation
    eye = identity(r.n, 2)
    semigroup = (eye + t * r) @ (eye + s * r) - (eye + (t + s - t * s) * r)
    assert semigroup == t * s * (r @ r + r)
    assert (eye + r) @ (eye - r) - eye == -(r @ r)


@given(EXPONENTIAL_CASES)
def test_exponential_reports_equal_the_two_part_reports(r):
    # the reports, witness included, are those of computing each law as a second part
    eye = identity(r.n, 2)
    parts = [("r^2 = -r", r @ r + r)]
    if parts[0][1].is_zero():
        law = (eye + F(1, 2) * r) @ (eye + F(1, 3) * r) - (eye + F(2, 3) * r)
        parts.append(("semigroup law", law))
    assert check_idempotent_exponential(r) == verdict("idempotent", parts, {"n": r.n})
    parts = [("r^2 = 0", r @ r)]
    if parts[0][1].is_zero():
        parts.append(("(I + r)(I - r) = I", (eye + r) @ (eye - r) - eye))
    assert check_nilpotent_exponential(r) == verdict("nilpotent", parts, {"n": r.n})


# -- the quadratic checks against their operator expressions ---------------------

QUADRATIC_BETAS = st.sampled_from([F(0), F(1), F(2), F(1, 3), F(-7, 2)])


def _assert_quadratic_reports_match(op, beta):
    # each report, witness and max_residual included, equals verdict over the
    # residual built from operators with @, * and -
    eye = identity(op.n, 2)
    expected = [
        verdict("hecke", [("hecke", op @ op - beta * op - (1 - beta) * eye)], {"beta": str(beta)}),
        verdict("idempotent", [("r^2 = -r", op @ op + op)], {"n": op.n}),
        verdict("nilpotent", [("r^2 = 0", op @ op)], {"n": op.n}),
    ]
    reports = [check_hecke(op, beta), check_idempotent_exponential(op),
               check_nilpotent_exponential(op)]
    assert reports == expected
    for rep in reports:
        assert type(rep.max_residual) is F
        assert rep.witness is None or type(rep.witness[2]) is F


@given(st.integers(1, 3).flatmap(operators2), QUADRATIC_BETAS)
def test_quadratic_checks_match_operator_expressions(op, beta):
    _assert_quadratic_reports_match(op, beta)


@given(st.data(), st.integers(2, 3), QUADRATIC_BETAS, st.booleans())
def test_quadratic_checks_match_on_tampered_rime_operators(data, n, beta, inside):
    values = tuple(data.draw(
        st.lists(small_rationals.filter(bool), min_size=n, max_size=n, unique=True)))
    op = data.draw(st.sampled_from([
        rime_from_beta(beta_from_phi(beta, PhiVector(values))),
        classical_rime_r(PhiVector(values)),
        classical_unitary_r0(MuVector(values)),
    ]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    pattern = {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}  # row (i, j) of a rime operator
    cols = [c for c in range(n * n) if (c in pattern) == inside]
    assume(cols)
    col = data.draw(st.sampled_from(cols))
    value = op.dense_rows()[i * n + j][col] + data.draw(small_rationals.filter(bool))
    _assert_quadratic_reports_match(op, beta)
    _assert_quadratic_reports_match(_tampered(op, i * n + j, col, value), beta)


def test_quadratic_checks_scale_by_the_lcm_of_distinct_prime_denominators():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    mixed = Operator(2, 2, [[F(k + 1, p) for k, p in enumerate(primes[4 * r:4 * r + 4])]
                            for r in range(4)])
    # similar to a Hecke operator, an idempotent and a nilpotent, with mixed denominators
    x = Operator(3, 1, [[1, F(1, 2), 0], [0, 1, F(1, 3)], [F(1, 5), 0, 1]])
    rhat = conjugate_pair(rime_from_beta(beta_from_phi(F(1, 3), PhiVector((3, 2, 1)))), x)
    r = conjugate_pair(classical_rime_r(PhiVector((3, 2, 1))), x)
    r0 = conjugate_pair(classical_unitary_r0(MuVector((0, 1, 3))), x)
    for op in (rhat, r, r0):
        assert len({v.denominator for row in op.rows for v in row.values()}) > 2
    assert check_hecke(rhat, F(1, 3)).passed
    assert check_idempotent_exponential(r).passed
    assert check_nilpotent_exponential(r0).passed
    for op in (mixed, rhat, r, r0):
        for beta in (F(0), F(1, 3), F(-7, 2), F(5, 11)):
            _assert_quadratic_reports_match(op, beta)


# -- the arity-3 chain-sum checks against their operator expressions --------------


def _assert_arity3_reports_match(op):
    # assoc_A and assoc_Aprime equal their @ expressions, and each report,
    # witness, max_residual and failed_part included, equals verdict over the
    # residuals built from the embedded legs with @, + and -; tilde's are
    # built on rt = r + I/2 itself
    n = op.n
    r12, r13, r23 = embed(op, 12), embed(op, 13), embed(op, 23)
    a, a_prime = _assoc_oracle(op)
    assert assoc_A(op) == a
    assert assoc_Aprime(op) == a_prime
    braid = r12 @ r23 @ r12 - r23 @ r12 @ r23
    cybe = r12 @ r23 - r23 @ r12 + r12 @ r13 - r13 @ r12 + r13 @ r23 - r23 @ r13
    pair = op + flip21(op)
    rt = op + F(1, 2) * identity(n, 2)
    expected = [
        verdict("ybe", [("ybe", braid)], {"n": n}),
        verdict("braid", [("r12 r23 r12 = r23 r12 r23", braid),
                           ("r12 r13 r23 = r23 r13 r12", r12 @ r13 @ r23 - r23 @ r13 @ r12)],
                 {"n": n}),
        verdict("cybe", [("cybe", cybe)], {"n": n}),
        verdict("acybe", [("A(r) = -r13", a + r13),
                           ("r + r21 = P - I", pair - (permutation(n) - identity(n, 2)))],
                 {"variant": "non-homogeneous"}),
        verdict("acybe", [("A(r) = 0", a), ("r + r21 = 0", pair)], {"variant": "homogeneous"}),
        verdict("tilde", [("A(rt) = I/4", _assoc_oracle(rt)[0] - F(1, 4) * identity(n, 3)),
                           ("rt + rt21 = P", rt + flip21(rt) - permutation(n))],
                 {"n": n}),
    ]
    reports = [check_ybe(op), check_braid_identities(op), check_cybe(op),
               check_nonhomogeneous_acybe(op), check_homogeneous_acybe(op),
               check_tilde_relations(op)]
    assert reports == expected
    for rep in reports:
        assert type(rep.max_residual) is F
        assert rep.witness is None or type(rep.witness[2]) is F


integer_operators2 = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n), min_size=n * n, max_size=n * n,
).map(lambda data: Operator(n, 2, data)))


@given(st.one_of(
    st.integers(1, 3).flatmap(sparse_operators2),
    integer_operators2,
    st.sampled_from([zero(n, 2) for n in (1, 2, 3)]),
))
def test_cubic_checks_match_operator_expressions(op):
    _assert_arity3_reports_match(op)


@given(st.data(), st.integers(2, 4), st.booleans())
def test_cubic_checks_match_on_tampered_family_operators(data, n, inside):
    values = tuple(data.draw(
        st.lists(small_rationals.filter(bool), min_size=n, max_size=n, unique=True)))
    beta = data.draw(QUADRATIC_BETAS)
    op = data.draw(st.sampled_from([
        rime_from_beta(beta_from_phi(beta, PhiVector(values))),
        classical_rime_r(PhiVector(values)),
        classical_cg_r(n),
    ]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    pattern = {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}  # row (i, j) of a rime operator
    cols = [c for c in range(n * n) if (c in pattern) == inside]
    assume(cols)
    col = data.draw(st.sampled_from(cols))
    value = op.dense_rows()[i * n + j][col] + data.draw(small_rationals.filter(bool))
    _assert_arity3_reports_match(op)
    _assert_arity3_reports_match(_tampered(op, i * n + j, col, value))


def test_cubic_checks_scale_by_the_lcm_of_distinct_prime_denominators():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    mixed = Operator(2, 2, [[F(k + 1, p) for k, p in enumerate(primes[4 * r:4 * r + 4])]
                            for r in range(4)])
    # similar to a braided operator and to an idempotent one, with mixed denominators
    x = Operator(3, 1, [[1, F(1, 2), 0], [0, 1, F(1, 3)], [F(1, 5), 0, 1]])
    rhat = conjugate_pair(rime_from_beta(beta_from_phi(F(1, 3), PhiVector((3, 2, 1)))), x)
    r = conjugate_pair(classical_rime_r(PhiVector((3, 2, 1))), x)
    for op in (rhat, r):
        assert len({v.denominator for row in op.rows for v in row.values()}) > 2
    assert check_ybe(rhat).passed
    assert check_braid_identities(r).passed
    assert check_cybe(r).passed
    assert check_nonhomogeneous_acybe(r).passed
    assert check_tilde_relations(r).passed
    for op in (mixed, rhat, r, _tampered(r, 1, 5, F(1, 7))):
        _assert_arity3_reports_match(op)


def test_cubic_checks_make_no_operator_product(monkeypatch):
    # no check makes an Operator product, and none adds or subtracts arity-3 Operators
    calls = []

    def counting(method):
        original = getattr(Operator, method)

        def wrapper(a, b):
            calls.append((method, a.arity))
            return original(a, b)

        monkeypatch.setattr(Operator, method, wrapper)

    for method in ("__matmul__", "__add__", "__sub__"):
        counting(method)
    r = classical_rime_r(PhiVector((3, 2, 1)))
    r0 = classical_unitary_r0(MuVector((0, 1, 3)))
    bad = _tampered(classical_cg_r(3), 1, 5, 1)
    assert check_ybe(rime_from_beta(beta_from_phi(F(1, 3), PhiVector((3, 2, 1))))).passed
    assert check_braid_identities(r).passed
    assert not check_braid_identities(bad).passed
    for check, good in ((check_nonhomogeneous_acybe, r), (check_tilde_relations, r),
                        (check_homogeneous_acybe, r0)):
        assert check(good).passed
        assert not check(bad).passed
    for combination in (assoc_A, assoc_Aprime):
        assert combination(r) == -embed(r, 13)
        assert combination(bad) != -embed(bad, 13)
    assert [call for call in calls if call[0] == "__matmul__" or call[1] == 3] == []


@pytest.mark.parametrize("check", [check_ybe, check_braid_identities])
@pytest.mark.parametrize("arity", [1, 3])
def test_cubic_checks_reject_other_arities(check, arity):
    with pytest.raises(ValueError, match="^embed expects an arity-2 operator$"):
        check(identity(2, arity))


_ARITY3_CHECKS = (check_ybe, check_braid_identities, check_cybe, check_nonhomogeneous_acybe,
                  check_homogeneous_acybe, check_tilde_relations, assoc_A, assoc_Aprime)


@pytest.mark.parametrize("check", _ARITY3_CHECKS[2:])  # ybe and braid: the test above
@pytest.mark.parametrize("arity", [1, 3])
def test_every_arity3_check_rejects_other_arities_through_embed(check, arity):
    with pytest.raises(ValueError, match="^embed expects an arity-2 operator$"):
        check(identity(2, arity))


# -- every identity table against its operator-arithmetic oracle ------------------


def _dense(rng, n, arity):
    size = n**arity
    return Operator(n, arity, [[random_rational(rng) if rng.random() < 0.6 else 0 for _ in range(size)]
                               for _ in range(size)])


def _identity_table_cases(rng):
    # dense random operators at n = 1..3 of arity 1, 2 and 3, then every family
    # at n = 1..3 with copies shifted at one entry inside and outside the rime pattern
    for n in (1, 2, 3):
        for arity in (1, 2, 3):
            yield _dense(rng, n, arity)
        for spec in _seeded_specs(rng, n):
            op = build(spec)
            yield op
            for inside in (True, False):
                bad = _shifted_at(rng, op, inside)
                if bad is not None:
                    yield bad


def _record_residuals(monkeypatch):
    # every (operands, table, bound coefficients, residual) that an _Identities
    # sums, the residual built as an Operator from the int rows over their scale,
    # which hold no zero row and no zero entry
    import rimealg.verify as verify

    summed = []
    int_sum = verify._Identities._sum

    def recording(self, table, **bound):
        result = arity, scale, rows = int_sum(self, table, **bound)
        assert all(row and all(row.values()) for row in rows.values())
        n = self.n
        dense = [[F(rows.get(i, {}).get(j, 0), scale) for j in range(n**arity)] for i in range(n**arity)]
        summed.append((self.operands, table, bound, Operator(n, arity, dense)))
        return result

    monkeypatch.setattr(verify._Identities, "_sum", recording)
    return summed


def test_every_identity_table_matches_its_operator_oracle(monkeypatch):
    # every table that a single-operator check sums, caught where _Identities
    # hands back its residual, equals the same table summed with @, +, embed,
    # flip21, permutation and identity: whole residual operators, not only witnesses
    import rimealg.verify as verify

    summed = _record_residuals(monkeypatch)
    rng = random.Random("identity-tables")
    tables = set()
    for op in _identity_table_cases(rng):
        summed.clear()
        if op.arity == 2:
            for check in _ARITY3_CHECKS:
                check(op)
            run_checks(op, ["acybe"])  # untagged, so r + r21 picks the variant
        for beta in (0, F(1, 3), F(-7, 3), 2):
            check_hecke(op, beta)
        check_idempotent_exponential(op)
        check_nilpotent_exponential(op)
        for operands, table, bound, result in summed:
            assert list(operands) == ["r"] and operands["r"] is op
            assert result == chain_table(operands, table, **bound), (op, table, bound)
            tables.add(table)
    named = {table for _, parts, _ in verify._CHECKS.values() for _, table in parts}
    named |= {verify._A, verify._A_PRIME, verify._SKEW, verify._SQUARE, verify._SQUARE_PLUS}
    assert tables == named - {verify._QUANTIZATION, verify._CONJUGATION}


def _invertible(rng, n):
    x = _dense(rng, n, 1)
    while not x.det():
        x = _dense(rng, n, 1)
    return x


def _two_operand_cases(rng, n):
    # (Rhat, beta, r) and (a, X, t) cases: dense random operands with an invertible
    # X, then each family's own, each also with one operand shifted at one entry
    # inside or outside the rime pattern
    phi, mu = random_phi(rng, n), random_mu(rng, n)
    beta = random_rational(rng, True)
    quantizations = [(_dense(rng, n, 2), random_rational(rng), _dense(rng, n, 2)),
                     (rime_from_beta(beta_from_phi(beta, phi)), beta, classical_rime_r(phi)),
                     (rime_from_beta(unitary_beta(mu)), F(0), classical_unitary_r0(mu)),
                     (cremmer_gervais(n, 1 - beta, 1), beta, classical_cg_r(n))]
    conjugations = [(_dense(rng, n, 2), _invertible(rng, n), _dense(rng, n, 2)),
                    *_equivalence_triples(rng, n)]
    for rhat, beta, r in quantizations:
        yield "quantization", (rhat, beta, r)
        for inside in (True, False):
            for case in ((_shifted_at(rng, rhat, inside), beta, r), (rhat, beta, _shifted_at(rng, r, inside))):
                if None not in case:
                    yield "quantization", case
    for a, x, t in conjugations:
        yield "conjugation", (a, x, t)
        for inside in (True, False):
            for case in ((_shifted_at(rng, a, inside), x, t), (a, x, _shifted_at(rng, t, inside))):
                if None not in case:
                    yield "conjugation", case


def test_two_operand_tables_match_their_operator_oracle(monkeypatch):
    # quantization and both equivalences, caught where _Identities hands back
    # their residuals, equal their tables summed with @, +, kron and permutation;
    # conjugate_pair equals its own five-factor chain; and the inverse-free
    # residual is the conjugated one carried by X (x) X
    import rimealg.verify as verify

    summed = _record_residuals(monkeypatch)
    rng = random.Random("two-operand-tables")
    tables = set()
    for n in (1, 2, 3):
        for kind, case in _two_operand_cases(rng, n):
            summed.clear()
            if kind == "quantization":
                assert check_quantization(*case) == _quantization_oracle(*case)
            else:
                a, x, t = case
                xx = kron(x, x)
                assert _conjugation_residual(a, x, t) == (conjugate_pair(a, x) - t) @ xx == xx @ a - t @ xx
                conjugate = chain_table({"X": x, "a": a, "Y": x.inverse()},
                                        ((1, ("X1", "X2", "a", "Y1", "Y2")),))
                assert conjugate_pair(a, x) == conjugate
            for operands, table, bound, result in summed:
                assert result == chain_table(operands, table, **bound), (kind, case)
                tables.add(table)
    assert tables == {verify._QUANTIZATION, verify._CONJUGATION}


# operators whose two-part reports fail in the later part only: e12 (x) e12 for
# the homogeneous acybe, -I for the non-homogeneous acybe and tilde, and one that
# solves the YBE but not r12 r13 r23 = r23 r13 r12; then two at D = 2 whose
# later part (r + r21 ..., summed at scale D) holds the larger maximum, while the
# first part (summed at D^2) holds the larger int
_LATER_PART_CASES = (
    Operator.from_items(2, 2, [((1, 1), (2, 2), 1)]),
    -identity(2, 2),
    Operator.from_items(2, 2, [((1, 2), (1, 2), 2), ((2, 2), (1, 1), 2)]),
    Operator.from_items(2, 2, [((2, 2), (1, 1), F(3, 2)), ((2, 2), (1, 2), F(3, 2)), ((2, 1), (1, 1), -1)]),
    Operator.from_items(2, 2, [((2, 1), (1, 1), F(3, 2)), ((2, 1), (1, 2), 1), ((1, 1), (2, 2), F(3, 2))]),
)


def _engine_cases(rng):
    # (check, operands, bound) for every _CHECKS entry: the single-operator checks on
    # the identity-table cases and the later-part cases, quantization and both
    # equivalences on the two-operand cases
    for op in (*_identity_table_cases(rng), *_LATER_PART_CASES):
        names = ["idempotent", "nilpotent"]
        if op.arity == 2:
            names += ["ybe", "cybe", "nonhomogeneous-acybe", "homogeneous-acybe", "tilde", "braid"]
        for name in names:
            yield name, {"r": op}, {}
        for beta in (0, F(1, 3), F(-7, 3), 2):
            yield "hecke", {"r": op}, {"beta": beta}
    for n in (1, 2, 3):
        for kind, case in _two_operand_cases(rng, n):
            if kind == "quantization":
                rhat, beta, r = case
                yield "quantization", {"R": rhat, "r": r}, {"c": beta or 1}
            else:
                a, x, t = case
                for name in ("equivalence-quantum", "equivalence-classical"):
                    yield name, {"X": x, "a": a, "t": t}, {}


@pytest.mark.parametrize("reverse", [False, True])
def test_engine_reports_match_the_fraction_oracle(monkeypatch, reverse):
    # every report the engine reads from its int rows (max_residual, witness and
    # failed_part included) equals oracle.verdict over the residual operators
    # summed with @ in Fractions; with ``reverse`` the kernel's rows and entries
    # come in descending order, so the report does not lean on the kernel's order
    import rimealg.verify as verify

    if reverse:
        chain_sum = verify._chain_sum

        def descending(*args):
            scale, rows = chain_sum(*args)
            return scale, {i: dict(reversed(rows[i].items())) for i in reversed(rows)}

        monkeypatch.setattr(verify, "_chain_sum", descending)
    rng = random.Random("engine-reports")
    checks, later_only, later_larger = set(), set(), set()
    for check, operands, bound in _engine_cases(rng):
        name, parts, variant = verify._CHECKS[check]
        n = next(iter(operands.values())).n
        meta = {"n": n} if variant is None else {"variant": variant}
        residuals = [(part, chain_table(operands, table, **bound)) for part, table in parts]
        engine = verify._Identities(**operands)
        assert engine.report(check, **bound) == verdict(name, residuals, meta), (check, operands, bound)
        checks.add(check)
        if len(parts) == 2:
            (_, first), (_, later) = residuals
            if first.is_zero() and not later.is_zero():
                later_only.add(check)
            if 0 < first.max_abs() < later.max_abs():
                (_, s1, rows1), (_, s2, rows2) = (engine._sum(table, **bound) for _, table in parts)
                top1, top2 = (max(abs(v) for row in rows.values() for v in row.values())
                              for rows in (rows1, rows2))
                if s1 != s2 and top1 > top2:
                    later_larger.add(check)
    assert checks == set(verify._CHECKS)
    assert later_only == {"nonhomogeneous-acybe", "homogeneous-acybe", "tilde", "braid"}
    assert later_larger == {"nonhomogeneous-acybe", "homogeneous-acybe", "tilde"}


def test_no_check_converts_a_whole_residual(monkeypatch):
    # the reports read the kernel's int rows, so with the int -> Fraction Operator
    # conversion refused every public check and every family suite still reports,
    # passing and failing inputs alike
    import rimealg.core as core
    import rimealg.verify as verify

    def refuse(*args):
        raise AssertionError("a check converted a whole residual")

    monkeypatch.setattr(core, "_from_scaled", refuse)
    monkeypatch.setattr(verify, "_from_scaled", refuse)
    verify._companion_reports.cache_clear()  # cold: every companion check runs
    rng = random.Random("no-conversion")
    for n in (2, 3, 4):
        for spec in _seeded_specs(rng, n):
            assert all(rep.passed for rep in run_suite(spec)), spec
        phi, mu, beta = random_phi(rng, n), random_mu(rng, n), F(-7, 3)
        rhat, r = rime_from_beta(beta_from_phi(beta, phi)), classical_rime_r(phi)
        assert check_ybe(rhat).passed and check_hecke(rhat, beta).passed
        assert check_quantization(rhat, beta, r).passed
        assert all(check(r).passed for check in (check_cybe, check_nonhomogeneous_acybe, check_tilde_relations,
                                                 check_braid_identities, check_idempotent_exponential))
        for bad in (_shifted_at(rng, rhat, True), _shifted_at(rng, r, False)):
            if bad is None:
                continue
            names = ["ybe", "cybe", "acybe", "tilde", "braid", "idempotent", "nilpotent", "hecke"]
            reports = run_checks(bad, names, beta=lambda: beta)  # untagged: acybe reads r + r21
            reports += [check(bad) for check in (check_homogeneous_acybe, check_nonhomogeneous_acybe)]
            reports.append(check_quantization(bad, beta, r))
            assert not all(rep.passed for rep in reports), bad
            assert all(rep.passed or rep.witness for rep in reports)
        assert check_equivalence_quantum(phi, beta).passed
        assert check_equivalence_classical(phi).passed and check_equivalence_classical(mu).passed
        assert check_beta_constancy(beta_from_phi(beta, phi)).passed
    verify._companion_reports.cache_clear()


# -- bridges --------------------------------------------------------------------


def test_quantization_linearity():
    r = classical_rime_r(PhiVector((2, 1)))
    assert check_quantization(RIME_2, 3, r).passed


def test_quantization_skew_family_uses_unit_coefficient():
    mu = MuVector((0, 1))
    rhat0 = rime_from_beta(unitary_beta(mu))
    assert check_quantization(rhat0, 0, classical_unitary_r0(mu)).passed


def test_quantization_failure():
    rep = check_quantization(permutation(2), 1, permutation(2) - identity(2, 2))
    assert not rep.passed


def _quantization_oracle(rhat, beta, r):
    # the relation as stated: P @ Rhat - I - coeff r, with the unit coefficient at beta = 0
    beta = F(beta)
    coeff = beta if beta else F(1)
    residual = permutation(rhat.n) @ rhat - identity(rhat.n, 2) - coeff * r
    return verdict("quantization", [("P Rhat = I + beta r", residual)], {"beta": str(beta)})


@given(st.data(), st.integers(2, 4), QUADRATIC_BETAS)
def test_quantization_matches_operator_expression(data, n, beta):
    values = tuple(data.draw(
        st.lists(small_rationals.filter(bool), min_size=n, max_size=n, unique=True)))
    mu = MuVector(values)
    cases = [
        (rime_from_beta(beta_from_phi(beta, PhiVector(values))), beta,
         classical_rime_r(PhiVector(values))),
        (rime_from_beta(unitary_beta(mu)), F(0), classical_unitary_r0(mu)),  # unit coefficient
        (data.draw(sparse_operators2(n - 1)), beta, data.draw(sparse_operators2(n - 1))),
    ]
    for rhat, b, r in cases:
        size = r.n * r.n
        row, col = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        tampered = _tampered(r, row, col, r.dense_rows()[row][col] + data.draw(small_rationals))
        for case in ((rhat, b, r), (rhat, b, tampered)):
            assert check_quantization(*case) == _quantization_oracle(*case)


@pytest.mark.parametrize("rhat, r", [
    (identity(2, 1), identity(2, 2)),
    (identity(2, 3), identity(2, 2)),
    (identity(2, 2), identity(2, 1)),
    (identity(2, 2), identity(2, 3)),
    (identity(2, 2), identity(3, 2)),
    (identity(3, 2), identity(2, 1)),
])
def test_quantization_rejects_mismatched_operands_like_the_operator_expression(rhat, r):
    with pytest.raises(ValueError) as expected:
        _quantization_oracle(rhat, F(1, 2), r)
    with pytest.raises(ValueError) as raised:
        check_quantization(rhat, F(1, 2), r)
    assert str(raised.value) == str(expected.value)


def test_equivalence_quantum_frozen_and_random(rng):
    assert check_equivalence_quantum(PhiVector((2, 1)), 3).passed
    for n in (3, 4, 5):
        beta = random_rational(rng)
        while beta == 1:
            beta = random_rational(rng)
        assert check_equivalence_quantum(random_phi(rng, n), beta).passed


def test_cg_is_not_itself_rime():
    cg = build(FamilySpec("cg", 2, q2inv=-2, p=1))
    assert cg != RIME_2


def test_equivalence_classical(rng):
    assert check_equivalence_classical(PhiVector((2, 1))).metadata["which"] == "rime"
    assert check_equivalence_classical(MuVector((0, 1))).metadata["which"] == "boundary"
    assert check_equivalence_classical(PhiVector((2, 1))).passed
    assert check_equivalence_classical(MuVector((0, 1))).passed
    for n in (3, 4, 5):
        assert check_equivalence_classical(random_phi(rng, n)).passed
        assert check_equivalence_classical(random_mu(rng, n)).passed
    with pytest.raises(TypeError):
        check_equivalence_classical((2, 1))
    with pytest.raises(TypeError):
        check_equivalence_classical(FamilySpec("boundary", 2))


# -- conjugation against the Kronecker-product oracle ------------------------------


def _conjugate_oracle(a, x):
    # the change of basis as stated, with both n^2-by-n^2 Kronecker products built
    xi = x.inverse()
    return kron(x, x) @ a @ kron(xi, xi)


def bases(n):
    # entries over mixed prime denominators; singular draws are discarded
    entry = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))
    row = st.lists(entry, min_size=n, max_size=n)
    return (st.lists(row, min_size=n, max_size=n).map(lambda data: Operator(n, 1, data))
            .filter(lambda x: x.det() != 0))


def _assert_conjugation_matches(a, x):
    moved = conjugate_pair(a, x)
    assert moved == _conjugate_oracle(a, x)
    assert all(type(v) is F for row in moved.rows for v in row.values())


@given(st.data(), st.integers(1, 4))
def test_conjugate_pair_matches_kronecker_oracle(data, n):
    x = data.draw(bases(n))
    a = data.draw(st.one_of(st.just(zero(n, 2)), sparse_operators2(n), operators2(n)))
    _assert_conjugation_matches(a, x)


@given(st.data(), st.integers(2, 4), st.booleans())
def test_conjugate_pair_matches_on_tampered_family_operators(data, n, inside):
    values = tuple(data.draw(
        st.lists(small_rationals.filter(bool), min_size=n, max_size=n, unique=True)))
    beta = data.draw(QUADRATIC_BETAS)
    op = data.draw(st.sampled_from([
        build(FamilySpec("cg", n, q2inv=values[0], p=1)),
        rime_from_beta(beta_from_phi(beta, PhiVector(values))),
        classical_cg_r(n),
        boundary_b(n),
        classical_unitary_r0(MuVector(values)),
    ]))
    x = data.draw(st.one_of(st.just(x_matrix(PhiVector(values))), bases(n)))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    pattern = {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}  # row (i, j) of a rime operator
    cols = [c for c in range(n * n) if (c in pattern) == inside]
    assume(cols)
    col = data.draw(st.sampled_from(cols))
    value = op.dense_rows()[i * n + j][col] + data.draw(small_rationals.filter(bool))
    _assert_conjugation_matches(op, x)
    _assert_conjugation_matches(_tampered(op, i * n + j, col, value), x)


# -- the equivalence residual as one chain sum ---------------------------------------


def _equivalence_triples(rng, n):
    # (a, X, target) of the three equivalences the checks state, at valid targets
    phi, mu = random_phi(rng, n), random_mu(rng, n)
    beta = random_rational(rng)
    while beta == 1:
        beta = random_rational(rng)
    yield cremmer_gervais(n, 1 - beta, 1), x_matrix(phi), rime_from_beta(beta_from_phi(beta, phi))
    yield classical_cg_r(n), x_matrix(phi), classical_rime_r(phi)
    yield boundary_b(n), x_matrix(PhiVector(mu.mu)), classical_unitary_r0(mu)


def _shifted_at(rng, op, inside):
    # op with one entry of a random row (i, j) shifted, inside or outside the
    # rime pattern of that row; None when the row has no such column
    n = op.n
    i, j = rng.randrange(n), rng.randrange(n)
    pattern = {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}
    cols = [c for c in range(n * n) if (c in pattern) == inside]
    if not cols:
        return None
    col = rng.choice(cols)
    return _tampered(op, i * n + j, col, op.dense_rows()[i * n + j][col] + random_rational(rng, True))


def _conjugation_residual(a, x, target):
    # the equivalences' one chain sum, (X (x) X) a - target (X (x) X)
    import rimealg.verify as verify

    return verify._Identities(X=x, a=a, t=target).residual(verify._CONJUGATION)


def test_one_chain_residual_matches_conjugate_minus_target():
    # the residual vanishes at each equivalence's own target, and at a shifted
    # target it is the conjugate minus that target, carried by X (x) X
    rng = random.Random("one-chain-residual")
    for n in range(1, 6):
        for a, x, target in _equivalence_triples(rng, n):
            assert _conjugation_residual(a, x, target).is_zero()
            assert conjugate_pair(a, x) == target
            for inside in (True, False, True, False):
                bad = _shifted_at(rng, target, inside)
                if bad is not None:
                    residual = _conjugation_residual(a, x, bad)
                    assert residual == (conjugate_pair(a, x) - bad) @ kron(x, x)
                    assert not residual.is_zero()
                    assert all(type(v) is F for row in residual.rows for v in row.values())


@given(st.data(), st.integers(1, 3))
def test_one_chain_residual_matches_kronecker_oracle(data, n):
    x = data.draw(bases(n))
    a = data.draw(st.one_of(sparse_operators2(n), operators2(n)))
    target = data.draw(st.one_of(st.just(zero(n, 2)), sparse_operators2(n), operators2(n)))
    xx = kron(x, x)
    assert _conjugation_residual(a, x, target) == xx @ a - target @ xx
    assert _conjugation_residual(a, x, target) == (_conjugate_oracle(a, x) - target) @ xx


def test_one_chain_residual_rejects_a_mismatched_target():
    x = x_matrix(PhiVector((2, 1)))
    with pytest.raises(ValueError, match="requires matching operators"):
        _conjugation_residual(classical_cg_r(2), x, classical_cg_r(3))
    with pytest.raises(ValueError, match="requires matching operators"):
        _conjugation_residual(classical_cg_r(2), x, identity(2, 3))
    with pytest.raises(ValueError, match="^a slot placement expects an arity-1 operator$"):
        _conjugation_residual(classical_cg_r(2), identity(2, 2), classical_cg_r(2))


def _singular_bases(n):
    # the zero matrix, and X(phi) with its last row replaced by its first
    dense = x_matrix(PhiVector(tuple(range(1, n + 1)))).dense_rows()
    return zero(n, 1), Operator(n, 1, dense[:-1] + dense[:1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equivalences_refuse_a_singular_basis(monkeypatch, n):
    # (X (x) X) a - t (X (x) X) vanishes for a singular X, so every equivalence
    # route raises on one and never passes
    import rimealg.verify as verify

    phi = tuple(range(n, 0, -1))
    specs = [FamilySpec("rime-quantum", n, beta=F(-7, 3), phi=phi),
             FamilySpec("rime-unitary", n, mu=tuple(range(n))),
             FamilySpec("classical-rime", n, phi=phi), FamilySpec("classical-unitary", n, mu=tuple(range(n)))]
    for singular in _singular_bases(n):
        assert singular.det() == 0
        monkeypatch.setattr(verify, "x_matrix", lambda weights, x=singular: x)
        verify._companion_reports.cache_clear()
        for check in (lambda: check_equivalence_quantum(PhiVector(phi), F(-7, 3)),
                      lambda: check_equivalence_classical(PhiVector(phi)),
                      lambda: check_equivalence_classical(MuVector(tuple(range(n)))),
                      *(lambda spec=spec: run_suite(spec) for spec in specs)):
            with pytest.raises(ValueError, match="^matrix is singular, cannot invert$"):
                check()
    verify._companion_reports.cache_clear()


def test_no_check_inverts_a_matrix(monkeypatch):
    # no suite and no equivalence check inverts X: each passes with inverse refused
    import rimealg.verify as verify

    def refuse(self):
        raise AssertionError("a check inverted a matrix")

    monkeypatch.setattr(Operator, "inverse", refuse)
    verify._companion_reports.cache_clear()  # cold: every equivalence runs
    rng = random.Random("no-inverse")
    for n in range(2, 6):
        for spec in _seeded_specs(rng, n):
            assert all(rep.passed for rep in run_suite(spec)), spec
        phi = random_phi(rng, n)
        assert check_equivalence_quantum(phi, F(-7, 3)).passed
        assert check_equivalence_classical(phi).passed
        assert check_equivalence_classical(random_mu(rng, n)).passed


def test_equivalence_quantum_rejects_other_weights_with_a_type_error():
    for weights in ((1, 2), MuVector((0, 1)), FamilySpec("rime-quantum", 2, beta=3, phi=(2, 1))):
        with pytest.raises(TypeError, match=f"^quantum equivalence expects a PhiVector, "
                                            f"got {type(weights).__name__}$"):
            check_equivalence_quantum(weights, 0)


def test_equivalence_quantum_rejects_beta_one():
    for beta in (1, F(1), "1", "2/2"):
        with pytest.raises(ValueError, match="undefined at beta = 1"):
            check_equivalence_quantum(PhiVector((2, 1)), beta)


def test_conjugation_makes_no_operator_product(monkeypatch):
    products = []
    matmul = Operator.__matmul__

    def counting_matmul(a, b):
        products.append(a.arity)
        return matmul(a, b)

    monkeypatch.setattr(Operator, "__matmul__", counting_matmul)
    phi = PhiVector((3, 2, 1))
    assert conjugate_pair(classical_cg_r(3), x_matrix(phi)) == classical_rime_r(phi)
    assert check_equivalence_quantum(phi, F(1, 3)).passed
    assert check_equivalence_classical(phi).passed
    assert check_equivalence_classical(MuVector((0, 1, 3))).passed
    assert products == []


# -- classification ----------------------------------------------------------------


def test_classify_ice_block():
    z = ((0, 0), (0, 0))
    ice = rime_general(GeneralRimeData(2, ((1, 1), (1, 1)), z, z, z))
    result = classify_structure(ice)
    assert result.tag == "ice"
    assert result.data is not None


def test_classify_strict_rime():
    result = classify_structure(RIME_2)
    assert result.tag == "strict-rime"
    assert result.data.gamma[0][1] == -6


def test_classify_cg_none():
    assert classify_structure(build(FamilySpec("cg", 3, q2inv=-2, p=1))).tag == "none"


def test_classify_relaxed_phi_is_rime_not_strict():
    rhat = rime_from_beta(beta_from_phi(3, PhiVector((0, 1))))
    assert classify_structure(rhat).tag == "rime"


def test_classify_arity_guard():
    with pytest.raises(ValueError):
        classify_structure(identity(2))


def classify_oracle(m):
    """The set-based classification: every nonzero entry's {k, l} against {i, j}."""
    n = m.n
    ice = True
    for (i, j), (k, l), _v in m.nonzero_items():
        if not {k, l} <= {i, j}:
            return StructureClass("none", None)
        if {k, l} != {i, j}:
            ice = False

    def grid(col, diagonal):
        return tuple(
            tuple(m.entry((i, j), col(i, j)) if diagonal or i != j else F(0)
                  for j in range(1, n + 1))
            for i in range(1, n + 1)
        )

    alpha = grid(lambda i, j: (j, i), True)
    gamma = grid(lambda i, j: (i, i), False)
    data = GeneralRimeData(n, alpha, grid(lambda i, j: (i, j), False), gamma,
                           grid(lambda i, j: (j, j), False))
    if ice:
        return StructureClass("ice", data)
    strict = all(alpha[i][j] and gamma[i][j] for i in range(n) for j in range(n) if i != j)
    return StructureClass("strict-rime" if strict else "rime", data)


@st.composite
def classify_cases(draw):
    """Rime-pattern operators (ice, rime, strict), family matrices, then maybe one
    extra cell: in the pattern, or off it."""
    n = draw(st.integers(1, 4))
    values = st.one_of(st.just(F(0)), small_rationals)
    if draw(st.booleans()):
        phi = PhiVector(tuple(range(n, 0, -1)))
        op = draw(st.sampled_from([
            rime_from_beta(beta_from_phi(draw(small_rationals), phi)),
            rime_from_beta(beta_from_phi(3, PhiVector((0,) + tuple(range(1, n))))),
            classical_rime_r(phi),
            build(FamilySpec("cg", n, q2inv=draw(small_rationals.filter(bool)), p=1)),
            permutation(n),
        ]))
        items = list(op.nonzero_items())
    else:
        ice = draw(st.booleans())
        items = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                cols = {(i, j), (j, i)} if ice else {(k, l) for k in (i, j) for l in (i, j)}
                items += [((i, j), col, draw(values)) for col in sorted(cols)]
    if draw(st.booleans()):
        row = (draw(st.integers(1, n)), draw(st.integers(1, n)))
        col = (draw(st.integers(1, n)), draw(st.integers(1, n)))
        items.append((row, col, draw(small_rationals)))
    return Operator.from_items(n, 2, items)


@settings(max_examples=300)
@given(classify_cases())
def test_classify_matches_set_based_oracle(m):
    assert classify_structure(m) == classify_oracle(m)


@given(st.data(), st.integers(1, 4))
def test_classify_inverts_rime_general(data, n):
    values = st.one_of(st.just(F(0)), small_rationals)

    def grid(diagonal):
        return [[data.draw(values) if diagonal or i != j else F(0) for j in range(n)]
                for i in range(n)]

    d = GeneralRimeData(n, grid(True), grid(False), grid(False), grid(False))
    assert classify_structure(rime_general(d)).data == d


def _grid_tag(m):
    # the tag as classify_structure stated it before it read row keys only: every
    # row inside its rime pattern, then the gamma, gamma' and alpha grids as Fractions
    n, rows = m.n, m.rows
    if any(not rows[i * n + j].keys() <= {i * n + j, j * n + i, i * (n + 1), j * (n + 1)}
           for i in range(n) for j in range(n)):
        return "none"

    def grid(col, keep_diagonal=False):
        return tuple(tuple(rows[i * n + j].get(col(i, j), F(0)) if keep_diagonal or i != j else F(0)
                           for j in range(n)) for i in range(n))

    alpha = grid(lambda i, j: j * n + i, keep_diagonal=True)
    gamma = grid(lambda i, j: i * (n + 1))
    gamma_prime = grid(lambda i, j: j * (n + 1))
    if not any(map(any, gamma)) and not any(map(any, gamma_prime)):
        return "ice"
    strict = all(alpha[i][j] and gamma[i][j] for i in range(n) for j in range(n) if i != j)
    return "strict-rime" if strict else "rime"


def test_pattern_tag_matches_the_grid_definition():
    # the one-pass tag equals the grid one on valid family operators, copies shifted
    # inside and outside the rime pattern, ice, zero and n = 1 operators, and
    # classify_structure reports it, with data exactly for rime-pattern input
    import rimealg.verify as verify

    rng = random.Random("pattern-tag")
    seen = set()
    for n in range(1, 5):
        ops = [zero(n, 2), identity(n, 2), permutation(n)]
        for spec in _seeded_specs(rng, n):
            ops.append(build(spec))
        ops.append(rime_from_beta(beta_from_phi(random_rational(rng), PhiVector((0, *range(1, n))))))

        def grid(diagonal, zeros):
            # a coefficient grid, each entry zero with probability ``zeros``
            return [[random_rational(rng) if (diagonal or i != j) and rng.random() >= zeros else F(0)
                     for j in range(n)] for i in range(n)]

        z = grid(False, 1)
        ops.append(rime_general(GeneralRimeData(n, grid(True, 0), z, z, z)))  # ice
        for zeros in (0, 0.2, 0.5):  # rime, with gamma and gamma' nonzero apart
            ops.append(rime_general(GeneralRimeData(n, *(grid(d, zeros) for d in (True, False, False, False)))))
        for op in list(ops):
            for inside in (True, False):
                for _ in range(3):
                    shifted = _shifted_at(rng, op, inside)
                    if shifted is not None:
                        ops.append(shifted)
        for op in ops:
            tag = verify._pattern_tag(op)
            assert tag == _grid_tag(op), op.dense_rows()
            result = classify_structure(op)
            assert result.tag == tag and (result.data is None) == (tag == "none")
            assert run_checks(op, ["classify"])[0].metadata == {"observed": tag}
            seen.add(tag)
    assert seen == {"none", "ice", "rime", "strict-rime"}


# -- parameter re-checks --------------------------------------------------------------


def test_beta_constancy():
    assert check_beta_constancy(beta_from_phi(3, PhiVector((2, 1)))).passed
    assert check_beta_constancy(unitary_beta(MuVector((0, 1, 2)))).passed
    broken = RimeParams(2, ((0, 1), (1, 0)), 3, check=False)
    rep = check_beta_constancy(broken)
    assert not rep.passed
    assert rep.witness == ((1, 2), (2, 1), F(-1))
    # only the pair sums of a failing grid are taken as Fractions: the witness is the
    # first nonzero deviation, here 2**-65, and max_residual the largest, 2/7
    beta, big = F(5, 7), F(2**70 + 1, 999_983)
    grid = [[0, F(1, 3), big], [F(8, 21), 0, F(1, 2)], [beta - big + F(1, 2**65), F(1, 2), 0]]
    rep = check_beta_constancy(RimeParams(3, grid, beta, check=False))
    assert rep == VerificationReport("beta-constancy", False, F(2, 7), ((1, 3), (3, 1), F(1, 2**65)),
                                     {"beta": "5/7"})
    assert check_beta_constancy(beta_from_phi(beta, PhiVector((big, 0, -big)))) == VerificationReport(
        "beta-constancy", True, F(0), None, {"beta": "5/7"})


# -- characteristic polynomial invariance ------------------------------------------------


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_charpoly_matches_eigenvalue_split(rng):
    for n in (2, 3):
        beta = F(1, 3)
        rhat = rime_from_beta(beta_from_phi(beta, random_phi(rng, n)))
        cg = build(FamilySpec("cg", n, q2inv=1 - beta, p=1))
        m_plus = n * (n + 1) // 2
        m_minus = n * (n - 1) // 2
        expected = [F(1)]
        for _ in range(m_plus):
            expected = _poly_mul(expected, [F(1), F(-1)])
        for _ in range(m_minus):
            expected = _poly_mul(expected, [F(1), -(beta - 1)])
        assert list(charpoly(rhat)) == expected
        assert list(charpoly(cg)) == expected


# -- suites ------------------------------------------------------------------------------


def test_run_suite_rime_quantum_order_and_verdicts():
    reports = run_suite(FamilySpec("rime-quantum", 3, beta=F(1, 2), phi=(3, 2, 1)))
    assert [rep.name for rep in reports] == [
        "beta-constancy",
        "ybe",
        "hecke",
        "multiplicities",
        "classify",
        "equivalence-quantum",
        "quantization",
        "cybe",
        "acybe",
        "tilde",
        "idempotent",
        "braid",
        "equivalence-classical",
    ]
    assert all(rep.passed for rep in reports)
    assert all(rep.metadata["family"] == "rime-quantum" for rep in reports)


def test_run_suite_boundary():
    reports = run_suite(FamilySpec("boundary", 4))
    assert [rep.name for rep in reports] == ["cybe", "acybe", "nilpotent"]
    assert all(rep.passed for rep in reports)


def test_run_suite_degenerate_cg():
    reports = run_suite(FamilySpec("cg", 2, q2inv=1, p=1))
    by_name = {rep.name: rep for rep in reports}
    assert by_name["ybe"].passed
    assert by_name["hecke"].passed
    assert by_name["hecke"].metadata["beta"] == "0"
    assert by_name["classify"].metadata["expected"] == "ice"
    assert "quantization" not in by_name  # degenerate deformation has no companion


def test_run_suite_skips_checks_at_degenerate_beta():
    names_b1 = [rep.name for rep in run_suite(FamilySpec("rime-quantum", 2, beta=1, phi=(2, 1)))]
    assert "equivalence-quantum" not in names_b1
    names_b2 = [rep.name for rep in run_suite(FamilySpec("rime-quantum", 2, beta=2, phi=(2, 1)))]
    assert "multiplicities" not in names_b2


def test_run_suite_rime_quantum_at_beta_zero_is_ice():
    # beta = 0 gives the zero grid: Rhat is the flip P, and quantization is skipped
    reports = run_suite(FamilySpec("rime-quantum", 3, beta=0, phi=(3, 2, 1)))
    assert len(reports) == 12
    assert "quantization" not in [rep.name for rep in reports]
    assert all(rep.passed for rep in reports)
    by_name = {rep.name: rep for rep in reports}
    assert by_name["classify"].metadata["expected"] == "ice"


def test_run_suite_relaxed_phi_skips_classical_battery():
    reports = run_suite(FamilySpec("rime-quantum", 2, beta=3, phi=(0, 1)))
    names = [rep.name for rep in reports]
    assert "cybe" not in names  # the classical companion needs strict weights
    assert all(rep.passed for rep in reports)
    by_name = {rep.name: rep for rep in reports}
    assert by_name["classify"].metadata["expected"] == "rime"


def test_run_suite_all_families_pass(rng):
    n = 3
    phi = random_distinct(rng, n, nonzero=True)
    mu = random_distinct(rng, n, nonzero=False)
    specs = [
        FamilySpec("rime-quantum", n, beta=F(5, 3), phi=phi),
        FamilySpec("rime-unitary", n, mu=mu),
        FamilySpec("cg", n, q2inv=F(-1, 2), p=F(3, 2)),
        FamilySpec("classical-rime", n, phi=phi),
        FamilySpec("classical-cg", n),
        FamilySpec("classical-unitary", n, mu=mu),
        FamilySpec("boundary", n),
    ]
    for spec in specs:
        reports = run_suite(spec)
        assert reports
        assert all(rep.passed for rep in reports), spec.family


def test_ybe_holds_in_relaxed_mode(rng):
    for n in (2, 3, 4):
        values = (F(0),) + random_distinct(rng, n - 1, nonzero=True)
        rhat = rime_from_beta(beta_from_phi(F(3, 2), PhiVector(values)))
        assert check_ybe(rhat).passed


def _seeded_specs(rng, n):
    phi = random_distinct(rng, n, nonzero=True)
    mu = random_distinct(rng, n, nonzero=False)
    return [
        FamilySpec("rime-quantum", n, beta=random_rational(rng), phi=phi),
        FamilySpec("rime-unitary", n, mu=mu),
        FamilySpec("cg", n, q2inv=random_rational(rng, nonzero=True),
                   p=random_rational(rng, nonzero=True)),
        FamilySpec("classical-rime", n, phi=phi),
        FamilySpec("classical-cg", n),
        FamilySpec("classical-unitary", n, mu=mu),
        FamilySpec("boundary", n),
    ]


def test_run_suite_selection_matches_full_suite(rng):
    for n in (2, 3):
        for spec in _seeded_specs(rng, n):
            full = run_suite(spec)
            by_name = {rep.name: rep for rep in full}
            names = [rep.name for rep in full]
            picks = [names[::-1], names[1::2] + names[:1] + names[:1], [names[-1]]]
            for requested in picks:
                assert run_suite(spec, requested) == [by_name[name] for name in requested]


def test_run_suite_selection_rejects_inapplicable_names():
    spec = FamilySpec("rime-quantum", 2, beta=2, phi=(2, 1))
    with pytest.raises(ValueError, match="multiplicities not applicable .* available: beta-"):
        run_suite(spec, ["ybe", "multiplicities"])
    assert run_suite(spec, []) == []


def test_run_checks_matches_suite_and_routes_acybe():
    spec = FamilySpec("rime-quantum", 3, beta=F(1, 2), phi=(3, 2, 1))
    suite = {rep.name: rep for rep in run_suite(spec)}
    rhat = build(spec)
    names = ["multiplicities", "ybe", "hecke"]
    reports = run_checks(rhat, names, lambda: F(1, 2), spec.family)
    assert [(rep.passed, rep.max_residual, rep.witness) for rep in reports] == [
        (suite[name].passed, suite[name].max_residual, suite[name].witness) for name in names
    ]
    r0 = classical_unitary_r0(MuVector((0, 1, 3)))
    for family in ("classical-unitary", None):
        (rep,) = run_checks(r0, ["acybe"], family=family)
        assert rep.passed and rep.metadata["variant"] == "homogeneous"
    (rep,) = run_checks(r0, ["acybe"], family="classical-rime")
    assert rep.metadata["variant"] == "non-homogeneous"
    (rep,) = run_checks(RIME_2, ["classify"])
    assert rep.passed and rep.metadata == {"observed": "strict-rime"}


def test_run_checks_validates_names_before_running(monkeypatch):
    def boom(_op):
        raise AssertionError("check ran")

    monkeypatch.setattr("rimealg.verify.check_cybe", boom)
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        run_checks(RIME_2, ["cybe", "bogus"])
    with pytest.raises(ValueError, match="need beta"):
        run_checks(RIME_2, ["hecke"])


def test_run_checks_rejects_unknown_family_before_running(monkeypatch):
    def boom(_op):
        raise AssertionError("check ran")

    monkeypatch.setattr("rimealg.verify.check_cybe", boom)
    for family in ("bogus", 5, ["x"], "rime"):
        with pytest.raises(ValueError, match="unknown family"):
            run_checks(RIME_2, ["cybe"], family=family)


# -- the shared arity-3 pass against the public checks ---------------------------

_ARITY3_NAMES = ("ybe", "cybe", "acybe", "tilde", "braid")
_PUBLIC = {"ybe": check_ybe, "cybe": check_cybe, "tilde": check_tilde_relations,
           "braid": check_braid_identities}
_SKEW_TAGS = ("rime-unitary", "classical-unitary", "boundary")


def _public_check(op, name, family):
    # the public check a name stands for; acybe by the family, or by skewness untagged
    if name == "acybe":
        skew = family in _SKEW_TAGS or (family is None and (op + flip21(op)).is_zero())
        return (check_homogeneous_acybe if skew else check_nonhomogeneous_acybe)(op)
    return _PUBLIC[name](op)


def _shared_pass_cases(rng):
    # (operator, family tag or None): valid families at n = 1..5 with in-pattern
    # tampered and off-pattern copies, small dense operators, the untagged zero
    for n in range(1, 6):
        for spec in _seeded_specs(rng, n):
            op = build(spec)
            yield op, spec.family
            yield op, None
            if n >= 2:
                yield _tampered(op, 1, n, op.entry((1, 2), (2, 1)) + 1), spec.family
            if n >= 3:
                yield _tampered(op, 1, 2 * n + 2, 1), spec.family
    for n in (1, 2):
        size = n * n
        dense = [[random_rational(rng) if rng.random() < 0.7 else 0 for _ in range(size)]
                 for _ in range(size)]
        yield Operator(n, 2, dense), None
    yield zero(1, 2), None


def test_shared_arity3_pass_matches_public_checks():
    rng = random.Random("shared-pass")
    for op, family in _shared_pass_cases(rng):
        names = [rng.choice(_ARITY3_NAMES) for _ in range(rng.randint(1, 7))]
        reports = run_checks(op, names, family=family)
        assert reports == [_public_check(op, name, family) for name in names], (op, family, names)
    assert run_checks(zero(1, 2), ["braid"]) == [check_braid_identities(zero(1, 2))]


def _public_suite(spec, reports):
    # each report rebuilt from the public check it stands for, plus describe(spec);
    # multiplicities and classify have no public check and are kept as they are;
    # r is built by the constructor the suite calls, as verify looks it up
    import rimealg.verify as verify

    tag = spec.family
    phi = PhiVector(spec.phi) if spec.phi is not None else None
    mu = MuVector(spec.mu) if spec.mu is not None else None
    rhat = build(spec)
    params = r = beta = None
    if phi is not None:
        r = verify.classical_rime_r(phi) if phi.strict else None
    elif mu is not None:
        r = verify.classical_unitary_r0(mu)
    else:
        r = verify.boundary_b(spec.n) if tag == "boundary" else verify.classical_cg_r(spec.n)
    if tag == "rime-quantum":
        params = beta_from_phi(spec.beta, phi)
    elif tag == "rime-unitary":
        params = unitary_beta(mu)
    elif tag == "cg":
        beta = 1 - spec.q2inv
    if params is not None:
        beta = params.beta
    public = {
        "beta-constancy": lambda: check_beta_constancy(params),
        "ybe": lambda: check_ybe(rhat),
        "hecke": lambda: check_hecke(rhat, beta),
        "equivalence-quantum": lambda: check_equivalence_quantum(phi, beta),
        "quantization": lambda: check_quantization(rhat, beta, r),
        "idempotent": lambda: check_idempotent_exponential(r),
        "nilpotent": lambda: check_nilpotent_exponential(r),
        "equivalence-classical": lambda: check_equivalence_classical(phi if mu is None else mu),
        **{name: (lambda name=name: _public_check(r, name, tag))
           for name in _ARITY3_NAMES if name != "ybe"},
    }
    fam = describe(spec)
    rebuilt = [public[rep.name]() if rep.name in public else None for rep in reports]
    return [rep if new is None else replace(new, metadata={**fam, **new.metadata})
            for rep, new in zip(reports, rebuilt)]


def test_run_suite_matches_public_checks(rng):
    for n in range(1, 5):
        for spec in _seeded_specs(rng, n):
            reports = run_suite(spec)
            assert reports == _public_suite(spec, reports), spec


def test_each_operator_takes_one_leg_pass(monkeypatch):
    # per operator, each leg is placed once, at its first use, and each table
    # is summed by one _chain_sum call, recorded as (arity, number of terms):
    # tilde and acybe share A(r) + r13 and r + r21 - (P - I), braid and ybe the
    # YBE; the quadratic checks, quantization and the equivalences sum their
    # own tables, a full quantum suite decides ybe, hecke and equivalence-quantum
    # from their premises without Rhat's tables, and no check makes an Operator
    # product
    import rimealg.verify as verify

    embeds, sums, products = _count_leg_placements(monkeypatch), [], []
    chain_sum = verify._chain_sum
    matmul = Operator.__matmul__

    def counting_chain_sum(n, arity, d, terms):
        sums.append((arity, len(terms)))
        return chain_sum(n, arity, d, terms)

    def counting_matmul(a, b):
        products.append(a.arity)
        return matmul(a, b)

    monkeypatch.setattr(verify, "_chain_sum", counting_chain_sum)
    monkeypatch.setattr(Operator, "__matmul__", counting_matmul)
    phi = (3, 2, 1)
    # equivalence-classical, then the normal form's tables, which r's reports
    # are taken from: cybe, acybe's A(r) + r13 and r + r21 - (P - I),
    # idempotent and braid's two; r's own tables are not summed
    r_tables = [(2, 2), (3, 6), (3, 4), (2, 4), (2, 2), (3, 2), (3, 2)]
    run_suite(FamilySpec("classical-rime", 3, phi=phi))
    assert (embeds, sums) == ([12, 13, 23], r_tables)
    embeds.clear(), sums.clear()
    verify._companion_reports.cache_clear()  # cold: r's checks run again
    run_suite(FamilySpec("rime-quantum", 3, beta=F(1, 2), phi=phi))
    # Rhat's quantization, then r's checks, then the normal form's own
    # quantization; ybe, hecke and equivalence-quantum are decided from their
    # premises, so no leg of Rhat is placed and neither its YBE, its Hecke
    # table nor the (X (x) X) CG table is summed
    quantization = (2, 3)
    assert (embeds, sums) == ([12, 13, 23], [quantization, *r_tables, quantization])
    embeds.clear(), sums.clear()
    # warm: r's reports come from the memo, so only the two quantizations are summed
    run_suite(FamilySpec("rime-quantum", 3, beta=F(-7, 3), phi=phi))
    assert (embeds, sums) == ([], [quantization, quantization])
    sums.clear()
    # alone, each sums its own table: ybe Rhat's YBE, hecke its Hecke table and
    # equivalence-quantum (X (x) X) CG - Rhat (X (x) X)
    for name, table, legs in (("ybe", (3, 2), [12, 23]), ("hecke", (2, 4), []),
                              ("equivalence-quantum", (2, 2), [])):
        run_suite(FamilySpec("rime-quantum", 3, beta=F(-7, 3), phi=phi), [name])
        assert (embeds, sums) == (legs, [table]), name
        embeds.clear(), sums.clear()
    run_suite(FamilySpec("classical-rime", 3, phi=phi))
    assert (embeds, sums) == ([], [])
    # another phi of the same n: its equivalence only, the normal form's reports are warm
    run_suite(FamilySpec("classical-rime", 3, phi=(5, -1, 2)))
    assert (embeds, sums) == ([], [(2, 2)])
    sums.clear()
    run_checks(classical_rime_r(PhiVector(phi)), ["braid", "tilde", "cybe", "acybe", "ybe", "tilde"])
    # braid's two, tilde's two, cybe, and untagged acybe's r + r21; ybe and tilde reuse theirs
    assert (embeds, sums) == ([12, 23, 13], [(3, 2), (3, 2), (3, 4), (2, 4), (3, 6), (2, 2)])
    embeds.clear(), sums.clear()
    run_suite(FamilySpec("boundary", 3), ["nilpotent"])
    assert (embeds, sums) == ([], [(2, 1)])
    assert products == []


def test_run_suite_and_run_checks_read_names_once():
    spec = FamilySpec("boundary", 2)
    assert run_suite(spec, iter(["cybe"])) == run_suite(spec, ["cybe"])
    assert len(run_suite(spec, iter(["cybe"]))) == 1
    names = ["nilpotent", "cybe", "nilpotent"]
    assert run_suite(spec, (name for name in names)) == run_suite(spec, names)
    op = permutation(2)
    assert run_checks(op, iter(["ybe"])) == run_checks(op, ["ybe"]) == [check_ybe(op)]
    assert run_checks(op, (name for name in ("ybe", "cybe"))) == run_checks(op, ["ybe", "cybe"])
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        run_checks(op, iter(["ybe", "nope"]))
    with pytest.raises(ValueError, match="ybe not applicable"):
        run_suite(spec, iter(["cybe", "ybe"]))


# the constructors a suite may call, as the names verify and families look them up by
_CONSTRUCTORS = ("beta_from_phi", "unitary_beta", "rime_general", "rime_from_beta",
                 "cremmer_gervais", "classical_rime_r", "classical_cg_r",
                 "classical_unitary_r0", "boundary_b", "x_matrix", "build")


def _count_constructor_calls(monkeypatch, calls):
    import rimealg.families as families
    import rimealg.verify as verify

    for name in _CONSTRUCTORS:
        original = getattr(families, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        for module in (families, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)


_CLASSICAL_FAMILIES = ("classical-rime", "classical-cg", "classical-unitary", "boundary")


def test_run_suite_builds_each_operator_once(monkeypatch):
    import rimealg.verify as verify

    calls = {}
    _count_constructor_calls(monkeypatch, calls)
    rng = random.Random("built-once")
    for n in (1, 2, 3, 4):
        specs = _seeded_specs(rng, n)
        specs.append(FamilySpec("rime-quantum", n, beta=F(1, 2), phi=(0, *range(1, n))))
        specs.append(FamilySpec("cg", n, q2inv=F(1, 3), p=1))
        for spec in specs:
            verify._companion_reports.cache_clear()  # cold: every operator is built
            calls.clear()
            reports = run_suite(spec)
            assert all(rep.passed for rep in reports), spec
            assert calls and max(calls.values()) == 1, (spec, calls)
            # warm: the classical operator's reports come from the memo, so a
            # classical suite builds nothing and a quantum one no more than before
            cold = dict(calls)
            calls.clear()
            assert run_suite(spec) == reports
            if spec.family in _CLASSICAL_FAMILIES:
                assert calls == {}, spec
            else:
                assert calls.items() <= cold.items(), (spec, calls)
    verify._companion_reports.cache_clear()
    calls.clear()
    spec = FamilySpec("rime-quantum", 3, beta=F(1, 2), phi=(3, 2, 1))
    run_suite(spec)
    assert calls == {"beta_from_phi": 1, "rime_from_beta": 1, "rime_general": 1,
                     "cremmer_gervais": 1, "classical_rime_r": 1, "classical_cg_r": 1,
                     "x_matrix": 1}
    calls.clear()
    # warm: r for quantization, and CG with classical_cg_r for the normal form's
    # own quantization, which equivalence-quantum is decided from; no X
    run_suite(spec)
    assert calls == {"beta_from_phi": 1, "rime_from_beta": 1, "rime_general": 1,
                     "cremmer_gervais": 1, "classical_rime_r": 1, "classical_cg_r": 1}
    # a cold classical suite of weights builds its normal form once: the operand
    # of equivalence-classical is the operator whose reports r's checks take
    for spec, r_constructor, normal_form in (
            (FamilySpec("classical-rime", 3, phi=(3, 2, 1)), "classical_rime_r", "classical_cg_r"),
            (FamilySpec("classical-unitary", 3, mu=(0, 1, -2)), "classical_unitary_r0", "boundary_b")):
        verify._companion_reports.cache_clear()
        calls.clear()
        run_suite(spec)
        assert calls == {r_constructor: 1, normal_form: 1, "x_matrix": 1}, spec


_EQUIVALENCES = ("equivalence-quantum", "equivalence-classical")


@pytest.mark.parametrize("constructor", ["rime_from_beta", "classical_rime_r",
                                         "classical_unitary_r0", "x_matrix"])
@pytest.mark.parametrize("inside", [True, False])
def test_suite_equivalence_reports_match_public_checks_on_tampered_operators(
        monkeypatch, constructor, inside):
    # the suites hand their own X, Rhat and r to the equivalence reports, and the
    # public checks build them; with one constructor's output shifted at one entry,
    # inside or outside the rime pattern, both must fail alike, witness included
    import rimealg.verify as verify

    original = getattr(verify, constructor)
    rng = random.Random(f"tampered-{constructor}-{inside}")

    def shifted(*args):
        op = original(*args)
        state = rng.getstate()
        bad = None
        while bad is None or bad.arity == 1 and bad.det() == 0:  # X must stay invertible
            if op.arity == 2:
                bad = _shifted_at(rng, op, inside)
            else:
                i, j = rng.randrange(op.n), rng.randrange(op.n)
                bad = _tampered(op, i, j, op.dense_rows()[i][j] + random_rational(rng, True))
        rng.setstate(state)  # the suite and the public check see the same copy
        return bad

    monkeypatch.setattr(verify, constructor, shifted)
    failed = 0
    for n in (2, 3, 4):
        phi = random_distinct(rng, n, nonzero=True)
        mu = random_distinct(rng, n, nonzero=False)
        beta = random_rational(rng)
        while beta == 1:
            beta = random_rational(rng)
        for spec in (FamilySpec("rime-quantum", n, beta=beta, phi=phi),
                     FamilySpec("rime-unitary", n, mu=mu),
                     FamilySpec("classical-rime", n, phi=phi),
                     FamilySpec("classical-unitary", n, mu=mu)):
            names = [name for name in _EQUIVALENCES if name in _suite_names(spec)]
            reports = run_suite(spec, names)
            assert reports == _public_suite(spec, reports), spec
            failed += sum(not rep.passed for rep in reports)
    assert failed


def _suite_names(spec):
    return [rep.name for rep in run_suite(spec)]


# -- the memo of the classical operator's reports ----------------------------------

# the family whose suite checks the same classical operator, for the families with weights
_SIBLINGS = {"rime-quantum": "classical-rime", "classical-rime": "rime-quantum",
             "rime-unitary": "classical-unitary", "classical-unitary": "rime-unitary"}


def test_suite_reports_match_with_cold_and_warm_memo():
    # each suite gives the same reports from a cold memo as from one warmed by
    # its sibling (the same phi or mu), in full or by one check, or by itself
    import rimealg.verify as verify

    rng = random.Random("cold-and-warm")
    for n in range(1, 6):
        specs = {spec.family: spec for spec in _seeded_specs(rng, n)}
        for spec in specs.values():
            verify._companion_reports.cache_clear()
            cold = run_suite(spec)
            sibling = specs[_SIBLINGS.get(spec.family, spec.family)]
            for warm_names in (None, [rng.choice(_suite_names(sibling))]):
                verify._companion_reports.cache_clear()
                run_suite(sibling, warm_names)
                assert run_suite(spec) == cold, (spec, warm_names)
            assert run_suite(spec, [rep.name for rep in cold] * 2) == cold * 2, spec


def test_warm_classical_suite_builds_and_sums_nothing(monkeypatch):
    import rimealg.verify as verify

    calls, sums = {}, []
    _count_constructor_calls(monkeypatch, calls)
    chain_sum = verify._chain_sum  # every check sums through the engine in verify
    monkeypatch.setattr(verify, "_chain_sum", lambda *args: sums.append(args[1]) or chain_sum(*args))
    rng = random.Random("warm-classical")
    for n in (1, 2, 3, 4):
        for spec in _seeded_specs(rng, n):
            if spec.family in _CLASSICAL_FAMILIES:
                # cold: a suite of the same n may have filled the normal form's entry
                verify._companion_reports.cache_clear()
                cold = run_suite(spec)
                assert calls and sums, spec
                calls.clear(), sums.clear()
                assert run_suite(spec) == cold
                assert (calls, sums) == ({}, []), spec


def _selections(rng, names):
    # the full suite by default and by name, a subset, a permutation and repeats
    subset = rng.sample(names, rng.randint(1, len(names)))
    return [None, names, subset, names[::-1], rng.sample(names, len(names)),
            names + names[:2], [rng.choice(names)] * 3]


def test_every_family_gives_equal_reports_on_a_cold_and_a_warm_memo():
    # for all seven families at n = 1..4, each selection reports the same from a
    # cold memo, from the memo it warmed itself, and from one a full suite warmed
    import rimealg.verify as verify

    rng = random.Random("cold-warm-every-family")
    hits = 0
    for n in range(1, 5):
        for spec in _seeded_specs(rng, n):
            for names in _selections(rng, _suite_names(spec)):
                verify._companion_reports.cache_clear()
                cold = run_suite(spec, names)
                before = verify._companion_reports.cache_info().hits
                assert run_suite(spec, names) == cold, (spec, names)
                hits += verify._companion_reports.cache_info().hits - before
                verify._companion_reports.cache_clear()
                run_suite(spec)
                assert run_suite(spec, names) == cold, (spec, names)
    assert hits


def test_each_report_carries_a_fresh_metadata_dict():
    # mutating a returned metadata dict changes neither a later call nor the memo
    # entry, on the memo-hit route and the cold one, for a repeated name too
    import rimealg.verify as verify

    rng = random.Random("fresh-metadata")
    for n in (2, 3):
        for spec in _seeded_specs(rng, n):
            verify._companion_reports.cache_clear()
            for _ in ("cold", "warm"):
                names = _suite_names(spec)
                reports = run_suite(spec, names + names[:1])
                expected = [replace(rep, metadata=dict(rep.metadata)) for rep in reports]
                entry = {name: replace(rep, metadata=dict(rep.metadata))
                         for name, rep in _memo_entry(spec).items()}
                assert len({id(rep.metadata) for rep in reports}) == len(reports)
                for rep in reports:
                    rep.metadata["family"] = "tampered"
                    rep.metadata["extra"] = "1"
                assert run_suite(spec, names + names[:1]) == expected, spec
                assert _memo_entry(spec) == entry, spec


def _memo_entry(spec):
    # r's memo entry of spec, under this module's constructors (a lookup of its own)
    import rimealg.verify as verify

    if spec.phi is not None:
        recipe = PhiVector(spec.phi)
    else:
        recipe = MuVector(spec.mu) if spec.mu is not None else (spec.family, spec.n)
    return verify._companion_reports(recipe, (
        verify.classical_rime_r, verify.classical_unitary_r0, verify.classical_cg_r,
        verify.boundary_b, verify.x_matrix))


def test_memo_hit_suite_makes_no_engine_and_no_operator(monkeypatch):
    # a warm classical suite, and a warm quantum suite asking for r's checks only,
    # return the same reports with _Identities and _SuiteOperands raising and
    # Operator._wrap counting: no operands, engine, operator, X or normal form is
    # made; the constructors are not patched, since they are part of the memo key
    import rimealg.verify as verify

    rng = random.Random("memo-hit-builds-nothing")
    cases = []
    for n in (1, 2, 3, 4):
        for spec in _seeded_specs(rng, n):
            names = [name for name in _suite_names(spec) if name in verify._COMPANIONS]
            if names:
                run_suite(spec)
                cases.append((spec, None if spec.family in _CLASSICAL_FAMILIES else names))
    warm = [(spec, names, run_suite(spec, names)) for spec, names in cases]

    def made(*args, **kwargs):
        raise AssertionError("operands or an engine were made")

    wraps = []
    wrap = Operator._wrap
    monkeypatch.setattr(verify, "_Identities", made)
    monkeypatch.setattr(verify, "_SuiteOperands", made)
    monkeypatch.setattr(Operator, "_wrap", classmethod(lambda cls, *args: wraps.append(args[:2]) or wrap(*args)))
    for spec, names, reports in warm:
        assert run_suite(spec, names) == reports, spec
        if names:
            assert run_suite(spec, names[::-1] * 2) == reports[::-1] * 2, spec
    assert wraps == []


def test_memo_holds_at_most_16_recipes():
    import rimealg.verify as verify

    rng = random.Random("bounded-memo")
    seen = set()
    while len(seen) < 100:
        phi = random_distinct(rng, 2, nonzero=True)
        if phi not in seen:
            seen.add(phi)
            assert all(rep.passed for rep in run_suite(FamilySpec("classical-rime", 2, phi=phi)))
    info = verify._companion_reports.cache_info()
    # one miss per phi, and the entry of classical_cg_r(2), which the first suite
    # fills and each later one reads once
    assert (info.maxsize, info.currsize, info.hits, info.misses) == (16, 16, 99, 101)
    # an entry holds reports only
    spec = FamilySpec("boundary", 3)
    run_suite(spec)
    recipe_reports = verify._companion_reports(("boundary", 3), (
        verify.classical_rime_r, verify.classical_unitary_r0, verify.classical_cg_r,
        verify.boundary_b, verify.x_matrix))
    assert list(recipe_reports) == ["cybe", "acybe", "nilpotent"]
    assert all(type(rep) is verify.VerificationReport for rep in recipe_reports.values())


def test_run_checks_and_public_checks_never_read_the_memo():
    import rimealg.verify as verify

    rng = random.Random("memo-bypass")
    phi = random_phi(rng, 3)
    mu = random_mu(rng, 3)
    run_suite(FamilySpec("classical-rime", 3, phi=phi.phi))  # warm, for phi
    before = verify._companion_reports.cache_info()
    r = classical_rime_r(phi)
    bad = _shifted_at(rng, r, inside=False)
    names = ["cybe", "acybe", "tilde", "idempotent", "nilpotent", "braid", "ybe", "hecke"]
    for op in (r, bad, classical_unitary_r0(mu), boundary_b(3)):
        run_checks(op, names, beta=lambda: F(1, 2))
        for check in _ARITY3_CHECKS + (check_idempotent_exponential, check_nilpotent_exponential):
            check(op)
        check_hecke(op, 3)
    check_equivalence_classical(phi)
    check_equivalence_classical(mu)
    assert verify._companion_reports.cache_info() == before
    assert not run_checks(bad, ["cybe"])[0].passed


@pytest.mark.parametrize("constructor, spec", [
    ("classical_rime_r", FamilySpec("classical-rime", 3, phi=(3, 2, 1))),
    ("classical_unitary_r0", FamilySpec("classical-unitary", 3, mu=(0, 1, -2))),
    ("classical_cg_r", FamilySpec("classical-cg", 3)),
    ("boundary_b", FamilySpec("boundary", 3)),
    ("x_matrix", FamilySpec("classical-rime", 3, phi=(3, 2, 1))),
])
def test_constructor_patched_after_warm_call_is_not_hidden(monkeypatch, constructor, spec):
    # a suite run after a constructor is replaced reports on the new operator,
    # as a cold memo would, whatever the memo held before
    import rimealg.verify as verify

    passed = run_suite(spec)
    assert all(rep.passed for rep in passed)
    original = getattr(verify, constructor)

    def shifted(*args):
        op = original(*args)
        if op.arity == 1:  # X of other weights: still invertible, but not this operator's
            return original(PhiVector(tuple(v + 1 for v in args[0].phi)))
        return _shifted_at(random.Random(f"patched-{constructor}"), op, inside=False)

    monkeypatch.setattr(verify, constructor, shifted)
    warm = run_suite(spec)
    verify._companion_reports.cache_clear()
    assert warm == run_suite(spec)
    assert not all(rep.passed for rep in warm)


def test_one_scale_per_operator(monkeypatch):
    # the quadratic checks share the engine of the other checks on their operator,
    # so a document's checks scale it once; a cold quantum suite scales the
    # normal form classical_cg_r alone once, and each table of two operators
    # scales its own together: Rhat and r for quantization, classical_cg_r, X
    # and r for equivalence-classical, and CG and classical_cg_r for the normal
    # form's own quantization; r's own tables are not summed, and Rhat's are
    # decided from their premises, so neither is scaled alone
    import rimealg.verify as verify

    scaled = []
    scaled_rows = verify._scaled_rows
    monkeypatch.setattr(verify, "_scaled_rows", lambda *ops: scaled.append(len(ops)) or scaled_rows(*ops))
    op = rime_from_beta(beta_from_phi(F(1, 2), PhiVector((3, 2, 1))))
    run_checks(op, ["hecke", "ybe", "idempotent", "nilpotent", "cybe", "hecke"], beta=lambda: F(1, 2))
    assert scaled == [1]
    scaled.clear()
    run_suite(FamilySpec("rime-quantum", 3, beta=F(1, 2), phi=(3, 2, 1)))
    assert scaled == [2, 3, 1, 2]


# -- r's reports taken over from its normal form -------------------------------------

# the normal form X carries r onto, by the family of r's weights
_NORMAL_FORM = {"rime-quantum": "classical-cg", "classical-rime": "classical-cg",
                "rime-unitary": "boundary", "classical-unitary": "boundary"}
_COMPANION_NAMES = ("cybe", "acybe", "tilde", "idempotent", "nilpotent", "braid")


def _weighted_specs(rng, n):
    # the four families with weights on one draw, plus rime-quantum at a phi
    # holding 0 (not strict) and a mu that holds 0 every other draw
    phi = random_distinct(rng, n, nonzero=True)
    mu = random_distinct(rng, n, nonzero=False)
    if rng.random() < 0.5 and 0 not in mu:
        mu = (F(0), *mu[1:])
    beta = random_rational(rng)
    return [FamilySpec("rime-quantum", n, beta=beta, phi=phi),
            FamilySpec("rime-quantum", n, beta=beta, phi=(F(0), *phi[1:])),
            FamilySpec("rime-unitary", n, mu=mu),
            FamilySpec("classical-rime", n, phi=phi),
            FamilySpec("classical-unitary", n, mu=mu)]


def _normal_form_entry(spec):
    # the memo entry of the normal form of spec's weights, under this module's constructors
    import rimealg.verify as verify

    return verify._companion_reports((_NORMAL_FORM[spec.family], spec.n), (
        verify.classical_rime_r, verify.classical_unitary_r0, verify.classical_cg_r,
        verify.boundary_b, verify.x_matrix))


def test_weighted_suites_equal_the_direct_route_with_cold_and_warm_memo():
    # every report of a phi or mu suite equals the public check on r itself plus
    # describe(spec): from a cold memo, which fills the normal form's entry, from
    # one whose normal-form entry a classical-cg or boundary suite filled, in
    # full or by one check, and from its own warm entry
    import rimealg.verify as verify

    rng = random.Random("transported")
    for n in range(1, 7):
        for spec in _weighted_specs(rng, n):
            verify._companion_reports.cache_clear()
            cold = run_suite(spec)
            assert cold == _public_suite(spec, cold), spec
            assert all(rep.passed for rep in cold), spec
            taken = [rep.name for rep in cold if rep.name in _COMPANION_NAMES]
            assert list(_normal_form_entry(spec)) == taken, spec
            for warm_names in (None, ["cybe"]):
                verify._companion_reports.cache_clear()
                run_suite(FamilySpec(_NORMAL_FORM[spec.family], n), warm_names)
                assert run_suite(spec) == cold, (spec, warm_names)
                assert run_suite(spec) == cold, (spec, warm_names)
    # a classical-rime suite at a phi holding 0 raises as its r does
    spec = FamilySpec("classical-rime", 3, phi=(0, 1, 2))
    for route in (lambda: run_suite(spec), lambda: check_cybe(classical_rime_r(PhiVector(spec.phi)))):
        with pytest.raises(ValueError, match="needs a strict phi"):
            route()


def _off_by_one(original, shift_rng, inside):
    # original with its output shifted at one coefficient, inside or outside the
    # rime pattern for an arity-2 output; an X stays invertible
    def shifted(*args):
        op = original(*args)
        state = shift_rng.getstate()
        bad = None
        while bad is None or bad.arity == 1 and bad.det() == 0:  # X must stay invertible
            if op.arity == 2:
                bad = _shifted_at(shift_rng, op, inside)
            else:
                i, j = shift_rng.randrange(op.n), shift_rng.randrange(op.n)
                bad = _tampered(op, i, j, op.dense_rows()[i][j] + random_rational(shift_rng, True))
        shift_rng.setstate(state)  # the suite and the direct route see the same copy
        return bad

    return shifted


_MEMO_CONSTRUCTORS = ("classical_rime_r", "classical_unitary_r0", "classical_cg_r", "boundary_b",
                      "x_matrix")


@pytest.mark.parametrize("constructor", _MEMO_CONSTRUCTORS)
@pytest.mark.parametrize("inside", [True, False])
def test_suites_equal_the_direct_route_with_a_constructor_off_by_one_coefficient(
        monkeypatch, constructor, inside):
    # with one memo-key constructor's output shifted at one coefficient, inside or
    # outside the rime pattern, every suite's reports equal the direct route's,
    # witness and max_residual included, from a memo warmed before the shift and
    # from a cold one; the shift makes some report fail
    import rimealg.verify as verify

    shifted = _off_by_one(getattr(verify, constructor), random.Random(f"off-by-one-{constructor}-{inside}"),
                          inside)
    rng = random.Random(f"off-by-one-specs-{constructor}-{inside}")
    specs = [spec for n in (2, 3, 4) for spec in _seeded_specs(rng, n)]
    for spec in specs:
        run_suite(spec)  # warm, with the true constructor
    monkeypatch.setattr(verify, constructor, shifted)
    failed = 0
    for spec in specs:
        for _ in ("warm", "cold"):
            reports = run_suite(spec)
            assert reports == _public_suite(spec, reports), spec
            failed += sum(not rep.passed for rep in reports)
            verify._companion_reports.cache_clear()
    assert failed


def _derived_rows():
    import rimealg.verify as verify

    return [(check, family) for check, rows in verify._DERIVED.items() for family in rows]


def _row_specs(family, n):
    # specs of ``family`` at n to which every check of the family applies
    rng = random.Random(f"derived-row-{family}-{n}")
    if family == "cg":
        return [FamilySpec("cg", n, q2inv=F(-7, 3), p=F(5, 2)), FamilySpec("cg", n, q2inv=F(1, 3), p=F(1))]
    quantum, unitary = _derivable_specs(rng, n)
    return {"rime-quantum": [quantum], "rime-unitary": [unitary],
            "classical-rime": [FamilySpec("classical-rime", n, phi=quantum.phi)],
            "classical-unitary": [FamilySpec("classical-unitary", n, mu=unitary.mu)]}[family]


def _classical_r(spec):
    # r of a spec with weights, as verify builds it
    import rimealg.verify as verify

    if spec.phi is not None:
        return verify.classical_rime_r(PhiVector(spec.phi))
    return verify.classical_unitary_r0(MuVector(spec.mu))


def _sums_own_table(sums, check, family, op):
    # whether one of _record_sums's sums is the first table of check's own report on op
    import rimealg.verify as verify

    if check == "acybe":
        check = "homogeneous-acybe" if family in _SKEW_TAGS else "nonhomogeneous-acybe"
    factors = tuple(names for _, names in verify._CHECKS[check][1][0][1])
    return any(names == factors and any(op == operand for operand in operands.values())
               for operands, names in sums)


@pytest.mark.parametrize("check, family", _derived_rows())
def test_a_failing_premise_is_never_taken_over(monkeypatch, check, family):
    # for each row of _DERIVED and each of its premises, a FAIL planted in that one
    # premise alone: a memo report of the normal form or of r, left as it is; a fact
    # of _FACTS; or, for quantization and equivalence-classical, an operand shifted
    # at one coefficient (Rhat, X).  The check then sums its own table, on a cold memo
    # and on one warm but for the check itself, and its report, witness and
    # max_residual included, equals the direct route's.  With no FAIL planted it is
    # decided from its premises: it passes and sums no table of its own
    import rimealg.families as families
    import rimealg.verify as verify

    sums = _record_sums(monkeypatch)
    for n in (2, 3, 4):
        for spec in _row_specs(family, n):
            for premise in (None, *verify._DERIVED[check][family]):
                for memo in ("cold", "warm"):
                    verify._companion_reports.cache_clear()
                    if memo == "warm":
                        run_suite(spec)
                        _memo_entry(spec).pop(check, None)
                    with monkeypatch.context() as patch:
                        planted = None
                        if premise in verify._FACTS:
                            patch.setitem(verify._FACTS, premise, lambda o: False)
                        elif premise in ("quantization", "equivalence-classical"):
                            module, name = (families, "rime_from_beta") if premise == "quantization" else \
                                (verify, "x_matrix")
                            shifted = _off_by_one(getattr(module, name), random.Random(f"{premise}-{spec}"), True)
                            patch.setattr(verify, name, shifted)
                            patch.setattr(module, name, shifted)
                        elif premise is not None:
                            tag, name = premise if isinstance(premise, tuple) else (None, premise)
                            entry = _memo_entry(spec if tag is None else FamilySpec(tag, n))
                            planted = entry[name] = verify.VerificationReport(
                                name, False, F(1), ((1, 1, 1), (1, 1, 1), F(1)), {"planted": "yes"})
                        sums.clear()
                        report = next(rep for rep in run_suite(spec) if rep.name == check)
                        op = build(spec) if check in ("ybe", "hecke", "equivalence-quantum") else _classical_r(spec)
                        own = _sums_own_table(sums, check, family, op)
                        assert [report] == _public_suite(spec, [report]), (spec, premise, memo)
                        assert own == (premise is not None), (spec, premise, memo)
                        assert report.passed or premise is not None, (spec, memo)
                        if planted is not None:
                            assert entry[planted.name] is planted, (spec, premise, memo)


@pytest.mark.parametrize("n", [2, 3])
def test_a_singular_basis_makes_each_companion_check_raise(monkeypatch, n):
    # each companion check, run with equivalence-classical in either order, first
    # takes that report, which raises on a singular X, from a memo warmed with
    # the true X and from a cold one; run alone, it reports on r itself
    import rimealg.verify as verify

    phi, mu = tuple(range(n, 0, -1)), tuple(range(n))
    specs = [FamilySpec("rime-quantum", n, beta=F(-7, 3), phi=phi),
             FamilySpec("rime-unitary", n, mu=mu),
             FamilySpec("classical-rime", n, phi=phi), FamilySpec("classical-unitary", n, mu=mu)]
    for spec in specs:
        run_suite(spec)
    for singular in _singular_bases(n):
        monkeypatch.setattr(verify, "x_matrix", lambda weights, x=singular: x)
        for spec in specs:
            for name in (name for name in verify._SUITES[spec.family] if name in _COMPANION_NAMES):
                for _ in ("warm", "cold"):
                    for names in ([name, "equivalence-classical"], ["equivalence-classical", name]):
                        with pytest.raises(ValueError, match="^matrix is singular, cannot invert$"):
                            run_suite(spec, names)
                    alone = run_suite(spec, [name])
                    assert alone == _public_suite(spec, alone) and alone[0].passed, (spec, name)
                    verify._companion_reports.cache_clear()


def test_a_companion_check_alone_sums_rs_own_table(monkeypatch):
    # a companion check requested without equivalence-classical sums r's own table,
    # on a cold memo, once r's entry holds the equivalence and once the normal form's
    # entry holds the check, as every derived check short of a premise does: the
    # normal form's entry is neither read nor filled.  Requested with the
    # equivalence, the check takes the normal form's report.  Every report is the
    # direct route's
    import rimealg.verify as verify

    sums = []
    chain_sum = verify._chain_sum
    monkeypatch.setattr(verify, "_chain_sum", lambda *args: sums.append(args[1:3]) or chain_sum(*args))
    spec = FamilySpec("classical-unitary", 3, mu=(0, 1, -2))
    entry = _normal_form_entry(spec)
    # each sum recorded as (arity, D): r's denominators make D = 6, boundary_b's D = 1
    first = run_suite(spec, ["nilpotent"])
    assert (sums, entry) == ([(2, 6)], {})
    sums.clear()
    run_suite(spec, ["equivalence-classical"])
    cybe = run_suite(spec, ["cybe"])
    assert (sums, entry) == ([(2, 6), (3, 6)], {})
    run_suite(FamilySpec("boundary", 3))  # fills the normal form's entry
    filled = dict(entry)
    sums.clear()
    acybe = run_suite(spec, ["acybe"])
    assert (sums, entry) == ([(3, 6), (2, 6)], filled)
    verify._companion_reports.cache_clear()
    entry, sums[:] = _normal_form_entry(spec), []
    taken = run_suite(spec, ["acybe", "equivalence-classical"])
    assert (sums, list(entry)) == ([(2, 6), (3, 1), (2, 1)], ["acybe"])
    assert taken[0] == acybe[0] and run_suite(spec, ["nilpotent", "cybe"]) == first + cybe
    for rep in first + cybe + taken:
        assert [rep] == _public_suite(spec, [rep])


# -- a full quantum suite's ybe decided from its passed premises ---------------------


def _legs(r):
    return embed(r, 12), embed(r, 13), embed(r, 23)


def _dense_arity2(rng, n):
    size = n * n
    return Operator(n, 2, [[random_rational(rng) for _ in range(size)] for _ in range(size)])


def _dense_cases(seed, values):
    # an arbitrary dense r at n = 1..3, two for each scalar value
    rng = random.Random(seed)
    return [(n, _dense_arity2(rng, n), v) for n in (1, 2, 3) for v in values for _ in range(2)]


@pytest.mark.parametrize("n, r, c", _dense_cases("ybe-of-rhat", (F(0), F(1), F(-13, 3))))
def test_quantized_ybe_residual_is_cybe_and_second_braid_of_r(n, r, c):
    # if P Rhat = I + c r, then Y(Rhat) = -P13 (c^2 CYBE(r) + c^3 B2(r)), P13 = P12 P23 P12
    p = permutation(n)
    rhat = p @ (identity(n, 2) + c * r)
    big12, big23 = embed(rhat, 12), embed(rhat, 23)
    ybe = big12 @ big23 @ big12 - big23 @ big12 @ big23
    r12, r13, r23 = _legs(r)
    cybe = (r12 @ r13 - r23 @ r12 + r13 @ r23) - (r13 @ r12 - r12 @ r23 + r23 @ r13)
    braid2 = r12 @ r13 @ r23 - r23 @ r13 @ r12
    p13 = embed(p, 12) @ embed(p, 23) @ embed(p, 12)
    assert ybe == -(p13 @ (c * c * cybe + c ** 3 * braid2))
    # P13 reverses V (x) V (x) V
    assert p13 == Operator.from_items(n, 3, [((i, j, k), (k, j, i), 1) for i in range(1, n + 1)
                                               for j in range(1, n + 1) for k in range(1, n + 1)])


@pytest.mark.parametrize("n, r, s", _dense_cases("second-braid", (0, 1)))
def test_second_braid_from_acybe_and_the_square_law(n, r, s):
    # B2(r) = r12 (A' + s r13) - (A + s r13) r12 - (r^2 + s r)12 r13 + r13 (r^2 + s r)12,
    # with A' = A + CYBE, written through the oracle's tables
    import rimealg.verify as verify

    a = chain_table({"r": r}, verify._A)
    cybe = chain_table({"r": r}, verify._CYBE)
    r12, r13, r23 = _legs(r)
    square = embed(r @ r + s * r, 12)
    shifted_a = a + s * r13
    assert chain_table({"r": r}, verify._A_PRIME) == a + cybe
    assert r12 @ r13 @ r23 - r23 @ r13 @ r12 == \
        r12 @ (shifted_a + cybe) - shifted_a @ r12 - square @ r13 + r13 @ square


def _quantum_specs(rng, n):
    phi = random_distinct(rng, n, nonzero=True)
    return [FamilySpec("rime-quantum", n, beta=random_rational(rng, True), phi=phi),
            FamilySpec("rime-unitary", n, mu=random_distinct(rng, n, nonzero=False))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_quantum_suites_place_no_leg_of_rhat(monkeypatch, n):
    # cold, only the normal form's three legs are placed (r's reports are taken
    # from it); warm, no leg at all: ybe is decided from its passed premises.
    # Cold and warm, hecke and equivalence-quantum are decided from theirs too:
    # neither Rhat's Hecke table nor (X (x) X) CG - Rhat (X (x) X) is summed
    import rimealg.verify as verify

    embeds, sums = _count_leg_placements(monkeypatch), _record_sums(monkeypatch)
    for spec in _quantum_specs(random.Random(f"no-rhat-legs-{n}"), n):
        verify._companion_reports.cache_clear()
        embeds.clear(), sums.clear()
        cold = run_suite(spec)
        assert sorted(embeds) == [12, 13, 23], spec
        embeds.clear()
        assert run_suite(spec) == cold and embeds == [], spec
        assert _own_tables(sums, build(spec)) == set(), spec
        assert cold == _public_suite(spec, cold) and all(rep.passed for rep in cold), spec
        ybe = next(rep for rep in cold if rep.name == "ybe")
        assert ybe == replace(check_ybe(build(spec)), metadata={**describe(spec), "n": n})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quantum_suites_short_of_a_premise_sum_rhats_table(monkeypatch, n):
    # ybe alone, with quantization only, less one premise, at beta = 0 and at a
    # phi holding 0: Rhat's own legs 12 and 23 are placed, on a warm memo
    import rimealg.verify as verify

    rng = random.Random(f"rhat-table-{n}")
    embeds = _count_leg_placements(monkeypatch)
    quantum, unitary = _quantum_specs(rng, n)
    runs = [(quantum, ["ybe"]), (quantum, ["ybe", "quantization"]), (unitary, ["ybe"]),
            (unitary, ["quantization", "ybe", "cybe"])]
    # the full suite less each premise, named here as the paper states them
    for spec, square in ((quantum, "idempotent"), (unitary, "nilpotent")):
        full = [rep.name for rep in run_suite(spec)]
        runs += [(spec, [name for name in full if name != premise])
                 for premise in ("quantization", "cybe", "acybe", square)]
    runs += [(replace(quantum, beta=F(0)), None), (replace(quantum, phi=(F(0), *quantum.phi[1:])), None)]
    for spec, names in runs:
        run_suite(spec, names)  # warm r's memo entry
        embeds.clear()
        reports = run_suite(spec, names)
        assert embeds == [12, 23], (spec, names)
        assert reports == _public_suite(spec, reports), (spec, names)


@pytest.mark.parametrize("inside", [True, False])
def test_quantum_suites_equal_the_direct_route_with_rime_from_beta_off_by_one(monkeypatch, inside):
    # with Rhat shifted at one coefficient, inside or outside the rime pattern,
    # quantization fails, so ybe, hecke and equivalence-quantum sum their own
    # tables: every report, witness and max_residual included, equals the direct
    # route's, from a memo warmed before the shift and from a cold one
    import rimealg.families as families
    import rimealg.verify as verify

    shifted = _off_by_one(verify.rime_from_beta, random.Random(f"off-by-one-rhat-{inside}"), inside)
    rng = random.Random(f"off-by-one-rhat-specs-{inside}")
    specs = [spec for n in (2, 3, 4) for _ in range(3) for spec in _quantum_specs(rng, n)]
    for spec in specs:
        run_suite(spec)
    monkeypatch.setattr(verify, "rime_from_beta", shifted)
    monkeypatch.setattr(families, "rime_from_beta", shifted)
    failed = failed_hecke = failed_equivalence = 0
    for spec in specs:
        for _ in ("warm", "cold"):
            reports = run_suite(spec)
            assert reports == _public_suite(spec, reports), spec
            by_name = {rep.name: rep for rep in reports}
            assert not by_name["quantization"].passed, spec
            assert by_name["ybe"] == replace(check_ybe(build(spec)), metadata={**describe(spec), "n": spec.n})
            hecke = check_hecke(build(spec), spec.beta if spec.phi is not None else 0)
            assert by_name["hecke"] == replace(hecke, metadata={**describe(spec), **hecke.metadata}), spec
            if "equivalence-quantum" in by_name:
                quantum = check_equivalence_quantum(PhiVector(spec.phi), spec.beta)
                assert by_name["equivalence-quantum"] == \
                    replace(quantum, metadata={**describe(spec), **quantum.metadata}), spec
                failed_equivalence += not quantum.passed
            failed += not by_name["ybe"].passed
            failed_hecke += not hecke.passed
            verify._companion_reports.cache_clear()
    assert failed and failed_hecke and failed_equivalence


@pytest.mark.parametrize("valid", [True, False])
def test_a_consistent_shift_lets_the_classical_reports_decide_ybe(monkeypatch, valid):
    # Rhat' = P (I + c r') with r' the suite's classical operator, c = beta for
    # phi and 1 for mu, so quantization passes.  r' of other weights passes every
    # premise of ybe and hecke, and both are carried, passes that check_ybe and
    # check_hecke on Rhat' confirm; r' off by one fails a premise, and ybe sums
    # Rhat's own table.  Either way X does not carry the normal form onto r', so
    # equivalence-classical fails and equivalence-quantum sums its own table,
    # and fails.  Every report equals the direct route's
    import rimealg.families as families
    import rimealg.verify as verify

    rng = random.Random(f"consistent-shift-{valid}")
    routes = []
    for n in (2, 3, 4):
        for spec in _quantum_specs(rng, n):
            weighted = spec.phi is not None
            constructor = "classical_rime_r" if weighted else "classical_unitary_r0"
            if valid:
                other = random_distinct(rng, n, nonzero=weighted)
                r_prime = classical_rime_r(PhiVector(other)) if weighted else classical_unitary_r0(MuVector(other))
                make_r = lambda weights, r_prime=r_prime: r_prime
            else:
                make_r = _off_by_one(getattr(verify, constructor), random.Random(f"r-prime-{spec}"),
                                     rng.random() < 0.5)
            weights = PhiVector(spec.phi) if weighted else MuVector(spec.mu)
            rhat_prime = permutation(n) @ (identity(n, 2) + (spec.beta if weighted else 1) * make_r(weights))
            monkeypatch.setattr(verify, constructor, make_r)
            for module in (verify, families):
                monkeypatch.setattr(module, "rime_from_beta", lambda params, rhat=rhat_prime: rhat)
            embeds, sums = _count_leg_placements(monkeypatch), _record_sums(monkeypatch)
            for memo in ("cold", "warm"):
                embeds.clear(), sums.clear()
                reports = run_suite(spec)
                own = _own_tables(sums, rhat_prime)
                by_name = {rep.name: rep for rep in reports}
                premises = all(by_name[name].passed for name in verify._DERIVED["ybe"][spec.family])
                if memo == "warm":  # the reports of r' are remembered: only Rhat's own legs can be placed
                    assert embeds == ([] if premises else [12, 23]), spec
                assert by_name["quantization"].passed, spec
                assert reports == _public_suite(spec, reports), spec
                routes.append("carried" if premises else "own")
                hecke_premises = all(by_name[name].passed for name in verify._DERIVED["hecke"][spec.family])
                assert ("hecke" in own) != hecke_premises, spec
                if valid:  # carried, a pass that check_hecke on Rhat' confirms
                    assert hecke_premises and by_name["hecke"].passed, spec
                assert not by_name["equivalence-classical"].passed, spec
                if weighted:  # equivalence-quantum falls back to its own table, and fails
                    assert "equivalence-quantum" in own and not by_name["equivalence-quantum"].passed, spec
            monkeypatch.undo()
    if valid:
        assert routes == ["carried"] * 12
    else:
        assert "own" in routes


# -- hecke and equivalence-quantum decided from their passed premises -----------------


def _record_sums(monkeypatch) -> list:
    """Each sum an engine is asked for, as (its operands by name, the factors of each term)."""
    import rimealg.verify as verify

    sums = []
    original = verify._Identities._sum

    def recording(self, table, **bound):
        sums.append((self.operands, tuple(names for _, names in table)))
        return original(self, table, **bound)

    monkeypatch.setattr(verify._Identities, "_sum", recording)
    return sums


def _own_tables(sums, rhat):
    # those of hecke and equivalence-quantum that summed their own table on rhat
    import rimealg.verify as verify

    hecke, conjugation = (tuple(names for _, names in t) for t in (verify._HECKE, verify._CONJUGATION))
    own = set()
    for operands, factors in sums:
        if factors == hecke and operands["r"] == rhat:
            own.add("hecke")
        if factors == conjugation and operands["t"] == rhat:
            own.add("equivalence-quantum")
    return own


def _dense_arity1(rng, n):
    return Operator(n, 1, [[random_rational(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n, r, c", _dense_cases("hecke-of-rhat", (F(0), F(1), F(-13, 3))))
def test_quantized_hecke_residual_in_r(n, r, c):
    # if P Rhat = I + c r, then for every beta
    # H(Rhat) = c (r + r21) + c^2 r21 r - beta P - beta c P r + beta I
    import rimealg.verify as verify

    p, eye = permutation(n), identity(n, 2)
    rhat = p @ (eye + c * r)
    r21 = flip21(r)
    for beta in (F(0), F(1), F(5, 2), c):
        assert chain_table({"r": rhat}, verify._HECKE, beta=beta) == \
            c * (r + r21) + c * c * (r21 @ r) - beta * p - beta * c * (p @ r) + beta * eye


@pytest.mark.parametrize("n, r, beta", _dense_cases("hecke-of-phi", (F(1), F(2), F(-13, 3))))
def test_hecke_at_c_beta_from_acybe_and_the_square_law(n, r, beta):
    # c = beta: H(Rhat) = beta S + beta^2 S r - beta^2 (r^2 + r), with S = r + r21 - P + I,
    # acybe's non-homogeneous second part, each table summed by the oracle
    import rimealg.verify as verify

    rhat = permutation(n) @ (identity(n, 2) + beta * r)
    s = chain_table({"r": r}, verify._SHIFTED)
    assert chain_table({"r": rhat}, verify._HECKE, beta=beta) == \
        beta * s + beta * beta * (s @ r) - beta * beta * chain_table({"r": r}, verify._SQUARE_PLUS)


@pytest.mark.parametrize("n, r, c", _dense_cases("hecke-of-mu", (F(1),)))
def test_hecke_at_beta_0_from_acybe_and_the_square_law(n, r, c):
    # c = 1, beta = 0: H(Rhat) = K + K r - r^2, with K = r + r21, acybe's homogeneous second part
    import rimealg.verify as verify

    rhat = permutation(n) @ (identity(n, 2) + c * r)
    k = chain_table({"r": r}, verify._SKEW)
    assert chain_table({"r": rhat}, verify._HECKE, beta=F(0)) == \
        k + k @ r - chain_table({"r": r}, verify._SQUARE)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantized_conjugation_residual_is_beta_p_times_the_classical_one(n):
    # CG = P (I + beta a) and Rhat = P (I + beta r) give, for every X, singular or not,
    # (X (x) X) CG - Rhat (X (x) X) = beta P ((X (x) X) a - r (X (x) X)), P commuting with X (x) X
    import rimealg.verify as verify

    rng = random.Random(f"quantized-conjugation-{n}")
    p, eye = permutation(n), identity(n, 2)
    singular = _dense_arity1(rng, n).dense_rows()
    bases = [_dense_arity1(rng, n), _dense_arity1(rng, n), Operator(n, 1, [[0] * n] + singular[1:])]
    assert bases[-1].det() == 0
    for x in bases:
        for beta in (F(0), F(1), F(-13, 3)):
            r, a = _dense_arity2(rng, n), _dense_arity2(rng, n)
            cg, rhat = p @ (eye + beta * a), p @ (eye + beta * r)
            assert chain_table({"R": cg, "r": a}, verify._QUANTIZATION, c=beta) == zero(n, 2)
            assert chain_table({"X": x, "a": cg, "t": rhat}, verify._CONJUGATION) == \
                beta * (p @ chain_table({"X": x, "a": a, "t": r}, verify._CONJUGATION))


def _derivable_specs(rng, n):
    # a rime-quantum spec whose beta is neither 0 nor 1, so every check applies, and a rime-unitary one
    beta = random_rational(rng, True)
    while beta == 1:
        beta = random_rational(rng, True)
    return [FamilySpec("rime-quantum", n, beta=beta, phi=random_distinct(rng, n, nonzero=True)),
            FamilySpec("rime-unitary", n, mu=random_distinct(rng, n, nonzero=False))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rime_suites_short_of_a_premise_sum_the_checks_own_table(monkeypatch, n):
    # hecke or equivalence-quantum alone, a full suite less one premise of either,
    # at beta = 0 and at a phi holding 0: each requested check whose premises are
    # not all requested sums its own table, on a warm memo
    rng = random.Random(f"own-table-{n}")
    sums = _record_sums(monkeypatch)
    quantum, unitary = _derivable_specs(rng, n)
    both = {"hecke", "equivalence-quantum"}
    runs = [(quantum, ["hecke"], {"hecke"}), (quantum, ["equivalence-quantum"], {"equivalence-quantum"}),
            (quantum, ["quantization", "acybe", "hecke"], {"hecke"}), (unitary, ["hecke"], {"hecke"}),
            (quantum, ["quantization", "equivalence-quantum"], {"equivalence-quantum"}),
            (replace(quantum, beta=F(0)), None, both),
            (replace(quantum, phi=(F(0), *quantum.phi[1:])), None, both)]
    # the full suite less each premise, named here as the paper states them
    for spec, square in ((quantum, "idempotent"), (unitary, "nilpotent")):
        full = _suite_names(spec)
        for premise, own in (("quantization", both), ("acybe", {"hecke"}), (square, {"hecke"}),
                             ("equivalence-classical", {"equivalence-quantum"})):
            if premise in full:
                runs.append((spec, [name for name in full if name != premise], own & set(full)))
    for spec, names, own in runs:
        run_suite(spec, names)  # warm r's memo entry
        sums.clear()
        reports = run_suite(spec, names)
        assert _own_tables(sums, build(spec)) == own, (spec, names)
        assert reports == _public_suite(spec, reports), (spec, names)


@pytest.mark.parametrize("inside", [True, False])
def test_a_cremmer_gervais_off_by_one_fails_the_normal_form_premise(monkeypatch, inside):
    # with CG shifted at one coefficient, inside or outside the rime pattern, the
    # normal form's own quantization P CG = I + beta classical_cg_r fails, so a
    # full suite sums equivalence-quantum's own table although quantization and
    # equivalence-classical passed: the report fails and equals the direct
    # route's, witness and max_residual included, warm and cold
    import rimealg.verify as verify

    shifted = _off_by_one(verify.cremmer_gervais, random.Random(f"off-by-one-cg-{inside}"), inside)
    rng = random.Random(f"off-by-one-cg-specs-{inside}")
    specs = [_derivable_specs(rng, n)[0] for n in (2, 3, 4) for _ in range(3)]
    for spec in specs:
        run_suite(spec)
    monkeypatch.setattr(verify, "cremmer_gervais", shifted)
    sums = _record_sums(monkeypatch)
    for spec in specs:
        n, beta = spec.n, spec.beta
        assert not check_quantization(verify.cremmer_gervais(n, 1 - beta, 1), beta, classical_cg_r(n)).passed
        quantum = check_equivalence_quantum(PhiVector(spec.phi), beta)
        for _ in ("warm", "cold"):
            sums.clear()
            reports = run_suite(spec)
            assert _own_tables(sums, build(spec)) == {"equivalence-quantum"}, spec
            assert reports == _public_suite(spec, reports), spec
            by_name = {rep.name: rep for rep in reports}
            assert [rep.name for rep in reports if not rep.passed] == ["equivalence-quantum"], spec
            assert by_name["equivalence-quantum"] == \
                replace(quantum, metadata={**describe(spec), **quantum.metadata}), spec
            verify._companion_reports.cache_clear()


# -- a cg suite's ybe and hecke decided through the twisted quantization --------------


def _diagonal(n, p):
    # D = diag(p, p^2, ..., p^n)
    return Operator(n, 1, [[p ** (i + 1) if i == j else 0 for j in range(n)] for i in range(n)])


def _ybe_residual(r):
    big12, big23 = embed(r, 12), embed(r, 23)
    return big12 @ big23 @ big12 - big23 @ big12 @ big23


def _hecke_residual(r, beta):
    return r @ r - beta * r + (beta - 1) * identity(r.n, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twisted_quantization_of_cremmer_gervais(n):
    # P CG(q, p) (D (x) I) = (I (x) D)(I + beta a) at every p, with D = diag(p, ..., p^n),
    # a = classical_cg_r and beta = 1 - q^-2 exactly: as dense products, and as the
    # table the suite sums, through the oracle and through the engine.  CG keeps the
    # weight k + l = i + j, and the untwisted quantization holds at p = 1 only
    import rimealg.verify as verify

    a, eye = classical_cg_r(n), identity(n, 1)
    for q2inv in (F(1), F(1, 2), F(-7, 3)):
        for p in (F(1), F(-1), F(5, 2), F(-2, 5)):
            cg, beta, d = cremmer_gervais(n, q2inv, p), 1 - q2inv, _diagonal(n, p)
            assert permutation(n) @ cg @ kron(d, eye) == kron(eye, d) @ (identity(n, 2) + beta * a)
            operands = {"R": cg, "a": a, "X": d}
            assert verify._twist(n, p) == d
            assert chain_table(operands, verify._TWISTED, c=beta) == zero(n, 2)
            assert verify._Identities(**operands).residual(verify._TWISTED, c=beta) == zero(n, 2)
            assert verify._vanishes(verify._TWISTED, beta, **operands)
            assert verify._weight_preserving(cg)
            assert chain_table({"R": cg, "r": a}, verify._QUANTIZATION, c=beta).is_zero() == (p == 1)
            # CG shifted off the weight (row (1, 2), column (1, 1)) or inside it (column (1, 2)):
            # the engine's residual is the oracle's, and it is not zero
            for col in (0, 1):
                bad = {**operands, "R": _tampered(cg, 1, col, cg.dense_rows()[1][col] + F(1, 3))}
                residual = verify._Identities(**bad).residual(verify._TWISTED, c=beta)
                assert residual == chain_table(bad, verify._TWISTED, c=beta) and not residual.is_zero()


def _weighted(rng, n, off_weight=False):
    # a random arity-2 operator whose entries keep k + l = i + j, with one entry off
    # that weight (row (1, 2), column (1, 1)) when ``off_weight``
    size = n * n
    rows = [[random_rational(rng) if row // n + row % n == col // n + col % n and rng.random() < 0.8 else 0
             for col in range(size)] for row in range(size)]
    if off_weight:
        rows[1][0] = random_rational(rng, True)
    return Operator(n, 2, rows)


@pytest.mark.parametrize("n", [2, 3])
def test_twisting_by_a_diagonal_conjugates_the_ybe_and_hecke_residuals(n):
    # with F = D (x) I and W = D^2 (x) D (x) I: H(F R F^-1) = F H(R) F^-1 for every R,
    # and Y(F R F^-1) = W Y(R) W^-1 when R commutes with D (x) D, as a weight-preserving
    # R does; an R with one entry off the weight fails the second identity
    import rimealg.verify as verify

    rng = random.Random(f"twisted-conjugation-{n}")
    eye = identity(n, 1)
    for p in (F(-1), F(5, 2), F(-2, 5), F(3)):
        d, d_inv = _diagonal(n, p), _diagonal(n, 1 / p)
        f, f_inv = kron(d, eye), kron(d_inv, eye)
        w, w_inv = kron(kron(d @ d, d), eye), kron(kron(d_inv @ d_inv, d_inv), eye)
        for off_weight in (False, True):
            for _ in range(3):
                r = _weighted(rng, n, off_weight)
                assert verify._weight_preserving(r) != off_weight
                twisted = f @ r @ f_inv
                y = _ybe_residual(r)
                assert not y.is_zero()
                assert (_ybe_residual(twisted) == w @ y @ w_inv) != off_weight
                for beta in (F(0), F(1), F(-7, 3)):
                    assert _hecke_residual(twisted, beta) == f @ _hecke_residual(r, beta) @ f_inv


def _cg_specs():
    # cg suites at n = 2..4 off p = 1 and at p = 1, with q2inv = 1 (beta = 0) among them
    return [FamilySpec("cg", n, q2inv=q2inv, p=p) for n in (2, 3, 4)
            for q2inv, p in ((F(-7, 3), F(5, 2)), (F(1, 2), F(-2, 5)), (F(1), F(-1)), (F(1, 3), F(1)),
                             (F(1), F(1)))]


def _count_chain_sums(monkeypatch) -> list:
    """The arity of each table the kernel sums, in order."""
    import rimealg.verify as verify

    arities = []
    chain_sum = verify._chain_sum

    def counting(n, arity, d, terms):
        arities.append(arity)
        return chain_sum(n, arity, d, terms)

    monkeypatch.setattr(verify, "_chain_sum", counting)
    return arities


def _sums_of(sums, table, rhat):
    # the sums of ``table`` among _record_sums's whose first operand is rhat
    factors = tuple(names for _, names in table)
    return [operands for operands, names in sums if names == factors and next(iter(operands.values())) == rhat]


def test_warm_cg_suites_sum_no_arity3_table(monkeypatch):
    # once a classical-cg suite, or a rime-quantum suite's carry, has filled the
    # (classical-cg, n) entry, a full cg suite sums the twisted quantization in place
    # of Rhat's tables: no arity-3 table and no Hecke table on Rhat.  Each report
    # equals the public check's, ybe and hecke pass, and a second run is the same
    import rimealg.verify as verify

    arities, sums = _count_chain_sums(monkeypatch), _record_sums(monkeypatch)
    rng = random.Random("warm-cg")
    for spec in _cg_specs():
        for warm in (FamilySpec("classical-cg", spec.n), _derivable_specs(rng, spec.n)[0]):
            verify._companion_reports.cache_clear()
            run_suite(warm)
            arities.clear(), sums.clear()
            reports = run_suite(spec)
            assert 3 not in arities, (spec, warm)
            rhat = build(spec)
            assert _sums_of(sums, verify._HECKE, rhat) == [], spec
            assert len(_sums_of(sums, verify._TWISTED, rhat)) == 1, spec
            assert reports == _public_suite(spec, reports) and all(rep.passed for rep in reports), spec
            assert run_suite(spec) == reports


@pytest.mark.parametrize("tampered", [False, True])
def test_cold_cg_suites_fill_the_normal_form_entry(monkeypatch, tampered):
    # on a cold (classical-cg, n) entry a full cg suite computes a's cybe, acybe and
    # idempotent reports on a = classical_cg_r(n), its own r, and fills the entry with
    # them; they pass, so ybe and hecke are decided through the twisted quantization:
    # every arity-3 table summed is a's, none is Rhat's, and no Hecke table is summed.
    # A second run reads the entry and sums no arity-3 table.  With classical_cg_r
    # shifted at one coefficient, a premise fails, so Rhat's own ybe and Hecke tables
    # run and every report, witness included, equals the public check's
    import rimealg.verify as verify

    if tampered:
        monkeypatch.setattr(verify, "classical_cg_r",
                            _off_by_one(verify.classical_cg_r, random.Random("cold-cg-tampered"), True))
    arities, sums = _count_chain_sums(monkeypatch), _record_sums(monkeypatch)
    for spec in _cg_specs():
        verify._companion_reports.cache_clear()
        a, rhat = verify.classical_cg_r(spec.n), build(spec)
        for memo in ("cold", "warm"):
            arities.clear(), sums.clear()
            reports = run_suite(spec)
            own = (len(_sums_of(sums, verify._YBE, rhat)), len(_sums_of(sums, verify._HECKE, rhat)))
            twisted = len(_sums_of(sums, verify._TWISTED, rhat))
            cubic = [operands for operands, factors in sums
                     if any(name[1:] in ("12", "13", "23") for names in factors for name in names)]
            assert len(cubic) == arities.count(3), (spec, memo)
            assert reports == _public_suite(spec, reports), (spec, memo)
            entry = _memo_entry(FamilySpec("classical-cg", spec.n))
            public = {"cybe": check_cybe(a), "acybe": check_nonhomogeneous_acybe(a),
                      "idempotent": check_idempotent_exponential(a)}
            if tampered:  # the premises are read up to the first that fails
                assert entry == {name: public[name] for name in entry} and \
                    not all(rep.passed for rep in entry.values()), (spec, memo)
                assert own == (1, 1) and twisted <= 1, (spec, memo)
                continue
            assert entry == public and own == (0, 0) and twisted == 1, (spec, memo)
            assert all(rep.passed for rep in reports), spec
            # cold, a's cybe and acybe's A(r) + r13; warm, none
            assert cubic == ([{"r": a}] * 2 if memo == "cold" else []), (spec, memo)


def test_cg_suites_short_of_the_whole_suite_sum_rhats_tables(monkeypatch):
    # on a warm entry, ybe alone, hecke alone and a suite less one check sum Rhat's own
    # tables; the whole suite named in any order is decided from the premises
    import rimealg.verify as verify

    arities, sums = _count_chain_sums(monkeypatch), _record_sums(monkeypatch)
    for spec in _cg_specs():
        full = _suite_names(spec)
        run_suite(FamilySpec("classical-cg", spec.n))
        rhat = build(spec)
        runs = [(["ybe"], True, False), (["hecke"], False, True), (full[::-1], False, False)]
        runs += [([name for name in full if name != left], "ybe" != left, "hecke" != left) for left in full]
        for names, ybe, hecke in runs:
            arities.clear(), sums.clear()
            reports = run_suite(spec, names)
            assert (3 in arities, len(_sums_of(sums, verify._HECKE, rhat))) == (ybe, hecke), (spec, names)
            assert reports == _public_suite(spec, reports), (spec, names)


@pytest.mark.parametrize("off_weight", [True, False])
def test_a_tampered_cremmer_gervais_fails_with_its_own_witness(monkeypatch, off_weight):
    # CG shifted at one entry of row (1, 2), off the weight (column (1, 1)) or inside it
    # (column (1, 2)): on a warm entry, and on a cold one that the suite fills, the
    # twisted quantization fails, and the off-weight entry fails the weight premise
    # too, so ybe and hecke sum Rhat's own tables and fail, each report equal to the
    # public check's, witness and max_residual included
    import rimealg.families as families
    import rimealg.verify as verify

    original = families.cremmer_gervais

    def tampered(n, q2inv, p):
        op = original(n, q2inv, p)
        col = 0 if off_weight else 1
        return _tampered(op, 1, col, op.dense_rows()[1][col] + F(1, 3))

    monkeypatch.setattr(families, "cremmer_gervais", tampered)
    arities, sums = _count_chain_sums(monkeypatch), _record_sums(monkeypatch)
    for spec in _cg_specs():
        for memo in ("warm", "cold"):
            verify._companion_reports.cache_clear()
            if memo == "warm":
                run_suite(FamilySpec("classical-cg", spec.n))
            rhat = build(spec)
            assert verify._weight_preserving(rhat) != off_weight
            arities.clear(), sums.clear()
            reports = run_suite(spec)
            assert 3 in arities and len(_sums_of(sums, verify._HECKE, rhat)) == 1, (spec, memo)
            assert len(_sums_of(sums, verify._YBE, rhat)) == 1, (spec, memo)
            assert reports == _public_suite(spec, reports), (spec, memo)
            by_name = {rep.name: rep for rep in reports}
            assert not by_name["ybe"].passed and not by_name["hecke"].passed, (spec, memo)
            assert by_name["ybe"] == replace(check_ybe(rhat), metadata={**describe(spec), "n": spec.n}), (spec, memo)


def test_an_off_weight_twist_of_the_normal_form_sums_rhats_ybe_table(monkeypatch):
    # classical_cg_r replaced by a' = Ad(X (x) X) a for a non-diagonal X, which passes
    # every classical check, and CG by R' = P (I (x) D)(I + beta a')(D^-1 (x) I), which
    # meets the twisted quantization on a' but is off the weight.  Hecke still follows
    # (H(R') = F H(P (I + beta a')) F^-1 for every R'), so it is decided from the
    # premises and passes; ybe does not, so it sums R''s table and fails, as check_ybe does
    import rimealg.families as families
    import rimealg.verify as verify

    rng = random.Random("off-weight-twist")
    arities = _count_chain_sums(monkeypatch)
    for n in (2, 3):
        for q2inv, p in ((F(-7, 3), F(5, 2)), (F(1, 2), F(-2, 5))):
            x, eye = _invertible(rng, n), identity(n, 1)
            a_prime = conjugate_pair(classical_cg_r(n), x)
            d, beta = _diagonal(n, p), 1 - q2inv
            r_prime = permutation(n) @ kron(eye, d) @ (identity(n, 2) + beta * a_prime) @ kron(_diagonal(n, 1 / p), eye)
            assert chain_table({"R": r_prime, "a": a_prime, "X": d}, verify._TWISTED, c=beta) == zero(n, 2)
            assert not verify._weight_preserving(r_prime)
            monkeypatch.setattr(verify, "classical_cg_r", lambda n, a_prime=a_prime: a_prime)
            monkeypatch.setattr(families, "cremmer_gervais", lambda n, q2inv, p, r_prime=r_prime: r_prime)
            verify._companion_reports.cache_clear()
            assert all(rep.passed for rep in run_suite(FamilySpec("classical-cg", n)))
            spec = FamilySpec("cg", n, q2inv=q2inv, p=p)
            arities.clear()
            by_name = {rep.name: rep for rep in run_suite(spec)}
            assert arities.count(3) == 1, spec
            fam = describe(spec)
            assert by_name["ybe"] == replace(check_ybe(r_prime), metadata={**fam, "n": n}), spec
            assert not by_name["ybe"].passed, spec
            hecke = check_hecke(r_prime, beta)
            assert hecke.passed and by_name["hecke"] == replace(hecke, metadata={**fam, **hecke.metadata}), spec
