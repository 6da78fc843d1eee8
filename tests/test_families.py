"""Matrix family constructors: frozen small cases plus structural properties."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_distinct, random_rational
from oracle import (
    beta_from_phi_grid,
    boundary_b_items,
    classical_cg_r_items,
    classical_rime_r_items,
    classical_unitary_r0_items,
    cremmer_gervais_items,
    matrix_unit,
    rime_general_items,
    transpose,
    unitary_beta_grid,
    wedge,
    x_matrix_items,
    x_matrix_per_row,
    z_generator,
)
from rimealg.core import Operator, identity, kron, permutation, zero
from rimealg.families import (
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
    rime_general,
    unitary_beta,
    x_matrix,
)

F = Fraction

#: n=2 strict solution at beta=3, phi=(2,1); rows/cols ordered (11, 12, 21, 22).
RIME_2 = [
    [1, 0, 0, 0],
    [-6, 6, 4, -3],
    [6, -5, -3, 3],
    [0, 0, 0, 1],
]

#: its classical companion: P @ RIME_2 = I + 3 * CLASSICAL_R_2
CLASSICAL_R_2 = [
    [0, 0, 0, 0],
    [2, -2, -1, 1],
    [-2, 2, 1, -1],
    [0, 0, 0, 0],
]

small_rationals = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3)))


def distinct_vectors(n, nonzero):
    base = st.lists(small_rationals, min_size=n, max_size=n, unique=True)
    if nonzero:
        base = base.filter(lambda v: all(v))
    return base.map(tuple)


# -- parameter containers -----------------------------------------------------


def test_rime_params_checks_pair_sums():
    RimeParams(2, ((0, 2), (1, 0)), 3)
    with pytest.raises(ValueError):
        RimeParams(2, ((0, 1), (1, 0)), 3)
    with pytest.raises(ValueError):
        RimeParams(2, ((1, 2), (1, 0)), 3)  # nonzero diagonal
    with pytest.raises(ValueError):
        RimeParams(2, ((0, 1),), 3)  # wrong shape


def test_rime_params_check_bypass_for_diagnostics():
    broken = RimeParams(2, ((0, 1), (1, 0)), 3, check=False)
    assert broken.entry(1, 2) + broken.entry(2, 1) != broken.beta


def test_general_rime_data_validation():
    z = ((0, 0), (0, 0))
    GeneralRimeData(2, ((1, 0), (0, 1)), z, z, z)
    with pytest.raises(ValueError):
        GeneralRimeData(2, z, ((1, 0), (0, 0)), z, z)
    # a zero alpha_i is allowed: the data carry no invertibility flag
    assert GeneralRimeData(2, ((0, 0), (0, 1)), z, z, z).alpha == ((0, 0), (0, 1))
    with pytest.raises(TypeError):
        GeneralRimeData(2, ((1, 0), (0, 1)), z, z, z, invertible=True)


def test_phi_vector_modes():
    assert PhiVector((2, 1)).strict
    relaxed = PhiVector((0, 1))
    assert not relaxed.strict
    assert relaxed.n == 2
    with pytest.raises(ValueError):
        PhiVector((1, 1))
    with pytest.raises(ValueError):
        PhiVector((0, 1, 0))
    with pytest.raises(ValueError):
        PhiVector(())


def test_phi_vector_with_two_zeros_is_a_repeat():
    # distinctness already allows at most one zero
    with pytest.raises(ValueError, match="pairwise distinct"):
        PhiVector((0, 0))
    with pytest.raises(ValueError, match="pairwise distinct"):
        PhiVector((0, 2, 0))


def test_mu_vector_allows_zero_requires_distinct():
    assert MuVector((0, 1, 3)).n == 3
    with pytest.raises(ValueError):
        MuVector((1, 1))
    with pytest.raises(ValueError):
        MuVector(())


def test_family_spec_parameter_discipline():
    FamilySpec("rime-quantum", 2, beta="3", phi=("2", "1"))
    with pytest.raises(ValueError):
        FamilySpec("nope", 2)
    with pytest.raises(ValueError):
        FamilySpec("rime-quantum", 2, beta=3)  # phi missing
    with pytest.raises(ValueError):
        FamilySpec("boundary", 2, beta=3)  # takes no parameters
    with pytest.raises(ValueError):
        FamilySpec("cg", 2, q2inv=1, p=1, mu=(0, 1))
    with pytest.raises(ValueError):
        FamilySpec("classical-rime", 3, phi=(2, 1))  # length mismatch
    assert len(FAMILY_TAGS) == 7


def test_family_spec_rejects_dimension_zero():
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        FamilySpec("boundary", 0)
    with pytest.raises(ValueError, match="dimension must be positive"):
        FamilySpec("classical-cg", -1)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
def test_family_spec_rejects_non_integer_dimension(n):
    with pytest.raises(TypeError, match="dimension must be an integer"):
        FamilySpec("boundary", n)


_DIMENSION_TAKERS = {
    "identity": identity,
    "zero": lambda n: zero(n, 2),
    "permutation": permutation,
    "Operator.zero": lambda n: Operator.zero(n, 2),
    "Operator.identity": lambda n: Operator.identity(n, 2),
    "Operator.from_items": lambda n: Operator.from_items(n, 1, []),
    "classical_cg_r": classical_cg_r,
    "cremmer_gervais": lambda n: cremmer_gervais(n, 2, 1),
    "boundary_b": boundary_b,
}
_ARITY_TAKERS = {
    "zero": lambda arity: zero(2, arity),
    "identity": lambda arity: identity(2, arity),
    "Operator.zero": lambda arity: Operator.zero(2, arity),
    "Operator.identity": lambda arity: Operator.identity(2, arity),
    "Operator.from_items": lambda arity: Operator.from_items(2, arity, []),
}
_BAD_SPACE = [(True, TypeError, "must be an integer"), (2.0, TypeError, "must be an integer"),
              (0, ValueError, None), (-1, ValueError, None)]


@pytest.mark.parametrize("taker", sorted(_DIMENSION_TAKERS))
@pytest.mark.parametrize("n, error, message", _BAD_SPACE)
def test_constructors_validate_dimension(taker, n, error, message):
    # each takes the dimension check of Operator(n, arity, entries), message included
    with pytest.raises(error, match=message or "dimension must be positive"):
        _DIMENSION_TAKERS[taker](n)


@pytest.mark.parametrize("taker", sorted(_ARITY_TAKERS))
@pytest.mark.parametrize("arity, error, message", _BAD_SPACE[:3] + [(4, ValueError, None)])
def test_constructors_validate_arity(taker, arity, error, message):
    with pytest.raises(error, match=message or "arity must be 1, 2 or 3"):
        _ARITY_TAKERS[taker](arity)


def test_constructors_store_the_dimension_as_int():
    for taker in _DIMENSION_TAKERS.values():
        op = taker(2)
        assert type(op.n) is int and op.n == 2


def test_from_items_adds_only_repeated_positions():
    value = F(2, 3)
    op = Operator.from_items(2, 1, [((1,), (1,), value), ((2,), (2,), 1), ((2,), (2,), F(-1, 2)),
                                    ((1,), (2,), 1), ((1,), (2,), -1)])
    assert op.rows[0][0] is value  # a position's first value is stored as it is
    assert op.dense_rows() == [[value, 0], [0, F(1, 2)]]  # the others add up, zeros dropped
    assert Operator.from_items(2, 1, [((1,), (2,), "0")]).is_zero()


def test_family_spec_stores_integral_dimension_as_int():
    np = pytest.importorskip("numpy")
    spec = FamilySpec("boundary", np.int64(3))
    assert type(spec.n) is int
    assert build(spec) == boundary_b(3)


# -- general rime form ---------------------------------------------------------


def test_rime_general_zero_and_diagonal_cases():
    z = ((0, 0), (0, 0))
    assert rime_general(GeneralRimeData(2, z, z, z, z)).is_zero()
    diag_only = rime_general(GeneralRimeData(2, ((1, 0), (0, 1)), z, z, z))
    assert list(diag_only.nonzero_items()) == [
        ((1, 1), (1, 1), F(1)),
        ((2, 2), (2, 2), F(1)),
    ]


def test_rime_general_frozen_expansion():
    d = GeneralRimeData(
        2,
        alpha=((1, 4), (-5, 1)),
        beta=((0, 6), (-3, 0)),
        gamma=((0, -6), (3, 0)),
        gamma_prime=((0, -3), (6, 0)),
    )
    assert rime_general(d).dense_rows() == RIME_2


# -- beta grids -----------------------------------------------------------------


def test_beta_from_phi_values():
    params = beta_from_phi(3, PhiVector((2, 1)))
    assert params.entry(1, 2) == 6
    assert params.entry(2, 1) == -3
    assert params.beta == 3


def test_beta_from_phi_relaxed_mode():
    params = beta_from_phi(3, PhiVector((0, 1)))
    assert params.entry(1, 2) == 0
    assert params.entry(2, 1) == 3


@given(st.data(), small_rationals, st.integers(2, 4))
def test_beta_pair_sums_equal_beta(data, beta, n):
    phi = PhiVector(data.draw(distinct_vectors(n, nonzero=True)))
    params = beta_from_phi(beta, phi)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert params.entry(i, j) + params.entry(j, i) == beta


@given(st.data(), st.integers(2, 4))
def test_beta_from_phi_is_projective(data, n):
    phi = data.draw(distinct_vectors(n, nonzero=True))
    c = data.draw(small_rationals.filter(bool))
    a = beta_from_phi(F(5, 2), PhiVector(phi))
    b = beta_from_phi(F(5, 2), PhiVector(tuple(c * v for v in phi)))
    assert a.beta_offdiag == b.beta_offdiag


def test_unitary_beta_values():
    params = unitary_beta(MuVector((0, 1)))
    assert params.entry(1, 2) == -1
    assert params.entry(2, 1) == 1
    assert params.beta == 0
    assert unitary_beta(MuVector((0, 1, 2))).entry(1, 3) == F(-1, 2)


@given(st.data(), st.integers(2, 4))
def test_unitary_beta_is_skew(data, n):
    mu = MuVector(data.draw(distinct_vectors(n, nonzero=False)))
    params = unitary_beta(mu)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                assert params.entry(i, j) == -params.entry(j, i)


# -- quantum solutions -----------------------------------------------------------


def test_rime_from_beta_zero_grid_is_permutation():
    params = RimeParams(3, tuple((F(0),) * 3 for _ in range(3)), 0)
    assert rime_from_beta(params) == permutation(3)


def test_rime_from_beta_frozen_matrix():
    rhat = rime_from_beta(beta_from_phi(3, PhiVector((2, 1))))
    assert rhat.dense_rows() == RIME_2


def test_rime_from_beta_validates_no_grid_again(monkeypatch):
    # a validated RimeParams, a relaxed one (check=False) among them, carries its grids
    # into rime_general unchecked: no _grid or zero-diagonal test runs, rime_general is
    # called once, and the operator equals the one built through the validated
    # GeneralRimeData and the oracle's sum of terms
    import rimealg.families as families

    rng = random.Random("rime-from-beta-trusted")
    cases = [beta_from_phi(random_rational(rng, True), PhiVector(random_distinct(rng, n, nonzero=True)))
             for n in range(1, 6)]
    cases += [unitary_beta(MuVector(random_distinct(rng, n, nonzero=False))) for n in range(1, 6)]
    cases.append(RimeParams(3, ((0, 1, 2), (F(1, 3), 0, -4), (5, F(-7, 2), 0)), 1, check=False))
    calls = []
    for name in ("_grid", "_require_zero_diagonal", "rime_general"):
        original = getattr(families, name)
        monkeypatch.setattr(families, name, lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    for params in cases:
        calls.clear()
        rhat = rime_from_beta(params)
        assert calls == ["rime_general"], params
        b = params.beta_offdiag
        n = params.n
        alpha = [[1 if i == j else 1 - b[j][i] for j in range(n)] for i in range(n)]
        gamma = [[-b[i][j] for j in range(n)] for i in range(n)]
        data = GeneralRimeData(n, alpha, b, gamma, tuple(zip(*b)))
        assert rhat == rime_general(data) == rime_general_items(data), params


@given(st.data(), small_rationals, st.integers(2, 4))
def test_rime_zero_pattern(data, beta, n):
    phi = PhiVector(data.draw(distinct_vectors(n, nonzero=True)))
    rhat = rime_from_beta(beta_from_phi(beta, phi))
    for (i, j), (k, l), _v in rhat.nonzero_items():
        assert {k, l} <= {i, j}


def test_cremmer_gervais_degenerate_is_permutation():
    assert cremmer_gervais(3, 1, 1) == permutation(3)
    assert cremmer_gervais(3, 1, 5) != permutation(3)  # p still twists the head term


def test_cremmer_gervais_frozen_matrix():
    rhat = cremmer_gervais(2, -2, 1)
    assert rhat.dense_rows() == [
        [1, 0, 0, 0],
        [0, 3, 1, 0],
        [0, -2, 0, 0],
        [0, 0, 0, 1],
    ]


def test_cremmer_gervais_rejects_zero_parameters():
    with pytest.raises(ValueError):
        cremmer_gervais(2, 0, 1)
    with pytest.raises(ValueError):
        cremmer_gervais(2, 1, 0)


def test_cremmer_gervais_off_pattern_entry():
    # the middle-index term at (i,j)=(1,3), s=2 lands outside the rime pattern
    rhat = cremmer_gervais(3, -2, 1)
    assert rhat.entry((1, 3), (2, 2)) == 3


# -- change of basis ---------------------------------------------------------------


def test_x_matrix_frozen():
    x = x_matrix(PhiVector((2, 1)))
    assert x.dense_rows() == [[1, 1], [1, 2]]
    assert x.det() == 1
    assert x_matrix(PhiVector((5,))).dense_rows() == [[1]]


def test_x_matrix_determinant_product_formula(rng):
    for n in range(2, 6):
        phi = random_distinct(rng, n, nonzero=False)
        det = x_matrix(PhiVector(phi)).det()
        expected = F(1)
        for j in range(n):
            for k in range(j + 1, n):
                expected *= phi[j] - phi[k]
        assert det == expected


@given(st.data(), st.integers(2, 4))
def test_x_matrix_column_grading(data, n):
    phi = data.draw(distinct_vectors(n, nonzero=True))
    x = x_matrix(PhiVector(phi))
    scaled = x_matrix(PhiVector(tuple(2 * v for v in phi)))
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            assert scaled.entry(k, j) == F(2) ** (j - 1) * x.entry(k, j)


# -- classical matrices -------------------------------------------------------------


def test_classical_rime_r_frozen_matrix():
    r = classical_rime_r(PhiVector((2, 1)))
    assert r.dense_rows() == CLASSICAL_R_2


def test_classical_rime_r_requires_strict_phi():
    with pytest.raises(ValueError):
        classical_rime_r(PhiVector((0, 1)))


@given(st.data(), st.integers(2, 3))
def test_classical_rime_r_pattern_and_pair_sum(data, n):
    phi = PhiVector(data.draw(distinct_vectors(n, nonzero=True)))
    r = classical_rime_r(phi)
    for (i, j), (k, l), _v in r.nonzero_items():
        assert {k, l} <= {i, j}
    p = permutation(n)
    swapped = p @ r @ p
    assert r + swapped == p - identity(n, 2)


def test_classical_cg_r_small_cases():
    assert classical_cg_r(1).is_zero()
    r2 = classical_cg_r(2)
    assert sorted(r2.nonzero_items()) == [
        ((1, 2), (1, 2), F(-1)),
        ((2, 1), (1, 2), F(1)),
    ]
    # same operator written through tensor units
    assert r2 == kron(matrix_unit(2, 1, 2), matrix_unit(1, 2, 2)) - kron(
        matrix_unit(1, 1, 2), matrix_unit(2, 2, 2)
    )


def test_z_generator_matrix():
    assert z_generator(1, 2, 2).dense_rows() == [[0, 1], [0, -1]]


def test_z_generator_column_sums_vanish():
    for n in (2, 3):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                rows = z_generator(i, j, n).dense_rows()
                assert all(sum(col) == 0 for col in zip(*rows))


def _exact_rank(rows):
    m = [list(row) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][c]
        m[rank] = [v / lead for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_z_generators_close_under_multiplication():
    n = 3
    gens = [
        z_generator(i, j, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    basis = [[v for row in g.dense_rows() for v in row] for g in gens]
    base_rank = _exact_rank(basis)
    for a in gens:
        for b in gens:
            prod = a @ b
            flat = [v for row in prod.dense_rows() for v in row]
            assert _exact_rank(basis + [flat]) == base_rank


def test_classical_unitary_r0_frozen_matrix():
    r0 = classical_unitary_r0(MuVector((0, 1)))
    assert r0.dense_rows() == [
        [0, 0, 0, 0],
        [-1, 1, 1, -1],
        [1, -1, -1, 1],
        [0, 0, 0, 0],
    ]
    # column-type counterpart of the row-type generators, single pair term
    w12 = transpose(z_generator(1, 2, 2))
    w21 = transpose(z_generator(2, 1, 2))
    assert r0 == -wedge(w12, w21)


@given(st.data(), st.integers(2, 4))
def test_classical_unitary_r0_is_skew(data, n):
    mu = MuVector(data.draw(distinct_vectors(n, nonzero=False)))
    r0 = classical_unitary_r0(mu)
    p = permutation(n)
    assert (r0 + p @ r0 @ p).is_zero()


def test_boundary_b_small_cases():
    assert boundary_b(1).is_zero()
    b2 = boundary_b(2)
    assert b2 == wedge(matrix_unit(1, 2, 2), matrix_unit(2, 2, 2))
    assert sorted(b2.nonzero_items()) == [
        ((1, 2), (2, 2), F(1)),
        ((2, 1), (2, 2), F(-1)),
    ]


def test_boundary_b_is_skew():
    for n in (2, 3, 4):
        b = boundary_b(n)
        p = permutation(n)
        assert (b + p @ b @ p).is_zero()


# -- dispatch ------------------------------------------------------------------------


def test_build_dispatch():
    spec = FamilySpec("rime-quantum", 2, beta=3, phi=(2, 1))
    op = build(spec)
    assert op.dense_rows() == RIME_2
    assert build(FamilySpec("cg", 2, q2inv=1, p=1)) == permutation(2)
    assert build(FamilySpec("boundary", 2)) == boundary_b(2)
    assert build(FamilySpec("classical-unitary", 2, mu=(0, 1))) == classical_unitary_r0(
        MuVector((0, 1))
    )
    assert build(FamilySpec("classical-rime", 2, phi=(2, 1))) == classical_rime_r(
        PhiVector((2, 1))
    )
    assert build(FamilySpec("classical-cg", 3)) == classical_cg_r(3)
    assert build(FamilySpec("rime-unitary", 2, mu=(0, 1))) == rime_from_beta(
        unitary_beta(MuVector((0, 1)))
    )


def test_describe_canonical_strings():
    spec = FamilySpec("rime-quantum", 2, beta="1/2", phi=("2", "-1/3"))
    assert describe(spec) == {
        "family": "rime-quantum",
        "n": "2",
        "beta": "1/2",
        "phi": "2,-1/3",
    }
    assert describe(FamilySpec("boundary", 4)) == {"family": "boundary", "n": "4"}


# -- item-list constructors against the paper's kron/wedge formulas ----------------------


def _classical_rime_oracle(phi):
    v, n = phi.phi, phi.n
    r = zero(n, 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                left = v[j - 1] * matrix_unit(i, j, n) - v[i - 1] * matrix_unit(i, i, n)
                right = matrix_unit(j, i, n) - matrix_unit(j, j, n)
                r = r + (1 / (v[j - 1] - v[i - 1])) * kron(left, right)
    return r


def _classical_unitary_oracle(mu):
    v, n = mu.mu, mu.n
    r0 = zero(n, 2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            wij = matrix_unit(j, i, n) - matrix_unit(j, j, n)
            wji = matrix_unit(i, j, n) - matrix_unit(i, i, n)
            r0 = r0 + (1 / (v[i - 1] - v[j - 1])) * wedge(wij, wji)
    return r0


def _boundary_oracle(n):
    b = zero(n, 2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, j - i + 1):
                b = b + wedge(matrix_unit(i, i + k, n), matrix_unit(j, j - k + 1, n))
    return b


def test_item_list_constructors_match_kron_formulas():
    rng = random.Random("item-list-constructors")
    for n in range(1, 5):
        assert boundary_b(n) == _boundary_oracle(n)
        for _ in range(5):
            phi = PhiVector(random_distinct(rng, n, nonzero=True))
            mu = MuVector(random_distinct(rng, n, nonzero=False))
            assert classical_rime_r(phi) == _classical_rime_oracle(phi)
            assert classical_unitary_r0(mu) == _classical_unitary_oracle(mu)


# -- direct-row constructors against the item-list oracles ---------------------------


def _grid(rng, n, zero_diagonal):
    # about a third of the entries zero, so rows lose cells to the zero filter
    return [[0 if (zero_diagonal and i == j) or rng.random() < 0.3 else random_rational(rng)
             for j in range(n)] for i in range(n)]


def _assert_same_operator(op, oracle):
    assert op == oracle
    assert (type(op.n), op.arity) == (int, oracle.arity)
    assert all(type(v) is F and v for row in op.rows for v in row.values())


def test_direct_row_constructors_match_item_lists():
    rng = random.Random("direct-row-constructors")
    for n in range(1, 8):
        _assert_same_operator(classical_cg_r(n), classical_cg_r_items(n))
        _assert_same_operator(boundary_b(n), boundary_b_items(n))
        for _ in range(4):
            phi = PhiVector(random_distinct(rng, n, nonzero=True))
            mu = MuVector(random_distinct(rng, n, nonzero=False))
            q2inv = random_rational(rng, nonzero=True)
            p = random_rational(rng, nonzero=True)
            _assert_same_operator(classical_rime_r(phi), classical_rime_r_items(phi))
            _assert_same_operator(classical_unitary_r0(mu), classical_unitary_r0_items(mu))
            _assert_same_operator(x_matrix(phi), x_matrix_items(phi))
            _assert_same_operator(cremmer_gervais(n, q2inv, p), cremmer_gervais_items(n, q2inv, p))
            b = _grid(rng, n, zero_diagonal=True)
            d = GeneralRimeData(n, _grid(rng, n, False), b, _grid(rng, n, True), _grid(rng, n, True))
            _assert_same_operator(rime_general(d), rime_general_items(d))
            params = beta_from_phi(random_rational(rng), phi)
            grid = params.beta_offdiag
            alpha = [[1 if i == j else 1 - grid[j][i] for j in range(n)] for i in range(n)]
            gamma = [[-v for v in row] for row in grid]
            canonical = GeneralRimeData(n, alpha, grid, gamma, list(zip(*grid)))
            _assert_same_operator(rime_from_beta(params), rime_general_items(canonical))


def test_direct_row_constructors_match_item_lists_at_degenerate_parameters():
    rng = random.Random("direct-row-degenerate")
    for n in range(1, 8):
        zeros = [[0] * n for _ in range(n)]
        empty = GeneralRimeData(n, zeros, zeros, zeros, zeros)
        _assert_same_operator(rime_general(empty), rime_general_items(empty))
        assert rime_general(empty).is_zero()
        for p in (-1, F(-2, 3), F(-5), random_rational(rng, nonzero=True)):
            # q2inv = 1 drops every term but the heads; a negative p flips signs by parity
            _assert_same_operator(cremmer_gervais(n, 1, p), cremmer_gervais_items(n, 1, p))
            _assert_same_operator(cremmer_gervais(n, F(-1, 2), p),
                                  cremmer_gervais_items(n, F(-1, 2), p))
        rest = random_distinct(rng, n, nonzero=True)
        for k in range(n):  # phi with one zero: some e_m of the other entries vanish
            phi = PhiVector(rest[:k] + (F(0),) + rest[k + 1:])
            _assert_same_operator(x_matrix(phi), x_matrix_items(phi))
            if n >= 2:  # e_(n-1) of the other entries is their product: 0 off row k
                assert x_matrix(phi).entry((k + 1) % n + 1, n) == 0
            mu = MuVector(phi.phi)
            _assert_same_operator(classical_unitary_r0(mu), classical_unitary_r0_items(mu))


def test_x_matrix_matches_per_row_products():
    # one e(phi) and a synthetic division per row give the rows that multiplying
    # out each row's own product gives, also where phi holds a zero
    rng = random.Random("x-matrix-rows")
    for n in range(1, 9):
        for nonzero in (True, False):
            for _ in range(3):
                phi = PhiVector(random_distinct(rng, n, nonzero))
                _assert_same_operator(x_matrix(phi), x_matrix_per_row(phi))
        rest = random_distinct(rng, n, nonzero=True)
        phi = PhiVector(rest[:n // 2] + (F(0),) + rest[n // 2 + 1:])
        _assert_same_operator(x_matrix(phi), x_matrix_per_row(phi))
        # at n = 3 the row without 43 has e_1(41, -41) = 0 inside it; 41 and 43
        # lie outside the range of the drawn entries
        if n >= 3:
            phi = PhiVector((F(41), F(-41), F(43)) + rest[3:])
            _assert_same_operator(x_matrix(phi), x_matrix_per_row(phi))


# -- integer construction against plain-Fraction formulas at wide parameters ----------


def _wide_rational(rng, nonzero=False):
    # either sign, numerators past 2**64 or small, denominators up to 10**6
    while True:
        num = rng.randint(-2**70, 2**70) if rng.random() < 0.5 else rng.randint(-9, 9)
        value = F(num, rng.randint(1, 10**6))
        if value or not nonzero:
            return value


def _wide_vector(rng, n, zero_at=None):
    values = []
    while len(values) < n:
        value = _wide_rational(rng, nonzero=True)
        if value not in values:
            values.append(value)
    if zero_at is not None:
        values[zero_at] = F(0)
    return tuple(values)


def test_beta_grids_match_fraction_formulas_at_wide_parameters():
    rng = random.Random("wide-beta-grids")
    for n in range(1, 9):
        for zero_at in (None, n - 1, 0):
            phi = PhiVector(_wide_vector(rng, n, zero_at))
            mu = MuVector(_wide_vector(rng, n, zero_at))
            for beta in (_wide_rational(rng), F(0), F(-7, 3)):
                params = beta_from_phi(beta, phi)
                assert params.beta_offdiag == beta_from_phi_grid(beta, phi)
                assert params.beta == beta
                assert all(type(v) is F for row in params.beta_offdiag for v in row)
            params = unitary_beta(mu)
            assert params.beta_offdiag == unitary_beta_grid(mu)
            assert params.beta == 0
            assert all(type(v) is F for row in params.beta_offdiag for v in row)


def test_constructors_match_oracles_at_wide_parameters():
    # every entry is made in ints over the lcm of the weights' denominators, which
    # here runs past 2**64, and the weights hold negative entries and a zero
    rng = random.Random("wide-constructors")
    for n in range(1, 9):
        _assert_same_operator(classical_cg_r(n), classical_cg_r_items(n))
        _assert_same_operator(boundary_b(n), boundary_b_items(n))
        for zero_at in (None, rng.randrange(n)):
            phi = PhiVector(_wide_vector(rng, n, zero_at))
            mu = MuVector(_wide_vector(rng, n, zero_at))
            strict = PhiVector(_wide_vector(rng, n))
            _assert_same_operator(x_matrix(phi), x_matrix_items(phi))
            _assert_same_operator(classical_rime_r(strict), classical_rime_r_items(strict))
            _assert_same_operator(classical_unitary_r0(mu), classical_unitary_r0_items(mu))
            for params in (beta_from_phi(_wide_rational(rng), phi), unitary_beta(mu)):
                grid = params.beta_offdiag
                alpha = [[1 if i == j else 1 - grid[j][i] for j in range(n)] for i in range(n)]
                gamma = [[-v for v in row] for row in grid]
                canonical = GeneralRimeData(n, alpha, grid, gamma, list(zip(*grid)))
                _assert_same_operator(rime_from_beta(params), rime_general_items(canonical))
            for q2inv in (_wide_rational(rng, nonzero=True), F(1)):
                p = _wide_rational(rng, nonzero=True)
                _assert_same_operator(cremmer_gervais(n, q2inv, p), cremmer_gervais_items(n, q2inv, p))


def test_broken_rime_params_name_the_first_broken_pair():
    beta = F(5, 7)
    big = F(2**70 + 1, 999_983)
    # (1, 2) holds as 1/3 + 8/21; (1, 3) is off by 2**-65; (2, 3) is off too
    grid = [[0, F(1, 3), big], [F(8, 21), 0, F(1, 2)], [beta - big + F(1, 2**65), F(1, 2), 0]]
    s = grid[0][2] + grid[2][0]
    message = f"beta_13 + beta_31 = {s} differs from beta = {beta}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RimeParams(3, grid, beta)
    RimeParams(3, [[0, F(1, 3), big], [F(8, 21), 0, F(1, 2)], [beta - big, F(3, 14), 0]], beta)


def test_normal_forms_are_made_once_per_validated_dimension():
    for taker, oracle in ((classical_cg_r, classical_cg_r_items), (boundary_b, boundary_b_items)):
        for n in (1, 2, 3):
            first = taker(n)
            assert taker(n) is first
            _assert_same_operator(taker(n), oracle(n))
        # n = 1 is warm, and True == 1.0 == 1 with equal hashes: each still raises
        for n, error, message in _BAD_SPACE + [(1.0, TypeError, "must be an integer")]:
            with pytest.raises(error, match=message or "dimension must be positive"):
                taker(n)
        assert taker(3) is taker(3)
