"""Exact operator algebra: indexing, arithmetic, tensor plumbing, linear algebra."""

import random
import sys
from fractions import Fraction
from math import gcd
from types import GeneratorType

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rimealg.core import (
    LEGS,
    Operator,
    as_rational,
    conjugate_pair,
    embed,
    flip21,
    identity,
    inverse,
    kron,
    linear_index,
    multi_index,
    permutation,
    zero,
)

from oracle import charpoly, matrix_unit, wedge

F = Fraction

rationals = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3)))


def operators(n, arity):
    size = n**arity
    row = st.lists(rationals, min_size=size, max_size=size)
    rows = st.lists(row, min_size=size, max_size=size)
    return rows.map(lambda data: Operator(n, arity, data))


def op2(n, rows):
    return Operator(n, 2, rows)


# -- scalars and indexing ---------------------------------------------------


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == F(3)
    assert as_rational("-3/4") == F(-3, 4)
    assert as_rational(F(5, 10)) == F(1, 2)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational([1])


def test_as_rational_rejects_bools():
    for value in (True, False):
        with pytest.raises(TypeError, match="got bool"):
            as_rational(value)
    np = pytest.importorskip("numpy")  # numpy scalars only; the package itself never imports numpy
    with pytest.raises(TypeError, match="got bool"):
        as_rational(np.bool_(True))
    assert as_rational(np.int64(1)) == F(1)


@given(rationals, rationals)
def test_rational_arithmetic_stays_canonical(a, b):
    # lowest terms with positive denominator, after every field operation
    for v in (a + b, a - b, a * b) + ((a / b,) if b else ()):
        assert v.denominator > 0
        assert gcd(abs(v.numerator), v.denominator) == 1


def test_linear_index_examples():
    assert linear_index((1, 2), 2) == 1
    assert linear_index((2, 1), 2) == 2
    assert multi_index(3, 2, 2) == (2, 2)
    assert multi_index(0, 3, 3) == (1, 1, 1)


def test_linear_index_range_check():
    with pytest.raises(IndexError):
        linear_index((0, 1), 2)
    with pytest.raises(IndexError):
        linear_index((1, 3), 2)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_index_round_trip(n, arity, data):
    lin = data.draw(st.integers(0, n**arity - 1))
    assert linear_index(multi_index(lin, n, arity), n) == lin


# -- matrix units and the permutation --------------------------------------


def test_matrix_unit_entries():
    assert matrix_unit(1, 1, 2).dense_rows() == [[1, 0], [0, 0]]
    assert matrix_unit(1, 2, 2).dense_rows() == [[0, 1], [0, 0]]
    with pytest.raises(IndexError):
        matrix_unit(0, 1, 2)
    with pytest.raises(IndexError):
        matrix_unit(1, 4, 3)


def test_matrix_unit_multiplication_rule():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    prod = matrix_unit(i, j, n) @ matrix_unit(k, l, n)
                    expected = matrix_unit(i, l, n) if j == k else zero(n)
                    assert prod == expected


def test_permutation_matrix():
    assert permutation(2).dense_rows() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]


def test_permutation_is_involution():
    for n in range(2, 6):
        p = permutation(n)
        assert p @ p == identity(n, 2)


def test_permutation_conjugates_tensor_factors():
    p = permutation(2)
    a = kron(matrix_unit(1, 1, 2), matrix_unit(2, 2, 2))
    assert p @ a @ p == kron(matrix_unit(2, 2, 2), matrix_unit(1, 1, 2))


# -- tensor products ---------------------------------------------------------


def test_kron_identity():
    assert kron(identity(2), identity(2)) == identity(2, 2)


def test_kron_single_unit():
    k = kron(matrix_unit(1, 2, 2), matrix_unit(2, 1, 2))
    assert list(k.nonzero_items()) == [((1, 2), (2, 1), F(1))]


@given(operators(2, 1), operators(2, 1), operators(2, 1), operators(2, 1))
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_kron_dimension_and_arity_checks():
    with pytest.raises(ValueError):
        kron(identity(2), identity(3))
    with pytest.raises(ValueError):
        kron(identity(2, 2), identity(2, 2))


@given(operators(2, 1), operators(2, 1), operators(2, 1))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


# -- leg embeddings -----------------------------------------------------------


def test_embed_leg_definitions():
    p = permutation(2)
    assert embed(p, 12) == kron(p, identity(2))
    assert embed(p, 23) == kron(identity(2), p)


def test_embed_leg_13_places_identity_in_the_middle():
    r = kron(matrix_unit(1, 2, 2), matrix_unit(2, 1, 2))
    placed = embed(r, 13)
    assert sorted(placed.nonzero_items()) == [
        ((1, a, 2), (2, a, 1), F(1)) for a in (1, 2)
    ]


def test_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        embed(identity(2), 12)
    with pytest.raises(ValueError):
        embed(identity(2, 2), 31)
    # a tag is an int or an exact string only: int() would truncate 12.9 to leg 12
    # and read "1_2", " 13 ", "+23", full-width digits and "012" as legs
    for tag in (12.9, 13.0, 23.0, True, F(12), None, (12,), "1_2", " 13 ", "+23", "１２", "012"):
        with pytest.raises(ValueError, match=r"^invalid leg tag .*; expected one of \(12, 13, 23\)$"):
            embed(permutation(2), tag)
    assert embed(permutation(2), "13") == embed(permutation(2), 13)
    assert LEGS == (12, 13, 23)


def test_embedded_legs_12_23_commute_only_for_diagonal_factors():
    n = 2
    d1 = op2(n, [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    d2 = op2(n, [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 9, 0], [0, 0, 0, 16]])
    a, b = embed(d1, 12), embed(d2, 23)
    assert (a @ b - b @ a).is_zero()
    a = embed(permutation(n), 12)
    b = embed(op2(n, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]), 23)
    assert not (a @ b - b @ a).is_zero()


@given(operators(2, 2))
def test_embed_13_matches_leg_permutation_route(r):
    # moving factor 2 past factor 1 turns leg 23 into leg 13
    swap = kron(permutation(2), identity(2))
    assert embed(r, 13) == swap @ embed(r, 23) @ swap


# -- flip -----------------------------------------------------------------


def test_flip21_fixed_points_and_units():
    p = permutation(2)
    assert flip21(p) == p
    x = matrix_unit(1, 1, 2)
    y = matrix_unit(2, 2, 2)
    assert flip21(kron(x, y)) == kron(y, x)


@given(operators(2, 2))
def test_flip21_involution(r):
    assert flip21(flip21(r)) == r


@given(operators(3, 2))
def test_flip21_agrees_with_conjugation_by_p(r):
    p = permutation(3)
    assert flip21(r) == p @ r @ p


# -- conjugation, wedge, inverse -------------------------------------------


def test_conjugate_pair_identity():
    r = permutation(3)
    assert conjugate_pair(r, identity(3)) == r


@given(operators(2, 2), operators(2, 1))
def test_conjugate_pair_preserves_charpoly(a, x):
    assume(x.det() != 0)
    assert charpoly(conjugate_pair(a, x)) == charpoly(a)


def test_conjugate_pair_rejects_singular_basis():
    with pytest.raises(ValueError):
        conjugate_pair(permutation(2), Operator(2, 1, [[1, 1], [1, 1]]))


def test_wedge_antisymmetry():
    x = matrix_unit(1, 2, 3)
    y = matrix_unit(2, 3, 3)
    assert wedge(x, x).is_zero()
    assert wedge(x, y) == -wedge(y, x)
    assert wedge(x, y) == kron(x, y) - kron(y, x)


def test_inverse_examples():
    assert inverse(identity(3)) == identity(3)
    m = Operator(2, 1, [[1, 1], [1, 2]])
    assert inverse(m).dense_rows() == [[2, -1], [-1, 1]]
    with pytest.raises(ValueError):
        inverse(Operator(2, 1, [[1, 2], [2, 4]]))


@given(operators(3, 1))
def test_inverse_round_trip(x):
    assume(x.det() != 0)
    assert x @ x.inverse() == identity(3)
    assert x.inverse() @ x == identity(3)


# -- determinant and characteristic polynomial ------------------------------


def test_det_known_values():
    assert Operator(2, 1, [[1, 1], [1, 2]]).det() == 1
    assert permutation(2).det() == -1
    assert Operator(2, 1, [[1, 2], [2, 4]]).det() == 0
    m = Operator(2, 1, [["1/2", "1/3"], ["1/4", "1/5"]])
    assert m.det() == F(1, 60)


@given(operators(2, 1), operators(2, 1))
def test_det_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


def test_charpoly_known_matrix():
    d = Operator(2, 1, [[2, 0], [0, 3]])
    assert charpoly(d) == (F(1), F(-5), F(6))


@given(operators(2, 1))
def test_charpoly_trace_and_det_coefficients(a):
    c0, c1, c2 = charpoly(a)
    assert c0 == 1
    assert c1 == -a.trace()
    assert c2 == a.det()


# -- operator type contract ---------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        Operator(2, 4, [[1]])
    with pytest.raises(ValueError):
        Operator(0, 1, [])
    with pytest.raises(ValueError):
        Operator(2, 1, [[1, 0]])
    with pytest.raises(TypeError):
        Operator(2, 1, [[0.5, 0], [0, 1]])


@pytest.mark.parametrize("n, arity", [(2.0, 1), (True, 1), (2, True), (2, 1.0), ("2", 1), (2, None)])
def test_constructor_rejects_non_integer_dimension_and_arity(n, arity):
    # a bool is no dimension: Operator(2, True, ...) would pass as arity 1
    with pytest.raises(TypeError, match="must be an integer"):
        Operator(n, arity, [[1, 0], [0, 1]])


def test_constructor_stores_integral_dimension_and_arity_as_int():
    np = pytest.importorskip("numpy")
    op = Operator(np.int64(2), np.int8(1), [[1, 0], [0, 1]])
    assert type(op.n) is int and type(op.arity) is int
    assert op.entry(1, 1) == 1
    assert op == identity(2)


def test_arithmetic_contract():
    a = permutation(2)
    b = identity(2, 2)
    assert a + b - b == a
    assert -(a - b) == b - a
    assert 2 * a == a * 2 == a + a
    assert F(1, 2) * (a + a) == a
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(ValueError):
        a + identity(3, 2)
    with pytest.raises(ValueError):
        a @ identity(2, 3)


@given(operators(2, 2), operators(2, 2))
def test_trace_is_cyclic(a, b):
    assert (a @ b).trace() == (b @ a).trace()


def test_trace_sums_wide_diagonals_exactly():
    # the diagonal is summed in ints over the lcm of its denominators
    rng = random.Random("wide-trace")
    for size in (1, 3, 9):
        dense = [[Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 10**6)) if rng.random() < 0.7 else 0
                  for _ in range(size)] for _ in range(size)]
        t = Operator(size, 1, dense).trace()
        assert type(t) is Fraction
        assert t == sum((dense[i][i] for i in range(size)), Fraction(0))
    assert Operator.zero(3, 1).trace() == 0 and type(Operator.zero(3, 1).trace()) is Fraction
    assert Operator(2, 1, [[Fraction(1, 6), 0], [0, Fraction(-1, 6)]]).trace() == 0


def test_string_rows_are_rejected():
    # a str is a sequence too: "12" must not be read as the cells 1, 2
    with pytest.raises(ValueError, match="got the string '12'"):
        Operator(2, 1, ["12", "34"])
    with pytest.raises(ValueError, match="got the string '5'"):
        Operator(1, 1, "5")
    assert Operator(2, 1, [("1", "2"), ["3", 4]]).dense_rows() == [[1, 2], [3, 4]]


def test_bytes_rows_are_rejected():
    # bytes are sequences of ints: b"12" must not be read as the cells 49, 50
    for rows in ([b"12", b"34"], [bytearray(b"12"), bytearray(b"34")]):
        with pytest.raises(ValueError, match="a row must be a sequence of cells"):
            Operator(2, 1, rows)


@pytest.mark.parametrize("rows", [
    [{1: "a", 2: "b"}, {3: 0, 4: 0}],  # the keys would be read as the cells
    [{0: 1, 1: 2}, (3, 4)],
    [{1, 2}, (3, 4)],  # a set has no fixed order
    [(1, 2), frozenset({3, 4})],
    [{1: 0, 2: 0}.keys(), (3, 4)],
])
def test_mapping_and_set_rows_are_rejected(rows):
    with pytest.raises(ValueError, match="a row must be a sequence of cells, got a "):
        Operator(2, 1, rows)


def _parse_outcome(parse, text):
    """The value parsed from ``text``, or the type of the exception raised."""
    try:
        return parse(text)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


def _cell_value(text):
    return Operator(1, 1, [[text]]).entry(1, 1)


CELL_EDGE_CASES = [
    " 1/2", "1/2 ", "1_0", "+3", "1.5", "1e3", "01/02", "-0", "-0/7", "٣", "1/٣", "1/0",
    "-3/0", "1/-2", "-1/2", "--1", "-", "/", "1/", "/2", "1/2/3", "2/4", "", " ", "\n1",
    "1" * (sys.get_int_max_str_digits() + 1), "1/" + "2" * (sys.get_int_max_str_digits() + 1),
]
CELL_TEXTS = st.one_of(
    st.from_regex(r"-?[0-9]{1,8}(/[0-9]{1,8})?", fullmatch=True),
    st.text(st.sampled_from("0123456789-+/_.e \\n٣²"), max_size=8),
    st.text(max_size=6),
)


def _assert_parse_matches_fraction(text):
    # canonical cells are read with int(); every string must give Fraction(text)'s
    # value, or raise the same exception type
    expected = _parse_outcome(Fraction, text)
    assert _parse_outcome(as_rational, text) == expected
    assert _parse_outcome(_cell_value, text) == expected


def test_cell_parse_edge_cases_match_fraction():
    for text in CELL_EDGE_CASES:
        _assert_parse_matches_fraction(text)
    assert _parse_outcome(as_rational, "1/0") is ZeroDivisionError
    assert _parse_outcome(as_rational, "1/-2") is ValueError
    assert as_rational("01/02") == F(1, 2) and type(as_rational("-7")) is F


@given(CELL_TEXTS)
def test_cell_parse_matches_fraction_of_the_string(text):
    _assert_parse_matches_fraction(text)


@pytest.mark.parametrize("row, col", [((1, 2), (2,)), ((1,), (1, 2)), ((1, 2, 1), (1, 1)),
                                      ((2, 2), (1, 1, 2)), ((), (1, 1))])
def test_from_items_checks_multi_index_length(row, col):
    # a short or long multi-index must not land in some other row or column
    with pytest.raises(IndexError, match="multi-index must have 2 components"):
        Operator.from_items(2, 2, [(row, col, 5)])


def test_rows_are_read_only_views():
    m = Operator(2, 1, [["1/2", 0], [0, 0]])
    assert m.rows == ({0: F(1, 2)}, {})
    with pytest.raises(TypeError):
        m.rows[0][1] = F(1)
    assert m.dense_rows() == [[F(1, 2), 0], [0, 0]]


def test_from_items_accumulates():
    op = Operator.from_items(2, 1, [((1,), (2,), 1), ((1,), (2,), "1/2")])
    assert op.entry(1, 2) == F(3, 2)


def test_nonzero_scan_helpers():
    op = Operator.from_items(2, 2, [((2, 1), (1, 1), 3), ((1, 2), (2, 2), -1)])
    assert op.first_nonzero() == ((1, 2), (2, 2), F(-1))
    assert op.max_abs() == 3
    assert not op.is_zero()
    assert zero(2, 2).is_zero()
    assert zero(2, 2).first_nonzero() is None
    assert zero(2, 2).max_abs() == 0


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonzero_items_match_the_per_entry_multi_index_form(n, arity):
    # the cached multi-index table gives what two multi_index calls per entry
    # gave: the same triples in the same order, row-major with ascending
    # columns, on dense, sparse, zero and identity operators, and lazily
    rng = random.Random(f"nonzero-items-{n}-{arity}")
    size = n**arity

    def per_entry(op):
        return [(multi_index(r, n, arity), multi_index(c, n, arity), op.rows[r][c])
                for r in range(size) for c in sorted(op.rows[r])]

    ops = [zero(n, arity), identity(n, arity)]
    for density in (1.0, 0.3, 0.05):
        ops.append(Operator(n, arity, [
            [F(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density else 0
             for _ in range(size)] for _ in range(size)]))
    for op in ops:
        items = op.nonzero_items()
        assert isinstance(items, GeneratorType)
        assert list(items) == per_entry(op)
        assert op.first_nonzero() == next(iter(per_entry(op)), None)


def test_entry_accepts_plain_ints_at_arity_one():
    m = matrix_unit(1, 2, 3)
    assert m.entry(1, 2) == 1
    with pytest.raises(IndexError):
        m.entry((1, 1), (2, 2))
