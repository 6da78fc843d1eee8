"""Differential tests: the sparse Operator against a dense list-of-lists oracle.

The oracle below is plain row-by-column arithmetic on dense lists of
Fractions and lives only here.  Operators are drawn sparse at n <= 3 and
arity 1..3, from items that may cancel, in shuffled order, so row dicts see
every insertion order.  After every operation the result must match the
oracle and hold the storage invariant: no zero is ever stored.  The integer
chain kernel and the placement tables that feed it are held against the
same oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rimealg.core import (
    LEGS,
    Operator,
    _chain_sum,
    _from_scaled,
    _pairs,
    _placed,
    _scaled_rows,
    embed,
    flip21,
    identity,
    kron,
    linear_index,
    multi_index,
    permutation,
    zero,
)

F = Fraction

# small values, zero included, so cancellations are frequent
rationals = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


# -- the dense oracle -------------------------------------------------------------


def d_zero(size):
    return [[F(0)] * size for _ in range(size)]


def d_map(f, a, b):
    return [[f(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def d_matmul(a, b):
    size = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(size)), F(0)) for j in range(size)]
            for i in range(size)]


def d_kron(a, b):
    sb = len(b)
    size = len(a) * sb
    return [[a[i // sb][j // sb] * b[i % sb][j % sb] for j in range(size)] for i in range(size)]


def d_embed(r, n, leg):
    # entry ((i1,i2,i3), (j1,j2,j3)) is r on the two legs, a Kronecker delta on the third
    a, b = {12: (0, 1), 13: (0, 2), 23: (1, 2)}[leg]
    rest = 3 - a - b
    out = d_zero(n**3)
    for x in range(n**3):
        i = multi_index(x, n, 3)
        for y in range(n**3):
            j = multi_index(y, n, 3)
            if i[rest] == j[rest]:
                out[x][y] = r[linear_index((i[a], i[b]), n)][linear_index((j[a], j[b]), n)]
    return out


def d_flip21(r, n):
    def swap(x):
        return linear_index(tuple(reversed(multi_index(x, n, 2))), n)

    return [[r[swap(x)][swap(y)] for y in range(n * n)] for x in range(n * n)]


def d_gauss_jordan(a):
    """(det, inverse) of a dense matrix by Gauss-Jordan elimination over Fractions.

    The inverse is None when the matrix is singular, and then the det is 0.
    """
    size = len(a)
    a = [row[:] for row in a]
    inv = [[F(int(i == j)) for j in range(size)] for i in range(size)]
    det = F(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col]), None)
        if pivot_row is None:
            return F(0), None
        if pivot_row != col:
            det = -det
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        det *= pivot
        a[col] = [v / pivot for v in a[col]]
        inv[col] = [v / pivot for v in inv[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return det, inv


def d_items(a, n, arity):
    return [(multi_index(r, n, arity), multi_index(c, n, arity), v)
            for r, row in enumerate(a) for c, v in enumerate(row) if v]


# -- strategies and the invariant ---------------------------------------------------


@st.composite
def with_oracle(draw, n, arity):
    """An operator and its dense oracle, built from items some of which cancel."""
    size = n**arity
    idx = st.integers(0, size - 1)
    items = draw(st.lists(st.tuples(idx, idx, rationals), max_size=2 * size))
    cancel = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    items = draw(st.permutations(items + [(r, c, -v) for (r, c, v), k in zip(items, cancel) if k]))
    dense = d_zero(size)
    for r, c, v in items:
        dense[r][c] += v
    if draw(st.booleans()):
        multi = [(multi_index(r, n, arity), multi_index(c, n, arity), v) for r, c, v in items]
        return Operator.from_items(n, arity, multi), dense
    return Operator(n, arity, dense), dense


spaces = st.tuples(st.integers(1, 3), st.integers(1, 3))


def check(op, dense, n, arity):
    """``op`` equals the oracle, scans row-major with ascending columns, and
    stores only nonzero Fractions at valid offsets."""
    assert (op.n, op.arity) == (n, arity)
    assert len(op._rows) == op.size == len(dense)
    for row in op._rows:
        assert all(isinstance(v, Fraction) and v != 0 for v in row.values())
        assert all(0 <= c < op.size for c in row)
    assert op.dense_rows() == dense
    assert list(op.nonzero_items()) == d_items(dense, n, arity)


# -- tests ------------------------------------------------------------------------


@settings(max_examples=60)
@given(spaces, st.data())
def test_construction_and_reductions_match_oracle(space, data):
    n, arity = space
    op, dense = data.draw(with_oracle(n, arity))
    check(op, dense, n, arity)
    items = d_items(dense, n, arity)
    # inserted in descending order, so every row dict iterates its columns backwards
    backwards = Operator.from_items(n, arity, reversed(items))
    check(backwards, dense, n, arity)
    assert op.first_nonzero() == backwards.first_nonzero() == (items[0] if items else None)
    assert op.max_abs() == max((abs(v) for row in dense for v in row), default=F(0))
    assert op.is_zero() == (not items)
    assert op.trace() == sum((dense[i][i] for i in range(len(dense))), F(0))
    assert op == Operator(n, arity, dense)


@settings(max_examples=60)
@given(spaces, st.data(), rationals)
def test_linear_operations_match_oracle(space, data, s):
    n, arity = space
    a, da = data.draw(with_oracle(n, arity))
    b, db = data.draw(with_oracle(n, arity))
    size = n**arity
    check(a + b, d_map(lambda x, y: x + y, da, db), n, arity)
    check(a - b, d_map(lambda x, y: x - y, da, db), n, arity)
    check(-a, [[-x for x in row] for row in da], n, arity)
    scaled = [[s * x for x in row] for row in da]
    check(a * s, scaled, n, arity)
    check(s * a, scaled, n, arity)
    for nought in (0, "0", F(0)):
        check(a * nought, d_zero(size), n, arity)
    check(a - a, d_zero(size), n, arity)
    check(a + (-a), d_zero(size), n, arity)
    assert (a - a).is_zero() and (a - a) == zero(n, arity)
    assert (a == b) == (da == db)


@settings(max_examples=60)
@given(spaces, st.data())
def test_composition_matches_oracle(space, data):
    n, arity = space
    a, da = data.draw(with_oracle(n, arity))
    b, db = data.draw(with_oracle(n, arity))
    check(a @ b, d_matmul(da, db), n, arity)
    # strictly upper triangular, so its size-th power vanishes
    upper = [[v if c > r else F(0) for c, v in enumerate(row)] for r, row in enumerate(da)]
    u = Operator(n, arity, upper)
    check(u @ u, d_matmul(upper, upper), n, arity)
    power, exponent = u, 1
    while exponent < len(upper):
        power, exponent = power @ power, 2 * exponent
    check(power, d_zero(len(upper)), n, arity)


@settings(max_examples=60)
@given(spaces, st.data())
def test_rank_one_nilpotent_cancels_to_zero(space, data):
    # M = u w^T with w.u = 0: every entry of M @ M is a sum that cancels exactly
    n, arity = space
    size = n**arity
    u = data.draw(st.lists(rationals, min_size=size, max_size=size))
    v = data.draw(st.lists(rationals, min_size=size, max_size=size))
    uu = sum((x * x for x in u), F(0))
    proj = sum((x * y for x, y in zip(u, v)), F(0)) / uu if uu else F(0)
    w = [y - proj * x for x, y in zip(u, v)]
    m = Operator(n, arity, [[x * y for y in w] for x in u])
    check(m @ m, d_zero(size), n, arity)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_kron_matches_oracle(n, arity_a, data):
    arity_b = data.draw(st.integers(1, 3 - arity_a))
    a, da = data.draw(with_oracle(n, arity_a))
    b, db = data.draw(with_oracle(n, arity_b))
    check(kron(a, b), d_kron(da, db), n, arity_a + arity_b)


@settings(max_examples=40)
@given(st.integers(1, 3), st.data())
def test_embed_and_flip21_match_oracle(n, data):
    r, dr = data.draw(with_oracle(n, 2))
    for leg in LEGS:
        check(embed(r, leg), d_embed(dr, n, leg), n, 3)
    check(flip21(r), d_flip21(dr, n), n, 2)


# mixed prime denominators, so the common scale D of the integer elimination is a product of primes
prime_rationals = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def square_matrices(draw, size):
    """A dense size-by-size matrix: general, singular or with a zero leading pivot."""
    rows = draw(st.lists(st.lists(prime_rationals, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    kind = draw(st.sampled_from(("general", "singular", "zero pivot")))
    if kind == "singular":  # the last row a multiple of the first (the zero row at size 1)
        s = draw(prime_rationals)
        rows[-1] = [s * v for v in rows[0]] if size > 1 else [F(0)]
    elif kind == "zero pivot":  # the first column's nonzero entries all lie below row 1
        rows[0][0] = F(0)
        if size > 1:
            rows[1][0] = draw(prime_rationals.filter(bool))
    return rows


@settings(max_examples=80)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_det_and_inverse_match_gauss_jordan_oracle(n, arity, data):
    dense = data.draw(square_matrices(n**arity))
    op = Operator(n, arity, dense)
    det, inv = d_gauss_jordan(dense)
    assert op.det() == det
    assert isinstance(op.det(), Fraction)
    if inv is None:
        assert det == 0
        with pytest.raises(ValueError, match="singular"):
            op.inverse()
    else:
        check(op.inverse(), inv, n, arity)


def test_det_and_inverse_swap_a_zero_leading_pivot():
    # J/3 for the anti-diagonal J: every pivot needs a row swap, det = sign / 3^size, inverse 3 J
    for n, arity, sign in ((2, 1, -1), (3, 1, -1), (2, 2, 1)):
        size = n**arity
        dense = [[F(int(i + j == size - 1), 3) for j in range(size)] for i in range(size)]
        op = Operator(n, arity, dense)
        assert op.det() == d_gauss_jordan(dense)[0] == F(sign, 3**size)
        check(op.inverse(), [[9 * v for v in row] for row in dense], n, arity)


def test_permutation_equals_the_flip_from_items():
    for n in range(1, 6):
        old = Operator.from_items(n, 2, (((i, j), (j, i), 1)
                                         for i in range(1, n + 1) for j in range(1, n + 1)))
        check(permutation(n), old.dense_rows(), n, 2)
        assert permutation(n) == old


# -- the integer chain kernel ---------------------------------------------------------


def _d_row_times(row, f):
    """The dense row times the dense matrix f; a zero entry on either side adds nothing, so it is skipped."""
    out = [F(0)] * len(row)
    for k, x in enumerate(row):
        if x:
            for j, y in enumerate(f[k]):
                if y:
                    out[j] += x * y
    return out


def d_chain(terms, size):
    """The sum of c A1 ... Aj over (c, dense factors), products taken row by column from I."""
    total = d_zero(size)
    for c, factors in terms:
        term = [[F(int(i == j)) for j in range(size)] for i in range(size)]
        for f in factors:
            term = [_d_row_times(row, f) for row in term]
        total = [[t + c * v for t, v in zip(trow, row)] for trow, row in zip(total, term)]
    return total


def _rime_pattern(rng, n):
    """A random arity-2 operator in the rime pattern: row (i, j) only in the columns {i, j}^2."""
    items = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for col in sorted({(i, j), (j, i), (i, i), (j, j)}):
                if rng.random() < 0.8:
                    items.append(((i, j), col, F(rng.randint(-9, 9), rng.choice((1, 2, 3)))))
    return Operator.from_items(n, 2, items)


def _dense_operator(rng, n, arity):
    size = n**arity
    return Operator(n, arity, [[F(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(size)]
                               for _ in range(size)])


def _sparse_operator(rng, n, arity):
    """Mostly empty rows, so products meet zero rows."""
    size = n**arity
    items = [(multi_index(rng.randrange(size), n, arity), multi_index(rng.randrange(size), n, arity),
              F(rng.randint(1, 9), rng.choice((1, 3)))) for _ in range(max(1, size // 3))]
    return Operator.from_items(n, arity, items)


def _off_pattern(rng, n):
    """A rime-pattern operator whose row (1, 2) holds its four pattern entries and a fifth at (3, 1) (n >= 3)."""
    rows = [dict(row) for row in _rime_pattern(rng, n)._rows]
    rows[1] = {c: F(rng.randint(1, 9), 7) for c in (1, n, 0, n + 1, 2 * n)}
    return Operator._wrap(n, 2, tuple(rows))


def _factor_pool(rng, n, arity):
    """(kind, operator) pairs on V^(tensor arity): rime legs, off-pattern and dense rows, and zero rows."""
    pool = [("sparse", _sparse_operator(rng, n, arity)), ("dense", _dense_operator(rng, n, arity))]
    if arity == 1:
        return pool
    rimes = [("rime", _rime_pattern(rng, n))]
    if n >= 3:
        rimes.append(("off-pattern", _off_pattern(rng, n)))
    if arity == 2:
        return pool + rimes
    pool = pool if n <= 3 else pool[:1]  # dense arity-3 factors at n = 4 are too slow for the oracle
    return pool + [(kind, embed(r, rng.choice(LEGS))) for kind, r in rimes]


def _coefficient(rng):
    return F(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice((1, 2, 3, 5, 7)))


def _kernel_cases(rng, n, arity):
    """(kind of each factor, terms) over one pool: every length 0..5, cancelling terms and sums."""
    pool = _factor_pool(rng, n, arity)
    # on V^(tensor 3) a dense factor only sits in the middle of the last two
    # folds, so the oracle's products stay small
    others = [op for kind, op in pool if kind != "dense" or arity < 3]
    for length in range(6):
        for kind, op in pool:
            # the factor in the middle of the last two folds is op, the rest drawn from the pool
            ops = [rng.choice(others) for _ in range(length)]
            if length >= 2:
                ops[-2] = op
            c = _coefficient(rng)
            yield kind, [(c, ops), (_coefficient(rng), [rng.choice(others) for _ in range(rng.randrange(4))])]
            # the same product twice with opposite signs: an all-zero sum
            yield kind, [(c, ops), (-c, ops)]
    # two products that differ in one factor's row: they cancel on every other row
    a, b = (rng.choice(others) for _ in range(2))
    shifted = b + Operator.from_items(n, arity, [(multi_index(0, n, arity), multi_index(0, n, arity), 1)])
    yield "shift", [(F(1, 2), [a, b, a]), (F(-1, 2), [a, shifted, a])]


def test_chain_sum_matches_the_dense_oracle():
    rng = random.Random("chain-kernel")
    guard_sides, zero_rows, zero_sums = set(), 0, 0
    for n in range(1, 5):
        for arity in (1, 2, 3):
            size = n**arity
            for kind, terms in _kernel_cases(rng, n, arity):
                ops = [op for _, factors in terms for op in factors]
                d, scaled = _scaled_rows(*ops) if ops else (1, [])
                rows = iter(_pairs(op_rows) for op_rows in scaled)
                int_terms = [(c, [next(rows) for _ in factors]) for c, factors in terms]
                scale, out = _chain_sum(n, arity, d, int_terms)
                want = d_chain([(c, [op.dense_rows() for op in factors]) for c, factors in terms], size)
                assert _from_scaled(n, arity, scale, out).dense_rows() == want, (n, arity, kind)
                # rows ascending, entries ascending, no zero stored
                assert list(out) == sorted(out) and all(list(row) == sorted(row) for row in out.values())
                assert all(v for row in out.values() for v in row.values())
                zero_rows += 0 < len(out) < size
                zero_sums += not out
                for _, factors in terms:
                    if len(factors) >= 3:
                        mid = factors[-2]
                        guard_sides.add((kind, sum(map(len, mid._rows)) <= 4 * mid.size))
    # the last two folds were fused for rime legs and the off-pattern row, merged for dense rows
    assert {("rime", True), ("off-pattern", True), ("dense", False)} <= guard_sides
    assert zero_rows and zero_sums


def test_chain_sum_scale_and_terms_of_no_factors():
    # S = E D^k: a term of no factors is c I, whatever the other terms' lengths
    n, d = 2, 6
    rows = _pairs([{0: 3}, {}, {1: -2}, {3: 1}])
    scale, out = _chain_sum(n, 2, d, [(F(1, 4), []), (F(-2, 3), [rows, rows])])
    assert scale == 12 * d**2
    a = Operator._wrap(n, 2, tuple({c: F(v, d) for c, v in row} for row in rows))
    assert _from_scaled(n, 2, scale, out) == identity(n, 2) * F(1, 4) + (a @ a) * F(-2, 3)
    assert _chain_sum(n, 1, d, [(F(1, 3), []), (F(-1, 3), [])]) == (3, {})


# -- the placement tables -------------------------------------------------------------


def test_placement_tables_match_the_operator_placements():
    # the kernel rows each table makes equal the pairs of the Operator the
    # public placement makes of the same int rows, and the Kronecker route
    rng = random.Random("placement-tables")
    for n in range(1, 6):
        for _ in range(3):
            rows2 = [{c: rng.randint(-9, 9) or 1 for c in rng.sample(range(n * n), rng.randint(0, n * n))}
                     for _ in range(n * n)]
            rows1 = [{c: rng.randint(-9, 9) or 1 for c in rng.sample(range(n), rng.randint(0, n))}
                     for _ in range(n)]
            r, m = Operator._wrap(n, 2, tuple(rows2)), Operator._wrap(n, 1, tuple(rows1))
            for leg in LEGS:
                assert _placed(rows2, n, str(leg)) == _pairs(embed(r, leg)._rows), (n, leg)
            assert _placed(rows2, n, "21") == _pairs(flip21(r)._rows)
            eye1 = identity(n)
            assert _placed(rows1, n, "1") == _pairs(kron(m, eye1)._rows)
            assert _placed(rows1, n, "2") == _pairs(kron(eye1, m)._rows)
            d = rng.randint(1, 30)
            assert _placed(({0: d},), n, "P") == _pairs((permutation(n) * d)._rows)
            assert embed(r, 12) == kron(r, eye1) and embed(r, 23) == kron(eye1, r)
            assert embed(r, 13).dense_rows() == d_embed(r.dense_rows(), n, 13)
            assert flip21(r).dense_rows() == d_flip21(r.dense_rows(), n)
