"""Exact operator algebra on small tensor powers of a finite-dimensional space.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), so every
arithmetic operation in this module is exact: a zero residual means an
identity holds, not that it holds up to rounding.

An :class:`Operator` is a square matrix acting on V^(tensor k) for a base
space V of dimension ``n`` and tensor arity ``k in {1, 2, 3}``.  Rows and
columns are addressed by 1-based multi-indices ``(i1, ..., ik)`` in
lexicographic order with the leftmost factor most significant: the linear
offset of ``(i1, ..., ik)`` is ``sum((ia - 1) * n**(k - a))``.

Operators store sparse rows with no stored zeros and are never mutated after
construction, so instances can be shared freely between threads.
``Operator.dense_rows()`` is a fresh dense copy built on each call, not for hot paths.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Integral
from operator import add, sub
from types import MappingProxyType
from typing import Iterator, Sequence

__all__ = [
    "Operator",
    "as_rational",
    "linear_index",
    "multi_index",
    "identity",
    "zero",
    "permutation",
    "kron",
    "embed",
    "flip21",
    "conjugate_pair",
    "inverse",
    "LEGS",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Valid tensor-leg tags for :func:`embed`.
LEGS = (12, 13, 23)


def as_rational(value) -> Fraction:
    """Coerce ints, strings like ``'-3/4'`` and Fractions to a Fraction.

    Floats and bools are rejected on purpose: a binary float would smuggle
    rounding error into exact checks, and a JSON ``true`` is not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):  # numpy ints too
        return Fraction(int(value))
    if isinstance(value, str):
        return _parse_rational(value)
    raise TypeError(
        f"expected an exact rational (int, str or Fraction), got {type(value).__name__}"
    )


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with the canonical ASCII forms ``-a`` and ``-a/b`` read by int().

    Only strings made of an optional ``-``, ASCII digits and at most one
    ``/`` followed by ASCII digits take the int() route; every other string
    (spaces, ``+``, ``_``, decimals, non-ASCII digits) goes to Fraction, so
    the value or the exception is the same either way.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith("-") else num
    if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(text)


def linear_index(multi: Sequence[int], n: int) -> int:
    """0-based linear offset of a 1-based multi-index."""
    lin = 0
    for i in multi:
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range 1..{n}")
        lin = lin * n + (i - 1)
    return lin


def multi_index(lin: int, n: int, arity: int) -> tuple[int, ...]:
    """1-based multi-index of a 0-based linear offset (inverse of linear_index)."""
    out = []
    for _ in range(arity):
        lin, rem = divmod(lin, n)
        out.append(rem + 1)
    return tuple(reversed(out))


@lru_cache(maxsize=16)
def _multi_indices(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """multi_index of every offset of V^(tensor arity), by offset, for the spaces used last."""
    return tuple(multi_index(lin, n, arity) for lin in range(n**arity))


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-Integral (a float among them) raises TypeError."""
    if isinstance(value, Integral) and not isinstance(value, bool):  # numpy ints too
        return int(value)
    raise TypeError(f"{what} must be an integer, got {type(value).__name__}")


def _space(n, arity) -> tuple[int, int]:
    """(n, arity) as ints.

    A bool or a non-Integral raises TypeError, n < 1 or an arity other
    than 1, 2 or 3 ValueError.
    """
    n = _integer(n, "dimension")
    arity = _integer(arity, "arity")
    if arity not in (1, 2, 3):
        raise ValueError(f"arity must be 1, 2 or 3, got {arity}")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return n, arity


def _require_space(n: int, arity: int, other: "Operator", what: str) -> None:
    """Raise ValueError unless ``other`` acts on the space of an (n, arity) left operand."""
    if n != other.n or arity != other.arity:
        raise ValueError(
            f"{what} requires matching operators, got n={n}, arity={arity} "
            f"vs n={other.n}, arity={other.arity}"
        )


class Operator:
    """Square matrix of exact rationals on V^(tensor arity), dim V = n.

    ``_rows`` holds one ``{column offset: Fraction}`` dict per row.  No zero is
    ever stored, since equality is row-dict equality.
    """

    __slots__ = ("n", "arity", "_rows")

    def __init__(self, n: int, arity: int, entries):
        n, arity = _space(n, arity)
        size = n**arity
        # one pass, row by row: parse and keep the nonzero cells, then check the
        # shape.  Each distinct string is parsed once, at its first cell, so the
        # first bad cell raises first; None marks a zero, "0" is never parsed.
        # Only str cells are memoized: with int keys, True would hit 1's entry.
        parsed = {"0": None}
        rows = []
        square = True
        for row in entries:
            # else "12" would be read as the cells 1, 2 and b"12" as 49, 50, a
            # mapping as its keys and a set in no fixed order
            if isinstance(row, (str, bytes, bytearray)):
                raise ValueError(f"a row must be a sequence of cells, got the string {row!r}")
            if row.__class__ not in (tuple, list) and isinstance(row, (Mapping, Set)):
                raise ValueError(f"a row must be a sequence of cells, got a {type(row).__name__}")
            cells = {}
            width = 0
            for width, v in enumerate(row, 1):
                if v.__class__ is str:
                    if v in parsed:
                        q = parsed[v]
                    else:
                        q = parsed[v] = _parse_rational(v) or None
                else:
                    q = as_rational(v) or None
                if q is not None:
                    cells[width - 1] = q
            rows.append(cells)
            square = square and width == size
        if not square or len(rows) != size:
            raise ValueError(f"expected a {size}x{size} array for n={n}, arity={arity}")
        self.n = n
        self.arity = arity
        self._rows = tuple(rows)

    @classmethod
    def _wrap(cls, n: int, arity: int, rows) -> "Operator":
        # trusted constructor: rows are dicts of nonzero exact rationals
        op = object.__new__(cls)
        op.n = n
        op.arity = arity
        op._rows = rows
        return op

    @classmethod
    def zero(cls, n: int, arity: int) -> "Operator":
        n, arity = _space(n, arity)
        return cls._wrap(n, arity, tuple({} for _ in range(n**arity)))

    @classmethod
    def identity(cls, n: int, arity: int) -> "Operator":
        n, arity = _space(n, arity)
        return cls._wrap(n, arity, tuple({i: _ONE} for i in range(n**arity)))

    @classmethod
    def from_items(cls, n: int, arity: int, items) -> "Operator":
        """Accumulate ``(row_multi, col_multi, value)`` triples into an operator.

        Repeated positions add up, matching how the matrix families are
        written as sums of elementary terms; the first value at a position
        is stored as it is.  Every multi-index must have ``arity``
        components, else IndexError.
        """
        n, arity = _space(n, arity)
        rows = [{} for _ in range(n**arity)]
        for row_multi, col_multi, value in items:
            if len(row_multi) != arity or len(col_multi) != arity:
                raise IndexError(f"multi-index must have {arity} components")
            row = rows[linear_index(row_multi, n)]
            c = linear_index(col_multi, n)
            value = as_rational(value)
            row[c] = row[c] + value if c in row else value
        return cls._wrap(n, arity, tuple({c: v for c, v in row.items() if v} for row in rows))

    # -- basic structure ------------------------------------------------

    @property
    def size(self) -> int:
        return self.n**self.arity

    @property
    def rows(self) -> tuple[Mapping[int, Fraction], ...]:
        """Read-only view of each row, ``{column offset: nonzero entry}``, by row offset."""
        return tuple(map(MappingProxyType, self._rows))

    def dense_rows(self) -> list[list[Fraction]]:
        """Fresh dense list-of-lists copy of the entries."""
        return [[row.get(c, _ZERO) for c in range(self.size)] for row in self._rows]

    def entry(self, row, col) -> Fraction:
        """Entry at 1-based multi-indices (plain ints are allowed at arity 1)."""
        r = (row,) if isinstance(row, int) else tuple(row)
        c = (col,) if isinstance(col, int) else tuple(col)
        if len(r) != self.arity or len(c) != self.arity:
            raise IndexError(f"multi-index must have {self.arity} components")
        return self._rows[linear_index(r, self.n)].get(linear_index(c, self.n), _ZERO)

    def nonzero_items(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
        """Yield (row_multi, col_multi, value) for every nonzero entry, row-major
        with ascending columns."""
        index = _multi_indices(self.n, self.arity)
        for r, row in enumerate(self._rows):
            for c in sorted(row):
                yield index[r], index[c], row[c]

    def first_nonzero(self):
        """Lexicographically first nonzero entry, or None if the operator is zero."""
        return next(self.nonzero_items(), None)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def max_abs(self) -> Fraction:
        return max((abs(v) for row in self._rows for v in row.values()), default=_ZERO)

    # -- arithmetic ------------------------------------------------------

    def _entrywise(self, other, op, what: str):
        # op(a, b) for op in (add, sub); entries only in self keep their value
        if not isinstance(other, Operator):
            return NotImplemented
        _require_space(self.n, self.arity, other, what)
        out = []
        for a, b in zip(self._rows, other._rows):
            row = {**a, **{c: op(a.get(c, _ZERO), v) for c, v in b.items()}}
            out.append({c: v for c, v in row.items() if v})
        return Operator._wrap(self.n, self.arity, tuple(out))

    def __add__(self, other):
        return self._entrywise(other, add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, sub, "subtraction")

    def __neg__(self):
        rows = tuple({c: -v for c, v in row.items()} for row in self._rows)
        return Operator._wrap(self.n, self.arity, rows)

    def __mul__(self, scalar):
        if isinstance(scalar, Operator):
            raise TypeError("use @ for operator composition, * is scalar multiplication")
        s = as_rational(scalar)
        rows = tuple({c: v * s for c, v in row.items() if s} for row in self._rows)
        return Operator._wrap(self.n, self.arity, rows)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        _require_space(self.n, self.arity, other, "composition")
        brows = other._rows
        out = []
        for arow in self._rows:
            orow = {}
            for k, av in arow.items():
                for j, bv in brows[k].items():
                    orow[j] = orow.get(j, _ZERO) + av * bv
            out.append({j: v for j, v in orow.items() if v})
        return Operator._wrap(self.n, self.arity, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.n == other.n and self.arity == other.arity and self._rows == other._rows

    __hash__ = None  # mutable-looking payload; exact equality is entrywise

    def __repr__(self):
        return f"Operator(n={self.n}, arity={self.arity}, size={self.size})"

    # -- linear-algebra helpers -------------------------------------------

    def trace(self) -> Fraction:
        """Sum of the diagonal, in ints over the lcm of its denominators."""
        diagonal = [v for i, row in enumerate(self._rows) if (v := row.get(i))]
        d = lcm(*(v.denominator for v in diagonal))
        return Fraction(sum(v.numerator * (d // v.denominator) for v in diagonal), d)

    def det(self) -> Fraction:
        """Exact determinant: det(A) = det(D A) / D^size, with D A reduced by _eliminate."""
        d, (rows,) = _scaled_rows(self)
        size = self.size
        sign, pivot = _eliminate([[row.get(c, 0) for c in range(size)] for row in rows], size)
        return Fraction(sign * pivot, d**size)

    def inverse(self) -> "Operator":
        """Exact inverse; raises ValueError on singular input.

        _eliminate turns [D A | I] into [p I | p (D A)^-1] for its last
        pivot p, so A^-1 = D (D A)^-1 is the right half times D / p.
        """
        d, (rows,) = _scaled_rows(self)
        size = self.size
        m = [[row.get(c, 0) for c in range(size)] + [int(i == j) for j in range(size)]
             for i, row in enumerate(rows)]
        _, pivot = _eliminate(m, size)
        if not pivot:
            raise ValueError("matrix is singular, cannot invert")
        inv = tuple({c: Fraction(d * v, pivot) for c, v in enumerate(row[size:]) if v} for row in m)
        return Operator._wrap(self.n, self.arity, inv)


def _eliminate(m: list[list[int]], size: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the int rows ``m``, in place.

    The first ``size`` columns are the square matrix M; any further columns
    ride along.  Every step divides exactly by the previous pivot, which
    keeps the integers the size of minors of M instead of letting them grow
    with each step.  Returns (sign, p): det M = sign p, and the last pivot p
    is the common diagonal entry of the reduced left block, so the further
    columns end as p M^-1 times what they held.  p is 0 when M is singular,
    and then ``m`` is left part reduced.  Entries left of each pivot column
    are not updated once it is passed, and rows above a pivot never feed a
    later one, so they are reduced only when further columns ride along.
    """
    sign = prev = 1
    above = len(m[0]) > size
    for k in range(size):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return sign, 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        rk = m[k]
        pivot = rk[k]
        for i in range(0 if above else k + 1, size):
            if i != k:
                ri = m[i]
                mik = ri[k]
                for j in range(k + 1, len(rk)):
                    ri[j] = (ri[j] * pivot - mik * rk[j]) // prev
        prev = pivot
    return sign, prev


def identity(n: int, arity: int = 1) -> Operator:
    return Operator.identity(n, arity)


def zero(n: int, arity: int = 1) -> Operator:
    return Operator.zero(n, arity)


def permutation(n: int) -> Operator:
    """The flip P on V tensor V: P (x tensor y) = y tensor x."""
    n, _ = _space(n, 2)
    return Operator._wrap(n, 2, tuple({s: _ONE} for s in _swap_offsets(n)))


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor (Kronecker) product, leftmost factor most significant."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch in tensor product: {a.n} vs {b.n}")
    arity = a.arity + b.arity
    if arity > 3:
        raise ValueError(f"arity overflow: {a.arity} + {b.arity} exceeds the supported maximum 3")
    bsize = b.size
    rows = tuple(
        {ca * bsize + cb: va * vb for ca, va in arow.items() for cb, vb in brow.items()}
        for arow in a._rows
        for brow in b._rows
    )
    return Operator._wrap(a.n, arity, rows)


def embed(r: Operator, legs) -> Operator:
    """Place an arity-2 operator on two factors of V^(tensor 3).

    ``legs`` is the int 12, 13 or 23 or the same digits as an exact string;
    the remaining factor carries the identity.  For legs 13 the identity
    sits in the middle slot.  Like :func:`flip21`, every leg only reindexes
    r's rows by its placement table (see _placement); no entry is computed.
    Any other tag, a float, a bool or a string such as ``" 13 "`` or
    ``"012"`` among them, raises ValueError.
    """
    _placed_arity(r.arity, "12")  # an operand of another arity raises before a bad tag
    tag = {str(t): t for t in LEGS}.get(legs) if isinstance(legs, str) else legs
    if not (isinstance(tag, Integral) and not isinstance(tag, bool) and int(tag) in LEGS):
        raise ValueError(f"invalid leg tag {legs!r}; expected one of {LEGS}")
    return _reindexed(r, str(int(tag)))


def _swap_offsets(n: int) -> tuple[int, ...]:
    """The pair offset of (j, i) at the pair offset of (i, j): the flip P as an involution."""
    return tuple(j * n + i for i in range(n) for j in range(n))


# each placement: the arity of the operand it takes, the arity it makes, and
# who raises for an operand of another arity
_PLACEMENTS = {
    "12": (2, 3, "embed"),
    "13": (2, 3, "embed"),
    "23": (2, 3, "embed"),
    "21": (2, 2, "flip21"),
    "1": (1, 2, "a slot placement"),
    "2": (1, 2, "a slot placement"),
}


def _placed_arity(arity: int, place: str) -> int:
    """The arity ``place`` makes of an operand of ``arity``; ValueError if it takes another."""
    takes, makes, what = _PLACEMENTS[place]
    if arity != takes:
        raise ValueError(f"{what} expects an arity-{takes} operator")
    return makes


@lru_cache(maxsize=64)
def _placement(n: int, place: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The placement table of ``place`` on V, dim V = n: one (s, cols) per placed row, by offset.

    Placed row t is the operand's row s with each column c moved to
    cols[c]; no entry changes.  ``place`` is a leg 12, 13 or 23 of an
    arity-2 operand on V (x) V (x) V, with the identity on the free slot;
    its flip 21, r21 = P r P; or the slot 1 (m (x) I) or 2 (I (x) m) of an
    arity-1 operand on V (x) V.  "P" places the one-entry row {0: c} as
    c P.  Tables of one place share their cols tuples.
    """
    if place == "P":
        return tuple((0, (s,)) for s in _swap_offsets(n))
    if place == "21":
        swap = _swap_offsets(n)
        return tuple((s, swap) for s in swap)
    if place == "1":  # row (i, j) of m (x) I is row i of m, column k moved to (k, j)
        cols = [tuple(k * n + j for k in range(n)) for j in range(n)]
        return tuple((i, cols[j]) for i in range(n) for j in range(n))
    if place == "2":  # row (i, j) of I (x) m is row j of m, column k moved to (i, k)
        cols = [tuple(i * n + k for k in range(n)) for i in range(n)]
        return tuple((j, cols[i]) for i in range(n) for j in range(n))
    p = {"12": 1, "13": n, "23": n * n}[place]  # place value of the free slot
    # moved[a][x]: the arity-3 offset of pair offset x = (i, j) with a in the free slot
    moved = [tuple((x // p * n + a) * p + x % p for x in range(n * n)) for a in range(n)]
    table = [None] * n**3
    for cols in moved:
        for x, t in enumerate(cols):
            table[t] = (x, cols)
    return tuple(table)


def _reindexed(op: Operator, place: str) -> Operator:
    """``op`` placed by ``place`` (see _placement) as an Operator."""
    arity, rows = _placed_arity(op.arity, place), op._rows
    return Operator._wrap(op.n, arity, tuple({cols[c]: v for c, v in rows[s].items()}
                                            for s, cols in _placement(op.n, place)))


def _placed(rows, n: int, place: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The int ``rows`` of an operand on V placed by ``place``, as kernel pair rows (see _pairs).

    The caller checks the operand's arity (see _placed_arity).
    """
    # list comprehensions: faster than generators here, on the hot path of every arity-3 check
    return tuple([tuple([(cols[c], v) for c, v in rows[s].items()]) for s, cols in _placement(n, place)])


def flip21(r: Operator) -> Operator:
    """Conjugate an arity-2 operator by the flip: r21 = P r P.

    (r21)^{(i,j)}_{(k,l)} = r^{(j,i)}_{(l,k)}: both factors are swapped on
    both sides by reindexing (see _placement), no arithmetic needed.
    """
    return _reindexed(r, "21")


def _scaled_rows(*ops: Operator) -> tuple[int, list[list[dict[int, int]]]]:
    """D, the lcm of the denominators of every entry of ``ops``, and each op's rows times D, in ints."""
    rows = [op._rows for op in ops]
    d = lcm(*{v.denominator for op_rows in rows for row in op_rows for v in row.values()})
    return d, [[{c: v.numerator * (d // v.denominator) for c, v in row.items()} for row in op_rows]
               for op_rows in rows]


def _pairs(rows) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each int row ``{column: value}`` as a tuple of its (column, value) pairs, for _chain_sum."""
    return tuple(tuple(row.items()) for row in rows)


def _chain_sum(n: int, arity: int, d: int, terms) -> tuple[int, dict[int, dict[int, int]]]:
    """The exact sum of c A1 A2 ... Aj over ``terms`` as (S, rows): its int rows over one scale S.

    Each term is (c, factors): a rational c and a sequence of j factors, each
    given as the rows of D Ai for one common scale D = ``d`` (see
    _scaled_rows), every row a tuple of (column, int) pairs (see _pairs and
    _placed).  With E the lcm of the denominators of the c's and k the most
    factors in a term, the scaled identity

        E D^k (sum of c A1 ... Aj) = sum of (E c D^(k-j)) (D A1) ... (D Aj)

    has integer terms only, and S = E D^k.  The terms are split by length
    once per call, and row i of each is added, times its int multiplier
    E c D^(k-j), straight into a dense accumulator of the row's columns: a
    term of no factors adds on the diagonal, one of one factor adds A1's
    row, and one of two folds A1's row through A2 once.  A longer term folds
    its row through its leading factors into a dict, then fuses the last two
    folds, y through A(j-1) and on through Aj, when A(j-1) is rime-sparse:
    at most four entries a row on average, the rime row bound |{i, j}^2|.
    Fusion repeats the last fold on every path that collides in A(j-1), so
    any other A(j-1) is merged through the dict first.  The accumulator is
    one list, replaced only after a nonzero row, so a zero row costs one
    comparison with a list of zeros.  ``rows`` maps each nonzero row offset,
    ascending, to its nonzero entries ``{column: int}``, ascending; an
    identity that holds gives no rows.  No Fraction is made here: the
    reports make one for the largest entry and one for the witness, and
    _from_scaled makes the Operator where a caller needs one.
    """
    e = lcm(*(c.denominator for c, _ in terms))
    k = max(len(factors) for _, factors in terms)
    diagonal, ones, twos, longer = 0, [], [], []
    for c, factors in terms:
        c = c.numerator * (e // c.denominator) * d ** (k - len(factors))
        if not factors:
            diagonal += c
        elif len(factors) == 1:
            ones.append((c, factors[0]))
        elif len(factors) == 2:
            twos.append((c, *factors))
        else:
            mid = factors[-2]
            fused = sum(map(len, mid)) <= 4 * len(mid)
            longer.append((c, factors[0], factors[1:-2] if fused else factors[1:-1],
                           mid if fused else None, factors[-1]))
    size = n**arity
    rows = {}
    zeros = [0] * size
    acc = zeros.copy()
    for i in range(size):
        acc[i] += diagonal
        for c, f in ones:
            for j, w in f[i]:
                acc[j] += c * w
        for c, first, last in twos:
            for x, v in first[i]:
                v *= c
                for j, w in last[x]:
                    acc[j] += v * w
        for c, first, middle, mid, last in longer:
            row = first[i]
            for f in middle:
                nxt = {}
                for x, v in row:
                    for j, w in f[x]:
                        nxt[j] = nxt.get(j, 0) + v * w
                row = nxt.items()
            if mid is None:
                for x, v in row:
                    v *= c
                    for j, w in last[x]:
                        acc[j] += v * w
            else:
                for x, v in row:
                    v *= c
                    for y, u in mid[x]:
                        u *= v
                        for j, w in last[y]:
                            acc[j] += u * w
        # a row that sums to zero leaves the accumulator all zeros for the next row
        if acc != zeros:
            rows[i] = {j: v for j, v in enumerate(acc) if v}
            acc = zeros.copy()
    return e * d**k, rows


def _from_scaled(n: int, arity: int, scale: int, rows) -> Operator:
    """The Operator of a _chain_sum result: each int entry over ``scale``, as a Fraction."""
    out = [{} for _ in range(n**arity)]
    for i, row in rows.items():
        out[i] = {j: Fraction(v, scale) for j, v in row.items()}
    return Operator._wrap(n, arity, tuple(out))


def conjugate_pair(a: Operator, x: Operator) -> Operator:
    """Change of basis on both tensor factors: (X tensor X) a (X^-1 tensor X^-1).

    X tensor X = (X tensor I)(I tensor X), so the conjugate is one chain
    term of five factors that each act on a single tensor slot (see
    _placement), summed in ints by _chain_sum.  No n^2-by-n^2 Kronecker product is
    formed.  The equivalence checks state the same change of basis without
    X^-1; this is the one route that inverts X.
    """
    if a.arity != 2:
        raise ValueError("conjugate_pair expects an arity-2 operator")
    if x.arity != 1:
        raise ValueError("conjugate_pair expects an arity-1 basis-change matrix")
    if a.n != x.n:
        raise ValueError(f"dimension mismatch in conjugation: {a.n} vs {x.n}")
    n = a.n
    d, (xs, rows, inv) = _scaled_rows(x, a, x.inverse())
    chain = [_placed(xs, n, "1"), _placed(xs, n, "2"), _pairs(rows), _placed(inv, n, "1"), _placed(inv, n, "2")]
    return _from_scaled(n, 2, *_chain_sum(n, 2, d, [(1, chain)]))


def inverse(x: Operator) -> Operator:
    """Exact inverse; raises ValueError on singular input."""
    return x.inverse()
