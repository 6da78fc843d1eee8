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


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-Integral (a float among them) raises TypeError."""
    if isinstance(value, Integral) and not isinstance(value, bool):  # numpy ints too
        return int(value)
    raise TypeError(f"{what} must be an integer, got {type(value).__name__}")


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
        n = _integer(n, "dimension")
        arity = _integer(arity, "arity")
        if arity not in (1, 2, 3):
            raise ValueError(f"arity must be 1, 2 or 3, got {arity}")
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
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
        return cls._wrap(n, arity, tuple({} for _ in range(n**arity)))

    @classmethod
    def identity(cls, n: int, arity: int) -> "Operator":
        return cls._wrap(n, arity, tuple({i: _ONE} for i in range(n**arity)))

    @classmethod
    def from_items(cls, n: int, arity: int, items) -> "Operator":
        """Accumulate ``(row_multi, col_multi, value)`` triples into an operator.

        Repeated positions add up, matching how the matrix families are
        written as sums of elementary terms.  Every multi-index must have
        ``arity`` components, else IndexError.
        """
        rows = [{} for _ in range(n**arity)]
        for row_multi, col_multi, value in items:
            if len(row_multi) != arity or len(col_multi) != arity:
                raise IndexError(f"multi-index must have {arity} components")
            row = rows[linear_index(row_multi, n)]
            c = linear_index(col_multi, n)
            row[c] = row.get(c, _ZERO) + as_rational(value)
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
        n, k = self.n, self.arity
        for r, row in enumerate(self._rows):
            for c in sorted(row):
                yield multi_index(r, n, k), multi_index(c, n, k), row[c]

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
        return sum((row.get(i, _ZERO) for i, row in enumerate(self._rows)), _ZERO)

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
    r's rows; no entry is computed.  Any other tag, a float, a bool or a
    string such as ``" 13 "`` or ``"012"`` among them, raises ValueError.
    """
    if r.arity != 2:
        raise ValueError("embed expects an arity-2 operator")
    n = r.n
    tag = {str(t): t for t in LEGS}.get(legs) if isinstance(legs, str) else legs
    p = None
    if isinstance(tag, Integral) and not isinstance(tag, bool):
        p = {12: 1, 13: n, 23: n * n}.get(int(tag))  # place value of the free slot
    if p is None:
        raise ValueError(f"invalid leg tag {legs!r}; expected one of {LEGS}")
    # place[a][x]: the arity-3 offset of pair offset x = (i, j) with a in the free slot
    place = [[(x // p * n + a) * p + x % p for x in range(n * n)] for a in range(n)]
    rows = [None] * n**3
    for x, row in enumerate(r._rows):
        for to in place:
            rows[to[x]] = {to[c]: v for c, v in row.items()}
    return Operator._wrap(n, 3, tuple(rows))


def _swap_offsets(n: int) -> list[int]:
    """The pair offset of (j, i) at the pair offset of (i, j): the flip P as an involution."""
    return [j * n + i for i in range(n) for j in range(n)]


def flip21(r: Operator) -> Operator:
    """Conjugate an arity-2 operator by the flip: r21 = P r P."""
    if r.arity != 2:
        raise ValueError("flip21 expects an arity-2 operator")
    n = r.n
    # (r21)^{(i,j)}_{(k,l)} = r^{(j,i)}_{(l,k)}: swap the two factors on both
    # sides by reindexing, no arithmetic needed.
    swap = _swap_offsets(n)
    rows = tuple({swap[c]: v for c, v in r._rows[swap[x]].items()} for x in range(n * n))
    return Operator._wrap(n, 2, rows)


def _scaled_rows(*ops: Operator) -> tuple[int, list[list[dict[int, int]]]]:
    """D, the lcm of the denominators of every entry of ``ops``, and each op's rows times D, in ints."""
    rows = [op._rows for op in ops]
    d = lcm(*{v.denominator for op_rows in rows for row in op_rows for v in row.values()})
    return d, [[{c: v.numerator * (d // v.denominator) for c, v in row.items()} for row in op_rows]
               for op_rows in rows]


def _chain_sum(n: int, arity: int, d: int, terms) -> Operator:
    """The exact operator sum of c A1 A2 ... Aj over ``terms``, one integer pass per row.

    Each term is (c, factors): a rational c and a sequence of j factors, each
    given as the int rows of D Ai for one common scale D = ``d`` (see
    _scaled_rows).  With E the lcm of the denominators of the c's and k the
    most factors in a term, the scaled identity

        E D^k (sum of c A1 ... Aj) = sum of (E c D^(k-j)) (D A1) ... (D Aj)

    has integer terms only, and the sum is its right side over E D^k.  Row i
    of a product is folded left to right, and the int multiplier E c D^(k-j)
    scales the last fold, which adds straight into the sum.  A term of fewer
    than two factors is padded with the identity on the left, so one with
    no factors reads as c I.  A Fraction is built only for the nonzero
    entries of the sum: none when it vanishes.
    """
    e = lcm(*(c.denominator for c, _ in terms))
    k = max(len(factors) for _, factors in terms)
    size = n**arity
    eye = [{i: 1} for i in range(size)] if any(len(fs) < 2 for _, fs in terms) else None
    # (int multiplier, factors padded to two or more) per term
    padded = [(c.numerator * (e // c.denominator) * d ** (k - len(factors)),
               (eye,) * (2 - len(factors)) + tuple(factors)) for c, factors in terms]
    plan = [(c, fs[0], fs[1:-1], fs[-1]) for c, fs in padded]
    scale = e * d**k
    out = []
    for i in range(size):
        acc = {}
        for c, first, middle, last in plan:
            row = first[i]
            for f in middle:
                nxt = {}
                for x, v in row.items():
                    if v:
                        for j, w in f[x].items():
                            nxt[j] = nxt.get(j, 0) + v * w
                row = nxt
            for x, v in row.items():
                if v:
                    v *= c
                    for j, w in last[x].items():
                        acc[j] = acc.get(j, 0) + v * w
        out.append({j: Fraction(v, scale) for j, v in acc.items() if v})
    return Operator._wrap(n, arity, tuple(out))


def conjugate_pair(a: Operator, x: Operator) -> Operator:
    """Change of basis on both tensor factors: (X tensor X) a (X^-1 tensor X^-1).

    X tensor X = (X tensor I)(I tensor X), so the conjugate is one chain of
    five factors that each act on a single tensor slot: row (i, j) of
    X tensor I is X's row i placed in slot 1, and of I tensor X X's row j
    placed in slot 2.  No n^2-by-n^2 Kronecker product is formed.
    """
    if a.arity != 2:
        raise ValueError("conjugate_pair expects an arity-2 operator")
    if x.arity != 1:
        raise ValueError("conjugate_pair expects an arity-1 basis-change matrix")
    if a.n != x.n:
        raise ValueError(f"dimension mismatch in conjugation: {a.n} vs {x.n}")
    n = a.n
    d, (xs, rows, inv) = _scaled_rows(x, a, x.inverse())

    def slots(m):  # m tensor I, then I tensor m, as int rows on pair offsets
        return ([{k * n + j: v for k, v in m[i].items()} for i in range(n) for j in range(n)],
                [{i * n + k: v for k, v in m[j].items()} for i in range(n) for j in range(n)])

    return _chain_sum(n, 2, d, [(1, (*slots(xs), rows, *slots(inv)))])


def inverse(x: Operator) -> Operator:
    """Exact inverse; raises ValueError on singular input."""
    return x.inverse()
