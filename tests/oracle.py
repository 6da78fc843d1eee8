"""Oracle helpers that only the tests use.

Matrix units, the wedge product, the generators Z^i_j, the transpose and
the characteristic polynomial, each a plain function over the public
:class:`~rimealg.core.Operator` API (items, ``@``, ``+``, ``kron``).  The
tests build expected values from them the way the paper writes its
formulas; no check of the package calls them.
"""

from fractions import Fraction

from rimealg.core import Operator, kron


def matrix_unit(i: int, j: int, n: int) -> Operator:
    """The matrix unit e^i_j sending basis vector j to basis vector i (1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"matrix unit indices must lie in 1..{n}, got ({i}, {j})")
    return Operator.from_items(n, 1, [((i,), (j,), 1)])


def wedge(x: Operator, y: Operator) -> Operator:
    """x wedge y = x tensor y - y tensor x."""
    return kron(x, y) - kron(y, x)


def z_generator(i: int, j: int, n: int) -> Operator:
    """Z^i_j = e^i_j - e^j_j, for i != j; these close under multiplication."""
    return matrix_unit(i, j, n) - matrix_unit(j, j, n)


def transpose(a: Operator) -> Operator:
    """The transpose, entry by entry."""
    return Operator.from_items(a.n, a.arity, ((col, row, v) for row, col, v in a.nonzero_items()))


def charpoly(a: Operator) -> tuple[Fraction, ...]:
    """Coefficients (c0=1, c1, ..., cN) of det(x*I - A) = sum c_k x^(N-k).

    Faddeev-LeVerrier recursion; exact because the only divisions are by
    the integers 1..N.
    """
    eye = Operator.identity(a.n, a.arity)
    coeffs = [Fraction(1)]
    m = eye
    for k in range(1, a.size + 1):
        am = a @ m
        c = -am.trace() / k
        coeffs.append(c)
        m = am + c * eye
    return tuple(coeffs)
