"""Oracle helpers that only the tests use.

Matrix units, the wedge product, the generators Z^i_j, the transpose, the
characteristic polynomial and the sum of a table of chain terms, each a
plain function over the public :class:`~rimealg.core.Operator` API (items,
``@``, ``+``, ``kron``, ``embed``).  The tests build expected values from
them the way the paper writes its formulas; no check of the package calls
them.

The ``*_items`` functions build each family as a list of
``(row, column, value)`` terms summed by ``Operator.from_items``, with
1-based multi-indices, the way the families are written as sums of
elementary terms.  The package's constructors write their rows directly
and are tested against them.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from rimealg.core import LEGS, Operator, embed, flip21, identity, kron, permutation


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


def chain_table(r: Operator, table) -> Operator:
    """The sum of c F1 ... Fj over the terms (c, factors) of an identity table.

    A factor is a leg 12, 13 or 23 of r, r itself ("r"), its flip "r21" or
    the flip "P"; a term with no factors is c I.  The sum acts on
    V (x) V (x) V when a term uses a leg, and on r's own space otherwise.
    """
    uses_legs = any(name in LEGS for _, names in table for name in names)
    n, arity = r.n, 3 if uses_legs else r.arity
    named = {"r": lambda: r, "r21": lambda: flip21(r), "P": lambda: permutation(n)}
    total = Operator.zero(n, arity)
    for c, names in table:
        term = identity(n, arity)
        for name in names:
            term = term @ (embed(r, name) if name in LEGS else named[name]())
        total = total + c * term
    return total


# -- item-list constructors ----------------------------------------------------------


def _tensor_items(left, right, coeff):
    """Items of coeff * (left (x) right) for arity-1 factors given as (row, col, value) terms."""
    return [((a, c), (b, d), coeff * u * v) for a, b, u in left for c, d, v in right]


def rime_general_items(d) -> Operator:
    """alpha_ij at (j, i), beta_ij at (i, j), gamma_ij at (i, i), gamma'_ij at (j, j); alpha_i at (i, i)."""
    n = d.n
    items = []
    for i in range(1, n + 1):
        items.append(((i, i), (i, i), d.alpha[i - 1][i - 1]))
        for j in range(1, n + 1):
            if j == i:
                continue
            items.append(((i, j), (j, i), d.alpha[i - 1][j - 1]))
            items.append(((i, j), (i, j), d.beta[i - 1][j - 1]))
            items.append(((i, j), (i, i), d.gamma[i - 1][j - 1]))
            items.append(((i, j), (j, j), d.gamma_prime[i - 1][j - 1]))
    return Operator.from_items(n, 2, items)


def cremmer_gervais_items(n: int, q2inv, p) -> Operator:
    """The Cremmer-Gervais solution for nonzero rationals q2inv and p."""
    q2inv, p = Fraction(q2inv), Fraction(p)
    coeff = 1 - q2inv
    items = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            items.append(((i, j), (j, i), (q2inv if i > j else 1) * p ** (i - j)))
            for s in range(i, j):
                items.append(((i, j), (s, i + j - s), coeff * p ** (i - s)))
            for s in range(j + 1, i):
                items.append(((i, j), (s, i + j - s), -coeff * p ** (i - s)))
    return Operator.from_items(n, 2, items)


def x_matrix_items(phi) -> Operator:
    """X[k, j] = e_{j-1}(phi with phi_k omitted), each e_m summed over m-subsets."""
    values, n = phi.phi, phi.n
    items = []
    for k in range(1, n + 1):
        rest = values[: k - 1] + values[k:]
        for j in range(1, n + 1):
            e = sum((prod(c, start=Fraction(1)) for c in combinations(rest, j - 1)), Fraction(0))
            items.append(((k,), (j,), e))
    return Operator.from_items(n, 1, items)


def x_matrix_per_row(phi) -> Operator:
    """X[k, j] = e_{j-1}(phi with phi_k omitted), the e_m of each row from its own product.

    Each row multiplies out prod_{i != k} (1 + t phi_i) one factor at a time,
    so X costs O(n^3).
    """
    values, n = phi.phi, phi.n
    rows = []
    for k in range(n):
        e = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for v in values[:k] + values[k + 1:]:
            for m in range(n - 1, 0, -1):
                e[m] += v * e[m - 1]
        rows.append(e)
    return Operator(n, 1, rows)


def classical_rime_r_items(phi) -> Operator:
    """Sum over i != j of (phi_j e^i_j - phi_i e^i_i) (x) (e^j_i - e^j_j) / (phi_j - phi_i)."""
    values, n = phi.phi, phi.n
    items = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                c = Fraction(1) / (values[j - 1] - values[i - 1])
                left = [(i, j, values[j - 1]), (i, i, -values[i - 1])]
                right = [(j, i, 1), (j, j, -1)]
                items += _tensor_items(left, right, c)
    return Operator.from_items(n, 2, items)


def classical_cg_r_items(n: int) -> Operator:
    """+1 in row (j, i) and -1 in row (i, j) at each (i + s - 1, j - s + 1), i < j, s = 1..j-i."""
    items = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for s in range(1, j - i + 1):
                items.append(((j, i), (i + s - 1, j - s + 1), 1))
                items.append(((i, j), (i + s - 1, j - s + 1), -1))
    return Operator.from_items(n, 2, items)


def classical_unitary_r0_items(mu) -> Operator:
    """Sum over i < j of (W^i_j wedge W^j_i) / (mu_i - mu_j), W^i_j = e^j_i - e^j_j."""
    values, n = mu.mu, mu.n
    items = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = Fraction(1) / (values[i - 1] - values[j - 1])
            wij = [(j, i, 1), (j, j, -1)]
            wji = [(i, j, 1), (i, i, -1)]
            items += _tensor_items(wij, wji, c) + _tensor_items(wji, wij, -c)
    return Operator.from_items(n, 2, items)


def boundary_b_items(n: int) -> Operator:
    """Sum over i < j and k = 1..j-i of e^i_{i+k} wedge e^j_{j-k+1}, as items."""
    items = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, j - i + 1):
                items.append(((i, j), (i + k, j - k + 1), 1))
                items.append(((j, i), (j - k + 1, i + k), -1))
    return Operator.from_items(n, 2, items)
