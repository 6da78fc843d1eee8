"""Constructors for all the matrix families handled by this package.

Quantum side: rime solutions of the Yang-Baxter equation parameterized by a
coefficient grid beta_ij (itself derivable from a weight vector phi or, in
the skew-symmetric case, from a vector mu), and the two-parameter
Cremmer-Gervais solution.  Classical side: the r-matrices those solutions
quantize, their Cremmer-Gervais normal forms, and the change-of-basis matrix
X(phi) of elementary symmetric polynomials relating the two pictures.

All parameters are exact rationals; every constructor writes the rows of
an immutable :class:`~rimealg.core.Operator` directly.  Entries are
computed in ints: a weight vector is scaled by the lcm L of its
denominators (see _scaled), a scalar is read as its numerator and
denominator, and each stored entry is made by one ``Fraction(num, den)``.
The parameter-free normal forms classical_cg_r and boundary_b are built
once per n and shared, like every Operator.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .core import Operator, _space, as_rational

__all__ = [
    "RimeParams",
    "GeneralRimeData",
    "PhiVector",
    "MuVector",
    "FamilySpec",
    "FAMILY_TAGS",
    "rime_general",
    "beta_from_phi",
    "rime_from_beta",
    "unitary_beta",
    "cremmer_gervais",
    "x_matrix",
    "classical_rime_r",
    "classical_cg_r",
    "classical_unitary_r0",
    "boundary_b",
    "build",
    "describe",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
_FRACTION_TYPE = {Fraction}


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, [L v for v in values]) in ints, for L the lcm of the values' denominators."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _grid(n: int, rows) -> tuple[tuple[Fraction, ...], ...]:
    # a tuple of Fractions, as the constructors pass, is kept as it is
    data = tuple(row if row.__class__ is tuple and {*map(type, row)} == _FRACTION_TYPE
                 else tuple(map(as_rational, row)) for row in rows)
    if len(data) != n or any(len(row) != n for row in data):
        raise ValueError(f"expected an {n}x{n} coefficient grid")
    return data


def _broken_pair(grid, beta: Fraction) -> Optional[tuple[int, int]]:
    """The first pair i < j (0-based, row-major) whose beta_ij + beta_ji is not beta, or None.

    Each sum is compared by integer cross-multiplication: a/b + c/d = p/q
    exactly when (a d + c b) q = p b d.
    """
    p, q = beta.numerator, beta.denominator
    for i, row in enumerate(grid):
        for j in range(i + 1, len(grid)):
            x, y = row[j], grid[j][i]
            b, d = x.denominator, y.denominator
            if (x.numerator * d + y.numerator * b) * q != p * b * d:
                return i, j
    return None


def _require_zero_diagonal(grid, name: str) -> None:
    for i, row in enumerate(grid):
        if row[i]:
            raise ValueError(f"{name} must have zero diagonal, got {row[i]} at ({i + 1}, {i + 1})")


@dataclass(frozen=True)
class RimeParams:
    """Off-diagonal coefficients beta_ij together with their constant pair sum.

    The defining property of a consistent grid is that beta_ij + beta_ji is
    the same rational beta for every pair i != j; construction checks it
    unless ``check=False`` (used to build deliberately broken grids for
    diagnostics).
    """

    n: int
    beta_offdiag: tuple[tuple[Fraction, ...], ...]
    beta: Fraction
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        grid = _grid(self.n, self.beta_offdiag)
        object.__setattr__(self, "beta_offdiag", grid)
        object.__setattr__(self, "beta", as_rational(self.beta))
        _require_zero_diagonal(grid, "beta_offdiag")
        pair = _broken_pair(grid, self.beta) if check else None
        if pair is not None:
            i, j = pair
            raise ValueError(
                f"beta_{i + 1}{j + 1} + beta_{j + 1}{i + 1} = {grid[i][j] + grid[j][i]} "
                f"differs from beta = {self.beta}"
            )

    def entry(self, i: int, j: int) -> Fraction:
        """beta_ij, 1-based."""
        return self.beta_offdiag[i - 1][j - 1]


@dataclass(frozen=True)
class GeneralRimeData:
    """Free coefficients of the general rime form.

    ``alpha`` carries the diagonal values alpha_i at (i, i); ``beta``,
    ``gamma`` and ``gamma_prime`` must have zero diagonal.
    """

    n: int
    alpha: tuple[tuple[Fraction, ...], ...]
    beta: tuple[tuple[Fraction, ...], ...]
    gamma: tuple[tuple[Fraction, ...], ...]
    gamma_prime: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "gamma_prime"):
            object.__setattr__(self, name, _grid(self.n, getattr(self, name)))
        for name in ("beta", "gamma", "gamma_prime"):
            _require_zero_diagonal(getattr(self, name), name)


@dataclass(frozen=True)
class PhiVector:
    """Weight vector phi: pairwise distinct, hence at most one zero entry.

    The vector is *strict* when no entry is zero; the single-zero case is
    accepted but flagged, since the matrices it produces lose strictness.
    """

    phi: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(as_rational(v) for v in self.phi)
        object.__setattr__(self, "phi", values)
        if not values:
            raise ValueError("phi must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError(f"phi values must be pairwise distinct, got {values}")

    @property
    def n(self) -> int:
        return len(self.phi)

    @property
    def strict(self) -> bool:
        return all(self.phi)


@dataclass(frozen=True)
class MuVector:
    """Weight vector mu: pairwise distinct rationals (zeros allowed)."""

    mu: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(as_rational(v) for v in self.mu)
        object.__setattr__(self, "mu", values)
        if not values:
            raise ValueError("mu must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError(f"mu values must be pairwise distinct, got {values}")

    @property
    def n(self) -> int:
        return len(self.mu)


#: Family tags accepted by :class:`FamilySpec` and :func:`build`.
FAMILY_TAGS = (
    "rime-quantum",
    "rime-unitary",
    "cg",
    "classical-rime",
    "classical-cg",
    "classical-unitary",
    "boundary",
)

# parameters each family requires; everything else must stay unset
_REQUIRED = {
    "rime-quantum": ("beta", "phi"),
    "rime-unitary": ("mu",),
    "cg": ("q2inv", "p"),
    "classical-rime": ("phi",),
    "classical-cg": (),
    "classical-unitary": ("mu",),
    "boundary": (),
}

_OPTIONAL_FIELDS = ("beta", "phi", "mu", "q2inv", "p")


@dataclass(frozen=True)
class FamilySpec:
    """Tagged recipe naming a family and exactly the parameters it needs."""

    family: str
    n: int
    beta: Optional[Fraction] = None
    phi: Optional[tuple[Fraction, ...]] = None
    mu: Optional[tuple[Fraction, ...]] = None
    q2inv: Optional[Fraction] = None
    p: Optional[Fraction] = None

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILY_TAGS}")
        object.__setattr__(self, "n", _space(self.n, 2)[0])
        for name in ("beta", "q2inv", "p"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, as_rational(v))
        for name in ("phi", "mu"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(as_rational(x) for x in v))
        required = _REQUIRED[self.family]
        for name in _OPTIONAL_FIELDS:
            v = getattr(self, name)
            if name in required and v is None:
                raise ValueError(f"family {self.family!r} requires parameter {name!r}")
            if name not in required and v is not None:
                raise ValueError(f"family {self.family!r} does not take parameter {name!r}")
        for name in ("phi", "mu"):
            v = getattr(self, name)
            if v is not None and len(v) != self.n:
                raise ValueError(f"{name} has {len(v)} entries but n = {self.n}")


def rime_general(d: GeneralRimeData) -> Operator:
    """Matrix of the general rime form from its free coefficients.

    Row (i, j) holds alpha_ij at column (j, i), beta_ij at (i, j), gamma_ij
    at (i, i) and gamma'_ij at (j, j); the diagonal rows (i, i) hold the
    single value alpha_i.  All other entries vanish, which is exactly the
    rime zero-pattern: columns draw their indices from {i, j}.  The four
    columns of a row are distinct, so each row is written as it stands.
    """
    n = d.n
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                cells = ((i * (n + 1), d.alpha[i][i]),)
            else:
                cells = ((j * n + i, d.alpha[i][j]), (i * n + j, d.beta[i][j]),
                         (i * (n + 1), d.gamma[i][j]), (j * (n + 1), d.gamma_prime[i][j]))
            rows.append({c: v for c, v in cells if v})
    return Operator._wrap(n, 2, tuple(rows))


def beta_from_phi(beta, phi: PhiVector) -> RimeParams:
    """beta_ij = beta * phi_i / (phi_i - phi_j); the pair sums then equal beta.

    With beta = p / q and w = L phi in ints, beta_ij = p w_i / (q (w_i - w_j)).
    """
    beta = as_rational(beta)
    p, q = beta.numerator, beta.denominator
    _, w = _scaled(phi.phi)
    grid = tuple(tuple(Fraction(p * wi, q * (wi - wj)) if i != j else _ZERO for j, wj in enumerate(w))
                 for i, wi in enumerate(w))
    return RimeParams(phi.n, grid, beta)


def unitary_beta(mu: MuVector) -> RimeParams:
    """Skew-symmetric grid beta0_ij = 1 / (mu_i - mu_j) = L / (w_i - w_j), w = L mu; scalar beta = 0."""
    scale, w = _scaled(mu.mu)
    grid = tuple(tuple(Fraction(scale, wi - wj) if i != j else _ZERO for j, wj in enumerate(w))
                 for i, wi in enumerate(w))
    return RimeParams(mu.n, grid, _ZERO)


def rime_from_beta(p: RimeParams) -> Operator:
    """Canonical rime solution built from a beta grid.

    It is the general rime form with alpha_i = 1, alpha_ij = 1 - beta_ji,
    beta_ij as given, gamma_ij = -beta_ij and gamma'_ij = beta_ji: row
    (i, j) holds 1 - beta_ji on the transposition column (j, i), beta_ij on
    (i, j), -beta_ij on (i, i) and beta_ji on (j, j).

    The four grids are n x n tuples of Fractions with zero diagonals by
    construction from the validated grid of ``p``, so the GeneralRimeData
    that carries them skips its __post_init__ (one object.__new__).
    """
    b = p.beta_offdiag
    transpose = tuple(zip(*b))
    alpha = tuple(tuple(_ONE if i == j else Fraction(v.denominator - v.numerator, v.denominator)
                        for j, v in enumerate(col)) for i, col in enumerate(transpose))
    gamma = tuple(tuple(Fraction(-v.numerator, v.denominator) if i != j else _ZERO
                        for j, v in enumerate(row)) for i, row in enumerate(b))
    data = object.__new__(GeneralRimeData)
    data.__dict__.update(n=p.n, alpha=alpha, beta=b, gamma=gamma, gamma_prime=transpose)
    return rime_general(data)


def cremmer_gervais(n: int, q2inv, p) -> Operator:
    """Two-parameter Cremmer-Gervais solution.

    The deformation parameter enters only through q^-2, so the interface
    takes that value directly as the rational ``q2inv``; the Hecke scalar is
    beta = 1 - q2inv.  ``p`` is the second (twist) parameter and appears
    through exact rational powers p^(i-j), hence both must be nonzero.

    Row (i, j) holds p^(i-j) at (j, i), times q2inv when i > j, and, for
    each s strictly between, from i up to j - 1 or from j + 1 up to i - 1,
    +-(1 - q2inv) p^(i-s) at (s, i + j - s): plus for s < j, minus for
    s > j.  Those columns are distinct, and each power p^m is taken once.
    """
    n, _ = _space(n, 2)
    q2inv = as_rational(q2inv)
    p = as_rational(p)
    if q2inv == 0 or p == 0:
        raise ValueError("cremmer_gervais needs nonzero q2inv and p")
    # by the exponent m = i - j of the head and m = i - s of the terms, -n < m < n;
    # with p = a / b and q2inv = g / h in ints, p^m = a^m / b^m and 1 - q2inv = c / h
    a, b = p.numerator, p.denominator
    g, h = q2inv.numerator, q2inv.denominator
    c = h - g
    powers = {m: (a**m, b**m) if m > 0 else (b**-m, a**-m) for m in range(1 - n, n)}
    head = {m: Fraction(g * u, h * v) if m > 0 else Fraction(u, v) for m, (u, v) in powers.items()}
    term = {m: Fraction(-c * u if m > 0 else c * u, h * v) for m, (u, v) in powers.items()}
    rows = []
    for i in range(n):
        for j in range(n):
            row = {j * n + i: head[i - j]}
            if c:
                for s in range(i, j) if i < j else range(j + 1, i):
                    row[s * n + i + j - s] = term[i - s]
            rows.append(row)
    return Operator._wrap(n, 2, tuple(rows))


def _elementary_all(values: Sequence[int]) -> list[int]:
    """Coefficients e_0..e_m of prod (1 + t*v), i.e. all elementary symmetric polynomials."""
    e = [1] + [0] * len(values)
    for v in values:
        for m in range(len(values), 0, -1):
            e[m] += v * e[m - 1]
    return e


def x_matrix(phi: PhiVector) -> Operator:
    """Change-of-basis matrix with X[k, j] = e_{j-1}(phi with phi_k omitted).

    Columns are graded by polynomial degree; the determinant is the
    Vandermonde-type product of differences prod_{j<k} (phi_j - phi_k), so
    distinct phi guarantee invertibility.

    Row k is prod_{i != k} (1 + t phi_i) = E(t) / (1 + t phi_k), with E the
    generating polynomial of e(phi), taken once: synthetic division gives
    c_0 = 1 and c_j = e_j - phi_k c_(j-1), so X costs O(n^2).  It runs in
    ints on w = L phi: e_j(w) = L^j e_j(phi), and C_j = L^j c_j satisfies
    C_j = e_j(w) - w_k C_(j-1), so X[k, j + 1] = C_j / L^j.
    """
    scale, w = _scaled(phi.phi)
    e = _elementary_all(w)
    powers = [scale**j for j in range(phi.n)]
    rows = []
    for v in w:
        row = {0: _ONE}
        c = 1
        for j in range(1, phi.n):
            c = e[j] - v * c
            if c:
                row[j] = Fraction(c, powers[j])
        rows.append(row)
    return Operator._wrap(phi.n, 1, tuple(rows))


def _pair_rows(w: Sequence[int], u: Sequence[int]) -> Operator:
    """The arity-2 operator whose row (a, b), a != b, holds u_b / d at (b, a),
    -u_b / d at (b, b), -u_a / d at (a, a) and u_a / d at (a, b), with
    d = w_b - w_a, for distinct ints w and nonzero ints u; the diagonal rows
    are zero.  Both classical rime r-matrices have this shape.

    Row (b, a) holds the same four values, since d changes sign: each pair
    a < b makes its four Fractions once for both rows.
    """
    n = len(w)
    rows = [{} for _ in range(n * n)]
    for a in range(n):
        for b in range(a + 1, n):
            d = w[b] - w[a]
            ub, mub, ua, mua = Fraction(u[b], d), Fraction(-u[b], d), Fraction(u[a], d), Fraction(-u[a], d)
            rows[a * n + b] = {b * n + a: ub, b * (n + 1): mub, a * (n + 1): mua, a * n + b: ua}
            rows[b * n + a] = {a * n + b: mua, a * (n + 1): ua, b * (n + 1): ub, b * n + a: mub}
    return Operator._wrap(n, 2, tuple(rows))


def classical_rime_r(phi: PhiVector) -> Operator:
    """Classical rime r-matrix of a strict weight vector.

    r = sum over ordered pairs i != j of
    (phi_j e^i_j - phi_i e^i_i) (x) (e^j_i - e^j_j) / (phi_j - phi_i).

    Of the two transpose-related orientations of this expression, this is
    the one whose nonzero entries follow the rime pattern (column indices
    drawn from the row pair) and that satisfies P Rhat = I + beta r against
    rime_from_beta(beta_from_phi(beta, phi)); its mirror satisfies the same
    identities with the two associative combinations swapped.
    """
    if not phi.strict:
        raise ValueError("classical_rime_r needs a strict phi (no zero entries)")
    # row (i, j): phi_j c at (j, i), -phi_j c at (j, j), -phi_i c at (i, i)
    # and phi_i c at (i, j), with c = 1 / (phi_j - phi_i); so u = w = L phi
    _, w = _scaled(phi.phi)
    return _pair_rows(w, w)


def classical_cg_r(n: int) -> Operator:
    """Cremmer-Gervais normal form of the classical rime r-matrix.

    It takes no parameter but n, so each n's operator is built once (for
    the 16 n used last) and shared.
    """
    return _classical_cg_r(_space(n, 2)[0])


@lru_cache(maxsize=16)
def _classical_cg_r(n: int) -> Operator:
    rows = [{} for _ in range(n * n)]
    for i in range(n):
        for j in range(i + 1, n):
            # the columns (i + s - 1, j - s + 1), 1-based, for s = 1 .. j - i
            cols = [(i + t) * n + j - t for t in range(j - i)]
            rows[j * n + i] = dict.fromkeys(cols, _ONE)
            rows[i * n + j] = dict.fromkeys(cols, _MINUS_ONE)
    return Operator._wrap(n, 2, tuple(rows))


def classical_unitary_r0(mu: MuVector) -> Operator:
    """Skew-symmetric classical r-matrix of a weight vector mu.

    r0 = sum_{i<j} (W^i_j wedge W^j_i) / (mu_i - mu_j) built on the
    column-type generators W^i_j = e^j_i - e^j_j (the transposes of the
    row-type Z^i_j = e^i_j - e^j_j).  This orientation is the rime-patterned
    one and the one satisfying P Rhat0 = I + r0 against the beta = 0
    solution rime_from_beta(unitary_beta(mu)).
    """
    # row (i, j): c at (j, i) and (i, j), -c at (j, j) and (i, i), with
    # c = 1 / (mu_j - mu_i) = L / (w_j - w_i) for w = L mu; so u = (L, ..., L)
    scale, w = _scaled(mu.mu)
    return _pair_rows(w, [scale] * mu.n)


def boundary_b(n: int) -> Operator:
    """Boundary solution b = sum_{i<j} sum_{k=1}^{j-i} e^i_{i+k} ^ e^j_{j-k+1}.

    The orientation matches classical_unitary_r0: conjugating b by the
    basis-change matrix of the mu weights reproduces r0 entrywise.  Like
    classical_cg_r, each n's operator is built once and shared.
    """
    return _boundary_b(_space(n, 2)[0])


@lru_cache(maxsize=16)
def _boundary_b(n: int) -> Operator:
    rows = [{} for _ in range(n * n)]
    for i in range(n):
        for j in range(i + 1, n):
            # row (i, j): +1 at (i + k, j - k + 1), 1-based, for k = 1 .. j - i;
            # row (j, i): -1 at the mirror columns (j - k + 1, i + k)
            rows[i * n + j] = dict.fromkeys(((i + 1 + t) * n + j - t for t in range(j - i)), _ONE)
            rows[j * n + i] = dict.fromkeys(((j - t) * n + i + 1 + t for t in range(j - i)),
                                            _MINUS_ONE)
    return Operator._wrap(n, 2, tuple(rows))


def describe(spec: FamilySpec) -> dict[str, str]:
    """Flatten a FamilySpec to canonical strings (for reports and documents)."""
    meta = {"family": spec.family, "n": str(spec.n)}
    for name in ("beta", "q2inv", "p"):
        v = getattr(spec, name)
        if v is not None:
            meta[name] = str(v)
    for name in ("phi", "mu"):
        v = getattr(spec, name)
        if v is not None:
            meta[name] = ",".join(str(x) for x in v)
    return meta


def build(spec: FamilySpec) -> Operator:
    """Dispatch a FamilySpec to its constructor."""
    tag = spec.family
    if tag == "rime-quantum":
        op = rime_from_beta(beta_from_phi(spec.beta, PhiVector(spec.phi)))
    elif tag == "rime-unitary":
        op = rime_from_beta(unitary_beta(MuVector(spec.mu)))
    elif tag == "cg":
        op = cremmer_gervais(spec.n, spec.q2inv, spec.p)
    elif tag == "classical-rime":
        op = classical_rime_r(PhiVector(spec.phi))
    elif tag == "classical-cg":
        op = classical_cg_r(spec.n)
    elif tag == "classical-unitary":
        op = classical_unitary_r0(MuVector(spec.mu))
    else:
        op = boundary_b(spec.n)
    return op
