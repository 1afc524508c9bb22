"""Integer-valued polynomials in the binomial (Newton) basis.

A coefficient vector (c_0, ..., c_d) represents p(x) = sum_i c_i * C(x, i).
Polynomials with integer coefficients in this basis take integer values at
every integer x, and the three operations needed to evaluate chained
lattice-point sums -- prefix sums, affine substitution of the argument, and
bounded range sums -- all stay in exact integer arithmetic:

  * prefix sums are a coefficient shift, by C(0, i) + ... + C(N, i) = C(N+1, i+1);
  * affine substitution x -> a*k + b is a shift by b (``_shift``, at most
    d passes over the coefficients at any b) followed by a scaling x -> a*k
    through a table of small integers, one per stride a, holding the
    coefficients of C(a*k, i) in the basis C(k, l);
  * a range sum is a difference of two prefix-sum evaluations.

Each of these maps is linear in the coefficients.  Their transposes act on
covectors, plain lists w paired with coefficients as w . p = sum_i w_i *
c_i: evaluation at x is the covector (C(x, i))_i, and the transposed
prefix sum and substitution carry a covector from one level down to the
level below, the substitution through the rows of the same stride table
and the same shift, reversed.
"""

from __future__ import annotations

import functools
from operator import mul

from ._frozen import Frozen

# Strides whose scaling tables are kept (``_scaling_table``); a process
# counts at one stride per base.
SCALING_TABLES = 64


class IntPolynomial(Frozen):
    """coeffs[i] multiplies C(x, i); canonical form has no trailing zero
    coefficient (the zero polynomial is the single coefficient (0,))."""

    _fields = ("coeffs",)
    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> IntPolynomial:
        if not coeffs:
            raise ValueError("coefficient vector must not be empty")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValueError("top coefficient must be nonzero in canonical form")
        return cls.unchecked(coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> IntPolynomial:
        """Build a polynomial, stripping trailing zero coefficients."""
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls.unchecked(tuple(c) if c else (0,))

    @property
    def degree(self) -> int:
        """Formal degree; the zero polynomial degenerates to 0."""
        return len(self.coeffs) - 1

    def eval(self, x: int) -> int:
        """Exact value sum_i coeffs[i] * C(x, i) at any integer x."""
        return sum(map(mul, self.coeffs, evaluation_covector(x, len(self.coeffs) - 1)))

    def prefix_sum(self) -> IntPolynomial:
        """The polynomial q with q(N) = sum_{x=0}^{N} p(x); q(-1) = 0.

        C(x, i) summed over x = 0..N gives C(N+1, i+1), and rebasing from
        N+1 to N splits it as C(N, i+1) + C(N, i); so coefficient c_i of p
        contributes c_i to both coefficients i and i+1 of q.
        """
        out = [0] * (len(self.coeffs) + 1)
        for i, c in enumerate(self.coeffs):
            out[i] += c
            out[i + 1] += c
        return IntPolynomial.from_coeffs(out)

    def compose_affine(self, a: int, b: int) -> IntPolynomial:
        """The polynomial r with r(k) = p(a*k + b), exactly.

        First the shift q(y) = p(y + b) (``_shift``).  Then the scaling
        r(k) = q(a*k): C(a*k, i) = sum_l T[l][i] * C(k, l) with T[l][i] =
        [x^i] ((1+x)^a - 1)^l, so r_l = sum_i q_i * T[l][i], one dot product
        per coefficient against the cached columns of T.
        """
        d = len(self.coeffs) - 1
        columns, _ = _grown_scaling_table(a, d)
        c = _shift(self.coeffs, b)
        return IntPolynomial.from_coeffs(
            [sum(map(mul, c[l:], columns[l])) for l in range(d + 1)]
        )

    def sum_range(self, lo: int, hi: int) -> int:
        """sum_{x=lo}^{hi} p(x) with lo in {0, 1}; hi = lo - 1 is the empty sum."""
        if lo not in (0, 1):
            raise ValueError(f"lower bound must be 0 or 1, got {lo}")
        if hi < lo - 1:
            raise ValueError(f"range [{lo}, {hi}] is below the structurally empty range")
        q = self.prefix_sum()
        return q.eval(hi) - q.eval(lo - 1)


def evaluation_covector(x: int, d: int) -> list[int]:
    """The covector (C(x, 0), ..., C(x, d)), whose dot product with the
    coefficients of any p of degree <= d is p(x)."""
    w = [1]
    for i in range(1, d + 1):
        w.append(w[-1] * (x - i + 1) // i)
    return w


def prefix_sum_transposed(w: list[int]) -> list[int]:
    """The transpose of ``IntPolynomial.prefix_sum``: for a covector w of
    length d + 2, the covector v with v . p = w . p.prefix_sum() for every
    p of degree d.  Coefficient c_i of p feeds q_i and q_{i+1}, so
    v_i = w_i + w_{i+1}."""
    return [x + y for x, y in zip(w, w[1:])]


def compose_affine_transposed(w: list[int], a: int, b: int) -> list[int]:
    """The transpose of ``IntPolynomial.compose_affine``: for a covector w
    of length d + 1, the covector u with u . p = w . p.compose_affine(a, b)
    for every p of degree d.

    The scaling's transpose is one dot product per row of the stride
    table, u_i = sum_l T[l][i] * w_l over l = ceil(i/a) .. i.  Then the
    shift's: its matrix is Toeplitz, so its transpose is the same shift
    on the reversed covector (``_shift``), reversed back.
    """
    d = len(w) - 1
    _, rows = _grown_scaling_table(a, d)
    u = [sum(map(mul, w[-(-i // a):], rows[i])) for i in range(d + 1)]
    return _shift(u[::-1], b)[::-1]


def _shift(c, b: int) -> list[int]:
    """The coefficients of p(x + b) from those c_0 .. c_d of p, as a new list:
    c'_l = sum_k C(b, k) * c_{l+k} (Vandermonde), for either sign of b.
    Delta^(d+1) p = 0 bounds the taps, so one pass of the generalized
    binomials C(b, 0..d), about d^2/2 multiply-adds, is exact at any b.  A
    unit pass of Pascal's rule is d additions (forward, c_l += c_{l+1}
    bottom up; back, undone top down), so |b| <= d takes |b| of those: the
    two cost the same near |b| = d, and below it the taps cost more."""
    d = len(c) - 1
    if abs(b) > d:
        taps = evaluation_covector(b, d)
        return [sum(map(mul, c[l:], taps)) for l in range(d + 1)]
    c = list(c)
    for _ in range(b):
        for l in range(d):
            c[l] += c[l + 1]
    for _ in range(-b):
        for l in range(d - 1, -1, -1):
            c[l] -= c[l + 1]
    return c


@functools.lru_cache(maxsize=SCALING_TABLES)
def _scaling_table(a: int) -> tuple[list[list[int]], list[list[int]]]:
    """The stride-a table T as far as it has been grown, in two views that
    share their entries: column l lists T[l][i] for i = l .. min(D, a*l),
    and row i lists T[l][i] for l = ceil(i/a) .. i, D the largest degree
    requested so far (T[l][i] vanishes for i < l and for i > a*l).  Starts
    at degree 0; ``_grown_scaling_table`` grows both in place.  The tables
    of the SCALING_TABLES strides used last are kept; an evicted stride's
    table starts again at degree 0."""
    return [[1]], [[1]]


def _grown_scaling_table(a: int, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """The stride-a table, grown to degree d if it is not there yet; a
    stride a < 1 raises ValueError before any table is cached.

    Growing by one degree i appends T[l][i] to each column l < i that
    reaches i, from column l - 1 by ((1+x)^a - 1)^l =
    ((1+x)^a - 1)^(l-1) * sum_{s=1..a} C(a, s) x^s, and opens column i
    with T[i][i] = a**i; the same entries make up row i.
    """
    if a < 1:
        raise ValueError("stride a must be positive")
    columns, rows = _scaling_table(a)
    for i in range(len(columns), d + 1):
        weight = evaluation_covector(a, min(a, i))  # C(a, s), the s it reads
        row = []
        for l in range(-(-i // a), i):
            prev = columns[l - 1]  # T[l-1][x] sits at prev[x - l + 1]
            row.append(
                sum(weight[i - x] * prev[x - l + 1]
                    for x in range(max(l - 1, i - a), min(i - 1, a * (l - 1)) + 1))
            )
            columns[l].append(row[-1])
        row.append(a**i)
        columns.append([row[-1]])
        rows.append(row)
    return columns, rows
