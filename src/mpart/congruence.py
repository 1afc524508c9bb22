"""Residue predictions for partition counts at multiples of the base.

Appending a zero digit to n turns every level of the chained partition
count into a full residue cycle mod m, which collapses the counts of
b(m, m*n) and c(m, m*n) to digit expressions in the digits of n.  The
functions here evaluate those digit expressions; verifying them against
the counts is the job of the callers (CLI ``verify``/``congruence``).

Every check needs the count only modulo some M: m for the digit
expressions, 2**(3k+2) for ``churchhouse_check``.  Those counts come from
the residue route (``counting.count_b_residues``/``count_c_residues``,
over a block of consecutive n or a one-point block at a single n), whose
level loop is reduced mod M at every level, so they are the exact counts'
residues without the counts: the check stays independent of the digit
expressions and at a thousand digits costs milliseconds where the full
count would take hours.
"""

from __future__ import annotations

from math import prod

from . import counting
from ._frozen import Frozen
from .radix import BaseRepr, chi_vector


class Residue(Frozen):
    _fields = ("value", "modulus")
    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> Residue:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if not 0 <= value < modulus:
            raise ValueError(f"residue {value} not in [0, {modulus})")
        return cls.unchecked(value, modulus)


def _positive_digits(r: BaseRepr) -> tuple[int, ...]:
    """The digits of n >= 1; c(m, 0) = 1 lies outside the c residue forms."""
    if r.digits == (0,):
        raise ValueError("n must be positive, got 0")
    return r.digits


def b_mod_product(r: BaseRepr) -> Residue:
    """b(m, m*n) mod m as the digit product prod_i (alpha_i + 1)."""
    return Residue.unchecked(prod(d + 1 for d in r.digits) % r.m, r.m)


def c_mod_formula(r: BaseRepr) -> Residue:
    """c(m, m*n) mod m as
    alpha_0 + (alpha_0 - 1) * sum_i prod_{k<=i} (alpha_k - chi_k), for n >= 1."""
    alpha = _positive_digits(r)
    chi = chi_vector(r)
    total = 0
    term = 1
    for i in range(1, len(alpha)):
        term *= alpha[i] - chi[i - 1]
        total += term
    return Residue.unchecked((alpha[0] + (alpha[0] - 1) * total) % r.m, r.m)


def afs_c_mod(r: BaseRepr) -> Residue:
    """c(m, m*n) mod m in the lowest-nonzero-digit form.

    With ell the index of the lowest nonzero digit and
    T = sum_{i>ell} alpha_{ell+1} * ... * alpha_i (terms vanish past the
    top digit), the residue is alpha_ell + (alpha_ell - 1)*T for even ell
    and 1 - alpha_ell - (alpha_ell - 1)*T for odd ell.  Equivalent to
    c_mod_formula for every positive n.
    """
    alpha = _positive_digits(r)
    ell = next(i for i, d in enumerate(alpha) if d)
    tail = 0
    term = 1
    for i in range(ell + 1, len(alpha)):
        term *= alpha[i]
        tail += term
    a = alpha[ell]
    if ell % 2 == 0:
        value = a + (a - 1) * tail
    else:
        value = 1 - a - (a - 1) * tail
    return Residue.unchecked(value % r.m, r.m)


def churchhouse_check(k: int, n: int) -> tuple[bool, bool]:
    """Check the two classical congruences for the binary partition count:

        b(2, 4**(k+1) * n) == b(2, 4**k * n)      (mod 2**(3k+2))
        b(2, 2 * 4**k * n) == b(2, 4**k * n / 2)  (mod 2**(3k))

    from four counts mod 2**(3k+2), each the one-point block of
    ``counting.count_b_residues``, looked up at call time; 2**(3k) divides
    that modulus, so the second difference is reduced mod 2**(3k) as it
    stands.  The cost grows with the digit count 2k + log2(n), not with
    4**k * n, and the levels hold about 3k bits rather than the full counts.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    base = 4**k * n
    modulus = 2 ** (3 * k + 2)

    def b(x: int) -> int:
        [residue] = counting.count_b_residues(2, range(x, x + 1), modulus, 0)
        return residue

    first = (b(4 * base) - b(base)) % modulus == 0
    second = (b(2 * base) - b(base // 2)) % 2 ** (3 * k) == 0
    return first, second
