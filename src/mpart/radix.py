"""Base-m digit representations of nonnegative integers."""

from __future__ import annotations

from functools import lru_cache

from ._frozen import Frozen


class BaseRepr(Frozen):
    """Digit vector of an integer in base m, least-significant digit first.

    ``digits[i]`` is the coefficient of ``m**i``.  The top digit is nonzero,
    except that 0 is represented by the single digit ``(0,)``.
    """

    __slots__ = ("m", "digits")

    def __init__(self, m: int, digits: tuple[int, ...]) -> None:
        if m < 2:
            raise ValueError(f"base must be >= 2, got {m}")
        if not digits:
            raise ValueError("digit vector must not be empty")
        for d in digits:  # on small ints this loop beats min() and max() (CPython 3.11)
            if not 0 <= d < m:
                raise ValueError(f"digit {d} out of range [0, {m})")
        if len(digits) > 1 and digits[-1] == 0:
            raise ValueError("most significant digit must be nonzero")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "digits", digits)

    @property
    def j(self) -> int:
        """Index of the most significant digit."""
        return len(self.digits) - 1

    def msb_first(self) -> tuple[int, ...]:
        """Digits in display order, most significant first."""
        return tuple(reversed(self.digits))


@lru_cache(maxsize=256)
def to_base(m: int, n: int) -> BaseRepr:
    """Base-m digits of n (least significant first), cached for the 256
    (m, n) used last: nearly every reuse (a count, walk or enumeration gates
    (m, n), then reads its digits; without the cache the enumerate benchmark's
    median op took 5% longer) follows a call with the same key, and a large
    n's digits take kilobytes.  divmod's digits are canonical, so the
    ``BaseRepr`` is built unchecked."""
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    digits = []
    while True:
        n, d = divmod(n, m)
        digits.append(d)
        if n == 0:
            break
    return BaseRepr.unchecked(m, tuple(digits))


def consecutive_digits(m: int, ns: range, shift: int):
    """(digits, i) for each n of the consecutive range ``ns``, after (m,
    ns.start), the step and the shift have been checked at the call: the
    digits ``to_base`` gives x = m**shift * n (x = 0 the one digit 0 at any
    shift), and the index i of the highest digit that changed since the n
    before (the top one, for the first n).  The digits are one list, carried
    from place ``shift`` and rewritten in place, so a caller that keeps them
    copies them; where x reaches a power of m the list is a new one."""
    digits = to_base(m, ns.start).digits
    if ns.step != 1:
        raise ValueError(f"range step must be 1, got {ns.step}")
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    return _carried(m, ns, [0] * shift * (ns.start > 0) + list(digits), shift)


def _carried(m: int, ns: range, digits: list[int], shift: int):
    if ns:
        yield digits, len(digits) - 1
    for _ in ns[1:]:
        i = shift
        while i < len(digits) and digits[i] == m - 1:
            digits[i] = 0
            i += 1
        if i < len(digits):
            digits[i] += 1
        else:
            digits = [0] * i + [1]
        yield digits, i


def chi_vector(r: BaseRepr) -> tuple[int, ...]:
    """(chi_1, ..., chi_j) with chi_i = 0 where digit alpha_{i-1} is
    positive and 1 where it is zero; empty for single-digit numbers."""
    return tuple(0 if d > 0 else 1 for d in r.digits[:-1])
