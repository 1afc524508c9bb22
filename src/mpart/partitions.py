"""m-ary partitions: value type, brute-force enumeration, gap-free predicate.

The enumerations here are the ground-truth oracles for the counting
formulas: they walk every choice of part multiplicities directly, with no
shared structure with the summation or polynomial methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budgets import enum_budget
from .radix import to_base
from . import kernels


@dataclass(frozen=True)
class MaryPartition:
    """Partition of a positive integer into powers of m, as multiplicities.

    ``mults[i]`` is the number of parts equal to ``m**i`` (lowest exponent
    first); canonical form has a nonzero top entry.
    """

    m: int
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"base must be >= 2, got {self.m}")
        if not self.mults:
            raise ValueError("multiplicity vector must not be empty")
        for lam in self.mults:
            if lam < 0:
                raise ValueError(f"negative multiplicity {lam}")
        if self.mults[-1] == 0:
            raise ValueError("top multiplicity must be nonzero in canonical form")

    @property
    def top_exponent(self) -> int:
        return len(self.mults) - 1

    def msb_first(self) -> tuple[int, ...]:
        """Multiplicities in display order, largest exponent first."""
        return tuple(reversed(self.mults))

    def padded_msb_first(self, j: int) -> tuple[int, ...]:
        """Display order padded with zeros up to exponent j."""
        padded = self.mults + (0,) * (j + 1 - len(self.mults))
        return tuple(reversed(padded))


def weight(p: MaryPartition) -> int:
    """The integer the partition sums to."""
    total = 0
    for lam in reversed(p.mults):
        total = total * p.m + lam
    return total


def is_gap_free(p: MaryPartition) -> bool:
    """True iff every power below the largest part also occurs as a part."""
    return all(lam > 0 for lam in p.mults)


def _canonical(m: int, mults: list[int]) -> MaryPartition:
    top = len(mults) - 1
    while top > 0 and mults[top] == 0:
        top -= 1
    return MaryPartition(m, tuple(mults[: top + 1]))


def enumerate_b(m: int, n: int, budget: int | None = None) -> list[MaryPartition]:
    """All m-ary partitions of n, in descending lexicographic order on the
    multiplicity tuple read largest exponent first (padded to the top
    exponent of n).

    Raises EnumerationBudgetExceeded before the walk when b(m, n) exceeds
    the budget, as counted by its own walk without materializing
    (``kernels.walk_partitions``, whose leaves are exactly the partitions
    materialized here); formula-based counting should be used instead.
    """
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    kernels.walk_partitions(m, n, enum_budget(budget))
    j = to_base(m, n).j
    powers = [m**t for t in range(j + 1)]
    mults = [0] * (j + 1)
    out: list[MaryPartition] = []

    def walk(t: int, rem: int) -> None:
        if t == 0:
            mults[0] = rem
            out.append(_canonical(m, mults))
            return
        for lam in range(rem // powers[t], -1, -1):
            mults[t] = lam
            walk(t - 1, rem - lam * powers[t])
        mults[t] = 0

    walk(j, n)
    return out


def enumerate_c(m: int, n: int, budget: int | None = None) -> list[MaryPartition]:
    """The gap-free subset of enumerate_b(m, n), in the same order.

    Generated directly: once a top part m**t is chosen, every lower
    exponent must keep multiplicity >= 1, which prunes the choice of each
    multiplicity to a feasible range and leaves no dead branches.

    Raises EnumerationBudgetExceeded before the walk when c(m, n) exceeds
    the budget, as counted by its own walk without materializing
    (``kernels.walk_gapfree``, whose leaves are exactly the partitions
    materialized here).
    """
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    kernels.walk_gapfree(m, n, enum_budget(budget))
    j = to_base(m, n).j
    powers = [m**t for t in range(j + 1)]
    # need[t]: cheapest way to keep exponents 0..t-1 all present
    need = [(powers[t] - 1) // (m - 1) for t in range(j + 1)]
    mults = [0] * (j + 1)
    out: list[MaryPartition] = []

    def walk(t: int, rem: int, started: bool) -> None:
        if t == 0:
            # No leaf has a gap at exponent 0: once started, t = 1 takes
            # lambda_1 <= (rem - need[1]) // m, which leaves rem >= 1 ones;
            # before that, rem = n >= 1.
            mults[0] = rem
            out.append(_canonical(m, mults))
            return
        hi = (rem - need[t]) // powers[t]
        for lam in range(hi, 0, -1):
            mults[t] = lam
            walk(t - 1, rem - lam * powers[t], True)
        mults[t] = 0
        if not started:
            walk(t - 1, rem, False)

    walk(j, n, False)
    return out


def count_b_enum(m: int, n: int, budget: int | None = None) -> int:
    """|enumerate_b(m, n)| computed by the same multiplicity walk without
    materializing the partitions (``kernels.walk_partitions``), which
    refuses in O(1) when n//m + 1 already exceeds the budget and otherwise
    stops as soon as its count passes it.  1 at n = 0 for the empty
    partition."""
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    return kernels.walk_partitions(m, n, enum_budget(budget))


def count_c_enum(m: int, n: int, budget: int | None = None) -> int:
    """|enumerate_c(m, n)| by the pruned gap-free walk without
    materializing (``kernels.walk_gapfree``), which refuses in O(1) when
    (n-1)//m + 1 already exceeds the budget.  1 at n = 0 for the empty
    partition."""
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    return kernels.walk_gapfree(m, n, enum_budget(budget))
