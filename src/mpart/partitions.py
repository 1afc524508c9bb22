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

    @classmethod
    def from_mults(cls, m: int, mults) -> MaryPartition:
        """Build a partition, stripping zero multiplicities above the
        largest part (all but one where every entry is zero)."""
        top = len(mults) - 1
        while top > 0 and mults[top] == 0:
            top -= 1
        return cls(m, tuple(mults[: top + 1]))

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


def _materialise(m: int, n: int, top: int, lift: int, out: list[MaryPartition]) -> None:
    """Append every partition of n into parts m**0..m**top to out, each
    multiplicity raised by lift, in descending lexicographic order on the
    multiplicity tuple read largest exponent first."""
    powers = [m**t for t in range(top + 1)]
    mults = [lift] * (top + 1)

    def walk(t: int, rem: int) -> None:
        if t == 0:
            mults[0] = rem + lift
            out.append(MaryPartition.from_mults(m, mults))
            return
        # the loop ends at lam = 0, which leaves mults[t] = lift
        for lam in range(rem // powers[t], -1, -1):
            mults[t] = lam + lift
            walk(t - 1, rem - lam * powers[t])

    walk(top, n)


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
    out: list[MaryPartition] = []
    _materialise(m, n, to_base(m, n).j, 0, out)
    return out


def enumerate_c(m: int, n: int, budget: int | None = None) -> list[MaryPartition]:
    """The gap-free subset of enumerate_b(m, n), in the same order.

    Generated directly, stratum by stratum of ``kernels.gapfree_strata``:
    the partitions with largest part m**r are those of the rest into parts
    m**0..m**r with every multiplicity raised by one.  Largest part first,
    that is enumerate_b's order.

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
    out: list[MaryPartition] = []
    for r, rest in kernels.gapfree_strata(m, n):
        _materialise(m, rest, r, 1, out)
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
    """|enumerate_c(m, n)| by the same strata of the multiplicity walk
    without materializing (``kernels.walk_gapfree``), which refuses in O(1)
    when (n-1)//m + 1 already exceeds the budget.  1 at n = 0 for the empty
    partition."""
    if m < 2:
        raise ValueError(f"base must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    return kernels.walk_gapfree(m, n, enum_budget(budget))
