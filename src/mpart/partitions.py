"""m-ary partitions: value type, brute-force enumeration, gap-free predicate.

The enumerations here are the ground-truth oracles for the counting
formulas: they walk every choice of part multiplicities directly, with no
shared structure with the summation or polynomial methods.  Each checks the
base first, then n, then its budget.  They visit the walk once per
innermost run (``visit_runs``) and build the run's partitions in one pass
with ``MaryPartition.unchecked``: the walk already gives the canonical
form, which ``MaryPartition(...)`` and ``from_mults`` still check.
"""

from __future__ import annotations

from ._frozen import Frozen
from .budgets import enum_budget
from .radix import to_base
from . import kernels


class MaryPartition(Frozen):
    """Partition of a positive integer into powers of m, as multiplicities.

    ``mults[i]`` is the number of parts equal to ``m**i`` (lowest exponent
    first); canonical form has a nonzero top entry.
    """

    __slots__ = ("m", "mults")

    def __new__(cls, m: int, mults: tuple[int, ...]) -> MaryPartition:
        if m < 2:
            raise ValueError(f"base must be >= 2, got {m}")
        if not mults:
            raise ValueError("multiplicity vector must not be empty")
        if min(mults) < 0:
            first = next(lam for lam in mults if lam < 0)
            raise ValueError(f"negative multiplicity {first}")
        if mults[-1] == 0:
            raise ValueError("top multiplicity must be nonzero in canonical form")
        return cls.unchecked(m, mults)

    @classmethod
    def from_mults(cls, m: int, mults) -> MaryPartition:
        """Build a partition, stripping zero multiplicities above the
        largest part (all but one where every entry is zero)."""
        if mults and mults[-1] == 0:
            top = len(mults) - 1
            while top > 0 and mults[top] == 0:
                top -= 1
            mults = mults[: top + 1]
        return cls(m, tuple(mults))

    def msb_first(self) -> tuple[int, ...]:
        """Multiplicities in display order, largest exponent first."""
        return tuple(reversed(self.mults))


def _value(m: int, vector) -> int:
    """sum(vector[t] * m**t): the weight of a multiplicity vector or the
    integer a digit vector spells."""
    total = 0
    for x in reversed(vector):
        total = total * m + x
    return total


def weight(p: MaryPartition) -> int:
    """The integer the partition sums to."""
    return _value(p.m, p.mults)


def is_gap_free(p: MaryPartition) -> bool:
    """True iff every power below the largest part also occurs as a part."""
    return all(lam > 0 for lam in p.mults)


def visit_runs(walk, m: int, n: int, visit) -> None:
    """visit(buffer, extent) at every innermost run of ``walk``, a kernels
    walker called as walk(m, n, cap[, visit]), in the walk's order.

    (m, n) is checked through ``to_base``, then n >= 1, then
    ``MPART_ENUM_BUDGET`` is read once as cap.  A first walk without a
    visitor counts against cap, so the walker raises its own budget error
    before any run is visited; a second walk of the same walker visits them.
    """
    to_base(m, n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cap = enum_budget()
    walk(m, n, cap)
    walk(m, n, cap, visit)


def enumerate_b(m: int, n: int) -> list[MaryPartition]:
    """All m-ary partitions of n, in descending lexicographic order on the
    multiplicity tuple read largest exponent first (padded to the top
    exponent of n): ``visit_runs`` over ``kernels.walk_partitions``, each
    run's partitions built in one pass.  A run fixes lambda_2, ...,
    lambda_j, so their canonical tail, stripped of zeros above the largest
    part, is cut once per run; where it is empty, lambda_1 is the top part
    while positive and lambda_0 alone after it.
    """
    out = []
    new = MaryPartition.unchecked

    def run(mults, rem):
        top = len(mults)
        while top > 2 and not mults[top - 1]:
            top -= 1
        above = tuple(mults[2:top])
        if above:
            out.extend([new(m, (rem - m * lam, lam) + above) for lam in range(rem // m, -1, -1)])
        else:
            out.extend([new(m, (rem - m * lam, lam)) for lam in range(rem // m, 0, -1)])
            out.append(new(m, (rem,)))

    visit_runs(kernels.walk_partitions, m, n, run)
    return out


def enumerate_c(m: int, n: int) -> list[MaryPartition]:
    """The gap-free subset of enumerate_b(m, n), in the same order:
    ``visit_runs`` over ``kernels.walk_gapfree``.

    The walk goes stratum by stratum: the partitions with largest part
    m**r are those of the rest into parts m**0..m**r with every
    multiplicity raised by one, so none is zero.  Largest part first, that
    is enumerate_b's order.
    """
    out = []
    new = MaryPartition.unchecked

    def run(mults, rem):
        if len(mults) == 1:  # stratum 0: the all-ones partition
            out.append(new(m, (rem + 1,)))
            return
        above = tuple([lam + 1 for lam in mults[2:]])
        out.extend([new(m, (rem - m * lam + 1, lam + 1) + above)
                    for lam in range(rem // m, -1, -1)])

    visit_runs(kernels.walk_gapfree, m, n, run)
    return out


def count_b_enum(m: int, n: int) -> int:
    """|enumerate_b(m, n)| computed by the same multiplicity walk without
    materializing the partitions (``kernels.walk_partitions``), which
    refuses in O(1) when n//m + 1 already exceeds ``MPART_ENUM_BUDGET`` and
    otherwise stops as soon as its count passes it.  At n = 0 the walk has
    one leaf, the empty partition, which it counts against the budget like
    any other."""
    to_base(m, n)
    return kernels.walk_partitions(m, n, enum_budget())


def count_c_enum(m: int, n: int) -> int:
    """|enumerate_c(m, n)| by the same strata of the multiplicity walk
    without materializing (``kernels.walk_gapfree``), which refuses in O(1)
    when (n-1)//m + 1 already exceeds ``MPART_ENUM_BUDGET``.  At n = 0 the
    walk has one leaf, the empty partition, counted against the budget like
    any other."""
    to_base(m, n)
    return kernels.walk_gapfree(m, n, enum_budget())
