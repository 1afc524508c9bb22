"""Digit subtraction between a number and its m-ary partitions.

Subtracting a partition's multiplicity vector from the base-m digits of n
componentwise, carrying upper differences down with factor m, yields a
sequence (beta_j, ..., beta_1) whose entries obey the chained bounds

    0 <= beta_j <= alpha_j,   0 <= beta_t <= alpha_t + m*beta_{t+1},

and this map is a bijection from the partitions of n onto all sequences
satisfying the bounds.  Counting m-ary partitions thereby reduces to
counting lattice points of the chained inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, enum_budget, shown
from .partitions import MaryPartition, weight
from .radix import to_base
from . import kernels


@dataclass(frozen=True)
class BetaSeq:
    """A candidate sequence (beta_1, ..., beta_j) for n in base m.

    ``betas[t-1]`` holds beta_t; there is no beta_0, so the sequence is
    empty for n < m.  Whether the chained bounds hold is checked by
    is_member, not at construction.
    """

    m: int
    n: int
    betas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        j = to_base(self.m, self.n).j
        if len(self.betas) != j:
            raise ValueError(
                f"expected {j} entries for n={self.n} in base {self.m}, "
                f"got {len(self.betas)}"
            )

    def msb_first(self) -> tuple[int, ...]:
        """Entries in display order (beta_j, ..., beta_1)."""
        return tuple(reversed(self.betas))


def phi(p: MaryPartition, n: int) -> BetaSeq:
    """Subtract the partition from the digit vector of n.

    beta_i = sum_{k=i}^{j} m**(k-i) * (alpha_k - lambda_k), evaluated by
    the downward recurrence beta_j = alpha_j - lambda_j,
    beta_t = alpha_t - lambda_t + m*beta_{t+1}.
    """
    if weight(p) != n:
        raise ValueError(f"partition sums to {weight(p)}, not {n}")
    alpha = to_base(p.m, n).digits
    j = len(alpha) - 1
    lam = p.mults + (0,) * (j + 1 - len(p.mults))
    betas = [0] * j
    if j > 0:
        betas[j - 1] = alpha[j] - lam[j]
        for t in range(j - 1, 0, -1):
            betas[t - 1] = alpha[t] - lam[t] + p.m * betas[t]
    return BetaSeq(p.m, n, tuple(betas))


def phi_inv(b: BetaSeq) -> MaryPartition:
    """Invert phi: rebuild the multiplicities and strip top zeros."""
    if not is_member(b):
        raise ValueError("sequence violates its chained bounds")
    alpha = to_base(b.m, b.n).digits
    j = len(alpha) - 1
    lam = [0] * (j + 1)
    if j == 0:
        lam[0] = alpha[0]
    else:
        lam[j] = alpha[j] - b.betas[j - 1]
        for t in range(j - 1, 0, -1):
            lam[t] = alpha[t] - b.betas[t - 1] + b.m * b.betas[t]
        lam[0] = alpha[0] + b.m * b.betas[0]
    return MaryPartition.from_mults(b.m, lam)


def is_member(b: BetaSeq) -> bool:
    """True iff the chained bounds hold for every entry."""
    alpha = to_base(b.m, b.n).digits
    j = len(alpha) - 1
    if j == 0:
        return True
    if not 0 <= b.betas[j - 1] <= alpha[j]:
        return False
    for t in range(j - 1, 0, -1):
        if not 0 <= b.betas[t - 1] <= alpha[t] + b.m * b.betas[t]:
            return False
    return True


def enumerate_members(m: int, n: int, budget: int | None = None) -> list[BetaSeq]:
    """Every sequence satisfying the chained bounds, in ascending
    lexicographic order on (beta_j, ..., beta_1), by bounded nested loops.

    The budget is checked before any sequence is built by the nested-sum
    walker (``kernels.nested_sum_b``), which counts the sequences without
    materializing them, so the check borrows nothing from the formulas the
    sequences are checked against; a second walk then builds them at its
    leaves."""
    j = to_base(m, n).j
    cap = enum_budget(budget)
    try:
        kernels.nested_sum_b(m, n, cap)
    except LoopBudgetExceeded:
        raise EnumerationBudgetExceeded(
            f"more than {shown(cap)} sequences for n={shown(n)} in base {shown(m)}") from None
    out: list[BetaSeq] = []
    kernels.nested_sum_b(m, n, cap, lambda ks: out.append(BetaSeq(m, n, tuple(ks[:j]))))
    return out
