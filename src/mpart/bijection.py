"""Digit subtraction between a number and its m-ary partitions.

Subtracting a partition's multiplicity vector from the base-m digits of n
componentwise, carrying upper differences down with factor m, yields a
sequence (beta_j, ..., beta_1) whose entries obey the chained bounds

    0 <= beta_j <= alpha_j,   0 <= beta_t <= alpha_t + m*beta_{t+1},

and this map is a bijection from the partitions of n onto all sequences
satisfying the bounds.  Counting m-ary partitions thereby reduces to
counting lattice points of the chained inequalities.

phi, phi_inv and is_member run the one carry recurrence beta_t = alpha_t
- lambda_t + m*beta_{t+1}, beta_{j+1} = 0, solved for beta or for lambda.
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
    the downward carry recurrence beta_t = alpha_t - lambda_t +
    m*beta_{t+1} for t = j..1 from beta_{j+1} = 0; for n < m (j = 0) the
    loop is empty and so is the sequence.
    """
    if weight(p) != n:
        raise ValueError(f"partition sums to {weight(p)}, not {n}")
    alpha = to_base(p.m, n).digits
    j = len(alpha) - 1
    lam = p.mults + (0,) * (j + 1 - len(p.mults))
    betas = [0] * j  # betas[t-1] = beta_t
    beta = 0  # the carry beta_{t+1}, from beta_{j+1} = 0
    for t in range(j, 0, -1):
        beta = betas[t - 1] = alpha[t] - lam[t] + p.m * beta
    return BetaSeq(p.m, n, tuple(betas))


def _multiplicities(b: BetaSeq) -> list[int] | None:
    """The carry recurrence solved for lambda: lambda_t = alpha_t - beta_t
    + m*beta_{t+1} for t = j..0, with beta_{j+1} = beta_0 = 0, lowest
    exponent first; None at the first beta_t < 0 or lambda_t < 0.
    lambda_t >= 0 is the upper bound beta_t <= alpha_t + m*beta_{t+1}, so
    None means exactly that the chained bounds fail."""
    alpha = to_base(b.m, b.n).digits
    beta = (0, *b.betas, 0)  # beta[t] = beta_t for t = 0..j+1
    lam = [0] * len(alpha)
    for t in range(len(alpha) - 1, -1, -1):
        lam[t] = alpha[t] - beta[t] + b.m * beta[t + 1]
        if beta[t] < 0 or lam[t] < 0:
            return None
    return lam


def phi_inv(b: BetaSeq) -> MaryPartition:
    """Invert phi: rebuild the multiplicities by the carry recurrence
    solved for lambda and strip top zeros; a sequence outside the chained
    bounds raises ValueError."""
    lam = _multiplicities(b)
    if lam is None:
        raise ValueError("sequence violates its chained bounds")
    return MaryPartition.from_mults(b.m, lam)


def is_member(b: BetaSeq) -> bool:
    """True iff the chained bounds hold for every entry, that is iff
    phi_inv's recurrence yields no negative multiplicity; the empty
    sequence of n < m always holds."""
    return _multiplicities(b) is not None


def enumerate_members(m: int, n: int) -> list[BetaSeq]:
    """Every sequence satisfying the chained bounds, in ascending
    lexicographic order on (beta_j, ..., beta_1), by bounded nested loops.

    n must be positive, as for ``BetaSeq``; that is checked before the
    budget, so n = 0 is refused as such at every budget.

    ``MPART_ENUM_BUDGET`` is checked, after (m, n), before any sequence is
    built by the nested-sum walker (``kernels.nested_sum_b``), which counts
    the sequences without materializing them, so the check borrows nothing
    from the formulas the sequences are checked against; a second walk then
    builds them at its leaves."""
    j = to_base(m, n).j
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cap = enum_budget()
    try:
        kernels.nested_sum_b(m, n, cap)
    except LoopBudgetExceeded:
        raise EnumerationBudgetExceeded(
            f"more than {shown(cap)} sequences for n={shown(n)} in base {shown(m)}") from None
    out: list[BetaSeq] = []
    kernels.nested_sum_b(m, n, cap, lambda ks: out.append(BetaSeq(m, n, tuple(ks[:j]))))
    return out
