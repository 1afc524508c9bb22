"""Digit subtraction between a number and its m-ary partitions.

Subtracting a partition's multiplicity vector from the base-m digits of n
componentwise, carrying upper differences down with factor m, yields a
sequence (beta_j, ..., beta_1) whose entries obey the chained bounds

    0 <= beta_j <= alpha_j,   0 <= beta_t <= alpha_t + m*beta_{t+1},

and this map is a bijection from the partitions of n onto all sequences
satisfying the bounds.  Counting m-ary partitions thereby reduces to
counting lattice points of the chained inequalities.

The one carry recurrence beta_t = alpha_t - lambda_t + m*beta_{t+1},
beta_{j+1} = 0, runs on plain tuples: ``carry_betas`` solves it for beta and
``carry_mults`` for lambda.  phi, phi_inv and is_member are thin wrappers
that take and build the value objects.

The run identity.  An innermost run of the multiplicity walk fixes
lambda_2, ..., lambda_j and goes from lambda_1 = L, lambda_0 < m down to
lambda_1 = 0, lambda_1 down by one and lambda_0 up by m at each step.  So
beta_j, ..., beta_2 are fixed along it, and beta_1 = alpha_1 - lambda_1 +
m*beta_2 goes up by one: beta_1 + lambda_1 is fixed, and the run's L + 1
images are the carry of its first partition with beta_1 raised by 0..L.
The CLI's ``table`` and ``verify --suite bijection`` carry once per run by it.

The two walks hand out the same runs.  A run's first partition has lambda_0
= rem mod m < m, so beta_0 = alpha_0 - lambda_0 + m*beta_1 = 0 forces
beta_1 = 0 there, and its images are (k, beta_2, ..., beta_j) for k =
0..L: one run of ``kernels.nested_sum_b``, k_1 over range(L + 1) with the
same k_2, ..., k_j, and the runs come in the same order.
"""

from __future__ import annotations

from ._frozen import Frozen
from .budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, shown
from .partitions import MaryPartition, _value, visit_runs
from .radix import to_base
from . import kernels


class BetaSeq(Frozen):
    """A candidate sequence (beta_1, ..., beta_j) for n in base m.

    ``betas[t-1]`` holds beta_t; there is no beta_0, so the sequence is
    empty for n < m.  Whether the chained bounds hold is checked by
    is_member, not at construction.
    """

    _fields = ("m", "n", "betas")
    __slots__ = ()

    def __new__(cls, m: int, n: int, betas: tuple[int, ...]) -> BetaSeq:
        j = to_base(m, n).j
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if len(betas) != j:
            raise ValueError(f"expected {j} entries for n={n} in base {m}, got {len(betas)}")
        return cls.unchecked(m, n, betas)

    def msb_first(self) -> tuple[int, ...]:
        """Entries in display order (beta_j, ..., beta_1)."""
        return tuple(reversed(self.betas))


def carry_betas(m: int, alpha, mults) -> tuple[int, ...]:
    """The carry recurrence on plain tuples: the digits alpha of n and the
    multiplicities of a partition, both lowest exponent first, to (beta_1,
    ..., beta_j).

    beta_t = alpha_t - lambda_t + m*beta_{t+1} for t = j..0 from beta_{j+1}
    = 0, lambda_t = 0 past the end of mults.  beta_0 telescopes to n less the
    partition's weight up to m**j, so the partition sums to n iff beta_0 = 0
    and no multiplicity above m**j is nonzero; otherwise this raises
    ValueError naming the weight.  The empty sequence of n < m is the empty tuple.
    """
    j = len(alpha) - 1
    k = len(mults)
    betas = []  # beta_j, ..., beta_0
    beta = 0  # the carry beta_{t+1}
    for t in range(j, -1, -1):
        beta = alpha[t] - (mults[t] if t < k else 0) + m * beta
        betas.append(beta)
    if beta or k > j + 1 and any(mults[j + 1:]):
        raise ValueError(f"partition sums to {_value(m, mults)}, not {_value(m, alpha)}")
    return tuple(betas[-2::-1])


def carry_mults(m: int, alpha, betas) -> tuple[int, ...] | None:
    """The carry recurrence solved for lambda: lambda_t = alpha_t - beta_t +
    m*beta_{t+1} for t = j..0, with beta_{j+1} = beta_0 = 0, as a canonical
    multiplicity tuple (lowest exponent first, no zero above the largest
    part); None at the first beta_t < 0 or lambda_t < 0.  lambda_t >= 0 is
    the upper bound beta_t <= alpha_t + m*beta_{t+1}, so None means exactly
    that the chained bounds fail."""
    lam = []  # lambda_top, ..., lambda_0
    above = 0  # beta_{t+1}
    for t in range(len(alpha) - 1, 0, -1):
        beta = betas[t - 1]
        x = alpha[t] - beta + m * above
        if beta < 0 or x < 0:
            return None
        if x or lam:
            lam.append(x)
        above = beta
    lam.append(alpha[0] + m * above)
    return tuple(reversed(lam))


def phi(p: MaryPartition, n: int) -> BetaSeq:
    """Subtract the partition from the digit vector of n.

    beta_i = sum_{k=i}^{j} m**(k-i) * (alpha_k - lambda_k), evaluated by
    ``carry_betas``; a partition that does not sum to n raises ValueError.
    """
    return BetaSeq.unchecked(p.m, n, carry_betas(p.m, to_base(p.m, n).digits, p.mults))


def phi_inv(b: BetaSeq) -> MaryPartition:
    """Invert phi by ``carry_mults``; a sequence outside the chained bounds
    raises ValueError."""
    lam = carry_mults(b.m, to_base(b.m, b.n).digits, b.betas)
    if lam is None:
        raise ValueError("sequence violates its chained bounds")
    return MaryPartition.unchecked(b.m, lam)


def is_member(b: BetaSeq) -> bool:
    """True iff the chained bounds hold for every entry, that is iff
    ``carry_mults`` yields no negative multiplicity; the empty sequence of
    n < m always holds."""
    return carry_mults(b.m, to_base(b.m, b.n).digits, b.betas) is not None


def enumerate_members(m: int, n: int) -> list[BetaSeq]:
    """Every sequence satisfying the chained bounds, in ascending
    lexicographic order on (beta_j, ..., beta_1): ``partitions.visit_runs``
    over the nested walk of b (``kernels.nested_sum_b``), which counts the
    sequences without materializing them, so the budget check borrows
    nothing from the formulas the sequences are checked against.  Each run
    fixes beta_2, ..., beta_j, and its sequences are built in one pass,
    with no length check or ``to_base`` lookup each.  The walk's budget
    error is raised as EnumerationBudgetExceeded."""

    def walk(m: int, n: int, cap: int, visit=None) -> int:
        try:
            return kernels.nested_sum_b(m, n, cap, visit)
        except LoopBudgetExceeded:
            raise EnumerationBudgetExceeded(
                f"more than {shown(cap)} sequences for n={shown(n)} in base {shown(m)}") from None

    out = []
    new = BetaSeq.unchecked

    # ks has j + 1 entries, of which ks[:j] are the loop's; n < m has none
    def run(ks, count):
        if len(ks) == 1:
            out.append(new(m, n, ()))
            return
        above = tuple(ks[1:-1])
        out.extend([new(m, n, (k,) + above) for k in range(count)])

    visit_runs(walk, m, n, run)
    return out
