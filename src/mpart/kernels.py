"""Walkers for the hot counting loops.

Every walker takes ``(m, n, cap)``, returns a nonnegative count, and raises
the budget error of its family as soon as its step counter passes ``cap``:
``LoopBudgetExceeded`` for the nested sums, ``EnumerationBudgetExceeded``
for the partition walks.  Integers are Python's own, so no input size
overflows.

Each walker first compares a floor of its count with ``cap``: the
partitions into parts 1 and m alone, n//m + 1, or the gap-free ones among
them, (n-1)//m + 1, less the all-ones partition for ``nested_sum_c``,
whose leaves number c - 1.  So a walk that starts has n at most about
m*cap and recurses no deeper than its digit count.  It then iterates its
loops literally at every level above the innermost and takes the
innermost loop's count as its range length: the innermost sum of ones for
the nested sums; for the partition walks, which recurse over part
multiplicities, the choice of lambda_1, with lambda_0 taking the rest.
Steps are counted one per leaf, so the step total equals the count.
"""

from __future__ import annotations

from .budgets import EnumerationBudgetExceeded, LoopBudgetExceeded
from .radix import to_base


def nested_sum_b(m: int, n: int, cap: int) -> int:
    """Leaf count of the chained loops k_j..k_1 with upper bounds
    alpha_j and alpha_t + m*k_{t+1} over the base-m digits alpha of n:
    b(m, n)."""
    refusal = f"nested summation for base {m}, n={n} exceeded budget {cap}"
    if n // m + 1 > cap:
        raise LoopBudgetExceeded(refusal)
    alpha = to_base(m, n).digits
    j = len(alpha) - 1
    if j == 0:
        return 1
    steps = 0

    def walk(t: int, bound: int) -> int:
        nonlocal steps
        if t == 1:
            steps += bound + 1
            if steps > cap:
                raise LoopBudgetExceeded(refusal)
            return bound + 1
        total = 0
        for k in range(bound + 1):
            total += walk(t - 1, alpha[t - 1] + m * k)
        return total

    return walk(j, alpha[j])


def nested_sum_c(m: int, n: int, cap: int) -> int:
    """Total leaf count over the strata r = 1..j of the chained loops
    k_r..k_1, where k_r ranges over [chi_r, n//m**r - 1] and k_t over
    [chi_t, alpha_t - 1 + m*k_{t+1}], with chi_t = 1 where alpha_{t-1} = 0
    and 0 otherwise: c(m, n) - 1.  Empty ranges contribute 0."""
    refusal = f"nested summation for base {m}, n={n} exceeded budget {cap}"
    if (n - 1) // m > cap:
        raise LoopBudgetExceeded(refusal)
    alpha = to_base(m, n).digits
    chi = [0 if d else 1 for d in alpha[:-1]]
    steps = 0

    def walk(t: int, bound: int) -> int:
        nonlocal steps
        lo = chi[t - 1]
        if bound < lo:
            return 0
        if t == 1:
            steps += bound - lo + 1
            if steps > cap:
                raise LoopBudgetExceeded(refusal)
            return bound - lo + 1
        total = 0
        for k in range(lo, bound + 1):
            total += walk(t - 1, alpha[t - 1] - 1 + m * k)
        return total

    return sum(walk(r, n // m**r - 1) for r in range(1, len(alpha)))


def walk_partitions(m: int, n: int, cap: int) -> int:
    """Number of m-ary partitions of n by direct multiplicity recursion."""
    j = to_base(m, n).j
    refusal = f"more than {cap} partitions of {n} in base {m}"
    if n // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    powers = [m**t for t in range(j + 1)]
    steps = 0

    def walk(t: int, rem: int) -> int:
        nonlocal steps
        if t <= 1:
            # lambda_1 runs over 0..rem//m; t = 0 only for n < m
            count = rem // m + 1 if t else 1
            steps += count
            if steps > cap:
                raise EnumerationBudgetExceeded(refusal)
            return count
        total = 0
        for lam in range(rem // powers[t], -1, -1):
            total += walk(t - 1, rem - lam * powers[t])
        return total

    return walk(j, n)


def walk_gapfree(m: int, n: int, cap: int) -> int:
    """Number of gap-free m-ary partitions of n by the pruned
    multiplicity recursion (lower exponents stay present once a top part
    has been chosen)."""
    j = to_base(m, n).j
    refusal = f"more than {cap} gap-free partitions of {n} in base {m}"
    # the all-ones partition and those with k >= 1 parts m and at least one
    # part 1 number (n-1)//m + 1
    if (n - 1) // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    powers = [m**t for t in range(j + 1)]
    need = [(powers[t] - 1) // (m - 1) for t in range(j + 1)]
    steps = 0

    def walk(t: int, rem: int, started: bool) -> int:
        nonlocal steps
        if t <= 1:
            # Every lambda_1 <= (rem - need[1]) // m leaves rem - m*lambda_1
            # >= need[1] = 1 ones, so no choice leaves a gap at exponent 0;
            # the all-ones partition is the one extra leaf before a top part
            # is chosen.  t = 0 only for n < m, where nothing has started.
            count = max(0, (rem - need[1]) // m) if t else 0
            if not started:
                count += 1
            steps += count
            if steps > cap:
                raise EnumerationBudgetExceeded(refusal)
            return count
        total = 0
        for lam in range((rem - need[t]) // powers[t], 0, -1):
            total += walk(t - 1, rem - lam * powers[t], True)
        if not started:
            total += walk(t - 1, rem, False)
        return total

    return walk(j, n, False)
