"""Walkers for the hot counting loops.

Every function returns a nonnegative count, or -1 as soon as the running
step counter would exceed ``cap``.  Integers are Python's own, so no input
size overflows.

All four walkers iterate their loops literally at every level above the
innermost and take the innermost loop's count as its range length.  For
the nested-sum walkers that loop is the innermost sum of ones; for the
partition walkers, which recurse over part multiplicities, it is the
choice of lambda_1, with lambda_0 taking the rest.  Steps are counted one
per leaf (per completed partition), so the step total equals the count.
"""

from __future__ import annotations

from .radix import to_base


def nested_sum_b(m: int, alpha, cap: int) -> int:
    """Leaf count of the chained loops k_j..k_1 with upper bounds
    alpha[j] and alpha[t] + m*k_{t+1}; alpha is the full digit vector,
    least significant first."""
    j = len(alpha) - 1
    if j == 0:
        return 1
    steps = [0]

    def walk(t: int, bound: int) -> int:
        if t == 1:
            count = bound + 1
            steps[0] += count
            if steps[0] > cap:
                return -1
            return count
        total = 0
        for k in range(bound + 1):
            sub = walk(t - 1, alpha[t - 1] + m * k)
            if sub < 0:
                return -1
            total += sub
        return total

    return walk(j, alpha[j])


def nested_sum_c(m: int, alpha, chi, tops, cap: int) -> int:
    """Total leaf count over the strata r = 1..j of the chained loops
    k_r..k_1, where k_r ranges over [chi[r-1], tops[r-1]] and k_t over
    [chi[t-1], alpha[t] - 1 + m*k_{t+1}].  Empty ranges contribute 0."""
    j = len(alpha) - 1
    steps = [0]

    def walk(t: int, bound: int) -> int:
        lo = chi[t - 1]
        if bound < lo:
            return 0
        if t == 1:
            count = bound - lo + 1
            steps[0] += count
            if steps[0] > cap:
                return -1
            return count
        total = 0
        for k in range(lo, bound + 1):
            sub = walk(t - 1, alpha[t - 1] - 1 + m * k)
            if sub < 0:
                return -1
            total += sub
        return total

    total = 0
    for r in range(1, j + 1):
        sub = walk(r, tops[r - 1])
        if sub < 0:
            return -1
        total += sub
    return total


def walk_partitions(m: int, n: int, cap: int) -> int:
    """Number of m-ary partitions of n by direct multiplicity recursion."""
    j = to_base(m, n).j
    powers = [m**t for t in range(j + 1)]
    steps = [0]

    def walk(t: int, rem: int) -> int:
        if t <= 1:
            # lambda_1 runs over 0..rem//m; t = 0 only for n < m
            count = rem // m + 1 if t else 1
            steps[0] += count
            if steps[0] > cap:
                return -1
            return count
        total = 0
        for lam in range(rem // powers[t], -1, -1):
            sub = walk(t - 1, rem - lam * powers[t])
            if sub < 0:
                return -1
            total += sub
        return total

    return walk(j, n)


def walk_gapfree(m: int, n: int, cap: int) -> int:
    """Number of gap-free m-ary partitions of n by the pruned
    multiplicity recursion (lower exponents stay present once a top part
    has been chosen)."""
    j = to_base(m, n).j
    powers = [m**t for t in range(j + 1)]
    need = [(powers[t] - 1) // (m - 1) for t in range(j + 1)]
    steps = [0]

    def walk(t: int, rem: int, started: bool) -> int:
        if t <= 1:
            # Every lambda_1 <= (rem - need[1]) // m leaves rem - m*lambda_1
            # >= need[1] = 1 ones, so no choice leaves a gap at exponent 0;
            # the all-ones partition is the one extra leaf before a top part
            # is chosen.  t = 0 only for n < m, where nothing has started.
            count = max(0, (rem - need[1]) // m) if t else 0
            if not started:
                count += 1
            steps[0] += count
            if steps[0] > cap:
                return -1
            return count
        total = 0
        for lam in range((rem - need[t]) // powers[t], 0, -1):
            sub = walk(t - 1, rem - lam * powers[t], True)
            if sub < 0:
                return -1
            total += sub
        if not started:
            sub = walk(t - 1, rem, False)
            if sub < 0:
                return -1
            total += sub
        return total

    return walk(j, n, False)
