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

The two nested sums share one chained recursion over the chain that
``chain`` derives: b's single chain, or the gap-free strata counted from
zero, which puts them in the same shape.

The two partition walks share one multiplicity recursion: the gap-free
walk runs it once per stratum of ``gapfree_strata``, largest part first,
each stratum with the budget the ones before it left, so it too raises
exactly when its total passes ``cap``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, shown
from .radix import chi_vector, to_base


def chain(m: int, n: int, gapfree: bool) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The chained inequalities whose solutions count b(m, n), or c(m, n) - 1
    when ``gapfree``, as (offsets, strata): the integer vectors with, for one
    stratum (r, top), 0 <= k_r <= top and 0 <= k_t <= offsets[t] +
    m*k_{t+1} for t = r-1..1.  Strata come largest r first.

    b has the one stratum (j, alpha_j), or (1, 0) for n < m, and offsets
    alpha_t.  c - 1 has a stratum per largest part m**r, r = j..1, where
    k_r runs over [chi_r, n//m**r - 1] and k_t over [chi_t, alpha_t - 1 +
    m*k_{t+1}] (``chi_vector``).  Counted from zero, k_t = k'_t + chi_t,
    the tops become n//m**r - 1 - chi_r and the offsets a_t = alpha_t - 1 -
    chi_t + m*chi_{t+1}.  Every bound is >= -1, so an empty range has length
    0: alpha_t = 0 forces chi_{t+1} = 1, so a_t >= -1, and n//m**r >= 1.
    """
    r = to_base(m, n)
    alpha = r.digits
    if not gapfree:
        depth = max(r.j, 1)
        return alpha, ((depth, n // m**depth),)
    chi = (0, *chi_vector(r))  # chi[t] = chi_t; chi_0 only feeds the unread a_0
    offsets = tuple(alpha[t] - 1 - chi[t] + m * chi[t + 1] for t in range(r.j))
    return offsets, tuple((s, n // m**s - 1 - chi[s]) for s in range(r.j, 0, -1))


def _chain_walk(m: int, offsets, strata, cap: int, refusal: str) -> int:
    """Leaf count of the chained loops of ``chain``, raising
    LoopBudgetExceeded(refusal) once it passes cap."""
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
            total += walk(t - 1, offsets[t - 1] + m * k)
        return total

    return sum(walk(r, top) for r, top in strata)


def nested_sum_b(m: int, n: int, cap: int) -> int:
    """b(m, n) as the leaf count of the chained loops k_j..k_1 with upper
    bounds alpha_j and alpha_t + m*k_{t+1} over the base-m digits of n."""
    refusal = f"nested summation for base {shown(m)}, n={shown(n)} exceeded budget {shown(cap)}"
    if n // m + 1 > cap:
        raise LoopBudgetExceeded(refusal)
    return _chain_walk(m, *chain(m, n, gapfree=False), cap, refusal)


def nested_sum_c(m: int, n: int, cap: int) -> int:
    """c(m, n) - 1 as the leaf count of the gap-free strata, walked from
    zero as ``chain`` reindexes them."""
    refusal = f"nested summation for base {shown(m)}, n={shown(n)} exceeded budget {shown(cap)}"
    if (n - 1) // m > cap:
        raise LoopBudgetExceeded(refusal)
    return _chain_walk(m, *chain(m, n, gapfree=True), cap, refusal)


def _multiplicity_walk(m: int, n: int, top: int, cap: int, refusal: str) -> int:
    """Number of partitions of n into parts m**0..m**top by the multiplicity
    recursion, raising EnumerationBudgetExceeded(refusal) once it passes cap."""
    powers = [m**t for t in range(top + 1)]
    steps = 0

    def walk(t: int, rem: int) -> int:
        nonlocal steps
        if t <= 1:
            # lambda_1 runs over 0..rem//m; t = 0 only for top = 0
            count = rem // m + 1 if t else 1
            steps += count
            if steps > cap:
                raise EnumerationBudgetExceeded(refusal)
            return count
        total = 0
        for lam in range(rem // powers[t], -1, -1):
            total += walk(t - 1, rem - lam * powers[t])
        return total

    return walk(top, n)


def gapfree_strata(m: int, n: int) -> Iterator[tuple[int, int]]:
    """(r, rest) for r = j, j-1, ..., 0 wherever rest = n - (1 + m + ... +
    m**r) >= 0: the gap-free partitions of n with largest part m**r are one
    part of each size m**0..m**r plus any partition of rest into those
    parts.  Largest part first, so the deepest walk starts first."""
    for r in range(to_base(m, n).j, -1, -1):
        rest = n - (m ** (r + 1) - 1) // (m - 1)
        if rest >= 0:
            yield r, rest


def walk_partitions(m: int, n: int, cap: int) -> int:
    """Number of m-ary partitions of n by direct multiplicity recursion."""
    j = to_base(m, n).j
    refusal = f"more than {shown(cap)} partitions of {shown(n)} in base {shown(m)}"
    if n // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    return _multiplicity_walk(m, n, j, cap, refusal)


def walk_gapfree(m: int, n: int, cap: int) -> int:
    """Number of gap-free m-ary partitions of n: the plain multiplicity walk
    summed over ``gapfree_strata``, each stratum with the budget the ones
    before it left."""
    to_base(m, n)  # rejects m < 2 and n < 0 before the floor divides by m
    refusal = f"more than {shown(cap)} gap-free partitions of {shown(n)} in base {shown(m)}"
    # the all-ones partition and those with k >= 1 parts m and at least one
    # part 1 number (n-1)//m + 1
    if (n - 1) // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    if n == 0:  # the empty partition, in no stratum, is also the only plain one
        return _multiplicity_walk(m, 0, 0, cap, refusal)
    total = 0
    for r, rest in gapfree_strata(m, n):
        total += _multiplicity_walk(m, rest, r, cap - total, refusal)
    return total
