"""Walkers for the hot counting loops.

Every walker takes ``(m, n, cap)``, rejects m < 2 and n < 0 first, as
``to_base`` does, returns a nonnegative count, and raises the budget error
of its family as soon as its running count passes ``cap``:
``LoopBudgetExceeded`` for the nested sums, ``EnumerationBudgetExceeded``
for the partition walks.  Integers are Python's own, so no input size
overflows.

Each walker first compares a floor of its count with ``cap``: the
partitions into parts 1 and m alone, n//m + 1, or the gap-free ones among
them, (n-1)//m + 1, for both gap-free walkers.  So a walk that starts has
n at most about m*cap and recurses no deeper than its digit count.  It
then iterates its loops literally at every level above the innermost and
takes the innermost loop's count as its range length: the innermost sum
of ones for the nested sums; for the partition walks, which recurse over part
multiplicities, the choice of lambda_1, with lambda_0 taking the rest.
The running count is the step counter: each recursion threads it through
its calls and returns it, one step per leaf.

Only without a visitor, the level above the innermost is iterated in one
``sum(range(...))``, which runs its loop in C: it steps through every
value of that level's variable and adds the innermost range lengths, with
no closed form.  An innermost run and that pair each compute only their
count; one shared tail adds it to the running count, checks the cap, and
then visits.  The count only grows, so a walk raises exactly when its
total passes cap, without visiting the run that passed it.

The walks are also the enumerations' only loops: given ``visit``, a walk
iterates every level above the innermost in Python and, after its cap
check, calls visit once per innermost run, a run being the leaves that
share every loop variable above the innermost.  It passes the buffer in
which those variables are rewritten in place, ``ks`` (ks[t-1] = k_t) or
``mults`` (mults[t] = lambda_t), and the run's extent: k_1's range
length, or the rest rem that lambda_1 and lambda_0 split.  The visitor
fills the innermost entries itself (k_1, or lambda_1 and lambda_0), so the
walker makes no call per leaf.

The chained bounds are derived here alone, by ``carried_chains`` and its
one-point case ``chain``.  The two nested sums share one prologue and one
recursion over the chain: b's, or c's strata counted from zero; stratum 0
has no loop variable, so its one vector, the empty one, adds 1.

The two partition walks share one multiplicity recursion: the gap-free
walk runs it once per stratum, largest part first, each stratum with the
budget the ones before it left, so it too raises exactly when its total
passes ``cap``.
"""

from __future__ import annotations

from .budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, shown
from .radix import to_base


def chain(m: int, n: int, gapfree: bool):
    """The chain of b(m, n), or c(m, n) when ``gapfree``, as (offsets,
    strata), the one-point case of ``carried_chains``: stratum r counts the
    integer vectors with 0 <= k_r <= strata[r] and 0 <= k_t <= offsets[t] + m*k_{t+1}, t < r."""
    offsets, strata, _ = _start(m, to_base(m, n).digits, gapfree)
    return offsets, strata


def carried_chains(m: int, runs, gapfree: bool):
    """(offsets, strata, low), the chain of b(m, x), or of c(m, x) when
    ``gapfree``, at each (digits, i) of ``runs`` (``consecutive_digits``):
    x's digits alpha and the highest digit i changed since the x before
    (the top one, depth, for the first x).  offsets has an entry per level
    0..depth, strata is {r: top}, largest r first, and levels 1..low have
    new terms; both are rewritten in place, so a caller that keeps them
    copies them, except at a carry into the top digit, which starts afresh.
    Level t reads alpha_{t-1} and the digits above, so low = i + 1.

    b: offsets alpha and the one stratum {depth: alpha_depth}, stratum 0
    (the empty vector) for x < m.  c: a stratum per largest part m**r, r =
    depth..0, stratum 0 (top unread) the all-ones partition.  In stratum r,
    k_r runs over [chi_r, x//m**r - 1] and k_t over [chi_t, alpha_t - 1 +
    m*k_{t+1}], chi_t = 1 where alpha_{t-1} = 0, else 0, for t >= 1.
    Counted from zero, the top x//m**t - 1 - chi_t and the offset a_t =
    alpha_t - 1 - chi_t + m*chi_{t+1} are >= -1 (alpha_t = 0 forces
    chi_{t+1} = 1), so an empty range has length 0."""
    for alpha, i in runs:
        if i == len(alpha) - 1:
            offsets, strata, quot = _start(m, alpha, gapfree)
        elif gapfree:
            _renew(m, alpha, i + 1, offsets, strata, quot)
        yield offsets, strata, i + 1


def _start(m: int, alpha, gapfree: bool):
    """x's chain built afresh from its digits alpha, and c's quotients."""
    depth = len(alpha) - 1
    if not gapfree:
        return alpha, {depth: alpha[depth]}, None
    terms = [0] * (depth + 1), dict.fromkeys(range(depth, -1, -1), 0), [0] * (depth + 2)
    _renew(m, alpha, depth, *terms)
    return terms


def _renew(m: int, alpha, low: int, offsets, strata, quot) -> None:
    """c's terms at levels min(low, depth)..1, in place; quot[t] = x // m**t."""
    for t in range(min(low, len(alpha) - 1), 0, -1):
        quot[t] = quot[t + 1] * m + alpha[t]
        chi = alpha[t - 1] == 0
        offsets[t] = alpha[t] - 1 - chi + m * (alpha[t] == 0)
        strata[t] = quot[t] - 1 - chi


def _chain_walk(m: int, n: int, gapfree: bool, cap: int, visit=None) -> int:
    """Leaf count of the chained loops of ``chain(m, n, gapfree)`` once (m,
    n) passes ``to_base`` and its floor, n//m + 1 or for c (n-1)//m + 1, is
    within cap, raising LoopBudgetExceeded once the count passes cap; leaves
    come in ascending lexicographic order on (k_r, ..., k_1), the strata
    threading one running count.  visit(ks, count) sees each run within cap,
    k_1 = 0..count-1 with ks[1:] set; stratum 0's run is its one leaf.
    Without a visitor, the k_2 loop is one range over the k_1 range lengths
    offset + m*k_2 + 1; its bound -1 leaves it empty."""
    to_base(m, n)
    refusal = f"nested summation for base {shown(m)}, n={shown(n)} exceeded budget {shown(cap)}"
    if (n - gapfree) // m + 1 > cap:
        raise LoopBudgetExceeded(refusal)
    offsets, strata = chain(m, n, gapfree)
    ks = [0] * len(offsets)

    def walk(t: int, bound: int, total: int) -> int:
        if t <= 1:
            # k_1's range, or at t = 0 stratum 0's one leaf
            count = bound + 1 if t else 1
        elif t == 2 and visit is None:
            offset = offsets[1]
            count = sum(range(offset + 1, offset + 2 + m * bound, m))
        else:
            offset = offsets[t - 1]
            for k in range(bound + 1):
                ks[t - 1] = k
                total = walk(t - 1, offset + m * k, total)
            return total
        total += count
        if total > cap:
            raise LoopBudgetExceeded(refusal)
        if visit is not None:
            visit(ks, count)
        return total

    total = 0
    for r, top in strata.items():
        total = walk(r, top, total)
    return total


def nested_sum_b(m: int, n: int, cap: int, visit=None) -> int:
    """b(m, n) as the leaf count of the chained loops k_j..k_1 with upper
    bounds alpha_j and alpha_t + m*k_{t+1} over the base-m digits of n.
    ``visit`` sees ks with j + 1 entries, of which ks[:j] are the loop's;
    for n < m its one run has count 1 and no loop variable."""
    return _chain_walk(m, n, False, cap, visit)


def nested_sum_c(m: int, n: int, cap: int) -> int:
    """c(m, n) as the leaf count of the gap-free strata r = j..0, walked
    from zero as ``chain`` reindexes them; stratum 0 is the all-ones one."""
    return _chain_walk(m, n, True, cap)


def _multiplicity_walk(m: int, n: int, top: int, cap: int, refusal: str, visit=None) -> int:
    """Number of partitions of n into parts m**0..m**top by the multiplicity
    recursion, raising EnumerationBudgetExceeded(refusal) once it passes cap;
    leaves come in descending lexicographic order on (lambda_top, ...,
    lambda_0).  visit(mults, rem) sees each run within cap, mults[2:] set:
    lambda_1 = rem//m down to 0 and lambda_0 = rem - m*lambda_1, or for top =
    0 the one leaf lambda_0 = rem.  Without a visitor, the lambda_2 loop is
    one range over the lambda_1 range lengths rem//m - m*lambda_2 + 1."""
    powers = [m**t for t in range(top + 1)]
    mults = [0] * (top + 1)

    def walk(t: int, rem: int, total: int) -> int:
        if t <= 1:
            # lambda_1 runs over rem//m..0 and lambda_0 takes the rest; t = 0
            # only for top = 0, whose one leaf is lambda_0 = rem
            count = rem // m + 1 if t else 1
        elif t == 2 and visit is None:
            count = sum(range(rem // m + 1, 0, -m))
        else:
            power = powers[t]
            for lam in range(rem // power, -1, -1):
                mults[t] = lam
                total = walk(t - 1, rem - lam * power, total)
            return total
        total += count
        if total > cap:
            raise EnumerationBudgetExceeded(refusal)
        if visit is not None:
            visit(mults, rem)
        return total

    return walk(top, n, 0)


def walk_partitions(m: int, n: int, cap: int, visit=None) -> int:
    """Number of m-ary partitions of n by direct multiplicity recursion.
    ``visit`` sees mults with j + 1 entries, once per innermost run, that is
    per (lambda_2, ..., lambda_j), in the walk's order: a run starts at the
    one leaf with lambda_0 < m, where lambda_1 is largest, and each later
    leaf of it has lambda_1 one less and lambda_0 m more than the leaf
    before."""
    j = to_base(m, n).j
    refusal = f"more than {shown(cap)} partitions of {shown(n)} in base {shown(m)}"
    if n // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    return _multiplicity_walk(m, n, j, cap, refusal, visit)


def walk_gapfree(m: int, n: int, cap: int, visit=None) -> int:
    """Number of gap-free m-ary partitions of n: the plain multiplicity walk
    summed over the strata r = j..0, deepest walk first, each with the
    budget the ones before it left.  Those with largest part m**r are one
    part of each size m**0..m**r plus a partition of rest = n - (1 + m +
    ... + m**r) >= 0 into those parts, whose runs ``visit`` sees as mults
    with r + 1 entries: the gap-free partition is each entry plus one."""
    j = to_base(m, n).j
    refusal = f"more than {shown(cap)} gap-free partitions of {shown(n)} in base {shown(m)}"
    # the all-ones partition and those with k >= 1 parts m and at least one
    # part 1 number (n-1)//m + 1
    if (n - 1) // m + 1 > cap:
        raise EnumerationBudgetExceeded(refusal)
    if n == 0:  # the empty partition, in no stratum, is also the only plain one
        return _multiplicity_walk(m, 0, 0, cap, refusal, visit)
    total = 0
    for r in range(j, -1, -1):
        rest = n - (m ** (r + 1) - 1) // (m - 1)
        if rest >= 0:
            total += _multiplicity_walk(m, rest, r, cap - total, refusal, visit)
    return total
