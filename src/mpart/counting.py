"""Counting m-ary partitions and their gap-free variants.

b(m, n), the number of partitions of n into powers of m, is computed four
independent ways:

  * ``count_b_nested``     -- literal chained summation over the digit bounds;
  * ``count_b_poly``       -- the same sum collapsed level by level into
                              integer-valued polynomials and met in the
                              middle: the lower levels run bottom-up, the
                              upper ones top-down through the transposed
                              level maps (``_chain_total``);
  * ``count_b_recurrence`` -- the coefficient recurrence
                              b(n) = b(n-1) + [m | n] * b(n/m);
  * ``count_b_gf``         -- coefficients of prod_k 1/(1 - q**(m**k)).

c(m, n), the number of gap-free partitions (every power below the largest
part occurs), is computed by literal summation and by the polynomial route;
the partitions module counts both families by brute-force enumeration.
Both polynomial routes are exact only.  A count mod M comes from the
residue route (``count_b_residues``, ``count_c_residues``), which runs the
same level loop bottom-up to the top with every level reduced mod M; every
congruence check takes it, a single n as a one-point block.  The route
answers a block of consecutive n at once: x = m**shift * n has its digits
carried in place from place shift, ``kernels.carried_chains`` renews the
chain's terms at the levels the carry reaches, each n redoes only those
levels, and a carry into the top digit starts afresh.  Mod m a reduced
level is one residue, so a verify sweep meets the same few levels over and
over: the reduced step is memoised (``_residue_level``, keyed by the base,
the modulus, the level's coefficients and the offset, an LRU cache of the
RESIDUE_LEVELS most recent steps).  The exact route never enters it.

Counts at n = 0 are defined as 1 (the empty partition) throughout.  Every
count checks (m, n) through ``to_base`` first, then the rest of its input.
"""

from __future__ import annotations

import functools
from operator import add, mul

from .budgets import LoopBudgetExceeded, TableBudgetExceeded, enum_budget, loop_budget, shown
from .polysum import (
    IntPolynomial,
    compose_affine_transposed,
    evaluation_covector,
    prefix_sum_transposed,
)
from .radix import consecutive_digits, to_base
from . import kernels

# Entries kept by the residue route's level memo (``_residue_level``): room
# for most of the distinct steps of a verify sweep mod m, while the levels
# of a large modulus, nearly all distinct, hold no more than 256 levels.
RESIDUE_LEVELS = 256


def _check_table_size(m: int, upto: int) -> None:
    """(m, upto) through ``to_base``, as any count checks (m, n), then the
    upto + 1 entries against ``MPART_ENUM_BUDGET`` before allocating."""
    to_base(m, upto)
    cap = enum_budget()
    if upto > cap:
        raise TableBudgetExceeded(
            f"a table of b({shown(m)}, 0..{shown(upto)}) needs {shown(upto + 1)} entries "
            f"(budget {shown(cap)}); use count_b_poly"
        )


def recurrence_table(m: int, upto: int) -> list[int]:
    """b(m, 0..upto) from the recurrence b(n) = b(n-1) + [m | n]*b(n/m)."""
    _check_table_size(m, upto)
    b = [1] * (upto + 1)
    for i in range(1, upto + 1):
        b[i] = b[i - 1] + (b[i // m] if i % m == 0 else 0)
    return b


def count_b_recurrence(m: int, n: int) -> int:
    return recurrence_table(m, n)[n]


def count_b_gf(m: int, upto: int) -> list[int]:
    """Coefficients 0..upto of prod_k 1/(1 - q**(m**k)); each factor is a
    prefix-sum pass with stride m**k over the coefficient array."""
    _check_table_size(m, upto)
    coeffs = [1] + [0] * upto
    stride = 1
    while stride <= upto:
        for i in range(stride, upto + 1):
            coeffs[i] += coeffs[i - stride]
        stride *= m
    return coeffs


def _chain_total(m: int, offsets, strata) -> int:
    """The vector count of a ``kernels.chain``, collapsed level by level:
    h_0 = 1, S_t is the prefix sum of h_{t-1}, and h_t(k) = S_t(offsets[t]
    + m*k), each level one prefix sum plus one affine substitution in the
    binomial basis; stratum r adds S_r(strata[r]), S_0 = 1 and S_r(-1) = 0.

    Every level map and every stratum's evaluation is linear in the
    coefficients, so the loop meets in the middle, at a split level t*.
    One bottom-up loop steps S_1 .. S_{t*}, adding the strata r <= t*.
    Above the split it runs transposed, top-down, on a covector w: w starts
    at zero, and at each level t > t* the loop adds stratum t's covector
    (C(top_t, i))_i, then carries w down one level through the transposed
    prefix sum and substitution (``polysum``).  One dot product of w with
    S_{t*} joins the halves; at t* = depth the top loop does not run and the
    join adds 0.  The coefficients of S_t grow with t and the covector's
    entries with depth - t, so t* = round(0.6 * depth) and each half runs
    where its numbers are small.  A count mod M takes the residue route
    instead (``_residue_block``), whose reduced levels stay small to the top."""
    depth = max(strata)
    split = (6 * depth + 5) // 10  # round(0.6 * depth)
    total = 1 if 0 in strata else 0
    s = IntPolynomial.unchecked((1, 1))  # S_1(x) = x + 1, the prefix sum of h_0 = 1
    for t in range(1, split + 1):
        if t in strata:
            total += s.eval(strata[t])
        if t < split:
            s = s.compose_affine(m, offsets[t]).prefix_sum()
    w = [0] * (depth + 1)
    for t in range(depth, split, -1):
        if t in strata:
            w = list(map(add, w, evaluation_covector(strata[t], t)))
        w = compose_affine_transposed(prefix_sum_transposed(w), m, offsets[t - 1])
    return total + sum(map(mul, w, s.coeffs))


@functools.lru_cache(maxsize=RESIDUE_LEVELS)
def _residue_level(m: int, modulus: int, coeffs: tuple[int, ...], offset: int) -> IntPolynomial:
    """S_{t+1} from the coefficients of S_t and the offset a_t: h_t(k) =
    S_t(a_t + m*k) with its coefficients reduced mod ``modulus`` and the
    vanished top ones dropped, then its prefix sum."""
    h = IntPolynomial.unchecked(coeffs).compose_affine(m, offset)
    return IntPolynomial.from_coeffs([c % modulus for c in h.coeffs]).prefix_sum()


def _residue_block(m: int, ns: range, modulus: int, shift: int, gapfree: bool):
    """b(m, x) mod M = ``modulus``, or c(m, x) when ``gapfree``, at x =
    m**shift * n for each n of the consecutive range ``ns``, as an
    iterator.  ``consecutive_digits`` checks (m, ns.start), the step and the
    shift, then the modulus is checked, all at the call, so a bad input
    raises before any n is counted.

    Each x runs the level loop of ``_chain_total`` bottom-up to the top with
    every level reduced mod M: the prefix sum, the substitution and the
    evaluation at an integer are integer-linear in the binomial basis, so
    reducing each h_t mod M leaves the residue exact.  Reduced top
    coefficients that vanish are dropped, so for M a power of m the degree
    collapses and the levels stay small; the step is ``_residue_level``."""
    runs = consecutive_digits(m, ns, shift)
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return _block_walk(m, kernels.carried_chains(m, runs, gapfree), modulus, shift, len(ns) > 1)


def _block_walk(m: int, chains, modulus: int, shift: int, fill: bool):
    """The walk behind ``_residue_block`` over ``kernels.carried_chains``;
    three mechanisms stay, each timed against a copy without it on a 2-vCPU
    host.  Level t's dict maps the reduced S_t to what levels >= t add until
    a carry renews level t; the climb from S_1 stops at the first level
    above low whose dict holds its S_t and fills the dicts on its path
    (without them the sweep op's median rose from 1.8-2.0 ms to 2.4-2.8).
    The level step's memo is shared and bounded (``_residue_level``;
    without it 1.3-1.9 ms became 3.8-5.3, and a memo per block, missing the
    steps churchhouse's one-point blocks share across n, raised the 90th
    percentile from 7.3-8.3 ms to 8.5-12.0).  A one-point block, not
    ``fill``, fills no dicts: filling them took churchhouse at --n 201 --k
    1000 from 6.2 s and 24.7 MiB peak RSS to 8.2 s and 80.4."""
    unit = IntPolynomial.unchecked((1, 1))  # S_1(x) = x + 1, the prefix sum of h_0 = 1
    depth = -1
    for offsets, strata, low in chains:
        if low > depth:  # only a top-digit carry renews a level past the last depth
            depth = len(offsets) - 1
            levels = [{} for _ in range(depth + 1)] if fill else None
            zero = 0 in strata  # stratum 0 adds 1
        else:  # levels 1..shift + 1 are never filled
            for level in levels[shift + 2:low + 1]:
                level.clear()
        s = unit
        path = []
        acc = zero  # what levels 0..t - 1 add
        for t in range(1, depth + 1):
            if t > low:
                tail = levels[t].get(s.coeffs)
                if tail is not None:
                    break
            if fill and t > shift + 1:  # levels 1..shift + 1 change at every n
                path.append((levels[t], s.coeffs, acc))
            if t in strata:
                acc += s.eval(strata[t])
            if t < depth:
                s = _residue_level(m, modulus, s.coeffs, offsets[t])
        else:
            tail = 0
        tail += acc  # what levels 0..depth add
        for level, coeffs, before in path:
            level[coeffs] = (tail - before) % modulus
        yield tail % modulus


def count_b_residues(m: int, ns: range, modulus: int, shift: int):
    """b(m, m**shift * n) mod ``modulus`` for each n of the consecutive range
    ``ns``, in order, from the residue route (``_residue_block``); shift >= 0."""
    return _residue_block(m, ns, modulus, shift, gapfree=False)


def count_c_residues(m: int, ns: range, modulus: int, shift: int):
    """c(m, m**shift * n) mod ``modulus`` for each n of the consecutive range
    ``ns``, as ``count_b_residues``; stratum 0, c's all-ones partition,
    adds 1."""
    return _residue_block(m, ns, modulus, shift, gapfree=True)


def count_b_poly(m: int, n: int) -> int:
    """Chained summation over the digit bounds, collapsed level by level:
    g_0 = 1, g_t(k) = sum of g_{t-1} over [0, alpha_t + m*k], and b(m, n)
    the sum of g_{j-1} over [0, alpha_j]: the one stratum of its chain,
    met in the middle (``_chain_total``)."""
    return _chain_total(m, *kernels.chain(m, n, gapfree=False))


def b_estimate(m: int, n: int, cap: int) -> int:
    """The lower bound n//m + 1 when that alone exceeds cap: the partitions
    into parts 1 and m already number n//m + 1.  Otherwise the upper bound
    prod_{t=1..j} (n//m**t + 1) when that is at most cap, since each member
    has 0 <= beta_t <= n//m**t; otherwise b(m, n) exactly.  Either way the
    result exceeds cap exactly when b(m, n) does, and the exact count is
    only taken for n below about m*cap, where it is cheap, and only where
    the upper bound passes cap.  The two nested routes check it after
    (m, n) and before walking, so that their refusal can name the count
    they would need."""
    q = n // m
    bound = q + 1  # the floor, and the upper bound's t = 1 factor
    if bound > cap:
        return bound
    while q >= m and bound <= cap:
        q //= m
        bound *= q + 1
    return bound if bound <= cap else count_b_poly(m, n)


def _loop_cap(m: int, n: int, need: str, route: str) -> int:
    """``MPART_LOOP_BUDGET`` once (m, n) passes ``to_base`` and ``b_estimate``
    is within it, else LoopBudgetExceeded: the estimate worded by ``need``
    (``{m}`` the base), ``route`` the fallback."""
    to_base(m, n)
    cap = loop_budget()
    estimate = b_estimate(m, n, cap)
    if estimate > cap:
        raise LoopBudgetExceeded(
            f"nested summation for base {shown(m)}, n={shown(n)} {need.format(m=shown(m))} "
            f"{shown(estimate)} innermost steps (budget {shown(cap)}); use {route}"
        )
    return cap


def count_b_nested(m: int, n: int) -> int:
    """Literal evaluation of the chained sums over k_j..k_1.

    The innermost step count equals the answer itself, so
    ``MPART_LOOP_BUDGET`` is checked up front (against the lower bound
    n//m + 1, an upper bound or the polynomial count, see ``b_estimate``);
    the walker keeps its own count against it.  n < m takes the same path,
    one step, so budget 0 refuses it too.
    """
    return kernels.nested_sum_b(m, n, _loop_cap(m, n, "needs at least", "count_b_poly"))


def count_c_poly(m: int, n: int) -> int:
    """Gap-free count: the strata of ``kernels.chain``, collapsed by the
    level loop of ``count_b_poly``, each level built once for every
    stratum; stratum 0, the all-ones partition, adds 1."""
    return _chain_total(m, *kernels.chain(m, n, gapfree=True))


def count_c_nested(m: int, n: int) -> int:
    """Literal evaluation of the gap-free strata sums.

    Innermost steps total the answer; the pre-check of
    ``MPART_LOOP_BUDGET`` uses the plain partition count as an upper bound
    (gap-free partitions are a subset), keeping the guard independent of
    both gap-free routes.  So budget 0 refuses every n, n < m included.
    """
    need = "could need up to b({m}, n) >="
    return kernels.nested_sum_c(m, n, _loop_cap(m, n, need, "count_c_poly"))
