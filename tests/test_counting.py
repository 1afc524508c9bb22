import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart import counting, polysum
from mpart.bijection import enumerate_members
from mpart.budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, TableBudgetExceeded
from mpart.cli import _full_decimal
from mpart.counting import (
    count_b_gf,
    count_b_nested,
    count_b_poly,
    count_b_recurrence,
    count_c_nested,
    count_c_poly,
    recurrence_table,
)
from mpart.kernels import chain
from mpart.partitions import count_b_enum, count_c_enum, enumerate_b, enumerate_c
from mpart.radix import chi_vector, to_base


def test_chi_vector_known_cases():
    assert chi_vector(to_base(5, 485)) == (1, 0, 0)   # (chi_1, chi_2, chi_3)
    assert chi_vector(to_base(4, 73)) == (0, 0, 1)
    assert chi_vector(to_base(3, 13)) == (0, 0)       # all digits positive
    assert chi_vector(to_base(7, 6)) == ()


def test_count_b_known_values():
    for count in (count_b_nested, count_b_poly, count_b_recurrence):
        assert count(3, 10) == 5
        assert count(4, 36) == 18
        assert count(7, 6) == 1
        assert count(2, 10) == 14
        assert count(2, 16) == 36
    assert count_b_gf(3, 10)[10] == 5
    assert count_b_gf(2, 16)[16] == 36


def test_count_b_at_zero():
    assert count_b_recurrence(5, 0) == 1
    assert count_b_poly(5, 0) == 1
    assert count_b_nested(5, 0) == 1
    assert count_b_gf(5, 0) == [1]


def test_gf_matches_recurrence_vector():
    for m in (2, 3, 4, 5, 9):
        assert count_b_gf(m, 600) == recurrence_table(m, 600)


def test_poly_matches_recurrence_large():
    assert count_b_poly(2, 1024) == count_b_recurrence(2, 1024)
    assert count_b_poly(3, 3**9) == count_b_recurrence(3, 3**9)


def test_poly_handles_huge_n():
    # far beyond any table: value checked for digit-shift consistency
    n = 10**30
    value = count_b_poly(10, n)
    assert value > 0
    # multiplying n by the base only appends a zero digit; counts must grow
    assert count_b_poly(10, 10 * n) > value


@settings(deadline=None)
@given(st.integers(2, 10), st.integers(0, 5000))
def test_poly_matches_recurrence_property(m, n):
    assert count_b_poly(m, n) == recurrence_table(m, n)[n]


def _residue_b(m: int, n: int, modulus: int) -> int:
    """b(m, n) mod ``modulus``, the one-point block of the residue route."""
    [residue] = counting.count_b_residues(m, range(n, n + 1), modulus, 0)
    return residue


def _residue_c(m: int, n: int, modulus: int) -> int:
    """c(m, n) mod ``modulus``, the one-point block of the residue route."""
    [residue] = counting.count_c_residues(m, range(n, n + 1), modulus, 0)
    return residue


@settings(deadline=None, max_examples=1000)
@given(st.data())
def test_residue_route_equals_the_exact_count_mod_m(data):
    # every residue check reduces the level loop mod M; the residue must be
    # the exact count's, for the moduli the checks use.  The residue route's
    # loop runs to its top on reduced steps; the exact one meets in the
    # middle, so this sets the transposed half against the reduced steps
    m = data.draw(st.integers(2, 10), label="m")
    n = data.draw(st.one_of(st.integers(0, 2000), st.integers(0, m**40)), label="n")
    k = data.draw(st.integers(1, 40), label="k")
    b, c = count_b_poly(m, n), count_c_poly(m, n)
    for modulus in (m, m**2, m**4, 2 ** (3 * k + 2)):
        assert _residue_b(m, n, modulus) == b % modulus
        assert _residue_c(m, n, modulus) == c % modulus
        if n <= 2000:  # a route that does not run the level loop
            assert _residue_b(m, n, modulus) == recurrence_table(m, n)[n] % modulus


def test_residue_memo_keys_do_not_collide_across_bases_and_moduli():
    # the residue route memoises its level step by (m, M, coefficients,
    # offset); bases and moduli interleave so that equal coefficient
    # vectors meet under other keys, run cold and then in reverse order
    # through the filled memo
    cases = [(m, n, modulus)
             for n in range(2000, 2040)
             for m in range(2, 11)
             for modulus in (m, m * m, 2 ** (3 * (n % 3 + 1) + 2), 7)]
    tables = {m: recurrence_table(m, 2039) for m in range(2, 11)}
    exact_c = {(m, n): count_c_poly(m, n) for m, n, _ in cases}
    memo = counting._residue_level
    memo.cache_clear()
    for order in (cases, cases[::-1]):
        for m, n, modulus in order:
            assert _residue_b(m, n, modulus) == tables[m][n] % modulus
            assert _residue_c(m, n, modulus) == exact_c[m, n] % modulus
    assert memo.cache_info().hits > 0


def test_exact_route_stays_out_of_the_residue_memo():
    memo = counting._residue_level
    memo.cache_clear()
    count_b_poly(2, 2**200 + 12345)
    count_c_poly(3, 3**90 + 5)
    assert memo.cache_info().currsize == 0
    for cache in (memo, polysum._scaling_table):
        assert isinstance(cache.cache_info().maxsize, int)


@settings(deadline=None)
@given(st.data())
def test_split_loop_equals_the_bottom_up_loop(data):
    # a modulus above the count keeps every value and runs the residue
    # route's loop bottom-up only; the exact count splits it and runs the
    # top transposed
    m = data.draw(st.integers(2, 10), label="m")
    n = data.draw(st.integers(0, m**60), label="n")
    for count, residue in ((count_b_poly, _residue_b), (count_c_poly, _residue_c)):
        exact = count(m, n)
        assert residue(m, n, 1 << exact.bit_length()) == exact


def _block_grid(m: int) -> list[range]:
    """Blocks of consecutive n at base m: from 0, from 1, and across m**k
    for the two smallest k with m**k > 5; for m >= 3 also across 2 * m**k
    at the smallest, a carry into the top digit where no power of m starts."""
    ks = [k for k in range(1, 6) if m**k > 5][:2]
    tops = [range(2 * m**ks[0] - 5, 2 * m**ks[0] + 6)] if m >= 3 else []
    return [range(0, 12), range(1, 12), *(range(m**k - 5, m**k + 6) for k in ks), *tops]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 10, 10**5])
def test_block_residues_equal_the_exact_counts_point_by_point(m):
    # a block shares x = m**shift * n's digits above the carry, each level's
    # dict its residues; every point must still be the exact count's
    for shift in range(4):
        for ns in _block_grid(m):
            b = [count_b_poly(m, m**shift * n) for n in ns]
            c = [count_c_poly(m, m**shift * n) for n in ns]
            for modulus in (m, m * m, 2**5, 2**8):
                assert list(counting.count_b_residues(m, ns, modulus, shift)) == [
                    x % modulus for x in b], (shift, ns, modulus)
                assert list(counting.count_c_residues(m, ns, modulus, shift)) == [
                    x % modulus for x in c], (shift, ns, modulus)


def _level_loop_residue(m: int, x: int, modulus: int, gapfree: bool) -> int:
    """b or c at x mod ``modulus`` point by point: the chain's levels from
    the bottom up, each substituted, reduced and prefix-summed afresh, with
    no memo and nothing shared between points."""
    offsets, strata = chain(m, x, gapfree)
    depth = max(strata, default=0)
    s, total = polysum.IntPolynomial((1, 1)), int(0 in strata)  # stratum 0 adds 1
    for t in range(1, depth + 1):
        if t in strata:
            total += s.eval(strata[t])
        if t < depth:
            h = s.compose_affine(m, offsets[t])
            s = polysum.IntPolynomial.from_coeffs([c % modulus for c in h.coeffs]).prefix_sum()
    return total % modulus


def test_block_residues_at_a_large_n_equal_the_level_loop_point_by_point():
    # ten n from 2**1100, the first a power of 2, where no exact count ends
    ns = range(2**1100, 2**1100 + 10)
    for shift in (0, 1, 3):
        for modulus in (2, 2**5):
            for gapfree, block in ((False, counting.count_b_residues),
                                   (True, counting.count_c_residues)):
                assert list(block(2, ns, modulus, shift)) == [
                    _level_loop_residue(2, 2**shift * n, modulus, gapfree) for n in ns]


# (digit count, SHA-256 of the decimal) of b and c.  The first two were
# computed with an independent substitution: interpolation from d+1 point
# values; the rest by the level loop run bottom-up only, before it met in
# the middle.
PINNED = {
    (2, 2**120 + 12345): (
        (1960, "8f22148962877b6d3347d71abf93aadade11088bd84b8e71bbbbcb77d9079441"),
        (1959, "2fdc4f202780978e7b075657b0b269d1f01d8df54d356cac0de4a0d8559ada56"),
    ),
    (10, 10**60 + 7): (
        (1691, "9ac5f560e2d5cf93a5505e4f2c96a6c07ae61700596c2972b71d0167de0ec0e4"),
        (1691, "2d732c7d4db774fa56e8d35cdfcfb87884e7d28092749c38cb114913129831ce"),
    ),
    (2, 2**200 + 12345): (
        (5626, "2083785a9c2e4f42d292cb5c9f75b31f6cdc3b48ec279dfa675101319351b5dd"),
        (5626, "682ce82e46ea22032d15b3beb58aa7409d1f0b089faf67f1149daf46c8c5d223"),
    ),
    (3, 3**90 + 5): (
        (1778, "de41797079419e6675acf0c9eeab954b7dc1e968d0cf9de9b5f2b2d2cc609896"),
        (1778, "53d04ee5181845543dcb3d98b2ce7a0d9cabe0c1e050ce782f61ebfc0d4d1c18"),
    ),
    (5, 5**83 + 11): (
        (2258, "14ec570bd70de1c6e167624b31361975f6307474900181b328bb9f28b488fb38"),
        (2258, "16ca1fb1afdf71b196c7ae92d7959c1d0e67e5f01279ad2bd0f0ac8054635a68"),
    ),
}


def _fingerprint(value: int) -> tuple[int, str]:
    with _full_decimal():  # the 2**200 counts pass the int -> str limit
        text = str(value)
    return len(text), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("m, n", PINNED)
def test_poly_counts_pinned_at_large_n(m, n):
    b_pin, c_pin = PINNED[(m, n)]
    assert _fingerprint(count_b_poly(m, n)) == b_pin
    assert _fingerprint(count_c_poly(m, n)) == c_pin


def _reference_counts(m: int, top: int) -> tuple[list[int], list[int]]:
    """b(m, 0..top) and c(m, 0..top) without the level loop: p_r counts
    partitions of x into parts 1, m, ..., m**r, b is the limit over r, and
    c(n) = sum_r p_r(n - s_r) with s_r = 1 + m + ... + m**r."""
    p = [1] * (top + 1)
    c = [1] + [0] * top
    power, s = 1, 1
    while s <= top:
        for x in range(s, top + 1):
            c[x] += p[x - s]
        power *= m
        s += power
        for x in range(power, top + 1):
            p[x] += p[x - power]
    while power * m <= top:
        power *= m
        for x in range(power, top + 1):
            p[x] += p[x - power]
    return p, c


def _has_top_offset_minus_one(m: int, n: int) -> bool:
    """Whether c's chain meets an offset -1 above the split, where the
    covector undoes a unit shift."""
    offsets, strata = chain(m, n, gapfree=True)
    depth = max(strata, default=0)
    return -1 in offsets[(6 * depth + 5) // 10:depth]


SPLIT_EDGES = {  # base -> n at the split's edge cases, up to m**4; mod M
    # the same n run the residue route's loop to the top: depth 0, depth 1
    # and the offsets -1 on the reduced side
    m: sorted({
        *range(m),  # c's chain is empty: depth 0
        m, m + 1, 2 * m - 1, m * m - 1,  # depth 1: no level above the split
        m * m, m * m + m - 1, m**3 - 1,  # depth 2: one level above it
        *(x for k in range(1, 5) for x in (m**k - 1, m**k)),
        *[n for n in range(m**3, m**4) if _has_top_offset_minus_one(m, n)][:12],
    })
    for m in (2, 3, 4, 5, 7, 10)
}


@pytest.mark.parametrize("m", SPLIT_EDGES)
def test_split_edge_cases_match_reference_tables(m):
    b, c = _reference_counts(m, m**4)
    assert any(_has_top_offset_minus_one(m, n) for n in SPLIT_EDGES[m])
    for n in SPLIT_EDGES[m]:
        assert count_b_poly(m, n) == b[n], n
        assert count_c_poly(m, n) == c[n], n
        for modulus in (m, m * m, 7, 2**5):
            assert _residue_b(m, n, modulus) == b[n] % modulus, (n, modulus)
            assert _residue_c(m, n, modulus) == c[n] % modulus, (n, modulus)


def test_level_loop_steps_once_per_level_below_its_split(monkeypatch):
    # one loop steps S_1 .. S_split: on the residue route's one-point block
    # the split is the top and each step one (memoised) reduced level, on the
    # exact route round(0.6 * depth) and each step one substitution; the
    # reduced steps compose on a memo miss, so only their own count is pinned
    calls = {}
    residue_level = counting._residue_level
    compose_affine = polysum.IntPolynomial.compose_affine

    def residue_spy(*args):
        calls["residue"] += 1
        return residue_level(*args)

    def compose_spy(p, a, b):
        calls["compose"] += 1
        return compose_affine(p, a, b)

    monkeypatch.setattr(counting, "_residue_level", residue_spy)
    monkeypatch.setattr(polysum.IntPolynomial, "compose_affine", compose_spy)
    for m, n in ((2, 2**40 + 12345), (3, 3**25 + 5), (10, 10**12 + 7), (4, 20), (5, 7)):
        for gapfree, count, residue in ((False, count_b_poly, _residue_b),
                                        (True, count_c_poly, _residue_c)):
            depth = max(chain(m, n, gapfree)[1])
            calls.update(residue=0, compose=0)
            residue(m, n, m**3)
            assert calls["residue"] == depth - 1, (m, n, gapfree)
            calls.update(residue=0, compose=0)
            count(m, n)
            assert calls == {"residue": 0, "compose": (6 * depth + 5) // 10 - 1}, (m, n, gapfree)


def test_poly_counts_are_one_below_the_base():
    for m in range(2, 11):
        for n in (0, 1, m - 1):
            assert count_b_poly(m, n) == count_c_poly(m, n) == 1


def test_four_way_agreement_medium_grid(set_budget):
    set_budget(10**6)
    nested_runs = 0
    for m in (2, 3, 4, 5):
        top = 400
        table = recurrence_table(m, top)
        gf = count_b_gf(m, top)
        for n in range(1, top + 1):
            assert gf[n] == table[n]
            assert count_b_poly(m, n) == table[n]
            try:
                nested = count_b_nested(m, n)
            except LoopBudgetExceeded:
                continue
            nested_runs += 1
            assert nested == table[n]
    assert nested_runs > 1200


def test_flat_segments_between_multiples():
    for m in (3, 5, 7):
        table = recurrence_table(m, 300)
        for n in range(1, 301):
            if n % m:
                assert table[n] == table[n - 1]


def test_count_c_known_values():
    for count in (count_c_nested, count_c_poly):
        assert count(4, 73) == 51
        assert count(5, 2425) == 230358
        assert count(7, 6) == 1
        assert count(3, 10) == 4
        assert count(5, 0) == 1


def test_count_c_strata_for_4_73():
    # strata by largest part: 1 (all ones) + 18 (top part 4) + 32 (top 16) + 0
    by_top = {}
    for p in enumerate_c(4, 73):
        top = len(p.mults) - 1
        by_top[top] = by_top.get(top, 0) + 1
    assert by_top == {0: 1, 1: 18, 2: 32}
    assert count_c_poly(4, 73) == 1 + 18 + 32


def test_three_way_agreement_c():
    for m in (2, 3, 4, 5):
        for n in range(1, 200):
            poly = count_c_poly(m, n)
            assert count_c_nested(m, n) == poly
            assert count_c_enum(m, n) == poly


def test_monotone_sanity():
    for m in (2, 3, 5):
        table = recurrence_table(m, 200)
        for n in range(1, 201):
            c = count_c_poly(m, n)
            assert table[n] >= c >= 1


def test_counts_match_enumerations():
    for m in (2, 3, 4, 5):
        for n in range(1, 100):
            assert count_b_poly(m, n) == len(enumerate_b(m, n))
            assert count_c_poly(m, n) == len(enumerate_c(m, n))


def test_nested_budget_raises(set_budget):
    with pytest.raises(LoopBudgetExceeded):
        count_b_nested(2, 100000)
    set_budget(100)
    with pytest.raises(LoopBudgetExceeded):
        count_b_nested(2, 300)
    set_budget(None)
    with pytest.raises(LoopBudgetExceeded):
        count_c_nested(2, 100000)


def test_nested_refuses_huge_n_at_once():
    # the lower bound n//m + 1 alone exceeds any budget here; an exact
    # pre-count would need a 1001-digit polynomial count
    for count in (count_b_nested, count_c_nested):
        start = time.perf_counter()
        with pytest.raises(LoopBudgetExceeded):
            count(2, 2**1000)
        assert time.perf_counter() - start < 1.0


def test_nested_refusal_is_exact(set_budget):
    # refused exactly when b(m, n) exceeds the budget, by either pre-check
    for m, n in ((2, 300), (3, 1000), (5, 2425)):
        b = count_b_poly(m, n)
        set_budget(b)
        assert count_b_nested(m, n) == b
        assert count_c_nested(m, n) == count_c_poly(m, n)
        for budget in (b - 1, n // m):
            set_budget(budget)
            with pytest.raises(LoopBudgetExceeded):
                count_b_nested(m, n)
            with pytest.raises(LoopBudgetExceeded):
                count_c_nested(m, n)


def test_estimate_exceeds_cap_exactly_when_b_does():
    # whether b_estimate answers with its floor, its upper bound or the
    # exact count, it lies on the same side of cap as b(m, n); the caps b - 1
    # and b sit at the edge, where an upper bound one factor short passes
    for m in range(2, 8):
        exact = [count_b_poly(m, n) for n in range(3000)]
        for n, b in enumerate(exact):
            for cap in (0, 1, 10, 100, 10**4, 10**6, b - 1, b):
                assert (counting.b_estimate(m, n, cap) > cap) == (b > cap), (m, n, cap)


def test_nested_route_skips_the_exact_count_under_the_upper_bound(monkeypatch):
    # prod (1300//5**t + 1) = 261*53*11*3 is far below the default budget, so
    # the pre-check needs no polynomial count before the walk
    calls = []
    poly = counting.count_b_poly
    monkeypatch.setattr(counting, "count_b_poly",
                        lambda m, n, *rest: calls.append((m, n)) or poly(m, n, *rest))
    assert count_b_nested(5, 1300) == poly(5, 1300)
    assert calls == []


def test_brute_force_routes_check_their_budget_below_the_base(set_budget):
    # n < m has one partition and one sequence, walked like any other, so
    # budget 0 refuses it and budget 1 lets it through
    counters = ((count_b_nested, LoopBudgetExceeded), (count_c_nested, LoopBudgetExceeded),
                (count_b_enum, EnumerationBudgetExceeded),
                (count_c_enum, EnumerationBudgetExceeded))
    enumerations = (enumerate_b, enumerate_c, enumerate_members)
    for m in (2, 3, 10):
        set_budget(0)
        for n in (0, 1, m - 1, m):
            for count, refusal in counters:
                with pytest.raises(refusal):
                    count(m, n)
            if n > 0:
                for enumerate_ in enumerations:
                    with pytest.raises(EnumerationBudgetExceeded):
                        enumerate_(m, n)
        set_budget(1)
        for n in range(m):
            for count, _ in counters:
                assert count(m, n) == 1


def test_table_routes_refuse_past_the_enumeration_budget(monkeypatch):
    monkeypatch.setenv("MPART_ENUM_BUDGET", "100")
    assert recurrence_table(3, 100) == count_b_gf(3, 100)
    for upto in (101, 2**70, 10**12):
        with pytest.raises(TableBudgetExceeded):
            recurrence_table(3, upto)
        with pytest.raises(TableBudgetExceeded):
            count_b_gf(3, upto)


def _prefix_shift_valid(m: int, alpha, chi) -> bool:
    """Whether every inner sum's upper bound in the gap-free chain stays >=
    its lower bound - 1 over the ranges actually iterated, so that counted
    from zero every range has length >= 0.  With hi = alpha_t - 1 + m*k and
    k >= chi_{t+1} this always holds (alpha_t = 0 forces chi_{t+1} = 1, so
    hi >= m - 1)."""
    j = len(alpha) - 1
    for t in range(1, j):
        if alpha[t] - 1 + m * chi[t] < chi[t - 1] - 1:
            return False
    return True


def test_prefix_shift_validity_holds_everywhere():
    # the bound the polynomial level loop and the nested walker rely on:
    # exhaustive check, on the digits and on the chain as derived
    for m in (2, 3, 4, 5, 7, 11):
        for n in range(1, 3000):
            r = to_base(m, n)
            assert _prefix_shift_valid(m, r.digits, chi_vector(r))
            offsets, strata = chain(m, n, gapfree=True)
            depth = max(strata)
            assert min((*offsets[:depth], *strata.values()), default=-1) >= -1


def test_argument_validation():
    with pytest.raises(ValueError):
        count_b_poly(2, -1)
    with pytest.raises(ValueError):
        recurrence_table(1, 10)
    with pytest.raises(ValueError):
        count_b_gf(2, -1)
    for residue in (_residue_b, _residue_c):
        for modulus in (0, -3):
            with pytest.raises(ValueError, match=f"modulus must be positive, got {modulus}"):
                residue(3, 100, modulus)
            start = time.perf_counter()  # refused before the level loop runs
            with pytest.raises(ValueError, match="modulus must be positive"):
                residue(2, 2**400, modulus)
            assert time.perf_counter() - start < 1.0
    for block in (counting.count_b_residues, counting.count_c_residues):
        for ns in (range(5, 12, 2), range(9, 5, -1)):
            with pytest.raises(ValueError, match=f"range step must be 1, got {ns.step}"):
                block(2, ns, 1000, 0)
        for modulus in (1000, 0):  # the shift is checked before the modulus
            with pytest.raises(ValueError, match="shift must be nonnegative, got -1"):
                block(2, range(5, 9), modulus, -1)


def test_every_formula_route_checks_the_base_at_n_zero():
    routes = (count_b_poly, count_c_poly, count_b_nested, count_c_nested)
    for count in routes:
        assert count(2, 0) == count(7, 0) == 1
        for m in (-1, 0, 1):
            with pytest.raises(ValueError, match="base must be >= 2"):
                count(m, 0)
