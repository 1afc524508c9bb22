"""The walkers count exactly and abort at exactly their cap."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpart import bijection, budgets, counting, kernels, partitions
from mpart.bijection import phi
from mpart.budgets import EnumerationBudgetExceeded, LoopBudgetExceeded, TableBudgetExceeded
from mpart.counting import count_c_poly, recurrence_table
from mpart.radix import consecutive_digits, to_base


def test_python_walker_leaf_counts_match_recurrence():
    for m in (2, 3, 5):
        table = recurrence_table(m, 90)
        for n in range(1, 91):
            assert kernels.nested_sum_b(m, n, 10**7) == table[n]
            assert kernels.walk_partitions(m, n, 10**7) == table[n]


def test_python_walker_cap_is_exact():
    # a cap of exactly the walker's own count passes; one below raises
    m, n = 2, 100
    walkers = {
        "nested_sum_b": lambda cap: kernels.nested_sum_b(m, n, cap),
        "nested_sum_c": lambda cap: kernels.nested_sum_c(m, n, cap),
        "walk_partitions": lambda cap: kernels.walk_partitions(m, n, cap),
        "walk_gapfree": lambda cap: kernels.walk_gapfree(m, n, cap),
    }
    counts = {name: walk(10**6) for name, walk in walkers.items()}
    assert counts == {"nested_sum_b": 9828, "nested_sum_c": 4914,
                      "walk_partitions": 9828, "walk_gapfree": 4914}
    refusals = {
        "nested_sum_b": (LoopBudgetExceeded,
                         "nested summation for base 2, n=100 exceeded budget 9827"),
        "nested_sum_c": (LoopBudgetExceeded,
                         "nested summation for base 2, n=100 exceeded budget 4913"),
        "walk_partitions": (EnumerationBudgetExceeded,
                            "more than 9827 partitions of 100 in base 2"),
        "walk_gapfree": (EnumerationBudgetExceeded,
                         "more than 4913 gap-free partitions of 100 in base 2"),
    }
    for name, walk in walkers.items():
        assert walk(counts[name]) == counts[name], name
        cls, text = refusals[name]
        with pytest.raises(cls) as info:
            walk(counts[name] - 1)
        assert str(info.value) == text, name


def test_unbounded_ints_beyond_64_bits():
    # one implementation on Python ints: no input size overflows
    n = 2**70 + 3
    with pytest.raises(LoopBudgetExceeded):
        kernels.nested_sum_b(2, n, 10)
    with pytest.raises(EnumerationBudgetExceeded):
        kernels.walk_partitions(2, n, 10)


def test_gapfree_walker_unbounded_ints_beyond_64_bits():
    with pytest.raises(EnumerationBudgetExceeded):
        kernels.walk_gapfree(2, 2**70 + 3, 10)


def test_partition_walkers_on_full_grid_with_exact_cap():
    # n < m takes the j = 0 path; every other n counts lambda_1 by its range
    for m in range(2, 8):
        table = recurrence_table(m, 149)
        for n in range(1, 150):
            expected = {
                "walk_partitions": table[n],
                "walk_gapfree": len(partitions.enumerate_c(m, n)),
            }
            for name, count in expected.items():
                walk = getattr(kernels, name)
                assert walk(m, n, 10**9) == count, (name, m, n)
                assert walk(m, n, count) == count, (name, m, n)
                with pytest.raises(EnumerationBudgetExceeded):
                    walk(m, n, count - 1)


def test_walkers_refuse_exactly_when_the_count_exceeds_the_cap():
    # the floors count the partitions into parts 1 and m alone; of those,
    # the gap-free ones are the all-ones partition and those with a part 1
    for m in (2, 3, 4, 5):
        table = recurrence_table(m, 119)
        for n in range(1, 120):
            c = len(partitions.enumerate_c(m, n))
            cases = {
                kernels.walk_partitions: (n // m + 1, table[n], EnumerationBudgetExceeded),
                kernels.walk_gapfree: ((n - 1) // m + 1, c, EnumerationBudgetExceeded),
                kernels.nested_sum_b: (n // m + 1, table[n], LoopBudgetExceeded),
                kernels.nested_sum_c: ((n - 1) // m + 1, c, LoopBudgetExceeded),
            }
            for walk, (floor, count, error) in cases.items():
                assert floor <= count  # the floor is sound
                for cap in {floor - 1, floor, count - 1, count}:
                    if count > cap:
                        with pytest.raises(error):
                            walk(m, n, cap)
                    else:
                        assert walk(m, n, cap) == count
        # n = 0: the empty partition alone, in no gap-free stratum
        assert kernels.walk_gapfree(m, 0, 1) == kernels.walk_gapfree(m, 0, 10**9) == 1
        with pytest.raises(EnumerationBudgetExceeded):
            kernels.walk_gapfree(m, 0, 0)


def test_partition_walkers_refuse_n_deeper_than_the_recursion_limit():
    # 2**1100 has 1101 binary digits; the floor refuses it before the walk
    walkers = {
        kernels.walk_partitions: EnumerationBudgetExceeded,
        kernels.walk_gapfree: EnumerationBudgetExceeded,
        kernels.nested_sum_b: LoopBudgetExceeded,
        kernels.nested_sum_c: LoopBudgetExceeded,
    }
    for walk, error in walkers.items():
        start = time.perf_counter()
        with pytest.raises(error):
            walk(2, 2**1100, 10**6)
        assert time.perf_counter() - start < 1.0


# Without a leaf, each walker iterates the level above the innermost in one
# range; every case has j >= 3, so literal levels sit above that pair.  The
# gap-free chains reach the pair's empty ranges: an innermost offset a_1 = -1
# ((2, 10), (2, 26), (3, 30)), a bound of -1 handed to the pair by a_2 = -1 at
# k_3 = 0 ((2, 12), (2, 100), (3, 36), (3, 200)), and a stratum top of -1
# above it ((2, 8), (3, 27), (4, 64), (4, 300)).
PAIR_CASES = [(2, 8), (2, 10), (2, 12), (2, 26), (2, 100), (3, 27), (3, 30), (3, 36),
              (3, 200), (4, 64), (4, 300), (5, 250), (7, 1000)]


def test_pair_cases_reach_the_empty_ranges():
    assert all(to_base(m, n).j >= 3 for m, n in PAIR_CASES)
    chains = [kernels.chain(m, n, gapfree=True) for m, n in PAIR_CASES]
    assert any(offsets[1] == -1 for offsets, _ in chains)
    assert any(offsets[2] == -1 for offsets, _ in chains)
    assert any(top == -1 for _, strata in chains for top in strata.values())



def _highest_changed_digit(before, after) -> int:
    """The index of the highest digit that differs, the top one where the
    digit count differs or there is no before."""
    if before is None or len(before) != len(after):
        return len(after) - 1
    return max(t for t, (a, b) in enumerate(zip(before, after)) if a != b)


@pytest.mark.parametrize("gapfree", (False, True))
@pytest.mark.parametrize("m", (2, 3, 4, 5, 6, 7, 10))
def test_carried_chains_equal_the_chain_of_each_point(m, gapfree):
    # the carry renews levels 1..low, c's tops through the quotients; at
    # every n the carried chain must be the one-point chain of m**shift * n,
    # and low one above the highest digit that changed, over blocks from 0
    # (every top-digit carry up to m**2) and across m**k - 1 -> m**k
    blocks = [range(m * m + 2)] + [range(m**k - m - 1, m**k + m + 1) for k in range(2, 5)]
    for shift in range(4):
        for ns in blocks:
            chains = kernels.carried_chains(m, consecutive_digits(m, ns, shift), gapfree)
            before = None
            for n, (offsets, strata, low) in zip(ns, chains, strict=True):
                x = m**shift * n
                want_offsets, want_strata = kernels.chain(m, x, gapfree)
                depth = max(want_strata)
                assert list(strata.items()) == list(want_strata.items()), (shift, n)
                assert list(offsets[1:depth]) == list(want_offsets[1:depth]), (shift, n)
                digits = to_base(m, x).digits
                assert low == _highest_changed_digit(before, digits) + 1, (shift, n)
                before = digits

@pytest.mark.parametrize("m, n", PAIR_CASES)
def test_batched_pair_counts_and_refuses_exactly(m, n):
    b = recurrence_table(m, n)[n]
    c = len(partitions.enumerate_c(m, n))
    cases = {
        kernels.nested_sum_b: (n // m + 1, b, LoopBudgetExceeded),
        kernels.nested_sum_c: ((n - 1) // m + 1, c, LoopBudgetExceeded),
        kernels.walk_partitions: (n // m + 1, b, EnumerationBudgetExceeded),
        kernels.walk_gapfree: ((n - 1) // m + 1, c, EnumerationBudgetExceeded),
    }
    for walk, (floor, count, error) in cases.items():
        assert floor < count, walk  # so the walk itself refuses at count - 1
        assert walk(m, n, 10**9) == count, walk
        assert walk(m, n, count) == count, walk
        with pytest.raises(error):
            walk(m, n, count - 1)


@pytest.mark.parametrize("m, n", PAIR_CASES)
def test_leaf_walks_visit_every_leaf_in_order(m, n):
    # with a visitor the pair is iterated literally, one run per value of the
    # loop variables above the innermost: its runs expand to b leaves, each a
    # distinct solution, in each walker's documented order
    b = recurrence_table(m, n)[n]
    j = to_base(m, n).j
    sequences = []

    def chain_run(ks, count):  # k_1 = 0..count-1 beside k_2..k_j
        sequences.extend((k, *ks[1:j]) for k in range(count))

    assert kernels.nested_sum_b(m, n, b, chain_run) == b
    assert sequences == [phi(p, n).betas for p in partitions.enumerate_b(m, n)]
    assert sequences == sorted(set(sequences), key=lambda ks: ks[::-1])
    mults = []

    def partition_run(lams, rem):  # lambda_1 = rem//m..0, lambda_0 the rest
        mults.extend((rem - m * lam, lam, *lams[2:]) for lam in range(rem // m, -1, -1))

    assert kernels.walk_partitions(m, n, b, partition_run) == b
    assert all(sum(lam * m**t for t, lam in enumerate(lams)) == n for lams in mults)
    assert mults == sorted(set(mults), key=lambda lams: lams[::-1], reverse=True)


RUN_CASES = [(m, n) for m in range(2, 7) for n in range(151)] + [(10, 1234), (10**5, 10**10 + 7)]


def test_partition_walk_leaves_come_in_innermost_runs():
    # one run per (lambda_2, ..., lambda_j), in the walk's order, starting
    # exactly at lambda_0 < m; inside it each leaf is the one before with
    # lambda_1 - 1 and lambda_0 + m, so beta_1 + lambda_1 stays fixed over
    # the run (the table relies on this)
    for m, n in RUN_CASES:
        runs, leaves = [], []

        def visit(lams, rem):
            runs.append(tuple(lams[2:]))
            if len(lams) == 1:  # j = 0: the one leaf lambda_0 = rem
                leaves.append((rem,))
            else:
                leaves.extend((rem - m * lam, lam, *lams[2:]) for lam in range(rem // m, -1, -1))

        assert kernels.walk_partitions(m, n, 10**6, visit) == len(leaves), (m, n)
        assert all(sum(lam * m**t for t, lam in enumerate(lams)) == n for lams in leaves)
        starts = [lams[2:] for lams in leaves if lams[0] < m]
        assert starts == runs, (m, n)
        assert leaves[0][0] < m, (m, n)
        for before, lams in zip(leaves, leaves[1:]):
            assert lams[0] < m or lams == (before[0] + m, before[1] - 1, *before[2:]), (m, n)
        assert len(starts) == len(set(starts)) == len({lams[2:] for lams in leaves}), (m, n)


@pytest.fixture
def default_int_str_limit():
    """The interpreter's default int -> str limit, 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int -> str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def test_refusals_past_the_int_str_limit(default_int_str_limit):
    # 10**5000 has more digits than the interpreter will format; the
    # refusal text shows it by its bit length and the budget error is raised
    n = 10**5000
    calls = {
        "walk_partitions": (lambda: kernels.walk_partitions(2, n, 10),
                            EnumerationBudgetExceeded),
        "walk_gapfree": (lambda: kernels.walk_gapfree(2, n, 10), EnumerationBudgetExceeded),
        "nested_sum_b": (lambda: kernels.nested_sum_b(2, n, 10), LoopBudgetExceeded),
        "nested_sum_c": (lambda: kernels.nested_sum_c(2, n, 10), LoopBudgetExceeded),
        "count_b_nested": (lambda: counting.count_b_nested(2, n), LoopBudgetExceeded),
        "count_c_nested": (lambda: counting.count_c_nested(2, n), LoopBudgetExceeded),
        "count_b_enum": (lambda: partitions.count_b_enum(2, n), EnumerationBudgetExceeded),
        "count_c_enum": (lambda: partitions.count_c_enum(2, n), EnumerationBudgetExceeded),
        "enumerate_b": (lambda: partitions.enumerate_b(2, n), EnumerationBudgetExceeded),
        "enumerate_c": (lambda: partitions.enumerate_c(2, n), EnumerationBudgetExceeded),
        "enumerate_members": (lambda: bijection.enumerate_members(2, n),
                              EnumerationBudgetExceeded),
        "recurrence_table": (lambda: counting.recurrence_table(2, n), TableBudgetExceeded),
        "count_b_gf": (lambda: counting.count_b_gf(2, n), TableBudgetExceeded),
    }
    for name, (call, error) in calls.items():
        start = time.perf_counter()
        with pytest.raises(error) as info:
            call()
        assert time.perf_counter() - start < 1.0, name
        assert type(info.value) is error, name
        assert "<16610-bit integer>" in str(info.value), name
    with pytest.raises(EnumerationBudgetExceeded) as info:
        kernels.walk_partitions(2, n, 10)
    assert str(info.value) == "more than 10 partitions of <16610-bit integer> in base 2"


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 10), st.integers(0, 3000))
def test_walk_partitions_matches_recurrence_property(m, n):
    # b(m, n) can exceed the cap here (b(2, 3000) is about 6e12); the walker
    # then raises, after about 0.5 s for m = 2, hence the example count
    cap = 10**9
    b = recurrence_table(m, n)[n]
    if b > cap:
        with pytest.raises(EnumerationBudgetExceeded):
            kernels.walk_partitions(m, n, cap)
    else:
        assert kernels.walk_partitions(m, n, cap) == b
    # the gap-free walk sums the same walk over its strata; at 10**6 it
    # refuses within about 0.003 s
    c = count_c_poly(m, n)
    if c > 10**6:
        with pytest.raises(EnumerationBudgetExceeded):
            kernels.walk_gapfree(m, n, 10**6)
    else:
        assert kernels.walk_gapfree(m, n, 10**6) == c


def test_budget_variable_past_the_int_str_limit(monkeypatch, default_int_str_limit):
    # a budget longer than the digit limit is still a number, and a malformed
    # one that long is shown by its start and length
    monkeypatch.setenv("MPART_ENUM_BUDGET", "1" + "0" * 5000)
    assert budgets.enum_budget() == 10**5000
    assert partitions.count_b_enum(3, 20) == recurrence_table(3, 20)[20]
    monkeypatch.setenv("MPART_ENUM_BUDGET", "1" * 5000 + "x")
    with pytest.raises(ValueError) as info:
        partitions.count_b_enum(3, 20)
    assert str(info.value) == ("MPART_ENUM_BUDGET must be a nonnegative integer, got '"
                               + "1" * 40 + "'... (5001 characters)")
