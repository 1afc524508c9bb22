import time

import pytest

from mpart import kernels
from mpart.bijection import enumerate_members
from mpart.budgets import EnumerationBudgetExceeded, LoopBudgetExceeded
from mpart.counting import count_c_poly, recurrence_table
from mpart.partitions import (
    MaryPartition,
    count_b_enum,
    count_c_enum,
    enumerate_b,
    enumerate_c,
    is_gap_free,
    weight,
)
from walks import materialise

# the five 3-ary partitions of 10 (multiplicities, lowest exponent first):
# 9+1, 3+3+3+1, 3+3+1+1+1+1, 3+1*7, 1*10
TERNARY_10 = [(1, 0, 1), (1, 3), (4, 2), (7, 1), (10,)]


def test_weight_examples():
    assert weight(MaryPartition(3, (1, 0, 1))) == 10
    assert weight(MaryPartition(4, (1, 6, 3))) == 73
    assert weight(MaryPartition(2, (5,))) == 5


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        MaryPartition(3, (1, 0))  # trailing zero at top exponent
    with pytest.raises(ValueError):
        MaryPartition(3, (-1, 2))
    with pytest.raises(ValueError):
        MaryPartition(1, (3,))
    with pytest.raises(ValueError):
        MaryPartition(3, ())


def test_enumerate_b_ternary_10():
    assert [p.mults for p in enumerate_b(3, 10)] == TERNARY_10


def test_enumerate_b_4_36_matches_known_column():
    rows = [(0,) * (3 - len(p.mults)) + p.msb_first() for p in enumerate_b(4, 36)]
    assert len(rows) == 18
    assert rows[0] == (2, 1, 0)
    assert rows[1] == (2, 0, 4)
    assert rows[8] == (0, 9, 0)
    assert rows[-1] == (0, 0, 36)


def test_enumerate_b_singleton_below_base():
    assert [p.mults for p in enumerate_b(7, 6)] == [(6,)]


def test_enumeration_order_is_descending_lex():
    for m, n in [(2, 37), (3, 50), (4, 73), (5, 88)]:
        rows = enumerate_b(m, n)
        j = max(len(p.mults) - 1 for p in rows)
        padded = [(0,) * (j + 1 - len(p.mults)) + p.msb_first() for p in rows]
        assert padded == sorted(padded, reverse=True)
        assert len(set(padded)) == len(padded)


def test_every_member_has_weight_n():
    for m, n in [(2, 33), (3, 44), (5, 77)]:
        for p in enumerate_b(m, n):
            assert weight(p) == n


def test_is_gap_free_examples():
    assert is_gap_free(MaryPartition(4, (1, 6, 3)))
    assert not is_gap_free(MaryPartition(3, (1, 0, 1)))
    assert is_gap_free(MaryPartition(9, (14,)))


def test_enumerate_c_is_the_gap_free_subset():
    points = [(2, 40), (3, 30), (4, 73), (5, 60), (7, 6)]
    points += [(m, n) for m in range(2, 8) for n in range(1, 101)]
    for m, n in points:
        filtered = [p for p in enumerate_b(m, n) if is_gap_free(p)]
        assert enumerate_c(m, n) == filtered, (m, n)


def test_enumerate_c_counts():
    assert len(enumerate_c(4, 73)) == 51
    assert len(enumerate_c(3, 10)) == 4
    assert [p.mults for p in enumerate_c(7, 6)] == [(6,)]


def test_enumerate_c_stratified_by_top_exponent():
    by_top = {}
    for p in enumerate_c(4, 73):
        top = len(p.mults) - 1
        by_top[top] = by_top.get(top, 0) + 1
    assert by_top == {0: 1, 1: 18, 2: 32}


def test_enumeration_count_matches_recurrence(set_budget):
    set_budget(10**6)
    for m in (2, 3, 4, 5):
        table = recurrence_table(m, 200)
        for n in range(1, 201):
            assert len(enumerate_b(m, n)) == table[n]


def test_walk_counts_match_enumerations():
    for m in (2, 3, 4, 5):
        for n in range(1, 120):
            assert count_b_enum(m, n) == len(enumerate_b(m, n))
            assert count_c_enum(m, n) == len(enumerate_c(m, n))


def test_budget_guard(set_budget):
    set_budget(100)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_b(2, 500)
    with pytest.raises(EnumerationBudgetExceeded):
        count_b_enum(2, 500)
    set_budget(50)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_c(2, 4000)
    with pytest.raises(EnumerationBudgetExceeded):
        count_c_enum(2, 4000)


def test_zero_and_negative_n():
    assert count_b_enum(5, 0) == 1
    assert count_c_enum(5, 0) == 1
    with pytest.raises(ValueError):
        enumerate_b(5, 0)
    with pytest.raises(ValueError):
        count_b_enum(5, -1)
    for m in (-1, 0, 1):
        for n in (0, 5):
            for call in (enumerate_b, enumerate_c, count_b_enum, count_c_enum):
                with pytest.raises(ValueError, match="base must be >= 2"):
                    call(m, n)


def test_enumerate_b_checks_its_budget_before_the_walk(set_budget):
    # refused exactly when b(m, n) exceeds the budget, and at once for huge n
    for m, n in ((2, 100), (3, 200), (5, 60)):
        set_budget(None)
        b = recurrence_table(m, n)[n]
        set_budget(b)
        assert len(enumerate_b(m, n)) == b
        set_budget(b - 1)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_b(m, n)
    set_budget(None)
    for n in (2**70, 10**12):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_b(2, n)
        assert time.perf_counter() - start < 1.0


def test_enumerate_c_checks_its_budget_before_the_walk(set_budget):
    # refused exactly when c(m, n) exceeds the budget, and at once for huge n
    for m, n in ((2, 100), (3, 200), (5, 60)):
        c = count_c_poly(m, n)
        set_budget(c)
        assert len(enumerate_c(m, n)) == c
        set_budget(c - 1)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_c(m, n)
    set_budget(None)
    for n in (2**70, 10**12):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_c(2, n)
        assert time.perf_counter() - start < 1.0


def test_walk_counts_refuse_huge_n_before_recursing():
    # 2**1100 has 1101 binary digits, deeper than the interpreter's
    # recursion limit; the floors refuse it without walking
    for count in (count_b_enum, count_c_enum):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetExceeded):
            count(2, 2**1100)
        assert time.perf_counter() - start < 1.0


# walker -> (its pinned budget error at (3, 100) given the cap, the leaves
# the enumeration built on it keeps, as the buffers the walker shows)
MATERIALISED_WALKS = {
    "walk_partitions": (EnumerationBudgetExceeded, "more than {} partitions of 100 in base 3",
                        lambda: materialise(kernels.walk_partitions, 3, 100, tuple)),
    "walk_gapfree": (EnumerationBudgetExceeded, "more than {} gap-free partitions of 100 in base 3",
                     lambda: [tuple(lam - 1 for lam in p.mults) for p in enumerate_c(3, 100)]),
    "nested_sum_b": (LoopBudgetExceeded, "nested summation for base 3, n=100 exceeded budget {}",
                     lambda: [b.betas + (0,) for b in enumerate_members(3, 100)]),
}


@pytest.mark.parametrize("name", sorted(MATERIALISED_WALKS))
def test_materialise_builds_every_leaf_once_and_none_over_budget(set_budget, name):
    walk = getattr(kernels, name)
    error, refusal, expected = MATERIALISED_WALKS[name]
    count = walk(3, 100, 10**6)
    built = []

    def spy(buffer):
        built.append(tuple(buffer))
        return len(built)

    set_budget(count)
    assert materialise(walk, 3, 100, spy) == list(range(1, count + 1))
    # nested_sum_b's ks keeps one unread entry past the loop's, always 0
    assert built == expected()
    built.clear()
    set_budget(count - 1)
    with pytest.raises(error) as info:
        materialise(walk, 3, 100, spy)
    assert type(info.value) is error
    assert str(info.value) == refusal.format(count - 1)
    assert built == []
