"""The walkers count exactly and abort at exactly their cap."""

from mpart import kernels
from mpart.counting import chi_vector, recurrence_table
from mpart.radix import to_base


def test_python_walker_leaf_counts_match_recurrence():
    for m in (2, 3, 5):
        table = recurrence_table(m, 90)
        for n in range(1, 91):
            alpha = list(to_base(m, n).digits)
            assert kernels.nested_sum_b(m, alpha, 10**7) == table[n]
            assert kernels.walk_partitions(m, n, 10**7) == table[n]


def test_python_walker_cap_is_exact():
    # a cap of exactly the walker's own count passes; one below aborts
    m, n = 2, 100
    r = to_base(m, n)
    alpha, chi = list(r.digits), list(chi_vector(r))
    tops = [n // m**k - 1 for k in range(1, len(alpha))]
    walkers = {
        "nested_sum_b": lambda cap: kernels.nested_sum_b(m, alpha, cap),
        "nested_sum_c": lambda cap: kernels.nested_sum_c(m, alpha, chi, tops, cap),
        "walk_partitions": lambda cap: kernels.walk_partitions(m, n, cap),
        "walk_gapfree": lambda cap: kernels.walk_gapfree(m, n, cap),
    }
    counts = {name: walk(10**6) for name, walk in walkers.items()}
    assert counts == {"nested_sum_b": 9828, "nested_sum_c": 4913,
                      "walk_partitions": 9828, "walk_gapfree": 4914}
    for name, walk in walkers.items():
        assert walk(counts[name]) == counts[name], name
        assert walk(counts[name] - 1) == -1, name


def test_unbounded_ints_beyond_64_bits():
    # one implementation on Python ints: no input size overflows
    n = 2**70 + 3
    alpha = list(to_base(2, n).digits)
    assert kernels.nested_sum_b(2, alpha, 10) == -1
    assert kernels.walk_partitions(2, n, 10) == -1
