import random

import pytest

from mpart import polysum
from mpart.counting import count_b_poly, count_c_poly, recurrence_table
from mpart.polysum import IntPolynomial


def brute_sum(p, lo, hi):
    return sum(p.eval(x) for x in range(lo, hi + 1))


def test_eval_examples():
    assert IntPolynomial((1,)).eval(5) == 1
    assert IntPolynomial((2, 4)).eval(3) == 14
    assert IntPolynomial((0, 0, 1)).eval(4) == 6


def test_canonical_form():
    assert IntPolynomial.from_coeffs([2, 4, 0, 0]).coeffs == (2, 4)
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == (0,)
    assert IntPolynomial.from_coeffs([]).coeffs == (0,)
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_prefix_sum_examples():
    assert IntPolynomial((1,)).prefix_sum().coeffs == (1, 1)
    q = IntPolynomial((2, 4)).prefix_sum()
    assert q.eval(2) == 18  # 2 + 6 + 10
    zero = IntPolynomial((0,))
    assert zero.prefix_sum().coeffs == (0,)


def test_prefix_sum_vanishes_left_of_zero():
    for coeffs in [(1,), (2, 4), (5, -3, 7), (0, 0, 0, 2)]:
        q = IntPolynomial.from_coeffs(coeffs).prefix_sum()
        assert q.eval(-1) == 0


def test_compose_affine_examples():
    # r(k) = 4k + 1 from p(x) = x
    assert IntPolynomial((0, 1)).compose_affine(4, 1).coeffs == (1, 4)
    assert IntPolynomial((1,)).compose_affine(7, 3).coeffs == (1,)
    # r(k) = C(2k, 2), checked at k = 3
    r = IntPolynomial((0, 0, 1)).compose_affine(2, 0)
    assert [r.eval(k) for k in range(4)] == [0, 1, 6, 15]


def test_sum_range_examples():
    assert IntPolynomial((1,)).sum_range(0, 17) == 18
    assert IntPolynomial((2, 4)).sum_range(0, 3) == 32  # 2 + 6 + 10 + 14
    assert IntPolynomial((2, 4)).sum_range(1, 0) == 0
    assert IntPolynomial((5, 1)).sum_range(0, -1) == 0
    with pytest.raises(ValueError):
        IntPolynomial((1,)).sum_range(1, -1)
    with pytest.raises(ValueError):
        IntPolynomial((1,)).sum_range(2, 5)


def test_prefix_sum_equals_literal_sum():
    rng = random.Random(20240)
    for _ in range(60):
        degree = rng.randrange(0, 9)
        p = IntPolynomial.from_coeffs(
            [rng.randint(-9, 9) for _ in range(degree + 1)]
        )
        q = p.prefix_sum()
        for upper in (0, 1, 7, 50):
            assert q.eval(upper) == brute_sum(p, 0, upper)


def test_compose_affine_pointwise():
    rng = random.Random(77)
    for _ in range(60):
        degree = rng.randrange(0, 7)
        p = IntPolynomial.from_coeffs(
            [rng.randint(-9, 9) for _ in range(degree + 1)]
        )
        a = rng.randrange(1, 6)
        b = rng.randrange(-1, 8)
        r = p.compose_affine(a, b)
        for k in range(21):
            assert r.eval(k) == p.eval(a * k + b)
    for b in (-50, 50):  # |b| > d, past the unit steps
        p = IntPolynomial.from_coeffs([rng.randint(-9, 9) for _ in range(5)] + [3])
        r = p.compose_affine(3, b)
        assert [r.eval(k) for k in range(21)] == [p.eval(3 * k + b) for k in range(21)]


def test_degree_bookkeeping():
    rng = random.Random(3)
    for _ in range(40):
        degree = rng.randrange(0, 8)
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 5)]
        p = IntPolynomial.from_coeffs(coeffs)
        assert p.prefix_sum().degree == p.degree + 1
        assert p.compose_affine(rng.randrange(1, 5), rng.randrange(-1, 5)).degree == p.degree


def test_operations_stay_integral():
    # six chained prefix-sum + substitution rounds against literal sums
    steps = [(3, -1), (3, 0), (3, 1), (3, 2), (2, -1), (2, 3)]
    p = IntPolynomial((1,))
    values = [1] * 6000
    for a, b in steps:
        prefix = [0]
        for v in values:
            prefix.append(prefix[-1] + v)
        k_max = (len(values) - 1 - b) // a
        values = [prefix[a * k + b + 1] for k in range(k_max + 1)]
        p = p.prefix_sum().compose_affine(a, b)
        assert all(isinstance(c, int) for c in p.coeffs)
        # 8 matching points pin down a polynomial of degree <= 7
        assert [p.eval(k) for k in range(8)] == values[:8]


def _random_poly(rng, degree, bits=400):
    coeffs = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(degree)]
    return IntPolynomial.from_coeffs(coeffs + [rng.getrandbits(bits) | 1])


def test_compose_affine_every_stride_and_shift():
    # degree-d polynomials that agree at d+1 points are equal
    rng = random.Random(1706)
    strides = [(a, range(-1, a)) for a in range(2, 11)]
    strides += [(a, (-1, 0, a - 1)) for a in (10**3, 10**6, 10**12)]
    for a, shifts in strides:
        for b in shifts:
            for degree in (0, 1, 2, 5, 13, 40):
                p = _random_poly(rng, degree, bits=rng.randrange(200, 700))
                r = p.compose_affine(a, b)
                assert r.degree == degree
                assert [r.eval(k) for k in range(degree + 1)] == [
                    p.eval(a * k + b) for k in range(degree + 1)
                ]


def _dot(w, p):
    return sum(x * y for x, y in zip(w, p.coeffs, strict=True))


def test_transposed_step_is_the_adjoint_of_the_level_step():
    # w . (prefix sum, then substitution)(p) == (the transposed step of w) . p
    rng = random.Random(2003)
    for a in (2, 3, 7, 10, 10**3, 10**6, 10**12):
        for b in (-1, 0, a - 1):
            for degree in (0, 1, 2, 9, 25, 40):
                p = _random_poly(rng, degree, bits=300)
                r = p.prefix_sum().compose_affine(a, b)
                w = [rng.getrandbits(300) - (1 << 299) for _ in range(r.degree + 1)]
                v = polysum.prefix_sum_transposed(polysum.compose_affine_transposed(w, a, b))
                assert len(v) == degree + 1
                assert _dot(w, r) == _dot(v, p)


def test_evaluation_covector_evaluates():
    rng = random.Random(5)
    for degree in (0, 1, 6, 30):
        p = _random_poly(rng, degree, bits=64)
        for x in (-1, 0, 3, 17, 10**20):
            assert _dot(polysum.evaluation_covector(x, degree), p) == p.eval(x)


def test_compose_affine_independent_of_table_history():
    rng = random.Random(11)
    polys = [_random_poly(rng, degree, bits=300) for degree in (40, 25, 9, 1, 0)]
    cases = [(p, a, b) for p in polys for a in (2, 3, 7, 10) for b in (-1, 0, a - 1)]

    def both(p, a, b):  # the column view, then the row view of the table
        return p.compose_affine(a, b), polysum.compose_affine_transposed(list(p.coeffs), a, b)

    polysum._scaling_table.cache_clear()
    falling = [both(p, a, b) for p, a, b in cases]  # tables grow at once
    polysum._scaling_table.cache_clear()
    rising = [both(p, a, b) for p, a, b in reversed(cases)][::-1]
    assert falling == rising
    polysum._scaling_table.cache_clear()
    assert [both(p, a, b) for p, a, b in cases] == falling
    polysum._scaling_table.cache_clear()  # each view grown first on its own
    rows_first = [polysum.compose_affine_transposed(list(p.coeffs), a, b) for p, a, b in cases]
    assert [p.compose_affine(a, b) for p, a, b in cases] == [r for r, _ in falling]
    assert rows_first == [u for _, u in falling]


def test_scaling_table_grows_only_to_the_degree_in_use():
    polysum._scaling_table.cache_clear()
    IntPolynomial((0,) * 12 + (1,)).compose_affine(3, 1)
    columns, rows = polysum._scaling_table(3)
    assert len(columns) == len(rows) == 13
    # column l holds [x^i] ((1+x)^3 - 1)^l for i = l .. min(12, 3*l)
    assert columns[1] == [3, 3, 1]
    assert columns[2] == [9, 18, 15, 6, 1]
    assert all(len(col) == min(12, 3 * l) - l + 1 for l, col in enumerate(columns))
    # row i holds the same entries for l = ceil(i/3) .. i
    assert rows[2] == [3, 9]
    assert rows[4] == [15, 81, 81]
    assert all(row == [columns[l][i - l] for l in range(-(-i // 3), i + 1)]
               for i, row in enumerate(rows))


def test_scaling_tables_are_bounded_and_regrow_after_eviction():
    # one table per stride, SCALING_TABLES of them kept; a count whose
    # table was evicted grows it again from degree 0
    table = polysum._scaling_table
    table.cache_clear()
    n = 3**10 + 7
    first = count_b_poly(3, n), count_c_poly(3, n)
    for a in range(4, 4 + 2 * polysum.SCALING_TABLES):
        count_b_poly(a, a**6 - 1)
        assert table.cache_info().currsize <= polysum.SCALING_TABLES
    assert table.cache_info().maxsize == polysum.SCALING_TABLES
    misses = table.cache_info().misses
    assert (count_b_poly(3, n), count_c_poly(3, n)) == first
    assert table.cache_info().misses > misses  # stride 3 had been evicted
    assert first[0] == recurrence_table(3, n)[n]
