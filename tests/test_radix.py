import random
from functools import reduce

import pytest

from mpart.radix import BaseRepr, consecutive_digits, to_base


def value(r: BaseRepr) -> int:
    """The integer a digit vector represents, folded from the top digit."""
    return reduce(lambda n, d: n * r.m + d, reversed(r.digits), 0)


def test_known_digit_vectors():
    assert to_base(4, 36).msb_first() == (2, 1, 0)
    assert to_base(5, 485).msb_first() == (3, 4, 2, 0)
    assert to_base(4, 73).msb_first() == (1, 0, 2, 1)


def test_single_digit():
    r = to_base(7, 6)
    assert r.digits == (6,)
    assert r.j == 0


def test_zero_is_single_zero_digit():
    assert to_base(5, 0).digits == (0,)
    assert value(to_base(5, 0)) == 0


def test_round_trip_exhaustive_small():
    for m in range(2, 17):
        for n in range(0, 3000):
            r = to_base(m, n)
            assert value(r) == n
            assert all(0 <= d < m for d in r.digits)


def test_round_trip_sampled_to_one_million():
    rng = random.Random(163)
    for m in range(2, 17):
        samples = [rng.randrange(0, 10**6 + 1) for _ in range(20000)]
        for n in samples + list(range(10**6 - 200, 10**6 + 1)):
            r = to_base(m, n)
            assert value(r) == n
            assert all(0 <= d < m for d in r.digits)


def test_top_digit_nonzero():
    for m in (2, 3, 10):
        for n in range(1, 500):
            assert to_base(m, n).digits[-1] > 0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        to_base(1, 5)
    with pytest.raises(ValueError):
        to_base(3, -1)
    with pytest.raises(ValueError):
        BaseRepr(3, (3, 1))  # digit out of range
    with pytest.raises(ValueError):
        BaseRepr(3, (1, 0))  # zero top digit


def test_consecutive_digits_are_the_digits_of_each_shifted_n():
    # x = m**shift * n by carry from place shift, x = 0 as its one digit 0;
    # i is the highest place that differs from the n before, the top at first
    for m in (2, 3, 10):
        for shift in range(4):
            for ns in (range(0, 3 * m), range(1, 3 * m), range(m**3 - 2 * m, m**3 + 2 * m)):
                before = None
                for n, (digits, i) in zip(ns, consecutive_digits(m, ns, shift)):
                    expected = to_base(m, m**shift * n).digits
                    assert tuple(digits) == expected, (m, shift, n)
                    if before is None:
                        assert i == len(expected) - 1, (m, shift, n)
                    else:
                        padded = before + (0,) * (len(expected) - len(before))
                        assert i == max(t for t, d in enumerate(expected) if d != padded[t])
                    before = expected
