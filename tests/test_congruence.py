import pytest

from mpart.congruence import (
    Residue,
    afs_c_mod,
    b_mod_product,
    c_mod_formula,
    churchhouse_check,
)
from mpart.counting import count_b_poly, count_c_poly, recurrence_table
from mpart.radix import to_base


def test_residue_validation():
    Residue(0, 2)
    with pytest.raises(ValueError):
        Residue(5, 5)
    with pytest.raises(ValueError):
        Residue(-1, 5)
    with pytest.raises(ValueError):
        Residue(0, 1)


def test_b_mod_product_examples():
    assert b_mod_product(to_base(3, 10)).value == 1
    assert count_b_poly(3, 30) == 28
    assert count_b_poly(3, 30) % 3 == 1

    assert b_mod_product(to_base(4, 36)).value == 2  # 3*2*1 = 6 = 2 mod 4
    assert count_b_poly(4, 144) % 4 == 2

    # a single top digit 1 gives the lone factor 2
    assert b_mod_product(to_base(5, 25)).value == 2
    assert b_mod_product(to_base(7, 49)).value == 2


def test_c_mod_formula_examples():
    assert c_mod_formula(to_base(5, 485)).value == 3  # -17 mod 5
    assert count_c_poly(5, 2425) % 5 == 3

    # ones digit 1 forces residue 1 whatever the higher digits are
    for n in (1, 21, 321, 4321):
        assert c_mod_formula(to_base(5, n)).value == 1

    assert c_mod_formula(to_base(4, 73)).value == 1
    assert count_c_poly(4, 292) % 4 == 1


def test_afs_c_mod_examples():
    assert afs_c_mod(to_base(5, 485)).value == 3  # lowest nonzero digit at odd index
    # even lowest index with digit 1: both extra terms vanish
    assert afs_c_mod(to_base(3, 10)).value == 1
    assert afs_c_mod(to_base(5, 25 * 7 + 1)).value == 1


def test_afs_equals_formula_everywhere():
    for m in range(2, 8):
        for n in range(1, 2000):
            r = to_base(m, n)
            assert afs_c_mod(r).value == c_mod_formula(r).value
        for form in (afs_c_mod, c_mod_formula):
            with pytest.raises(ValueError, match="^n must be positive, got 0$"):
                form(to_base(m, 0))


def test_b_prediction_matches_exact_counts():
    for m in range(2, 8):
        for n in range(1, 300):
            predicted = b_mod_product(to_base(m, n)).value
            assert predicted == count_b_poly(m, m * n) % m


def test_c_prediction_matches_exact_counts():
    for m in range(2, 8):
        for n in range(1, 200):
            predicted = c_mod_formula(to_base(m, n)).value
            assert predicted == count_c_poly(m, m * n) % m


def test_reduction_rule():
    for m in (2, 3, 4, 5):
        for n in range(1, 60):
            assert count_c_poly(m, m**3 * n) % m == count_c_poly(m, m * n) % m


def test_churchhouse_known_small_cases():
    table = recurrence_table(2, 16)
    assert table[16] - table[4] == 32  # 36 - 4, divisible by 2**5
    assert (table[8] - table[2]) % 8 == 0  # 10 - 2
    assert churchhouse_check(1, 1) == (True, True)
    assert churchhouse_check(2, 3) == (True, True)


def test_churchhouse_sweep():
    for k in (1, 2):
        for n in range(1, 33):
            assert churchhouse_check(k, n) == (True, True)


def test_churchhouse_argument_validation():
    with pytest.raises(ValueError):
        churchhouse_check(0, 1)
    with pytest.raises(ValueError):
        churchhouse_check(1, 0)
