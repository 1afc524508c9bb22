"""The argument gate: every counting and enumeration entry point checks the
base first, then n, then its budget variable or modulus, and any input
either answers or fails with ValueError or a budget error, quickly."""

import time

import pytest

from mpart import counting, kernels
from mpart.bijection import BetaSeq, enumerate_members
from mpart.budgets import BudgetExceeded
from mpart.counting import (
    count_b_gf,
    count_b_nested,
    count_b_poly,
    count_c_nested,
    count_c_poly,
    recurrence_table,
)
from mpart.partitions import (
    count_b_enum,
    count_c_enum,
    enumerate_b,
    enumerate_c,
)
from mpart.polysum import IntPolynomial, compose_affine_transposed


def _one_point(residues):
    """A residue route's one-point block as an entry point at (m, n, modulus)."""
    def block(m, n, modulus):
        [residue] = residues(m, range(n, n + 1), modulus, 0)
        return residue
    return block


WALKERS = (kernels.nested_sum_b, kernels.nested_sum_c, kernels.walk_partitions,
           kernels.walk_gapfree)
# poly route -> its residue route's one-point block, which takes the modulus
POLY = {count_b_poly: _one_point(counting.count_b_residues),
        count_c_poly: _one_point(counting.count_c_residues)}
BUDGETED = (count_b_nested, count_c_nested, count_b_enum, count_c_enum, enumerate_b,
            enumerate_c, enumerate_members)
TABLES = (recurrence_table, count_b_gf)

# (entry point, its third argument: the walker's cap, the modulus of a poly
# route's residue block (None for the exact count) or the sequence's
# entries, or the value its budget variable is set to, None for the
# variable as ``env`` left it)
ENTRIES = [
    *[(f, cap) for f in WALKERS for cap in (0, 10)],
    *[(f, modulus) for f in POLY for modulus in (None, 0, 2)],
    *[(f, budget) for f in BUDGETED for budget in (None, 0)],
    *[(f, None) for f in TABLES],
    (BetaSeq, ()),
]


@pytest.mark.parametrize("env", [None, "abc"], ids=["env-unset", "env-abc"])
@pytest.mark.parametrize("entry, third", ENTRIES,
                         ids=[f"{f.__name__}-{third}" for f, third in ENTRIES])
def test_argument_gate(set_budget, entry, third, env):
    budgeted = entry in BUDGETED + TABLES
    set_budget(third if budgeted and third is not None else env)
    if entry in POLY:
        entry, args = (entry, ()) if third is None else (POLY[entry], (third,))
    else:
        args = () if budgeted else (third,)
    for m in (-2, 0, 1, 2, 3):
        for n in (-2, 0, 1, 5, 2**70):
            start = time.perf_counter()
            try:
                entry(m, n, *args)
                error = None
            except (ValueError, BudgetExceeded) as exc:
                error = exc
            assert time.perf_counter() - start < 1.0, (m, n)
            if m < 2:
                assert type(error) is ValueError, (m, n)
                assert str(error) == f"base must be >= 2, got {m}"
            elif n < 0:
                assert type(error) is ValueError, (m, n)
                assert str(error) == f"n must be nonnegative, got {n}", (m, n)


@pytest.mark.parametrize("a", [0, -1])
@pytest.mark.parametrize("transposed", [False, True], ids=["compose", "transposed"])
def test_stride_below_one_is_refused(a, transposed):
    with pytest.raises(ValueError, match="^stride a must be positive$"):
        if transposed:
            compose_affine_transposed([1, 2, 3], a, 1)
        else:
            IntPolynomial((1, 2, 3)).compose_affine(a, 1)


@pytest.mark.parametrize("budget", [0, 1, None], ids=["budget-0", "budget-1", "default"])
def test_enumerate_members_names_n_before_its_budget(set_budget, budget):
    # n = 0 has no sequence type to build, and that fault comes before the
    # budget walk at every budget, as in enumerate_b
    set_budget(budget)
    with pytest.raises(ValueError) as info:
        enumerate_members(3, 0)
    assert type(info.value) is ValueError
    assert str(info.value) == "n must be positive, got 0"
