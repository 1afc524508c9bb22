"""Every budget refusal is pinned: exception class and exact text in the
library, stderr and exit code in the CLI."""

import pytest

from mpart.bijection import enumerate_members
from mpart.budgets import EnumerationBudgetExceeded, LoopBudgetExceeded
from mpart.cli import main
from mpart.counting import count_b_nested, count_c_nested
from mpart.partitions import count_b_enum, count_c_enum, enumerate_b, enumerate_c

HUGE = 2**70  # 1180591620717411303424; its floor 2**69 + 1 exceeds every budget below
FLOOR = "590295810358705651713"

# (call, budget, class, text); (3, 100): b = 402, c = 316, each budget the count minus one
LIBRARY_REFUSALS = {
    "count_b_enum-floor": (
        lambda: count_b_enum(2, HUGE), 10**6, EnumerationBudgetExceeded,
        "more than 1000000 partitions of 1180591620717411303424 in base 2"),
    "count_c_enum-floor": (
        lambda: count_c_enum(2, HUGE), 10**6, EnumerationBudgetExceeded,
        "more than 1000000 gap-free partitions of 1180591620717411303424 in base 2"),
    "enumerate_b-floor": (
        lambda: enumerate_b(2, HUGE), 10**6, EnumerationBudgetExceeded,
        "more than 1000000 partitions of 1180591620717411303424 in base 2"),
    "enumerate_c-floor": (
        lambda: enumerate_c(2, HUGE), 10**6, EnumerationBudgetExceeded,
        "more than 1000000 gap-free partitions of 1180591620717411303424 in base 2"),
    "enumerate_members-floor": (
        lambda: enumerate_members(2, HUGE), 10**6, EnumerationBudgetExceeded,
        "more than 1000000 sequences for n=1180591620717411303424 in base 2"),
    "count_b_nested-floor": (
        lambda: count_b_nested(2, HUGE), 10**8, LoopBudgetExceeded,
        f"nested summation for base 2, n=1180591620717411303424 needs at least {FLOOR} "
        "innermost steps (budget 100000000); use count_b_poly"),
    "count_c_nested-floor": (
        lambda: count_c_nested(2, HUGE), 10**8, LoopBudgetExceeded,
        "nested summation for base 2, n=1180591620717411303424 could need up to "
        f"b(2, n) >= {FLOOR} innermost steps (budget 100000000); use count_c_poly"),
    "count_b_enum-count": (
        lambda: count_b_enum(3, 100), 401, EnumerationBudgetExceeded,
        "more than 401 partitions of 100 in base 3"),
    "count_c_enum-count": (
        lambda: count_c_enum(3, 100), 315, EnumerationBudgetExceeded,
        "more than 315 gap-free partitions of 100 in base 3"),
    "enumerate_b-count": (
        lambda: enumerate_b(3, 100), 401, EnumerationBudgetExceeded,
        "more than 401 partitions of 100 in base 3"),
    "enumerate_c-count": (
        lambda: enumerate_c(3, 100), 315, EnumerationBudgetExceeded,
        "more than 315 gap-free partitions of 100 in base 3"),
    "enumerate_members-count": (
        lambda: enumerate_members(3, 100), 401, EnumerationBudgetExceeded,
        "more than 401 sequences for n=100 in base 3"),
    "count_b_nested-count": (
        lambda: count_b_nested(3, 100), 401, LoopBudgetExceeded,
        "nested summation for base 3, n=100 needs at least 402 innermost steps "
        "(budget 401); use count_b_poly"),
    "count_c_nested-count": (
        lambda: count_c_nested(3, 100), 315, LoopBudgetExceeded,
        "nested summation for base 3, n=100 could need up to b(3, n) >= 402 "
        "innermost steps (budget 315); use count_c_poly"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusal_is_pinned(set_budget, case):
    call, budget, cls, text = LIBRARY_REFUSALS[case]
    set_budget(budget)
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == text


# n = 2000 is refused by its floor (1001 > 500, > 700), n = 100 in base 2 by
# its count (b = 9828, c = 4914)
CLI_REFUSALS = {
    **{f"count-{method}-{kind}-{n}": ["count", "--kind", kind, "--base", "2", "--n", str(n),
                                      "--method", method]
       for method in ("enumerate", "nested") for kind in "bc" for n in (100, 2000)},
    **{f"table-{n}": ["table", "--base", "2", "--n", str(n)] for n in (100, 2000)},
    **{f"verify-bijection-{n}": ["verify", "--suite", "bijection", "--base-range", "2..2",
                                 "--n-range", f"{n}..{n}"] for n in (100, 2000)},
}

FALLBACK = "fallback: --method poly\n"
CLI_STDERR = {
    "count-enumerate-b-100": "error: more than 500 partitions of 100 in base 2\n" + FALLBACK,
    "count-enumerate-b-2000": "error: more than 500 partitions of 2000 in base 2\n" + FALLBACK,
    "count-enumerate-c-100":
        "error: more than 500 gap-free partitions of 100 in base 2\n" + FALLBACK,
    "count-enumerate-c-2000":
        "error: more than 500 gap-free partitions of 2000 in base 2\n" + FALLBACK,
    "count-nested-b-100": "error: nested summation for base 2, n=100 needs at least 9828 "
                          "innermost steps (budget 700); use count_b_poly\n" + FALLBACK,
    "count-nested-b-2000": "error: nested summation for base 2, n=2000 needs at least 1001 "
                           "innermost steps (budget 700); use count_b_poly\n" + FALLBACK,
    "count-nested-c-100": "error: nested summation for base 2, n=100 could need up to "
                          "b(2, n) >= 9828 innermost steps (budget 700); use count_c_poly\n"
                          + FALLBACK,
    "count-nested-c-2000": "error: nested summation for base 2, n=2000 could need up to "
                           "b(2, n) >= 1001 innermost steps (budget 700); use count_c_poly\n"
                           + FALLBACK,
    "table-100": "error: more than 500 partitions of 100 in base 2\n",
    "table-2000": "error: more than 500 partitions of 2000 in base 2\n",
    "verify-bijection-100": "error: more than 500 partitions of 100 in base 2\n",
    "verify-bijection-2000": "error: more than 500 partitions of 2000 in base 2\n",
}


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusal_is_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("MPART_ENUM_BUDGET", "500")
    monkeypatch.setenv("MPART_LOOP_BUDGET", "700")
    code = main(CLI_REFUSALS[case])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", CLI_STDERR[case])
