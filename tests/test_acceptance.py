"""Acceptance suite: one test per criterion, one printed line per criterion.

Every check is exact integer equality; the only tolerances are the stated
wall-clock bounds.  Run with ``pytest -v -s tests/test_acceptance.py`` to
see the lines as they print.
"""

import time
from pathlib import Path

from mpart.bijection import enumerate_members, phi, phi_inv
from mpart.budgets import LoopBudgetExceeded
from mpart.cli import main
from mpart.congruence import (
    afs_c_mod,
    b_mod_product,
    c_mod_formula,
    churchhouse_check,
)
from mpart.counting import (
    count_b_gf,
    count_b_nested,
    count_b_poly,
    count_c_nested,
    count_c_poly,
    recurrence_table,
)
from mpart.partitions import count_c_enum, enumerate_b, enumerate_c
from mpart.radix import to_base

GOLDEN = Path(__file__).parent / "golden" / "table_4_36.tsv"

# Budget for the literal nested summation in the bulk sweep.  The default
# (1e8 steps) would push the sweep past its own runtime bound; the nested
# method is exercised exactly where this budget permits.
SWEEP_LOOP_BUDGET = 10**6


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_count_b_3_10_every_method(capsys):
    start = time.perf_counter()
    outputs = []
    for method in ("nested", "poly", "recurrence", "gf", "enumerate"):
        outputs.append(_run_cli(capsys, "count", "--kind", "b", "--base", "3",
                                "--n", "10", "--method", method))
    outputs.append(_run_cli(capsys, "count", "--kind", "b", "--base", "3",
                            "--n", "10", "--check"))
    elapsed = time.perf_counter() - start
    ok = all(out == (0, "5\n") for out in outputs) and elapsed < 1.0
    _report(1, ok, f"b(3,10)=5 via 5 methods + --check, {elapsed:.2f}s")


def test_criterion_2_table_4_36_matches_golden(capsys):
    start = time.perf_counter()
    code, out = _run_cli(capsys, "table", "--base", "4", "--n", "36")
    elapsed = time.perf_counter() - start
    golden = GOLDEN.read_text()
    ok = code == 0 and out == golden and len(out.splitlines()) == 18 and elapsed < 1.0
    _report(2, ok, f"18 rows equal to the transcribed table, {elapsed:.2f}s")


def test_criterion_3_gap_free_count_and_congruence(capsys):
    start = time.perf_counter()
    count_result = _run_cli(capsys, "count", "--kind", "c", "--base", "5",
                            "--n", "2425")
    congruence_result = _run_cli(capsys, "congruence", "--property", "afs-c",
                                 "--base", "5", "--n", "485")
    elapsed = time.perf_counter() - start
    ok = (
        count_result == (0, "230358\n")
        and congruence_result == (0, "predicted=3 actual=3 PASS\n")
        and elapsed < 5.0
    )
    _report(3, ok, f"c(5,2425)=230358 and residue 3=3, {elapsed:.2f}s")


def test_criterion_4_four_way_b_agreement(set_budget):
    set_budget(SWEEP_LOOP_BUDGET)
    start = time.perf_counter()
    failures = 0
    nested_runs = 0
    for m in (2, 3, 4, 5):
        table = recurrence_table(m, 2000)
        gf = count_b_gf(m, 2000)
        for n in range(1, 2001):
            expected = table[n]
            if gf[n] != expected or count_b_poly(m, n) != expected:
                failures += 1
            try:
                nested = count_b_nested(m, n)
            except LoopBudgetExceeded:
                continue
            nested_runs += 1
            if nested != expected:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(4, ok, f"8000 grid points, nested on {nested_runs}, "
                   f"{failures} failures, {elapsed:.1f}s")


def test_criterion_5_three_way_c_agreement():
    start = time.perf_counter()
    failures = 0
    for m in (2, 3, 4, 5):
        for n in range(1, 301):
            expected = count_c_poly(m, n)
            if count_c_nested(m, n) != expected:
                failures += 1
            if count_c_enum(m, n) != expected:
                failures += 1
    # the walker behind count_c_enum reproduces len(enumerate_c) exactly
    for m in (2, 3, 4, 5):
        for n in range(1, 81):
            if count_c_enum(m, n) != len(enumerate_c(m, n)):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(5, ok, f"1200 grid points, {failures} failures, {elapsed:.1f}s")


def test_criterion_6_bijection_suite():
    start = time.perf_counter()
    failures = 0
    for m in (2, 3, 4, 5):
        for n in range(1, 201):
            members = enumerate_members(m, n)
            for member in members:
                if phi(phi_inv(member), n) != member:
                    failures += 1
            parts = enumerate_b(m, n)
            if len(parts) != len(members):  # equal cardinalities
                failures += 1
            # members are pairwise distinct by construction, so image
            # equality also certifies injectivity
            images = [phi(p, n) for p in parts]
            if images != members:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(6, ok, f"identity on members, injectivity, cardinality; "
                   f"{failures} failures, {elapsed:.1f}s")


def test_criterion_7_digit_product_congruence():
    start = time.perf_counter()
    failures = 0
    for m in range(2, 8):
        for n in range(1, 1001):
            predicted = b_mod_product(to_base(m, n)).value
            if predicted != count_b_poly(m, m * n) % m:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(7, ok, f"6000 grid points, {failures} failures, {elapsed:.1f}s")


def test_criterion_8_gap_free_congruences_and_reduction():
    start = time.perf_counter()
    failures = 0
    for m in range(2, 8):
        for n in range(1, 501):
            r = to_base(m, n)
            actual = count_c_poly(m, m * n) % m
            lhs = c_mod_formula(r).value
            rhs = afs_c_mod(r).value
            if lhs != actual or rhs != actual or lhs != rhs:
                failures += 1
    for m in (2, 3, 4, 5):
        for n in range(1, 101):
            if count_c_poly(m, m**3 * n) % m != count_c_poly(m, m * n) % m:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(8, ok, f"3000 prediction points + 400 reduction points, "
                   f"{failures} failures, {elapsed:.1f}s")


def test_criterion_9_churchhouse_congruences():
    start = time.perf_counter()
    failures = 0
    for k in (1, 2):
        for n in range(1, 65):
            first, second = churchhouse_check(k, n)
            if not (first and second):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _report(9, ok, f"128 (k, n) pairs, both forms, {failures} failures, "
                   f"{elapsed:.1f}s")
