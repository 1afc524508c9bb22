import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mpart import bijection, cli, congruence, counting, kernels
from mpart.cli import main
from mpart.counting import count_b_poly
from mpart.partitions import count_c_enum
from mpart.radix import to_base
from walks import materialise

GOLDEN = Path(__file__).parent / "golden" / "table_4_36.tsv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits(capsys):
    code, out, _ = run(capsys, "digits", "--base", "4", "--n", "36")
    assert code == 0
    assert out == "2,1,0\n"


def test_count_b_all_methods(capsys):
    for method in ("nested", "poly", "recurrence", "gf", "enumerate"):
        code, out, _ = run(capsys, "count", "--kind", "b", "--base", "3",
                           "--n", "10", "--method", method)
        assert (code, out) == (0, "5\n")


def test_count_c(capsys):
    code, out, _ = run(capsys, "count", "--kind", "c", "--base", "5", "--n", "2425")
    assert (code, out) == (0, "230358\n")


def test_count_check_agreement(capsys):
    code, out, _ = run(capsys, "count", "--kind", "b", "--base", "4",
                       "--n", "36", "--check")
    assert (code, out) == (0, "18\n")
    code, out, _ = run(capsys, "count", "--kind", "c", "--base", "4",
                       "--n", "73", "--check")
    assert (code, out) == (0, "51\n")


@pytest.mark.parametrize("n", [0, 1, 100, 2**70])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["b", "c"])
def test_count_check_at_budget_zero_answers_from_poly(capsys, set_budget, kind, m, n):
    # every budgeted route refuses (or agrees), and poly has no budget
    set_budget(0)
    poly = counting.count_b_poly if kind == "b" else counting.count_c_poly
    code, out, err = run(capsys, "count", "--kind", kind, "--base", str(m),
                         "--n", str(n), "--check")
    assert (code, out, err) == (0, f"{poly(m, n)}\n", "")


def test_count_method_kind_mismatch(capsys):
    code, _, err = run(capsys, "count", "--kind", "c", "--base", "3",
                       "--n", "10", "--method", "gf")
    assert code == 2
    assert "does not apply" in err


def test_count_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("MPART_LOOP_BUDGET", "100")
    code, _, err = run(capsys, "count", "--kind", "b", "--base", "2",
                       "--n", "600", "--method", "nested")
    assert code == 2
    assert "--method poly" in err


@pytest.mark.parametrize("text", ["1e6", "abc", "-5"])
@pytest.mark.parametrize("variable", ["MPART_ENUM_BUDGET", "MPART_LOOP_BUDGET"])
def test_malformed_budget_exits_2_naming_the_variable(capsys, monkeypatch, variable, text):
    monkeypatch.setenv(variable, text)
    method = "enumerate" if variable == "MPART_ENUM_BUDGET" else "nested"
    code, out, err = run(capsys, "count", "--kind", "b", "--base", "2", "--n", "10",
                         "--method", method)
    assert (code, out) == (2, "")
    assert err == f"error: {variable} must be a nonnegative integer, got '{text}'\n"


@pytest.mark.parametrize("method", ["recurrence", "gf"])
@pytest.mark.parametrize("n", [2**70, 10**12])
def test_count_table_methods_refuse_huge_n(capsys, method, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--kind", "b", "--base", "2",
                         "--n", str(n), "--method", method)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "fallback: --method poly" in err


def _huge_n_commands(n):
    # phi and phi-inv take a base in which n is a power, so that one part
    # of size n is an m-ary partition; the all-zero beta is always a member
    m = 2 if n == 2**70 else 10
    j = to_base(m, n).j
    grid = ["--base-range", "2..2", "--n-range", f"{n}..{n}"]
    return {
        "table": ["table", "--base", "2", "--n", str(n)],
        "phi": ["phi", "--base", str(m), "--n", str(n), "--partition", "1" + ",0" * j],
        "phi-inv": ["phi-inv", "--base", str(m), "--n", str(n), "--beta", ",".join(["0"] * j)],
        "verify-bijection": ["verify", "--suite", "bijection", *grid],
        "verify-oracle-c": ["verify", "--suite", "oracle-c", *grid],
        **{f"count-check-{kind}": ["count", "--kind", kind, "--base", "2", "--n", str(n),
                                   "--check"] for kind in "bc"},
        **{f"count-enumerate-{kind}": ["count", "--kind", kind, "--base", "2", "--n", str(n),
                                       "--method", "enumerate"] for kind in "bc"},
    }


@pytest.mark.parametrize("command", sorted(_huge_n_commands(10**12)))
@pytest.mark.parametrize("n", [2**70, 10**12])
def test_every_subcommand_answers_or_refuses_huge_n_at_once(capsys, command, n):
    argv = _huge_n_commands(n)[command]
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2)


@pytest.mark.parametrize("command", ["table", "verify-bijection",
                                     "count-enumerate-b", "count-enumerate-c"])
def test_enumerations_refuse_n_deeper_than_the_recursion_limit(capsys, command):
    # 2**1100 has 1101 binary digits; every budget check is made before a
    # walk would recurse that deep
    argv = _huge_n_commands(2**1100)[command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    if command.startswith("count"):
        assert "fallback: --method poly" in err


@pytest.mark.parametrize("command", ["table", "verify-bijection",
                                     "count-enumerate-b", "count-enumerate-c"])
def test_enumerations_at_a_huge_budget_exit_2_without_a_traceback(capsys, monkeypatch,
                                                                   command):
    # at this budget the floors let 2**1100 through, and the walk runs out of
    # recursion depth at once: a resource error, reported like a refusal
    monkeypatch.setenv("MPART_ENUM_BUDGET", str(10**400))
    argv = _huge_n_commands(2**1100)[command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    if command.startswith("count"):
        assert err.endswith("fallback: --method poly\n")


def test_table_matches_golden(capsys):
    code, out, _ = run(capsys, "table", "--base", "4", "--n", "36")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_single_row(capsys):
    code, out, _ = run(capsys, "table", "--base", "7", "--n", "6")
    assert (code, out) == (0, "6\t\n")


def test_table_ternary_10(capsys):
    code, out, _ = run(capsys, "table", "--base", "3", "--n", "10")
    rows = [line.split("\t") for line in out.splitlines()]
    assert code == 0
    assert [r[0] for r in rows] == ["1,0,1", "0,3,1", "0,2,4", "0,1,7", "0,0,10"]
    betas = [r[1] for r in rows]
    assert betas == sorted(betas)


def test_table_rows_ascend_by_sequence_as_walked(capsys):
    # phi reverses lex order, so the descending partitions give strictly
    # ascending sequences without a sort
    for m in range(2, 8):
        table = counting.recurrence_table(m, 150)
        for n in range(1, 120 if m == 2 else 151):
            code, out, _ = run(capsys, "table", "--base", str(m), "--n", str(n))
            betas = [tuple(int(x) for x in line.split("\t")[1].split(",") if x)
                     for line in out.splitlines()]
            assert (code, len(betas)) == (0, table[n]), (m, n)
            assert all(a < b for a, b in zip(betas, betas[1:])), (m, n)


# (2, 80) has TABLE_CHUNK + 28 rows and (2, 100) two chunks and 1,636 more;
# n < m gives the row format without a sequence column; (10**5, 10**10 + 7)
# has two innermost runs, of 1 and 100,001 rows, across 25 chunks
TABLE_POINTS = [(m, n) for m in range(2, 7) for n in range(1, 81)] + [
    (7, 6), (10, 25), (10**5, 7), (2, 80), (2, 100), (10, 1234), (10**5, 10**10 + 7)]


def test_table_rows_render_every_walked_partition_across_chunks(capsys):
    assert cli.TABLE_CHUNK == 4096
    for m, n in TABLE_POINTS:
        alpha = to_base(m, n).digits
        parts = materialise(kernels.walk_partitions, m, n, tuple)
        expected = "".join(
            ",".join(map(str, t[::-1])) + "\t"
            + ",".join(map(str, bijection.carry_betas(m, alpha, t)[::-1])) + "\n"
            for t in parts)
        assert run(capsys, "table", "--base", str(m), "--n", str(n)) == (0, expected, ""), (m, n)
        assert len(parts) == count_b_poly(m, n), (m, n)


def test_table_runs_the_carry_once_per_innermost_run(capsys, monkeypatch):
    # the carry runs at each run's first leaf, lambda_0 < m, and nowhere else
    for m, n, runs in ((2, 78, 330), (3, 213, 162), (10, 1234, 16)):
        expected = run(capsys, "table", "--base", str(m), "--n", str(n))
        calls = []
        carry = bijection.carry_betas
        monkeypatch.setattr(bijection, "carry_betas",
                            lambda *args: calls.append(args[2][0]) or carry(*args))
        assert run(capsys, "table", "--base", str(m), "--n", str(n)) == expected
        monkeypatch.undo()
        starts = materialise(kernels.walk_partitions, m, n, lambda lams: lams[0] < m)
        assert len(calls) == starts.count(True) == runs, (m, n)
        assert all(rest < m for rest in calls)


def test_phi_and_inverse(capsys):
    code, out, _ = run(capsys, "phi", "--base", "4", "--n", "36",
                       "--partition", "1,4,4")
    assert (code, out) == (0, "1,1\n")
    # the canonical partition drops the zero top multiplicity
    code, out, _ = run(capsys, "phi-inv", "--base", "4", "--n", "36",
                       "--beta", "2,0")
    assert (code, out) == (0, "9,0\n")


def test_phi_weight_mismatch(capsys):
    code, _, err = run(capsys, "phi", "--base", "4", "--n", "35",
                       "--partition", "1,4,4")
    assert code == 2
    assert "sums to" in err


def test_phi_inv_rejects_invalid(capsys):
    code, _, err = run(capsys, "phi-inv", "--base", "4", "--n", "36",
                       "--beta", "2,10")
    assert code == 2
    assert "bounds" in err


def test_congruence_pass_lines(capsys):
    code, out, _ = run(capsys, "congruence", "--property", "afs-c",
                       "--base", "5", "--n", "485")
    assert (code, out) == (0, "predicted=3 actual=3 PASS\n")
    code, out, _ = run(capsys, "congruence", "--property", "afs-c-ell",
                       "--base", "5", "--n", "485")
    assert (code, out) == (0, "predicted=3 actual=3 PASS\n")
    code, out, _ = run(capsys, "congruence", "--property", "afs-b",
                       "--base", "3", "--n", "10")
    assert (code, out) == (0, "predicted=1 actual=1 PASS\n")
    code, out, _ = run(capsys, "congruence", "--property", "churchhouse",
                       "--base", "2", "--n", "3", "--k", "2")
    assert (code, out) == (0, "first=PASS second=PASS\n")


def test_congruence_churchhouse_large_k(capsys):
    code, out, _ = run(capsys, "congruence", "--property", "churchhouse",
                       "--base", "2", "--n", "3", "--k", "40")
    assert (code, out) == (0, "first=PASS second=PASS\n")


# residue checks at sizes where a full count would take hours: each takes
# its counts mod m or mod 2**(3k+2) and must answer within a second
SCALE_GATES = {
    "churchhouse-k-300": ["congruence", "--property", "churchhouse", "--base", "2",
                          "--n", "201", "--k", "300"],
    **{f"verify-{suite}-2^1100": ["verify", "--suite", suite, "--base-range", "2..2",
                                  "--n-range", f"{2**1100}..{2**1100 + 9}"]
       for suite in ("afs-b", "afs-c", "reduction")},
}


@pytest.mark.parametrize("gate", sorted(SCALE_GATES))
def test_residue_checks_answer_at_scale_within_a_second(capsys, gate):
    start = time.perf_counter()
    code, _, err = run(capsys, *SCALE_GATES[gate])
    assert (code, err) == (0, "")
    assert time.perf_counter() - start < 1.0


def test_congruence_churchhouse_wrong_base(capsys):
    code, _, err = run(capsys, "congruence", "--property", "churchhouse",
                       "--base", "3", "--n", "3")
    assert code == 2
    assert "base 2" in err


@pytest.mark.parametrize("base", ["0", "1", "-3"])
def test_congruence_churchhouse_below_base_2_names_the_base(capsys, base):
    # the base is checked first, as by verify --suite churchhouse and afs-b
    code, out, err = run(capsys, "congruence", "--property", "churchhouse",
                         "--base", base, "--n", "3")
    assert (code, out, err) == (2, "", f"error: base must be >= 2, got {base}\n")


def test_verify_suites_pass(capsys):
    for argv in (
        ["verify", "--suite", "oracle-b", "--base-range", "2..5", "--n-range", "1..60"],
        ["verify", "--suite", "oracle-c", "--base-range", "2..5", "--n-range", "1..60"],
        ["verify", "--suite", "bijection", "--base-range", "2..5", "--n-range", "1..40"],
        ["verify", "--suite", "afs-b", "--base-range", "2..7", "--n-range", "1..60"],
        ["verify", "--suite", "afs-c", "--base-range", "2..7", "--n-range", "1..60"],
        ["verify", "--suite", "afs-equiv", "--base-range", "2..7", "--n-range", "1..60"],
        ["verify", "--suite", "reduction", "--base-range", "2..4", "--n-range", "1..20"],
        ["verify", "--suite", "churchhouse", "--n-range", "1..8", "--k-range", "1..2"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        lines = out.splitlines()
        assert len(lines) == 1  # no failures: summary only
        summary = json.loads(lines[0])
        assert summary["failures"] == 0
        assert summary["cases_run"] > 0


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle-b",
                       "--base-range", "2..3", "--n-range", "1..20")
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert isinstance(record, dict)


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--suite", "afs-b", "--base-range", "2..4", "--n-range", "1..30"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["count", "--kind", "x", "--base", "3", "--n", "1"])
    assert exc_info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--suite", "oracle-b", "--n-range", "5..1"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_invalid_base_exits_2(capsys):
    code, _, err = run(capsys, "digits", "--base", "1", "--n", "5")
    assert code == 2
    assert "base" in err


def test_reduction_at_base_zero_exits_2(capsys):
    # c(0, 0) once answered 1 unchecked, and the residue "% 0" raised
    code, _, err = run(capsys, "verify", "--suite", "reduction", "--base-range", "0..0",
                       "--n-range", "0..1")
    assert (code, err) == (2, "error: base must be >= 2, got 0\n")


def test_afs_c_at_n_zero_exits_2(capsys):
    # c(m, 0) = 1 lies outside the residue formula's range n >= 1
    code, out, err = run(capsys, "verify", "--suite", "afs-c", "--base-range", "2..3",
                         "--n-range", "0..3")
    assert (code, out) == (2, "")
    assert err == "error: n must be positive, got 0\n"


EDGE_BASES = ("0..2", "1..1", "2..2", "3..3")
EDGE_NS = ("-5..3", "-5..-3", "-1..-1", "0..0", "0..2", "1..1")
EDGE_KS = ("1..1", "0..1", "-2..1")


def test_verify_edge_grids_name_the_first_start_that_fails(capsys):
    # each suite checks its grid's ranges in one order, base then n (base,
    # k, then n for churchhouse), and a range that starts below its floor
    # (base 2, k 1, n 0) must be refused with exit 2 by its start, before
    # any table is built or n is scaled; n = 0 may be refused by suites that
    # need n >= 1.  churchhouse runs at base 2, so a valid base range
    # without 2 is refused by that rule, before k and n
    for suite, bases, ns in itertools.product(cli.SUITES, EDGE_BASES, EDGE_NS):
        for ks in EDGE_KS if suite == "churchhouse" else (None,):
            argv = ["verify", "--suite", suite, f"--base-range={bases}", f"--n-range={ns}"]
            checks = [("base", bases, 2), ("n", ns, 0)]
            if ks:
                argv.append(f"--k-range={ks}")
                checks.insert(1, ("k", ks, 1))
            starts = {name: int(grid.split("..")[0]) for name, grid, _ in checks}
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), argv
            if ks and starts["base"] > 2:  # a valid base range without 2
                assert (code, err) == (2, "error: churchhouse congruences are about base 2\n")
                continue
            named = re.fullmatch(r"error: (\w+) must be [^,]*, got (-?\d+)\n", err)
            if named:
                assert int(named[2]) == starts[named[1]], (argv, err)
                ahead = [name for name, _, _ in checks].index(named[1])
                assert all(starts[name] >= floor
                           for name, _, floor in checks[:ahead]), (argv, err)
            first_bad = next((name for name, _, floor in checks if starts[name] < floor), None)
            if first_bad:
                assert code == 2 and named and named[1] == first_bad, (argv, err)


@pytest.fixture
def low_int_str_limit():
    """The interpreter's int -> str limit at its minimum, 640 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int -> str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_count_prints_past_the_int_str_limit(capsys, low_int_str_limit):
    n = 2**100 + 12345
    code, out, err = run(capsys, "count", "--kind", "b", "--base", "2", "--n", str(n))
    assert (code, err) == (0, "")
    digits = out.strip()
    assert digits.isdigit() and len(digits) > low_int_str_limit
    assert sys.get_int_max_str_digits() == low_int_str_limit  # caller's limit kept
    sys.set_int_max_str_digits(0)
    assert int(digits) == count_b_poly(2, n)


def test_refusal_prints_n_past_the_int_str_limit(capsys, low_int_str_limit):
    n = "1" + "0" * 700  # 10**700, longer than the caller's limit allows
    code, out, err = run(capsys, "count", "--kind", "b", "--base", "2", "--n", n,
                         "--method", "enumerate")
    assert (code, out) == (2, "")
    assert err == (f"error: more than 1000000 partitions of {n} in base 2\n"
                   "fallback: --method poly\n")


def test_verify_failure_json_past_the_int_str_limit(capsys, monkeypatch, low_int_str_limit):
    wrong = 10**700 + 1
    monkeypatch.setattr(counting, "count_b_poly", lambda m, n: wrong)
    code, out, _ = run(capsys, "verify", "--suite", "oracle-b",
                       "--base-range", "2..2", "--n-range", "5..5")
    assert code == 1
    assert sys.get_int_max_str_digits() == low_int_str_limit
    failure, summary = (json.loads(line) for line in out.splitlines())
    assert failure["method"] == "poly" and len(failure["actual"]) == 701
    assert summary["failures"] == 1


def _quotient_count(m, x):
    """A wrong count whose residues are easy to predict: x // m."""
    return x // m


def _quotient_residues(m, ns, modulus, shift):
    """``_quotient_count`` in the residue route's range form: x // m mod
    ``modulus`` at each x = m**shift * n."""
    return (_quotient_count(m, m**shift * n) % modulus for n in ns)


def _zero_afs_c_mod(r):
    return congruence.Residue(0, r.m)


def _one_more_each(m, upto):
    """A wrong generating-function table: every entry one too many."""
    return [b + 1 for b in counting.recurrence_table(m, upto)]


def _all_ones(m, alpha, betas):
    """A wrong inverse carry: every sequence back to the all-ones partition."""
    return (sum(d * m**t for t, d in enumerate(alpha)),)


def _failure_lines(suite, records, cases, **extra):
    """The failure lines and summary of a verify run; a record may end in a
    dict of its own extra fields, which follow ``extra``."""
    lines = [json.dumps({"m": m, "n": n, "suite": suite,
                         "expected": expected, "actual": actual, **extra, **dict(*own)})
             for m, n, expected, actual, *own in records]
    summary = {"suite": suite, "cases_run": cases, "failures": len(records), "skipped": 0}
    return "\n".join(lines + [json.dumps(summary)]) + "\n"


# (module, attribute, replacement, argv, stdout); every case exits 1.  The
# pinned lines fix which side each check records as expected and actual, and
# which record each check writes.  cli imports enumerate_members by name, so
# it is replaced on cli; the bijection suite looks the carry recurrence and
# its inverse up on bijection at call time.
WRONG_SIDE_CASES = {
    "verify-afs-b": (
        counting, "count_b_residues", _quotient_residues,
        ["verify", "--suite", "afs-b", "--base-range", "3..4", "--n-range", "1..5"],
        _failure_lines("afs-b", [(3, 1, "2", "1"), (3, 2, "0", "2"), (3, 3, "2", "0"),
                                 (3, 5, "0", "2"), (4, 1, "2", "1"), (4, 2, "3", "2"),
                                 (4, 3, "0", "3"), (4, 4, "2", "0"), (4, 5, "0", "1")], 10),
    ),
    "verify-afs-c": (
        counting, "count_c_residues", _quotient_residues,
        ["verify", "--suite", "afs-c", "--base-range", "3..4", "--n-range", "1..5"],
        _failure_lines("afs-c", [(3, 5, "0", "2")], 10),
    ),
    "verify-reduction": (
        counting, "count_c_residues", _quotient_residues,
        ["verify", "--suite", "reduction", "--base-range", "3..4", "--n-range", "1..5"],
        _failure_lines("reduction", [(3, 1, "1", "0"), (3, 2, "2", "0"), (3, 4, "1", "0"),
                                     (3, 5, "2", "0"), (4, 1, "1", "0"), (4, 2, "2", "0"),
                                     (4, 3, "3", "0"), (4, 5, "1", "0")], 10),
    ),
    "verify-afs-equiv": (
        congruence, "afs_c_mod", _zero_afs_c_mod,
        ["verify", "--suite", "afs-equiv", "--base-range", "3..4", "--n-range", "1..5"],
        _failure_lines("afs-equiv", [(3, 1, "1", "0"), (3, 2, "2", "0"), (3, 4, "1", "0"),
                                     (4, 1, "1", "0"), (4, 2, "2", "0"), (4, 3, "3", "0"),
                                     (4, 5, "1", "0")], 10),
    ),
    "congruence-afs-b": (
        counting, "count_b_residues", _quotient_residues,
        ["congruence", "--property", "afs-b", "--base", "3", "--n", "5"],
        "predicted=0 actual=2 FAIL\n",
    ),
    "congruence-afs-c": (
        counting, "count_c_residues", _quotient_residues,
        ["congruence", "--property", "afs-c", "--base", "5", "--n", "487"],
        "predicted=1 actual=2 FAIL\n",
    ),
    "congruence-afs-c-ell": (
        counting, "count_c_residues", _quotient_residues,
        ["congruence", "--property", "afs-c-ell", "--base", "5", "--n", "487"],
        "predicted=1 actual=2 FAIL\n",
    ),
    "congruence-afs-c-ell-formula": (
        congruence, "afs_c_mod", _zero_afs_c_mod,
        ["congruence", "--property", "afs-c-ell", "--base", "5", "--n", "487"],
        "predicted=0 actual=1 FAIL\n",
    ),
    "verify-oracle-b-gf": (
        counting, "count_b_gf", _one_more_each,
        ["verify", "--suite", "oracle-b", "--base-range", "2..3", "--n-range", "1..3"],
        _failure_lines("oracle-b", [(2, 1, "1", "2"), (2, 2, "2", "3"), (2, 3, "2", "3"),
                                    (3, 1, "1", "2"), (3, 2, "1", "2"), (3, 3, "2", "3")],
                       6, method="gf"),
    ),
    "verify-oracle-b-nested": (
        counting, "count_b_nested", _quotient_count,
        ["verify", "--suite", "oracle-b", "--base-range", "2..3", "--n-range", "1..3"],
        _failure_lines("oracle-b", [(2, 1, "1", "0"), (2, 2, "2", "1"), (2, 3, "2", "1"),
                                    (3, 1, "1", "0"), (3, 2, "1", "0"), (3, 3, "2", "1")],
                       6, method="nested"),
    ),
    "verify-oracle-c-poly": (
        counting, "count_c_poly", _quotient_count,
        ["verify", "--suite", "oracle-c", "--base-range", "2..3", "--n-range", "1..3"],
        _failure_lines("oracle-c", [(2, 1, "1", "0"), (2, 3, "2", "1"),
                                    (3, 1, "1", "0"), (3, 2, "1", "0")],
                       6, method="poly"),
    ),
    "verify-oracle-c-nested": (
        counting, "count_c_nested", _quotient_count,
        ["verify", "--suite", "oracle-c", "--base-range", "2..3", "--n-range", "1..3"],
        _failure_lines("oracle-c", [(2, 1, "1", "0"), (2, 3, "2", "1"),
                                    (3, 1, "1", "0"), (3, 2, "1", "0")],
                       6, method="nested"),
    ),
    "verify-bijection-cardinality": (
        cli, "enumerate_members", lambda m, n: bijection.enumerate_members(m, n)[1:],
        ["verify", "--suite", "bijection", "--base-range", "2..2", "--n-range", "1..4"],
        _failure_lines("bijection", [(2, 1, "0", "1"), (2, 2, "1", "2"), (2, 3, "1", "2"),
                                     (2, 4, "3", "4")], 4, method="cardinality"),
    ),
    "verify-bijection-image": (
        cli, "enumerate_members", lambda m, n: bijection.enumerate_members(m, n)[::-1],
        ["verify", "--suite", "bijection", "--base-range", "2..2", "--n-range", "1..4"],
        _failure_lines("bijection", [(2, n, "image == member set", "mismatch")
                                     for n in (2, 3, 4)], 4, method="image"),
    ),
    "verify-bijection-round-trip": (
        bijection, "carry_mults", _all_ones,
        ["verify", "--suite", "bijection", "--base-range", "2..2", "--n-range", "1..4"],
        _failure_lines("bijection", [(2, 2, "0", "1"), (2, 3, "0", "1"), (2, 4, "0", "3")],
                       4, method="round-trip"),
    ),
    "verify-churchhouse-first": (
        congruence, "churchhouse_check", lambda k, n: (False, True),
        ["verify", "--suite", "churchhouse", "--n-range", "1..2", "--k-range", "1..1"],
        _failure_lines("churchhouse", [(2, 1, "0", "nonzero"), (2, 2, "0", "nonzero")],
                       2, k=1, form="first"),
    ),
    "verify-churchhouse-second": (
        congruence, "churchhouse_check", lambda k, n: (True, False),
        ["verify", "--suite", "churchhouse", "--n-range", "1..2", "--k-range", "1..1"],
        _failure_lines("churchhouse", [(2, 1, "0", "nonzero"), (2, 2, "0", "nonzero")],
                       2, k=1, form="second"),
    ),
    # x // 2 at 16, 4, 8 and 2: 8 - 2 = 6 mod 32 and 4 - 1 = 3 mod 8
    "congruence-churchhouse": (
        counting, "count_b_residues", _quotient_residues,
        ["congruence", "--property", "churchhouse", "--base", "2", "--n", "1", "--k", "1"],
        "first=FAIL second=FAIL\n",
    ),
    "verify-churchhouse-route": (
        counting, "count_b_residues", _quotient_residues,
        ["verify", "--suite", "churchhouse", "--n-range", "1..2", "--k-range", "1..1"],
        _failure_lines("churchhouse", [(2, n, "0", "nonzero", {"form": form})
                                       for n in (1, 2) for form in ("first", "second")],
                       2, k=1),
    ),
    "count-check-disagreement": (
        counting, "count_b_poly", _quotient_count,
        ["count", "--kind", "b", "--base", "3", "--n", "10", "--check"],
        "nested 5\npoly 3\nrecurrence 5\ngf 5\nenumerate 5\n",
    ),
}


def test_table_prints_the_carry_recurrence_images(capsys, monkeypatch):
    # a carry core that forgets the carry changes every sequence but the
    # digit vector's, so the table's right column is that core's output
    monkeypatch.setattr(bijection, "carry_betas", lambda m, alpha, mults: tuple(
        a - lam for a, lam in zip(alpha[1:], mults[1:])))
    assert run(capsys, "table", "--base", "2", "--n", "4") == (
        0, "1,0,0\t0,0\n0,2,0\t1,-2\n0,1,2\t1,-1\n0,0,4\t1,0\n", "")


@pytest.mark.parametrize("case", sorted(WRONG_SIDE_CASES))
def test_residue_failures_are_pinned(capsys, monkeypatch, case):
    module, name, wrong, argv, expected_out = WRONG_SIDE_CASES[case]
    monkeypatch.setattr(module, name, wrong)
    assert run(capsys, *argv) == (1, expected_out, "")


def test_oracle_c_falls_back_to_poly_over_the_enumeration_budget(capsys, monkeypatch):
    # the enumeration answers only where c = 1; elsewhere the wrong poly count
    # is the reference and nested is recorded against it, each refusal a skip
    monkeypatch.setenv("MPART_ENUM_BUDGET", "1")
    monkeypatch.setattr(counting, "count_c_poly", _quotient_count)
    code, out, err = run(capsys, "verify", "--suite", "oracle-c",
                         "--base-range", "2..3", "--n-range", "1..6")
    records = [(2, 1, "1", "0", "poly"), (2, 3, "1", "2", "nested"),
               (2, 5, "2", "3", "nested"), (3, 1, "1", "0", "poly"),
               (3, 2, "1", "0", "poly"), (3, 4, "1", "2", "nested"),
               (3, 5, "1", "2", "nested")]
    lines = [json.dumps({"m": m, "n": n, "suite": "oracle-c", "expected": expected,
                         "actual": actual, "method": method})
             for m, n, expected, actual, method in records]
    summary = {"suite": "oracle-c", "cases_run": 12, "failures": 7, "skipped": 7}
    assert (code, out, err) == (1, "\n".join(lines + [json.dumps(summary)]) + "\n", "")



ONE_ROUTE_GRID = ["verify", "--suite", "oracle-c", "--base-range", "2..2",
                  "--n-range", "100000..100004"]
ONE_ROUTE_REFUSAL = ("error: oracle-c at base 2, n=100000: only poly answered; "
                     "raise MPART_ENUM_BUDGET or MPART_LOOP_BUDGET\n")


def test_oracle_c_refuses_a_point_where_poly_alone_answers(capsys):
    # above both budgets the enumeration and nested refuse, and poly checked
    # against nothing would pass
    assert run(capsys, *ONE_ROUTE_GRID) == (2, "", ONE_ROUTE_REFUSAL)


def test_oracle_c_refuses_there_even_with_a_wrong_poly(capsys, monkeypatch):
    monkeypatch.setattr(counting, "count_c_poly", _quotient_count)
    assert run(capsys, *ONE_ROUTE_GRID) == (2, "", ONE_ROUTE_REFUSAL)

USAGE_ERRORS = {
    "suite": (
        ["verify", "--suite", "nope", "--n-range", "1..2"],
        "usage: mpart verify [-h] --suite\n"
        "                    {oracle-b,oracle-c,bijection,afs-b,afs-c,afs-equiv,"
        "churchhouse,reduction}\n"
        "                    [--base-range BASE_RANGE] --n-range N_RANGE\n"
        "                    [--k-range K_RANGE]\n"
        "mpart verify: error: argument --suite: invalid choice: 'nope' (choose from "
        "'oracle-b', 'oracle-c', 'bijection', 'afs-b', 'afs-c', 'afs-equiv', "
        "'churchhouse', 'reduction')\n",
    ),
    "method": (
        ["count", "--kind", "b", "--base", "3", "--n", "10", "--method", "nope"],
        "usage: mpart count [-h] --kind {b,c} --base BASE --n N\n"
        "                   [--method {nested,poly,recurrence,gf,enumerate}] [--check]\n"
        "mpart count: error: argument --method: invalid choice: 'nope' (choose from "
        "'nested', 'poly', 'recurrence', 'gf', 'enumerate')\n",
    ),
    "property": (
        ["congruence", "--property", "nope", "--base", "3", "--n", "10"],
        "usage: mpart congruence [-h] --property {afs-b,afs-c,afs-c-ell,churchhouse}\n"
        "                        --base BASE --n N [--k K]\n"
        "mpart congruence: error: argument --property: invalid choice: 'nope' (choose "
        "from 'afs-b', 'afs-c', 'afs-c-ell', 'churchhouse')\n",
    ),
}


@pytest.mark.parametrize("option", sorted(USAGE_ERRORS))
def test_invalid_choice_usage_is_pinned(capsys, monkeypatch, option):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    argv, expected_err = USAGE_ERRORS[option]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    captured = capsys.readouterr()
    assert exc_info.value.code == 2
    assert (captured.out, captured.err) == ("", expected_err)


def test_shared_parser_wraps_usage_at_the_width_of_the_error(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "30")
    assert main(["digits", "--base", "2", "--n", "5"]) == 0
    capsys.readouterr()
    test_invalid_choice_usage_is_pinned(capsys, monkeypatch, "suite")


def _b_below_cube(m: int, n: int) -> int:
    """b(m, n) for n < m^3: k2 parts m^2, then any number of parts m."""
    return sum((n - k2 * m * m) // m + 1 for k2 in range(n // (m * m) + 1))


def _c_below_cube(m: int, n: int) -> int:
    """c(m, n) for 0 < n < m^3: the all-ones partition, then the strata with
    largest part m and m^2, each holding at least one of every smaller part."""
    return 1 + (n - 1) // m + sum((n - 1 - k2 * m * m) // m
                                  for k2 in range(1, (n - 1) // (m * m) + 1))


def test_closed_forms_below_the_cube_match_the_tables():
    for m in range(2, 8):
        table = counting.recurrence_table(m, m**3 - 1)
        assert [_b_below_cube(m, n) for n in range(m**3)] == table
        assert [_c_below_cube(m, n) for n in range(1, m**3)] == [
            count_c_enum(m, n) for n in range(1, m**3)]
        assert (_b_below_cube(m, m * m), _c_below_cube(m, m * m)) == (m + 2, m)


# a few m^2 parts at most, so the closed forms sum few terms at any base
LARGE_BASE_NS = {10**3: (10**6, 10**9 - 1), 10**5: (10**10, 31415926535897),
                 10**9: (10**18, 7 * 10**18 + 12345 * 10**9 + 6)}

# (budget variables, argv, exit code, stdout, stderr or, for a usage error,
# its first line's start: argparse's wording varies across Python versions)
PROCESS_RUNS = {
    **{f"{kind}-{m}-{n}": ({}, f"count --kind {kind} --base {m} --n {n}", 0,
                           f"{closed(m, n)}\n", "")
       for m, ns in LARGE_BASE_NS.items() for n in ns
       for kind, closed in (("b", _b_below_cube), ("c", _c_below_cube))},
    "large-base-check": ({}, "count --kind b --base 100000 --n 10000000000 --check", 0,
                         "100002\n", ""),
    "large-base-afs-b": ({}, "congruence --property afs-b --base 10000 --n 10000", 0,
                         "predicted=2 actual=2 PASS\n", ""),
    "large-base-afs-c": ({}, "congruence --property afs-c --base 30000 --n 900000000", 0,
                         "predicted=1 actual=1 PASS\n", ""),
    "answer": ({}, "digits --base 4 --n 36", 0, "2,1,0\n", ""),
    "refusal": ({"MPART_ENUM_BUDGET": "500"},
                "count --kind b --base 2 --n 2000 --method enumerate", 2, "",
                "error: more than 500 partitions of 2000 in base 2\nfallback: --method poly\n"),
    "malformed-budget": ({"MPART_LOOP_BUDGET": "abc"},
                         "count --kind b --base 2 --n 10 --method nested", 2, "",
                         "error: MPART_LOOP_BUDGET must be a nonnegative integer, got 'abc'\n"),
    "usage": ({}, "verify --suite nope --n-range 1..2", 2, "", "usage: mpart verify"),
}


@pytest.mark.parametrize("case", sorted(PROCESS_RUNS))
def test_cli_as_a_process(case):
    budgets, argv, code, out, err = PROCESS_RUNS[case]
    env = {k: v for k, v in os.environ.items()
           if k not in ("MPART_ENUM_BUDGET", "MPART_LOOP_BUDGET")}
    env.update(budgets, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "mpart.cli", *argv.split()],
                            capture_output=True, text=True, env=env, timeout=10)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (code, out)
    if case == "usage":
        assert result.stderr.startswith(err)
    else:
        assert result.stderr == err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together they cost a fresh interpreter more to import than a count takes
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import mpart.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-c", code],
                            capture_output=True, text=True, timeout=30)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("suite", ["afs-b", "afs-c", "afs-equiv", "reduction"])
def test_residue_sweep_at_a_large_n_keeps_its_memory_bounded(suite):
    # each n's digits take about 9 KB at 2^1100, and c's quotients x // m**t
    # about 75 KB per block; 2000 points would take about 35 MiB if the
    # digits of each were kept, or the block's level dicts grew with it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"""
import contextlib, io, resource, sys
sys.path.insert(0, {src!r})
from mpart.cli import main
def sweep(lo, hi):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--suite", {suite!r}, "--base-range", "2..2",
                     f"--n-range={{lo}}..{{hi}}"]) == 0, out.getvalue()
n = 2**1100
sweep(n, n + 9)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sweep(n + 10, n + 2009)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    result = subprocess.run([sys.executable, "-I", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert int(result.stdout) < 10 * 1024  # KiB


RESIDUE_FUZZ_BASES = (-1, 0, 1, 2, 3, 10, 10**5, 10**9)
RESIDUE_FUZZ_STARTS = (-1, 0, 1, 7, 2**70, 10**12)
POSITIVE_N_ONLY = ("afs-c", "afs-c-ell", "afs-equiv")  # c(m, 0) = 1 lies outside their forms


def test_residue_commands_answer_or_refuse_at_the_edges_within_a_second(capsys):
    # verify over three n and congruence at one: a base below 2 is named
    # first, then a negative n, then n = 0 where the form needs n >= 1;
    # everything else answers, and every prediction holds
    for m, n in itertools.product(RESIDUE_FUZZ_BASES, RESIDUE_FUZZ_STARTS):
        calls = [(suite, ["verify", "--suite", suite, f"--base-range={m}..{m}",
                          f"--n-range={n}..{n + 2}"])
                 for suite in ("afs-b", "afs-c", "afs-equiv", "reduction")]
        calls += [(prop, ["congruence", "--property", prop, f"--base={m}", f"--n={n}"])
                  for prop in ("afs-b", "afs-c", "afs-c-ell")]
        for check, argv in calls:
            if m < 2:
                refusal = f"base must be >= 2, got {m}"
            elif n < 0:
                refusal = f"n must be nonnegative, got {n}"
            elif n == 0 and check in POSITIVE_N_ONLY:
                refusal = "n must be positive, got 0"
            else:
                refusal = None
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            if refusal:
                assert (code, out, err) == (2, "", f"error: {refusal}\n"), argv
            elif argv[0] == "verify":
                summary = {"suite": check, "cases_run": 3, "failures": 0, "skipped": 0}
                assert (code, out, err) == (0, json.dumps(summary) + "\n", ""), argv
            else:
                assert code == 0 and out.endswith(" PASS\n") and err == "", argv


def _edge_commands(m, n):
    """Every subcommand but the residue checks at (m, n): all ones for phi,
    the all-zero beta for phi-inv, and verify over three n."""
    j = to_base(m, n).j if m >= 2 and n >= 0 else 0
    point = [f"--base={m}", f"--n={n}"]
    calls = [["digits", *point], ["phi", *point, f"--partition={n}"],
             ["phi-inv", *point, "--beta=" + ",".join(["0"] * j)], ["table", *point],
             ["congruence", "--property", "churchhouse", *point]]
    calls += [["count", "--kind", kind, *point, *option] for kind in "bc"
              for option in (["--check"], *(["--method", method] for method in cli.B_ROUTES))]
    calls += [["verify", "--suite", suite, f"--base-range={m}..{m}", f"--n-range={n}..{n + 2}"]
              for suite in ("oracle-b", "oracle-c", "bijection", "churchhouse")]
    return calls


def test_every_subcommand_answers_or_refuses_at_the_edges_within_a_second(capsys):
    # the residue checks' grid: each call answers or refuses with exit 2 and
    # an error line, at once and without a traceback
    for m, n in itertools.product(RESIDUE_FUZZ_BASES, RESIDUE_FUZZ_STARTS):
        for argv in _edge_commands(m, n):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code in (0, 2) and "Traceback" not in err, argv
            if code == 2:
                assert out == "" and err.startswith("error: "), argv


def test_table_into_a_closed_pipe_exits_2_without_a_traceback():
    # the reader takes one row and goes; the next chunk's write finds the pipe
    # closed, and so would the flush at interpreter exit
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with subprocess.Popen([sys.executable, "-m", "mpart.cli", "table", "--base", "2",
                           "--n", "200"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"1,1,0,0,1,0,0,0\t0,0,0,0,0,0,0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=30), err) == (2, b"")


def test_short_output_into_a_closed_pipe_exits_2_without_a_traceback():
    # with stdout buffered, one line stays in the buffer until the command
    # returns; its flush meets a pipe whose reader closed before the start
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "mpart.cli", "digits", "--base", "4",
                                 "--n", "36"], stdout=write_end, stderr=subprocess.PIPE,
                                env=env, timeout=30)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, b"")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_table_memory_stays_at_one_chunk():
    # (2, 200) has 205,658 rows, about 50 MiB if they were all kept; (2, 10)
    # has 14, so the gap is what the rows themselves cost
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = """
import resource, subprocess, sys
with open("/dev/null", "w") as null:
    subprocess.run([sys.executable, "-m", "mpart.cli", *sys.argv[1:]], stdout=null, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

    def peak(n):
        result = subprocess.run([sys.executable, "-c", code, "table", "--base", "2",
                                 "--n", str(n)], capture_output=True, text=True, env=env,
                                timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        return int(result.stdout)

    assert peak(200) - peak(10) < 10 * 1024  # KiB
