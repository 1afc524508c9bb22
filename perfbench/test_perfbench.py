"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from mpart import cli, congruence, counting, partitions  # noqa: E402
from mpart.radix import to_base  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_rounds(workload: str, seed: int = 7):
    if workload == "bigcount":
        return workloads.bigcount_ops(seed, 2, workloads.load_golden(), max_digits=23)
    if workload == "sweep":
        return workloads.sweep_ops(seed, 2, scale=0.05)
    return workloads.enumerate_ops(seed, 2, scale=0.01)


def argvs(rounds):
    return [op.argv for ops in rounds for op in ops]


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_reference_counts_match_program():
    for m in (2, 3, 5, 10):
        b, c = workloads.reference_counts(m, 300)
        assert b == counting.recurrence_table(m, 300)
        assert c[1:120] == [partitions.count_c_enum(m, n) for n in range(1, 120)]


def test_golden_small_entries_cross_check():
    pool = workloads.load_golden()
    checked = 0
    for entries in pool.values():
        for e in entries:
            if e.j > 23:
                continue
            value = (counting.count_b_poly if e.kind == "b" else counting.count_c_poly)(e.m, e.n)
            assert workloads.answer_digest(value) == e.digest
            if e.n % e.m == 0:
                predict = congruence.b_mod_product if e.kind == "b" else congruence.c_mod_formula
                assert value % e.m == predict(to_base(e.m, e.n // e.m)).value
            checked += 1
    assert checked >= 3 * 4 * 16  # three rungs of four bases


def test_golden_ladder_fits_limit_and_probes_exceed_it():
    for (role, *_), entries in workloads.load_golden().items():
        for e in entries:
            assert (e.answer_digits > workloads.INT_STR_LIMIT) == (role == "probe")


def test_plan_is_seeded():
    for workload in workloads.WHY:
        a = argvs(small_rounds(workload, 1))
        assert a == argvs(small_rounds(workload, 1))
        assert a != argvs(small_rounds(workload, 2))


def test_rounds_have_equal_composition():
    for workload in workloads.WHY:
        rounds = small_rounds(workload)
        shapes = [sorted([a for a, prev in zip(op.argv, [""] + op.argv)
                         if prev not in ("--n", "--n-range")] for op in ops)
                 for ops in rounds]
        assert len(rounds) == 2 and shapes[0] == shapes[1]


def test_bigcount_queries_are_distinct():
    queries = argvs(workloads.bigcount_ops(3, 4, workloads.load_golden()))
    per_round = sum(j <= top for top in workloads.LADDER_TOP.values() for j in workloads.LADDER)
    assert len({tuple(a) for a in queries}) == len(queries) == 4 * per_round


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_end_to_end_metrics_emitted(workload):
    result, report = run.measure(workload, 1, 1, trace=False, rounds=small_rounds(workload))
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    extra = {"bigcount": {"time_exponent"}, "enumerate": {"partitions_per_s"}}.get(workload, set())
    assert set(report["metrics"]) == set(result["metrics"]) | {"failed_frac"} | extra
    for key in ("python", "implementation", "nproc", "commit", "seed", "why", "tracing_overhead_s"):
        assert key in report


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_per_layer_metrics_emitted(workload):
    result, report = run.measure(workload, 1, 1, trace=True, rounds=small_rounds(workload))
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert report["untraced_functions"] == []
    assert report["tracing_overhead_s"] == result["metrics"]["trace.overhead_s"]["value"]
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "bigcount":
        assert layers["polysum.eval.calls"] > 0 and layers["kernels.steps"] == 0
    if workload == "enumerate":
        assert layers["partitions.objects"] > 0 and layers["bijection.objects"] > 0


def test_tracer_restores_originals():
    before = (counting.count_b_poly, counting.to_base, counting.IntPolynomial.eval)
    with tracing.Tracer() as tracer:
        assert counting.count_b_poly is not before[0]
        assert counting.count_b_poly(3, 10) == 5
    assert (counting.count_b_poly, counting.to_base, counting.IntPolynomial.eval) == before
    assert tracer.totals["counting.count_b_poly"][0] == 1


def test_corrupted_golden_value_is_a_failed_op():
    pool = workloads.load_golden()
    e = pool[("ladder", "c", 3, 19)][0]
    bad = replace(e, digest=workloads.answer_digest(int(e.digest, 16)))
    rounds = [[workloads.count_op(e), workloads.count_op(bad)]]
    result, report = run.measure("bigcount", 1, 1, trace=False, rounds=rounds)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert report["metrics"]["failed_frac"]["value"] == 0.5
    assert "golden" in report["failures"][0]["error"]


def test_unparsable_output_is_a_failed_op():
    op = workloads._verify_op("afs-b", 2, 5, 6)
    op.argv = ["digits", "--base", "2", "--n", "5"]  # prints "1,0,1", not a JSON summary
    outcome = run.Pass([[op]], cli)
    assert outcome.failed == 1 and "unparsable" in outcome.errors[0]


def test_failed_ops_are_exactly_the_over_limit_answers():
    """With the int -> str limit lowered to its minimum, answers above it
    fail while the defect stands; a fixed CLI fails none of them."""
    pool = workloads.load_golden()
    entries = [e for (role, _, m, j), es in pool.items()
               if role == "ladder" and m == 10 and j in (28, 33, 40) for e in es[:2]]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        outcome = run.Pass([[workloads.count_op(e) for e in entries]], cli)
    finally:
        sys.set_int_max_str_digits(limit)
    over = [e.answer_digits > 640 for e in entries]
    failed = [err is not None for err in outcome.errors]
    assert any(over) and not all(over)
    assert failed in (over, [False] * len(entries))


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
