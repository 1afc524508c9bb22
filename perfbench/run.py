#!/usr/bin/env python3
"""Benchmark for mpart: seeded workloads driven through the CLI, end to end
and traced at module boundaries.

Run from the repository root:

    python3 perfbench/run.py --workload bigcount --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.WHY``): ``bigcount``, ``sweep``, ``enumerate``.
One process runs one workload as a closed loop with one client: it imports
``mpart.cli`` from ``src/`` of the checkout, calls ``mpart.cli.main(argv)``
for each generated op in turn with stdout captured, and checks every
answer outside the timed region.  Ops come in rounds of equal composition;
``--seconds`` sets the number of rounds from the round durations measured
on the reference machine (ROUND_S), so both sides of a comparison run the
same ops.  Program caches are emptied before each round, and the set-up
samples are spread over the run, so that they meet the same host load as
the ops.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same rounds run once traced (see ``tracing.py``) and once
untraced, and the last line carries the per-layer metrics, including the
tracing overhead.  The line before it is a JSON report with every metric by
name and unit, the environment, and the failed ops.

Exits 2 without a result when the checkout has no ``src/mpart``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracing  # noqa: E402
import workloads  # noqa: E402

# Nominal seconds per round on the reference machine (2 cores, Python 3.11,
# pure-Python walkers, quiet host).
ROUND_S = {"bigcount": 1.8, "sweep": 0.42, "enumerate": 0.5}
SETUP_SAMPLES = 9
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mib": "MiB",
    "points_per_s": "1/s",
}
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mpart.cli; print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Seconds to import mpart.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def clear_caches() -> None:
    """Empty every functools cache in mpart, as in a fresh process (also
    behind a tracing wrapper)."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "mpart" or name.startswith("mpart.")):
            for value in list(vars(module).values()):
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if callable(getattr(fn, "cache_clear", None)):
                        fn.cache_clear()


def run_op(op, cli) -> tuple[float, str | None]:
    """Seconds spent in cli.main(op.argv), and the error if the op failed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            error = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    if error is None:
        try:
            error = op.check(rc, out.getvalue())
        except ValueError as exc:  # output the check cannot parse
            error = f"unparsable output: {exc}"
        if error is not None and err.getvalue():
            error += "; stderr: " + err.getvalue().strip().splitlines()[0][:200]
    return elapsed, error


class Pass:
    """Every round run once, in order; ``after_round(i)`` runs untimed
    after round i."""

    def __init__(self, rounds, cli, after_round=None) -> None:
        self.ops = [op for ops in rounds for op in ops]
        self.times: list[float] = []
        self.errors: list[str | None] = []
        self.round_walls: list[float] = []
        for i, ops in enumerate(rounds):
            clear_caches()
            for op in ops:
                elapsed, error = run_op(op, cli)
                self.times.append(elapsed)
                self.errors.append(error)
            self.round_walls.append(sum(self.times[-len(ops):]))
            if after_round is not None:
                after_round(i)
        self.failed = sum(e is not None for e in self.errors)
        self.wall_s = sum(self.times)

    def failures(self, limit: int = 10) -> list[dict]:
        return [{"argv": " ".join(op.argv)[:200], "error": e}
                for op, e in zip(self.ops, self.errors) if e is not None][:limit]


def plan(workload: str, seed: int, seconds: float):
    """The rounds of ops for a run, and the over-limit probe (bigcount)."""
    rounds = max(1, round(seconds / ROUND_S[workload]))
    if workload == "bigcount":
        pool = workloads.load_golden()
        rounds = min(rounds, workloads.max_bigcount_rounds(pool))
        return workloads.bigcount_ops(seed, rounds, pool), workloads.probe_entry(seed, pool)
    if workload == "sweep":
        return workloads.sweep_ops(seed, rounds), None
    return workloads.enumerate_ops(seed, rounds), None


def end_to_end(run: Pass, setup: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(run.times, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": run.wall_s,
        "op_p50_s": deciles[4],
        "op_p90_s": deciles[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "points_per_s": sum(op.points for op in run.ops) / run.wall_s,
    }


def workload_only(workload: str, run: Pass) -> dict[str, dict]:
    """Metrics that exist on one workload only: reported, not compared."""
    ops = run.ops
    out = {"failed_frac": {"value": run.failed / len(ops), "unit": "ratio"}}
    if workload == "bigcount":
        out["time_exponent"] = {"value": workloads.time_exponent(ops, run.times), "unit": "1"}
    if workload == "enumerate":
        out["partitions_per_s"] = {"value": sum(op.partitions for op in ops) / run.wall_s, "unit": "1/s"}
    return out


def run_probe(entry, cli) -> dict:
    """One query whose answer is longer than the interpreter's int -> str
    limit, run after the measured ops and outside every metric."""
    op = workloads.count_op(entry)
    elapsed, error = run_op(op, cli)
    return {"argv": " ".join(op.argv), "answer_digits": entry.answer_digits,
            "over_limit": entry.answer_digits > workloads.INT_STR_LIMIT,
            "time_s": elapsed, "failed": error is not None, "error": error}


def environment() -> dict:
    kernels = sys.modules.get("mpart.kernels")
    digest = hashlib.sha256()
    for path in sorted((SRC / "mpart").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".so", ".pyc"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": getattr(kernels, "IMPLEMENTATION", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def kernel_speedups() -> dict[str, float] | None:
    """Python-over-compiled time ratio per walker on fixed inputs, when the
    compiled extension is importable; None otherwise."""
    compiled = getattr(sys.modules.get("mpart.kernels"), "_compiled", None)
    if compiled is None:
        return None
    from mpart import _walkers_py

    cap = 10**9
    alpha = [1, 1, 0, 0, 1, 1, 1, 1]  # 243 in base 2, least significant first
    cases = {
        "nested_sum_b": lambda impl: impl.nested_sum_b(2, alpha, cap),
        "nested_sum_c": lambda impl: impl.nested_sum_c(
            2, alpha, [0, 0, 1, 1, 0, 0, 0], [243 // 2**r - 1 for r in range(1, 8)], cap),
        "walk_partitions": lambda impl: impl.walk_partitions(2, 180, cap),
        "walk_gapfree": lambda impl: impl.walk_gapfree(2, 200, cap),
    }
    ratios = {}
    for name, call in cases.items():
        best = {}
        for label, impl in (("python", _walkers_py), ("compiled", compiled)):
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                call(impl)
                runs.append(time.perf_counter() - start)
            best[label] = min(runs)
        ratios[name] = best["python"] / best["compiled"]
    return ratios


def _setup_schedule(rounds: int, samples: int) -> list[int]:
    """How many set-up samples to take after each round: spread over the
    run, so that their median covers the same host conditions as the ops."""
    counts = [0] * rounds
    for k in range(samples):
        counts[min(rounds - 1, k * rounds // samples)] += 1
    return counts


def measure(workload: str, seed: int, seconds: float, trace: bool, rounds=None, probe=None):
    """Run one workload; returns (result line, report).  Tests pass their
    own small ``rounds``."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import mpart.cli as cli

    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "mpart":
        raise RuntimeError(f"imported mpart from {cli.__file__}, not from {SRC}")
    if rounds is None:
        rounds, probe = plan(workload, seed, seconds)
    import_time()  # fills the bytecode cache; not a sample
    setup: list[float] = []
    schedule = _setup_schedule(len(rounds), SETUP_SAMPLES)

    def sample_setup(i: int) -> None:
        setup.extend(import_time() for _ in range(schedule[i]))

    report = {"workload": workload, "why": workloads.WHY[workload], "seed": seed,
              "seconds": seconds, "trace": int(trace), "rounds": len(rounds),
              "ops": sum(map(len, rounds)), **environment(), "import_in_process_s": import_s}
    if trace:
        with tracing.Tracer() as tracer:
            traced = Pass(rounds, cli)
        run = Pass(rounds, cli, sample_setup)
        overhead = traced.wall_s - run.wall_s
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in tracer.metrics(overhead).items()}
        attempted, failed = 2 * len(run.errors), traced.failed + run.failed
        report.update(traced_wall_s=traced.wall_s, untraced_wall_s=run.wall_s,
                      tracing_overhead_s=overhead, untraced_functions=tracer.missing,
                      kernel_speedup_python_over_compiled=kernel_speedups(),
                      spans=tracer.edge_report()[:40], failures=traced.failures() + run.failures())
    else:
        run = Pass(rounds, cli, sample_setup)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(run, setup).items()}
        attempted, failed = len(run.errors), run.failed
        report.update(failures=run.failures(),
                      tracing_overhead_s=None)  # measured by --trace 1 on the same rounds
        if probe is not None:
            report["int_str_limit_probe"] = run_probe(probe, cli)
    report["setup_samples_s"] = setup
    report["round_walls_s"] = run.round_walls
    report["metrics"] = {**metrics, **workload_only(workload, run)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mpart" / "cli.py").is_file():
        print(f"error: no mpart sources under {SRC}", file=sys.stderr)
        return 2
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
