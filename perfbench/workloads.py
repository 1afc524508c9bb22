"""Seeded workloads for the mpart benchmark.

Each workload turns a seed into a list of CLI argument vectors (``Op``)
for ``mpart.cli.main`` and knows how to check every answer.  The program
only ever sees the generated argv; expected values come from the pinned
golden table (``bigcount``) or from this module's own small counting
tables (``sweep`` and ``enumerate``), never from the code under test.

Each workload is a list of rounds.  Every round has the same composition
(the same op kinds and sizes on fresh random inputs), so rounds can be
compared with each other and percentiles do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "bigcount_golden.tsv"

WHY = {
    "bigcount": "one exact b or c count per op on a fresh random n of 16 to 119 digits; "
                "the poly route's big-integer growth, no shared structure to cache",
    "sweep": "verify suites over consecutive n blocks at large offsets; "
             "many mid-degree poly counts where per-call overhead and shared digits matter",
    "enumerate": "bijection, oracle-c, table and count --check on small n; "
                 "the partition, bijection and walker layers that materialise every partition",
}

# CPython refuses int -> decimal str conversions longer than this by default.
INT_STR_LIMIT = 4300

# ---------------------------------------------------------------------------
# Independent reference counts (small n only)


def reference_counts(m: int, top: int) -> tuple[list[int], list[int]]:
    """b(m, 0..top) and c(m, 0..top), computed independently of mpart.

    p_r(x) counts partitions of x into parts 1, m, ..., m**r; b is the
    limit over r, and a gap-free partition with largest part m**r is
    1 + m + ... + m**r plus any partition into those parts, so
    c(n) = sum_r p_r(n - s_r) with s_r = 1 + m + ... + m**r.
    """
    p = [1] * (top + 1)  # p_0: parts equal to 1 only
    c = [0] * (top + 1)
    c[0] = 1
    power, s = 1, 1
    while s <= top:
        for n in range(s, top + 1):
            c[n] += p[n - s]
        power *= m
        s += power
        if power <= top:
            for x in range(power, top + 1):
                p[x] += p[x - power]
    while power <= top:  # parts too large for a gap-free stratum still count in b
        power *= m
        for x in range(power, top + 1):
            p[x] += p[x - power]
    return p, c


def parse_decimal(text: str) -> int:
    """int(text) without the interpreter's digit limit, which this process
    must leave at its default so that the CLI under test is unaffected."""
    text = text.strip()
    if not text or not text.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), 500):  # the lowest limit allowed is 640 digits
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def answer_digest(value: int) -> str:
    """Fingerprint of an exact answer, stable across int -> str limits."""
    return hashlib.sha256(format(value, "x").encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Ops


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None
    points: int = 1  # answers (grid points or queries) the op checks
    partitions: int = 0  # partitions materialised as objects and checked
    group: str = ""  # bigcount: (kind, base) class for the growth fit
    digits: int = 0  # bigcount: base-m digit count of n


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    rng.shuffle(ops)
    return ops


def _verify_check(suite: str, cases: int) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        lines = out.strip().splitlines()
        if rc != 0:
            return f"exit {rc}"
        if len(lines) != 1:
            return f"{len(lines) - 1} failure lines"
        summary = json.loads(lines[0])
        if summary.get("suite") != suite or summary.get("failures") != 0:
            return f"summary {summary}"
        if summary.get("cases_run") != cases:
            return f"cases_run {summary.get('cases_run')} != grid size {cases}"
        return None
    return check


def _verify_op(suite: str, m: int, lo: int, hi: int, **counts) -> Op:
    argv = ["verify", "--suite", suite, "--base-range", f"{m}..{m}", "--n-range", f"{lo}..{hi}"]
    cases = hi - lo + 1
    return Op(argv, _verify_check(suite, cases), points=cases, **counts)


# ---------------------------------------------------------------------------
# bigcount: one poly-route count per op on a fresh random n


# Digit counts of n; each base climbs the ladder up to its top rung.  The
# tops keep a round near two seconds, so that a run holds a dozen rounds,
# and every answer below INT_STR_LIMIT (the golden table asserts it).
LADDER = (16, 19, 23, 28, 33, 40, 48, 57, 69, 83, 99, 119)
LADDER_TOP = {2: 119, 3: 99, 5: 83, 10: 69}
# Over-limit queries, run once per run outside the measured ops.
PROBE_CLASS = (10, 97)


@dataclass(frozen=True)
class GoldenEntry:
    role: str  # "ladder" or "probe"
    kind: str
    m: int
    j: int
    n: int
    answer_digits: int
    digest: str


def load_golden(path: Path = GOLDEN_PATH) -> dict[tuple[str, str, int, int], list[GoldenEntry]]:
    pool: dict[tuple[str, str, int, int], list[GoldenEntry]] = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            role, kind, m, j, n, digits, digest = line.split()
            e = GoldenEntry(role, kind, int(m), int(j), int(n), int(digits), digest)
            pool.setdefault((role, kind, e.m, e.j), []).append(e)
    return pool


def _count_check(expected_digest: str) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        try:
            value = parse_decimal(out)
        except ValueError as exc:
            return str(exc)
        if answer_digest(value) != expected_digest:
            return "answer differs from the golden value"
        return None
    return check


def count_op(e: GoldenEntry) -> Op:
    argv = ["count", "--kind", e.kind, "--base", str(e.m), "--n", str(e.n)]
    return Op(argv, _count_check(e.digest), group=f"{e.kind}{e.m}", digits=e.j)


def ladder() -> list[tuple[str, int, int]]:
    """The (kind, base, digit count) of each query of a bigcount round; the
    kind alternates along each base's ladder."""
    return [("bc"[i % 2], m, j) for m, top in LADDER_TOP.items()
            for i, j in enumerate(LADDER) if j <= top]


def bigcount_ops(seed: int, rounds: int, pool, max_digits: int = LADDER[-1]) -> list[list[Op]]:
    """One query per ladder class per round, each on a distinct pooled n."""
    rng = random.Random(seed)
    classes = [c for c in ladder() if c[2] <= max_digits]
    picks = {c: rng.sample(pool[("ladder", *c)], rounds) for c in classes}
    return [_shuffled(rng, [count_op(picks[c][r]) for c in classes]) for r in range(rounds)]


def max_bigcount_rounds(pool) -> int:
    return min(len(v) for k, v in pool.items() if k[0] == "ladder")


def probe_entry(seed: int, pool) -> GoldenEntry:
    m, j = PROBE_CLASS
    kind = "bc"[seed % 2]
    return random.Random(seed).choice(pool[("probe", kind, m, j)])


# Rungs below this are dominated by per-call overhead, not by the growth.
FIT_MIN_DIGITS = 40


def time_exponent(ops: list[Op], times: list[float]) -> float:
    """Least-squares slope of log(op time) on log(digit count) over rungs of
    at least FIT_MIN_DIGITS digits, with one intercept per (kind, base)."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for op, t in zip(ops, times):
        if op.digits >= FIT_MIN_DIGITS:
            groups.setdefault(op.group, []).append((math.log(op.digits), math.log(t)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else float("nan")


# ---------------------------------------------------------------------------
# sweep: verify suites over consecutive blocks


# Digit count of the block offset per base: m*n (and m**3*n for reduction)
# then has 9 to 27 base-m digits, so count_*_poly runs at mid degree.
SWEEP_DIGITS = {2: 24, 3: 16, 5: 11, 10: 8}
# Block lengths sized so each op takes tens of milliseconds.
SWEEP_BLOCK = {
    "afs-b": {2: 36, 3: 75, 5: 120, 10: 260},
    "afs-c": {2: 30, 3: 40, 5: 90, 10: 190},
    "reduction": {2: 12, 3: 20, 5: 40, 10: 85},
}
CHURCHHOUSE_N = (180, 220, 14)  # offset window and block length, k = 1..2
# oracle-b: (offset window, block length) per base at small n
ORACLE_B = {2: ((180, 220), 16), 3: ((450, 550), 40), 4: ((800, 1000), 60), 5: ((1200, 1500), 80)}


def sweep_ops(seed: int, rounds: int, scale: float = 1.0) -> list[list[Op]]:
    rng = random.Random(seed)

    def size(x: int) -> int:
        return max(1, round(x * scale))

    out = []
    for _ in range(rounds):
        ops = []
        for suite, blocks in SWEEP_BLOCK.items():
            for m, length in blocks.items():
                d = max(4, round(SWEEP_DIGITS[m] * scale))
                lo = rng.randrange(m ** (d - 1), m**d - size(length))
                ops.append(_verify_op(suite, m, lo, lo + size(length) - 1))
        a, b, length = CHURCHHOUSE_N
        lo = rng.randrange(size(a), size(b))
        hi = lo + size(length) - 1
        argv = ["verify", "--suite", "churchhouse", "--k-range", "1..2", "--n-range", f"{lo}..{hi}"]
        cases = 2 * (hi - lo + 1)
        ops.append(Op(argv, _verify_check("churchhouse", cases), points=cases))
        for m, ((a, b), length) in ORACLE_B.items():
            lo = rng.randrange(size(a), size(b))
            ops.append(_verify_op("oracle-b", m, lo, lo + size(length) - 1))
        out.append(_shuffled(rng, ops))
    return out


# ---------------------------------------------------------------------------
# enumerate: the ground-truth layers on small n


ENUM_BASES = (2, 3, 4, 5)
# Work targets per op, in partitions (bijection, table: materialised
# objects; oracle-c, count --check: partitions walked).
ENUM_TARGET = {"bijection": 3000, "table": 3500, "oracle-c": 250_000, "check": 250_000}
ENUM_TOP = 4000  # reference tables cover n <= ENUM_TOP


def _table_check(m: int, n: int, rows: int) -> Callable[[int, str], str | None]:
    """Row count, each partition's weight, and each sequence's chained
    bounds; rows ascending and distinct by sequence."""
    alpha = []
    x = n
    while x:
        x, d = divmod(x, m)
        alpha.append(d)
    j = len(alpha) - 1

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        lines = out.splitlines()
        if len(lines) != rows:
            return f"{len(lines)} rows, expected {rows}"
        prev = None
        for line in lines:
            mults_text, beta_text = line.split("\t")
            mults = [int(v) for v in mults_text.split(",")]
            beta = tuple(int(v) for v in beta_text.split(",")) if beta_text else ()
            w = 0
            for lam in mults:
                w = w * m + lam
            if w != n or len(beta) != j:
                return f"bad row {line!r}"
            bound = alpha[j]
            for t, b in enumerate(beta):  # beta_j first
                if not 0 <= b <= bound:
                    return f"sequence out of bounds in row {line!r}"
                bound = alpha[j - 1 - t] + m * b
            if prev is not None and beta <= prev:
                return "rows not strictly ascending by sequence"
            prev = beta
        return None
    return check


def _block(rng: random.Random, counts: list[int], target: int) -> tuple[int, int]:
    """Consecutive n whose counts sum to at least target, from a random
    start where single counts are small enough (a 40th to a 10th of the
    target) that the block overshoots the target by little."""
    small = [n for n in range(1, len(counts)) if target / 40 <= counts[n] <= target / 10]
    lo = hi = rng.choice(small or [1])
    total = counts[lo]
    while total < target and hi + 1 < len(counts):
        hi += 1
        total += counts[hi]
    return lo, hi


def _near(counts: list[int], target: int) -> list[int]:
    """Every n >= 1 whose count is within a tenth of target (else the closest)."""
    band = [n for n in range(1, len(counts)) if 0.9 * target <= counts[n] <= 1.1 * target]
    return band or [min(range(1, len(counts)), key=lambda n: abs(counts[n] - target))]


def _equals_check(expected: int) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        return None if out.strip() == str(expected) else f"printed {out.strip()!r}, expected {expected}"
    return check


def enumerate_ops(seed: int, rounds: int, scale: float = 1.0) -> list[list[Op]]:
    rng = random.Random(seed)
    target = {k: max(8, round(v * scale)) for k, v in ENUM_TARGET.items()}
    out = []
    tables = {m: reference_counts(m, ENUM_TOP) for m in ENUM_BASES}
    for _ in range(rounds):
        ops = []
        for m in ENUM_BASES:
            b, c = tables[m]
            lo, hi = _block(rng, b, target["bijection"])
            parts = sum(b[lo:hi + 1])
            ops.append(_verify_op("bijection", m, lo, hi, partitions=parts))

            lo, hi = _block(rng, c, target["oracle-c"])
            ops.append(_verify_op("oracle-c", m, lo, hi))

            n = rng.choice(_near(b, target["table"]))
            argv = ["table", "--base", str(m), "--n", str(n)]
            ops.append(Op(argv, _table_check(m, n, b[n]), partitions=b[n]))

            n = rng.choice(_near(b, target["check"]))
            argv = ["count", "--kind", "b", "--check", "--base", str(m), "--n", str(n)]
            ops.append(Op(argv, _equals_check(b[n])))
        out.append(_shuffled(rng, ops))
    return out
