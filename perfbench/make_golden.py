#!/usr/bin/env python3
"""Regenerate ``bigcount_golden.tsv``, the pinned answers of the bigcount pool.

Run from the repository root:  python3 perfbench/make_golden.py

For every (kind, base, digit count) class of the bigcount ladder, and for
both kinds of the over-limit probe class, the pool holds PER_CLASS distinct
random n with exactly that many base-m digits; every other one is a
multiple of m.  Each
answer comes from the poly route and is cross-checked two ways before it
is written:

  * against ``recurrence_table`` (kind b) and this benchmark's own
    reference counts (kinds b and c) wherever n <= RECURRENCE_MAX;
  * for multiples of m, against the residues b_mod_product and
    c_mod_formula predict for b(m, m*q) and c(m, m*q) mod m.

It also asserts that ladder answers fit the interpreter's int -> str limit
and probe answers exceed it.  Answers are stored as their digit count and a
digest (see ``workloads.answer_digest``).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mpart.congruence import b_mod_product, c_mod_formula  # noqa: E402
from mpart.counting import count_b_poly, count_c_poly, recurrence_table  # noqa: E402
from mpart.radix import to_base  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 1706
PER_CLASS = 16
RECURRENCE_MAX = 10**6


def classes():
    for kind, m, j in workloads.ladder():
        yield "ladder", kind, m, j
    m, j = workloads.PROBE_CLASS
    for kind in "bc":
        yield "probe", kind, m, j


def draw(rng: random.Random, m: int, j: int, multiple: bool) -> int:
    n = rng.randrange(m ** (j - 1), m**j)
    return n - n % m if multiple else n


def main() -> int:
    sys.set_int_max_str_digits(0)  # this tool only: digit counts of huge answers
    rng = random.Random(POOL_SEED)
    rows = []
    small: dict[int, list[tuple[str, int, int]]] = {}
    residue_checked = 0
    for role, kind, m, j in classes():
        seen = set()
        while len(seen) < PER_CLASS:
            n = draw(rng, m, j, multiple=len(seen) % 2 == 1)
            if n in seen or n < m:
                continue
            seen.add(n)
            value = (count_b_poly if kind == "b" else count_c_poly)(m, n)
            if n % m == 0:
                predict = b_mod_product if kind == "b" else c_mod_formula
                assert value % m == predict(to_base(m, n // m)).value, (kind, m, n)
                residue_checked += 1
            if n <= RECURRENCE_MAX:
                small.setdefault(m, []).append((kind, n, value))
            digits = len(str(value))
            over = digits > workloads.INT_STR_LIMIT
            assert over == (role == "probe"), (role, kind, m, j, digits)
            rows.append((role, kind, m, j, n, digits, workloads.answer_digest(value)))
        print(f"{role} {kind} m={m} j={j} done", file=sys.stderr, flush=True)
    recurrence_checked = 0
    for m, entries in small.items():
        top = max(n for _, n, _ in entries)
        table = recurrence_table(m, top)
        ref_b, ref_c = workloads.reference_counts(m, top)
        for kind, n, value in entries:
            if kind == "b":
                assert value == table[n] == ref_b[n], (kind, m, n)
            else:
                assert value == ref_c[n], (kind, m, n)
            recurrence_checked += 1
    with open(workloads.GOLDEN_PATH, "w") as fh:
        fh.write(
            f"# bigcount golden pool: seed {POOL_SEED}, {PER_CLASS} per class; "
            f"{recurrence_checked} answers checked by recurrence, {residue_checked} by residue\n"
            "# role kind m j n answer_digits digest\n"
        )
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    print(f"wrote {len(rows)} entries to {workloads.GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
