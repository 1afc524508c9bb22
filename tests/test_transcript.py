"""A pinned CLI transcript: exit code, stdout and stderr of every command in
``COMMANDS`` must equal the lines of ``golden/cli_transcript.jsonl``.

The golden file is written by running this module as a script from the
repository root, on the commit whose behaviour it pins:

    PYTHONPATH=src python3 tests/test_transcript.py

Argparse usage and ``--help`` texts vary across Python versions and are
pinned by ``test_cli.py``, so no command here is a usage error.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mpart.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.jsonl"
BUDGET_VARS = ("MPART_ENUM_BUDGET", "MPART_LOOP_BUDGET")
TIGHT = {"MPART_ENUM_BUDGET": "500", "MPART_LOOP_BUDGET": "700"}


def _commands() -> list[tuple[dict[str, str], list[str]]]:
    readme = [
        "digits --base 4 --n 36",
        "count --kind b --base 3 --n 10",
        "count --kind c --base 5 --n 2425",
        "count --kind b --base 2 --n 500 --check",
        "table --base 4 --n 36",
        "phi --base 4 --n 36 --partition 1,4,4",
        "phi-inv --base 4 --n 36 --beta 2,0",
        "congruence --property afs-c --base 5 --n 485",
        "congruence --property churchhouse --base 2 --n 3 --k 2",
    ]
    counts = [
        f"count --kind {kind} --base {m} --n {n} {how}"
        for kind in "bc" for m in (2, 3) for n in (-1, 0, 1, 100)
        for how in ("--method nested", "--method poly", "--method recurrence",
                    "--method gf", "--method enumerate", "--check")
    ]
    tables = [
        f"table --base {m} --n {n}"
        for m, n in ((2, 1), (2, 10), (3, 10), (7, 6), (10, 25), (2, 0), (2, -3),
                     (1, 5), (0, 5), (2, 2**70))
    ]
    phis = [
        "phi --base 4 --n 36 --partition ''",
        "phi --base 4 --n 36 --partition 0,0",
        "phi --base 4 --n 36 --partition 0,1,4,4",
        "phi --base 4 --n 36 --partition 0,0,36",
        "phi --base 4 --n 36 --partition 2,1,0",
        "phi --base 4 --n 36 --partition 1,4,5",
        "phi --base 4 --n 36 --partition 1,-4,24",
        "phi --base 3 --n 10 --partition 1,0,1",
        "phi --base 3 --n 2 --partition 2",
        "phi --base 1 --n 5 --partition 5",
        "phi-inv --base 4 --n 36 --beta 0,0",
        "phi-inv --base 4 --n 36 --beta 2,9",
        "phi-inv --base 4 --n 36 --beta 3,0",
        "phi-inv --base 4 --n 36 --beta 1",
        "phi-inv --base 4 --n 36 --beta 1,-1",
        "phi-inv --base 3 --n 2 --beta ''",
        "phi-inv --base 3 --n 0 --beta ''",
    ]
    congruences = [
        f"congruence --property {prop} --base {m} --n {n}"
        for prop in ("afs-b", "afs-c", "afs-c-ell")
        for m, n in ((2, 1), (3, 10), (5, 487), (7, 0), (1, 5))
    ] + [
        f"congruence --property churchhouse --base {m} --n {n} --k {k}"
        for m, n, k in ((2, 1, 1), (2, 5, 3), (2, 0, 1), (3, 5, 1))
    ]
    verifies = [
        f"verify --suite {suite} --base-range 2..3 --n-range 1..20"
        for suite in ("oracle-b", "oracle-c", "bijection", "afs-b", "afs-c",
                      "afs-equiv", "churchhouse", "reduction")
    ] + [
        "verify --suite churchhouse --k-range 1..3 --n-range 0..6",
        "verify --suite reduction --base-range 0..0 --n-range 0..1",
    ]
    # zero digits make the gap-free chain's lower bounds 1 and its
    # zero-based offsets -1
    gapfree = [
        f"count --kind c --base {m} --n {n} {how}"
        for m, n in ((2, 10), (2, 37), (2, 300), (3, 30), (3, 91), (10, 1010),
                     (10, 20301))
        for how in ("--method nested", "--method poly", "--method enumerate", "--check")
    ] + [
        "verify --suite afs-c --base-range 2..3 --n-range 0..3",
    ]
    tight = [
        f"count --kind {kind} --base 2 --n {n} {how}"
        for kind in "bc" for n in (100, 2000)
        for how in ("--method nested", "--method enumerate", "--method recurrence",
                    "--check")
    ] + [
        "table --base 2 --n 100",
        "table --base 3 --n 40",
        "verify --suite oracle-b --base-range 2..3 --n-range 1..400",
        "verify --suite oracle-b --base-range 2..3 --n-range 1..600",
        "verify --suite oracle-c --base-range 2..3 --n-range 90..110",
        "verify --suite bijection --base-range 2..2 --n-range 1..60",
    ]
    default = readme + counts + tables + phis + congruences + verifies + gapfree
    return ([({}, _split(line)) for line in default]
            + [(dict(TIGHT), _split(line)) for line in tight])


def _split(line: str) -> list[str]:
    return [word.replace("''", "") for word in line.split()]


COMMANDS = _commands()


def run(env: dict[str, str], argv: list[str]) -> dict:
    """One in-process CLI call with exactly ``env`` as its budget settings."""
    saved = {name: os.environ.pop(name, None) for name in BUDGET_VARS}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        for name, value in saved.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    return {"env": env, "argv": argv, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_transcript_matches_golden():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [(g["env"], g["argv"]) for g in golden] == COMMANDS
    mismatches = [" ".join(g["argv"]) for g in golden if run(g["env"], g["argv"]) != g]
    assert mismatches == []


if __name__ == "__main__":
    with GOLDEN.open("w") as f:
        for env, argv in COMMANDS:
            f.write(json.dumps(run(env, argv)) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {GOLDEN}", file=sys.stderr)
