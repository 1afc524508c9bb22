"""Every entry point answers or refuses within a child's memory and time cap:
each command runs in its own process under a 512 MiB address-space limit and
a 2 s timeout, at the default budgets, and must exit 0, 1 or 2 without a
traceback.  The cases that still run past the timeout are strict expected
failures, each naming the ROADMAP item that bounds it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ADDRESS_SPACE = 512 * 2**20  # bytes
TIMEOUT_S = 2

# the walker entry points
WALKER_BASES = {"2": 2, "3": 3, "10": 10, "10^5": 10**5}
WALKER_NS = {"1": 1, "2^70": 2**70, "10^12": 10**12, "2^1100": 2**1100}
WALKERS = {
    "count-b-nested": "count --kind b --base {m} --n {n} --method nested",
    "count-c-nested": "count --kind c --base {m} --n {n} --method nested",
    "count-b-enumerate": "count --kind b --base {m} --n {n} --method enumerate",
    "count-c-enumerate": "count --kind c --base {m} --n {n} --method enumerate",
    "table": "table --base {m} --n {n}",
    "verify-bijection": "verify --suite bijection --base-range {m}..{m} --n-range {n}..{n}",
}

# every other subcommand and suite; {zeros} is the all-zero beta of n
BASES = {"0": 0, "2": 2, "10^9": 10**9}
NS = {"1": 1, "2^1100": 2**1100}
COMMANDS = {
    "digits": "digits --base {m} --n {n}",
    "count-b": "count --kind b --base {m} --n {n}",
    "count-c": "count --kind c --base {m} --n {n}",
    "count-b-check": "count --kind b --base {m} --n {n} --check",
    "count-c-check": "count --kind c --base {m} --n {n} --check",
    "phi": "phi --base {m} --n {n} --partition={n}",
    "phi-inv": "phi-inv --base {m} --n {n} --beta={zeros}",
    **{f"congruence-{p}": f"congruence --property {p} --base {{m}} --n {{n}}"
       for p in ("afs-b", "afs-c", "afs-c-ell")},
    "congruence-churchhouse": "congruence --property churchhouse --base {m} --n {n} --k 1",
    **{f"verify-{s}": f"verify --suite {s} --base-range {{m}}..{{m}} --n-range {{n}}..{{n}}"
       for s in ("afs-b", "afs-c", "afs-equiv", "reduction", "churchhouse", "oracle-b",
                 "oracle-c")},
}

# the exact route and churchhouse's modulus are unbounded until ROADMAP item 4;
# these run past the timeout, and only that failure is expected
UNBOUNDED = pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                              reason="unbounded until ROADMAP item 4")
# one of count and count --check of both kinds at (2, 2^1100) stands for all four
LEFT_OUT = {("count-c", "2", "2^1100"), ("count-b-check", "2", "2^1100"),
            ("count-c-check", "2", "2^1100")}
EXPECTED_FAILURES = {("count-b", "2", "2^1100")}
BEYOND_THE_GRID = {
    "verify-afs-b-10^8": "verify --suite afs-b --base-range 2..2 --n-range 1..100000000",
    "churchhouse-k-10^3": "congruence --property churchhouse --base 2 --n 1 --k 1000",
    "churchhouse-k-10^9": "congruence --property churchhouse --base 2 --n 1 --k 1000000000",
}


def _zeros(m: int, n: int) -> str:
    """The all-zero beta of n in base m, j entries; none below base 2."""
    j = 0
    while m >= 2 and n >= m:
        n //= m
        j += 1
    return ",".join(["0"] * j)


WALKER_GRID = [pytest.param(command, m, n, id=f"{command}-{m_id}-{n_id}")
               for command in WALKERS for m_id, m in WALKER_BASES.items()
               for n_id, n in WALKER_NS.items()]
GRID = [pytest.param(COMMANDS[command].format(m=m, n=n, zeros=_zeros(m, n)),
                     id=f"{command}-{m_id}-{n_id}",
                     marks=[UNBOUNDED] if (command, m_id, n_id) in EXPECTED_FAILURES else [])
        for command in COMMANDS for m_id, m in BASES.items() for n_id, n in NS.items()
        if (command, m_id, n_id) not in LEFT_OUT]
GRID += [pytest.param(command, id=name, marks=UNBOUNDED)
         for name, command in BEYOND_THE_GRID.items()]


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _answers_or_refuses_under_a_child_cap(command: str) -> None:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MPART_ENUM_BUDGET", "MPART_LOOP_BUDGET")}
    env["PYTHONPATH"] = SRC
    argv = [sys.executable, "-m", "mpart.cli", *command.split()]
    try:
        result = subprocess.run(argv, capture_output=True, text=True, env=env,
                                timeout=TIMEOUT_S, preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no exit within {TIMEOUT_S} s")
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr


LINUX_ONLY = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="RLIMIT_AS is enforced on Linux")


@LINUX_ONLY
@pytest.mark.parametrize("command, m, n", WALKER_GRID)
def test_walker_entry_point_answers_or_refuses_under_a_child_cap(command, m, n):
    _answers_or_refuses_under_a_child_cap(WALKERS[command].format(m=m, n=n))


@LINUX_ONLY
@pytest.mark.parametrize("command", GRID)
def test_entry_point_answers_or_refuses_under_a_child_cap(command):
    _answers_or_refuses_under_a_child_cap(command)
