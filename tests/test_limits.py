"""The walker entry points answer or refuse within a child's memory and time
cap: each command runs in its own process under a 512 MiB address-space
limit and a 2 s timeout, at the default budgets, and must exit 0, 1 or 2
without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ADDRESS_SPACE = 512 * 2**20  # bytes
TIMEOUT_S = 2

BASES = {"2": 2, "3": 3, "10": 10, "10^5": 10**5}
NS = {"1": 1, "2^70": 2**70, "10^12": 10**12, "2^1100": 2**1100}
COMMANDS = {
    "count-b-nested": "count --kind b --base {m} --n {n} --method nested",
    "count-c-nested": "count --kind c --base {m} --n {n} --method nested",
    "count-b-enumerate": "count --kind b --base {m} --n {n} --method enumerate",
    "count-c-enumerate": "count --kind c --base {m} --n {n} --method enumerate",
    "table": "table --base {m} --n {n}",
    "verify-bijection": "verify --suite bijection --base-range {m}..{m} --n-range {n}..{n}",
}
GRID = [pytest.param(command, m, n, id=f"{command}-{m_id}-{n_id}")
        for command in COMMANDS for m_id, m in BASES.items() for n_id, n in NS.items()]


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("command, m, n", GRID)
def test_walker_entry_point_answers_or_refuses_under_a_child_cap(command, m, n):
    env = {k: v for k, v in os.environ.items()
           if k not in ("MPART_ENUM_BUDGET", "MPART_LOOP_BUDGET")}
    env["PYTHONPATH"] = SRC
    argv = [sys.executable, "-m", "mpart.cli", *COMMANDS[command].format(m=m, n=n).split()]
    try:
        result = subprocess.run(argv, capture_output=True, text=True, env=env,
                                timeout=TIMEOUT_S, preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no exit within {TIMEOUT_S} s")
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr
