"""The repository tracks no file that its own .gitignore excludes, every
function the benchmark's tracer wraps still exists, README installs the
package as CI does, and the package runs no generated code."""

import ast
import importlib.util
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, timeout=60)


def test_no_tracked_file_is_ignored():
    try:
        inside = _git("rev-parse", "--is-inside-work-tree")
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not available")
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_every_traced_name_resolves():
    # the tracer records a name it cannot find as missing instead of failing,
    # so a rename would otherwise only show in a benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"mpart.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                unresolved.append(f"{layer}.{qualname}")
    assert unresolved == []


def _pip_installs(text: str) -> list[str]:
    """The pip install commands of a README code block or a workflow run
    step, with the extra and its quotes left out."""
    commands = re.findall(r"^\s*(?:- run: )?(pip install .*?)\s*$", text, re.MULTILINE)
    return [re.sub(r"\[[^]]*\]|['\"]", "", command) for command in commands]


def test_readme_installs_as_ci_does():
    readme = _pip_installs((ROOT / "README.md").read_text())
    ci = _pip_installs((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    assert len(ci) == 1
    assert readme == ci


def test_no_module_runs_generated_code():
    # a bare name only: a method such as IntPolynomial.eval is an attribute
    calls = []
    for path in sorted((ROOT / "src" / "mpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                calls.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert calls == []
