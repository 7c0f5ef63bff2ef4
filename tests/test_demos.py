"""Each demo script runs to completion, silently on stderr, and prints its commands' verdicts."""

import contextlib
import io
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from spinorlab import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CHECK_LINE = re.compile(r"^  (PASS|FAIL)  \S+  residual=\S+  tolerance=\S+$", re.M)


@cache
def run_demo(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120,
    )


def narrated_commands():
    """The commands that the README "Demos" table names in each demo's "narrates" cell."""
    rows = re.findall(r"^\| `(\w+\.py)` \| ([^|]*) \|", (ROOT / "README.md").read_text(), re.M)
    return {name: [c for c in re.findall(r"`([\w-]+)`", narrates) if c in cli.COMMANDS]
            for name, narrates in rows}


def text_report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*argv, "--format", "text"])
    return out.getvalue()


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert sorted(narrated_commands()) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_each_verdict_a_demo_prints_is_one_its_commands_report(demo, tmp_path):
    # each command at its defaults, with the input files it needs; no check of dual or
    # classify that a demo prints depends on what psi or duals holds
    (tmp_path / "psi.json").write_text("[[1, 0], [0, 0], [0, 0], [0, 0]]")
    (tmp_path / "duals.json").write_text("[[[1, 0], [0, 0], [0, 0], [0, 0]]]")
    files = {"dual": ["--psi", str(tmp_path / "psi.json")],
             "classify": ["--duals", str(tmp_path / "duals.json")]}
    reported = {line for command in narrated_commands()[demo.name]
                for line in text_report([command, *files.get(command, [])]).splitlines()}
    printed = [m.group(0) for m in CHECK_LINE.finditer(run_demo(demo).stdout)]
    assert [line for line in printed if line not in reported] == []
