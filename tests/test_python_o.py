"""The guard tests again under python -O, which strips assert statements.

A guard test carries the `guard` marker (registered in pyproject.toml):
every check it exercises must be an explicit raise, never an assert.
Hypothesis tests are left unmarked, so the run writes no example database.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _guard_pytest(python_flags, *pytest_args):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-m", "guard", *pytest_args],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_guard_tests_pass_under_python_O():
    collect = _guard_pytest([], "--collect-only")
    assert collect.returncode == 0, collect.stdout + collect.stderr
    selected = re.search(r"^(\d+)/\d+ tests collected", collect.stdout, re.MULTILINE)
    assert selected and int(selected[1]) > 0, collect.stdout
    proc = _guard_pytest(["-O"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # every case selected under plain python ran and passed, so a run
    # under -O that silently collects fewer still fails
    assert re.search(rf"^{selected[1]} passed\b", proc.stdout, re.MULTILINE), proc.stdout
