"""Smoke runs of the scripts, which import CLI and genfun internals."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("distribution_report.py", ["--max-n", "6"]),
        ("run_identity_suite.py", ["--order", "5", "--qmax", "3"]),
    ],
)
def test_script_exits_zero(script, args):
    _assert_exits_zero([], script, args)


# The genfun certificates are explicit raises, so -O must change nothing.
# At n = 9 the distribution report checks enumeration, by a prefix walk
# and memoized tails, against every other route.
@pytest.mark.parametrize(
    "script, args",
    [
        ("run_identity_suite.py", ["--order", "6", "--qmax", "3"]),
        ("distribution_report.py", ["--max-n", "9"]),
    ],
)
def test_script_exits_zero_under_optimize(script, args):
    _assert_exits_zero(["-O"], script, args)


def _assert_exits_zero(flags, script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *flags, "-B", str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
