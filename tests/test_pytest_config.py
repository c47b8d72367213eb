"""The repo's pytest settings, run on throwaway test files: every warning
is an error, and a failing Hypothesis property still ends in an ordinary
FAILED report with its falsifying example, not in an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(n):
    assert n < 10
"""

OTHER_WARNING = """\
import warnings


def test_warns():
    warnings.warn("some other deprecation", DeprecationWarning)
"""


def _pytest(tmp_path, name, source):
    """Run pytest on one file in tmp_path with the repo's ini options."""
    (tmp_path / name).write_text(source)
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), name,
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_failing_property_reports_failed(tmp_path):
    proc = _pytest(tmp_path, "test_property.py", FAILING_PROPERTY)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "FAILED test_property.py::test_below_ten" in out, out
    assert "Falsifying example" in out, out


def test_other_warnings_stay_errors(tmp_path):
    proc = _pytest(tmp_path, "test_warning.py", OTHER_WARNING)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "FAILED test_warning.py::test_warns - DeprecationWarning" in out, out
