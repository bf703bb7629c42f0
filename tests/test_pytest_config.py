"""The project's pytest configuration reports a failing property test as one failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Reporting a failing example makes hypothesis import libcst, which warns
    # DeprecationWarning on import. Under `error::DeprecationWarning` alone,
    # that warning was an INTERNALERROR that ended the run and skipped every
    # later test.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
