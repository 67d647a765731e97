"""The repository's pytest configuration turns warnings into errors, yet a
failing hypothesis property is reported as a failure and the session goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INNER = '''
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 5


def test_own_warning_is_an_error():
    warnings.warn("a warning from our own code", DeprecationWarning)


def test_runs_after_the_failures():
    pass
'''


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_inner.py").write_text(INNER)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed, 1 passed" in out
