import os
import subprocess
import sys

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_that_fails(x):
    assert x < 10


def test_after_the_failure():
    pass
"""


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # with warnings as errors, reporting a falsifying example must not turn
    # into an INTERNALERROR that stops the session
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    config = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "-p", "no:cacheprovider", "-q",
         "test_failing_property.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
