"""The suite's own pytest settings, run on a throwaway test file.

pyproject.toml makes every DeprecationWarning an error. A failing
Hypothesis test imports libcst to write its patch file, and libcst imports
mypy_extensions, whose TypedDict warns as it is imported; made an error,
that warning ended the run with INTERNALERROR, hiding the failure's report
and every later test. The settings ignore that one warning by its message.
"""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
