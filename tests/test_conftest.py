"""The test suite's own collection rule, run on a planted test."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PLANTED = '''
import pytest
from hypothesis import given, strategies as st


@pytest.mark.filterwarnings("error")
@given(st.integers())
def test_planted(x):
    assert x < 5


@pytest.mark.filterwarnings("error")
def test_plain():
    pass


@given(st.integers())
def test_unmarked(x):
    pass
'''


def test_hypothesis_test_turning_warnings_into_errors_stops_collection(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == pytest.ExitCode.USAGE_ERROR, run.stdout + run.stderr
    assert run.stderr.splitlines()[0] == (
        'ERROR: Hypothesis tests may not carry filterwarnings("error"): '
        "test_planted.py::test_planted"
    )
    assert "no tests ran" in run.stdout
