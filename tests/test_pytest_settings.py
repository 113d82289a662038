"""The repo's pytest settings report a failing hypothesis example as one
failure and run the tests after it.

filterwarnings = "error" must not turn a third-party warning raised inside
pytest's own report hooks into an INTERNALERROR (exit 3), which stops the
session at that test.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 0


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_example_does_not_abort_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          "test_planted.py"], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "PASSED test_planted.py::test_after_the_failure" in out.stdout
    assert "FAILED test_planted.py::test_planted_failure" in out.stdout
