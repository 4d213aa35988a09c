"""The repository's own pytest configuration reports a failing hypothesis
test as an ordinary failure with its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 10
'''


def test_a_failing_hypothesis_example_does_not_abort_pytest(tmp_path):
    # on failure hypothesis imports libcst, whose mypy_extensions.TypedDict
    # use warns; filterwarnings = ["error"] used to make that an INTERNALERROR
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", ".", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
