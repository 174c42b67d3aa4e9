"""The test configuration itself: a failing test is reported, not fatal."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CASES = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(max_examples=5, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=9))
    def test_fails(k):
        assert k < 0


    def test_passes():
        assert True
""")


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # on a failure hypothesis's plugin imports its patch writer, whose libcst
    # raises a third-party DeprecationWarning; with filterwarnings = ["error"]
    # alone that ended the run in INTERNALERROR after the first failure
    (tmp_path / "test_cases.py").write_text(CASES, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_cases.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
