"""The suite's own pytest configuration, run on a throwaway suite."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    assert True
'''


def test_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    """Under the repo's warning filters a failing hypothesis property is an
    ordinary failure: it prints its falsifying example, the test after it
    still runs, and pytest exits 1, not 3 (INTERNALERROR)."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
