"""Release invariants hold with assertions compiled out (``python -O``)."""

import os
import subprocess
import sys
from pathlib import Path

import panelsynth

TESTS = Path(__file__).resolve().parent


def test_invariant_checks_survive_python_O(tmp_path):
    src = str(Path(panelsynth.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--rootdir", str(tmp_path),
            str(TESTS / "test_window.py") + "::TestReleaseInvariant",
            str(TESTS / "test_cumulative.py") + "::TestReleaseInvariant",
            str(TESTS / "test_counters.py") + "::TestMonotoneBank",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11 passed" in proc.stdout
