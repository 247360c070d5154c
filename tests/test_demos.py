"""The demo scripts run to completion on the package under test.

Each script is copied into a temporary directory first, since
``lattice_window.py`` writes its image next to itself.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["contraction_bounds.py", "lattice_window.py"])
def test_demo_runs(tmp_path, name):
    script = shutil.copy(DEMOS / name, tmp_path)
    res = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert "EXCEEDED" not in res.stdout
