"""Each demo runs to completion against the current API.

A demo is copied into a temporary directory first, so the files demo 04
writes next to itself land there and not in the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    written = sorted(path.name for path in tmp_path.iterdir())
    if demo.name.startswith("04_"):
        assert written == sorted([demo.name, "sweep_demo.csv", "sweep_demo.svg"])
        assert (tmp_path / "sweep_demo.csv").stat().st_size > 0
        assert (tmp_path / "sweep_demo.svg").stat().st_size > 0
    else:
        assert written == [demo.name]
