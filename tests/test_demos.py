"""Every demo script runs to completion on the package copy the suite imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maximin

PACKAGE_ROOT = str(Path(maximin.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, cwd=tmp_path, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
