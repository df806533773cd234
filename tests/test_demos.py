"""Smoke test: every narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppknow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCE_ROOT = str(Path(oppknow.__file__).resolve().parents[1])


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
