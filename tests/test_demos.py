"""Smoke test: every narrative demo and the README's library quickstart
run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oppknow

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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


def test_readme_library_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    # The block's last line promises at most M - 1 = 19 steps.
    steps = namespace["steps_to_limit"](namespace["records"], 0, namespace["schedule"])
    assert steps is not None and steps <= 19
