"""The package works from a copy of ``src/oppknow`` alone.

Nothing under ``src/`` may import from ``tests/`` or the repository root, and
the dense oracle and its ``TooLarge`` error ship only with the tests. The
copy is used in a fresh interpreter whose working directory and
``PYTHONPATH`` hold nothing else of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import oppknow

PACKAGE = Path(oppknow.__file__).resolve().parent

CHECK = """
import json, sys
import oppknow, oppknow.errors
from oppknow.cli import main

unresolved = [name for name in oppknow.__all__ if getattr(oppknow, name, None) is None]
try:
    import oppknow.reference
    oracle = "importable"
except ModuleNotFoundError:
    oracle = "missing"
codes = [
    main(["synth", "--users", "3", "--categories", "4", "--rows", "60", "--rho", "0.4",
          "--seed", "5", "--output", "trace.csv"]),
    main(["limits", "--trace", "trace.csv", "--output", "limits.csv"]),
]
print(json.dumps({"file": oppknow.__file__, "unresolved": unresolved, "oracle": oracle,
                  "too_large": hasattr(oppknow.errors, "TooLarge"), "codes": codes}))
"""


def test_a_copy_of_the_package_stands_alone(tmp_path):
    root = tmp_path / "site"
    shutil.copytree(PACKAGE, root / "oppknow", ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root))
    done = subprocess.run([sys.executable, "-c", CHECK], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["file"]).resolve().parent == (root / "oppknow").resolve()
    assert result["unresolved"] == []
    assert result["oracle"] == "missing"
    assert result["too_large"] is False
    assert result["codes"] == [0, 0]
    assert (work / "limits.csv").read_text().startswith("user,h_bits,kl_bits\n")
