"""The benchmark runs against this tree: tiny workloads, traced, pinned digests.

``perfbench/run.py`` times the CLI and wraps library functions by name
(``perfbench/traced.py`` reads the activity file's ``.name``, a table's
``row_count`` and a distribution's ``atoms``), so an API change can break it
without failing any other test. The run works on a copy of the tree, so it
writes nothing into the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Counts the traced run must report as nonzero, per workload. The tracer finds
# layer functions by attribute name and skips any it cannot find, so a
# function hidden from it (say, by an import that binds it too late) reads 0
# here while every output stays correct.
HOOKED_COUNTS = {
    "ingest-limits": ("traces.parse_activity_csv.lines",
                      "traces.read_sample_table.rows", "measures.atoms"),
    "smo-geo-cold": ("traces.read_sample_table.rows", "measures.atoms",
                     "topology.build.edges", "engine.schedule.encounters",
                     "engine.write_metrics_csv.records"),
    "fmpo-geo-warm": ("traces.read_sample_table.rows", "measures.atoms",
                      "topology.build.edges", "engine.schedule.encounters",
                      "engine.write_metrics_csv.records"),
}


def test_tiny_traced_benchmark_run_is_correct(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--size", "tiny",
         "--seconds", "0.5", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for workload, names in HOOKED_COUNTS.items():
        for name in names:
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0, (workload, name)
