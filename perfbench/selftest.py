"""Self-test of the oppknow benchmark.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload:

* at tiny size, a traced and an untraced run are correct and emit every
  metric ``BENCHMARK.json`` declares for their mode, each with its unit;
* the per-layer counts repeat exactly across two traced runs;
* at full size, the workload's intended layer takes more than half of the
  timed commands' wall time (``intended_share > 0.5``).

It also checks that, in a copy of the sources and the benchmark, an altered
pinned digest makes the run fail with exit code 1, and that a directory with
no sources makes it exit non-zero without printing a result. Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
FULL_SECONDS = 10


def bench(workload: str, trace: int, size: str, seconds: float = 1,
          cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds",
         str(seconds), "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def check(failures: list[str], ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def emitted(result: dict, declared: list[dict]) -> bool:
    want = {m["name"]: m["unit"] for m in declared}
    return {k: v["unit"] for k, v in result["metrics"].items()} == want


def main() -> int:
    failures: list[str] = []
    for workload in WORKLOADS:
        code, plain = bench(workload, 0, "tiny")
        check(failures, code == 0 and plain is not None and plain["correct"]
              and emitted(plain, SPEC["end_to_end"]),
              f"{workload}: untraced tiny run is correct and emits every end-to-end metric")
        traced = [bench(workload, 1, "tiny") for _ in range(2)]
        check(failures, all(code == 0 and r is not None and r["correct"]
                            and emitted(r, SPEC["per_layer"]) for code, r in traced),
              f"{workload}: traced tiny runs are correct and emit every per-layer metric")
        if all(r is not None for _, r in traced):
            first, second = (r["metrics"] for _, r in traced)
            differ = [n for n in COUNTS if first[n]["value"] != second[n]["value"]]
            check(failures, not differ,
                  f"{workload}: per-layer counts repeat exactly"
                  + (f", except {differ}" if differ else ""))

        code, full = bench(workload, 1, "full", FULL_SECONDS)
        share = full["metrics"]["intended_share"]["value"] if full else 0.0
        check(failures, code == 0 and share > 0.5,
              f"{workload}: intended layer share at full size {share:.3f} > 0.5")

    copy = ROOT / ".perfbench-work" / "selftest-copy"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    shutil.copytree(BENCH, copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench(WORKLOADS[0], 0, "tiny", cwd=copy)
    check(failures, code != 0 and result is None,
          "without sources the run exits non-zero and prints no result")

    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    digests = json.loads((copy / "perfbench" / "digests.json").read_text(encoding="ascii"))
    pinned = digests["tiny"][WORKLOADS[0]]
    output = sorted(pinned)[-1]
    pinned[output] = "0" * 64
    (copy / "perfbench" / "digests.json").write_text(json.dumps(digests), encoding="ascii")
    code, result = bench(WORKLOADS[0], 0, "tiny", cwd=copy)
    check(failures, code == 1 and result is not None and not result["correct"]
          and result["failed"] > 0,
          f"an altered pinned digest of {output} fails the run with exit code 1")
    shutil.rmtree(copy)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
