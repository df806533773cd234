"""oppknow benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads below, or ``all`` to run each in turn. The
program is built from ``src/`` (bytecode compiled in place) and every command
runs as its own process, ``python3 -m oppknow.cli ...`` exactly as a user
would type it, with BLAS/OpenMP threads pinned to 1. This launcher imports
nothing heavy, because Linux carries a forking parent's peak RSS into the
child's ``ru_maxrss``; for the same reason the benchmark's own input writer
runs in a process of its own.

``--trace 0`` times the workload's commands untraced and reports the
end-to-end metrics. ``--trace 1`` alternates untraced runs with traced runs of
the same commands (``perfbench/traced.py``) and reports the per-layer metrics.
Both check every output: invariants on the first run of each command, the
SHA-256 of the first run afterwards, and at the default seed the digests
pinned in ``perfbench/digests.json``. A failed check counts in ``failed`` and
makes the exit code 1. The last line of stdout is the result as JSON; the
run's environment and raw samples go to ``.perfbench-work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 1
# --seed drives the trace data only. The topology and schedule stay fixed:
# across random geometric graphs the smo workload's entropy work varies by
# about 15 % (interquartile range over ten graphs), which would hide a
# regression of that size.
GRAPH_SEED = 1
SETUP_REPEATS = 5
TOL = 1e-9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Why each workload exists is recorded in BENCHMARK.json; in short:
# ingest-limits loads traces (parse, write, read, from_samples) and asks only
# M+1 cold entropies; smo-geo-cold spends its time in cold subset entropies
# over large atom sets; fmpo-geo-warm makes few cold and very many memoised
# entropy calls, so per-call cost and the engine loop dominate.
SIZES = {
    "ingest-limits": {
        "full": dict(users=50, categories=24, timestamps=10000, drop=0.0005),
        "tiny": dict(users=6, categories=5, timestamps=300, drop=0.0005),
    },
    "smo-geo-cold": {
        "full": dict(users=50, categories=24, rows=12000, rho=0.3, radius=0.5, policy="smo", rounds=60),
        "tiny": dict(users=8, categories=5, rows=300, rho=0.3,
                     radius=0.7, policy="smo", rounds=10),
    },
    "fmpo-geo-warm": {
        "full": dict(users=100, categories=24, rows=1000, rho=0.3, radius=0.2, policy="fmpo", rounds=150),
        "tiny": dict(users=10, categories=5, rows=300, rho=0.3,
                     radius=0.7, policy="fmpo", rounds=20),
    },
}

# The layer each workload is meant to stress; the share of the timed
# commands' wall time spent there is reported as intended_share.
INTENDED = {
    "ingest-limits": (
        "traces.parse_activity_csv.s", "traces.write_sample_table.s",
        "traces.read_sample_table.s", "measures.from_samples.s",
    ),
    "smo-geo-cold": ("measures.subset_entropy.cold_s",),
    "fmpo-geo-warm": ("measures.subset_entropy.warm_s", "engine.run.self_s"),
}


@dataclass
class Command:
    name: str
    args: list[str]
    outputs: list[str]
    oppknow: bool = True


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Checker:
    """Checks each command's outputs and counts attempts and failures."""

    workload: str
    params: dict
    work: Path
    pinned: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict[str, dict[str, str]] = field(default_factory=dict)

    def record(self, command: Command, sample: Sample) -> None:
        self.attempted += 1
        problem = self._problem(command, sample)
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{command.name}: {problem}")

    def _problem(self, command: Command, sample: Sample) -> str | None:
        if sample.code != 0:
            return f"exit code {sample.code}, see {self.work / (command.name + '.log')}"
        try:
            digests = {out: sha256(self.work / out) for out in command.outputs}
            reference = self.reference.get(command.name)
            if reference is not None:
                return None if digests == reference else "outputs differ from its first run"
            if command.name == "setup" and self.workload == "ingest-limits":
                log = (self.work / "setup.log").read_text(encoding="ascii")
                self.params["kept"] = int(log.split("kept=")[1])
            problems = [(out, INVARIANTS[out](self.work / out, self.params))
                        for out in command.outputs]
        except (OSError, ValueError, IndexError) as exc:
            return f"missing or malformed output: {exc!r}"
        for out, problem in problems:
            if problem:
                return f"{out}: {problem}"
        for out, digest in digests.items():
            pin = self.pinned.get(out)
            if pin is not None and pin != digest:
                return f"{out}: sha256 {digest} differs from the pinned {pin}"
        self.reference[command.name] = digests
        return None


# -- output invariants -----------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_rows(path: Path):
    with open(path, encoding="ascii") as fh:
        for line in fh:
            yield line.rstrip("\n").split(",")


def check_activity(path: Path, p: dict) -> str | None:
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
    return None if header == "timestamp,user,category\n" else f"header {header!r}"


def check_trace(path: Path, p: dict) -> str | None:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
    if "timestamps" in p:  # ingested: rows are the complete timestamps
        expected = (p["users"], p["categories"], p.get("kept"))
    else:  # synth --unique-tips adds one category and one row per user
        expected = (p["users"], p["categories"] + p["users"], p["rows"] + p["users"])
    want = ",".join(map(str, expected))
    return None if header == want else f"header {header!r}, expected {want!r}"


def check_limits(path: Path, p: dict) -> str | None:
    rows = list(csv_rows(path))
    if rows[0] != ["user", "h_bits", "kl_bits"] or len(rows) != p["users"] + 1:
        return "wrong header or row count"
    joints = []
    for user, h, kl in rows[1:]:
        if float(h) < 0 or float(kl) < 0:
            return f"negative entropy for user {user}"
        joints.append(float(h) + float(kl))
    # H(X_i) + KL(i) = H(all) for every user.
    if max(joints) - min(joints) > 1e-6:
        return "h_bits + kl_bits is not the same joint entropy for every user"
    return None


def check_metrics(path: Path, p: dict) -> str | None:
    count = 0
    for fields in csv_rows(path):
        if count and float(fields[3]) > float(fields[4]) + TOL:
            return f"kg_bits > kl_bits + {TOL} in row {count}: {fields}"
        count += 1
    expected = p["rounds"] * p["users"] + 1
    return None if count == expected else f"{count} lines, expected {expected}"


def check_summary(path: Path, p: dict) -> str | None:
    rows = list(csv_rows(path))[1:]
    if len(rows) != p["users"]:
        return f"{len(rows)} nodes, expected {p['users']}"
    if p["policy"] == "fmpo":
        short = [r[0] for r in rows if r[3] != "true"]
        if short:
            return f"fmpo left nodes {short} short of their limit on a connected graph"
    return None


def check_wide(path: Path, p: dict) -> str | None:
    rows = list(csv_rows(path))
    widths = {len(r) for r in rows}
    if len(rows) != p["rounds"] + 1 or widths != {1 + 2 * p["users"]}:
        return f"{len(rows)} lines of widths {sorted(widths)}"
    return None


INVARIANTS = {
    "activity.csv": check_activity,
    "trace.csv": check_trace,
    "limits.csv": check_limits,
    "metrics.csv": check_metrics,
    "summary.csv": check_summary,
    "wide.csv": check_wide,
}


# -- workloads -------------------------------------------------------------------


def commands(workload: str, p: dict, seed: int, work: Path) -> tuple[Command, list[Command]]:
    """The workload's set-up command and its timed command sequence."""
    def path(name):
        return str(work / name)

    m, v = str(p["users"]), str(p["categories"])
    if workload == "ingest-limits":
        setup = Command("setup", [
            sys.executable, str(BENCH / "gen_activity.py"), "--users", m,
            "--categories", v, "--timestamps", str(p["timestamps"]),
            "--drop", str(p["drop"]), "--seed", str(seed),
            "--output", path("activity.csv"),
        ], ["activity.csv"], oppknow=False)
        return setup, [
            Command("ingest", ["ingest", "--input", path("activity.csv"), "--users", m,
                               "--categories", v, "--output", path("trace.csv")],
                    ["trace.csv"]),
            Command("limits", ["limits", "--trace", path("trace.csv"),
                               "--output", path("limits.csv")], ["limits.csv"]),
        ]
    setup = Command("setup", [
        "synth", "--users", m, "--categories", v, "--rows", str(p["rows"]),
        "--rho", str(p["rho"]), "--seed", str(seed), "--unique-tips",
        "--output", path("trace.csv"),
    ], ["trace.csv"])
    return setup, [
        Command("simulate", [
            "simulate", "--trace", path("trace.csv"), "--geometric", str(p["radius"]),
            "--topology-seed", str(GRAPH_SEED), "--policy", p["policy"],
            "--round-robin", str(p["rounds"]), "--schedule-seed", str(GRAPH_SEED),
            "--metrics", path("metrics.csv"), "--summary", path("summary.csv"),
        ], ["metrics.csv", "summary.csv"]),
        Command("report", [
            "report", "--metrics", path("metrics.csv"),
            "--nodes", ",".join(str(n) for n in range(p["users"])),
            "--output", path("wide.csv"),
        ], ["wide.csv"]),
    ]


# -- running commands ------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(argv: list[str], env: dict[str, str], log: Path) -> Sample:
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def run_command(command: Command, env, checker: Checker, spans: Path | None) -> Sample:
    if not command.oppknow:
        argv = command.args
    elif spans is None:
        argv = [sys.executable, "-m", "oppknow.cli", *command.args]
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), "--", *command.args]
    sample = launch(argv, env, checker.work / f"{command.name}.log")
    checker.record(command, sample)
    return sample


@dataclass
class Iteration:
    wall: float
    cpu: float
    rss_mb: float
    walls: list[float] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    setup_spans: list[Path] = field(default_factory=list)


def run_sequence(timed: list[Command], env, checker: Checker,
                 spans_dir: Path | None = None, tag: str = "") -> Iteration:
    samples, spans = [], []
    for command in timed:
        span_path = None if spans_dir is None else spans_dir / f"{tag}-{command.name}.json"
        samples.append(run_command(command, env, checker, span_path))
        if span_path is not None:
            spans.append(span_path)
    return Iteration(sum(s.wall for s in samples), sum(s.cpu for s in samples),
                     max(s.rss_mb for s in samples), [s.wall for s in samples], spans)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Sum span durations, self times and counters over the given commands."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for span_file in span_files:
        if not span_file.is_file():  # the command failed; already counted
            continue
        doc = json.loads(span_file.read_text(encoding="ascii"))
        for name, start, end, _parent, child in doc["spans"]:
            add(f"{name}.s", end - start)
            if name.startswith("cli."):
                add("cli.self_s", end - start - child)
            elif name == "engine.run":
                add("engine.run.self_s", end - start - child)
            elif name == "engine.steps_to_limit":
                add("engine.steps_to_limit.calls", 1)
        for key, value in doc["counts"].items():
            add(key, value)
    calls = m.get("measures.subset_entropy.cold_calls", 0) + m.get(
        "measures.subset_entropy.warm_calls", 0)
    if calls:
        m["measures.subset_entropy.hit_ratio"] = (
            m.get("measures.subset_entropy.warm_calls", 0) / calls)
    m["measures.subset_entropy.cold_bytes"] = 8 * m.get("measures.subset_entropy.cells", 0)
    return m


# -- one workload ----------------------------------------------------------------


def bench(workload: str, size: str, seed: int, seconds: float, trace: bool,
          declared: dict[str, str]) -> tuple[Checker, dict[str, float], dict]:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "oppknow")],
                   check=True, env=env, stdout=subprocess.DEVNULL)

    params = dict(SIZES[workload][size])
    pins = json.loads((BENCH / "digests.json").read_text(encoding="ascii"))
    pinned = pins[size].get(workload, {}) if seed == DEFAULT_SEED else {}
    checker = Checker(workload, params, work, pinned)
    setup, timed = commands(workload, params, seed, work)

    setup_walls = [run_command(setup, env, checker, None).wall for _ in range(SETUP_REPEATS)]
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    # Start another iteration only if one as long as the last still ends
    # before the deadline, so a run measures for about --seconds, not more.
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not untraced or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        untraced.append(run_sequence(timed, env, checker))
        if trace:
            # The traced run repeats the set-up too, so that the layers it
            # uses (synthesis, writing traces) are measured.
            tag = str(len(traced))
            setup_spans = []
            if setup.oppknow:
                setup_spans = [work / "spans" / f"{tag}-setup.json"]
                run_command(setup, env, checker, setup_spans[0])
            traced.append(run_sequence(timed, env, checker, work / "spans", tag))
            traced[-1].setup_spans = setup_spans
        last = time.perf_counter() - began

    if trace:
        per_iteration = [layer_metrics(it.setup_spans + it.spans) for it in traced]
        metrics = {name: median([m.get(name, 0.0) for m in per_iteration]) for name in declared}
        # Both parts of the share come from the same traced run, with the
        # tracer's bookkeeping taken out of its wall time, so neither tracing
        # nor the machine's speed drifting between runs skews it.
        shares = []
        for it in traced:
            timed_only = layer_metrics(it.spans)
            layer = sum(timed_only.get(k, 0.0) for k in INTENDED[workload])
            shares.append(layer / (it.wall - timed_only.get("tracer.bookkeeping_s", 0.0)))
        metrics["intended_share"] = median(shares)
        metrics["trace_overhead_s"] = (median([it.wall for it in traced])
                                       - median([it.wall for it in untraced]))
        for name in declared:
            if declared[name] == "count":
                values = {m.get(name, 0.0) for m in per_iteration}
                if len(values) > 1:
                    checker.problems.append(f"count {name} varies across runs: {sorted(values)}")
    else:
        metrics = {
            "wall_s": median([it.wall for it in untraced]),
            "cpu_s": median([it.cpu for it in untraced]),
            "setup_s": median(setup_walls),
            "peak_rss_mb": median([it.rss_mb for it in untraced]),
        }
    record = {
        "environment": environment(),
        "workload": workload, "size": size, "seed": seed, "params": params,
        "samples": {"setup": len(setup_walls), "untraced": len(untraced), "traced": len(traced)},
        "raw": {
            "setup_s": setup_walls,
            "untraced": [[it.wall, it.cpu, it.rss_mb, it.walls] for it in untraced],
            "traced_wall_s": [it.wall for it in traced],
        },
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems, "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return checker, metrics, record


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's self-test")
    args = parser.parse_args()

    if not (SRC / "oppknow" / "cli.py").is_file():
        print(f"error: no oppknow sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    workloads = list(SIZES) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    out: dict[str, dict] = {}
    for workload in workloads:
        checker, metrics, record = bench(workload, args.size, args.seed, args.seconds,
                                         bool(args.trace), declared)
        attempted += checker.attempted
        failed += checker.failed
        correct = correct and not checker.failed and not checker.problems
        for problem in checker.problems:
            print(f"{workload}: FAILED {problem}", file=sys.stderr)
        print(f"{workload}: environment {json.dumps(record['environment'])}")
        print(f"{workload}: seed {args.seed} size {args.size} {json.dumps(record['params'])} "
              f"samples {json.dumps(record['samples'])}")
        print(f"{workload}: fail_ratio {checker.failed}/{checker.attempted}")
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, unit in declared.items():
            print(f"{workload}: {name} {metrics[name]:.6g} {unit}")
            out[prefix + name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
