"""Run one oppknow CLI command in-process with layer spans recorded.

Usage::

    python3 perfbench/traced.py SPANS_JSON -- <oppknow arguments>

``run.py`` launches it with ``PYTHONPATH`` pointing at ``src/``. Before the
command runs, the public functions are wrapped where ``oppknow.cli`` and
``oppknow.engine`` look them up (their module attributes), and
``JointDistribution.from_samples`` / ``subset_entropy`` are wrapped on the
class. Nothing under ``src/`` is edited.

Each wrapped call becomes a span ``[name, start, end, parent, child_s]`` held
in memory; ``parent`` is the index of the enclosing span (-1 for none) and
``child_s`` is the time the span spent inside wrapped children, tracer
bookkeeping included, so ``end - start - child_s`` is the span's self time.
``subset_entropy`` runs hundreds of thousands of times per command, so it is
aggregated into counters instead of spans: a call is cold the first time its
subset is seen on a distribution instance and warm afterwards, and its
duration is charged to the enclosing span. Spans and counters are written as
JSON when the command ends; the process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _count_lines(tracer, args, result):
    # parse_activity_csv receives the open activity file; count its lines
    # after the span has closed so the count costs the span nothing.
    with open(args[0].name, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    tracer.add("traces.parse_activity_csv.lines", lines)


def _count_rows(tracer, args, result):
    tracer.add("traces.read_sample_table.rows", result.row_count)


def _count_edges(tracer, args, result):
    tracer.add("topology.build.edges", result.edge_count)


def _count_encounters(tracer, args, result):
    tracer.add("engine.schedule.encounters", sum(len(pairs) for pairs in result))


def _count_records(tracer, args, result):
    tracer.add("engine.write_metrics_csv.records", len(args[0]))


def _count_atoms(tracer, args, result):
    tracer.add("measures.atoms", len(result.atoms))


# Module attribute -> (span name, counter). Attributes a module lacks are
# skipped, so the tracer keeps working when a function moves or is renamed;
# its metrics then read 0.
MODULE_FUNCTIONS = {
    "synthesize_traces": ("traces.synthesize_traces", None),
    "parse_activity_csv": ("traces.parse_activity_csv", _count_lines),
    "write_sample_table": ("traces.write_sample_table", None),
    "read_sample_table": ("traces.read_sample_table", _count_rows),
    "full_mesh": ("topology.build", _count_edges),
    "random_geometric": ("topology.build", _count_edges),
    "read_edge_list": ("topology.build", _count_edges),
    "focal_schedule": ("engine.schedule", _count_encounters),
    "round_robin_schedule": ("engine.schedule", _count_encounters),
    "run": ("engine.run", None),
    "steps_to_limit": ("engine.steps_to_limit", None),
    "write_metrics_csv": ("engine.write_metrics_csv", _count_records),
    "read_metrics_csv": ("engine.read_metrics_csv", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.seen: dict[object, set] = {}
        self.cold = [0, 0.0, 0]  # calls, seconds, cells (atoms x |subset|)
        self.warm = [0, 0.0]  # calls, seconds
        self.bookkeeping = 0.0

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _charge_parent(self, parent: int, entry: float, inner: float) -> None:
        # The parent's child time covers the whole wrapped call, bookkeeping
        # included; the bookkeeping alone is summed so that the benchmark can
        # take it out of the traced wall time.
        spent = perf_counter() - entry
        self.bookkeeping += spent - inner
        if parent >= 0:
            self.spans[parent][4] += spent

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            entry = perf_counter()
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                span[1] = perf_counter()
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self, args, result)
            self._charge_parent(parent, entry, span[2] - span[1])
            return result

        return traced

    def wrap_subset_entropy(self, fn):
        # Kept lean: this wrapper runs on every entropy query, and its own
        # cost shows up as trace_overhead_s.
        cold, warm, seen_by_dist = self.cold, self.warm, self.seen

        def subset_entropy(dist, members):
            entry = perf_counter()
            if not isinstance(members, (frozenset, set, tuple, list)):
                members = tuple(members)
            start = perf_counter()
            value = fn(dist, members)
            elapsed = perf_counter() - start
            key = frozenset(members)
            seen = seen_by_dist.get(dist)
            if seen is None:
                seen = seen_by_dist[dist] = set()
            if key in seen:
                warm[0] += 1
                warm[1] += elapsed
            else:
                seen.add(key)
                cold[0] += 1
                cold[1] += elapsed
                cold[2] += len(dist.atoms) * len(key)
            self._charge_parent(self.stack[-1] if self.stack else -1, entry, elapsed)
            return value

        return subset_entropy

    def dump(self, path: str) -> None:
        prefix = "measures.subset_entropy."
        for name, value in zip(("cold_calls", "cold_s", "cells"), self.cold):
            self.counts[prefix + name] = value
        for name, value in zip(("warm_calls", "warm_s"), self.warm):
            self.counts[prefix + name] = value
        self.counts["tracer.bookkeeping_s"] = self.bookkeeping
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer):
    """Wrap oppknow's layer boundaries; returns the wrapped ``cli.main``."""
    from oppknow import cli, engine
    from oppknow.measures import JointDistribution

    wrapped = {}
    for module in (cli, engine):
        for attr, (name, counter) in MODULE_FUNCTIONS.items():
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            # cli imports engine's functions by name: wrap each function once
            # so a call is not recorded twice.
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(name, fn, counter)
            setattr(module, attr, wrapped[id(fn)])

    from_samples = JointDistribution.__dict__["from_samples"].__func__
    JointDistribution.from_samples = classmethod(
        tracer.wrap("measures.from_samples", from_samples, _count_atoms)
    )
    JointDistribution.subset_entropy = tracer.wrap_subset_entropy(
        JointDistribution.subset_entropy
    )
    return cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <oppknow arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    tracer = Tracer()
    cli_main = tracer.wrap(f"cli.{command[0]}", install(tracer))
    code = cli_main(command)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
