"""Command-line front end for the trace → topology → simulation pipeline.

Subcommands:

* ``synth``    generate a synthetic trace file
* ``ingest``   convert an activity CSV into a trace file
* ``limits``   per-user entropy and knowledge-gain limit of a trace
* ``simulate`` run a sharing policy over a topology, emit metrics + summary
* ``report``   pivot a metrics file into a wide plot-ready table

All randomness flows through explicit ``--seed`` style flags; identical flags
and input files produce byte-identical outputs. Exit codes: 0 success,
2 usage error, 3 input error (including input or a requested size too large
to hold in memory), 4 internal-consistency failure. Two path flags of one
command that name the same file are a usage error, caught before any file is
read or written.

After its arguments parse, each subcommand loads only the numpy-backed
layers (traces, measures, topology, engine) that its handler names: ``ingest``
loads traces, ``synth`` and ``limits`` also measures, ``simulate`` all four.
``report`` reads metrics through :mod:`oppknow.metrics`, which needs only the
standard library, so it, ``--help`` and usage errors start without numpy.
Every public name of the package is still an attribute of this module (a
module ``__getattr__`` resolves it on first lookup), so a profiler can look
each layer function up and replace it with a wrapper before :func:`main` runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys

from .errors import (
    MISSING_POLICIES,
    BadVariableIndex,
    DuplicateObservation,
    EmptyInput,
    InternalConsistencyError,
    OppknowError,
    ShapeMismatch,
)
from .metrics import Policy, _fmt, _LimitProgress, read_metrics_csv, write_metrics_csv

# The package, whose public names (its ``__all__``) import their submodule on
# first use.
_PACKAGE = importlib.import_module(__package__)

# Flags that name a file; no two of one command may name the same file.
_PATH_FLAGS = ("input", "trace", "edges", "metrics", "summary", "output")


def _load_layer(name: str):
    # setdefault keeps a value already bound to the module attribute, such as
    # a wrapper set in place of what __getattr__ returned before main ran.
    return globals().setdefault(name, getattr(_PACKAGE, name))


def __getattr__(name: str):
    if name not in _PACKAGE.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _load_layer(name)


def _path_clash(args: argparse.Namespace) -> str | None:
    """The error for two path flags naming one file, or None.

    Paths name one file if they resolve to one path or, for files that
    exist, to one device and inode: hard links resolve to different paths.
    """
    seen: dict[object, str] = {}
    for flag in _PATH_FLAGS:
        path = getattr(args, flag, None)
        if path is None:
            continue
        keys: list[object] = [os.path.realpath(path)]
        try:
            status = os.stat(path)
        except OSError:
            pass
        else:
            keys.append((status.st_dev, status.st_ino))
        for key in keys:
            if key in seen:
                return f"--{seen[key]} and --{flag} name the same file {path!r}"
        seen.update(dict.fromkeys(keys, flag))
    return None


# -- argparse value checks -------------------------------------------------------


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} not in [0, 1]")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{text!r} not an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _node_id(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 0")
    return value


def _radius(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= math.sqrt(2.0):
        raise argparse.ArgumentTypeError(f"{text!r} not in (0, sqrt(2)]")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and > 0")
    return value


def _node_list(text: str) -> list[int]:
    try:
        nodes = [int(f) for f in text.split(",") if f != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated id list") from None
    if not nodes:
        raise argparse.ArgumentTypeError("node list is empty")
    return nodes


# -- subcommands ----------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        user_count=args.users,
        category_count=args.categories,
        row_count=args.rows,
        correlation=args.rho,
        seed=args.seed,
    )
    table = synthesize_traces(config)
    if args.unique_tips:
        table = inject_unique_tips(table)
    write_sample_table(table, args.output)

    dist = JointDistribution.from_samples(table)
    print(f"M={table.user_count} v={table.category_count} T={table.row_count}")
    for user in range(table.user_count):
        print(f"user {user} h_bits={_fmt(dist.subset_entropy([user]))}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="ascii", newline="") as fh:
        table = parse_activity_csv(fh, args.users, args.categories, args.missing_policy)
    write_sample_table(table, args.output)
    print(f"M={table.user_count} v={table.category_count} T={table.row_count}")
    return 0


def _cmd_limits(args: argparse.Namespace) -> int:
    dist = JointDistribution.from_samples(read_sample_table(args.trace))
    joint = dist.subset_entropy(dist.all_variables())
    print(f"joint_h_bits={_fmt(joint)}")

    lines = ["user,h_bits,kl_bits"]
    for user in range(dist.user_count):
        h = dist.subset_entropy([user])
        kl = dist.knowledge_limit(user)
        print(f"user {user} h_bits={_fmt(h)} kl_bits={_fmt(kl)}")
        lines.append(f"{user},{_fmt(h)},{_fmt(kl)}")
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


class _ProgressRows:
    """A run's records as its rounds are simulated, for a writer to stream.

    Iterating pulls one round at a time from ``rounds`` and feeds each
    node's record to that node's :class:`_LimitProgress` before passing the
    round on, so the summary needs no second pass. ``len()`` is the record
    count the run will yield, one per node per round. It can be iterated
    once.
    """

    def __init__(self, rounds, schedule, node_count: int, tol: float) -> None:
        self._rounds = rounds
        self._schedule = schedule
        self.progress = [_LimitProgress(tol) for _ in range(node_count)]

    def __len__(self) -> int:
        return len(self._schedule) * len(self.progress)

    def __iter__(self):
        for round_pairs, records in zip(self._schedule, self._rounds):
            took_part = {n for pair in round_pairs for n in pair}
            for record, progress in zip(records, self.progress):
                progress.add(record, record.node in took_part)
            yield from records


def _cmd_simulate(args: argparse.Namespace) -> int:
    # The sample table is not kept: freeing its array before the run lowers
    # the command's peak memory.
    dist = JointDistribution.from_samples(read_sample_table(args.trace))

    if args.mesh:
        graph = full_mesh(dist.user_count)
    elif args.geometric is not None:
        graph = random_geometric(dist.user_count, args.geometric, args.topology_seed)
    else:
        graph = read_edge_list(args.edges)

    if args.focal is not None:
        schedule = focal_schedule(graph, args.focal)
        if not schedule:
            raise ShapeMismatch(f"focal node {args.focal} has no neighbors")
    else:
        schedule = round_robin_schedule(graph, args.round_robin, args.schedule_seed)

    rows = _ProgressRows(
        run_rounds(dist, graph, schedule, Policy(args.policy), args.tol),
        schedule, graph.node_count, args.tol,
    )
    write_metrics_csv(rows, args.metrics)

    lines = ["node,kl_bits,kg_bits,achieved,steps_to_limit,oh_bits"]
    for node, progress in enumerate(rows.progress):
        final = progress.last
        steps_text = "" if progress.steps is None else str(progress.steps)
        achieved = "true" if final.achieved else "false"
        lines.append(
            f"{node},{_fmt(final.kl_bits)},{_fmt(final.kg_bits)},{achieved},"
            f"{steps_text},{_fmt(final.oh_cum_bits)}"
        )
        print(
            f"node {node} kl_bits={_fmt(final.kl_bits)} kg_bits={_fmt(final.kg_bits)} "
            f"achieved={achieved} steps_to_limit={steps_text or 'none'}"
        )
    with open(args.summary, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_metrics_csv(args.metrics)
    if not records:
        raise EmptyInput(f"metrics file {args.metrics} has no records")

    known = {r.node for r in records}
    for node in args.nodes:
        if node not in known:
            raise BadVariableIndex(f"node {node} not present in {args.metrics}")

    by_key = {(r.round_index, r.node): r for r in records}
    if len(by_key) != len(records):
        # The dict kept the last record of each repeated pair, not the first.
        r = next(r for r in records if by_key[r.round_index, r.node] is not r)
        raise DuplicateObservation(f"metrics file repeats node {r.node} at round {r.round_index}")
    rounds = sorted({r.round_index for r in records})

    header = ["round"]
    for node in args.nodes:
        header.append(f"node_{node}_kg")
        header.append(f"node_{node}_kl")
    lines = [",".join(header)]
    # Far fewer values than fields are distinct, so each is formatted once.
    # 0.0 and -0.0 are one key but print differently, so zeros are not kept.
    text: dict[float, str] = {}
    for round_index in rounds:
        fields = [str(round_index)]
        for node in args.nodes:
            record = by_key.get((round_index, node))
            if record is None:
                raise ShapeMismatch(
                    f"metrics file lacks node {node} at round {round_index}"
                )
            for value in (record.kg_bits, record.kl_bits):
                cell = text.get(value)
                if cell is None:
                    cell = _fmt(value)
                    if value:
                        text[value] = cell
                fields.append(cell)
        lines.append(",".join(fields))
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppknow",
        description="Knowledge-gain analysis and sharing-policy simulation "
        "for opportunistic contact networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace file")
    p.add_argument("--users", type=_positive_int, required=True)
    p.add_argument("--categories", type=_positive_int, required=True)
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--rho", type=_fraction, required=True,
                   help="user correlation in [0, 1]")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--unique-tips", action="store_true",
                   help="guarantee every user holds some unique knowledge")
    p.add_argument("--output", required=True, help="trace file to write")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("ingest", help="convert an activity CSV into a trace file")
    p.add_argument("--input", required=True, help="activity CSV (timestamp,user,category)")
    p.add_argument("--users", type=_positive_int, required=True)
    p.add_argument("--categories", type=_positive_int, required=True)
    p.add_argument("--missing-policy", choices=MISSING_POLICIES, default="drop-row")
    p.add_argument("--output", required=True, help="trace file to write")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("limits", help="per-user entropy and knowledge-gain limit")
    p.add_argument("--trace", required=True, help="trace file to read")
    p.add_argument("--output", required=True, help="summary CSV to write")
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("simulate", help="run a sharing policy over a topology")
    p.add_argument("--trace", required=True, help="trace file to read")
    topo = p.add_mutually_exclusive_group(required=True)
    topo.add_argument("--mesh", action="store_true", help="full mesh topology")
    topo.add_argument("--geometric", type=_radius, metavar="RADIUS",
                      help="random geometric topology with this disk radius")
    topo.add_argument("--edges", help="edge list file")
    p.add_argument("--topology-seed", type=_seed, default=0)
    p.add_argument("--policy", choices=[pol.value for pol in Policy], required=True)
    sched = p.add_mutually_exclusive_group(required=True)
    sched.add_argument("--focal", type=_node_id, metavar="NODE",
                       help="focal node meets neighbors in ascending id order")
    sched.add_argument("--round-robin", type=_positive_int, metavar="ROUNDS",
                       help="random maximal matchings for this many rounds")
    p.add_argument("--schedule-seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="achievement tolerance in bits")
    p.add_argument("--metrics", required=True, help="metrics CSV to write")
    p.add_argument("--summary", required=True, help="per-node summary CSV to write")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="pivot metrics into a wide plot-ready table")
    p.add_argument("--metrics", required=True, help="metrics CSV to read")
    p.add_argument("--nodes", type=_node_list, required=True,
                   help="comma-separated node ids")
    p.add_argument("--output", required=True, help="wide CSV to write")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    clash = _path_clash(args)
    if clash is not None:
        print(f"error: {clash}", file=sys.stderr)
        return 2
    # A handler looks its layer names up as globals, listed in co_names.
    for name in args.handler.__code__.co_names:
        if name in _PACKAGE.__all__:
            _load_layer(name)
    try:
        return args.handler(args)
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as exc:
        # Input files are ASCII; a non-ASCII byte is bad input, not bad usage.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OppknowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: input or requested size too large to hold in memory{detail}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
