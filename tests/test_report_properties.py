"""``oppknow report`` against a verbatim copy of the previous reader and pivot.

The reference below is the metrics reader and the ``report`` handler as they
stood before the metrics module, copied unchanged. On generated metrics files
(shuffled and duplicated rows, missing pairs, lenient numerals, CRLF, and
malformed lines) the current code must write the same bytes, or raise the
same exception type with the same message and line number, and exit with the
same code and stderr. The one intended difference, an ``achieved`` field
other than ``true``/``false``, is not generated: the reference read it as
false, the current reader rejects it (see ``tests/test_cli.py``).
"""

import argparse
import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oppknow import cli, metrics
from oppknow.errors import BadVariableIndex, EmptyInput, ParseError, ShapeMismatch
from oppknow.metrics import METRICS_HEADER, MetricsRecord, Policy, _fmt


# -- reference: copied verbatim ---------------------------------------------------


def read_metrics_csv(path: str | os.PathLike) -> list[MetricsRecord]:
    """Read back a metrics CSV; participation flags are not serialized."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ParseError(1, f"expected header {METRICS_HEADER!r}")
    records = []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            raise ParseError(line_number, f"expected 8 fields, got {len(fields)}")
        try:
            records.append(
                MetricsRecord(
                    round_index=int(fields[0]),
                    node=int(fields[1]),
                    policy=Policy(fields[2]),
                    kg_bits=float(fields[3]),
                    kl_bits=float(fields[4]),
                    oh_round_bits=float(fields[5]),
                    oh_cum_bits=float(fields[6]),
                    achieved=fields[7] == "true",
                )
            )
        except ValueError:
            raise ParseError(line_number, f"malformed record {line!r}") from None
    return records


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_metrics_csv(args.metrics)
    if not records:
        raise EmptyInput(f"metrics file {args.metrics} has no records")

    known = {r.node for r in records}
    for node in args.nodes:
        if node not in known:
            raise BadVariableIndex(f"node {node} not present in {args.metrics}")

    by_key = {(r.round_index, r.node): r for r in records}
    rounds = sorted({r.round_index for r in records})

    header = ["round"]
    for node in args.nodes:
        header.append(f"node_{node}_kg")
        header.append(f"node_{node}_kl")
    lines = [",".join(header)]
    for round_index in rounds:
        fields = [str(round_index)]
        for node in args.nodes:
            record = by_key.get((round_index, node))
            if record is None:
                raise ShapeMismatch(
                    f"metrics file lacks node {node} at round {round_index}"
                )
            fields.append(_fmt(record.kg_bits))
            fields.append(_fmt(record.kl_bits))
        lines.append(",".join(fields))
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# -- generated metrics files --------------------------------------------------------


def _int_texts(values):
    # Forms int() accepts besides plain digits.
    return st.builds(
        lambda n, form: form.format(n), values,
        st.sampled_from(["{}", " {}", "{} ", "+{}", "{}_0", "0{}"]),
    )


FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([" 1", "+1", "1_0", "5.0", "1e-3", "inf", "-inf", "nan", "0"]),
)
BAD_INT_TEXTS = st.sampled_from(["5.0", "1e-3", "x", "", "inf", "1__0"])
BAD_FLOAT_TEXTS = st.sampled_from(["x", "", "1,0", "1..0", "_1", "0x1"])
BAD_POLICIES = st.sampled_from(["SMO", "fmpo ", "", "forward", "Policy.SMO"])


@st.composite
def metrics_files(draw):
    """Return (file text, report node list)."""
    rounds = draw(st.integers(1, 4))
    nodes = draw(st.integers(1, 4))
    keys = [(r, n) for r in range(rounds) for n in range(nodes)]
    # Missing pairs and duplicate keys with other values.
    keys = [k for k in keys if draw(st.sampled_from(range(8)))]
    keys += draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
    keys = draw(st.permutations(keys))

    rows = []
    for round_index, node in keys:
        rows.append([
            draw(_int_texts(st.just(round_index))),
            draw(_int_texts(st.just(node))),
            draw(st.sampled_from(["smo", "fmpo"])),
            *(draw(FLOAT_TEXTS) for _ in range(4)),
            draw(st.sampled_from(["true", "false"])),
        ])

    # At most one malformed line, so that most files reach the pivot.
    if rows and draw(st.sampled_from(range(4))) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["count", "int", "policy", "float"]))
        if kind == "count":
            if draw(st.booleans()):
                row.append(draw(FLOAT_TEXTS))
            else:
                del row[draw(st.integers(0, 6))]
        elif kind == "int":
            row[draw(st.integers(0, 1))] = draw(BAD_INT_TEXTS)
        elif kind == "policy":
            row[2] = draw(BAD_POLICIES)
        else:
            row[draw(st.integers(3, 6))] = draw(BAD_FLOAT_TEXTS)

    header = METRICS_HEADER
    if draw(st.sampled_from(range(8))) == 0:
        header = draw(st.sampled_from(["", METRICS_HEADER + ",x", METRICS_HEADER + " "]))
    lines = ([header] if header or rows else []) + [",".join(row) for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + ending for line in lines)
    if text and draw(st.booleans()):
        text = text[: -len(ending)]
    wanted = draw(st.lists(st.sampled_from(range(nodes)), min_size=1, max_size=4))
    if draw(st.sampled_from(range(8))) == 0:
        wanted.append(nodes)  # never in the file
    return text, wanted


def _read(reader, path):
    # repr, so that records holding nan compare equal.
    try:
        return repr(reader(path))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def _report(path, wanted, out):
    """Exit code, stderr and written bytes of ``oppknow report``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([
            "report", "--metrics", str(path), "--nodes", ",".join(map(str, wanted)),
            "--output", str(out),
        ])
    written = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return code, stderr.getvalue(), written


def _handler(handler, path, wanted, out):
    try:
        handler(argparse.Namespace(metrics=str(path), nodes=wanted, output=str(out)))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    written = out.read_bytes()
    out.unlink()
    return written


@settings(max_examples=300, deadline=None)
@given(metrics_files())
def test_report_matches_reference(case):
    text, wanted = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        path.write_bytes(text.encode("ascii"))
        out = Path(tmp) / "wide.csv"

        assert _read(metrics.read_metrics_csv, path) == _read(read_metrics_csv, path)
        assert _handler(cli._cmd_report, path, wanted, out) == _handler(
            _cmd_report, path, wanted, out)
        current = _report(path, wanted, out)
        with mock.patch.object(cli, "_cmd_report", _cmd_report):
            assert _report(path, wanted, out) == current


def test_signed_zeros_and_repeats_match_reference(tmp_path):
    # 0.0 and -0.0 are equal as dict keys but print as "0" and "-0"; a
    # value repeated across rounds must print the same each time.
    rows = [
        "0,0,smo,0,1.5,0,0,false",
        "1,0,smo,-0.0,1.5,0,0,false",
        "2,0,smo,0.0,1.5,0,0,false",
        "3,0,smo,1.5,1.5,0,0,true",
        "0,1,smo,-0.0,-0.0,0,0,true",
        "1,1,smo,0,-0.0,0,0,true",
        "2,1,smo,nan,nan,0,0,true",
        "3,1,smo,nan,1.5,0,0,true",
    ]
    path = tmp_path / "metrics.csv"
    path.write_text("\n".join([METRICS_HEADER, *rows]) + "\n")
    out = tmp_path / "wide.csv"
    current = _handler(cli._cmd_report, path, [0, 1], out)
    assert current == _handler(_cmd_report, path, [0, 1], out)
    assert b"-0" in current
