"""The array readers of activity CSVs and trace files against the per-line loop.

``parse_activity_csv`` and ``read_sample_table`` parse plain input as arrays
and hand anything else to the per-line loop. Here both readers see valid
input with at most one mutation applied, and must give what the loop gives:
an equal table, or the same exception type, message and line number.
"""

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oppknow import SampleTable, parse_activity_csv, read_sample_table, traces, write_sample_table
from oppknow.errors import OutOfRange, ParseError
from oppknow.traces import (
    ACTIVITY_HEADER,
    _parse_activity_lines,
    _parse_activity_plain,
    _read_sample_lines,
    _read_sample_plain,
)

# Each mutation makes one line lenient, malformed, out of range or repeated;
# None leaves the input valid.
MUTATIONS = (
    None, "space", "plus", "underscore", "minus", "empty-line", "double-comma",
    "cr", "extra-field", "letter", "huge", "out-of-range", "no-final-newline",
)
ACTIVITY_MUTATIONS = MUTATIONS + ("user-out-of-range", "duplicate")
TRACE_MUTATIONS = MUTATIONS + ("row-count",)


def outcome(call):
    """A table, or the exception's type, message and line number.

    Warnings are raised as errors, so a reader that warns never matches.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "line_number", None)


def mutate(draw, lines, mutation, id_fields, limit):
    """Apply ``mutation`` to the text ``lines`` (line 0 is the header).

    ``id_fields`` is the index range of the body fields that hold ids below
    ``limit``. Returns the file text.
    """
    final_newline = mutation != "no-final-newline"
    i = draw(st.integers(0, len(lines) - 1))
    body = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else None
    line = lines[i]
    if mutation == "space":
        lines[i] = line + " "
    elif mutation in ("plus", "underscore", "minus"):
        cells = line.split(",")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = {"plus": "+", "underscore": "1_", "minus": "-"}[mutation] + cells[j]
        lines[i] = ",".join(cells)
    elif mutation == "empty-line":
        lines.insert(draw(st.integers(1, len(lines))), "")
    elif mutation == "double-comma":
        lines[i] = line.replace(",", ",,", 1)
    elif mutation == "cr":
        lines[i] = line + "\r"
    elif mutation == "extra-field":
        lines[i] = line + ",0"
    elif mutation == "letter":
        k = draw(st.integers(0, len(line)))
        lines[i] = line[:k] + draw(st.sampled_from(["x", "\u00e9"])) + line[k + 1 :]
    elif body is not None and mutation in ("huge", "out-of-range"):
        cells = lines[body].split(",")
        if mutation == "huge":
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = str(draw(st.sampled_from([2**63, 2**64])))
        else:
            cells[draw(st.integers(*id_fields))] = str(limit + draw(st.integers(0, 2)))
        lines[body] = ",".join(cells)
    text = "\n".join(lines)
    return text + "\n" if final_newline else text


@st.composite
def activity_inputs(draw):
    m = draw(st.integers(1, 4))
    v = draw(st.integers(1, 4))
    stamps = st.sampled_from([0, 1, 2, 3, 7, 2**40, 2**63 - 1])
    observed = draw(
        st.dictionaries(st.tuples(stamps, st.integers(0, m - 1)), st.integers(0, v - 1), max_size=12)
    )
    order = draw(st.permutations(sorted(observed)))
    lines = [ACTIVITY_HEADER] + [f"{t},{u},{observed[t, u]}" for t, u in order]
    mutation = draw(st.sampled_from(ACTIVITY_MUTATIONS))
    if mutation == "user-out-of-range" and len(lines) > 1:
        i = draw(st.integers(1, len(lines) - 1))
        t, _, c = lines[i].split(",")
        lines[i] = f"{t},{m + draw(st.integers(0, 2))},{c}"
    elif mutation == "duplicate" and len(lines) > 1:
        t, u, _ = draw(st.sampled_from(lines[1:])).split(",")
        lines.insert(draw(st.integers(1, len(lines))), f"{t},{u},{draw(st.integers(0, v - 1))}")
    # "out-of-range" moves a category past the alphabet.
    return m, v, mutate(draw, lines, mutation, (2, 2), v)


@st.composite
def trace_inputs(draw):
    m = draw(st.integers(1, 4))
    v = draw(st.sampled_from([1, 2, 3, 5, 256, 300]))
    rows = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=m, max_size=m), max_size=6))
    declared = len(rows)
    mutation = draw(st.sampled_from(TRACE_MUTATIONS))
    if mutation == "row-count":
        declared = max(0, declared + draw(st.sampled_from([-1, 1])))
    lines = [f"{m},{v},{declared}"] + [",".join(map(str, row)) for row in rows]
    return mutate(draw, lines, mutation, (0, m - 1), v)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@settings(max_examples=300, deadline=None)
@given(activity_inputs())
@example((1, 2, ACTIVITY_HEADER + "\n0,0,1"))
@example((1, 2, ACTIVITY_HEADER + "\n\n"))
@example((1, 2, ACTIVITY_HEADER + "\n\n0,0,1\n"))
@example((-1, 2, ACTIVITY_HEADER + "\n"))
@example((2, 0, ACTIVITY_HEADER + "\n"))
def test_activity_reader_matches_per_line_loop(workdir, case):
    m, v, text = case
    path = workdir / "activity.csv"
    path.write_bytes(text.encode("utf-8"))
    for policy in ("drop-row", "idle-category"):
        expected = outcome(lambda: _parse_activity_lines(text.splitlines(), m, v, policy))
        assert outcome(lambda: parse_activity_csv(text, m, v, policy)) == expected
        with open(path, "r", encoding="ascii", newline="") as fh:
            expected = outcome(lambda: _parse_activity_lines(fh, m, v, policy))
        with open(path, "r", encoding="ascii", newline="") as fh:
            assert outcome(lambda: parse_activity_csv(fh, m, v, policy)) == expected


@settings(max_examples=300, deadline=None)
@given(trace_inputs())
@example("1,2,1\n0")
@example("1,2,1\n\n")
def test_trace_reader_matches_per_line_loop(workdir, text):
    path = workdir / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="ascii", newline="") as fh:
        expected = outcome(lambda: _read_sample_lines(fh.read().splitlines()))
    assert outcome(lambda: read_sample_table(path)) == expected


def test_non_ascii_byte_past_the_first_read_keeps_its_message(tmp_path):
    # Text files decode 8 KB at a time, so the byte's position in the
    # message depends on how the file is read.
    activity = tmp_path / "activity.csv"
    activity.write_bytes(
        (ACTIVITY_HEADER + "\n" + "".join(f"{t},0,1\n" for t in range(5000)) + "0,0,\u00e9\n")
        .encode("utf-8")
    )
    messages = []
    for reader in (parse_activity_csv, _parse_activity_lines):
        with open(activity, "r", encoding="ascii", newline="") as fh:
            with pytest.raises(UnicodeDecodeError) as exc:
                reader(fh, 1, 2, "drop-row")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]

    trace = tmp_path / "trace.csv"
    trace.write_bytes(("1,2,5001\n" + "0\n" * 5000 + "\u00e9\n").encode("utf-8"))
    with pytest.raises(UnicodeDecodeError) as fast:
        read_sample_table(trace)
    with open(trace, "r", encoding="ascii", newline="") as fh:
        with pytest.raises(UnicodeDecodeError) as loop:
            _read_sample_lines(fh.read().splitlines())
    assert str(fast.value) == str(loop.value)


def test_header_only_input_warns_nothing(tmp_path):
    text = ACTIVITY_HEADER + "\n"
    path = tmp_path / "activity.csv"
    path.write_text(text)
    trace = tmp_path / "trace.csv"
    trace.write_text("3,4,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_activity_csv(text, 2, 2).row_count == 0
        with open(path, "r", encoding="ascii", newline="") as fh:
            assert parse_activity_csv(fh, 2, 2, "idle-category").row_count == 0
        assert read_sample_table(trace).samples.shape == (0, 3)


def array_and_loop(text, m=None, v=None, policy="drop-row", path=None):
    """The array path's result (None if it declined) and the loop's outcome.

    ``m`` and ``v`` given, ``text`` is an activity CSV; otherwise a trace
    file, read from ``path``.
    """
    if m is not None:
        fast = _parse_activity_plain(io.StringIO(text), m, v, policy)
        return fast, outcome(lambda: _parse_activity_lines(text.splitlines(), m, v, policy))
    path.write_bytes(text.encode("ascii"))
    with open(path, "r", encoding="ascii", newline="") as fh:
        fast = _read_sample_plain(fh)
    return fast, outcome(lambda: _read_sample_lines(text.splitlines()))


@pytest.mark.parametrize("chunk_chars", [1, 2, 5])
@pytest.mark.parametrize("end", ["\n", ""])
def test_lines_straddling_chunks(tmp_path, monkeypatch, chunk_chars, end):
    # Every line is longer than a chunk, so each read ends inside a line.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
    observations = [(t, u, (t + u) % 3) for t in (5, 17, 123456) for u in range(2)][:-1]
    text = ACTIVITY_HEADER + "\n" + "\n".join("%d,%d,%d" % obs for obs in observations) + end
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 2, 3, policy)
        assert fast == loop
    fast, loop = array_and_loop("3,300,2\n0,299,17\n255,1,256" + end, path=tmp_path / "t.csv")
    assert fast == loop


@pytest.mark.parametrize("chunk_chars", [1, 1 << 16])
def test_blank_line_in_one_column_trace(tmp_path, monkeypatch, chunk_chars):
    # np.fromstring reads whitespace-only text as [0], so a blank line (or a
    # chunk holding only one) must not pass for a row of zeros.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
    for text in ("1,11,2\n10\n\n", "1,11,3\n10\n\n3\n", "1,2,2\n0\n\n", "1,2,1\n\n"):
        fast, loop = array_and_loop(text, path=tmp_path / "t.csv")
        assert fast is None
        assert loop[0] is ParseError
        assert outcome(lambda: read_sample_table(tmp_path / "t.csv")) == loop


def test_largest_int64_field_goes_to_the_loop(tmp_path):
    # strtoll saturates at 2**63 - 1, so the array path leaves that value,
    # and every larger one, to the loop; 10**18 is an ordinary field.
    trace = tmp_path / "t.csv"
    for stamp, accepted in ((2**63 - 1, False), (2**64, False), (10**18, True)):
        text = f"{ACTIVITY_HEADER}\n{stamp},0,1\n{stamp},1,0\n"
        fast, loop = array_and_loop(text, 2, 2)
        assert (fast is not None) == accepted
        assert parse_activity_csv(text, 2, 2) == loop
        assert loop.samples.tolist() == [[1, 0]]
        fast, loop = array_and_loop(f"2,{2**63},1\n{stamp},0\n", path=trace)
        assert (fast is not None) == accepted
        assert outcome(lambda: read_sample_table(trace)) == loop
        if stamp < 2**63:
            assert loop.samples[0, 0] == stamp
        else:
            assert loop[0] is OutOfRange


def test_leading_comma_goes_to_the_loop(tmp_path):
    # ",0,1" lacks a digit for one field; ",00,1" has enough digits, but
    # np.fromstring reads one value fewer than the line has fields.
    for line in (",0,1", ",00,1"):
        text = f"{ACTIVITY_HEADER}\n0,0,1\n{line}\n"
        fast, loop = array_and_loop(text, 1, 2)
        assert fast is None
        assert outcome(lambda: parse_activity_csv(text, 1, 2)) == loop
        assert loop[0] is ParseError and loop[2] == 3
    trace = tmp_path / "t.csv"
    for text in ("2,3,1\n,12\n", "2,3,2\n0,1\n,0,1\n"):
        fast, loop = array_and_loop(text, path=trace)
        assert fast is None
        assert outcome(lambda: read_sample_table(trace)) == loop
        assert loop[0] is ParseError


# Peak traced allocations of a parse, as a multiple of the file's size. At
# M=50 and 24 categories the chunk reader peaks at 2.2x (50k lines) and
# 2.0x (200k lines); np.loadtxt, which it replaced, peaked at 3.5x and 3.2x,
# and the per-line loop at 6.0x and 5.5x.
PARSE_PEAK_PER_FILE_BYTE = 2.5


@pytest.mark.parametrize("timestamps", [1_000, 4_000])
def test_parse_memory_bounded_by_file_size(tmp_path, timestamps):
    users = 50
    categories = np.random.default_rng(timestamps).integers(0, 24, size=(timestamps, users))
    path = tmp_path / "activity.csv"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(ACTIVITY_HEADER + "\n")
        for t, row in enumerate(categories.tolist()):
            fh.write("".join(f"{t},{u},{c}\n" for u, c in enumerate(row)))
    tracemalloc.start()
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            table = parse_activity_csv(fh, users, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.samples, categories)
    assert peak < PARSE_PEAK_PER_FILE_BYTE * path.stat().st_size


# Peak traced allocations of reading a trace file: the table, plus the
# per-chunk copies of the text and the int64 values parsed from it. At M=50
# and 24 categories the chunk reader peaks at 0.59 MB over the table's bytes
# with 64K-character chunks; np.loadtxt peaked at 7.7x a 200 KB table.
READ_PEAK_PER_TABLE_BYTE = 1.5
READ_PEAK_PER_CHUNK_CHAR = 10


@pytest.mark.parametrize("timestamps", [4_000, 20_000])
def test_read_memory_bounded_by_table_size(tmp_path, timestamps):
    categories = np.random.default_rng(timestamps).integers(0, 24, size=(timestamps, 50))
    table = SampleTable(50, 24, categories)
    path = tmp_path / "trace.csv"
    write_sample_table(table, path)
    tracemalloc.start()
    try:
        read = read_sample_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == table
    nbytes = read.samples.nbytes
    assert peak < READ_PEAK_PER_TABLE_BYTE * nbytes + READ_PEAK_PER_CHUNK_CHAR * traces._CHUNK_CHARS
