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
from oppknow.errors import DuplicateObservation, OutOfRange, ParseError
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
# Activity bodies are drawn in stamp order, as logs are written; "swap",
# "reverse" and "shuffle" break that order.
ACTIVITY_MUTATIONS = MUTATIONS + (
    "user-out-of-range", "duplicate", "swap", "reverse", "shuffle",
)
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
    # Users within a stamp come in any order.
    order = sorted(draw(st.permutations(sorted(observed))), key=lambda key: key[0])
    mutation = draw(st.sampled_from(ACTIVITY_MUTATIONS))
    if mutation == "swap":
        pairs = [(i, j) for i, a in enumerate(order) for j, b in enumerate(order) if a[0] < b[0]]
        if pairs:
            i, j = draw(st.sampled_from(pairs))
            order[i], order[j] = order[j], order[i]
    elif mutation == "reverse":
        order.reverse()
    elif mutation == "shuffle":
        order = draw(st.permutations(order))
    lines = [ACTIVITY_HEADER] + [f"{t},{u},{observed[t, u]}" for t, u in order]
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
@example((2, 2, ACTIVITY_HEADER + "\n1,0,1\n0,1,0\n1,1,1\n0,0,0\n"))
@example((1, 2, ACTIVITY_HEADER + "\n\n"))
@example((1, 2, ACTIVITY_HEADER + "\n\n0,0,1\n"))
@example((-1, 2, ACTIVITY_HEADER + "\n"))
@example((2, 0, ACTIVITY_HEADER + "\n"))
# Two stamps of 2**62 + 1 users reach 2**63 cells, but line 3 repeats line 2.
@example((2**62 + 1, 2, ACTIVITY_HEADER + "\n0,0,1\n0,0,1\n1,0,1\n"))
def test_activity_reader_matches_per_line_loop(workdir, case):
    m, v, text = case
    assert_activity_matches_loop(workdir / "activity.csv", text, m, v)


def assert_activity_matches_loop(path, text, m, v):
    """``parse_activity_csv`` of ``text``, as a string and as the file
    ``path``, gives the per-line loop's outcome under both policies."""
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


def activity_text(observations):
    return ACTIVITY_HEADER + "\n" + "".join("%d,%d,%d\n" % obs for obs in observations)


@pytest.mark.parametrize("chunk_chars", [1, 7, 30])
def test_stamp_spanning_chunks(tmp_path, monkeypatch, chunk_chars):
    # Each stamp's six lines fill several chunks, so a row stays open across
    # chunk boundaries; stamp 9 lacks user 2.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
    observations = [
        (t, u, (t * u) % 4) for t in (0, 3, 9, 12) for u in (5, 0, 1, 2, 3, 4) if (t, u) != (9, 2)
    ]
    text = activity_text(observations)
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 6, 4, policy)
        assert fast is not None and fast == loop
    assert_activity_matches_loop(tmp_path / "a.csv", text, 6, 4)


@pytest.mark.parametrize("chunk_chars", [1, 7, 1 << 16])
def test_duplicate_split_across_chunks(tmp_path, monkeypatch, chunk_chars):
    # The second (5, 0) arrives in a later chunk than the first, except
    # with one chunk for the whole body.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", chunk_chars)
    text = activity_text([(5, 0, 1), (5, 1, 0), (5, 0, 2), (6, 0, 1), (6, 1, 1)])
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 2, 3, policy)
        assert fast is None
        assert loop[0] is DuplicateObservation and "line 4:" in loop[1]
    assert_activity_matches_loop(tmp_path / "a.csv", text, 2, 3)


@pytest.mark.parametrize("block_cells", [1, 4, 9])
def test_rows_filled_a_few_at_a_time(tmp_path, monkeypatch, block_cells):
    # Blocks of one to three new rows of 3 users: one chunk's 40 stamps span
    # many blocks, each starting from the row the one before left open.
    monkeypatch.setattr(traces, "_WRITE_BLOCK_CELLS", block_cells)
    observations = [(t, u, (t + u) % 4) for t in range(0, 80, 2) for u in range(3) if (t + u) % 5]
    text = activity_text(observations)
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 3, 4, policy)
        assert fast is not None and fast == loop
    assert_activity_matches_loop(tmp_path / "a.csv", text, 3, 4)
    # A repeated observation, still in stamp order, falls to the loop.
    text = activity_text(observations[:40] + observations[39:])
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 3, 4, policy)
        assert fast is None and loop[0] is DuplicateObservation


@pytest.mark.parametrize("mutation", ["moved", "moved-duplicate"])
def test_stamp_going_back_in_a_late_chunk(tmp_path, monkeypatch, mutation):
    # Only the last chunk holds a stamp below its predecessor's, so the
    # builder has closed rows from the chunks as read before it starts again
    # from the sorted ones.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", 16)
    observations = [(t, u, (t + u) % 3) for t in range(0, 200, 10) for u in range(3)]
    if mutation == "moved":
        observations.append(observations.pop(13))
    else:
        observations.append((40, 1, 0))
    text = activity_text(observations)
    sorted_chunks, columns = traces._sorted_chunks, []

    def spy(*args):
        columns.append(args)
        return sorted_chunks(*args)

    monkeypatch.setattr(traces, "_sorted_chunks", spy)
    for policy in ("drop-row", "idle-category"):
        fast, loop = array_and_loop(text, 3, 3, policy)
        if mutation == "moved":
            assert fast is not None and fast == loop
        else:
            assert fast is None and loop[0] is DuplicateObservation
    assert len(columns) == 2
    assert_activity_matches_loop(tmp_path / "a.csv", text, 3, 3)


def spy_sorted_chunks(monkeypatch):
    """A list that gets every chunk ``_sorted_chunks`` yields from now on."""
    sorted_chunks, yielded = traces._sorted_chunks, []

    def spy(*args):
        for chunk in sorted_chunks(*args):
            yielded.append(chunk)
            yield chunk

    monkeypatch.setattr(traces, "_sorted_chunks", spy)
    return yielded


@pytest.mark.parametrize(
    "mutation, error",
    [
        ("letter", ParseError),
        ("user-out-of-range", OutOfRange),
        ("category-out-of-range", OutOfRange),
        ("duplicate", DuplicateObservation),
        ("cr", None),
    ],
)
@pytest.mark.parametrize("policy", ["drop-row", "idle-category"])
def test_bad_line_after_a_backwards_stamp(monkeypatch, policy, mutation, error):
    # Line 3's stamp goes backwards and line 42 is bad, many 16-character
    # chunks later, so the in-order builder stops at the stamp and the
    # sorted feed is the first to read the bad line. The per-line loop
    # strips the CR and accepts the line.
    monkeypatch.setattr(traces, "_CHUNK_CHARS", 16)
    lines = [f"{t},{u},{(t + u) % 3}" for t in range(0, 200, 10) for u in range(3)]
    lines[0], lines[3] = lines[3], lines[0]
    t, u, c = lines[40].split(",")
    if mutation == "letter":
        lines[40] = f"{t},{u},x"
    elif mutation == "user-out-of-range":
        lines[40] = f"{t},3,{c}"
    elif mutation == "category-out-of-range":
        lines[40] = f"{t},{u},3"
    elif mutation == "duplicate":
        lines.insert(41, f"{t},{u},{(int(c) + 1) % 3}")
    else:
        lines[40] += "\r"
    text = ACTIVITY_HEADER + "\n" + "\n".join(lines) + "\n"
    yielded = spy_sorted_chunks(monkeypatch)
    fast, loop = array_and_loop(text, 3, 3, policy)
    assert fast is None
    # Only the repeated pair passes the sorted feed, to the row builder.
    if mutation == "duplicate":
        assert yielded and all(chunk is not None for chunk in yielded)
        assert loop[0] is error and loop[1].startswith("line 43:")
    else:
        assert yielded == [None]
    if error is None:
        assert isinstance(loop, SampleTable)
    elif error is not DuplicateObservation:
        assert loop[0] is error and loop[2] == 42
    assert outcome(lambda: parse_activity_csv(text, 3, 3, policy)) == loop


class Truncating(io.StringIO):
    """Text whose body is emptied when a reader seeks back to it."""

    def seek(self, position, whence=io.SEEK_SET):
        if position:
            self.truncate(position)
        return super().seek(position, whence)


def test_body_emptied_before_the_sorted_read():
    assert list(traces._sorted_chunks(io.StringIO(""), 2, 3)) == [None]
    text = activity_text([(1, 0, 1), (0, 0, 2)])
    for policy in ("drop-row", "idle-category"):
        assert _parse_activity_plain(Truncating(text), 1, 3, policy) is None


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


def write_activity(path, timestamps, order="in-order"):
    """An activity CSV of 50 users x ``timestamps`` observations over 24
    categories, in stamp order or shuffled; returns the categories."""
    categories = np.random.default_rng(timestamps).integers(0, 24, size=(timestamps, 50))
    lines = (f"{t},{u},{c}\n" for t, row in enumerate(categories.tolist()) for u, c in enumerate(row))
    if order == "shuffled":
        lines = list(lines)
        np.random.default_rng(0).shuffle(lines)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(ACTIVITY_HEADER + "\n")
        fh.writelines(lines)
    return categories


def write_sparse_activity(path, timestamps, users):
    """An activity CSV with one observation per stamp, user ``t % users`` at
    stamp ``t``, over 24 categories; returns its ``idle-category`` table."""
    categories = np.random.default_rng(timestamps).integers(0, 24, size=timestamps)
    grid = np.zeros((timestamps, users), dtype=np.uint8)
    grid[np.arange(timestamps), np.arange(timestamps) % users] = categories + 1
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(ACTIVITY_HEADER + "\n")
        fh.writelines(f"{t},{t % users},{c}\n" for t, c in enumerate(categories.tolist()))
    return grid


def traced_parse(path, policy="drop-row", users=50):
    """The table parsed from the file ``path`` and the parse's traced peak."""
    tracemalloc.start()
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            table = parse_activity_csv(fh, users, 24, policy)
        return table, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak traced allocations of a parse, as a multiple of the file's size. At
# M=50 and 24 categories a shuffled log, read once more into columns that
# are sorted before they feed the row builder, peaks at 2.21x (50k lines),
# 1.99x (200k lines) and 1.85x (1M lines) under either policy; np.loadtxt
# peaked at 3.5x and 3.2x, and the per-line loop at 6.0x and 5.5x.
PARSE_PEAK_PER_FILE_BYTE = 2.5


@pytest.mark.parametrize("policy", ["drop-row", "idle-category"])
@pytest.mark.parametrize("order", ["in-order", "shuffled"])
@pytest.mark.parametrize("timestamps", [1_000, 4_000])
def test_parse_memory_bounded_by_file_size(tmp_path, timestamps, order, policy):
    path = tmp_path / "activity.csv"
    categories = write_activity(path, timestamps, order)
    table, peak = traced_parse(path, policy)
    assert np.array_equal(table.samples, categories + (policy == "idle-category"))
    assert peak < PARSE_PEAK_PER_FILE_BYTE * path.stat().st_size


# Peak traced allocations of parsing an in-order log: the table so far
# (at most an eighth to spare) plus the per-chunk copies of the text and its
# int64 values. At M=50 and 24 categories the peak is 1.57x the 1 MB table
# at 20k timestamps, and the table + 8 bytes per chunk character at 1k;
# joining the rows at the end, which would hold the table twice, peaks at
# 2.03x, and a shuffled copy of the log at 20 MB. The sparse log is one
# 34K-character chunk of 3,000 stamps of 2,000 users: a block of rows for
# every stamp in the chunk held a second 6 MB table (12.9 MB in all, the
# table 6.8 MB when rows are filled a block of cells at a time).
IN_ORDER_PEAK_PER_TABLE_BYTE = 1.25
IN_ORDER_PEAK_PER_CHUNK_CHAR = 10


@pytest.mark.parametrize("policy", ["drop-row", "idle-category"])
@pytest.mark.parametrize(
    "timestamps, users",
    [
        pytest.param(1_000, 50, id="1000"),
        pytest.param(20_000, 50, id="20000"),
        pytest.param(3_000, 2_000, id="sparse-3000x2000"),
    ],
)
def test_in_order_parse_memory_bounded_by_table_size(tmp_path, timestamps, users, policy):
    path = tmp_path / "activity.csv"
    if users == 50:
        categories = write_activity(path, timestamps)
        expected = categories + (policy == "idle-category")
    else:
        expected = write_sparse_activity(path, timestamps, users)
        if policy == "drop-row":
            expected = expected[expected.all(axis=1)]
    table, peak = traced_parse(path, policy, users)
    assert np.array_equal(table.samples, expected)
    assert peak < (
        IN_ORDER_PEAK_PER_TABLE_BYTE * table.samples.nbytes
        + IN_ORDER_PEAK_PER_CHUNK_CHAR * traces._CHUNK_CHARS
    )


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


# Peak traced allocations of writing a trace file: one block's strings and
# the text of its ids, made a block at a time. At M=50 and 24 categories the
# block takes 27 bytes per cell (0.44 MB); finding the ids present with a
# sorted copy of the whole table, as the writer once did, held 2x the table
# on top (2.0 MB at 20k timestamps).
WRITE_PEAK_PER_TABLE_BYTE = 0.25
WRITE_PEAK_PER_BLOCK_CELL = 40


@pytest.mark.parametrize("timestamps", [1_000, 20_000])
def test_write_memory_bounded_by_table_size(tmp_path, timestamps):
    categories = np.random.default_rng(timestamps).integers(0, 24, size=(timestamps, 50))
    table = SampleTable(50, 24, categories)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write_sample_table(table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_sample_table(path) == table
    assert peak < (
        WRITE_PEAK_PER_TABLE_BYTE * table.samples.nbytes
        + WRITE_PEAK_PER_BLOCK_CELL * traces._WRITE_BLOCK_CELLS
    )
