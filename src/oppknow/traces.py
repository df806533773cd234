"""Activity traces: ingestion, per-user profiles, and synthetic generation.

A :class:`SampleTable` holds one category assignment per user per time unit
as a read-only ``(T, M)`` integer array; it is the raw material from which
:meth:`oppknow.measures.JointDistribution.from_samples` estimates the joint
PMF. Real traces arrive as activity CSVs (``timestamp,user,category``
triples); desk-scale experiments use :func:`synthesize_traces`, a
one-parameter correlation family spanning fully independent users (rho = 0)
to identical users (rho = 1). Synthesis, unique tips and profiles are array
operations on the table.

Activity CSVs and trace files are parsed a line-aligned chunk of 64K
characters at a time. A trace file's chunks fill its ``(T, M)`` table,
allocated once at the size its header gives. An activity CSV becomes table
rows in one builder, which takes chunks of observations whose stamps never
go down: each chunk's observations are scattered into the rows of its
stamps, a block of rows at a time, and its last row stays open for the next
chunk, so memory follows the table and not the log. A log in stamp order,
the order in which logs are written, feeds the builder its chunks as they
are read. No row of a log out of stamp order is complete before its last
line, so a stamp that goes backwards sends the reader back to the first
observation: the body is read once more, every observation's stamp, user
and category is kept in narrow columns, and the columns, sorted by stamp,
feed the same builder. A chunk is parsed (by ``np.fromstring``)
only if every line in it is the expected number of nonempty runs of ASCII
digits split by commas, and each field is then compared once with its bound
(the user count, the alphabet, or 2**63 - 1). Wherever the array path
gives up (a bad field, a sign, a CR, a blank line, a field at its bound, a
duplicate, a table of 2**63 cells or more), it raises one exception, and
the public reader reads the input again with the per-line loop, which
accepts the same lenient forms it always has and is the only place that
builds error messages, with their line numbers.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so equal
seeds give byte-identical tables on every platform.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadVariableIndex,
    DuplicateObservation,
    EmptyInput,
    MISSING_POLICIES,
    MalformedSamples,
    OutOfRange,
    ParseError,
)

ACTIVITY_HEADER = "timestamp,user,category"

# Fixed internal seed for unique-tip injection, so the operation is a pure
# function of the input table.
_UNIQUE_TIP_SEED = 0x517E

# Characters per read of the chunk reader. The reader holds about 8 bytes
# per character of a chunk (its text, bytes and int64 values), all that an
# in-order activity parse holds besides the table; 256K-character chunks
# would hold 2 MB, four times the table of a 5 MB log of 50 users.
_CHUNK_CHARS = 1 << 16
_DIGITS = b"0123456789"
# The chunk reader turns commas and LFs into the spaces np.fromstring splits on.
_SEPARATORS_TO_SPACES = bytes.maketrans(b",\n", b"  ")
# strtoll saturates at this value instead of failing, so no field bound of
# the chunk reader is above it, and a field that parses to it gives up.
_INT64_MAX = (1 << 63) - 1
# Cells per block of rows that a trace file write turns into text, and the
# widest alphabet whose text it makes once: bounds the write's string objects
# by the block, not the table. An in-order activity parse fills at most this
# many cells' worth of new rows at a time.
_WRITE_BLOCK_CELLS = 1 << 14


def category_dtype(category_count: int) -> np.dtype:
    """Smallest integer dtype that holds every id in ``[0, category_count)``.

    uint64 would turn int64 arithmetic on the ids into float64, so the widest
    alphabets use int64, and a ``category_count`` above ``2**63`` raises
    :class:`MalformedSamples`.
    """
    if category_count > 1 << 63:
        raise MalformedSamples(
            f"category_count {category_count} exceeds 2**63: ids are stored as int64"
        )
    dtype = np.min_scalar_type(category_count - 1)
    return np.dtype(np.int64) if dtype.itemsize == 8 else dtype


def _check_user_count(user_count: int) -> None:
    # Users are array columns, and numpy dimensions and sizes stay below 2**63.
    if user_count >= 1 << 63:
        raise MalformedSamples(f"user_count {user_count} reaches 2**63: users are array columns")


def _check_cells(timestamps: int, user_count: int) -> None:
    if timestamps * user_count >= 1 << 63:
        raise MemoryError(f"{timestamps} timestamps of {user_count} users reach 2**63 cells")


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Time-indexed category assignments: one length-M row per time unit.

    ``samples`` is a read-only ``(row_count, user_count)`` array in
    :func:`category_dtype` of ``category_count``. The constructor also takes
    any nested sequence of rows, such as a tuple of tuples; ragged rows,
    non-integer ids and ids outside ``[0, category_count)`` raise
    :class:`MalformedSamples`.
    """

    user_count: int
    category_count: int
    samples: np.ndarray

    def __post_init__(self):
        if self.user_count < 1 or self.category_count < 1:
            raise MalformedSamples("user_count and category_count must be >= 1")
        _check_user_count(self.user_count)
        m, v = self.user_count, self.category_count
        dtype = category_dtype(v)
        try:
            grid = np.asarray(self.samples)
        except (ValueError, OverflowError):
            grid = None
        if grid is not None and grid.shape == (0,):
            grid = grid.reshape(0, m)
        if grid is None or grid.ndim != 2 or grid.shape[1] != m:
            raise MalformedSamples(f"samples must be rows of length {m}")
        if grid.size:
            if grid.dtype.kind not in "iu":
                # Python ints past the int64 range come out as float64 or
                # object cells; they are ids out of range, not non-integers.
                cells = np.asarray(self.samples, dtype=object)
                if not all(type(c) is int or isinstance(c, np.integer) for c in cells.flat):
                    raise MalformedSamples(f"category ids must be integers, got {grid.dtype}")
                grid = cells
            # Two reductions find a bad id with no table-sized temporaries.
            if grid.min() < 0 or grid.max() >= v:
                bad = (grid < 0) | (grid >= v)
                row = int(bad.any(axis=1).argmax())
                raise MalformedSamples(f"row {row} has a category outside [0, {v})")
        # A view, so that a caller's own array stays writeable.
        grid = grid.astype(dtype, copy=False).view()
        grid.flags.writeable = False
        object.__setattr__(self, "samples", grid)

    @property
    def row_count(self) -> int:
        return self.samples.shape[0]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The samples as a tuple of row tuples of Python ints."""
        return tuple(map(tuple, self.samples.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleTable):
            return NotImplemented
        return (
            self.user_count == other.user_count
            and self.category_count == other.category_count
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for synthetic trace generation."""

    user_count: int
    category_count: int
    row_count: int
    correlation: float
    seed: int

    def __post_init__(self):
        if self.user_count < 2:
            raise ValueError("user_count must be >= 2")
        if self.category_count < 2:
            raise ValueError("category_count must be >= 2")
        if self.row_count < 1:
            raise ValueError("row_count must be >= 1")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _distinct(values: np.ndarray) -> np.ndarray:
    # The sorted distinct values of ``values``, as np.unique returns them.
    # On numpy 2.4 the first np.unique call imports numpy.ma (about 1.2 MB of
    # RSS and 15 ms), which ingest would load for nothing else. numpy
    # radix-sorts integers of up to 16 bits when asked for a stable sort.
    ordered = np.sort(values, axis=None, kind="stable" if values.itemsize <= 2 else None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


class _NotPlain(Exception):
    """Raised where the array path gives the input up to the per-line loop."""


def _plain_chunks(fh: io.TextIOBase, fields: int, bounds: tuple[int, ...]) -> Iterator[np.ndarray]:
    # Yields the rest of ``fh`` a line-aligned chunk at a time, each as a
    # (lines, fields) int64 array. The first chunk that does not decode or is
    # not plain raises _NotPlain. In a plain chunk every line is ``fields``
    # nonempty runs of ASCII digits split by commas, ending in LF (the last
    # line of the file may lack it), and each field's largest value is below
    # ``bounds``: one bound for all fields or one per field, none above _INT64_MAX.
    row = b"," * (fields - 1) + b"\n"
    while True:
        try:
            chunk = fh.read(_CHUNK_CHARS)
            if chunk and chunk[-1] != "\n":
                chunk += fh.readline()
            data = chunk.encode("ascii")
        except UnicodeError:  # text that does not decode, or is not ASCII
            raise _NotPlain from None
        del chunk
        if not data:
            return
        if not data.endswith(b"\n"):
            data += b"\n"
        # Without its digits, a plain chunk is one ``row`` per line, and it
        # has a digit per field; np.fromstring then reads every field, which
        # rules out the lone 0 it returns for text with no digits at all.
        skeleton = data.translate(None, _DIGITS)
        lines = len(skeleton) // len(row)
        if skeleton != row * lines or len(data) - len(skeleton) < lines * fields:
            raise _NotPlain
        del skeleton
        values = np.fromstring(data.translate(_SEPARATORS_TO_SPACES), dtype=np.int64, sep=" ")
        if values.size != lines * fields:
            raise _NotPlain
        columns = values.reshape(-1, len(bounds)).T
        if any(column.max() >= bound for column, bound in zip(columns, bounds)):
            raise _NotPlain
        yield values.reshape(lines, fields)


def parse_activity_csv(
    source: Iterable[str] | str,
    user_count: int,
    category_count: int,
    missing_policy: str = "drop-row",
) -> SampleTable:
    """Parse ``timestamp,user,category`` observations into a sample table.

    Observations are grouped by timestamp, one output row per timestamp in
    ascending order. Timestamps where some user was not observed are handled
    per ``missing_policy``:

    * ``drop-row`` discards incomplete timestamps; categories keep their ids
      and the table alphabet stays ``category_count``.
    * ``idle-category`` keeps every timestamp, assigns absent users the
      reserved category 0 and shifts observed category ids up by one, so the
      table alphabet becomes ``category_count + 1``.

    A string or a seekable text file is parsed as arrays; any other iterable
    of lines, and any input the array path rejects, is parsed line by line.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}")
    _check_user_count(user_count)
    fh = io.StringIO(source) if isinstance(source, str) else source
    if isinstance(fh, io.TextIOBase) and fh.seekable():
        start = fh.tell()
        try:
            return _parse_activity_plain(fh, user_count, category_count, missing_policy)
        except _NotPlain:
            fh.seek(start)
    lines = source.splitlines() if isinstance(source, str) else source
    return _parse_activity_lines(lines, user_count, category_count, missing_policy)


class _OutOfOrder(Exception):
    """Raised by :func:`_activity_rows` for a stamp that goes backwards."""


def _parse_activity_plain(
    fh: io.TextIOBase, user_count: int, category_count: int, missing_policy: str
) -> SampleTable:
    # The per-line loop reports counts below 1 and alphabets too wide for int64 ids.
    header = fh.readline().removesuffix("\n")
    if user_count < 1 or not 1 <= category_count < 1 << 63 or header != ACTIVITY_HEADER:
        raise _NotPlain
    body = fh.tell()
    bounds = (_INT64_MAX, user_count, category_count)
    chunks = _plain_chunks(fh, 3, bounds)
    try:
        return _activity_rows(chunks, user_count, category_count, missing_policy)
    except _OutOfOrder:
        fh.seek(body)
    chunks = _sorted_chunks(_plain_chunks(fh, 3, bounds), user_count, category_count)
    return _activity_rows(chunks, user_count, category_count, missing_policy)


def _sorted_chunks(
    chunks: Iterable[np.ndarray], user_count: int, category_count: int
) -> Iterator[np.ndarray]:
    # The observations of a body whose stamps go backwards, in chunks of
    # (stamp, user, category) rows in stamp order: no row of such a body is
    # complete before its last line. Each chunk's stamps, users and
    # categories are narrowed and kept in a list per column, and each list
    # is joined and freed before the next. The stamps are sorted in place,
    # so that no gathered copy of them is held beside the others.
    parts = [[], [], []]
    dtypes = (np.int64, category_dtype(user_count), category_dtype(category_count))
    for rows in chunks:
        for column, part, dtype in zip(parts, rows.T, dtypes):
            column.append(part.astype(dtype))
    # A body emptied since the first read has nothing to join.
    if not parts[0]:
        raise _NotPlain
    # A loop variable left bound would hold its part through the join.
    del rows, column, part
    t, u, c = (np.concatenate(parts.pop(0)) for _ in range(3))
    order = np.argsort(t)
    u, c = u[order], c[order]
    del order
    t.sort()
    # At 24 bytes a row, a chunk holds less than a read's 8 bytes a character.
    step = max(1, _CHUNK_CHARS // 32)
    for start in range(0, t.size, step):
        end = start + step
        yield np.column_stack((t[start:end], u[start:end], c[start:end]))


def _activity_rows(
    chunks: Iterable[np.ndarray], user_count: int, category_count: int, missing_policy: str
) -> SampleTable:
    # Table rows straight from (stamp, user, category) chunks whose stamps
    # never go down, so that memory follows the table and one chunk, not the
    # log; a stamp that goes backwards raises _OutOfOrder. A cell holds its
    # category + 1, so 0 marks a user not observed. A chunk's stamps are
    # ranked by a change mask and its observations scattered into blocks of
    # rows, the first of them the row that the previous block left open;
    # every row of a block but the last is then closed: appended to one
    # bytearray, which realloc grows with at most an eighth to spare, so the
    # table is never held twice.
    drop = missing_policy == "drop-row"
    dtype = category_dtype(category_count + 1)
    step = max(1, _WRITE_BLOCK_CELLS // user_count)
    kept = bytearray()
    open_row = last = None
    stamps = filled = lines = 0

    def close(rows: np.ndarray) -> None:
        nonlocal filled
        filled += np.count_nonzero(rows)
        if drop:
            rows = rows[rows.all(axis=1)]
            rows -= 1
        kept.extend(memoryview(rows))

    for rows in chunks:
        t = rows[:, 0]
        if last is None:
            last = t[0]
        if t[0] < last or (t[1:] < t[:-1]).any():
            raise _OutOfOrder
        starts = np.empty(t.size, dtype=bool)
        starts[0] = t[0] != last
        np.not_equal(t[1:], t[:-1], out=starts[1:])
        rank = np.cumsum(starts)
        height = int(rank[-1]) + 1
        # The per-line loop reports a table of 2**63 cells or more, with
        # its stamp count, unless it finds a bad line first.
        if (stamps + height) * user_count >= 1 << 63:
            raise _NotPlain
        rows[:, 2] += 1
        lines += len(rows)
        last = t[-1]
        # The ranks are filled a block of at most ``step`` new rows at a
        # time, so that a sparse chunk of many stamps holds one block and
        # not a row per stamp.
        base = lo = 0
        while True:
            top = min(base + step, height - 1)
            hi = int(np.searchsorted(rank, top, "right"))
            block = np.zeros((top - base + 1, user_count), dtype=dtype)
            if open_row is not None:
                block[0] = open_row
            block[rank[lo:hi] - base, rows[lo:hi, 1]] = rows[lo:hi, 2]
            open_row = block[-1].copy()
            close(block[:-1])
            if top == height - 1:
                break
            base, lo = top, hi
        stamps += height - 1
        del rows, t, rank, block
    if open_row is not None:
        close(open_row[None])
    # Every observation fills one cell, so fewer filled cells than lines
    # means a repeated (timestamp, user) pair.
    if filled != lines:
        raise _NotPlain
    grid = np.frombuffer(kept, dtype=dtype).reshape(-1, user_count)
    return SampleTable(user_count, category_count if drop else category_count + 1, grid)


def _parse_activity_lines(
    lines: Iterable[str], user_count: int, category_count: int, missing_policy: str
) -> SampleTable:
    by_timestamp: dict[int, dict[int, int]] = {}
    header_seen = False
    line_number = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line_number == 1:
            if line != ACTIVITY_HEADER:
                raise ParseError(1, f"expected header {ACTIVITY_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(line_number, f"expected 3 comma-separated fields, got {line!r}")
        try:
            timestamp, user, category = (int(f) for f in fields)
        except ValueError:
            raise ParseError(line_number, f"non-integer field in {line!r}") from None
        if timestamp < 0 or user < 0 or category < 0:
            raise ParseError(line_number, f"negative value in {line!r}")
        if user >= user_count:
            raise OutOfRange(line_number, f"user {user} >= declared user count {user_count}")
        if category >= category_count:
            raise OutOfRange(
                line_number, f"category {category} >= declared category count {category_count}"
            )
        seen = by_timestamp.setdefault(timestamp, {})
        if user in seen:
            raise DuplicateObservation(
                f"line {line_number}: duplicate observation for timestamp {timestamp}, user {user}"
            )
        seen[user] = category
    if not header_seen:
        raise ParseError(1, "empty input, expected header line")
    _check_cells(len(by_timestamp), user_count)

    rows: list[tuple[int, ...]] = []
    if missing_policy == "drop-row":
        for timestamp in sorted(by_timestamp):
            seen = by_timestamp[timestamp]
            if len(seen) == user_count:
                rows.append(tuple(seen[u] for u in range(user_count)))
        alphabet = category_count
    else:
        for timestamp in sorted(by_timestamp):
            seen = by_timestamp[timestamp]
            rows.append(
                tuple(seen[u] + 1 if u in seen else 0 for u in range(user_count))
            )
        alphabet = category_count + 1

    return SampleTable(user_count, alphabet, tuple(rows))


def profile_vector(table: SampleTable, user: int) -> np.ndarray:
    """Empirical category distribution of one user across all rows."""
    if not 0 <= user < table.user_count:
        raise BadVariableIndex(f"user {user} outside [0, {table.user_count})")
    if not table.row_count:
        raise EmptyInput("cannot profile an empty table")
    counts = np.bincount(table.samples[:, user], minlength=table.category_count)
    return counts / table.row_count


def synthesize_traces(config: SynthConfig) -> SampleTable:
    """Generate a correlated synthetic trace, deterministic in the seed.

    Each row draws a shared latent category uniformly; each user then copies
    the latent value with probability ``correlation`` and otherwise samples
    from a private profile. Private profiles are drawn once per user as
    normalized independent unit-exponential weights (uniform over the
    category simplex). A profile or draw matrix over ``sys.maxsize`` bytes
    raises :class:`MemoryError` before anything is drawn.
    """
    m, v, t = config.user_count, config.category_count, config.row_count
    dtype = category_dtype(v)
    if m * v * 8 > sys.maxsize:
        raise MemoryError(f"the ({m}, {v}) float64 profile matrix exceeds the address space")
    if t * m * 8 > sys.maxsize:
        raise MemoryError(f"the ({t}, {m}) float64 draw matrix exceeds the address space")
    rng = np.random.default_rng(config.seed)

    profiles = rng.exponential(1.0, size=(m, v))
    profiles /= profiles.sum(axis=1, keepdims=True)

    latent = rng.integers(0, v, size=t).astype(dtype)
    copy_latent = rng.random(size=(t, m)) < config.correlation
    private = np.empty((t, m), dtype=dtype)
    for u in range(m):
        private[:, u] = rng.choice(v, size=t, p=profiles[u])

    return SampleTable(m, v, np.where(copy_latent, latent[:, None], private))


def inject_unique_tips(table: SampleTable) -> SampleTable:
    """Guarantee every user holds knowledge no one else has.

    Extends the alphabet by one reserved category per user and appends, per
    user, a copy of a fixed baseline row with that user's entry replaced by
    its reserved category. The baseline row then resolves two ways given all
    other users, so ``H(X_i | rest) > 0`` for every user afterwards. The
    result is a pure function of the input table.
    """
    if not table.row_count:
        raise EmptyInput("cannot inject unique tips into an empty table")
    m, v = table.user_count, table.category_count
    rng = np.random.default_rng(_UNIQUE_TIP_SEED)
    baseline = table.samples[int(rng.integers(table.row_count))]

    appended = np.tile(baseline.astype(category_dtype(v + m)), (m, 1))
    np.fill_diagonal(appended, np.arange(v, v + m))
    return SampleTable(m, v + m, np.concatenate((table.samples, appended)))


# -- sample table files ----------------------------------------------------------
#
# Format: one header line "M,v,T", then T lines of M comma-separated
# category ids, LF line endings.


def _names(ids: np.ndarray) -> np.ndarray:
    # The decimal text of each id, as an object array.
    return np.array([str(c) for c in ids.tolist()], dtype=object)


def write_sample_table(table: SampleTable, path: str | os.PathLike) -> None:
    samples = table.samples
    # Ids index the text of the whole alphabet when it has no more ids than
    # a block has cells. A wider alphabet's text is made for the ids present
    # in each block. Either way memory follows the block, not the table or
    # the largest id.
    v = table.category_count
    names = _names(np.arange(v)) if v <= _WRITE_BLOCK_CELLS else None
    block = max(1, _WRITE_BLOCK_CELLS // table.user_count)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{table.user_count},{v},{table.row_count}\n")
        for start in range(0, table.row_count, block):
            rows = samples[start : start + block]
            if names is None:
                present = _distinct(rows)
                text = _names(present)[np.searchsorted(present, rows)]
            else:
                text = names[rows]
            fh.write("\n".join(map(",".join, text.tolist())) + "\n")


def read_sample_table(path: str | os.PathLike) -> SampleTable:
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            return _read_sample_plain(fh)
        except _NotPlain:
            fh.seek(0)
        return _read_sample_lines(fh.read().splitlines())


def _read_sample_plain(fh: io.TextIOBase) -> SampleTable:
    header = fh.readline()
    fields = header.removesuffix("\n").split(",")
    if len(fields) != 3 or not all(f.isascii() and f.isdigit() for f in fields):
        raise _NotPlain
    m, v, t = map(int, fields)
    # Nothing is allocated for a header with M or T x M of 2**63 or more, or
    # with more rows than the rest of the file can hold (T rows of M fields
    # take at least 2MT - 1 characters), or with none for a nonempty body.
    if not (1 <= m < 1 << 63 and t * m < 1 << 63 and 1 <= v <= 1 << 63):
        raise _NotPlain
    rest = os.fstat(fh.fileno()).st_size - len(header)
    if rest < 2 * m * t - 1 or (rest and not t):
        raise _NotPlain
    samples = np.empty((t, m), dtype=category_dtype(v))
    start = 0
    for rows in _plain_chunks(fh, m, (min(v, _INT64_MAX),)):
        if start + len(rows) > t:
            raise _NotPlain
        samples[start : start + len(rows)] = rows
        start += len(rows)
    if start != t:
        raise _NotPlain
    return SampleTable(m, v, samples)


def _read_sample_lines(lines: list[str]) -> SampleTable:
    if not lines:
        raise ParseError(1, "empty sample table file")
    header = lines[0].split(",")
    if len(header) != 3:
        raise ParseError(1, f"expected header 'M,v,T', got {lines[0]!r}")
    try:
        m, v, t = (int(f) for f in header)
    except ValueError:
        raise ParseError(1, f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != t:
        raise ParseError(
            len(lines), f"header declares {t} rows but file has {len(lines) - 1}"
        )
    rows = []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != m:
            raise ParseError(line_number, f"expected {m} fields, got {len(fields)}")
        try:
            row = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError(line_number, f"non-integer field in {line!r}") from None
        for c in row:
            if c < 0 or c >= v:
                raise OutOfRange(line_number, f"category {c} outside [0, {v})")
        rows.append(row)
    return SampleTable(m, v, tuple(rows))
