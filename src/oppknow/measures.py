"""Sparse multivariate discrete information measures, in bits.

The central object is :class:`JointDistribution`: an empirical joint PMF over
``user_count`` categorical variables, stored sparsely as a map from observed
outcome tuples to positive integer counts. All queries (subset entropy,
conditional entropy, mutual information, knowledge gain/limit) reduce to
entropies of outcome projections, merged exactly in integer arithmetic before
any floating-point work.

One kernel computes those entropies, by partition refinement. The projections
onto a variable subset S are the blocks of a partition of the atoms. The
kernel refines the partition of the largest cached subset of S by the columns
S adds, or, when no subset of S is cached, builds it from the columns. An
atom's new block is keyed by its parent block and then by its values in those
columns, and blocks are numbered in key order. When the keys can take at most
``max(2n, 4096)`` values for ``n`` atoms, each key is packed into one
mixed-radix integer: one ``np.bincount`` counts each block's atoms and a
second sums its weights, with no sort. Otherwise one ``np.lexsort`` orders
the atoms by their unpacked keys, and a new block starts wherever one key
changes. The sort stays for wide alphabets and for many columns, whose packed
keys would overflow int64 or need far more counters than there are atoms; it
works for any alphabet that fits int64 ids. An atom alone in its block never
splits again: it is settled, and only its ``w * log2(w)`` term is kept. A
cached partition therefore stores just the atoms that still share a block.
Partitions with more than half the atoms still sharing are not cached, and
the cache holds at most as many bytes as the outcome columns, evicting the
least recently used partition first.

The distribution keeps its atoms as arrays: one ``(users, atoms)`` array in
the smallest integer dtype that holds every category, each row the column of
one variable, and the atom weights. ``from_samples`` gathers that array from
the table's sorted columns into one buffer, which it compacts in place when
rows repeat, so no row-major copy of the table is made. The ``atoms`` mapping
of outcome tuples to weights is built from them the first time it is read;
no query needs it.

A variable subset has one key everywhere: the Python int bit mask with bit
``i`` set for each member ``i``. Ids are converted with ``operator.index``,
which refuses a float or a string instead of truncating it, and are
bounds-checked before any is shifted into a mask. Entropies are memoized by
mask, and the partition cache is keyed by mask too, so the simulation engine,
which holds its knowledge sets as masks, reads a known entropy with one dict
lookup and sends only memo misses through :meth:`JointDistribution.subset_entropy`.

Conventions:

* logarithms are base 2 throughout, so every result is in bits;
* ``0 * log2(0) = 0``, enforced structurally because zero-probability
  projections are never materialized;
* results that are mathematically non-negative but come out slightly negative
  through floating-point cancellation are clamped to zero when the magnitude
  is below ``1e-12``; larger negatives raise
  :class:`~oppknow.errors.InternalConsistencyError`.
"""

from __future__ import annotations

import operator
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadVariableIndex,
    DuplicateVariable,
    EmptyInput,
    EmptySet,
    InternalConsistencyError,
    MalformedSamples,
    OverlappingSets,
    SelfNotInKnowledgeSet,
)
from .traces import SampleTable, category_dtype

#: Negative results larger than this magnitude are treated as real bugs.
ROUND_OFF_TOLERANCE = 1e-12

# Cells per block of sorted columns that from_samples gathers, compares and
# compacts at a time: bounds its temporaries, and keeps the Python loop short
# on tables of many users and few rows.
_BLOCK_CELLS = 1 << 16


def nonnegative_bits(value: float) -> float:
    """Clamp floating-point cancellation noise in a non-negative quantity.

    Values in ``(-1e-12, 0)`` become ``0.0``; anything more negative raises
    :class:`InternalConsistencyError`.
    """
    if value >= 0.0:
        return value
    if value > -ROUND_OFF_TOLERANCE:
        return 0.0
    raise InternalConsistencyError(
        f"quantity that must be non-negative evaluated to {value!r}"
    )


def _bits(mask: int) -> list[int]:
    """The members of a bit mask, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _index(value: object, error: type[Exception], what: str) -> int:
    """``value`` as a Python int; a non-integer, such as 1.5 or '1', raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _text(mask: int) -> str:
    """A subset as its sorted id tuple, the form error messages show."""
    return str(tuple(_bits(mask)))


class _Partition(NamedTuple):
    """Partition of the atoms into blocks of equal projection onto a subset.

    Only atoms that still share their block are stored: ``rows`` holds their
    indices and ``labels`` their block, dense in ``[0, blocks)``. An atom
    alone in its block stays alone under every larger subset, so it is
    settled and survives only as its ``w * log2(w)`` term in ``settled``.
    """

    rows: np.ndarray
    labels: np.ndarray
    blocks: int
    settled: float


def _entry_bytes(part: _Partition) -> int:
    return sys.getsizeof(part) + sys.getsizeof(part.rows) + sys.getsizeof(part.labels)


class JointDistribution:
    """Empirical joint PMF over ``user_count`` variables with ``category_count`` outcomes each.

    Atoms map full outcome tuples (length ``user_count``, entries in
    ``[0, category_count)``) to positive integer weights; the probability of
    an atom is ``weight / total_weight``. Instances are immutable after
    construction and every query is pure, so they are safe to share across
    threads. Entropy queries are memoized per variable subset, and the
    kernel caches refined partitions; both are semantically invisible. A lock
    serializes the partition cache's lookups, insertions and evictions; the
    entropy work itself runs outside it.
    """

    def __init__(
        self,
        user_count: int,
        category_count: int,
        atoms: Mapping[tuple[int, ...], int],
    ):
        if user_count < 1:
            raise MalformedSamples("user_count must be >= 1")
        if category_count < 1:
            raise MalformedSamples("category_count must be >= 1")
        # Raises for alphabets wider than the int64 ids the columns hold.
        category_dtype(category_count)
        if not atoms:
            raise EmptyInput("a distribution needs at least one atom")

        self.user_count = int(user_count)
        self.category_count = int(category_count)
        grid, weights = self._validated_atoms(atoms)
        # Canonical (sorted) atom order keeps query results independent of
        # the insertion order of equal tables. Rows sort as tuples do: by
        # the first column, then the second, and so on.
        order = np.lexsort(grid.T[::-1])
        self._store(grid[order], weights[order])

    def _store(self, grid: np.ndarray, weights: np.ndarray) -> None:
        # ``grid`` holds the valid outcomes in canonical order, one row per
        # atom, and ``weights`` their positive integer weights. They are
        # kept as one contiguous column per variable and the weights.
        self._columns = np.ascontiguousarray(grid.T, dtype=category_dtype(self.category_count))
        self._counts = weights
        # Summed as Python ints, so that no total overflows.
        self.total_weight = int(weights.sum(dtype=object))
        self._weights = weights.astype(np.float64)
        self._entropy_memo: dict[int, float] = {}
        self._partitions: OrderedDict[int, _Partition] = OrderedDict()
        self._partition_bytes = 0
        self._partition_budget = self._columns.nbytes
        self._partition_lock = threading.Lock()

    def _validated_atoms(
        self, atoms: Mapping[tuple[int, ...], int]
    ) -> tuple[np.ndarray, np.ndarray]:
        # Outcomes as one (atoms, users) integer grid, and their weights.
        # Each outcome is converted with operator.index and checked; outcomes
        # that convert to the same tuple are merged, and the first bad atom
        # raises.
        clean: dict[tuple[int, ...], int] = {}
        for outcome, weight in atoms.items():
            outcome = tuple(_index(c, MalformedSamples, "a category") for c in outcome)
            if len(outcome) != self.user_count:
                raise MalformedSamples(
                    f"outcome {outcome!r} does not have length {self.user_count}"
                )
            if any(c < 0 or c >= self.category_count for c in outcome):
                raise MalformedSamples(f"outcome {outcome!r} has an out-of-range category")
            w = _index(weight, MalformedSamples, "an atom weight")
            if w <= 0:
                raise MalformedSamples(f"atom weight must be positive, got {weight!r}")
            clean[outcome] = clean.get(outcome, 0) + w
        return np.array(list(clean), dtype=np.int64), np.array(list(clean.values()))

    @classmethod
    def from_samples(cls, table: SampleTable) -> "JointDistribution":
        """Estimate the joint PMF of a sample table by row multiplicity.

        Each distinct row becomes one atom weighted by its occurrence count;
        ``total_weight`` equals the number of rows. Besides the table, the
        estimate holds the sorted table once, as the atoms' columns, plus
        about 24 bytes per row for the sort order, the atom starts and the
        weights: 1.5x a table of 50 one-byte ids per row.
        """
        if not table.row_count:
            raise EmptyInput("sample table has no rows")
        # The table's ids are valid. Its rows sorted as tuples sort give the
        # canonical atom order (np.lexsort takes its primary key last). The
        # sorted columns go into one flat buffer, column j at
        # flat[j * rows : (j + 1) * rows], a block of columns at a time, so
        # the table is held once more and never as a sorted row copy. A row
        # that differs from the one before in some column starts an atom.
        samples = table.samples
        rows, users = samples.shape
        order = np.lexsort(samples.T[::-1])
        width = max(1, _BLOCK_CELLS // rows)
        flat = np.empty(users * rows, dtype=samples.dtype)
        first = np.zeros(rows, dtype=bool)
        first[0] = True
        for j in range(0, users, width):
            block = flat[j * rows : (j + width) * rows].reshape(-1, rows)
            np.take(samples.T[j : j + width], order, axis=1, out=block)
            first[1:] |= (block[:, 1:] != block[:, :-1]).any(axis=0)
        del order, block
        starts = np.flatnonzero(first)
        del first
        atoms = starts.size
        if atoms < rows:
            # A block's atoms move to flat[j * atoms :], below the next
            # block, which is still unread, so the buffer is compacted in
            # place and then shrunk.
            for j in range(0, users, width):
                kept = flat[j * rows : (j + width) * rows].reshape(-1, rows)[:, starts]
                flat[j * atoms : j * atoms + kept.size] = kept.ravel()
            try:
                flat.resize(users * atoms)
            except ValueError:  # some other reference to the buffer is alive
                flat = flat[: users * atoms].copy()
        dist = cls.__new__(cls)
        dist.user_count = table.user_count
        dist.category_count = table.category_count
        # The (users, atoms) columns, transposed, so _store copies nothing.
        dist._store(flat.reshape(users, atoms).T, np.diff(starts, append=rows))
        return dist

    @cached_property
    def atoms(self) -> dict[tuple[int, ...], int]:
        """Outcome tuples mapped to their integer weights, in canonical order.

        Built on first use; the entropy queries work on the arrays.
        """
        # Row by row, so that only one row's list lives beside the tuples.
        return dict(
            zip((tuple(row.tolist()) for row in self._columns.T), self._counts.tolist())
        )

    # -- subset handling -------------------------------------------------------

    def _mask(self, members: Iterable[int]) -> int:
        # Every id is converted and bounds-checked before any is shifted, so
        # a huge id raises instead of building a huge int.
        ids = {_index(i, BadVariableIndex, "a variable id") for i in members}
        bad = [i for i in ids if i < 0 or i >= self.user_count]
        if bad:
            raise BadVariableIndex(
                f"variable {min(bad)} outside [0, {self.user_count})"
            )
        return sum(1 << i for i in ids)

    def all_variables(self) -> tuple[int, ...]:
        """The full variable set ``(0, ..., user_count - 1)``."""
        return tuple(range(self.user_count))

    # -- entropy queries --------------------------------------------------------

    def subset_entropy(self, members: Iterable[int]) -> float:
        """Joint entropy, in bits, of the variables in ``members``.

        Atoms are projected onto the requested coordinates, projections with
        equal value are merged by summing their integer weights, and the
        entropy is ``-sum(p * log2(p))`` over the merged projections. The
        entropy of the empty set is 0.
        """
        mask = self._mask(members)
        value = self._entropy_memo.get(mask)
        if value is None:
            value = nonnegative_bits(self._projection_entropy(mask)) if mask else 0.0
            self._entropy_memo[mask] = value
        return value

    def _mask_entropy(self, mask: int) -> float:
        # ``mask`` is a valid subset. A memo miss goes through subset_entropy,
        # so that a wrapper around it sees every set the kernel is asked for.
        value = self._entropy_memo.get(mask)
        if value is None:
            value = self.subset_entropy(_bits(mask))
        return value

    def _projection_entropy(self, members: int) -> float:
        # The projections onto ``members`` are the blocks of the partition of
        # atoms it induces. Refine the largest cached partition of a subset
        # of ``members`` by the remaining columns (or the one-block partition
        # of the empty set, when none is cached), then sum w*log2(w) over the
        # blocks in float64.
        parent_members, parent = self._cached_parent(members)
        part, merged = self._refine(parent, _bits(members & ~parent_members))
        self._cache_partition(members, part)
        total = float(self.total_weight)
        return float(
            np.log2(total) - (part.settled + np.dot(merged, np.log2(merged))) / total
        )

    def _refine(
        self, parent: _Partition | None, columns: Sequence[int]
    ) -> tuple[_Partition, np.ndarray]:
        # Split the active atoms' blocks by their values in ``columns``, and
        # return the new partition with its block weights. Blocks are
        # numbered as their keys sort, parent label first and then the
        # columns in order. Atoms left alone in a block are settled.
        if parent is None:
            rows, labels, blocks, settled = None, None, 1, 0.0
            weights = self._weights
        else:
            rows, labels, blocks, settled = parent
            weights = self._weights[rows]
        size = weights.size
        values = [
            self._columns[c] if rows is None else self._columns[c][rows] for c in columns
        ]
        v = self.category_count
        if blocks * v ** len(values) <= self._count_limit(size):
            # Few possible keys: each block is one cell of a mixed-radix key,
            # and counting the cells finds the blocks without a sort.
            key = np.zeros(size, np.intp) if labels is None else labels.astype(np.intp)
            for column in values:
                key *= v
                key += column
            shared = np.bincount(key) > 1
            active = shared[key]
            labels = (np.cumsum(shared, dtype=np.int32) - 1)[key[active]]
            merged = np.bincount(key, weights=weights)[shared]
        else:
            # Sort the atoms by their keys as tuples sort; a block starts
            # wherever one key changes along that order. In the smallest
            # dtype that holds them, labels below 2^16 are radix-sorted;
            # int32 labels would take a comparison sort.
            keys = values if labels is None else [labels.astype(category_dtype(blocks)), *values]
            order = np.lexsort(keys[::-1])
            edge = np.zeros(size + 1, dtype=bool)
            edge[0] = edge[size] = True
            for key in keys:
                ordered = key[order]
                edge[1:size] |= ordered[1:] != ordered[:-1]
            # Shared blocks are numbered from 1 at their first atom; an atom
            # alone in its block gets 0, and its weight falls in bin 0. The
            # sort is stable, so each block's weights add in row order, as
            # they would in a bincount over the row-ordered labels.
            number = np.cumsum(edge[:-1] > edge[1:], dtype=np.int32)
            number *= ~(edge[:-1] & edge[1:])
            merged = np.bincount(number, weights=weights[order])[1:]
            scattered = np.empty(size, dtype=np.int32)
            scattered[order] = number
            active = scattered > 0
            labels = scattered[np.flatnonzero(active)] - 1
        # Over thousands of atoms, gathering by index beats a boolean mask.
        alone = weights[np.flatnonzero(~active)]
        settled += float(np.dot(alone, np.log2(alone)))
        rows = np.flatnonzero(active).astype(np.int32) if rows is None else rows[active]
        return _Partition(rows, labels, merged.size, settled), merged

    def _count_limit(self, size: int) -> int:
        # The most key cells a refinement of ``size`` atoms counts rather than
        # sorts: counting costs a pass over the cells, a sort one per column.
        return max(2 * size, 4096)

    def _cached_parent(self, members: int) -> tuple[int, _Partition | None]:
        # A subset one variable short of ``members`` is the largest possible
        # parent, so those are probed first; otherwise every cached entry is
        # scanned. The lock keeps another thread's eviction from resizing the
        # cache mid-scan.
        partitions = self._partitions
        with self._partition_lock:
            best_members, best = 0, None
            for i in _bits(members):
                best = partitions.get(members ^ (1 << i))
                if best is not None:
                    best_members = members ^ (1 << i)
                    break
            else:
                best_count = 0
                for cached, part in partitions.items():
                    if cached & members == cached and cached.bit_count() > best_count:
                        best_members, best = cached, part
                        best_count = cached.bit_count()
            if best is not None:
                partitions.move_to_end(best_members)
        return best_members, best

    def _cache_partition(self, members: int, part: _Partition) -> None:
        # Partitions with more than half the atoms active are nearly as
        # cheap to rebuild from the columns as to refine, so only the
        # well-refined ones are kept, least recently used evicted first.
        # An entry's size counts its objects as well as its arrays, so that
        # fully settled partitions are bounded too.
        if 2 * part.rows.size > self._weights.size:
            return
        size = _entry_bytes(part)
        if size > self._partition_budget:
            return
        with self._partition_lock:
            if members in self._partitions:
                return
            self._partitions[members] = part
            self._partition_bytes += size
            while self._partition_bytes > self._partition_budget:
                _, old = self._partitions.popitem(last=False)
                self._partition_bytes -= _entry_bytes(old)

    def conditional_entropy(self, a: Iterable[int], b: Iterable[int]) -> float:
        """``H(A | B) = H(A ∪ B) - H(B)`` in bits, for disjoint groups."""
        a_mask, b_mask = self._mask(a), self._mask(b)
        if a_mask & b_mask:
            raise OverlappingSets(f"groups {_text(a_mask)} and {_text(b_mask)} overlap")
        joint = self._mask_entropy(a_mask | b_mask)
        return nonnegative_bits(joint - self._mask_entropy(b_mask))

    def mutual_information(self, a: Iterable[int], b: Iterable[int]) -> float:
        """``I(A; B) = H(A) + H(B) - H(A ∪ B)`` in bits, for disjoint nonempty groups."""
        a_mask, b_mask = self._mask(a), self._mask(b)
        if not a_mask or not b_mask:
            raise EmptySet("mutual information needs two nonempty groups")
        if a_mask & b_mask:
            raise OverlappingSets(f"groups {_text(a_mask)} and {_text(b_mask)} overlap")
        value = (
            self._mask_entropy(a_mask)
            + self._mask_entropy(b_mask)
            - self._mask_entropy(a_mask | b_mask)
        )
        return nonnegative_bits(value)

    # -- knowledge measures -------------------------------------------------------

    def knowledge_limit(self, i: int) -> float:
        """Maximum knowledge, in bits, available to user ``i`` from everyone else.

        Joint entropy of all variables minus the entropy user ``i`` already
        holds on its own.
        """
        single = self._mask([i])
        return nonnegative_bits(
            self._mask_entropy((1 << self.user_count) - 1) - self._mask_entropy(single)
        )

    def knowledge_gain(self, i: int, holding: Iterable[int]) -> float:
        """Knowledge, in bits, user ``i`` has gained by holding the sources in ``holding``.

        ``holding`` must contain ``i`` itself. The gain is
        ``H(holding) - H({i})``: zero when ``holding == {i}`` and equal to
        :meth:`knowledge_limit` when ``holding`` covers every user.
        """
        held = self._mask(holding)
        i = _index(i, BadVariableIndex, "a variable id")
        # Only a valid id is shifted; any other is missing from a valid set.
        if not (0 <= i < self.user_count and held >> i & 1):
            raise SelfNotInKnowledgeSet(
                f"user {i} missing from its own knowledge set {_text(held)}"
            )
        return nonnegative_bits(self._mask_entropy(held) - self._mask_entropy(1 << i))

    def chain_decomposition(self, order: Sequence[int]) -> list[float]:
        """Conditional-entropy terms of the chain rule along ``order``.

        Term ``t`` (for ``t >= 1``) is ``H(order[t] | order[0..t-1])``. The
        terms sum to ``H(order) - H(order[0])``.
        """
        ids = [_index(i, BadVariableIndex, "a variable id") for i in order]
        if len(ids) < 2:
            raise ValueError("chain decomposition needs at least two variables")
        if len(set(ids)) != len(ids):
            raise DuplicateVariable(f"order {ids} repeats a variable")
        self._mask(ids)
        return [
            self.conditional_entropy([ids[t]], ids[:t]) for t in range(1, len(ids))
        ]

    def __repr__(self) -> str:
        return (
            f"JointDistribution(users={self.user_count}, categories={self.category_count}, "
            f"atoms={self._weights.size}, total_weight={self.total_weight})"
        )
