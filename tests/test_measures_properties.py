"""Property tests for the entropy identities the measures must satisfy."""

import math
from collections import Counter
from functools import partial
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import brute_subset_entropy, densify
from oppknow import JointDistribution, SampleTable
from oppknow.measures import _Partition, _bits


@st.composite
def sparse_distributions(draw):
    """Random empirical PMFs in the small-oracle envelope (M<=4, v<=3)."""
    m = draw(st.integers(min_value=1, max_value=4))
    v = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=v - 1) for _ in range(m)]),
            min_size=1,
            max_size=30,
        )
    )
    return JointDistribution(m, v, Counter(rows))


def all_subsets(m):
    for mask in range(1 << m):
        yield tuple(i for i in range(m) if mask >> i & 1)


def disjoint_pairs(m):
    # Each variable goes to side a, side b, or neither.
    for assignment in range(3**m):
        a, b = [], []
        rest = assignment
        for i in range(m):
            rest, side = divmod(rest, 3)
            if side == 1:
                a.append(i)
            elif side == 2:
                b.append(i)
        yield tuple(a), tuple(b)


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_entropy_nonnegative_and_bounded(dist):
    for s in all_subsets(dist.user_count):
        h = dist.subset_entropy(s)
        assert h >= 0.0
        assert h <= len(s) * math.log2(dist.category_count) + 1e-12


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_entropy_monotone_in_subsets(dist):
    subsets = list(all_subsets(dist.user_count))
    values = {s: dist.subset_entropy(s) for s in subsets}
    for s in subsets:
        for t in subsets:
            if set(s) <= set(t):
                assert values[s] <= values[t] + 1e-12


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_entropy_subadditive(dist):
    for a, b in disjoint_pairs(dist.user_count):
        union = tuple(sorted(a + b))
        assert dist.subset_entropy(union) <= (
            dist.subset_entropy(a) + dist.subset_entropy(b) + 1e-12
        )


@given(sparse_distributions())
@settings(max_examples=40, deadline=None)
def test_chain_rule_over_every_permutation(dist):
    for s in all_subsets(dist.user_count):
        if len(s) < 2:
            continue
        target = dist.subset_entropy(s)
        for order in permutations(s):
            total = sum(dist.chain_decomposition(order))
            assert abs(total + dist.subset_entropy([order[0]]) - target) <= 1e-9


@given(sparse_distributions())
@settings(max_examples=40, deadline=None)
def test_conditioning_reduces_entropy(dist):
    m = dist.user_count
    # Each variable goes to A, B, C, or none; H(A|B∪C) <= H(A|B).
    for assignment in range(4**m):
        groups = ([], [], [])
        rest = assignment
        for i in range(m):
            rest, side = divmod(rest, 4)
            if side < 3:
                groups[side].append(i)
        a, b, c = groups
        if not a or not c:
            continue
        assert dist.conditional_entropy(a, b + c) <= dist.conditional_entropy(a, b) + 1e-12


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_mutual_information_symmetric_nonnegative(dist):
    for a, b in disjoint_pairs(dist.user_count):
        if not a or not b:
            continue
        forward = dist.mutual_information(a, b)
        assert forward >= 0.0
        assert abs(forward - dist.mutual_information(b, a)) <= 1e-12


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_gain_never_exceeds_limit(dist):
    for i in range(dist.user_count):
        limit = dist.knowledge_limit(i)
        for s in all_subsets(dist.user_count):
            if i in s:
                assert dist.knowledge_gain(i, s) <= limit + 1e-12


@given(sparse_distributions())
@settings(max_examples=60, deadline=None)
def test_matches_dense_oracle(dist):
    dense = densify(dist)
    for s in all_subsets(dist.user_count):
        assert abs(dist.subset_entropy(s) - brute_subset_entropy(dense, s)) <= 1e-12


def mixed_radix_entropy(dist, key):
    """Subset entropy by the mixed-radix kernel that partition refinement replaced.

    Kept verbatim as the reference the refinement kernel is checked against.
    """
    outcomes = np.array(list(dist.atoms.keys()), dtype=np.int64)
    weights = np.array(list(dist.atoms.values()), dtype=np.int64)
    v = dist.category_count
    limit = 1 << 62
    packed = outcomes[:, key[0]].copy()
    capacity = v
    for column in key[1:]:
        if capacity > limit // v:
            uniques, packed = np.unique(packed, return_inverse=True)
            capacity = len(uniques)
        packed = packed * v + outcomes[:, column]
        capacity *= v
    _, inverse = np.unique(packed, return_inverse=True)
    merged = np.bincount(inverse, weights=weights)
    merged = merged[merged > 0]
    total = float(dist.total_weight)
    return float(np.log2(total) - np.dot(merged, np.log2(merged)) / total)


@st.composite
def repeated_row_samples(draw):
    """Sample tables of M<=8, v<=5 whose rows are drawn from a smaller pool, so rows repeat."""
    m = draw(st.integers(min_value=1, max_value=8))
    v = draw(st.integers(min_value=1, max_value=5))
    pool_size = draw(st.integers(min_value=1, max_value=400))
    row_count = draw(st.integers(min_value=1, max_value=800))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = rng.integers(0, v, size=(pool_size, m))
    return SampleTable(m, v, pool[rng.integers(0, pool_size, size=row_count)])


@st.composite
def repeated_row_tables(draw):
    """Distributions over the rows of :func:`repeated_row_samples`."""
    table = draw(repeated_row_samples())
    return JointDistribution(table.user_count, table.category_count, Counter(table.rows))


@given(repeated_row_samples())
@settings(max_examples=60, deadline=None)
def test_from_samples_matches_counter_of_rows(table):
    # A Counter of row tuples was the estimator before np.unique over the
    # sample array replaced it: same atoms in the same order, same entropies.
    fast = JointDistribution.from_samples(table)
    slow = JointDistribution(table.user_count, table.category_count, Counter(table.rows))
    assert list(fast.atoms.items()) == list(slow.atoms.items())
    assert fast.total_weight == slow.total_weight == table.row_count
    for s in all_subsets(table.user_count):
        assert fast.subset_entropy(s).hex() == slow.subset_entropy(s).hex()


@given(repeated_row_tables(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_refinement_matches_mixed_radix_kernel(dist, rng):
    # A shuffled query order makes new subsets find cached parents, miss
    # them and fall back to the columns, and evict older partitions.
    subsets = [s for s in all_subsets(dist.user_count) if s]
    rng.shuffle(subsets)
    for s in subsets:
        assert abs(dist.subset_entropy(s) - mixed_radix_entropy(dist, s)) <= 1e-12


@given(repeated_row_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_subset_entropy_identical_across_argument_types(dist, data):
    # Each argument form queries a fresh copy of the distribution cold, and
    # then every form queries the first copy again, now warm.
    m = dist.user_count
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), unique=True))
    forms = [
        frozenset(ids),
        tuple(ids),
        list(reversed(ids)),
        [np.int64(i) for i in ids],
        np.array(ids, dtype=np.int32),
    ]
    copies = [JointDistribution(m, dist.category_count, dist.atoms) for _ in forms]
    cold = [copy.subset_entropy(form) for copy, form in zip(copies, forms)]
    warm = [copies[0].subset_entropy(form) for form in forms]
    assert len({value.hex() for value in cold + warm}) == 1


def packed_refine(self, parent, columns):
    """``JointDistribution._refine`` as it was before it sorted with ``np.lexsort``.

    Kept verbatim, with its ``_PACK_LIMIT`` of 2^62 written out, as the
    reference the sorting kernel is checked against. Its packed keys stay
    exact only for small alphabets, such as those of ``repeated_row_tables``.
    """
    v = self.category_count
    if parent is None:
        rows, settled = None, 0.0
        packed, capacity = np.zeros(self._weights.size, dtype=np.int64), 1
    else:
        rows, settled = parent.rows, parent.settled
        packed, capacity = parent.labels.astype(np.int64), parent.blocks
    for column in columns:
        if capacity > (1 << 62) // v:
            uniques, packed = np.unique(packed, return_inverse=True)
            capacity = len(uniques)
        values = self._columns[column]
        packed = packed * v + (values if rows is None else values[rows])
        capacity *= v
    _, inverse, sizes = np.unique(packed, return_inverse=True, return_counts=True)
    shared = sizes > 1
    active = shared[inverse]
    if rows is None:
        rows = np.arange(self._weights.size, dtype=np.int32)
    alone = self._weights[rows[~active]]
    if alone.size:
        settled += float(np.dot(alone, np.log2(alone)))
    labels = (np.cumsum(shared, dtype=np.int32) - 1)[inverse[active]]
    return _Partition(rows[active], labels, int(shared.sum()), settled)


def block_weights(dist, part):
    """A partition's block weights, summed as ``_projection_entropy`` summed them
    when ``packed_refine`` was the kernel."""
    return np.bincount(part.labels, weights=dist._weights[part.rows], minlength=part.blocks)


def packed_refine_and_weights(self, parent, columns):
    """:func:`packed_refine` in the shape ``JointDistribution._refine`` returns."""
    part = packed_refine(self, parent, columns)
    return part, block_weights(self, part)


def assert_same_partition(new, old):
    assert np.array_equal(new.rows, old.rows)
    assert np.array_equal(new.labels, old.labels)
    assert new.blocks == old.blocks
    assert new.settled.hex() == old.settled.hex()


def refine_with_limit(dist, limit, parent, columns):
    """``dist._refine`` counting keys of at most ``limit`` cells and sorting the rest."""
    dist._count_limit = lambda size: limit
    try:
        return dist._refine(parent, columns)
    finally:
        del dist._count_limit


def assert_branches_match_packed(dist, parent, columns):
    """Refine as the kernel chooses, then with the span one cell past the
    count limit (sorting) and exactly at it (counting), against the packed kernel."""
    expected = packed_refine(dist, parent, columns)
    span = (1 if parent is None else parent.blocks) * dist.category_count ** len(columns)
    results = [dist._refine(parent, columns), refine_with_limit(dist, span - 1, parent, columns)]
    if span <= 1 << 16:
        results.append(refine_with_limit(dist, span, parent, columns))
    for part, merged in results:
        assert_same_partition(part, expected)
        assert merged.tobytes() == block_weights(dist, expected).tobytes()
    return expected


@given(repeated_row_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_sorting_kernel_builds_the_packed_kernels_partitions(dist, data):
    m = dist.user_count
    key = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    base = sorted(data.draw(st.sets(st.sampled_from(key))))
    added = [i for i in key if i not in base]
    if not base:
        assert_same_partition(dist._refine(None, key)[0], packed_refine(dist, None, key))
        return
    parent, _ = dist._refine(None, base)
    assert_same_partition(parent, packed_refine(dist, None, base))
    assert_same_partition(dist._refine(parent, added)[0], packed_refine(dist, parent, added))


@given(repeated_row_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_counting_and_sorting_build_the_packed_kernels_partitions(dist, data):
    # A fallback from the columns, then a refinement of the cached parent.
    m = dist.user_count
    key = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    base = sorted(data.draw(st.sets(st.sampled_from(key))))
    parent = assert_branches_match_packed(dist, None, base or key)
    if base:
        assert_branches_match_packed(dist, parent, [i for i in key if i not in base])


@pytest.mark.parametrize(
    "v, rows, blocks, past",
    [
        (4096, 1000, None, 0),  # fallbacks at and past the 4096-cell floor
        (4097, 1000, None, 1),
        (5000, 2500, None, 0),  # ... and at and past twice the atoms
        (5001, 2500, None, 1),
        (256, 1000, 16, 0),  # refinements of a 16- or 17-block parent
        (241, 1000, 17, 1),
    ],
)
def test_spans_at_and_one_past_the_count_limit(v, rows, blocks, past):
    # Each distinct row repeats one to three times, so atoms weigh 1-3. Column
    # 0 numbers the rows: in the fallbacks the atoms then number exactly
    # ``rows``, and the atoms' canonical order is not their order under the
    # refined columns. The refined partition keeps shared blocks beside
    # settled atoms.
    rng = np.random.default_rng(v)
    first = rng.integers(0, v if blocks is None else blocks, rows)
    columns = [first, rng.integers(0, v, rows)] if blocks else [first]
    distinct = np.stack([np.arange(rows) % v, *columns], axis=1)
    samples = np.repeat(distinct, rng.integers(1, 4, rows), axis=0)
    dist = JointDistribution.from_samples(SampleTable(distinct.shape[1], v, samples))
    if blocks is None:
        parent, size = None, dist._weights.size
    else:
        parent = assert_branches_match_packed(dist, None, [1])
        assert parent.blocks == blocks
        size = parent.rows.size
    span = (1 if parent is None else parent.blocks) * v
    assert span - dist._count_limit(size) == past
    refined = assert_branches_match_packed(dist, parent, [2] if blocks else [1])
    assert 0 < refined.rows.size < size


@given(repeated_row_tables(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_sorting_kernel_entropies_are_hex_identical_to_the_packed_kernel(dist, rng):
    # Both copies answer the same shuffled queries, so each finds the same
    # cached parents (or none) and refines them by the same columns.
    subsets = [s for s in all_subsets(dist.user_count) if s]
    rng.shuffle(subsets)
    packed = JointDistribution(dist.user_count, dist.category_count, dist.atoms)
    packed._refine = partial(packed_refine_and_weights, packed)
    for s in subsets:
        assert dist.subset_entropy(s).hex() == packed.subset_entropy(s).hex()


@given(st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=300).map(lambda i: 1 << i),
    st.integers(min_value=2**200 + 1, max_value=2**400),
    st.integers(min_value=0),
))
def test_bits_lists_the_members_of_a_mask(mask):
    # The comprehension that tested every bit position before.
    assert _bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def counter_entropy(rows, key):
    counts = Counter(tuple(row[i] for i in key) for row in rows)
    total = len(rows)
    return math.log2(total) - sum(c * math.log2(c) for c in counts.values()) / total


@st.composite
def wide_alphabet_samples(draw):
    """Sample tables of M<=4 with v in [2**60, 2**63] and ids at multiples of v // 8.

    Some alphabets are a small odd number times a power of two, such as
    v = 3 * 2**61: a mixed-radix key over two of their columns passes 2**63,
    and the wrapped keys of distinct rows coincide.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    v = draw(st.one_of(
        st.integers(min_value=2**60, max_value=2**63),
        st.sampled_from([1 << 60, 3 << 60, 5 << 60, 7 << 60, 3 << 61, 1 << 63]),
    ))
    row_count = draw(st.integers(min_value=1, max_value=500))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ids = np.array([k * (v // 8) for k in range(8)] + [v - 1], dtype=np.int64)
    return SampleTable(m, v, ids[rng.integers(0, ids.size, size=(row_count, m))])


@given(wide_alphabet_samples(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_ids_near_two_to_the_63_match_a_counter(table, rng):
    dist = JointDistribution.from_samples(table)
    rows = table.rows
    subsets = [s for s in all_subsets(table.user_count) if s]
    rng.shuffle(subsets)
    for s in subsets:
        assert abs(dist.subset_entropy(s) - counter_entropy(rows, s)) <= 1e-12
