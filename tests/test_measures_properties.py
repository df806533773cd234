"""Property tests for the entropy identities the measures must satisfy."""

import math
from collections import Counter
from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oppknow import JointDistribution, SampleTable, brute_subset_entropy, densify


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
