"""Unit tests for the sparse information measures."""

import pytest

from oppknow import JointDistribution, SampleTable, SynthConfig, nonnegative_bits, synthesize_traces
from oppknow.errors import (
    BadVariableIndex,
    DuplicateVariable,
    EmptyInput,
    EmptySet,
    InternalConsistencyError,
    MalformedSamples,
    OverlappingSets,
    SelfNotInKnowledgeSet,
)


class TestFromSamples:
    def test_distinct_rows_become_unit_atoms(self):
        table = SampleTable(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        dist = JointDistribution.from_samples(table)
        assert len(dist.atoms) == 4
        assert set(dist.atoms.values()) == {1}
        assert dist.total_weight == 4

    def test_duplicate_rows_collapse(self):
        table = SampleTable(2, 2, ((0, 0), (0, 0)))
        dist = JointDistribution.from_samples(table)
        assert dist.atoms == {(0, 0): 2}
        assert dist.total_weight == 2

    def test_three_variable_construction(self):
        table = SampleTable(3, 2, ((0, 0, 0), (1, 0, 1), (1, 1, 0)))
        dist = JointDistribution.from_samples(table)
        assert len(dist.atoms) == 3
        assert all(w == 1 for w in dist.atoms.values())

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyInput):
            JointDistribution.from_samples(SampleTable(2, 2, ()))

    def test_atoms_built_only_when_read(self):
        dist = JointDistribution.from_samples(SampleTable(2, 2, ((1, 0), (0, 1), (1, 0))))
        dist.subset_entropy([0, 1])
        dist.knowledge_limit(0)
        assert "atoms" not in vars(dist)
        assert list(dist.atoms.items()) == [((0, 1), 1), ((1, 0), 2)]

    def test_ragged_rows_rejected(self):
        with pytest.raises(MalformedSamples):
            JointDistribution.from_samples(SampleTable(2, 2, ((0, 0), (0, 1, 1))))

    def test_out_of_range_category_rejected(self):
        with pytest.raises(MalformedSamples):
            JointDistribution.from_samples(SampleTable(2, 2, ((0, 5),)))
        with pytest.raises(MalformedSamples, match="out-of-range category"):
            JointDistribution(1, 2, {(2,): 1})

    def test_alphabet_past_two_to_the_63_rejected(self):
        # Ids are stored as int64, so an id of 2**63 or more cannot be held.
        with pytest.raises(MalformedSamples, match=r"exceeds 2\*\*63"):
            JointDistribution(1, 2**64, {(2**63 + 5,): 1})
        dist = JointDistribution(1, 2**63, {(2**63 - 1,): 1, (0,): 3})
        assert dist.atoms == {(0,): 3, (2**63 - 1,): 1}


class TestSubsetEntropy:
    def test_uniform_pair_joint(self, uniform_pair):
        assert uniform_pair.subset_entropy([0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_pair_marginal(self, uniform_pair):
        assert uniform_pair.subset_entropy([0]) == pytest.approx(1.0, abs=1e-12)

    def test_three_atom_joint(self, three_atom):
        assert three_atom.subset_entropy([0, 1, 2]) == pytest.approx(1.5, abs=1e-12)

    def test_empty_subset_is_zero(self, three_atom):
        assert three_atom.subset_entropy([]) == 0.0

    def test_subset_order_irrelevant(self, three_atom):
        assert three_atom.subset_entropy([2, 0]) == three_atom.subset_entropy([0, 2])

    def test_bad_index(self, three_atom):
        with pytest.raises(BadVariableIndex):
            three_atom.subset_entropy([3])
        with pytest.raises(BadVariableIndex):
            three_atom.subset_entropy([-1])

    def test_memoized_result_stable(self, three_atom):
        first = three_atom.subset_entropy([0, 1])
        assert three_atom.subset_entropy([0, 1]) == first


class TestConditionalEntropy:
    def test_deterministic_pair(self, correlated_pair):
        assert correlated_pair.conditional_entropy([1], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_independent_pair(self, uniform_pair):
        assert uniform_pair.conditional_entropy([1], [0]) == pytest.approx(1.0, abs=1e-12)

    def test_three_atom(self, three_atom):
        assert three_atom.conditional_entropy([1], [0]) == pytest.approx(0.5, abs=1e-12)

    def test_overlap_rejected(self, three_atom):
        with pytest.raises(OverlappingSets):
            three_atom.conditional_entropy([0, 1], [1])


class TestMutualInformation:
    def test_independent_users(self, uniform_pair):
        assert uniform_pair.mutual_information([0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_identical_users(self, correlated_pair):
        expected = correlated_pair.subset_entropy([0])
        assert correlated_pair.mutual_information([0], [1]) == pytest.approx(expected, abs=1e-12)

    def test_three_atom_group(self, three_atom):
        assert three_atom.mutual_information([0], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self, three_atom):
        with pytest.raises(OverlappingSets):
            three_atom.mutual_information([0, 1], [1, 2])

    def test_empty_side_rejected(self, three_atom):
        with pytest.raises(EmptySet):
            three_atom.mutual_information([], [1])


class TestKnowledgeLimit:
    def test_identical_users_have_nothing_to_gain(self, identical_triple):
        for i in range(3):
            assert identical_triple.knowledge_limit(i) == pytest.approx(0.0, abs=1e-12)

    def test_independent_users_gain_everyone_else(self, independent_triple):
        assert independent_triple.knowledge_limit(0) == pytest.approx(2.0, abs=1e-12)

    def test_three_atom(self, three_atom):
        assert three_atom.knowledge_limit(0) == pytest.approx(0.5, abs=1e-12)

    def test_bad_index(self, three_atom):
        with pytest.raises(BadVariableIndex):
            three_atom.knowledge_limit(7)


class TestKnowledgeGain:
    def test_self_only_is_zero(self, three_atom):
        assert three_atom.knowledge_gain(1, [1]) == 0.0

    def test_full_set_equals_limit(self, three_atom):
        assert three_atom.knowledge_gain(0, [0, 1, 2]) == pytest.approx(
            three_atom.knowledge_limit(0), abs=1e-12
        )

    def test_partial_set(self, three_atom):
        assert three_atom.knowledge_gain(0, [0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_missing_self_rejected(self, three_atom):
        with pytest.raises(SelfNotInKnowledgeSet):
            three_atom.knowledge_gain(0, [1, 2])


class TestMemoFastPath:
    """Every query checks its ids, on a warm memo too, before any is shifted
    into a bit mask: a huge id raises instead of building a huge int."""

    def _warm(self, dist):
        for i in range(dist.user_count):
            dist.knowledge_limit(i)
        dist.knowledge_gain(0, frozenset([0, 1]))

    def test_out_of_range_frozenset_rejected_when_warm(self, three_atom):
        self._warm(three_atom)
        with pytest.raises(BadVariableIndex, match=r"^variable 3 outside \[0, 3\)$"):
            three_atom.subset_entropy(frozenset([0, 3]))
        with pytest.raises(BadVariableIndex, match=r"^variable -1 outside \[0, 3\)$"):
            three_atom.subset_entropy(frozenset([-1, 1, 5]))

    def test_missing_self_rejected_when_warm(self, three_atom):
        self._warm(three_atom)
        held = frozenset([2, 1])
        three_atom.subset_entropy(held)
        with pytest.raises(
            SelfNotInKnowledgeSet,
            match=r"^user 0 missing from its own knowledge set \(1, 2\)$",
        ):
            three_atom.knowledge_gain(0, held)

    @pytest.mark.parametrize(
        "members, smallest", [([2**62], 2**62), ([10**30], 10**30), ([1, 10**30, -4], -4)]
    )
    def test_huge_ids_rejected_before_shifting(self, three_atom, members, smallest):
        self._warm(three_atom)
        message = rf"^variable {smallest} outside \[0, 3\)$"
        with pytest.raises(BadVariableIndex, match=message):
            three_atom.subset_entropy(members)
        with pytest.raises(BadVariableIndex, match=message):
            three_atom.conditional_entropy([0], members)

    @pytest.mark.parametrize("user", [-1, 3])
    def test_self_outside_range_is_missing(self, three_atom, user):
        self._warm(three_atom)
        with pytest.raises(
            SelfNotInKnowledgeSet,
            match=rf"^user {user} missing from its own knowledge set \(0, 1, 2\)$",
        ):
            three_atom.knowledge_gain(user, frozenset([0, 1, 2]))

    def test_overlap_messages_show_sorted_tuples(self, three_atom):
        self._warm(three_atom)
        with pytest.raises(OverlappingSets, match=r"^groups \(0, 1\) and \(1,\) overlap$"):
            three_atom.conditional_entropy(frozenset([1, 0]), [1])
        with pytest.raises(OverlappingSets, match=r"^groups \(0, 1\) and \(1, 2\) overlap$"):
            three_atom.mutual_information([1, 0], frozenset([2, 1]))


class TestChainDecomposition:
    def test_independent_triple(self, independent_triple):
        assert independent_triple.chain_decomposition([0, 1, 2]) == pytest.approx(
            [1.0, 1.0], abs=1e-12
        )

    def test_identical_pair(self, correlated_pair):
        assert correlated_pair.chain_decomposition([0, 1]) == pytest.approx(
            [0.0], abs=1e-12
        )

    def test_three_atom(self, three_atom):
        assert three_atom.chain_decomposition([0, 1, 2]) == pytest.approx(
            [0.5, 0.0], abs=1e-12
        )

    def test_terms_sum_to_entropy_difference(self, three_atom):
        order = [2, 0, 1]
        total = sum(three_atom.chain_decomposition(order))
        expected = three_atom.subset_entropy(order) - three_atom.subset_entropy([2])
        assert total == pytest.approx(expected, abs=1e-9)

    def test_duplicate_rejected(self, three_atom):
        with pytest.raises(DuplicateVariable):
            three_atom.chain_decomposition([0, 1, 0])

    def test_too_short_rejected(self, three_atom):
        with pytest.raises(ValueError):
            three_atom.chain_decomposition([0])


class TestRoundOffClamp:
    def test_positive_passthrough(self):
        assert nonnegative_bits(0.25) == 0.25

    def test_tiny_negative_clamped(self):
        assert nonnegative_bits(-1e-13) == 0.0

    def test_real_negative_raises(self):
        with pytest.raises(InternalConsistencyError):
            nonnegative_bits(-1e-6)


class TestConcurrentQueries:
    def test_parallel_reads_agree_with_serial(self, three_atom):
        from concurrent.futures import ThreadPoolExecutor
        from itertools import chain, combinations

        subsets = list(
            chain.from_iterable(combinations(range(3), k) for k in range(4))
        )
        expected = [three_atom.subset_entropy(s) for s in subsets]
        fresh = JointDistribution(3, 2, three_atom.atoms)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fresh.subset_entropy, subsets * 16))
        assert results == expected * 16

    def test_parallel_reads_while_partitions_are_evicted(self):
        # 1023 subsets over 600 atoms overflow the partition cache many
        # times, so threads look up parents while others evict.
        import random
        import sys
        from collections import Counter
        from concurrent.futures import ThreadPoolExecutor
        from itertools import chain, combinations

        import numpy as np

        rng = np.random.default_rng(11)
        row_pool = rng.integers(0, 3, size=(600, 10))
        rows = row_pool[rng.integers(0, 600, size=900)]
        atoms = Counter(map(tuple, rows.tolist()))
        subsets = list(
            chain.from_iterable(combinations(range(10), k) for k in range(1, 11))
        )
        serial = JointDistribution(10, 3, atoms)
        expected = {s: serial.subset_entropy(s) for s in subsets}

        shared = JointDistribution(10, 3, atoms)
        orders = [random.Random(seed).sample(subsets, len(subsets)) for seed in range(8)]

        def query(order):
            return [(s, shared.subset_entropy(s)) for s in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(query, order) for order in orders]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for batch in results:
            assert len(batch) == len(subsets)
            for s, value in batch:
                assert value == pytest.approx(expected[s], abs=1e-12)


class TestConstruction:
    def test_atoms_are_canonicalized(self):
        a = JointDistribution(2, 2, {(1, 1): 1, (0, 0): 3})
        b = JointDistribution(2, 2, {(0, 0): 3, (1, 1): 1})
        assert a.atoms == b.atoms
        assert list(a.atoms) == sorted(a.atoms)

    def test_zero_weight_rejected(self):
        with pytest.raises(MalformedSamples):
            JointDistribution(2, 2, {(0, 0): 0})

    @pytest.mark.parametrize("user_count, category_count", [(0, 2), (1, 0)])
    def test_no_users_or_categories_rejected(self, user_count, category_count):
        with pytest.raises(MalformedSamples, match="_count must be >= 1"):
            JointDistribution(user_count, category_count, {(0,): 1})

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedSamples):
            JointDistribution(2, 2, {(0, 0, 0): 1})

    def test_no_atoms_rejected(self):
        with pytest.raises(EmptyInput):
            JointDistribution(2, 2, {})


# The exact bits of a fixed query sequence, in this order, on one fresh
# distribution of a seeded table whose rows repeat: 2,785 atoms from 4,000
# rows, 673 of them weighing more than 1, so that settled atoms carry
# weights above 1 and most queries refine a cached parent. Any change to the
# kernel's arithmetic or its order of summation shows here as a changed
# literal.
PINNED_ENTROPY_HEX = {
    (0,): "0x1.5ea133c8b9c48p+0",
    (9,): "0x1.739d3ed4e9300p+0",
    (0, 1): "0x1.620c85ac333dcp+1",
    (0, 1, 2): "0x1.061084117aa8dp+2",
    (0, 1, 2, 3): "0x1.5debeda33a9f6p+2",
    (0, 1, 2, 3, 4): "0x1.a609b0fec33bcp+2",
    (2, 5): "0x1.6e260d345a3bcp+1",
    (2, 5, 7): "0x1.1044232b80f46p+2",
    (1, 3, 5, 7, 9): "0x1.b917f5df3f484p+2",
    (0, 2, 4, 6, 8): "0x1.ab14e9dec8777p+2",
    (0, 2, 4, 6, 8, 9): "0x1.f7589bed9bae1p+2",
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9): "0x1.65ff9483c1a3dp+3",
    (0, 1, 2, 3, 4, 5, 6, 7, 8): "0x1.54f0a8fc695f8p+3",
    (3, 4, 5, 6, 7, 8, 9): "0x1.252731de962b1p+3",
    (0, 1, 3, 4, 6, 7, 9): "0x1.1fae743c3ad01p+3",
    (0, 2, 3, 4, 5, 7, 8, 9): "0x1.3e37a64d0ab40p+3",
    (0, 4, 6, 9): "0x1.55372ed4c5a3ep+2",
    (0, 1, 4, 8, 9): "0x1.a6e4bc5acb02dp+2",
    (7, 9): "0x1.7015047009118p+1",
    (0, 2, 3, 4, 5, 9): "0x1.f3f5bdf74473dp+2",
    (0, 2, 4, 6, 7, 8, 9): "0x1.2091b114f7b5fp+3",
    (0, 1, 3, 5, 6, 9): "0x1.00d999dac4d81p+3",
    (0, 1, 3, 4, 5, 7): "0x1.f81c562f187ddp+2",
    (0, 2, 3, 4, 5, 6, 7, 8, 9): "0x1.55f49b4354e5bp+3",
    (0, 1, 2, 3, 4, 5, 7, 8, 9): "0x1.54ef2833a89b7p+3",
    (0, 1, 2, 4, 7, 8, 9): "0x1.1e803a4de6425p+3",
    (0, 3, 6): "0x1.0da343c10b31bp+2",
    (0, 1, 2, 3, 4, 6, 8, 9): "0x1.3dd8aad22c098p+3",
    (1, 2, 3, 7, 9): "0x1.b6676f47c418cp+2",
    (0, 2, 3, 5, 6, 7, 8, 9): "0x1.43993e0e8d5c8p+3",
}


def test_entropy_bits_are_pinned():
    table = synthesize_traces(
        SynthConfig(user_count=10, category_count=3, row_count=4000, correlation=0.4, seed=16)
    )
    dist = JointDistribution.from_samples(table)
    assert {s: dist.subset_entropy(s).hex() for s in PINNED_ENTROPY_HEX} == PINNED_ENTROPY_HEX
