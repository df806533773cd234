"""Tests for the dense brute-force reference implementations."""

import numpy as np
import pytest

from dense_oracle import TooLarge, brute_mutual_information, brute_subset_entropy, densify
from oppknow import JointDistribution
from oppknow.errors import BadVariableIndex, EmptySet, OverlappingSets


class TestDensify:
    def test_three_atom_expansion(self, three_atom):
        dense = densify(three_atom)
        assert dense.table.shape == (8,)
        assert np.count_nonzero(dense.table) == 3
        assert dense.table.sum() == pytest.approx(1.0, abs=1e-15)
        # outcome (1,0,1) sits at mixed-radix index 1*4 + 0*2 + 1 = 5
        assert dense.table[5] == pytest.approx(0.25)

    def test_uniform_pair_expansion(self, uniform_pair):
        dense = densify(uniform_pair)
        assert np.allclose(dense.table, 0.25)

    def test_cap_enforced(self):
        atoms = {tuple([0] * 6): 1}
        dist = JointDistribution(6, 4, atoms)
        with pytest.raises(TooLarge):
            densify(dist)


class TestBruteSubsetEntropy:
    def test_uniform_pair_joint(self, uniform_pair):
        dense = densify(uniform_pair)
        assert brute_subset_entropy(dense, [0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_single_atom_is_deterministic(self):
        dist = JointDistribution(3, 2, {(1, 0, 1): 5})
        dense = densify(dist)
        for s in ([0], [1], [2], [0, 1], [0, 1, 2], []):
            assert brute_subset_entropy(dense, s) == pytest.approx(0.0, abs=1e-15)

    def test_bad_index(self, three_atom):
        dense = densify(three_atom)
        with pytest.raises(BadVariableIndex):
            brute_subset_entropy(dense, [9])


class TestBruteMutualInformation:
    def test_independent_pair(self, uniform_pair):
        dense = densify(uniform_pair)
        assert brute_mutual_information(dense, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair(self, correlated_pair):
        dense = densify(correlated_pair)
        h = brute_subset_entropy(dense, [0])
        assert brute_mutual_information(dense, [0], [1]) == pytest.approx(h, abs=1e-12)

    def test_overlap_rejected(self, three_atom):
        dense = densify(three_atom)
        with pytest.raises(OverlappingSets):
            brute_mutual_information(dense, [0, 1], [1])

    def test_empty_side_rejected(self, three_atom):
        dense = densify(three_atom)
        with pytest.raises(EmptySet):
            brute_mutual_information(dense, [0], [])

    def test_double_sum_matches_three_entropy_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            v = int(rng.integers(2, 4))
            n = int(rng.integers(1, 31))
            rows = [tuple(int(c) for c in rng.integers(0, v, m)) for _ in range(n)]
            dist = JointDistribution(m, v, {r: rows.count(r) for r in set(rows)})
            dense = densify(dist)
            direct = brute_mutual_information(dense, [0], list(range(1, m)))
            via_entropies = (
                brute_subset_entropy(dense, [0])
                + brute_subset_entropy(dense, range(1, m))
                - brute_subset_entropy(dense, range(m))
            )
            assert direct == pytest.approx(via_entropies, abs=1e-10)
