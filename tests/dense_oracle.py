"""Dense brute-force reference implementations for small instances.

These deliberately take a different algorithmic route from
:mod:`oppknow.measures` (full dense enumeration and the direct double-sum
mutual-information definition instead of sparse projection merging), so
agreement between the two is evidence of correctness rather than tautology.
Only instances with fewer than 4096 joint outcomes are supported. The oracle
is a test helper, not part of the package: from ``measures`` it takes only
the :class:`JointDistribution` type it expands.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from oppknow.errors import BadVariableIndex, EmptySet, OppknowError, OverlappingSets
from oppknow.measures import JointDistribution

MAX_DENSE_OUTCOMES = 4096


class TooLarge(OppknowError):
    """The dense outcome table would exceed the supported size."""


@dataclass(frozen=True)
class DenseDistribution:
    """Full probability table over every joint outcome, mixed-radix indexed.

    ``table[k]`` is the probability of the outcome whose digits in base
    ``category_count`` (most significant digit = variable 0) equal ``k``.
    """

    user_count: int
    category_count: int
    table: np.ndarray

    def __post_init__(self):
        if self.user_count > 6 or self.category_count > 4:
            raise TooLarge(
                f"dense envelope is at most 6 users over 4 categories, got "
                f"{self.user_count} over {self.category_count}"
            )
        expected = self.category_count**self.user_count
        if self.table.shape != (expected,):
            raise TooLarge(f"table must have shape ({expected},), got {self.table.shape}")
        if np.any(self.table < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(self.table.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    def grid(self) -> np.ndarray:
        """The table reshaped to one axis per variable."""
        return self.table.reshape((self.category_count,) * self.user_count)


def densify(dist: JointDistribution) -> DenseDistribution:
    """Expand a sparse distribution into the full dense outcome table."""
    m, v = dist.user_count, dist.category_count
    size = v**m
    if size >= MAX_DENSE_OUTCOMES:
        raise TooLarge(f"{v}^{m} = {size} outcomes reach the dense cap {MAX_DENSE_OUTCOMES}")
    table = np.zeros(size, dtype=float)
    total = dist.total_weight
    for outcome, weight in dist.atoms.items():
        index = 0
        for digit in outcome:
            index = index * v + digit
        table[index] = weight / total
    return DenseDistribution(m, v, table)


def _check_subset(d: DenseDistribution, members: Iterable[int]) -> tuple[int, ...]:
    ids = sorted({int(i) for i in members})
    for i in ids:
        if i < 0 or i >= d.user_count:
            raise BadVariableIndex(f"variable {i} outside [0, {d.user_count})")
    return tuple(ids)


def brute_subset_entropy(d: DenseDistribution, members: Iterable[int]) -> float:
    """Entropy of a variable subset by dense marginalization over all outcomes."""
    ids = _check_subset(d, members)
    if not ids:
        return 0.0
    drop = tuple(ax for ax in range(d.user_count) if ax not in ids)
    marginal = d.grid().sum(axis=drop).reshape(-1)
    p = marginal[marginal > 0]
    return float(-np.sum(p * np.log2(p)))


def brute_mutual_information(
    d: DenseDistribution, a: Iterable[int], b: Iterable[int]
) -> float:
    """Mutual information by the direct double sum over joint cells.

    Computes ``sum p(x, y) * log2(p(x, y) / (p(x) p(y)))`` on the dense
    marginal over ``a ∪ b``; cross-checks the three-entropy formula used by
    the sparse implementation.
    """
    a_ids = _check_subset(d, a)
    b_ids = _check_subset(d, b)
    if not a_ids or not b_ids:
        raise EmptySet("mutual information needs two nonempty groups")
    if set(a_ids) & set(b_ids):
        raise OverlappingSets(f"groups {a_ids} and {b_ids} overlap")

    union = tuple(sorted(a_ids + b_ids))
    drop = tuple(ax for ax in range(d.user_count) if ax not in union)
    joint = d.grid().sum(axis=drop)

    a_axes = tuple(union.index(i) for i in a_ids)
    b_axes = tuple(union.index(i) for i in b_ids)
    p_a = joint.sum(axis=b_axes, keepdims=True)
    p_b = joint.sum(axis=a_axes, keepdims=True)

    mask = joint > 0
    ratio = joint[mask] / (np.broadcast_to(p_a * p_b, joint.shape)[mask])
    return float(np.sum(joint[mask] * np.log2(ratio)))
