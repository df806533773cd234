"""Encounter simulation under the two knowledge-sharing policies.

Knowledge is tracked per node as the set of source users whose tips the node
currently holds (always including itself). Because a user's tips are fully
described by that user's variable in the joint distribution, the cumulative
knowledge gain of a node is simply the subset entropy of its knowledge set
minus its own entropy, and both policies reduce to set updates:

* send-mine-only: an encounter adds each partner's id to the other's set;
* forward-mine-plus-others: both partners end up with the union of their sets.

Per-encounter communication overhead is the information shared between what a
node transmits and what its partner already holds, computed as
``H(A) + H(B) - H(A ∪ B)`` directly from subset entropies. For disjoint
groups this is exactly their mutual information; it stays well defined on
repeat encounters, where the transmitted sources partly overlap the
receiver's knowledge.

Rounds of a schedule are matchings: pairs within a round are vertex-disjoint
and are applied simultaneously against the pre-round state, so results do not
depend on pair order inside a round. :func:`run` updates only the two partners
of each encounter and recomputes the knowledge gain only of nodes that took
part in the round; every other node keeps its set and its gain.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import (
    BadVariableIndex,
    NotAnEdge,
    SelfEncounter,
    ShapeMismatch,
)
from .measures import JointDistribution, nonnegative_bits
# The metrics records and their CSV format are defined in .metrics, which
# needs no numpy, and stay importable from here.
from .metrics import (
    METRICS_HEADER,
    MetricsRecord,
    Policy,
    read_metrics_csv,
    write_metrics_csv,
)
from .topology import Graph

KnowledgeState = tuple[frozenset[int], ...]
Round = Sequence[tuple[int, int]]
Schedule = Sequence[Round]


def init_state(node_count: int) -> KnowledgeState:
    """Starting state: every node holds only its own knowledge."""
    if node_count < 1:
        raise ShapeMismatch("need at least one node")
    return tuple(frozenset([n]) for n in range(node_count))


def _group_overhead(
    dist: JointDistribution,
    sent: frozenset[int],
    held: frozenset[int],
    joint: frozenset[int],
) -> float:
    """Shared information between a transmitted group and a held group.

    ``H(sent) + H(held) - H(joint)`` with ``joint = sent ∪ held``; equals the
    mutual information when the groups are disjoint and remains valid when
    they overlap.
    """
    return nonnegative_bits(
        dist.subset_entropy(sent)
        + dist.subset_entropy(held)
        - dist.subset_entropy(joint)
    )


def _encounter(
    dist: JointDistribution,
    state: Sequence[frozenset[int]],
    i: int,
    j: int,
    policy: Policy,
    graph: Graph | None,
) -> tuple[frozenset[int], frozenset[int], tuple[float, float]]:
    """Check one encounter's pair; return both partners' new sets and the overheads.

    Each partner's new set is the union its overhead needs, so it is built
    once.
    """
    if i == j:
        raise SelfEncounter(f"node {i} cannot encounter itself")
    if not (0 <= i < len(state) and 0 <= j < len(state)):
        raise BadVariableIndex(f"pair ({i}, {j}) outside [0, {len(state)})")
    if graph is not None and not graph.has_edge(i, j):
        raise NotAnEdge(f"({i}, {j}) is not an edge of the topology")
    know_i, know_j = state[i], state[j]
    if policy is Policy.SEND_MINE_ONLY:
        new_i, new_j = know_i | {j}, know_j | {i}
        return new_i, new_j, (
            _group_overhead(dist, frozenset([i]), know_j, new_j),
            _group_overhead(dist, frozenset([j]), know_i, new_i),
        )
    merged = know_i | know_j
    shared = _group_overhead(dist, know_i, know_j, merged)
    return merged, merged, (shared, shared)


def encounter_overhead(
    dist: JointDistribution,
    state: KnowledgeState,
    i: int,
    j: int,
    policy: Policy,
) -> tuple[float, float]:
    """Redundant bits each side of an encounter would transmit, pre-exchange.

    Under send-mine-only node ``i`` transmits only its own tips, so its
    overhead is the information those tips share with everything ``j``
    already holds (and symmetrically for ``j``). Under
    forward-mine-plus-others both sides transmit their full knowledge sets
    and incur the same overhead.
    """
    return _encounter(dist, state, i, j, policy, None)[2]


def apply_encounter(
    dist: JointDistribution,
    state: KnowledgeState,
    i: int,
    j: int,
    policy: Policy,
    graph: Graph | None = None,
) -> tuple[KnowledgeState, dict[int, float], tuple[float, float]]:
    """Execute one encounter; returns (new state, gain deltas, overheads).

    Gain deltas map each participant to the increase of its cumulative
    knowledge gain; nodes outside the pair are unchanged. When ``graph`` is
    given the pair must be one of its edges.
    """
    new_i, new_j, overheads = _encounter(dist, state, i, j, policy, graph)
    deltas = {
        i: nonnegative_bits(
            dist.subset_entropy(new_i) - dist.subset_entropy(state[i])
        ),
        j: nonnegative_bits(
            dist.subset_entropy(new_j) - dist.subset_entropy(state[j])
        ),
    }
    new_state = tuple(
        new_i if n == i else new_j if n == j else know
        for n, know in enumerate(state)
    )
    return new_state, deltas, overheads


def focal_schedule(graph: Graph, focal: int) -> list[list[tuple[int, int]]]:
    """One encounter per round: the focal node meets each neighbor by ascending id."""
    return [[(focal, nbr)] for nbr in graph.neighbors(focal)]


def round_robin_schedule(
    graph: Graph, rounds: int, seed: int
) -> list[list[tuple[int, int]]]:
    """Random maximal matchings, one per round, deterministic in the seed.

    Each round greedily accepts edges from a seeded shuffle until no further
    edge is vertex-disjoint from the accepted ones.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    edges = graph.edges
    schedule = []
    for _ in range(rounds):
        matching = []
        used: set[int] = set()
        for index in rng.permutation(len(edges)):
            i, j = edges[index]
            if i not in used and j not in used:
                matching.append((i, j))
                used.add(i)
                used.add(j)
        schedule.append(sorted(matching))
    return schedule


def run(
    dist: JointDistribution,
    graph: Graph,
    schedule: Schedule,
    policy: Policy,
    tol: float = 1e-9,
) -> list[MetricsRecord]:
    """Simulate a schedule, emitting one record per node per round.

    A node is `achieved` once its knowledge-gain limit minus its cumulative
    gain is within ``tol`` bits.
    """
    if dist.user_count != graph.node_count:
        raise ShapeMismatch(
            f"distribution has {dist.user_count} users but topology has "
            f"{graph.node_count} nodes"
        )
    node_count = graph.node_count
    limits = [dist.knowledge_limit(n) for n in range(node_count)]

    state = list(init_state(node_count))
    # Every node starts holding only itself, a gain of exactly zero.
    kg = [0.0] * node_count
    oh_cum = [0.0] * node_count
    records: list[MetricsRecord] = []

    for round_index, round_pairs in enumerate(schedule):
        seen: set[int] = set()
        for i, j in round_pairs:
            if i in seen or j in seen:
                raise ValueError(
                    f"round {round_index} pairs are not vertex-disjoint at ({i}, {j})"
                )
            seen.update((i, j))

        oh_round = [0.0] * node_count
        participated = [False] * node_count
        for i, j in round_pairs:
            # Pairs are vertex-disjoint, so sequential application equals
            # simultaneous application against the pre-round snapshot.
            state[i], state[j], (oh_i, oh_j) = _encounter(
                dist, state, i, j, policy, graph
            )
            oh_round[i] += oh_i
            oh_round[j] += oh_j
            participated[i] = participated[j] = True

        for n in range(node_count):
            if participated[n]:
                kg[n] = dist.knowledge_gain(n, state[n])
                oh_cum[n] += oh_round[n]
            records.append(
                MetricsRecord(
                    round_index, n, policy, kg[n], limits[n], oh_round[n],
                    oh_cum[n], (limits[n] - kg[n]) <= tol,
                )
            )
    return records


def steps_to_limit(
    records: Sequence[MetricsRecord], node: int, schedule: Schedule, tol: float = 1e-9
) -> int | None:
    """Encounters a node needed before its gain reached its limit.

    Counts the rounds of ``schedule`` in which the node is in a pair, up to
    and including the first round whose record meets the limit within
    ``tol``. Returns 0 when the limit is zero bits away from the start, and
    ``None`` when the node never reaches it. ``records`` may be :func:`run`'s
    or those read back by :func:`read_metrics_csv`.
    """
    own = [r for r in records if r.node == node]
    if not own:
        raise BadVariableIndex(f"no records for node {node}")
    if own[0].kl_bits <= tol:
        return 0
    reached = [r.round_index for r in own if r.kl_bits - r.kg_bits <= tol]
    if not reached:
        return None
    return sum(
        any(node in pair for pair in round_pairs)
        for round_pairs in schedule[: min(reached) + 1]
    )
