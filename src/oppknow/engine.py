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
depend on pair order inside a round. :func:`run_rounds` updates only the two
partners of each encounter and recomputes the knowledge gain only of nodes
that took part in the round; every other node keeps its set and its gain. It
yields each round's records as the round ends, so a caller can write them out
without holding the whole run; :func:`run` collects them into one list.

Inside :func:`run_rounds` a knowledge set is a Python int bit mask (bit
``n`` set means source ``n`` is held), kept beside its entropy, and the
distribution is asked once for each set the run has not seen yet. The public API
(:data:`KnowledgeState`, :func:`init_state`, :func:`apply_encounter`,
:func:`encounter_overhead`) still takes and returns frozensets.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

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
    _LimitProgress,
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


def _members(mask: int) -> list[int]:
    """The members of a bit mask, ascending."""
    return [n for n in range(mask.bit_length()) if mask >> n & 1]


def _encounter(
    know: Callable[[int], tuple[int, float]],
    entropy: Callable[[int], float],
    node_count: int,
    i: int,
    j: int,
    policy: Policy,
    graph: Graph | None,
) -> tuple[int, int, float, float, tuple[float, float]]:
    """Check one encounter's pair; return both partners' new sets, their
    entropies and the overheads.

    Sets are bit masks. ``know(n)`` gives node ``n``'s set and its entropy,
    and ``entropy`` gives the entropy of any other set. Each partner's new
    set is the union its overhead needs, so it is built and queried once.
    An overhead is ``H(sent) + H(held) - H(sent ∪ held)``.
    """
    if i == j:
        raise SelfEncounter(f"node {i} cannot encounter itself")
    if not (0 <= i < node_count and 0 <= j < node_count):
        raise BadVariableIndex(f"pair ({i}, {j}) outside [0, {node_count})")
    if graph is not None and not graph.has_edge(i, j):
        raise NotAnEdge(f"({i}, {j}) is not an edge of the topology")
    # Shift Python ints only: a numpy id would wrap at 64 bits.
    i, j = operator.index(i), operator.index(j)
    (know_i, h_i), (know_j, h_j) = know(i), know(j)
    if policy is Policy.SEND_MINE_ONLY:
        new_i, new_j = know_i | 1 << j, know_j | 1 << i
        h_new_j = entropy(new_j)
        oh_i = nonnegative_bits(entropy(1 << i) + h_j - h_new_j)
        h_new_i = entropy(new_i)
        oh_j = nonnegative_bits(entropy(1 << j) + h_i - h_new_i)
        return new_i, new_j, h_new_i, h_new_j, (oh_i, oh_j)
    merged = know_i | know_j
    h_merged = entropy(merged)
    shared = nonnegative_bits(h_i + h_j - h_merged)
    return merged, merged, h_merged, h_merged, (shared, shared)


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
    return apply_encounter(dist, state, i, j, policy)[2]


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

    def know(n: int) -> tuple[int, float]:
        # Querying the set first checks its ids before they are shifted.
        bits = dist.subset_entropy(state[n])
        return sum(1 << int(m) for m in state[n]), bits

    def entropy(mask: int) -> float:
        return dist.subset_entropy(_members(mask))

    new_i, new_j, h_new_i, h_new_j, overheads = _encounter(
        know, entropy, len(state), i, j, policy, graph
    )
    deltas = {
        i: nonnegative_bits(h_new_i - dist.subset_entropy(state[i])),
        j: nonnegative_bits(h_new_j - dist.subset_entropy(state[j])),
    }
    set_i, set_j = frozenset(_members(new_i)), frozenset(_members(new_j))
    new_state = tuple(
        set_i if n == i else set_j if n == j else held
        for n, held in enumerate(state)
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
        for index in rng.permutation(len(edges)).tolist():
            i, j = edges[index]
            if i not in used and j not in used:
                matching.append((i, j))
                used.add(i)
                used.add(j)
        schedule.append(sorted(matching))
    return schedule


def run_rounds(
    dist: JointDistribution,
    graph: Graph,
    schedule: Schedule,
    policy: Policy,
    tol: float = 1e-9,
) -> Iterator[list[MetricsRecord]]:
    """Simulate a schedule lazily, yielding each round's records as it ends.

    A round's records are one per node, ids ascending. A node is `achieved`
    once its knowledge-gain limit minus its cumulative gain is within
    ``tol`` bits. The distribution and the topology are checked against
    each other here, before the first round is asked for.
    """
    if dist.user_count != graph.node_count:
        raise ShapeMismatch(
            f"distribution has {dist.user_count} users but topology has "
            f"{graph.node_count} nodes"
        )
    return _rounds(dist, graph, schedule, policy, tol)


def _rounds(
    dist: JointDistribution,
    graph: Graph,
    schedule: Schedule,
    policy: Policy,
    tol: float,
) -> Iterator[list[MetricsRecord]]:
    node_count = graph.node_count
    limits = [dist.knowledge_limit(n) for n in range(node_count)]

    # Knowledge sets as bit masks, each beside its entropy h[n]; h_self[n] is
    # H({n}). `bits` holds every set seen in this run, so the distribution is
    # asked once per new set.
    masks = [1 << n for n in range(node_count)]
    h_self = [dist.subset_entropy((n,)) for n in range(node_count)]
    h = list(h_self)
    bits = dict(zip(masks, h_self))

    def know(n: int) -> tuple[int, float]:
        return masks[n], h[n]

    def entropy(mask: int) -> float:
        value = bits.get(mask)
        if value is None:
            value = bits[mask] = dist.subset_entropy(_members(mask))
        return value

    # Every node starts holding only itself, a gain of exactly zero.
    kg = [0.0] * node_count
    oh_cum = [0.0] * node_count

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
            masks[i], masks[j], h[i], h[j], (oh_i, oh_j) = _encounter(
                know, entropy, node_count, i, j, policy, graph
            )
            oh_round[i] += oh_i
            oh_round[j] += oh_j
            participated[i] = participated[j] = True

        records = []
        for n in range(node_count):
            if participated[n]:
                kg[n] = nonnegative_bits(h[n] - h_self[n])
                oh_cum[n] += oh_round[n]
            records.append(
                MetricsRecord(
                    round_index, n, policy, kg[n], limits[n], oh_round[n],
                    oh_cum[n], (limits[n] - kg[n]) <= tol,
                )
            )
        yield records


def run(
    dist: JointDistribution,
    graph: Graph,
    schedule: Schedule,
    policy: Policy,
    tol: float = 1e-9,
) -> list[MetricsRecord]:
    """Simulate a schedule; every record of :func:`run_rounds`, in order."""
    return list(chain.from_iterable(run_rounds(dist, graph, schedule, policy, tol)))


def steps_to_limit(
    records: Iterable[MetricsRecord], node: int, schedule: Schedule, tol: float = 1e-9
) -> int | None:
    """Encounters a node needed before its gain reached its limit.

    Counts the rounds of ``schedule`` in which the node is in a pair, up to
    and including the first round whose record meets the limit within
    ``tol``. Returns 0 when the limit is zero bits away from the start, and
    ``None`` when the node never reaches it. ``records`` hold the node's
    records in round order, one per round: :func:`run`'s, or those read back
    by :func:`read_metrics_csv`.
    """
    progress = _LimitProgress(tol)
    for record in records:
        if record.node == node:
            progress.add(record, any(node in pair for pair in schedule[record.round_index]))
    if progress.last is None:
        raise BadVariableIndex(f"no records for node {node}")
    return progress.steps
