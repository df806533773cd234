"""Tests for the encounter engine: policies, schedules, runs, metrics."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppknow import (
    Graph,
    JointDistribution,
    MetricsRecord,
    Policy,
    SynthConfig,
    apply_encounter,
    encounter_overhead,
    focal_schedule,
    full_mesh,
    init_state,
    inject_unique_tips,
    random_geometric,
    read_metrics_csv,
    round_robin_schedule,
    run,
    run_rounds,
    steps_to_limit,
    synthesize_traces,
    write_metrics_csv,
)
from oppknow.engine import METRICS_HEADER
from oppknow.errors import (
    BadVariableIndex,
    CouldNotConnect,
    NotAnEdge,
    SelfEncounter,
    ShapeMismatch,
)
from oppknow.measures import nonnegative_bits

SMO = Policy.SEND_MINE_ONLY
FMPO = Policy.FORWARD_MINE_PLUS_OTHERS


@pytest.fixture(scope="module")
def small_dist():
    """M=5 correlated trace with unique tips, so every limit is positive."""
    table = inject_unique_tips(synthesize_traces(SynthConfig(5, 4, 300, 0.4, 21)))
    return JointDistribution.from_samples(table)


@pytest.fixture(scope="module")
def triple_dist():
    """M=3 correlated trace with unique tips."""
    table = inject_unique_tips(synthesize_traces(SynthConfig(3, 3, 200, 0.5, 13)))
    return JointDistribution.from_samples(table)


class TestInitState:
    def test_singletons(self):
        assert init_state(3) == (frozenset([0]), frozenset([1]), frozenset([2]))

    def test_gain_zero_at_init(self, small_dist):
        state = init_state(5)
        for n in range(5):
            assert small_dist.knowledge_gain(n, state[n]) == 0.0

    def test_single_node(self):
        assert init_state(1) == (frozenset([0]),)

    def test_no_nodes_rejected(self):
        with pytest.raises(ShapeMismatch):
            init_state(0)


class TestEncounterOverhead:
    def test_identical_users_pay_full_entropy(self, correlated_pair):
        state = init_state(2)
        oh_0, oh_1 = encounter_overhead(correlated_pair, state, 0, 1, SMO)
        assert oh_0 == pytest.approx(1.0, abs=1e-12)
        assert oh_1 == pytest.approx(1.0, abs=1e-12)

    def test_independent_users_pay_nothing(self, uniform_pair):
        state = init_state(2)
        for policy in (SMO, FMPO):
            assert encounter_overhead(uniform_pair, state, 0, 1, policy) == (0.0, 0.0)

    def test_forwarding_with_prior_knowledge(self, three_atom):
        # node 1 already carries node 2's tips: overhead is the full shared
        # information between groups {0} and {1, 2}.
        state = (frozenset([0]), frozenset([1, 2]), frozenset([2]))
        oh = encounter_overhead(three_atom, state, 0, 1, FMPO)
        assert oh[0] == pytest.approx(1.0, abs=1e-12)
        assert oh[0] == oh[1]

    def test_repeat_encounter_is_fully_redundant_smo(self, uniform_pair):
        # After one exchange each side already holds the other's sources.
        state = (frozenset([0, 1]), frozenset([0, 1]))
        oh_0, oh_1 = encounter_overhead(uniform_pair, state, 0, 1, SMO)
        assert oh_0 == pytest.approx(uniform_pair.subset_entropy([0]), abs=1e-12)
        assert oh_1 == pytest.approx(uniform_pair.subset_entropy([1]), abs=1e-12)

    def test_self_encounter_rejected(self, uniform_pair):
        with pytest.raises(SelfEncounter):
            encounter_overhead(uniform_pair, init_state(2), 1, 1, SMO)

    def test_out_of_range_pair_rejected(self, uniform_pair):
        # A negative id must not wrap around to the last node's set.
        for pair in ((-1, 0), (0, 2)):
            with pytest.raises(BadVariableIndex):
                encounter_overhead(uniform_pair, init_state(2), *pair, FMPO)


class TestApplyEncounter:
    def test_smo_fresh_pair_gain(self, small_dist):
        state = init_state(5)
        _, deltas, _ = apply_encounter(small_dist, state, 0, 1, SMO)
        assert deltas[0] == pytest.approx(
            small_dist.conditional_entropy([1], [0]), abs=1e-12
        )
        assert deltas[1] == pytest.approx(
            small_dist.conditional_entropy([0], [1]), abs=1e-12
        )

    def test_fmpo_gain_covers_partner_baggage(self, three_atom):
        state = (frozenset([0]), frozenset([1, 2]), frozenset([2]))
        new_state, deltas, _ = apply_encounter(three_atom, state, 0, 1, FMPO)
        assert deltas[0] == pytest.approx(
            three_atom.conditional_entropy([1, 2], [0]), abs=1e-12
        )
        assert new_state[0] == frozenset([0, 1, 2])
        assert new_state[1] == frozenset([0, 1, 2])
        assert new_state[2] == frozenset([2])

    def test_smo_only_adds_partner(self, small_dist):
        state = (frozenset([0]), frozenset([1, 2]), frozenset([2]), frozenset([3]), frozenset([4]))
        new_state, _, _ = apply_encounter(small_dist, state, 0, 1, SMO)
        assert new_state[0] == frozenset([0, 1])  # not node 2's tips
        assert new_state[1] == frozenset([0, 1, 2])

    def test_repeat_encounter_gains_nothing(self, small_dist):
        state = init_state(5)
        state, _, _ = apply_encounter(small_dist, state, 0, 1, SMO)
        same, deltas, _ = apply_encounter(small_dist, state, 0, 1, SMO)
        assert deltas == {0: 0.0, 1: 0.0}
        assert same == state

    def test_edge_membership_enforced(self, triple_dist):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotAnEdge):
            apply_encounter(triple_dist, init_state(3), 0, 2, SMO, path)

    def test_self_encounter_rejected(self, triple_dist):
        with pytest.raises(SelfEncounter):
            apply_encounter(triple_dist, init_state(3), 2, 2, FMPO)

    @pytest.mark.parametrize("pair", [(0.0, 1), (0, 1.0), ("0", 1), (1.5, 1)])
    def test_non_integer_id_rejected(self, triple_dist, pair):
        with pytest.raises(BadVariableIndex, match="non-integer id"):
            apply_encounter(triple_dist, init_state(3), *pair, SMO)
        with pytest.raises(BadVariableIndex, match="non-integer id"):
            encounter_overhead(triple_dist, init_state(3), *pair, FMPO)
        with pytest.raises(BadVariableIndex, match="non-integer id"):
            run(triple_dist, full_mesh(3), [[pair]], SMO)


class TestSchedules:
    def test_focal_on_mesh(self):
        g = full_mesh(4)
        assert focal_schedule(g, 0) == [[(0, 1)], [(0, 2)], [(0, 3)]]

    def test_focal_single_neighbor(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert focal_schedule(g, 0) == [[(0, 1)]]

    def test_focal_isolated_node(self):
        g = Graph(3, [(1, 2)])
        assert focal_schedule(g, 0) == []

    def test_round_robin_two_nodes(self):
        g = full_mesh(2)
        schedule = round_robin_schedule(g, 5, seed=0)
        assert schedule == [[(0, 1)]] * 5

    def test_round_robin_matchings_are_disjoint_and_maximal(self):
        g = full_mesh(7)
        for matching in round_robin_schedule(g, 30, seed=3):
            nodes = [n for pair in matching for n in pair]
            assert len(nodes) == len(set(nodes))
            # maximal: at most one node left unmatched on a complete graph
            assert len(nodes) >= 6

    def test_round_robin_deterministic(self):
        g = full_mesh(6)
        assert round_robin_schedule(g, 10, seed=9) == round_robin_schedule(g, 10, seed=9)

    def test_round_robin_needs_rounds(self):
        with pytest.raises(ValueError):
            round_robin_schedule(full_mesh(3), 0, seed=0)

    def test_round_robin_refuses_rounds_past_the_address_space(self):
        # Each round holds at least one list and a pointer to it.
        with pytest.raises(MemoryError, match="exceeds the address space"):
            round_robin_schedule(full_mesh(3), sys.maxsize // 64 + 1, seed=0)

    def test_round_robin_memory_follows_pairs_not_new_tuples(self):
        # 6,000 rounds of about 40 pairs: one pointer per pair and one list
        # per round, about 2.6 MiB, where a fresh tuple per pair traces 17.4 MiB.
        g = random_geometric(100, 0.2, 1)
        tracemalloc.start()
        try:
            schedule = round_robin_schedule(g, 6000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(schedule) == 6000
        assert peak < 4 << 20


def previous_round_robin_schedule(graph, rounds, seed):
    """``round_robin_schedule`` as it was when it iterated numpy scalars.

    Kept verbatim as the reference the current schedule is checked against.
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


class TestRoundRobinMatchesPrevious:
    @pytest.mark.parametrize(
        "graph",
        [
            full_mesh(2),
            full_mesh(7),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            random_geometric(12, 0.5, 2),
            random_geometric(40, 0.3, 5),
        ],
        ids=["mesh-2", "mesh-7", "path-5", "geo-12", "geo-40"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 3])
    def test_same_schedule(self, graph, seed):
        assert round_robin_schedule(graph, 25, seed) == previous_round_robin_schedule(
            graph, 25, seed
        )


class TestRun:
    def test_focal_smo_reaches_limit_in_m_minus_1(self, small_dist):
        g = full_mesh(5)
        schedule = focal_schedule(g, 0)
        records = run(small_dist, g, schedule, SMO)
        final = [r for r in records if r.node == 0][-1]
        assert final.achieved
        assert abs(final.kl_bits - final.kg_bits) <= 1e-9
        assert steps_to_limit(records, 0, schedule) == 4

    def test_identical_users_achieved_from_round_zero(self):
        table = synthesize_traces(SynthConfig(3, 3, 120, 1.0, 5))
        dist = JointDistribution.from_samples(table)
        g = full_mesh(3)
        schedule = round_robin_schedule(g, 4, seed=0)
        records = run(dist, g, schedule, SMO)
        for record in records:
            assert record.kg_bits == pytest.approx(0.0, abs=1e-12)
            assert record.achieved
        assert steps_to_limit(records, 0, schedule) == 0

    def test_path_smo_converges_below_limit(self, triple_dist):
        path = Graph(3, [(0, 1), (1, 2)])
        schedule = [[(0, 1)], [(1, 2)]] * 3
        records = run(triple_dist, path, schedule, SMO)
        final = [r for r in records if r.node == 0][-1]
        ceiling = triple_dist.subset_entropy([0, 1]) - triple_dist.subset_entropy([0])
        assert final.kg_bits == pytest.approx(ceiling, abs=1e-9)
        gap = triple_dist.conditional_entropy([2], [0, 1])
        assert gap > 0.0
        assert final.kl_bits - final.kg_bits >= gap - 1e-9
        assert steps_to_limit(records, 0, schedule) is None

    def test_gain_monotone_and_bounded(self, small_dist):
        g = full_mesh(5)
        records = run(small_dist, g, round_robin_schedule(g, 25, seed=2), SMO)
        for node in range(5):
            gains = [r.kg_bits for r in records if r.node == node]
            assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))
            assert all(r.kg_bits <= r.kl_bits + 1e-9 for r in records)

    def test_overheads_accumulate(self, small_dist):
        g = full_mesh(5)
        records = run(small_dist, g, round_robin_schedule(g, 10, seed=2), FMPO)
        for node in range(5):
            own = [r for r in records if r.node == node]
            total = 0.0
            for record in own:
                assert record.oh_round_bits >= 0.0
                total += record.oh_round_bits
                assert record.oh_cum_bits == pytest.approx(total, abs=1e-12)

    def test_dimension_mismatch(self, small_dist):
        with pytest.raises(ShapeMismatch):
            run(small_dist, full_mesh(4), [[(0, 1)]], SMO)

    def test_run_rounds_checks_dimensions_before_the_first_round(self, small_dist):
        # simulate opens its metrics file before asking for a round, so the
        # check must not wait for one.
        with pytest.raises(ShapeMismatch):
            run_rounds(small_dist, full_mesh(4), [[(0, 1)]], SMO)

    def test_non_edge_pair_rejected(self, triple_dist):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotAnEdge):
            run(triple_dist, path, [[(0, 2)]], SMO)

    def test_overlapping_pairs_rejected(self, small_dist):
        g = full_mesh(5)
        with pytest.raises(ValueError):
            run(small_dist, g, [[(0, 1), (1, 2)]], SMO)

    def test_deterministic(self, small_dist):
        g = full_mesh(5)
        schedule = round_robin_schedule(g, 12, seed=7)
        assert run(small_dist, g, schedule, FMPO) == run(small_dist, g, schedule, FMPO)


def previous_group_overhead(dist, sent, held, joint):
    """``_group_overhead`` of the frozenset engine, kept verbatim."""
    return nonnegative_bits(
        dist.subset_entropy(sent)
        + dist.subset_entropy(held)
        - dist.subset_entropy(joint)
    )


def previous_encounter(dist, state, i, j, policy, graph):
    """``_encounter`` of the frozenset engine, kept verbatim."""
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
            previous_group_overhead(dist, frozenset([i]), know_j, new_j),
            previous_group_overhead(dist, frozenset([j]), know_i, new_i),
        )
    merged = know_i | know_j
    shared = previous_group_overhead(dist, know_i, know_j, merged)
    return merged, merged, (shared, shared)


def previous_apply_encounter(dist, state, i, j, policy, graph=None):
    """``apply_encounter`` of the frozenset engine, kept verbatim."""
    new_i, new_j, overheads = previous_encounter(dist, state, i, j, policy, graph)
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


def previous_run(dist, graph, schedule, policy, tol=1e-9):
    """The simulation loop that applied every encounter through the frozenset
    ``apply_encounter`` and recomputed every node's gain each round.

    Kept verbatim as the reference ``run`` is checked against, apart from
    calling the frozenset engine's ``apply_encounter`` kept above.
    """
    if dist.user_count != graph.node_count:
        raise ShapeMismatch(
            f"distribution has {dist.user_count} users but topology has "
            f"{graph.node_count} nodes"
        )
    node_count = graph.node_count
    limits = [dist.knowledge_limit(n) for n in range(node_count)]

    state = init_state(node_count)
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
            state, _, (oh_i, oh_j) = previous_apply_encounter(
                dist, state, i, j, policy, graph
            )
            oh_round[i] += oh_i
            oh_round[j] += oh_j
            participated[i] = participated[j] = True

        for n in range(node_count):
            kg = dist.knowledge_gain(n, state[n])
            oh_cum[n] += oh_round[n]
            records.append(
                MetricsRecord(
                    round_index=round_index,
                    node=n,
                    policy=policy,
                    kg_bits=kg,
                    kl_bits=limits[n],
                    oh_round_bits=oh_round[n],
                    oh_cum_bits=oh_cum[n],
                    achieved=(limits[n] - kg) <= tol,
                )
            )
    return records


class TestRunMatchesPreviousLoop:
    """``run`` touches only each encounter's partners, with identical records."""

    @pytest.fixture(scope="class")
    def table(self):
        return inject_unique_tips(synthesize_traces(SynthConfig(12, 5, 400, 0.3, 3)))

    @pytest.mark.parametrize("policy", [SMO, FMPO])
    @pytest.mark.parametrize("kind", ["round-robin", "focal"])
    def test_records_equal(self, table, policy, kind):
        graph = random_geometric(12, 0.5, 2)
        if kind == "focal":
            schedule = focal_schedule(graph, 3)
        else:
            schedule = round_robin_schedule(graph, 30, seed=4)
        # Separate distributions, so each run fills its own memo and
        # partition cache in its own query order.
        expected = previous_run(JointDistribution.from_samples(table), graph, schedule, policy)
        actual = run(JointDistribution.from_samples(table), graph, schedule, policy)
        assert actual == expected


@st.composite
def simulations(draw):
    """A trace, a random geometric graph on 2 to 70 nodes, a schedule and a
    policy. Hand-made schedules repeat rounds, so encounters repeat."""
    node_count = draw(st.integers(2, 70))
    seed = draw(st.integers(0, 2**16))
    try:
        graph = random_geometric(node_count, draw(st.floats(0.3, 1.0)), seed)
    except CouldNotConnect:
        assume(False)
    table = synthesize_traces(SynthConfig(node_count, 3, draw(st.integers(20, 120)), 0.4, seed))
    if draw(st.booleans()):
        table = inject_unique_tips(table)
    kind = draw(st.sampled_from(["round-robin", "focal", "hand-made"]))
    if kind == "round-robin":
        schedule = round_robin_schedule(graph, draw(st.integers(1, 12)), seed)
    elif kind == "focal":
        schedule = focal_schedule(graph, draw(st.integers(0, node_count - 1)))
    else:
        rounds = []
        for _ in range(draw(st.integers(1, 4))):
            matching, used = [], set()
            for i, j in draw(st.lists(st.sampled_from(graph.edges), min_size=1, max_size=8)):
                if i not in used and j not in used:
                    used.update((i, j))
                    matching.append((j, i) if draw(st.booleans()) else (i, j))
            rounds.append(matching)
        schedule = draw(st.lists(st.sampled_from(rounds), min_size=1, max_size=10))
    return table, graph, schedule, draw(st.sampled_from([SMO, FMPO]))


class TestRunOverMasks:
    """``run`` keeps sets as bit masks; its records equal the frozenset loop's."""

    @settings(max_examples=60, deadline=None)
    @given(simulations())
    def test_records_equal_previous_run(self, simulation):
        table, graph, schedule, policy = simulation
        expected = previous_run(JointDistribution.from_samples(table), graph, schedule, policy)
        actual = run(JointDistribution.from_samples(table), graph, schedule, policy)
        assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(
        node_count=st.integers(2, 70),
        seed=st.integers(0, 2**16),
        policy=st.sampled_from([SMO, FMPO]),
        data=st.data(),
    )
    def test_apply_encounter_matches_frozenset_engine(self, node_count, seed, policy, data):
        # States a run never reaches: each node holds itself and any others.
        table = synthesize_traces(SynthConfig(node_count, 3, 60, 0.4, seed))
        nodes = st.integers(0, node_count - 1)
        state = tuple(
            frozenset(data.draw(st.lists(nodes, max_size=6))) | {n}
            for n in range(node_count)
        )
        i = data.draw(nodes)
        j = data.draw(nodes.filter(lambda n: n != i))
        # Separate distributions: the mask engine asks for the held sets
        # before the new ones, so a cold set may be refined from another
        # cached partition and differ in its last bits.
        new_state, deltas, overheads = apply_encounter(
            JointDistribution.from_samples(table), state, i, j, policy
        )
        old_state, old_deltas, old_overheads = previous_apply_encounter(
            JointDistribution.from_samples(table), state, i, j, policy
        )
        assert new_state == old_state
        assert deltas == pytest.approx(old_deltas, abs=1e-12)
        assert overheads == pytest.approx(old_overheads, abs=1e-12)

    @pytest.mark.parametrize("policy", [SMO, FMPO])
    def test_numpy_ids_past_64_bits(self, policy):
        # A numpy id shifted as is wraps at 64 bits; sources 64 to 69 must
        # keep their own bits.
        table = inject_unique_tips(synthesize_traces(SynthConfig(70, 3, 150, 0.4, 8)))
        graph = random_geometric(70, 0.3, 8)
        schedule = [
            [(np.int64(i), np.int64(j)) for i, j in round_pairs]
            for round_pairs in round_robin_schedule(graph, 12, 8)
        ]
        assert max(max(pair) for round_pairs in schedule for pair in round_pairs) >= 64
        expected = previous_run(JointDistribution.from_samples(table), graph, schedule, policy)
        actual = run(JointDistribution.from_samples(table), graph, schedule, policy)
        assert actual == expected

    def test_negative_numpy_id_rejected(self, small_dist):
        with pytest.raises(BadVariableIndex):
            run(small_dist, full_mesh(5), [[(np.int64(-1), np.int64(0))]], SMO)

    @pytest.mark.parametrize("policy", [SMO, FMPO])
    def test_each_subset_queried_once(self, policy):
        table = inject_unique_tips(synthesize_traces(SynthConfig(20, 4, 200, 0.3, 2)))
        graph = random_geometric(20, 0.4, 2)
        schedule = round_robin_schedule(graph, 40, 2)

        def traced(simulate):
            # Every subset that reaches subset_entropy, and those asked
            # outside knowledge_limit, on a distribution with an empty memo.
            dist = JointDistribution.from_samples(table)
            subset_entropy, knowledge_limit = dist.subset_entropy, dist.knowledge_limit
            asked, outside_limit = [], []
            in_limit = False

            def limit(i):
                nonlocal in_limit
                in_limit = True
                try:
                    return knowledge_limit(i)
                finally:
                    in_limit = False

            def entropy(members):
                asked.append(frozenset(members))
                if not in_limit:
                    outside_limit.append(asked[-1])
                return subset_entropy(members)

            dist.knowledge_limit, dist.subset_entropy = limit, entropy
            return simulate(dist, graph, schedule, policy), asked, outside_limit

        records, asked, outside_limit = traced(run)
        assert len(outside_limit) == len(set(outside_limit))
        # Forty rounds repeat encounters, so far fewer sets than encounters.
        assert len(outside_limit) < sum(len(round_pairs) for round_pairs in schedule)
        # The kernel sees the sets the frozenset loop asks for, in its order.
        previous_records, previous_asked, _ = traced(previous_run)
        assert records == previous_records
        assert list(dict.fromkeys(asked)) == list(dict.fromkeys(previous_asked))


class TestPolicyInvariants:
    def test_smo_knowledge_stays_in_closed_neighborhood(self, small_dist):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        schedule = round_robin_schedule(g, 20, seed=1)
        state = init_state(5)
        for round_pairs in schedule:
            for i, j in round_pairs:
                state, _, _ = apply_encounter(small_dist, state, i, j, SMO, g)
            for n in range(5):
                assert state[n] <= frozenset(g.neighbors(n)) | {n}

    def test_fmpo_knowledge_equals_temporal_reachability(self, small_dist):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        schedule = round_robin_schedule(g, 15, seed=6)

        # Independent check: spread each source forward through the rounds.
        reach = {s: {s} for s in range(5)}
        state = init_state(5)
        for round_pairs in schedule:
            for s in range(5):
                snapshot = set(reach[s])
                for i, j in round_pairs:
                    if i in snapshot or j in snapshot:
                        reach[s].update((i, j))
            for i, j in round_pairs:
                state, _, _ = apply_encounter(small_dist, state, i, j, FMPO, g)
            for n in range(5):
                assert state[n] == frozenset(s for s in range(5) if n in reach[s])


def replayed_steps(records, node, schedule, node_count, tol=1e-9):
    """Steps to the limit counted from a participation list replayed from the
    schedule round by round, as ``run`` builds it."""
    own = sorted((r for r in records if r.node == node), key=lambda r: r.round_index)
    if own[0].kl_bits <= tol:
        return 0
    encounters = 0
    for record, round_pairs in zip(own, schedule):
        participated = [False] * node_count
        for i, j in round_pairs:
            participated[i] = participated[j] = True
        encounters += participated[node]
        if record.kl_bits - record.kg_bits <= tol:
            return encounters
    return None


class TestStepsToLimit:
    @settings(max_examples=60, deadline=None)
    @given(
        node_count=st.integers(3, 12),
        radius=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**16),
        unique_tips=st.booleans(),
        kind=st.sampled_from(["round-robin", "focal"]),
        rounds=st.integers(1, 12),
        policy=st.sampled_from([SMO, FMPO]),
        data=st.data(),
    )
    def test_run_records_read_back_and_replay_agree(
        self, tmp_path_factory, node_count, radius, seed, unique_tips, kind, rounds,
        policy, data,
    ):
        try:
            graph = random_geometric(node_count, radius, seed)
        except CouldNotConnect:
            assume(False)
        table = synthesize_traces(SynthConfig(node_count, 3, 60, 0.4, seed))
        if unique_tips:
            table = inject_unique_tips(table)
        dist = JointDistribution.from_samples(table)
        if kind == "focal":
            schedule = focal_schedule(graph, data.draw(st.integers(0, node_count - 1)))
        else:
            schedule = round_robin_schedule(graph, rounds, seed)
        records = run(dist, graph, schedule, policy)
        path = tmp_path_factory.mktemp("steps") / "metrics.csv"
        write_metrics_csv(records, path)
        back = read_metrics_csv(path)
        for node in range(node_count):
            expected = replayed_steps(records, node, schedule, node_count)
            assert steps_to_limit(records, node, schedule) == expected
            assert steps_to_limit(back, node, schedule) == expected

    def test_fmpo_never_slower_than_smo(self, small_dist):
        g = full_mesh(5)
        schedule = round_robin_schedule(g, 40, seed=4)
        records_smo = run(small_dist, g, schedule, SMO)
        records_fmpo = run(small_dist, g, schedule, FMPO)
        for node in range(5):
            s_smo = steps_to_limit(records_smo, node, schedule)
            s_fmpo = steps_to_limit(records_fmpo, node, schedule)
            assert s_fmpo is not None
            if s_smo is not None:
                assert s_fmpo <= s_smo

    def test_unknown_node(self, small_dist):
        g = full_mesh(5)
        schedule = focal_schedule(g, 0)
        records = run(small_dist, g, schedule, SMO)
        with pytest.raises(BadVariableIndex):
            steps_to_limit(records, 99, schedule)

    def test_records_read_back_give_the_same_steps(self, tmp_path):
        table = inject_unique_tips(synthesize_traces(SynthConfig(5, 4, 300, 0.3, 1)))
        dist = JointDistribution.from_samples(table)
        mesh = full_mesh(5)
        schedule = focal_schedule(mesh, 0)
        records = run(dist, mesh, schedule, SMO)
        assert steps_to_limit(records, 0, schedule) == 4
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        assert steps_to_limit(read_metrics_csv(path), 0, schedule) == 4

    def test_counts_only_participation_rounds(self, small_dist):
        # Node 0 sits out rounds 0 and 2; fmpo hands it everyone's knowledge
        # in round 3, its second encounter.
        schedule = [[(1, 2)], [(0, 1)], [(3, 4)], [(0, 3)], [(0, 2)], [(0, 4)]]
        records = run(small_dist, full_mesh(5), schedule, FMPO)
        assert steps_to_limit(records, 0, schedule) == 2

    @pytest.mark.parametrize("rounds, bad", [((-1, 0), -1), ((0, 2), 2)])
    def test_round_outside_schedule_rejected(self, rounds, bad):
        # A round index counted from the end, or past it, is no round of the
        # schedule: neither is counted or indexed.
        schedule = [[(0, 1)], [(1, 2)]]
        records = [
            MetricsRecord(rounds[0], 2, SMO, 0.0, 1.0, 0.0, 0.0, False),
            MetricsRecord(rounds[1], 2, SMO, 1.0, 1.0, 0.0, 0.0, True),
        ]
        with pytest.raises(ShapeMismatch, match=rf"^node 2 has a record at round {bad}, "):
            steps_to_limit(records, 2, schedule)


class TestMetricsFiles:
    def test_record_fields_are_the_header_columns(self):
        assert len(MetricsRecord._fields) == len(METRICS_HEADER.split(","))

    def test_round_trip(self, small_dist, tmp_path):
        g = full_mesh(5)
        records = run(small_dist, g, focal_schedule(g, 0), SMO)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        back = read_metrics_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert (a.round_index, a.node, a.policy, a.achieved) == (
                b.round_index, b.node, b.policy, b.achieved
            )
            assert b.kg_bits == pytest.approx(a.kg_bits, abs=1e-11)

    def test_header_and_shape(self, small_dist, tmp_path):
        g = full_mesh(5)
        records = run(small_dist, g, focal_schedule(g, 0), SMO)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 4 * 5  # four rounds, five nodes


class TestMemoryBound:
    def test_smo_run_memory_stays_within_outcome_columns_multiple(self):
        # M=30, T=3k with unique tips asks for hundreds of distinct subsets,
        # more partitions than the entropy kernel may keep, so it evicts.
        # 25 categories fit one byte, so the outcome columns take one byte
        # per (atom, user) cell. Keeping every partition measured about 22x
        # that; the bounded cache about 5x, mostly the records and the memo.
        import tracemalloc

        table = inject_unique_tips(synthesize_traces(SynthConfig(30, 24, 3000, 0.3, 1)))
        dist = JointDistribution.from_samples(table)
        column_bytes = len(dist.atoms) * dist.user_count
        graph = random_geometric(30, 0.7, 1)
        schedule = round_robin_schedule(graph, 20, 1)
        tracemalloc.start()
        try:
            run(dist, graph, schedule, SMO)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * column_bytes
