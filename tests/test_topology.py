"""Tests for topology construction and graph queries."""

import math
import tracemalloc
from collections import deque
from collections.abc import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppknow import (
    Graph,
    full_mesh,
    random_geometric,
    read_edge_list,
    write_edge_list,
)
from oppknow import topology
from oppknow.errors import (
    BadVariableIndex,
    CouldNotConnect,
    InvalidEdge,
    NotConnected,
    ParseError,
    SelfLoop,
    TooFewNodes,
)
from oppknow.topology import MAX_PLACEMENT_ATTEMPTS


# -- references -----------------------------------------------------------------
#
# The graph kept one adjacency tuple per declared node, with two searches, and
# random_geometric collected its pairs in a Python loop. Both are kept verbatim
# (only renamed) as the references the edge-keyed versions must match.


class ReferenceGraph:
    """Immutable simple undirected graph on ``0 .. node_count - 1``; repeated edges collapse."""

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise TooFewNodes("a graph needs at least one node")
        self.node_count = int(node_count)
        normalized = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise SelfLoop(f"edge ({i}, {j}) is a self-loop")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise InvalidEdge(f"edge ({i}, {j}) outside [0, {node_count})")
            normalized.add((min(i, j), max(i, j)))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))

        adjacency: list[list[int]] = [[] for _ in range(node_count)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Direct neighbors of ``node``, ascending, never including ``node``."""
        if not 0 <= node < self.node_count:
            raise BadVariableIndex(f"node {node} outside [0, {self.node_count})")
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def mean_degree(self) -> float:
        return 2.0 * self.edge_count / self.node_count

    def has_edge(self, i: int, j: int) -> bool:
        if not 0 <= i < self.node_count:
            return False
        return j in self._adjacency[i]

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nbr in self._adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        return len(seen) == self.node_count

    def _eccentricity(self, source: int) -> int:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nbr in self._adjacency[node]:
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        if len(dist) != self.node_count:
            raise NotConnected("graph is not connected")
        return max(dist.values())

    def diameter(self) -> int:
        """Longest shortest path; raises :class:`NotConnected` if disconnected."""
        return max(self._eccentricity(s) for s in range(self.node_count))

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def reference_random_geometric(node_count: int, radius: float, seed: int) -> ReferenceGraph:
    """Connected disk-model graph on uniform points in the unit square.

    Nodes within ``radius`` of each other are joined. Placement is retried
    (advancing the seeded stream) until the graph comes out connected;
    after 1000 failures the radius is considered too small for the node
    count and :class:`CouldNotConnect` is raised.
    """
    if node_count < 2:
        raise TooFewNodes("a geometric graph needs at least two nodes")
    if not 0.0 < radius <= float(np.sqrt(2.0)):
        raise ValueError("radius must lie in (0, sqrt(2)]")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_PLACEMENT_ATTEMPTS):
        points = rng.random((node_count, 2))
        deltas = points[:, None, :] - points[None, :, :]
        within = np.linalg.norm(deltas, axis=2) <= radius
        edges = [
            (i, j)
            for i in range(node_count)
            for j in range(i + 1, node_count)
            if within[i, j]
        ]
        graph = ReferenceGraph(node_count, edges)
        if graph.is_connected():
            return graph
    raise CouldNotConnect(
        f"no connected placement in {MAX_PLACEMENT_ATTEMPTS} attempts "
        f"(radius {radius} too small for {node_count} nodes?)"
    )


def diameter_or_error(graph):
    try:
        return graph.diameter()
    except NotConnected as exc:
        return type(exc), str(exc)


def assert_same_graph(graph, reference):
    n = reference.node_count
    assert graph.node_count == n
    assert graph.edges == reference.edges
    assert graph.edge_count == reference.edge_count
    assert [graph.neighbors(v) for v in range(n)] == [reference.neighbors(v) for v in range(n)]
    assert [graph.degree(v) for v in range(n)] == [reference.degree(v) for v in range(n)]
    assert repr(graph) == repr(reference)
    for i in range(-1, n + 1):
        for j in range(-1, n + 1):
            assert graph.has_edge(i, j) == reference.has_edge(i, j)
    assert graph.is_connected() == reference.is_connected()
    assert diameter_or_error(graph) == diameter_or_error(reference)


@st.composite
def node_counts_and_edges(draw):
    n = draw(st.integers(1, 30))
    if n == 1:
        return n, []
    node = st.integers(0, n - 1)
    pairs = st.tuples(node, node).filter(lambda pair: pair[0] != pair[1])
    return n, draw(st.lists(pairs, max_size=3 * n))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(node_counts_and_edges())
    def test_graph_matches_reference(self, case):
        n, edges = case
        assert_same_graph(Graph(n, edges), ReferenceGraph(n, edges))

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("radius", [0.2, 0.35, 0.5, 1.0, math.sqrt(2.0)])
    @pytest.mark.parametrize("node_count", [2, 3, 7, 20, 50, 100])
    def test_random_geometric_matches_reference(self, node_count, radius, seed):
        assert_geometric_matches_reference(node_count, radius, seed)


def assert_geometric_matches_reference(node_count, radius, seed):
    try:
        reference = reference_random_geometric(node_count, radius, seed)
    except CouldNotConnect as exc:
        with pytest.raises(CouldNotConnect) as raised:
            random_geometric(node_count, radius, seed)
        assert str(raised.value) == str(exc)
    else:
        assert_same_graph(random_geometric(node_count, radius, seed), reference)


class TestGeometricRowBlocks:
    """Placement compares a block of rows at a time; the edges do not depend on it."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize(
        "node_count, radius, seed",
        [(2, 0.2, 0), (2, math.sqrt(2.0), 3), (7, 0.5, 1), (20, 0.35, 4),
         (50, 0.2, 2), (65, 0.25, 6), (100, 0.2, 1), (130, 0.15, 9),
         (20, 0.01, 0)],
    )
    def test_any_block_size_matches_reference(
        self, monkeypatch, rows, node_count, radius, seed
    ):
        monkeypatch.setattr(topology, "_BLOCK_PAIRS", rows * node_count)
        assert_geometric_matches_reference(node_count, radius, seed)

    @pytest.mark.parametrize("node_count, radius", [(300, 0.12), (700, 0.08)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_blocks_split_and_match_reference(self, node_count, radius, seed):
        assert topology._BLOCK_PAIRS // node_count < node_count
        assert_geometric_matches_reference(node_count, radius, seed)

    def test_memory_follows_edges_not_node_pairs(self):
        # 2,000 nodes, about 21,000 edges: the graph and one block of
        # temporaries trace about 7 MiB, and comparing every node pair at once
        # traces 183 MiB, so the bound fails on any path holding memory per pair.
        tracemalloc.start()
        try:
            graph = random_geometric(2000, 0.06, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.is_connected()
        assert peak < 16 << 20


class TestMemoryFollowsEdges:
    """A graph holds its edges, not one entry per declared node."""

    NODES = 2_000_000

    @staticmethod
    def traced_peak(build):
        tracemalloc.start()
        try:
            graph = build()
            return graph, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_constructor(self):
        graph, peak = self.traced_peak(lambda: Graph(self.NODES, [(0, 1)]))
        assert peak < 1 << 20
        assert graph.neighbors(self.NODES - 1) == ()
        assert graph.neighbors(1) == (0,)
        assert not graph.is_connected()

    def test_build_peak_follows_the_graph_kept(self):
        # 4,000 nodes, 85,697 edges: the graph keeps 6.84 MiB. Holding the
        # normalized edge set and a sorted copy of every neighbour list
        # through the build peaked at 1.85x that; freeing the set once the
        # edges are sorted peaks at 1.49x.
        edges = list(topology._pairs_within(np.random.default_rng(1).random((4000, 2)), 0.06))
        tracemalloc.start()
        try:
            graph = Graph(4000, edges)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.edge_count == 85_697
        assert peak < 1.6 * kept

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(f"{self.NODES}\n0 1\n", newline="\n")
        graph, peak = self.traced_peak(lambda: read_edge_list(path))
        assert peak < 1 << 20
        assert (graph.node_count, graph.edges) == (self.NODES, ((0, 1),))


class TestFullMesh:
    @pytest.mark.parametrize("m,edges", [(2, 1), (3, 3), (20, 190)])
    def test_edge_counts(self, m, edges):
        assert full_mesh(m).edge_count == edges

    def test_every_node_has_full_degree(self):
        g = full_mesh(5)
        for n in range(5):
            assert g.neighbors(n) == tuple(i for i in range(5) if i != n)

    def test_too_few(self):
        with pytest.raises(TooFewNodes):
            full_mesh(1)


class TestFromEdgeList:
    def test_path_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.is_connected()
        assert g.diameter() == 3

    def test_duplicates_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph(3, [(2, 2)])

    def test_invalid_node_rejected(self):
        with pytest.raises(InvalidEdge):
            Graph(3, [(0, 3)])

    def test_no_nodes_rejected(self):
        with pytest.raises(TooFewNodes):
            Graph(0, [])


class TestQueries:
    def test_path_connected_and_diameter(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.is_connected()
        assert g.diameter() == 3

    def test_two_isolated_edges_not_connected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        with pytest.raises(NotConnected):
            g.diameter()

    def test_neighbors_exclude_self(self):
        g = full_mesh(6)
        for n in range(6):
            assert n not in g.neighbors(n)

    def test_neighbors_bad_index(self):
        with pytest.raises(BadVariableIndex):
            full_mesh(3).neighbors(3)

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)


class TestRandomGeometric:
    def test_max_radius_gives_full_mesh(self):
        g = random_geometric(6, float(np.sqrt(2.0)), seed=1)
        assert g.edge_count == 15

    def test_mean_degree_calibration(self):
        # Disk radius 0.35 at 20 nodes lands the observed 6-7 neighbor
        # regime; the across-seed mean must stay in [5, 8].
        degrees = [random_geometric(20, 0.35, seed).mean_degree() for seed in range(20)]
        assert 5.0 <= float(np.mean(degrees)) <= 8.0

    def test_always_connected(self):
        for seed in range(10):
            assert random_geometric(12, 0.4, seed).is_connected()

    def test_deterministic(self):
        a = random_geometric(15, 0.4, seed=3)
        b = random_geometric(15, 0.4, seed=3)
        assert a.edges == b.edges

    def test_impossible_radius_fails_loudly(self):
        with pytest.raises(CouldNotConnect):
            random_geometric(20, 0.01, seed=0)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            random_geometric(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_geometric(5, 1.5, seed=0)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            random_geometric(1, 0.5, seed=0)


class TestEdgeListFiles:
    def test_round_trip(self, tmp_path):
        g = random_geometric(10, 0.5, seed=4)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.node_count == g.node_count
        assert back.edges == g.edges

    def test_format(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)])
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        assert path.read_text() == "3\n0 1\n1 2\n"

    @pytest.mark.parametrize("text, line", [
        ("3\n0 1 2\n", 2),
        ("three\n0 1\n", 1),
        ("3\n0 1\n1 two\n", 3),
    ])
    def test_malformed_pair(self, tmp_path, text, line):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_edge_list(path)
        assert exc.value.line_number == line

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            read_edge_list(path)
