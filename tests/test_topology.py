"""Tests for topology construction and graph queries."""

import numpy as np
import pytest

from oppknow import (
    Graph,
    full_mesh,
    random_geometric,
    read_edge_list,
    write_edge_list,
)
from oppknow.errors import (
    BadVariableIndex,
    CouldNotConnect,
    InvalidEdge,
    NotConnected,
    ParseError,
    SelfLoop,
    TooFewNodes,
)


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

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("3\n0 1 2\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            read_edge_list(path)
