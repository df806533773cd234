"""Fixed encounter topologies: full mesh and connected multi-hop graphs.

Graphs are simple and undirected. :func:`random_geometric` realizes a
disk-connectivity model: nodes placed uniformly in the unit square, an edge
wherever the Euclidean distance is within the given radius, regenerated until
the graph is connected so multi-hop forwarding is always feasible.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable

import numpy as np

from .errors import (
    BadVariableIndex,
    CouldNotConnect,
    InvalidEdge,
    NotConnected,
    ParseError,
    SelfLoop,
    TooFewNodes,
)

MAX_PLACEMENT_ATTEMPTS = 1000


class Graph:
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


def full_mesh(node_count: int) -> Graph:
    """Complete graph: every node one hop from every other."""
    if node_count < 2:
        raise TooFewNodes("a mesh needs at least two nodes")
    edges = [(i, j) for i in range(node_count) for j in range(i + 1, node_count)]
    return Graph(node_count, edges)


def random_geometric(node_count: int, radius: float, seed: int) -> Graph:
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
        graph = Graph(node_count, edges)
        if graph.is_connected():
            return graph
    raise CouldNotConnect(
        f"no connected placement in {MAX_PLACEMENT_ATTEMPTS} attempts "
        f"(radius {radius} too small for {node_count} nodes?)"
    )


# -- edge list files ----------------------------------------------------------
#
# Format: first line the node count, then one "i j" pair per line.


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{graph.node_count}\n")
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def read_edge_list(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(1, "empty edge list file")
    try:
        node_count = int(lines[0])
    except ValueError:
        raise ParseError(1, f"expected node count, got {lines[0]!r}") from None
    pairs = []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(line_number, f"expected 'i j', got {line!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(line_number, f"non-integer node id in {line!r}") from None
    return Graph(node_count, pairs)
