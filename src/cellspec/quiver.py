"""Zigzag algebras of graphs, read off cell matrices of the form 2I + A.

A symmetric 0-1-off-diagonal matrix M with every diagonal entry 2 encodes a
simple graph via A = M - 2I.  The zigzag algebra of a connected graph with at
least two vertices has, for each vertex v, an idempotent e_v, a loop-like
socle element c_v of degree 2, and an arrow in each direction along every
edge; its Cartan matrix (dimensions of e_w A e_v) is exactly 2I + A = M, so
the encoding round-trips.  Projective indecomposables are thin: P_v has
radical layers [v], neighbors of v, [v].

The graph eigenvalue bridge: M = 2I + A has all eigenvalues in [0, 4)
exactly when A has spectral radius strictly below 2, which for connected
graphs happens exactly for the simply laced Dynkin diagrams A_n, D_n, E6,
E7, E8.  dynkin_type names the diagram and raises NotSimplyLacedDynkinError
on any other graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import IntMatrix, reachable


class NotSimplyLacedDynkinError(ValueError):
    """The graph is not one of A_n, D_n, E6, E7, E8."""


@dataclass(frozen=True)
class ZigzagAlgebra:
    """The zigzag algebra of a simple connected graph, stored by its
    adjacency structure (1-based vertex names)."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # 1-based, i < j, sorted

    @staticmethod
    def from_graph(n_vertices: int, edges) -> "ZigzagAlgebra":
        if n_vertices < 1:
            raise ValueError("at least one vertex required")
        cleaned = set()
        for i, j in edges:
            if not (1 <= i <= n_vertices and 1 <= j <= n_vertices) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            cleaned.add((min(i, j), max(i, j)))
        algebra = ZigzagAlgebra(n_vertices, tuple(sorted(cleaned)))
        if not algebra.is_connected():
            raise ValueError("graph must be connected")
        return algebra

    @staticmethod
    def from_m_matrix(m: IntMatrix) -> "ZigzagAlgebra":
        """Decode a cell matrix: symmetric, diagonal 2, off-diagonal 0 or 1.

        >>> z = ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows(
        ...     [[2, 1], [1, 2]]))
        >>> z.edges
        ((1, 2),)
        """
        if not m.is_square():
            raise ValueError("matrix must be square")
        n = m.n_rows
        if not m.is_symmetric():
            raise ValueError("matrix must be symmetric")
        edges = []
        for i in range(n):
            if m.rows[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(i + 1, n):
                if m.rows[i][j] not in (0, 1):
                    raise ValueError("off-diagonal entries must be 0 or 1")
                if m.rows[i][j] == 1:
                    edges.append((i + 1, j + 1))
        return ZigzagAlgebra.from_graph(n, edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        for i, j in self.edges:
            if i == v:
                out.append(j)
            elif j == v:
                out.append(i)
        return tuple(sorted(out))

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return True
        adjacency = {v: self.neighbors(v) for v in range(1, self.n_vertices + 1)}
        return len(reachable(adjacency, start=1)) == self.n_vertices

    def adjacency_matrix(self) -> IntMatrix:
        n = self.n_vertices
        rows = [[0] * n for _ in range(n)]
        for i, j in self.edges:
            rows[i - 1][j - 1] = 1
            rows[j - 1][i - 1] = 1
        return IntMatrix.from_rows(rows)

    def cartan_matrix(self) -> IntMatrix:
        """Dimensions of the Hom spaces between projectives: 2I + adjacency.
        This inverts from_m_matrix."""
        return 2 * IntMatrix.identity(self.n_vertices) + self.adjacency_matrix()

    def loewy_layers(self, v: int) -> tuple[tuple[int, ...], ...]:
        """Radical layers of the projective at v: top [v], middle the
        neighbors, socle [v].  A single isolated vertex (graph with one
        vertex) degenerates to [v], [v]."""
        if not 1 <= v <= self.n_vertices:
            raise ValueError("vertex out of range")
        middle = self.neighbors(v)
        if not middle:
            return ((v,), (v,))
        return ((v,), middle, (v,))

    def total_dimension(self) -> int:
        """2 per vertex plus 2 per edge (one arrow each way)."""
        return 2 * self.n_vertices + 2 * len(self.edges)

    def dynkin_type(self) -> str:
        """The simply laced Dynkin name of the underlying graph.

        >>> ZigzagAlgebra.from_graph(3, [(1, 2), (2, 3)]).dynkin_type()
        'A3'
        """
        return dynkin_type_of_graph(self.n_vertices, self.edges)


def dynkin_type_of_graph(n_vertices: int, edges) -> str:
    """Classify a connected simple graph as A_n, D_n, E6, E7 or E8.

    The test is structural: a tree with no vertex of degree >= 4 and at most
    one vertex of degree 3; paths are A_n, arm lengths (1, 1, c) give
    D_(c+3), and (1, 2, c) with c in (2, 3, 4) give E6, E7, E8.
    """
    edges = tuple(tuple(sorted(e)) for e in edges)
    if len(set(edges)) != n_vertices - 1:
        raise NotSimplyLacedDynkinError("graph is not a tree")
    degree = {v: 0 for v in range(1, n_vertices + 1)}
    adjacency = {v: [] for v in range(1, n_vertices + 1)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
        adjacency[i].append(j)
        adjacency[j].append(i)
    # connectivity: a tree on n vertices with n-1 distinct edges is connected
    # exactly when every vertex is reachable from vertex 1
    if len(reachable(adjacency, start=1)) != n_vertices:
        raise NotSimplyLacedDynkinError("graph is disconnected")
    if any(d >= 4 for d in degree.values()):
        raise NotSimplyLacedDynkinError("a vertex has degree at least 4")
    branch = [v for v, d in degree.items() if d == 3]
    if len(branch) > 1:
        raise NotSimplyLacedDynkinError("more than one branch vertex")
    if not branch:
        return f"A{n_vertices}"
    center = branch[0]
    arms = []
    for start in adjacency[center]:
        length = 1
        prev, cur = center, start
        while degree[cur] == 2:
            nxt = [w for w in adjacency[cur] if w != prev][0]
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise NotSimplyLacedDynkinError(f"arm lengths {tuple(arms)}")
    if arms[1] == 1:
        return f"D{arms[2] + 3}"
    if arms[1] == 2 and arms[2] in (2, 3, 4):
        return f"E{arms[2] + 4}"
    raise NotSimplyLacedDynkinError(f"arm lengths {tuple(arms)}")
