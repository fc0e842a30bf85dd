import doctest
import itertools

import pytest

import cellspec.quiver as quiver_module
from cellspec.dihedral import enumerate_B
from cellspec.intmat import IntMatrix, spectrum_in_range
from cellspec.quiver import (
    NotSimplyLacedDynkinError,
    ZigzagAlgebra,
    dynkin_type_of_graph,
)
from frozen import DYNKIN_EXPECTATIONS, HYPOTHETICAL_12_M, REFERENCE_ASSEMBLIES


def test_doctests():
    assert doctest.testmod(quiver_module).failed == 0


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


class TestConstruction:
    def test_from_graph(self):
        z = ZigzagAlgebra.from_graph(3, [(1, 2), (2, 3)])
        assert z.edges == ((1, 2), (2, 3))
        assert z.neighbors(2) == (1, 3)
        assert z.total_dimension() == 2 * 3 + 2 * 2

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_graph(4, [(1, 2), (3, 4)])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_graph(2, [(1, 1)])
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_graph(2, [(0, 1)])

    def test_from_m_matrix_round_trip(self):
        m = IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        z = ZigzagAlgebra.from_m_matrix(m)
        assert z.cartan_matrix() == m
        assert z.adjacency_matrix() == m - 2 * IntMatrix.identity(3)

    def test_from_m_matrix_validation(self):
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows([[1, 1], [1, 2]]))
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows([[2, 2], [2, 2]]))
        with pytest.raises(ValueError):
            ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows([[2, 1], [0, 2]]))


class TestLoewy:
    def test_path_layers(self):
        z = ZigzagAlgebra.from_graph(3, path_edges(3))
        assert z.loewy_layers(1) == ((1,), (2,), (1,))
        assert z.loewy_layers(2) == ((2,), (1, 3), (2,))

    def test_single_vertex(self):
        z = ZigzagAlgebra.from_graph(1, [])
        assert z.loewy_layers(1) == ((1,), (1,))
        assert z.total_dimension() == 2


class TestDynkinTypes:
    def test_paths(self):
        for n in range(1, 9):
            assert dynkin_type_of_graph(n, path_edges(n)) == f"A{n}"

    def test_d_series(self):
        for n in range(4, 9):
            edges = path_edges(n - 1) + [(n - 2, n)]
            assert dynkin_type_of_graph(n, edges) == f"D{n}"

    def test_e_series(self):
        e6 = path_edges(5) + [(3, 6)]
        e7 = path_edges(6) + [(3, 7)]
        e8 = path_edges(7) + [(3, 8)]
        assert dynkin_type_of_graph(6, e6) == "E6"
        assert dynkin_type_of_graph(7, e7) == "E7"
        assert dynkin_type_of_graph(8, e8) == "E8"

    def test_non_dynkin_rejected(self):
        cases = [
            (3, [(1, 2), (2, 3), (1, 3)]),  # cycle
            (9, path_edges(8) + [(3, 9)]),  # arms (2, 5) at vertex 3: E9
            (5, [(1, 5), (2, 5), (3, 5), (4, 5)]),  # degree 4 star
            (7, [(1, 4), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7)]),
        ]
        for n, edges in cases:
            with pytest.raises(NotSimplyLacedDynkinError):
                dynkin_type_of_graph(n, edges)

    def test_two_branch_vertices_rejected(self):
        edges = path_edges(6) + [(2, 7), (5, 8)]
        with pytest.raises(NotSimplyLacedDynkinError):
            dynkin_type_of_graph(8, edges)

    @pytest.mark.parametrize("edges", [
        [(1, 2), (2, 1), (2, 3)],
        [(1, 2), (1, 2), (2, 3)],
        [(2, 3), (1, 2), (3, 2)],
    ])
    def test_a_repeated_edge_counts_once(self, edges):
        assert dynkin_type_of_graph(3, edges) == "A3"

    @pytest.mark.parametrize("n, edges", [
        (2, [(1, 3)]),  # a vertex above n
        (2, [(0, 1)]),  # a vertex below 1
        (2, [(1, 1)]),  # a loop
        (3, [(1, 2), (2, 2)]),  # a loop on a path's vertex
    ])
    def test_bad_edges_are_refused_as_from_graph_refuses_them(self, n, edges):
        i, j = edges[-1]
        message = f"^bad edge \\({i}, {j}\\)$"
        with pytest.raises(ValueError, match=message) as reader:
            dynkin_type_of_graph(n, edges)
        assert not isinstance(reader.value, NotSimplyLacedDynkinError)
        with pytest.raises(ValueError) as algebra:
            ZigzagAlgebra.from_graph(n, edges)
        assert str(reader.value) == str(algebra.value)


class TestSpectralBridge:
    """The Gram-style matrix 2I + A of a connected graph has spectrum inside
    [0, 4) exactly when the graph is a simply laced Dynkin diagram."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_graphs(self, n):
        vertices = list(range(1, n + 1))
        all_edges = list(itertools.combinations(vertices, 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for k, e in enumerate(all_edges) if mask >> k & 1]
            adj = [[0] * n for _ in range(n)]
            for a, b in edges:
                adj[a - 1][b - 1] = adj[b - 1][a - 1] = 1
            # connectivity
            seen = {1}
            stack = [1]
            while stack:
                v = stack.pop()
                for w in vertices:
                    if adj[v - 1][w - 1] and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                continue
            m = IntMatrix.from_rows(
                [[2 if i == j else adj[i][j] for j in range(n)]
                 for i in range(n)]
            )
            small_spectrum = spectrum_in_range(m, 0, 4)
            try:
                dynkin_type_of_graph(n, edges)
                is_dynkin = True
            except NotSimplyLacedDynkinError:
                is_dynkin = False
            assert small_spectrum == is_dynkin, edges

    def test_six_vertex_examples(self):
        d6 = path_edges(5) + [(4, 6)]
        e6 = path_edges(5) + [(3, 6)]
        cycle = path_edges(6) + [(1, 6)]
        for edges, expect in [(d6, True), (e6, True), (cycle, False),
                              (path_edges(6), True)]:
            adj = [[0] * 6 for _ in range(6)]
            for a, b in edges:
                adj[a - 1][b - 1] = adj[b - 1][a - 1] = 1
            m = IntMatrix.from_rows(
                [[2 if i == j else adj[i][j] for j in range(6)]
                 for i in range(6)]
            )
            assert spectrum_in_range(m, 0, 4) == expect


class TestReferenceMatrices:
    def test_expected_types(self):
        for name, idx, expect in DYNKIN_EXPECTATIONS:
            _, rows = REFERENCE_ASSEMBLIES[name][idx]
            z = ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows(rows))
            assert z.dynkin_type() == expect, (name, idx)

    def test_hypothetical_level_12(self):
        z = ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows(HYPOTHETICAL_12_M))
        assert z.dynkin_type() == "E6"

    def test_h3_projective_at_branch(self):
        _, rows = REFERENCE_ASSEMBLIES["H3"][0]
        z = ZigzagAlgebra.from_m_matrix(IntMatrix.from_rows(rows))
        assert z.loewy_layers(3) == ((3,), (1, 2, 5), (3,))

    def test_dihedral_candidate_graphs(self):
        # the minimal even-level candidate gives the star with three arms,
        # then one longer arm as the level grows
        for n, expect in [(6, "D4"), (8, "D5"), (10, "D6")]:
            b = next(c.matrix for c in enumerate_B(n) if c.family == "extension")
            r, c = b.shape
            rows = [
                [0] * r + list(b.rows[i]) for i in range(r)
            ]
            rows += [
                list(b.transpose().rows[j]) + [0] * c for j in range(c)
            ]
            m = IntMatrix.from_rows(
                [[2 if i == j else rows[i][j] for j in range(r + c)]
                 for i in range(r + c)]
            )
            assert ZigzagAlgebra.from_m_matrix(m).dynkin_type() == expect
        # cell-sized candidates give paths
        for n in (6, 8, 10):
            b = enumerate_B(n)[0].matrix  # the wide staircase
            r, c = b.shape
            rows = [[0] * r + list(b.rows[i]) for i in range(r)]
            rows += [list(b.transpose().rows[j]) + [0] * c for j in range(c)]
            m = IntMatrix.from_rows(
                [[2 if i == j else rows[i][j] for j in range(r + c)]
                 for i in range(r + c)]
            )
            assert ZigzagAlgebra.from_m_matrix(m).dynkin_type() == f"A{n - 1}"
