import doctest
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.coxeter as coxeter_module
from cellspec.coxeter import (
    CoxeterSystem,
    cell_table,
    enumerate_J,
    has_unique_reduced_expression,
    is_reduced,
    tits_orbit,
)
from frozen import CELL_TABLES, CELL_TABLE_SIZES, COXETER_MATRICES
from oracles import (
    cayley_unique_word_elements,
    dihedral_gens,
    element_order,
    enumerate_J_by_orbit_filter,
    perm_gens_a,
    reflection_gens_h3,
    signed_perm_gens_b,
    signed_perm_gens_d4,
)


def test_doctests():
    assert doctest.testmod(coxeter_module).failed == 0


def words_to_strings(words):
    return tuple("".join(str(g) for g in w) for w in words)


class TestSystems:
    def test_from_name(self):
        assert CoxeterSystem.from_name("A3").rank == 3
        assert CoxeterSystem.from_name("I2_7").m(1, 2) == 7
        assert CoxeterSystem.from_name("I2(7)").m(1, 2) == 7
        assert CoxeterSystem.from_name("B4").m(1, 2) == 4
        assert CoxeterSystem.from_name("H3").m(1, 2) == 5
        assert CoxeterSystem.from_name("F4").m(2, 3) == 4
        with pytest.raises(ValueError):
            CoxeterSystem.from_name("Z9")

    def test_coxeter_matrix_shape(self):
        s = CoxeterSystem.from_name("D4")
        assert s.m(1, 2) == 3 and s.m(2, 4) == 3 and s.m(3, 4) == 2
        s = CoxeterSystem.from_name("F4")
        assert [s.m(1, 2), s.m(2, 3), s.m(3, 4)] == [3, 4, 3]

    @pytest.mark.parametrize("name", sorted(COXETER_MATRICES))
    def test_pinned_matrices(self, name):
        stored, rows = COXETER_MATRICES[name]
        s = CoxeterSystem.from_name(name)
        assert (s.name, s.rank) == (stored, len(rows))
        assert s.coxeter_matrix == tuple(tuple(map(int, r.split())) for r in rows)

    def test_aliases(self):
        assert CoxeterSystem.from_name("G2") == CoxeterSystem.from_name("I2_6")
        assert CoxeterSystem.from_name("C5") == CoxeterSystem.from_name("B5")

    @pytest.mark.parametrize(
        "token, message",
        [("", "cannot parse Coxeter type ''"),
         ("A0", "Coxeter type 'A0': rank must be at least 1"),
         ("C1", "Coxeter type 'C1': rank must be at least 2"),
         ("D3", "Coxeter type 'D3': rank must be at least 4"),
         ("E5", "unsupported Coxeter type 'E5'"),
         ("E9", "unsupported Coxeter type 'E9'"),
         ("F5", "unsupported Coxeter type 'F5'"),
         ("H5", "unsupported Coxeter type 'H5'"),
         ("G3", "unsupported Coxeter type 'G3'"),
         pytest.param("I2_2", "Coxeter type 'I2_2': order must be at least 3",
                      id="I2_2-dihedral order must be at least 3"),
         ("I2(1)", "Coxeter type 'I2(1)': order must be at least 3"),
         ("I2_x", "cannot parse Coxeter type 'I2_x'"),
         ("I2(x)", "cannot parse Coxeter type 'I2(x)'"),
         ("I2_", "cannot parse Coxeter type 'I2_'"),
         ("A\u00b2", "cannot parse Coxeter type 'A\u00b2'")],
    )
    def test_refused_names(self, token, message):
        with pytest.raises(ValueError) as info:
            CoxeterSystem.from_name(token)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "token, message",
        [("A129", "oversized Coxeter type 'A129': rank at most 128"),
         ("C129", "oversized Coxeter type 'C129': rank at most 128"),
         ("D" + "9" * 5000,
          f"oversized Coxeter type '{'D' + '9' * 5000}': rank at most 128"),
         ("I2_2001", "oversized Coxeter type 'I2_2001': order at most 2000"),
         ("I2(" + "9" * 5000 + ")",
          f"oversized Coxeter type '{'I2(' + '9' * 5000 + ')'}': order at most 2000")],
    )
    def test_oversized_names(self, token, message):
        with pytest.raises(ValueError) as info:
            CoxeterSystem.from_name(token)
        assert str(info.value) == message

    def test_largest_accepted_names(self):
        assert CoxeterSystem.from_name("A0128").rank == 128
        assert CoxeterSystem.from_name("I2_" + "0" * 5000 + "2000").m(1, 2) == 2000


class TestReducedWords:
    def test_basic(self):
        a2 = CoxeterSystem.from_name("A2")
        assert is_reduced(a2, (1, 2, 1))
        assert not is_reduced(a2, (1, 1))
        assert not is_reduced(a2, (1, 2, 1, 2))  # braid move exposes 11

    def test_orbit(self):
        a2 = CoxeterSystem.from_name("A2")
        assert tits_orbit(a2, (1, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
        b2 = CoxeterSystem.dihedral(4)
        assert tits_orbit(b2, (1, 2, 1)) == {(1, 2, 1)}

    def test_unique_expression(self):
        a2 = CoxeterSystem.from_name("A2")
        assert has_unique_reduced_expression(a2, (1, 2))
        assert not has_unique_reduced_expression(a2, (1, 2, 1))
        with pytest.raises(ValueError):
            has_unique_reduced_expression(a2, (1, 1))


class TestFrozenTables:
    @pytest.mark.parametrize("name", sorted(CELL_TABLES))
    def test_table_matches(self, name):
        system = CoxeterSystem.from_name(name)
        table = cell_table(system)
        assert table.size == CELL_TABLE_SIZES[name]
        for i in system.generators:
            for j in system.generators:
                got = words_to_strings(table.box(i, j))
                expected = CELL_TABLES[name].get((i, j), ())
                assert got == expected, (name, i, j)

    @pytest.mark.parametrize("name", sorted(CELL_TABLES))
    def test_rows_and_columns_partition(self, name):
        system = CoxeterSystem.from_name(name)
        table = cell_table(system)
        all_words = set(table.elements)
        from_rows = set()
        for i in system.generators:
            row = table.row(i)
            assert all(w[0] == i for w in row)
            from_rows.update(row)
        assert from_rows == all_words
        from_cols = set()
        for j in system.generators:
            col = table.column(j)
            assert all(w[-1] == j for w in col)
            from_cols.update(col)
        assert from_cols == all_words


class TestDihedralCounts:
    @pytest.mark.parametrize("k", range(3, 13))
    def test_box_sizes(self, k):
        system = CoxeterSystem.dihedral(k)
        table = cell_table(system)
        assert table.size == 2 * (k - 1)
        diag = k // 2
        off = k // 2 if k % 2 == 1 else k // 2 - 1
        assert len(table.box(1, 1)) == diag
        assert len(table.box(2, 2)) == diag
        assert len(table.box(1, 2)) == off
        assert len(table.box(2, 1)) == off
        assert max(len(w) for w in table.elements) == k - 1


def tree_path(system, i, j):
    """The vertices of the path from i to j in a tree-shaped diagram."""
    paths = {i: (i,)}
    frontier = [i]
    while frontier:
        v = frontier.pop()
        for u in system.generators:
            if u not in paths and system.m(v, u) > 2:
                paths[u] = paths[v] + (u,)
                frontier.append(u)
    return paths[j]


SIMPLY_LACED = (
    [f"A{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8"]
)


class TestSimplyLacedTrees:
    """In a simply laced type whose diagram is a tree, the elements with a
    unique reduced expression are the paths between two vertices, so box
    (i, j) holds the single path from i to j and J has rank**2 elements."""

    @pytest.mark.parametrize("name", SIMPLY_LACED)
    def test_rank_squared_paths(self, name):
        system = CoxeterSystem.from_name(name)
        table = cell_table(system)
        assert table.size == system.rank**2
        for i in system.generators:
            for j in system.generators:
                assert table.box(i, j) == (tree_path(system, i, j),), (i, j)

    @pytest.mark.parametrize("name", ["E6", "E7", "E8", "G2"])
    def test_matches_orbit_filter(self, name):
        system = CoxeterSystem.from_name(name)
        words = enumerate_J(system)
        cap = max(len(w) for w in words) + 1
        assert words == enumerate_J_by_orbit_filter(system, cap)


class TestGroupOracle:
    """Walk an explicit faithful realization of each group and count reduced
    words per element by dynamic programming over the Cayley graph; the
    words returned by enumerate_J must biject onto the elements with a
    unique reduced word."""

    def check(self, system, identity, gens, mul):
        for i in range(system.rank):
            for j in range(i + 1, system.rank):
                prod = mul(gens[i], gens[j])
                assert element_order(prod, identity, mul) == system.m(
                    i + 1, j + 1
                ), (i, j)
        dist, ways, unique = cayley_unique_word_elements(identity, gens, mul)
        words = enumerate_J(system)
        images = []
        for w in words:
            g = identity
            for letter in w:
                g = mul(g, gens[letter - 1])
            assert dist[g] == len(w), w
            images.append(g)
        assert len(set(images)) == len(words)
        assert set(images) == unique

    def test_a3(self):
        self.check(CoxeterSystem.from_name("A3"), *perm_gens_a(4))

    def test_b3(self):
        self.check(CoxeterSystem.from_name("B3"), *signed_perm_gens_b(3))

    def test_b4(self):
        self.check(CoxeterSystem.from_name("B4"), *signed_perm_gens_b(4))

    def test_d4(self):
        self.check(CoxeterSystem.from_name("D4"), *signed_perm_gens_d4())

    def test_h3(self):
        self.check(CoxeterSystem.from_name("H3"), *reflection_gens_h3())

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 10, 12])
    def test_dihedral(self, m):
        self.check(CoxeterSystem.dihedral(m), *dihedral_gens(m))


class TestEnumerateJ:
    def test_max_length_truncation(self):
        system = CoxeterSystem.from_name("H3")
        short = enumerate_J(system, max_length=2)
        assert all(len(w) <= 2 for w in short)
        full = enumerate_J(system)
        assert set(short) == {w for w in full if len(w) <= 2}

    def test_prefix_closed(self):
        system = CoxeterSystem.from_name("B4")
        words = set(enumerate_J(system))
        for w in words:
            if len(w) > 1:
                assert w[:-1] in words, w

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_orbit_filter_on_random_systems(self, data):
        # Random Coxeter matrices, so cyclic diagrams and infinite groups
        # (where only max_length stops the search) are both common.
        rank = data.draw(st.integers(2, 5))
        mat = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for i, j in combinations(range(rank), 2):
            mat[i][j] = mat[j][i] = data.draw(st.integers(2, 8))
        system = CoxeterSystem("random", rank, tuple(map(tuple, mat)))
        max_length = data.draw(st.integers(1, 7))
        assert enumerate_J(system, max_length=max_length) == (
            enumerate_J_by_orbit_filter(system, max_length)
        )


class TestSizesAtTheBounds:
    """|J| in closed form at the largest rank and order from_name accepts.  A
    simply laced tree has one element per ordered pair of vertices, B_n has
    2n^2 - 2n + 2 (14 and 26 for B3 and B4, as in the frozen tables, and
    482 for B16, as the benchmark expects) and I2_m has 2(m - 1)."""

    @pytest.mark.parametrize("name, size", [
        ("A128", 128**2),
        ("D128", 128**2),
        ("B128", 2 * 128**2 - 2 * 128 + 2),
        ("I2_2000", 2 * 1999),
    ])
    def test_size(self, name, size):
        assert len(enumerate_J(CoxeterSystem.from_name(name))) == size

    def test_b128_is_sorted_and_prefix_closed(self):
        words = enumerate_J(CoxeterSystem.from_name("B128"))
        assert words == sorted(words, key=lambda w: (len(w), w))
        kept = set(words)
        assert all(len(w) == 1 or w[:-1] in kept for w in words)
