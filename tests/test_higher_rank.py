import doctest
import functools
import math
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.higher_rank as higher_rank_module
from cellspec.coxeter import CoxeterSystem
from cellspec.dihedral import annihilation_test
from cellspec.fibpoly import IntPolynomial
from cellspec.higher_rank import (
    _edge_block,
    _sizes_feasible,
    assembly_search,
    assembly_violations,
    b_family_matrix,
    conjugation_canonical,
    reflection_sign_matrix,
    shared_top_eigenvalue,
    special_modules,
)
from cellspec.intmat import (
    IntMatrix,
    _block_matrix,
    charpoly,
    is_connected,
    is_irreducible_nonneg,
    slot_ranges,
)
from cellspec.staircase import canonical_form
from frozen import REFERENCE_ASSEMBLIES
from oracles import (
    assembly_search_by_every_wiring,
    conjugation_canonical_by_permutations,
    edge_wirings,
)

FEASIBLE_EDGES = [
    (order, a, b)
    for order in (3, 4, 5)
    for a in range(1, 6)
    for b in range(1, 6)
    if _sizes_feasible(order, a, b)
]
# the (order, rows, cols) edges the five reference searches meet at max_total=16
SEARCH_EDGES = [
    (3, 1, 1), (3, 2, 2), (3, 3, 3), (3, 4, 4), (3, 5, 5), (3, 6, 6),
    (4, 1, 2), (4, 2, 1), (4, 2, 4), (4, 3, 3), (4, 3, 6), (4, 4, 2),
    (4, 4, 5), (4, 5, 4), (4, 6, 3), (4, 8, 4), (5, 2, 2), (5, 4, 4),
]
LEMMA_EDGES = sorted(set(FEASIBLE_EDGES) | set(SEARCH_EDGES))
REFERENCE_NAMES = ["B3", "H3", "F4", "B4", "H4"]
# hand-built trees with one bond of order 4 or 5, on the first, a middle or
# the last edge of the breadth-first order from generator 1, or at a branch
# vertex, each at a bound the every-wiring reference reaches within a second
ONE_HEAVY_BOND_TREES = [
    (3, {(1, 3): 4, (2, 3): 3}, 12),  # first edge, labels off the path order
    (3, {(1, 2): 5, (2, 3): 3}, 11),  # first edge
    (4, {(1, 2): 3, (2, 3): 5, (3, 4): 3}, 10),  # middle edge
    (5, {(1, 2): 3, (2, 3): 3, (3, 4): 4, (4, 5): 3}, 10),  # middle edge
    (3, {(1, 2): 3, (2, 3): 4}, 12),  # last edge
    (4, {(1, 2): 4, (2, 3): 3, (2, 4): 3}, 10),  # first edge, into the branch
    (4, {(1, 2): 3, (2, 3): 3, (2, 4): 4}, 10),  # last edge, out of the branch
    (5, {(1, 2): 3, (2, 3): 3, (2, 4): 5, (2, 5): 3}, 10),  # middle, at the branch
]
TWO_HEAVY = "diagram has more than one bond of order 4 or 5, so it is not of finite type"


def test_doctests():
    assert doctest.testmod(higher_rank_module).failed == 0


class TestReferenceData:
    def test_special_modules_match_frozen(self):
        for name, refs in REFERENCE_ASSEMBLIES.items():
            got = special_modules(name)
            assert len(got) == len(refs)
            for cand, (sizes, rows) in zip(got, refs):
                assert cand.sizes == sizes
                assert cand.matrix.to_lists() == rows

    def test_b_family_matrices(self):
        for n, family, idx in [(3, 1, 0), (3, 2, 1), (4, 1, 0), (4, 2, 1)]:
            sizes, rows = REFERENCE_ASSEMBLIES[f"B{n}"][idx]
            cand = b_family_matrix(n, family)
            assert cand.sizes == tuple(sizes)
            assert cand.matrix.to_lists() == rows

    @pytest.mark.parametrize("n", range(3, 9))
    def test_b_families_are_valid(self, n):
        system = CoxeterSystem.from_name(f"B{n}")
        for cand in special_modules(f"B{n}"):
            assert assembly_violations(system, cand.sizes, cand.matrix) == []

    def test_reflection_sign_matrices(self):
        h3 = reflection_sign_matrix("H3")
        h4 = reflection_sign_matrix("H4")
        assert h3.shape == (6, 6) and h4.shape == (8, 8)
        for m in (h3, h4):
            assert m.is_symmetric()
            # -phi on the order-5 bond, -1 on the simple bonds, 2 on the diagonal
            assert [list(r[2:4]) for r in m.rows[0:2]] == [[0, -1], [-1, -1]]
            assert [list(r[4:6]) for r in m.rows[2:4]] == [[-1, 0], [0, -1]]
            assert [list(r[0:2]) for r in m.rows[0:2]] == [[2, 0], [0, 2]]
            assert [list(r[4:6]) for r in m.rows[0:2]] == [[0, 0], [0, 0]]
        assert [list(r[6:8]) for r in h4.rows[4:6]] == [[-1, 0], [0, -1]]
        for name in ("H3", "H4"):
            assert charpoly(reflection_sign_matrix(name)) == charpoly(
                special_modules(name)[0].matrix
            )


class TestVerifier:
    def test_references_pass(self):
        for name, refs in REFERENCE_ASSEMBLIES.items():
            system = CoxeterSystem.from_name(name)
            for sizes, rows in refs:
                m = IntMatrix.from_rows(rows)
                assert assembly_violations(system, sizes, m) == []

    def test_detects_wrong_diagonal(self):
        system = CoxeterSystem.from_name("B3")
        sizes, rows = REFERENCE_ASSEMBLIES["B3"][0]
        bad = [list(r) for r in rows]
        bad[0][0] = 3
        problems = assembly_violations(system, sizes, IntMatrix.from_rows(bad))
        assert problems and any("diagonal" in p for p in problems)

    def test_detects_asymmetry(self):
        system = CoxeterSystem.from_name("B3")
        sizes, rows = REFERENCE_ASSEMBLIES["B3"][0]
        bad = [list(r) for r in rows]
        bad[0][3] = 1
        problems = assembly_violations(system, sizes, IntMatrix.from_rows(bad))
        assert problems and any("symmetric" in p for p in problems)

    def test_detects_nonzero_commuting_block(self):
        system = CoxeterSystem.from_name("B3")
        sizes, rows = REFERENCE_ASSEMBLIES["B3"][0]
        bad = [list(r) for r in rows]
        bad[0][3] = bad[3][0] = 1  # slots 1 and 3 commute in the diagram
        problems = assembly_violations(system, sizes, IntMatrix.from_rows(bad))
        assert problems

    def test_detects_wrong_level(self):
        # the H3 block between slots 1 and 2 must be killed by the order-5
        # polynomial; a block of the wrong gram spectrum must be flagged
        system = CoxeterSystem.from_name("H3")
        m = IntMatrix.from_rows(
            [
                [2, 0, 1, 0, 0, 0],
                [0, 2, 0, 1, 0, 0],
                [1, 0, 2, 0, 1, 0],
                [0, 1, 0, 2, 0, 1],
                [0, 0, 1, 0, 2, 0],
                [0, 0, 0, 1, 0, 2],
            ]
        )
        problems = assembly_violations(system, (2, 2, 2), m)
        assert problems

    def test_detects_reducible(self):
        system = CoxeterSystem.from_name("A2")
        m = IntMatrix.from_rows(
            [
                [2, 0, 1, 0],
                [0, 2, 0, 1],
                [1, 0, 2, 0],
                [0, 1, 0, 2],
            ]
        )
        problems = assembly_violations(system, (2, 2), m)
        assert problems and any("reducible" in p for p in problems)

    def test_size_mismatch(self):
        system = CoxeterSystem.from_name("B3")
        sizes, rows = REFERENCE_ASSEMBLIES["B3"][0]
        problems = assembly_violations(
            system, (1, 1, 1), IntMatrix.from_rows(rows)
        )
        assert problems


class TestSearch:
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_search_finds_exactly_the_references(self, name):
        system = CoxeterSystem.from_name(name)
        found = assembly_search(system, max_total=16)
        keys = {
            (c.sizes, conjugation_canonical(c.matrix, c.sizes).rows)
            for c in found
        }
        expected = {
            (sizes, conjugation_canonical(IntMatrix.from_rows(rows), sizes).rows)
            for sizes, rows in REFERENCE_ASSEMBLIES[name]
        }
        assert keys == expected

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_search_reaches_max_total(self, name):
        system = CoxeterSystem.from_name(name)
        for sizes, _ in REFERENCE_ASSEMBLIES[name]:
            found = assembly_search(system, max_total=sum(sizes))
            assert sizes in {c.sizes for c in found}

    def test_a_series(self):
        found = assembly_search(CoxeterSystem.from_name("A2"), max_total=10)
        assert [c.matrix.to_lists() for c in found] == [[[2, 1], [1, 2]]]
        found = assembly_search(CoxeterSystem.from_name("A3"), max_total=12)
        assert [c.matrix.to_lists() for c in found] == [
            [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        ]

    def test_branching_diagrams(self):
        # D4 and D5 are the only branching diagrams, so the only inputs whose
        # breadth-first edge orientation is not a path.
        found = assembly_search(CoxeterSystem.from_name("D4"), max_total=12)
        assert [(c.sizes, c.matrix.to_lists()) for c in found] == [
            (
                (1, 1, 1, 1),
                [[2, 1, 0, 0], [1, 2, 1, 1], [0, 1, 2, 0], [0, 1, 0, 2]],
            )
        ]
        found = assembly_search(CoxeterSystem.from_name("D5"), max_total=10)
        assert [(c.sizes, c.matrix.to_lists()) for c in found] == [
            (
                (1, 1, 1, 1, 1),
                [
                    [2, 1, 0, 0, 0],
                    [1, 2, 1, 0, 1],
                    [0, 1, 2, 1, 0],
                    [0, 0, 1, 2, 0],
                    [0, 1, 0, 0, 2],
                ],
            )
        ]

    def test_rank2_order5(self):
        found = assembly_search(CoxeterSystem.dihedral(5), max_total=12)
        assert len(found) == 1
        cand = found[0]
        assert cand.sizes == (2, 2)
        # the off-diagonal block must be the square staircase up to
        # permutation: three ones in a 2x2 block
        block = [row[2:] for row in cand.matrix.to_lists()[:2]]
        assert sum(sum(r) for r in block) == 3

    def test_unsupported_orders_raise(self):
        with pytest.raises(ValueError):
            assembly_search(CoxeterSystem.dihedral(6))
        with pytest.raises(ValueError):
            assembly_search(CoxeterSystem.dihedral(7))

    def test_search_results_verify(self):
        for name in REFERENCE_NAMES:
            system = CoxeterSystem.from_name(name)
            for cand in assembly_search(system, max_total=16):
                assert not assembly_violations(system, cand.sizes, cand.matrix)

    @pytest.mark.parametrize("rank, edges, max_total", ONE_HEAVY_BOND_TREES)
    def test_matches_every_wiring_on_trees_with_one_heavy_bond(
        self, rank, edges, max_total
    ):
        system = CoxeterSystem._from_edges("T", rank, edges)
        found = assembly_search(system, max_total=max_total)
        assert [(c.sizes, c.matrix.rows) for c in found] == (
            assembly_search_by_every_wiring(system, max_total)
        )

    @pytest.mark.parametrize("rank, edges", [
        (3, {(1, 2): 4, (2, 3): 4}),
        (3, {(1, 2): 5, (2, 3): 4}),
        (4, {(1, 2): 4, (2, 3): 3, (3, 4): 5}),
        (4, {(1, 2): 3, (2, 3): 5, (2, 4): 5}),
    ])
    def test_two_bonds_of_order_4_or_5_raise(self, rank, edges):
        system = CoxeterSystem._from_edges("T", rank, edges)
        with pytest.raises(ValueError, match=f"^{re.escape(TWO_HEAVY)}$"):
            assembly_search(system, max_total=12)

    def test_the_tree_check_comes_first(self):
        system = CoxeterSystem._from_edges("T", 3, {(1, 2): 4, (2, 3): 4, (1, 3): 3})
        with pytest.raises(ValueError, match="^diagram must be a tree$"):
            assembly_search(system)


class TestEdgeBlocks:
    @pytest.mark.parametrize("order, n_rows, n_cols", FEASIBLE_EDGES)
    def test_one_block_per_class_of_raw_wirings(self, order, n_rows, n_cols):
        # the raw wirings are one class under row and column permutations,
        # so the search places one block on each edge
        forms = {
            canonical_form(IntMatrix(rows))
            for rows in edge_wirings(order, n_rows, n_cols)
        }
        assert forms == {canonical_form(_edge_block(order, n_rows, n_cols))}

    @pytest.mark.parametrize("order, n_rows, n_cols", LEMMA_EDGES)
    def test_atom_lemma(self, order, n_rows, n_cols):
        # assembly_search relies on this instead of testing each block
        assert annihilation_test(_edge_block(order, n_rows, n_cols), order)

    def test_lemma_covers_the_reference_searches(self, monkeypatch):
        met = set()
        real = higher_rank_module._edge_block

        def spy(order, n_rows, n_cols):
            met.add((order, n_rows, n_cols))
            return real(order, n_rows, n_cols)

        monkeypatch.setattr(higher_rank_module, "_edge_block", spy)
        for name in REFERENCE_NAMES:
            assembly_search(CoxeterSystem.from_name(name), max_total=16)
        assert met == set(SEARCH_EDGES)

    def test_search_builds_one_block_per_edge_of_each_size_vector(self, monkeypatch):
        real = higher_rank_module._edge_block
        built = 0

        def spy(*key):
            nonlocal built
            built += 1
            return real(*key)

        monkeypatch.setattr(higher_rank_module, "_edge_block", spy)
        expected = 0
        for name in REFERENCE_NAMES:
            system = CoxeterSystem.from_name(name)
            assembly_search(system, max_total=16)
            # each type is the path 1 - 2 - ... - n; every size vector that
            # passes _sizes_feasible on all its edges takes one block per edge
            edges = [(i, i + 1, system.m(i, i + 1)) for i in range(1, system.rank)]
            vectors = [
                sizes for sizes in product(range(1, 17), repeat=system.rank)
                if sum(sizes) <= 16 and all(
                    _sizes_feasible(order, sizes[i - 1], sizes[j - 1])
                    for i, j, order in edges
                )
            ]
            expected += len(edges) * len(vectors)
        assert built == expected == 63


def entries_connected(sizes, bonds):
    """Whether the nonzero entries of the (i, j, rows) blocks join every
    index, with each entry an edge between its row and column index, as
    assembly_search tests a combination of blocks."""
    total = sum(sizes)
    slots = slot_ranges(sizes, total)
    return is_connected(total, [
        (x, y) for near, far, rows in bonds
        for x, row in zip(slots[near - 1], rows)
        for y, v in zip(slots[far - 1], row) if v
    ])


cached_wirings = functools.cache(edge_wirings)


class TestBlockConnectivity:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_zero_one_blocks_on_a_path(self, data):
        sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        bonds = [
            (k, k + 1, tuple(
                tuple(data.draw(st.integers(0, 1)) for _ in range(b)) for _ in range(a)
            ))
            for k, (a, b) in enumerate(zip(sizes, sizes[1:]), 1)
        ]
        assert entries_connected(sizes, bonds) == is_irreducible_nonneg(
            _block_matrix(sizes, bonds)
        )

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_edge_blocks_on_a_path(self, data):
        sizes, bonds = [data.draw(st.integers(1, 4))], []
        for k in range(1, data.draw(st.integers(1, 3)) + 1):
            order = data.draw(st.sampled_from((3, 4, 5)))
            admitted = [b for b in range(1, 7) if _sizes_feasible(order, sizes[-1], b)]
            if not admitted:
                order, admitted = 3, [sizes[-1]]
            sizes.append(data.draw(st.sampled_from(admitted)))
            block = data.draw(st.sampled_from(cached_wirings(order, *sizes[-2:])))
            bonds.append((k, k + 1, block))
        assert entries_connected(sizes, bonds) == is_irreducible_nonneg(
            _block_matrix(sizes, bonds)
        )

    def test_search_builds_only_connected_combinations(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the search tests entries, not matrices")

        built = []

        def spy(sizes, bonds):
            built.append((sizes, bonds))
            return _block_matrix(sizes, bonds)

        monkeypatch.setattr(higher_rank_module, "is_irreducible_nonneg", refuse)
        monkeypatch.setattr(higher_rank_module, "_block_matrix", spy)
        for name in REFERENCE_NAMES:
            assembly_search(CoxeterSystem.from_name(name), max_total=16)
        assert built
        assert all(is_irreducible_nonneg(_block_matrix(*args)) for args in built)


class TestConjugationCanonical:
    def test_invariant_under_slot_permutations(self):
        rng = random.Random(21)
        sizes, rows = REFERENCE_ASSEMBLIES["H3"][0]
        m = IntMatrix.from_rows(rows)
        base = conjugation_canonical(m, sizes)
        n = m.n_rows
        starts = [0, 2, 4]
        for _ in range(20):
            perm = list(range(n))
            for s, size in zip(starts, sizes):
                seg = perm[s:s + size]
                rng.shuffle(seg)
                perm[s:s + size] = seg
            shuffled = IntMatrix.from_rows(
                [[m.rows[perm[i]][perm[j]] for j in range(n)]
                 for i in range(n)]
            )
            assert conjugation_canonical(shuffled, sizes) == base

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_refinement_matches_every_permutation(self, data):
        sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        n = sum(sizes)
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        values = data.draw(
            st.lists(st.integers(0, 2), min_size=len(upper), max_size=len(upper))
        )
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(upper, values):
            rows[i][j] = rows[j][i] = v
        m = IntMatrix.from_rows(rows)
        assert conjugation_canonical(m, sizes) == conjugation_canonical_by_permutations(
            m, sizes
        )

    def test_matches_every_permutation_on_the_reference_searches(self, monkeypatch):
        seen = []
        real = higher_rank_module.conjugation_canonical

        def spy(m, sizes):
            seen.append((m, sizes))
            return real(m, sizes)

        monkeypatch.setattr(higher_rank_module, "conjugation_canonical", spy)
        for name in REFERENCE_NAMES:
            assembly_search(CoxeterSystem.from_name(name), max_total=16)
        assert len(seen) == 8
        for m, sizes in seen:
            assert real(m, sizes) == conjugation_canonical_by_permutations(m, sizes)

    def test_takes_the_least_of_the_discrete_states(self):
        # after two placements two states are discrete and fix different matrices
        m = IntMatrix.from_rows(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 1, 1], [1, 0, 1, 0]]
        )
        assert conjugation_canonical(m, (4,)) == conjugation_canonical_by_permutations(
            m, (4,)
        )

    def test_distinguishes_different_wirings(self):
        a = IntMatrix.from_rows([[2, 0, 1, 0], [0, 2, 0, 1],
                                 [1, 0, 2, 0], [0, 1, 0, 2]])
        b = IntMatrix.from_rows([[2, 0, 1, 1], [0, 2, 0, 1],
                                 [1, 0, 2, 0], [1, 1, 0, 2]])
        assert conjugation_canonical(a, (2, 2)) != conjugation_canonical(
            b, (2, 2)
        )


class TestSharedEigenvalue:
    def test_h3_closed_form(self):
        shared = shared_top_eigenvalue("H3")
        target = 2 + math.sqrt((5 + math.sqrt(5)) / 2)
        assert abs(shared.value - target) < 1e-9
        assert abs(shared.from_module - shared.from_reflection) < 1e-9

    def test_h4(self):
        shared = shared_top_eigenvalue("H4")
        assert abs(shared.value - 3.98904) < 1e-4
        assert abs(shared.from_module - shared.from_reflection) < 1e-9

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            shared_top_eigenvalue("F4")

    def test_different_top_roots_raise(self, monkeypatch):
        # the H3 reflection side (top root 3.9021) against the H4 module
        # (top root 3.9890): the exact check finds no common top root
        h3_side = reflection_sign_matrix("H3")
        monkeypatch.setattr(
            higher_rank_module, "reflection_sign_matrix", lambda name: h3_side
        )
        with pytest.raises(ValueError, match="not one common root"):
            shared_top_eigenvalue("H4")
