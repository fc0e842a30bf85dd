import doctest
import math
import random
from fractions import Fraction

import pytest

import cellspec.higher_rank as higher_rank_module
from cellspec.coxeter import CoxeterSystem
from cellspec.fibpoly import IntPolynomial
from cellspec.higher_rank import (
    QuadraticElement,
    _edge_blocks,
    _sizes_feasible,
    assembly_search,
    assembly_violations,
    b_family_matrix,
    charpoly_quadratic,
    conjugation_canonical,
    rank2_blocks,
    reflection_sign_matrix,
    shared_top_eigenvalue,
    special_modules,
    verify_assembly,
)
from cellspec.intmat import IntMatrix, charpoly
from frozen import REFERENCE_ASSEMBLIES
from oracles import edge_wirings, min_under_col_perms

FEASIBLE_EDGES = [
    (order, a, b)
    for order in (3, 4, 5)
    for a in range(1, 6)
    for b in range(1, 6)
    if _sizes_feasible(order, a, b)
]


def test_doctests():
    assert doctest.testmod(higher_rank_module).failed == 0


class TestQuadraticElement:
    def test_arithmetic_matches_floats(self):
        rng = random.Random(11)
        for _ in range(200):
            a = QuadraticElement(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            b = QuadraticElement(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for op in ("add", "sub", "mul"):
                exact = getattr(a, f"__{op}__")(b)
                approx = {
                    "add": float(a) + float(b),
                    "sub": float(a) - float(b),
                    "mul": float(a) * float(b),
                }[op]
                assert abs(float(exact) - approx) < 1e-9

    def test_division(self):
        rng = random.Random(12)
        for _ in range(100):
            a = QuadraticElement.of(rng.randint(-9, 9), rng.randint(-9, 9))
            b = QuadraticElement.of(rng.randint(-9, 9), rng.randint(-9, 9))
            if b.is_zero():
                continue
            assert ((a / b) * b - a).is_zero()
        with pytest.raises(ZeroDivisionError):
            QuadraticElement.of(1) / QuadraticElement.of(0)

    def test_exact_sign_near_zero(self):
        # -9 + 4*sqrt(5) is about -0.056: the float route would need care,
        # the exact route must get it right
        assert QuadraticElement.of(-9, 4).sign() == -1
        assert QuadraticElement.of(9, -4).sign() == 1
        assert QuadraticElement.of(-4, 2).sign() == 1  # 2*sqrt(5) > 4
        assert QuadraticElement.of(0, 0).sign() == 0
        assert QuadraticElement.of(0, -1).sign() == -1

    def test_comparisons(self):
        phi = QuadraticElement.golden_ratio()
        assert QuadraticElement.of(1) < phi < QuadraticElement.of(2)
        assert phi * phi == phi + 1
        assert phi > Fraction(8, 5)
        assert not phi > Fraction(13, 8)

    def test_conjugate(self):
        phi = QuadraticElement.golden_ratio()
        psi = phi.conjugate()
        assert phi + psi == QuadraticElement.of(1)
        assert phi * psi == QuadraticElement.of(-1)

    def test_charpoly_quadratic_matches_integer_charpoly(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            expected = charpoly(IntMatrix.from_rows(rows))
            q_rows = [[QuadraticElement.of(v) for v in row] for row in rows]
            got = charpoly_quadratic(q_rows)
            assert len(got) == expected.degree + 1
            for k, coeff in enumerate(got):
                assert coeff.b == 0
                assert coeff.a == expected.coeffs[k]


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

    def test_b5_families_are_valid(self):
        system = CoxeterSystem.from_name("B5")
        for cand in special_modules("B5"):
            assert assembly_violations(system, cand.sizes, cand.matrix) == []

    def test_reflection_sign_matrices(self):
        phi = QuadraticElement.golden_ratio()
        h3 = reflection_sign_matrix("H3")
        assert h3[0][0] == QuadraticElement.of(2)
        assert h3[0][1] == -phi and h3[1][0] == -phi
        assert h3[1][2] == QuadraticElement.of(-1)
        assert h3[0][2] == QuadraticElement.of(0)
        h4 = reflection_sign_matrix("H4")
        assert len(h4) == 4
        assert h4[2][3] == QuadraticElement.of(-1)


class TestVerifier:
    def test_references_pass(self):
        for name, refs in REFERENCE_ASSEMBLIES.items():
            system = CoxeterSystem.from_name(name)
            for sizes, rows in refs:
                m = IntMatrix.from_rows(rows)
                assert assembly_violations(system, sizes, m) == []
                assert verify_assembly(system, sizes, m)

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
    def test_rank2_blocks(self):
        assert [b.to_lists() for b in rank2_blocks(3)] == [[[1]]]
        assert sorted(b.to_lists() for b in rank2_blocks(4)) == sorted(
            [[[1], [1]], [[1, 1]]]
        )
        assert [b.to_lists() for b in rank2_blocks(5)] == [[[1, 0], [1, 1]]]
        with pytest.raises(ValueError):
            rank2_blocks(6)

    @pytest.mark.parametrize("name", ["B3", "H3", "F4", "B4", "H4"])
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
        for name in ("B3", "F4"):
            system = CoxeterSystem.from_name(name)
            for cand in assembly_search(system, max_total=12):
                assert verify_assembly(system, cand.sizes, cand.matrix)


class TestEdgeBlocks:
    @pytest.mark.parametrize("order, n_rows, n_cols", FEASIBLE_EDGES)
    def test_one_block_per_class_of_raw_wirings(self, order, n_rows, n_cols):
        keys = [
            min_under_col_perms(b.rows) for b in _edge_blocks(order, n_rows, n_cols)
        ]
        assert len(set(keys)) == len(keys)
        raw = edge_wirings(order, n_rows, n_cols)
        assert set(keys) == {min_under_col_perms(rows) for rows in raw}


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
