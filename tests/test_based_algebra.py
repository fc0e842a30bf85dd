import doctest
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.based_algebra as based_algebra_module
from cellspec.based_algebra import BasedAlgebra, BasedModule
from cellspec.dihedral import (
    DihedralRep,
    based_algebra_of,
    based_module_of,
    enumerate_B,
    structure_constants,
    theta_word_matrix,
)
from cellspec.intmat import IntMatrix, pf_vector
from oracles import cells_by_tarjan, law_failure_by_pairs, left_multiplications


def test_doctests():
    assert doctest.testmod(based_algebra_module).failed == 0


def cyclic_group_algebra(order: int) -> BasedAlgebra:
    """Group algebra of Z/order with the group basis."""
    gamma = [
        [
            [1 if (i + j) % order == k else 0 for k in range(order)]
            for j in range(order)
        ]
        for i in range(order)
    ]
    labels = [f"g{i}" for i in range(order)]
    return BasedAlgebra.make(labels, gamma, identity=0)


class TestValidation:
    def test_cyclic_group_algebra_is_valid(self):
        for order in (1, 2, 3, 5):
            cyclic_group_algebra(order).validate()

    def test_broken_identity_rejected(self):
        gamma = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # b*b = a but a*b = 0
        with pytest.raises(ValueError):
            BasedAlgebra.make(["a", "b"], gamma, identity=0)

    def test_negative_constant_rejected(self):
        gamma = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]
        with pytest.raises(ValueError):
            BasedAlgebra.make(["a", "b"], gamma, identity=0)

    def test_non_associative_rejected(self):
        # x*x = x + e breaks associativity unless coefficients conspire;
        # force a violation by an asymmetric tweak
        gamma = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 1], [1, 0, 0]],
        ]
        with pytest.raises(ValueError):
            BasedAlgebra.make(["e", "x", "y"], gamma, identity=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BasedAlgebra.make(["a"], [[[1, 0]]], identity=0)

    @pytest.mark.parametrize("identity", [-1, 2])
    def test_identity_index_out_of_range_rejected(self, identity):
        gamma = cyclic_group_algebra(2).gamma
        with pytest.raises(ValueError, match="^identity index out of range$"):
            BasedAlgebra.make(["a", "b"], gamma, identity=identity)

    def test_non_integer_constant_rejected(self):
        # 1.9 used to be truncated to the valid identity constant 1
        with pytest.raises(TypeError, match="got 1.9"):
            BasedAlgebra.make(["e"], [[[1.9]]], identity=0)

    def test_associativity_check_refuses_int64_overflow(self):
        # x*x = 2^32 y and y*x = 2^32 x, all other products of x and y zero:
        # (x*x)*x - x*(x*x) = 2^64 x, which wraps to 0 in int64.
        big = 2 ** 32
        gamma = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, big], [0, 0, 0]],
            [[0, 0, 1], [0, big, 0], [0, 0, 0]],
        ]
        with pytest.raises(ValueError, match="associativity"):
            BasedAlgebra.make(["e", "x", "y"], gamma, identity=0)

    def test_module_check_is_exact_beyond_int64(self):
        # x*x = 2^32 x acting on Z by 2^32: both sides of the module law
        # reach 2^64, and they agree; acting by 2^32 + 1 breaks the law.
        big = 2 ** 32
        gamma = [[[1, 0], [0, 1]], [[0, 1], [0, big]]]
        algebra = BasedAlgebra.make(["e", "x"], gamma, identity=0)
        BasedModule.make(algebra, [IntMatrix.identity(1), IntMatrix.from_rows([[big]])])
        actions = [IntMatrix.identity(1), IntMatrix.from_rows([[big + 1]])]
        with pytest.raises(ValueError, match=r"module law fails at \(x, x\)"):
            BasedModule.make(algebra, actions)


def four_element_gamma():
    """e, x, y, z with x^2 = y + z and every other product of non-identity
    elements zero: associative, and the walk from e keeps only e, x and
    y + z, three independent vectors for four basis elements."""
    gamma = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for j in range(4):
        gamma[0][j][j] = gamma[j][0][j] = 1
    gamma[1][1] = [0, 0, 1, 1]
    return gamma


class TestGenerators:
    def test_dihedral_levels_are_generated_by_1_and_2(self):
        for n in range(3, 31):
            algebra = based_algebra_of(n)
            assert tuple(algebra.labels[i] for i in algebra.generators) == ("1", "2")

    def test_fallback_checks_every_row(self):
        labels = ["e", "x", "y", "z"]
        algebra = BasedAlgebra.make(labels, four_element_gamma(), identity=0)
        assert algebra.generators == (0, 1, 2, 3)
        # the walk adds only x to G; perturb y*z, off the row of x
        for k in range(4):
            perturbed = four_element_gamma()
            perturbed[2][3][k] += 1
            expected = law_failure_by_pairs(
                perturbed, left_multiplications(perturbed), labels, "associativity"
            )
            assert expected is not None
            with pytest.raises(ValueError) as excinfo:
                BasedAlgebra.make(labels, perturbed, identity=0)
            assert str(excinfo.value) == expected

    def test_two_sided_cells_are_computed_once(self, monkeypatch):
        # the first cells call builds all three partitions from one read of
        # the tensor, whichever sides are asked for and in any order
        original, builds = based_algebra_module._cell_partition, []

        def counting(side, succ):
            builds.append(side)
            return original(side, succ)

        monkeypatch.setattr(based_algebra_module, "_cell_partition", counting)
        labels, gamma = structure_constants(7)
        sides = ("left", "right", "two_sided")
        for order in [*itertools.permutations(sides), *((side,) for side in sides)]:
            algebra = BasedAlgebra(labels, gamma, 0)
            builds.clear()
            for side in order:
                assert algebra.cells(side) is algebra.cells(side)
            assert builds == list(sides), order


def closed_form_actions(n, b):
    """The block action of every basis element of level n, as row tuples,
    from the closed form of theta_word_matrix."""
    d = b.n_rows + b.n_cols
    return [
        IntMatrix.identity(d).rows
        if lab == "e"
        else theta_word_matrix(b, len(lab), int(lab[0])).rows
        for lab in structure_constants(n)[0]
    ]


class TestLawCheck:
    """The batched law check against a pair-by-pair check in Python ints:
    valid dihedral algebras and modules pass both, and one perturbed entry
    makes both reject at the same pair with the same message."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_dihedral_level_passes_both(self, n):
        labels, gamma = structure_constants(n)
        assert law_failure_by_pairs(
            gamma, left_multiplications(gamma), labels, "associativity"
        ) is None
        BasedAlgebra.make(labels, gamma, identity=0)
        for cand in enumerate_B(n):
            acts = closed_form_actions(n, cand.matrix)
            assert law_failure_by_pairs(gamma, acts, labels, "module law") is None
            BasedModule.make(based_algebra_of(n), [IntMatrix(a) for a in acts])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_perturbed_algebra_fails_at_the_same_pair(self, data):
        n = data.draw(st.integers(3, 8))
        labels, gamma = structure_constants(n)
        size = len(labels)
        # off the identity row and column, so that the identity laws hold
        # and validation reaches the associativity check
        i, j = data.draw(st.tuples(st.integers(1, size - 1), st.integers(1, size - 1)))
        k = data.draw(st.integers(0, size - 1))
        perturbed = [[list(row) for row in plane] for plane in gamma]
        perturbed[i][j][k] += data.draw(st.integers(1, 3))
        expected = law_failure_by_pairs(
            perturbed, left_multiplications(perturbed), labels, "associativity"
        )
        assert expected is not None
        with pytest.raises(ValueError) as excinfo:
            BasedAlgebra.make(labels, perturbed, identity=0)
        assert str(excinfo.value) == expected

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_perturbed_module_fails_at_the_same_pair(self, data):
        n = data.draw(st.integers(3, 8))
        cand = data.draw(st.sampled_from(enumerate_B(n)))
        labels, gamma = structure_constants(n)
        acts = [[list(row) for row in a] for a in closed_form_actions(n, cand.matrix)]
        d = len(acts[0])
        # not the identity's action, which validation checks on its own
        a = data.draw(st.integers(1, len(labels) - 1))
        r, c = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        acts[a][r][c] += data.draw(st.integers(1, 3))
        expected = law_failure_by_pairs(gamma, acts, labels, "module law")
        assert expected is not None
        with pytest.raises(ValueError) as excinfo:
            BasedModule.make(based_algebra_of(n), [IntMatrix.from_rows(m) for m in acts])
        assert str(excinfo.value) == expected


class TestCells:
    def test_cyclic_group_is_one_cell(self):
        algebra = cyclic_group_algebra(4)
        for side in ("left", "right", "two_sided"):
            partition = algebra.cells(side)
            assert partition.count == 1
            assert partition.cells[0] == (0, 1, 2, 3)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="^side must be 'left', 'right' or 'two_sided'$"):
            cyclic_group_algebra(2).cells("both")

    def test_dihedral_level_cells(self):
        for n in (3, 5, 8):
            algebra = based_algebra_of(n)
            labels = algebra.labels
            left = algebra.cells("left")
            expected_left = [
                ("e",),
                tuple(l for l in labels if l != "e" and l.endswith("1")),
                tuple(l for l in labels if l != "e" and l.endswith("2")),
            ]
            got_left = [
                tuple(labels[i] for i in cell) for cell in left.cells
            ]
            assert sorted(got_left) == sorted(expected_left)
            right = algebra.cells("right")
            got_right = [
                tuple(labels[i] for i in cell) for cell in right.cells
            ]
            expected_right = [
                ("e",),
                tuple(l for l in labels if l != "e" and l.startswith("1")),
                tuple(l for l in labels if l != "e" and l.startswith("2")),
            ]
            assert sorted(got_right) == sorted(expected_right)
            two = algebra.cells("two_sided")
            got_two = [tuple(labels[i] for i in cell) for cell in two.cells]
            assert sorted(got_two) == sorted(
                [("e",), tuple(l for l in labels if l != "e")]
            )

    def test_order_relation(self):
        algebra = based_algebra_of(5)
        two = algebra.cells("two_sided")
        e_cell = two.cell_of[0]
        big_cell = 1 - e_cell
        # the identity cell is below the big cell, not conversely
        assert two.leq[e_cell][big_cell]
        assert not two.leq[big_cell][e_cell]
        assert two.maximal_among({e_cell, big_cell}) == (big_cell,)
        assert two.maximal_among({e_cell}) == (e_cell,)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_cells_match_tarjan(self, data):
        n = data.draw(st.integers(1, 7))
        index = st.integers(0, n - 1)
        support = data.draw(st.lists(st.tuples(index, index, index), max_size=2 * n))
        gamma = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k in support:
            gamma[i][j][k] = data.draw(st.integers(1, 3))
        algebra = BasedAlgebra(tuple(map(str, range(n))), gamma, 0)
        for side in ("left", "right", "two_sided"):
            succ = [set() for _ in range(n)]
            for i, j, k in support:
                if side != "right":
                    succ[j].add(k)
                if side != "left":
                    succ[i].add(k)
            cells, leq = cells_by_tarjan([sorted(s) for s in succ])
            partition = algebra.cells(side)
            assert partition.cells == cells
            assert partition.leq == leq
            assert all(
                partition.cell_of[v] == a for a, cell in enumerate(cells) for v in cell
            )


class TestModules:
    def test_identity_action_required(self):
        algebra = cyclic_group_algebra(2)
        # g1 must act by a permutation with g1*g1 = identity action
        actions = [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])]
        module = BasedModule.make(algebra, actions)
        module.validate()
        assert module.is_transitive()
        bad = [IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.identity(2)]
        with pytest.raises(ValueError):
            BasedModule.make(algebra, bad)

    def test_annihilated_and_apex(self):
        algebra = cyclic_group_algebra(2)
        actions = [IntMatrix.identity(1), IntMatrix.from_rows([[1]])]
        module = BasedModule.make(algebra, actions)
        assert module.annihilated() == ()
        assert module.apex() == (0, 1)

    def test_intransitive_module_detected(self):
        algebra = cyclic_group_algebra(2)
        actions = [IntMatrix.identity(2), IntMatrix.identity(2)]
        module = BasedModule.make(algebra, actions)
        module.validate()
        assert not module.is_transitive()

    def test_special_vector_positive(self):
        for n in (4, 6, 8):
            for cand in enumerate_B(n):
                module = based_module_of(DihedralRep(n, cand.matrix))
                lam, vec = pf_vector(module.total_action())
                assert lam > 0
                vec = np.array(vec)
                assert np.all(vec > 0)
                total = np.array(module.total_action().rows, dtype=float)
                residual = total @ vec - lam * vec
                assert np.max(np.abs(residual)) < 1e-8

    def test_apex_raises_when_everything_annihilates(self):
        algebra = cyclic_group_algebra(2)
        # no such module exists with positive structure constants and a
        # faithful identity, so check the error path via annihilated():
        actions = [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])]
        module = BasedModule.make(algebra, actions)
        assert module.annihilated() == ()

    def test_one_action_per_basis_element_required(self):
        algebra = cyclic_group_algebra(2)
        with pytest.raises(ValueError, match="^one action matrix per basis element required$"):
            BasedModule.make(algebra, [IntMatrix.identity(1)])

    def test_action_of_the_wrong_shape_rejected(self):
        algebra = cyclic_group_algebra(3)
        actions = [IntMatrix.identity(2), IntMatrix.identity(2), IntMatrix.identity(3)]
        with pytest.raises(ValueError, match="^the action of g2 is not a 2 x 2 matrix$"):
            BasedModule.make(algebra, actions)

    def test_apex_needs_a_unique_maximal_cell(self):
        # e, x, y with x^2 = x, y^2 = y and xy = yx = 0: {x} and {y} are two
        # maximal cells, and the module x = diag(1, 0), y = diag(0, 1) kills
        # neither
        gamma = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 1]],
        ]
        algebra = BasedAlgebra.make(["e", "x", "y"], gamma, identity=0)
        actions = [
            IntMatrix.identity(2),
            IntMatrix.from_rows([[1, 0], [0, 0]]),
            IntMatrix.from_rows([[0, 0], [0, 1]]),
        ]
        module = BasedModule.make(algebra, actions)
        with pytest.raises(ValueError, match="^no unique maximal non-annihilating cell$"):
            module.apex()
