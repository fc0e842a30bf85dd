import doctest

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
)
from cellspec.intmat import IntMatrix
from oracles import cells_by_tarjan


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

    def test_module_check_refuses_int64_overflow(self):
        # x*x = 2^32 x acting on Z by 2^32: both sides of the module law
        # reach 2^64.
        big = 2 ** 32
        gamma = [[[1, 0], [0, 1]], [[0, 1], [0, big]]]
        algebra = BasedAlgebra.make(["e", "x"], gamma, identity=0, validate=False)
        actions = [IntMatrix.identity(1), IntMatrix.from_rows([[big]])]
        with pytest.raises(ValueError, match="module law"):
            BasedModule.make(algebra, actions)


class TestCells:
    def test_cyclic_group_is_one_cell(self):
        algebra = cyclic_group_algebra(4)
        for side in ("left", "right", "two_sided"):
            partition = algebra.cells(side)
            assert partition.count == 1
            assert partition.cells[0] == (0, 1, 2, 3)

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
        e_cell = two.cell_index_of(0)
        big_cell = 1 - e_cell
        # the identity cell is below the big cell, not conversely
        assert two.is_leq(e_cell, big_cell)
        assert not two.is_leq(big_cell, e_cell)
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
                lam, vec = module.special_vector()
                assert lam > 0
                assert np.all(vec > 0)
                total = module.total_action().to_numpy()
                residual = total @ vec - lam * vec
                assert np.max(np.abs(residual)) < 1e-8

    def test_apex_raises_when_everything_annihilates(self):
        algebra = cyclic_group_algebra(2)
        # no such module exists with positive structure constants and a
        # faithful identity, so check the error path via annihilated():
        actions = [IntMatrix.identity(2), IntMatrix.from_rows([[0, 1], [1, 0]])]
        module = BasedModule.make(algebra, actions)
        assert module.annihilated() == ()
