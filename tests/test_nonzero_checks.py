"""Checks that read nonzero entries only: the law checks and identity laws
of based algebras and modules, the cell steps, and the entry rule of
IntMatrix.from_rows and BasedAlgebra.make, against dense references.

The perturbations here change the sparsity pattern: a nonzero entry drops
to exactly 0, or an entry grows by at least 2^64."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspec import based_algebra, cli
from cellspec.based_algebra import BasedAlgebra, BasedModule
from cellspec.dihedral import (
    based_algebra_of,
    enumerate_B,
    structure_constants,
    theta_word_matrix,
)
from cellspec.fibpoly import IntPolynomial, eval_at_matrix
from cellspec.intmat import IntMatrix
from cellspec.staircase import generators_for_shape
from oracles import cells_by_tarjan, law_failure_by_pairs, left_multiplications


def perturb(data, entries, positions):
    """Lower a drawn nonzero entry to 0 or add at least 2^64 to a drawn
    entry; entries(p) is the list that position p indexes by p[-1]."""
    if data.draw(st.booleans()):
        nonzero = [p for p in positions if entries(p)[p[-1]]]
        p = data.draw(st.sampled_from(nonzero))
        entries(p)[p[-1]] = 0
    else:
        p = data.draw(st.sampled_from(positions))
        entries(p)[p[-1]] += data.draw(st.integers(2 ** 64, 2 ** 70))


def raised_message(make, *args):
    """The ValueError message of make(*args), or None when it succeeds."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


def identity_failure_by_scan(gamma, e):
    """The identity-law message of a dense scan over (j, k) in row-major
    order, the left law before the right one at each entry, or None."""
    n = len(gamma)
    for j in range(n):
        for k in range(n):
            if gamma[e][j][k] != int(j == k):
                return "identity fails on the left"
            if gamma[j][e][k] != int(j == k):
                return "identity fails on the right"
    return None


def module_actions(n, b):
    """The block action of every basis element of level n, as lists."""
    d = b.n_rows + b.n_cols
    return [
        IntMatrix.identity(d).to_lists()
        if lab == "e"
        else theta_word_matrix(b, len(lab), int(lab[0])).to_lists()
        for lab in structure_constants(n)[0]
    ]


class TestSparsityPerturbations:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_perturbed_algebra_fails_at_the_same_pair(self, data):
        n = data.draw(st.integers(3, 8))
        labels, gamma = structure_constants(n)
        size = len(labels)
        perturbed = [[list(row) for row in plane] for plane in gamma]
        # off the identity row and column, so that validation reaches the
        # associativity check
        positions = [
            (i, j, k)
            for i in range(1, size) for j in range(1, size) for k in range(size)
        ]
        perturb(data, lambda p: perturbed[p[0]][p[1]], positions)
        expected = law_failure_by_pairs(
            perturbed, left_multiplications(perturbed), labels, "associativity"
        )
        assert expected is not None
        assert raised_message(BasedAlgebra.make, labels, perturbed, 0) == expected

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_perturbed_module_fails_at_the_same_pair(self, data):
        n = data.draw(st.integers(3, 8))
        cand = data.draw(st.sampled_from(enumerate_B(n)))
        labels, gamma = structure_constants(n)
        acts = module_actions(n, cand.matrix)
        d = len(acts[0])
        # not the identity's action, which validation checks on its own
        positions = [
            (a, r, c) for a in range(1, len(labels)) for r in range(d) for c in range(d)
        ]
        perturb(data, lambda p: acts[p[0]][p[1]], positions)
        expected = law_failure_by_pairs(gamma, acts, labels, "module law")
        assert expected is not None
        actions = [IntMatrix.from_rows(m) for m in acts]
        assert raised_message(BasedModule.make, based_algebra_of(n), actions) == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_identity_laws_fail_as_a_dense_scan(self, data):
        n = data.draw(st.integers(3, 8))
        labels, gamma = structure_constants(n)
        size = len(labels)
        perturbed = [[list(row) for row in plane] for plane in gamma]
        positions = [(0, j, k) for j in range(size) for k in range(size)]
        positions += [(j, 0, k) for j in range(1, size) for k in range(size)]
        perturb(data, lambda p: perturbed[p[0]][p[1]], positions)
        expected = identity_failure_by_scan(perturbed, 0)
        assert expected is not None
        assert raised_message(BasedAlgebra.make, labels, perturbed, 0) == expected

    def test_negative_constant_is_refused_before_the_identity_laws(self):
        labels, gamma = structure_constants(4)
        perturbed = [[list(row) for row in plane] for plane in gamma]
        perturbed[0][0][0] = 0  # breaks the identity law as well
        perturbed[3][4][1] = -1
        message = raised_message(BasedAlgebra.make, labels, perturbed, 0)
        assert message == "negative structure constant"


class TestCellsAgainstTarjan:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_dihedral_cells_match_tarjan(self, n):
        algebra = based_algebra_of(n)
        gamma, size = algebra.gamma, algebra.dimension
        support = [
            (i, j, k)
            for i in range(size) for j in range(size) for k in range(size)
            if gamma[i][j][k]
        ]
        for side in ("left", "right", "two_sided"):
            succ = [set() for _ in range(size)]
            for i, j, k in support:
                if side != "right":
                    succ[j].add(k)
                if side != "left":
                    succ[i].add(k)
            cells, leq = cells_by_tarjan([sorted(s) for s in succ])
            partition = algebra.cells(side)
            assert partition.cells == cells
            assert partition.leq == leq
        assert all(algebra.cells(side) is algebra.cells(side)
                   for side in ("left", "right", "two_sided"))

    def test_cells_of_algebra_reuses_the_two_sided_partition(self, monkeypatch, capsys):
        # apex keeps the level's three partitions; cells-of-algebra builds none
        assert cli.main(["apex", "--n", "6", "--matrix", "[[1,1,1]]"]) == 0
        capsys.readouterr()
        original, builds = based_algebra._cell_partition, []

        def counting(side, succ):
            builds.append(side)
            return original(side, succ)

        monkeypatch.setattr(based_algebra, "_cell_partition", counting)
        assert cli.main(["cells-of-algebra", "--dihedral-n", "6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert builds == []
        assert len(report["results"]["two_sided"]) == 2
        # the same level built afresh reads its tensor for all three sides
        BasedAlgebra(*structure_constants(6), 0).cells("left")
        assert builds == ["left", "right", "two_sided"]


class TestEntryRule:
    def test_bools_are_stored_as_ints(self):
        m = IntMatrix.from_rows([[True, False], [0, True]])
        assert m == IntMatrix.identity(2)
        assert all(type(c) is int for row in m.rows for c in row)
        algebra = BasedAlgebra.make(["e", "x"], [[[True, 0], [0, 1]], [[0, 1], [0, False]]], 0)
        assert algebra.gamma == (((1, 0), (0, 1)), ((0, 1), (0, 0)))
        assert all(type(c) is int for plane in algebra.gamma for row in plane for c in row)

    def test_last_float_of_a_large_input_is_named(self):
        rows = [[(r * c) % 3 for c in range(27)] for r in range(27)]
        rows[-1][-1] = 2.5
        with pytest.raises(TypeError, match=r"integer entries required, got 2\.5"):
            IntMatrix.from_rows(rows)
        labels, gamma = structure_constants(14)
        assert len(labels) == 27
        tensor = [[list(row) for row in plane] for plane in gamma]
        tensor[-1][-1][-1] = 0.5
        with pytest.raises(TypeError, match=r"integer entries required, got 0\.5"):
            BasedAlgebra.make(labels, tensor, 0)

    def test_first_non_int_is_named(self):
        with pytest.raises(TypeError, match=r"got 'a'"):
            IntMatrix.from_rows([[1, True], ["a", 1.5]])
        with pytest.raises(TypeError, match=r"got None"):
            BasedAlgebra.make(["e"], [[[None]]], 0)

    def test_rows_given_as_generators(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        m = IntMatrix.from_rows(iter(row) for row in rows)
        assert m.rows == ((1, 2, 3), (4, 5, 6))
        labels, gamma = structure_constants(5)
        lazy = ((iter(row) for row in plane) for plane in gamma)
        assert BasedAlgebra.make(labels, lazy, 0).gamma == gamma


class TestPolynomialAndHorner:
    def test_bool_coefficients_are_stored_as_ints(self):
        p = IntPolynomial([True, 1, False])
        assert p.coeffs == (1, 1)
        assert all(type(c) is int for c in p.coeffs)
        assert repr(p) == repr(IntPolynomial([1, 1]))
        assert json.dumps(p.coeffs) == json.dumps(IntPolynomial([1, 1]).coeffs)
        with pytest.raises(TypeError, match=r"integer coefficients required, got 1\.5"):
            IntPolynomial([True, 1.5])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-5, 5), max_size=7),
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        ),
    )
    def test_eval_at_matrix_matches_plain_horner(self, coeffs, rows):
        p, m = IntPolynomial(coeffs), IntMatrix.from_rows(rows)
        expected = IntMatrix.zeros(m.n_rows, m.n_rows)
        for c in reversed(p.coeffs):
            expected = expected @ m + c * IntMatrix.identity(m.n_rows)
        assert eval_at_matrix(p, m) == expected

    def test_eval_at_matrix_needs_a_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            eval_at_matrix(IntPolynomial([1, 1]), IntMatrix.from_rows([[1, 2]]))


@pytest.mark.parametrize("shape", [(0, 1), (0, 2), (-1, 3), (2, 0), (0, 0), (3, -2)])
def test_generators_for_shape_refuses_non_positive_shapes(shape):
    with pytest.raises(ValueError, match="shape entries must be positive"):
        generators_for_shape(*shape)
