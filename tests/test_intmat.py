import doctest
import hashlib
import json
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.intmat as intmat_module
from cellspec.fibpoly import IntPolynomial
from cellspec.dihedral import DihedralRep, based_module_of, enumerate_B
from cellspec.higher_rank import b_family_matrix, special_modules
from cellspec.intmat import (
    IntMatrix,
    charpoly,
    gram,
    is_connected,
    is_irreducible_nonneg,
    minpoly_symmetric,
    pf_vector,
    reachable,
    spectrum_in_range,
)
from oracles import charpoly_by_permutation_expansion


def test_doctests():
    assert doctest.testmod(intmat_module).failed == 0


class TestBasics:
    def test_construction(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m.rows == ((1, 2), (3, 4))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])

    @pytest.mark.parametrize("entry", [1.7, 2.0, "1", None, 0.5 + 0j, Fraction(3, 2)])
    def test_non_integer_entries_are_refused(self, entry):
        with pytest.raises(TypeError, match=re.escape(f"got {entry!r}")):
            IntMatrix.from_rows([[entry, 2]])

    def test_identity_and_zeros(self):
        assert IntMatrix.identity(2).rows == ((1, 0), (0, 1))
        assert IntMatrix.zeros(2, 3).rows == ((0, 0, 0), (0, 0, 0))

    def test_arithmetic_matches_numpy(self):
        rng = random.Random(7)
        for _ in range(30):
            r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
            )
            b = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)]
            )
            prod = np.array((a @ b).rows)
            assert np.array_equal(prod, np.array(a.rows) @ np.array(b.rows))
            assert np.array_equal(
                np.array(a.transpose().rows), np.array(a.rows).T
            )
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[5, 6], [7, 8]])
        assert (a + b).rows == ((6, 8), (10, 12))
        assert (a - b).rows == ((-4, -4), (-4, -4))
        assert (3 * a).rows == ((3, 6), (9, 12))

    def test_sum_and_difference_refuse_a_shape_mismatch(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        for b in (IntMatrix.from_rows([[1, 2]]), IntMatrix.from_rows([[1], [2]])):
            with pytest.raises(ValueError, match="^shape mismatch$"):
                a + b
            with pytest.raises(ValueError, match="^shape mismatch$"):
                a - b

    def test_trace_symmetry(self):
        m = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert m.trace() == 4
        assert m.is_symmetric()
        assert not IntMatrix.from_rows([[1, 2], [3, 4]]).is_symmetric()

    def test_gram(self):
        b = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        assert gram(b, side="left").rows == ((2, 1), (1, 2))
        assert gram(b, side="right").rows == ((1, 1, 0), (1, 2, 1), (0, 1, 1))


class TestCharpoly:
    def test_against_permutation_expansion(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            assert charpoly(m) == charpoly_by_permutation_expansion(m.rows)

    def test_known(self):
        m = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert charpoly(m) == IntPolynomial((3, -4, 1))
        assert str(charpoly(IntMatrix.identity(3))) == "x^3 - 3x^2 + 3x - 1"

    def test_minpoly_symmetric(self):
        d = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert minpoly_symmetric(d) == IntPolynomial((2, -3, 1))
        with pytest.raises(ValueError):
            minpoly_symmetric(IntMatrix.from_rows([[1, 2], [3, 4]]))


class TestSpectrum:
    def test_endpoints(self):
        assert spectrum_in_range(IntMatrix.from_rows([[0]]), 0, 4)
        assert spectrum_in_range(IntMatrix.from_rows([[3]]), 0, 4)
        assert not spectrum_in_range(IntMatrix.from_rows([[4]]), 0, 4)
        assert not spectrum_in_range(IntMatrix.from_rows([[-1]]), 0, 4)

    def test_two_by_two(self):
        assert not spectrum_in_range(
            IntMatrix.from_rows([[2, 2], [2, 2]]), 0, 4
        )  # eigenvalues 0 and 4
        assert spectrum_in_range(IntMatrix.from_rows([[2, 1], [1, 2]]), 0, 4)

    def test_repeated_eigenvalue_at_rational_bounds(self):
        d = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 3]])  # 1, 1, 3
        assert spectrum_in_range(d, 1, Fraction(7, 2))
        assert not spectrum_in_range(d, Fraction(4, 3), 4)
        assert not spectrum_in_range(d, Fraction(1, 3), 3)
        with pytest.raises(ValueError):
            spectrum_in_range(IntMatrix.from_rows([[1, 2], [3, 4]]), 0, 4)

    def test_matches_numpy_on_random_symmetric(self):
        rng = random.Random(4242)
        for _ in range(80):
            n = rng.randint(1, 5)
            raw = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            sym = [
                [raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)
            ]
            m = IntMatrix.from_rows(sym)
            eigs = np.linalg.eigvalsh(np.array(m.rows, dtype=float))
            # stay away from numerically ambiguous boundary cases
            if np.any(np.abs(eigs) < 1e-9) or np.any(np.abs(eigs - 4) < 1e-9):
                continue
            expected = bool(np.all(eigs >= 0) and np.all(eigs < 4))
            assert spectrum_in_range(m, 0, 4) == expected, sym


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible_nonneg(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert not is_irreducible_nonneg(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert not is_irreducible_nonneg(IntMatrix.from_rows([[0, 1], [0, 0]]))
        assert is_irreducible_nonneg(IntMatrix.from_rows([[1]]))
        assert not is_irreducible_nonneg(IntMatrix.from_rows([[0]]))
        with pytest.raises(ValueError):
            is_irreducible_nonneg(IntMatrix.from_rows([[0, -1], [1, 0]]))

    def test_block_diagonal_is_reducible(self):
        m = IntMatrix.from_rows(
            [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]
        )
        assert not is_irreducible_nonneg(m)


class TestConnectivity:
    def test_empty_graph_is_connected(self):
        assert is_connected(0, [])

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_irreducibility_of_2i_plus_adjacency(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs
                          else st.just([]))
        rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in edges:
            rows[i][j] = rows[j][i] = 1
        # either order of each pair names the same edge
        flipped = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in edges]
        assert is_connected(n, flipped) == is_irreducible_nonneg(
            IntMatrix.from_rows(rows)
        )


class TestPerronFrobenius:
    def test_against_numpy(self):
        rng = random.Random(31337)
        for _ in range(25):
            n = rng.randint(2, 6)
            raw = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            sym = [
                [raw[i][j] + raw[j][i] + (2 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            m = IntMatrix.from_rows(sym)
            if not is_irreducible_nonneg(m):
                continue
            lam, vec = pf_vector(m)
            vec = np.array(vec)
            eigs = np.linalg.eigvalsh(np.array(m.rows, dtype=float))
            assert abs(lam - eigs[-1]) < 1e-8
            assert np.all(vec > 0)
            assert abs(np.max(vec) - 1) < 1e-12
            residual = np.array(m.rows, dtype=float) @ vec - lam * vec
            assert np.max(np.abs(residual)) < 1e-8

    def test_pf_vector_is_exact(self):
        # the path on three vertices: sqrt 2 and (1/sqrt 2, 1, 1/sqrt 2),
        # each as its nearest double
        path = IntMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        lam, vec = pf_vector(path)
        assert round(lam, 10) == 1.4142135624
        assert [round(x, 10) for x in vec] == [0.7071067812, 1.0, 0.7071067812]
        with mpmath.workdps(50):
            half = float(1 / mpmath.sqrt(2))
            assert lam == float(mpmath.sqrt(2))
            assert vec == (half, 1.0, half)

    @pytest.mark.parametrize("name", ["H3", "H4", "B5"])
    def test_golden_entry_against_mpmath(self, name):
        # 1/phi = 0.61803398874989... is an entry of each of these vectors;
        # it rounds to 0.6180339887 at ten digits
        lam, vec = pf_vector(special_modules(name)[0].matrix)
        rows = special_modules(name)[0].matrix.to_lists()
        with mpmath.workdps(50):
            values, vectors = mpmath.eigsy(mpmath.matrix(rows))
            top = max(range(len(rows)), key=lambda i: values[i])
            column = [vectors[i, top] for i in range(len(rows))]
            peak = max(column, key=abs)
            assert lam == float(values[top])
            assert vec == tuple(float(x / peak) for x in column)
            golden = float(2 / (1 + mpmath.sqrt(5)))
        assert round(golden, 10) == 0.6180339887
        assert golden in vec
        assert 0.6180339887 in [round(x, 10) for x in vec]

    @pytest.mark.parametrize("n", [3, 8, 24])
    @pytest.mark.parametrize("family", [1, 2])
    def test_b_families_against_closed_form(self, n, family):
        # both families have top eigenvalue 2 + 2cos(pi/2n); family 2 is 2I
        # plus the path A_(2n-1), whose vector is sin(k pi/2n), k = 1..2n-1
        m = b_family_matrix(n, family).matrix
        lam, vec = pf_vector(m)
        with mpmath.workdps(60):
            assert lam == float(2 + 2 * mpmath.cos(mpmath.pi / (2 * n)))
            angles = [k * mpmath.pi / (2 * n) for k in range(1, 2 * n)]
            along_path = [float(mpmath.sin(x)) for x in angles]
        if family == 2:
            neighbours = [
                [j for j, x in enumerate(row) if x and j != i]
                for i, row in enumerate(m.rows)
            ]
            end = min(i for i, ws in enumerate(neighbours) if len(ws) == 1)
            order = reachable(neighbours, end)  # a path: BFS walks it in order
            assert len(order) == 2 * n - 1
            assert [vec[i] for i in order] == along_path

    @pytest.mark.parametrize(
        "rows, expected",
        [([[5]], lambda: (5, [1])),
         ([[0, 1], [1, 0]], lambda: (1, [1, 1])),  # period 2
         ([[0, 2], [1, 0]], lambda: (mpmath.sqrt(2), [1, 1 / mpmath.sqrt(2)]))],
        ids=["1x1", "period-2", "non-symmetric"],
    )
    def test_edge_cases(self, rows, expected):
        with mpmath.workdps(60):
            lam, vec = expected()
            assert pf_vector(IntMatrix.from_rows(rows)) == (
                float(lam), tuple(float(x) for x in vec)
            )

    def test_corpus_digest(self):
        # the dihedral module actions of levels 3..30, the stored H3, H4, F4
        # and B5 candidates and both B3..B12 families; recorded with the
        # interval Horner enclosure that the centred one replaced
        matrices = [
            based_module_of(DihedralRep(n, cand.matrix)).total_action()
            for n in range(3, 31)
            for cand in enumerate_B(n)
        ]
        for name in ("H3", "H4", "F4", "B5"):
            matrices += [c.matrix for c in special_modules(name)]
        matrices += [b_family_matrix(n, f).matrix for n in range(3, 13) for f in (1, 2)]
        assert len(matrices) == 100
        data = [[lam, list(vec)] for lam, vec in map(pf_vector, matrices)]
        text = json.dumps(data, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a693ec791be1a370"
