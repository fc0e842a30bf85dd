import doctest
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.staircase as staircase_module
from cellspec.intmat import IntMatrix, gram
from cellspec.staircase import (
    NonBinaryEntryError,
    ReducibleGramError,
    SpectrumOutOfRangeError,
    brute_force_under4,
    canonical_form,
    classify_under4,
    exceptional,
    generators_for_shape,
    gram_spectrum_below_4,
    make_extended_staircase,
    make_staircase,
)
from frozen import X_MATRICES
from oracles import _canonical_rows, equivalent_by_all_permutations


def test_doctests():
    assert doctest.testmod(staircase_module).failed == 0


def random_binary_matrix(rng, max_dim=4):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
    )


class TestConstructors:
    def test_staircases(self):
        assert make_staircase(2, 3).rows == ((1, 1, 0), (0, 1, 1))
        assert make_staircase(3, 2).rows == ((1, 0), (1, 1), (0, 1))
        assert make_staircase(1, 1).rows == ((1,),)
        with pytest.raises(ValueError):
            make_staircase(1, 3)

    def test_extended(self):
        assert make_extended_staircase(1, 2).rows == ((1, 1, 1),)
        assert make_extended_staircase(2, 2).rows == ((1, 1, 1), (0, 0, 1))
        with pytest.raises(ValueError):
            make_extended_staircase(3, 1)

    def test_exceptional(self):
        for k, rows in X_MATRICES.items():
            assert exceptional(k).to_lists() == rows
        with pytest.raises(ValueError):
            exceptional(4)


class TestCanonicalForm:
    def test_agrees_with_exhaustive_equivalence(self):
        rng = random.Random(555)
        for _ in range(150):
            a = random_binary_matrix(rng)
            b = random_binary_matrix(rng)
            same = canonical_form(a) == canonical_form(b)
            assert same == equivalent_by_all_permutations(a, b), (a, b)

    def test_permuted_copies_collide(self):
        rng = random.Random(556)
        for _ in range(100):
            a = random_binary_matrix(rng)
            rows = list(a.rows)
            rng.shuffle(rows)
            rows = [list(r) for r in rows]
            cols = list(range(a.n_cols))
            rng.shuffle(cols)
            b = IntMatrix.from_rows(
                [[row[j] for j in cols] for row in rows]
            )
            assert canonical_form(a) == canonical_form(b)

    def test_canonical_form_is_idempotent(self):
        rng = random.Random(557)
        for _ in range(50):
            a = random_binary_matrix(rng)
            c = canonical_form(a)
            assert canonical_form(c) == c

    def test_every_binary_matrix_up_to_3x4_matches_the_oracle(self):
        for r, c in itertools.product(range(1, 4), range(1, 5)):
            for entries in itertools.product((0, 1), repeat=r * c):
                rows = tuple(entries[i * c:(i + 1) * c] for i in range(r))
                assert canonical_form(IntMatrix(rows)).rows == _canonical_rows(rows), rows

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.tuples(*[st.integers(0, 2)] * c), min_size=r, max_size=r))))
    def test_matrices_up_to_5x6_match_the_oracle(self, rows):
        rows = tuple(rows)
        assert canonical_form(IntMatrix(rows)).rows == _canonical_rows(rows), rows

    @pytest.mark.parametrize("n_rows", [1, 11])
    def test_more_than_10_columns_is_refused(self, n_rows):
        with pytest.raises(ValueError, match="more than 10 columns"):
            canonical_form(IntMatrix(((1,) * 11,) * n_rows))


class TestClassification:
    def test_families_classify_to_themselves(self):
        for r, c in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)]:
            for mc in generators_for_shape(r, c):
                back = classify_under4(mc.matrix)
                assert back.kind == mc.kind
                assert back.transposed == mc.transposed
                assert canonical_form(back.matrix) == canonical_form(mc.matrix)

    def test_classification_is_permutation_invariant(self):
        rng = random.Random(600)
        for mc in generators_for_shape(3, 4) + generators_for_shape(4, 4):
            m = mc.matrix
            for _ in range(5):
                rows = list(m.rows)
                rng.shuffle(rows)
                cols = list(range(m.n_cols))
                rng.shuffle(cols)
                shuffled = IntMatrix.from_rows(
                    [[row[j] for j in cols] for row in rows]
                )
                back = classify_under4(shuffled)
                assert back.kind == mc.kind and back.transposed == mc.transposed

    def test_errors(self):
        with pytest.raises(NonBinaryEntryError):
            classify_under4(IntMatrix.from_rows([[2]]))
        with pytest.raises(NonBinaryEntryError):
            classify_under4(IntMatrix.from_rows([[-1, 1]]))
        with pytest.raises(ReducibleGramError):
            classify_under4(IntMatrix.from_rows([[1, 0], [0, 1]]))
        with pytest.raises(ReducibleGramError):
            classify_under4(IntMatrix.from_rows([[1, 0], [1, 0]]))
        with pytest.raises(SpectrumOutOfRangeError):
            classify_under4(IntMatrix.from_rows([[1, 1], [1, 1]]))
        with pytest.raises(SpectrumOutOfRangeError):
            classify_under4(IntMatrix.from_rows([[1, 1, 1], [1, 1, 1]]))

    def test_error_types_are_value_errors(self):
        assert issubclass(NonBinaryEntryError, ValueError)
        assert issubclass(ReducibleGramError, ValueError)
        assert issubclass(SpectrumOutOfRangeError, ValueError)

    def test_all_zero_row_is_reducible(self):
        with pytest.raises(ReducibleGramError):
            classify_under4(IntMatrix.from_rows([[1, 1], [0, 0]]))

    @pytest.mark.parametrize("rows", [
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # a 4-cycle beside an edge
        [[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]],  # a degree-4 star beside an edge
        [[1, 1, 0], [1, 1, 0], [0, 0, 0]],  # a 4-cycle and a zero row
    ])
    def test_a_disconnected_support_out_of_range_is_reducible(self, rows):
        with pytest.raises(ReducibleGramError):
            classify_under4(IntMatrix.from_rows(rows))

    @staticmethod
    def counted_reads(monkeypatch):
        """Count the calls classify_under4 makes to the Dynkin reader and to
        the connectivity test."""
        calls = {"key": 0, "connected": 0}

        def counting(name, tag):
            inner = getattr(staircase_module, name)

            def wrapper(m):
                calls[tag] += 1
                return inner(m)

            monkeypatch.setattr(staircase_module, name, wrapper)

        counting("_dynkin_key", "key")
        counting("is_connected_bipartite", "connected")
        return calls

    def test_an_in_range_matrix_is_read_once(self, monkeypatch):
        calls = self.counted_reads(monkeypatch)
        classes = [mc for r in range(1, 6) for c in range(1, 6)
                   for mc in generators_for_shape(r, c)]
        for mc in classes:
            assert classify_under4(mc.matrix) == mc
        assert calls == {"key": len(classes), "connected": 0}

    def test_an_out_of_range_matrix_asks_connectivity_once(self, monkeypatch):
        calls = self.counted_reads(monkeypatch)
        with pytest.raises(SpectrumOutOfRangeError):
            classify_under4(IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert calls == {"key": 1, "connected": 1}


class TestSpectrumFilter:
    def test_agrees_with_numpy(self):
        rng = random.Random(700)
        for _ in range(200):
            m = random_binary_matrix(rng)
            g = gram(m, side="left")
            eigs = np.linalg.eigvalsh(np.array(g.rows, dtype=float))
            if np.any(np.abs(eigs - 4) < 1e-9):
                continue
            assert gram_spectrum_below_4(m) == bool(np.all(eigs < 4)), m

    def test_known_boundary(self):
        # the 2x2 all-ones matrix has Gram eigenvalues 0 and 4
        assert not gram_spectrum_below_4(IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert gram_spectrum_below_4(IntMatrix.from_rows([[1, 1], [0, 1]]))


class TestBruteForce:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_prefilter_agrees_with_full_search(self, shape):
        fast = brute_force_under4(*shape, prefilter=True)
        slow = brute_force_under4(*shape, prefilter=False)
        assert fast == slow

    @pytest.mark.parametrize(
        "shape,count",
        [((1, 1), 1), ((1, 2), 1), ((1, 3), 1), ((2, 2), 1), ((2, 3), 2),
         ((3, 3), 3), ((3, 4), 3), ((4, 4), 3), ((4, 5), 2)],
    )
    def test_matches_family_lists(self, shape, count):
        classes = brute_force_under4(*shape)
        assert len(classes) == count
        expected = {
            canonical_form(mc.matrix).rows
            for mc in generators_for_shape(*shape)
        }
        assert {m.rows for m in classes} == expected

    def test_entries_above_one_never_survive(self):
        # a single entry of 2 forces a Gram diagonal of at least 4
        for r in range(1, 4):
            for c in range(1, 4):
                classes = brute_force_under4(r, c, max_entry=3)
                assert all(
                    all(e <= 1 for row in m.rows for e in row)
                    for m in classes
                )

    def test_empty_shapes(self):
        assert list(brute_force_under4(1, 4)) == []
        assert list(brute_force_under4(2, 5)) == []


class TestExceptionalGrams:
    def test_gram_values(self):
        x1 = exceptional(1)
        assert gram(x1, side="left").rows == ((1, 1, 0), (1, 3, 1), (0, 1, 1))
        assert gram(x1, side="right").rows == ((2, 1, 1), (1, 1, 1), (1, 1, 2))
        x3 = exceptional(3)
        assert gram(x3, side="right").rows == (
            (2, 1, 0, 0), (1, 2, 1, 1), (0, 1, 1, 1), (0, 1, 1, 2)
        )

    def test_exceptionals_are_not_staircases(self):
        for k, shape in [(1, (3, 3)), (2, (3, 4)), (3, (4, 4))]:
            x = exceptional(k)
            assert x.shape == shape
            for mc in generators_for_shape(*shape):
                if mc.kind != "exceptional":
                    assert canonical_form(x) != canonical_form(mc.matrix)


class TestForbiddenConfigurations:
    def test_line_with_four_ones_pushes_spectrum_up(self):
        m = IntMatrix.from_rows([[1, 1, 1, 1]])
        assert not gram_spectrum_below_4(m)

    def test_two_heavy_parallel_lines_push_spectrum_up(self):
        # two rows sharing at least two ones give a principal 2x2 Gram
        # block with top eigenvalue at least 4, so the matrix must fail
        rng = random.Random(812)
        found = 0
        for _ in range(400):
            m = random_binary_matrix(rng, max_dim=5)
            heavy_pair = any(
                sum(a * b for a, b in zip(m.rows[i], m.rows[j])) >= 2
                for i, j in itertools.combinations(range(m.n_rows), 2)
            )
            if heavy_pair:
                found += 1
                assert not gram_spectrum_below_4(m), m
        assert found > 50
