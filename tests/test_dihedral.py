import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.dihedral as dihedral_module
from cellspec.based_algebra import BasedModule
from cellspec.dihedral import (
    DihedralCandidate,
    DihedralRep,
    annihilation_test,
    based_algebra_of,
    based_module_of,
    enumerate_B,
    recover_n,
    structure_constants,
    theta_generator_matrices,
    theta_word_matrix,
)
from cellspec.intmat import IntMatrix
from cellspec.staircase import (
    canonical_form, classes_of_type, exceptional, make_staircase
)
from frozen import B_LIST_6, B_LIST_8, THETA_1_EXAMPLE, THETA_2_EXAMPLE, X_LEVEL
from oracles import structure_constants_by_dense_ladder


def test_doctests():
    assert doctest.testmod(dihedral_module).failed == 0


class TestGeneratorMatrices:
    def test_frozen_example(self):
        b = IntMatrix.from_rows([[1, 0], [1, 1]])
        t1, t2 = theta_generator_matrices(b)
        assert t1.to_lists() == THETA_1_EXAMPLE
        assert t2.to_lists() == THETA_2_EXAMPLE

    def test_one_by_one(self):
        b = IntMatrix.from_rows([[1]])
        t1, t2 = theta_generator_matrices(b)
        assert t1.to_lists() == [[2, 1], [0, 0]]
        assert t2.to_lists() == [[0, 0], [1, 2]]

    def test_column_matrix(self):
        b = IntMatrix.from_rows([[1], [1]])
        t1, t2 = theta_generator_matrices(b)
        assert t1.to_lists() == [[2, 0, 1], [0, 2, 1], [0, 0, 0]]
        assert t2.to_lists() == [[0, 0, 0], [0, 0, 0], [1, 1, 2]]

    def test_word_matrices_start_with_generators(self):
        b = make_staircase(2, 3)
        t1, t2 = theta_generator_matrices(b)
        assert theta_word_matrix(b, 1, 1) == t1
        assert theta_word_matrix(b, 1, 2) == t2
        assert theta_word_matrix(b, 0, 1) == IntMatrix.identity(5)


class TestFusionRecursion:
    """The family of word matrices must satisfy the fusion rules: a
    generator times a word starting with the other letter splits into the
    one-longer and one-shorter words with the generator's letter first,
    and a generator times a word starting with the same letter doubles."""

    @pytest.mark.parametrize(
        "rows", [[[1]], [[1], [1]], [[1, 0], [1, 1]], [[1, 1, 0], [0, 1, 1]],
                 [[1, 1, 1]]]
    )
    def test_fusion(self, rows):
        b = IntMatrix.from_rows(rows)
        t1, t2 = theta_generator_matrices(b)
        gens = {1: t1, 2: t2}
        for length in range(1, 7):
            for first in (1, 2):
                w = theta_word_matrix(b, length, first)
                other = 3 - first
                # same-letter absorption
                assert gens[first] @ w == 2 * w
                # split rule
                longer = theta_word_matrix(b, length + 1, other)
                product = gens[other] @ w
                if length == 1:
                    assert product == longer
                else:
                    shorter = theta_word_matrix(b, length - 1, other)
                    assert product == longer + shorter


class TestAnnihilation:
    def test_staircase_round_trip(self):
        for n in range(3, 41):
            for cand in enumerate_B(n):
                assert annihilation_test(cand.matrix, n), (n, cand.describe())
                assert recover_n(cand.matrix) == n, (n, cand.describe())

    def test_minimality(self):
        for n in range(4, 13):
            for cand in enumerate_B(n):
                assert not annihilation_test(cand.matrix, n - 1)

    def test_multiples_also_annihilate(self):
        b = make_staircase(2, 3)  # level 6
        assert annihilation_test(b, 12)
        assert annihilation_test(b, 18)
        assert not annihilation_test(b, 8)

    def test_exceptional_levels(self):
        for k, n in X_LEVEL.items():
            assert recover_n(exceptional(k)) == n

    def test_recover_fails_for_spectrum_at_4(self):
        with pytest.raises(ValueError):
            recover_n(IntMatrix.from_rows([[1, 1], [1, 1]]))


class TestEnumeration:
    def test_frozen_lists(self):
        assert [c.matrix.to_lists() for c in enumerate_B(6)] == B_LIST_6
        assert [c.matrix.to_lists() for c in enumerate_B(8)] == B_LIST_8

    @pytest.mark.parametrize("n,count", [(3, 1), (5, 1), (7, 1), (9, 1),
                                         (6, 4), (8, 4), (10, 4), (14, 4),
                                         (12, 6), (18, 6), (30, 6), (4, 2)])
    def test_counts(self, n, count):
        assert len(enumerate_B(n)) == count

    def test_exceptionals_are_flagged(self):
        for n, k in [(12, 1), (18, 2), (30, 3)]:
            hyp = [c for c in enumerate_B(n) if c.hypothetical]
            assert len(hyp) == 2
            assert canonical_form(hyp[0].matrix) == canonical_form(exceptional(k))
            assert hyp[1].matrix == hyp[0].matrix.transpose()
        for n in (6, 8, 10, 16, 20):
            assert all(not c.hypothetical for c in enumerate_B(n))

    def test_candidates_at_odd_levels_are_square_staircases(self):
        for n in (5, 7, 9, 11, 13):
            k = (n - 1) // 2
            (cand,) = enumerate_B(n)
            assert cand.matrix == make_staircase(k, k)

    def test_named_constructors(self):
        # level 6 is the Coxeter number of A5 and of D4
        cell = classes_of_type("A5")[0].matrix
        assert cell == make_staircase(2, 3)
        assert cell.transpose() == make_staircase(3, 2)
        extension = classes_of_type("D4")[0].matrix
        assert extension.to_lists() == [[1, 1, 1]]
        assert extension.transpose().to_lists() == [[1], [1], [1]]
        # no D type has the odd Coxeter number 5, and D3 is A3
        assert [c.family for c in enumerate_B(5)] == ["cell"]
        with pytest.raises(ValueError):
            classes_of_type("D3")


class TestRep:
    def test_validation(self):
        with pytest.raises(ValueError):
            DihedralRep(5, make_staircase(2, 3))  # level is 6, not 5
        rep = DihedralRep(6, make_staircase(2, 3))
        assert rep.dimension == 5
        assert recover_n(rep.b, bound=rep.n) == 6
        # level 12 is presented too, but 6 is the smallest level
        rep12 = DihedralRep(12, make_staircase(2, 3))
        assert recover_n(rep12.b, bound=rep12.n) == 6

    def test_level_check_is_the_annihilation_test(self):
        # DihedralRep checks its level on the word ladder it keeps.  On a
        # seeded sample of 0-1 and 0-2 matrices at levels 3-24 it accepts
        # exactly where annihilation_test holds, and every kept word is the
        # closed form.
        rng, seen, outcomes = random.Random(40), set(), {"accepted": 0, "refused": 0}
        while len(seen) < 60:
            r, c, top = rng.randint(1, 4), rng.randint(1, 4), rng.choice((1, 1, 2))
            rows = tuple(tuple(rng.randint(0, top) for _ in range(c)) for _ in range(r))
            if rows in seen:
                continue
            seen.add(rows)
            b = IntMatrix(rows)
            for n in range(3, 25):
                try:
                    rep = DihedralRep(n, b)
                except ValueError as error:
                    assert str(error) == "matrix does not present this level"
                    assert not annihilation_test(b, n), (rows, n)
                    outcomes["refused"] += 1
                    continue
                assert annihilation_test(b, n), (rows, n)
                outcomes["accepted"] += 1
                for length in range(1, n + 1):
                    for first in (1, 2):
                        want = theta_word_matrix(b, length, first)
                        assert rep.words[(first, length)] == want, (rows, n, length)
        assert outcomes == {"accepted": 149, "refused": 1171}

    def test_levels_below_3_are_refused(self):
        with pytest.raises(ValueError, match="^level must be at least 3$"):
            DihedralRep(2, make_staircase(2, 3))

    def test_theta_access(self):
        rep = DihedralRep(6, make_staircase(2, 3))
        t1, t2 = theta_generator_matrices(rep.b)
        assert theta_word_matrix(rep.b, 1, 1) == t1
        assert theta_word_matrix(rep.b, 1, 2) == t2
        assert theta_word_matrix(rep.b, 6, 1).is_zero()
        assert theta_word_matrix(rep.b, 6, 2).is_zero()
        assert not theta_word_matrix(rep.b, 5, 1).is_zero()

    @pytest.mark.parametrize("call, message", [
        (lambda: theta_word_matrix(make_staircase(2, 3), 1, 3), "first generator must be 1 or 2"),
        (lambda: theta_word_matrix(make_staircase(2, 3), -1, 1), "length must be non-negative"),
        (lambda: annihilation_test(make_staircase(2, 3), 2), "level must be at least 3"),
        (lambda: enumerate_B(2), "level must be at least 3"),
        (lambda: structure_constants(2), "level must be at least 3"),
    ])
    def test_arguments_out_of_range_are_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestStructureConstants:
    def test_dimensions_and_labels(self):
        labels, gamma = structure_constants(5)
        assert len(labels) == 9
        assert labels[0] == "e"
        assert labels[1:5] == ("1", "2", "12", "21")
        assert len(gamma) == 9
        assert all(len(plane) == 9 and all(len(r) == 9 for r in plane)
                   for plane in gamma)

    def test_gamma_nonnegative(self):
        for n in range(3, 13):
            _, gamma = structure_constants(n)
            assert all(
                v >= 0 for plane in gamma for row in plane for v in row
            ), n

    def test_generator_squares(self):
        labels, gamma = structure_constants(7)
        idx = {lab: i for i, lab in enumerate(labels)}
        one = idx["1"]
        # theta_1 * theta_1 = 2 theta_1
        got = {k: gamma[one][one][k] for k in range(len(labels))
               if gamma[one][one][k]}
        assert got == {one: 2}

    def test_truncation_at_top(self):
        # at the top length, products lose the longest term
        labels, gamma = structure_constants(4)
        idx = {lab: i for i, lab in enumerate(labels)}
        # theta_1 * theta_21: word 121 has length 3 = n - 1, still present
        got = {k: gamma[idx["1"]][idx["21"]][k] for k in range(len(labels))
               if gamma[idx["1"]][idx["21"]][k]}
        assert got == {idx["121"]: 1, idx["1"]: 1}
        # theta_1 * theta_212 would give word 1212 of length 4 = n: truncated
        got = {k: gamma[idx["1"]][idx["212"]][k] for k in range(len(labels))
               if gamma[idx["1"]][idx["212"]][k]}
        assert got == {idx["12"]: 1}

    def test_algebras_validate(self):
        # based_algebra_of does not validate at run time
        for n in range(3, 31):
            based_algebra_of(n).validate()

    def test_matches_the_dense_ladder(self):
        for n in range(3, 31):
            assert structure_constants(n) == structure_constants_by_dense_ladder(n), n

    def test_algebra_is_built_once_per_level(self):
        assert based_algebra_of(7) is based_algebra_of(7)


class TestWordLadder:
    def test_module_actions_match_the_closed_form(self):
        for n in range(3, 15):
            for cand in enumerate_B(n):
                module = based_module_of(DihedralRep(n, cand.matrix))
                for lab, action in zip(module.algebra.labels, module.actions):
                    if lab == "e":
                        assert action == IntMatrix.identity(module.dimension)
                    else:
                        want = theta_word_matrix(cand.matrix, len(lab), int(lab[0]))
                        assert action == want, (n, cand.describe(), lab)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_matrices_match_the_closed_form(self, data):
        r, c = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 2), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
        top = data.draw(st.integers(1, 14))
        b = IntMatrix.from_rows(rows)
        words = dihedral_module._word_ladder(b, top)
        for length in range(1, top + 1):
            for first in (1, 2):
                want = theta_word_matrix(b, length, first)
                assert words[(first, length)] == want, (length, first)


class TestModules:
    def test_modules_validate_and_are_transitive(self):
        # based_module_of checks only non-negativity at run time
        for n in range(3, 31):
            for cand in enumerate_B(n):
                module = based_module_of(DihedralRep(n, cand.matrix))
                module.validate()
                assert module.is_transitive()
                assert module.annihilated() == ()

    def test_apex_is_the_nonidentity_cell(self):
        for n in (4, 5, 6, 8):
            for cand in enumerate_B(n):
                module = based_module_of(DihedralRep(n, cand.matrix))
                apex = module.apex()
                labels = module.algebra.labels
                assert sorted(labels[i] for i in apex) == sorted(
                    lab for lab in labels if lab != "e"
                )

    def test_construction_agrees_with_the_validated_closed_form(self):
        # based_module_of checks only non-negativity; BasedModule.make checks
        # the whole module law on the closed-form actions.  On every level
        # 3-24 that each sampled 0-1 matrix presents, both refuse with the
        # same message or both give the same, validated, actions.
        rng, seen, outcomes = random.Random(71), set(), {"module": 0, "refused": 0}
        while len(seen) < 150:
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r))
            if rows in seen:
                continue
            seen.add(rows)
            b = IntMatrix(rows)
            for n in range(3, 25):
                if not annihilation_test(b, n):
                    continue
                algebra = based_algebra_of(n)
                actions = [IntMatrix.identity(r + c)] + [
                    theta_word_matrix(b, len(lab), int(lab[0])) for lab in algebra.labels[1:]
                ]
                try:
                    want = BasedModule.make(algebra, actions)
                except ValueError as error:
                    with pytest.raises(ValueError) as excinfo:
                        based_module_of(DihedralRep(n, b))
                    assert str(excinfo.value) == str(error), (rows, n)
                    outcomes["refused"] += 1
                else:
                    module = based_module_of(DihedralRep(n, b))
                    assert module == want, (rows, n)
                    outcomes["module"] += 1
        assert outcomes == {"module": 23, "refused": 435}
