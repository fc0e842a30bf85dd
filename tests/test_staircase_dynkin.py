"""The Dynkin route of the classification against the exact Sturm route.

classify_under4 and the pruned search read the class of a 0-1 matrix off
the Dynkin type of its support graph.  These tests pin that route to the
spectral test gram_spectrum_below_4 and to the canonical-form matcher it
replaced, and check the symmetries the classification must have.
"""

import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspec.dihedral import recover_n
from cellspec.intmat import IntMatrix
from cellspec.staircase import (
    SpectrumOutOfRangeError,
    _dynkin_key,
    _dynkin_members,
    brute_force_under4,
    canonical_form,
    classes_of_type,
    classify_under4,
    generators_for_shape,
    gram_spectrum_below_4,
    is_connected_bipartite,
    make_extended_staircase,
    make_staircase,
)
from oracles import classify_by_canonical_form

SMALL_SHAPES = sorted(
    {(r, c) for r in range(1, 4) for c in range(1, 5)}
    | {(r, c) for r in range(1, 5) for c in range(1, 4)}
)

# every representative of every shape up to 7x7
REPRESENTATIVES = [
    mc
    for r in range(1, 8)
    for c in range(1, 8)
    for mc in generators_for_shape(r, c)
]


def permuted(m: IntMatrix, row_order, col_order) -> IntMatrix:
    return IntMatrix.from_rows(
        [[m.rows[i][j] for j in col_order] for i in row_order]
    )


def test_every_small_connected_matrix_agrees_with_sturm():
    connected = in_range = 0
    for r, c in SMALL_SHAPES:
        for flat in itertools.product((0, 1), repeat=r * c):
            m = IntMatrix(tuple(flat[i * c : (i + 1) * c] for i in range(r)))
            if not is_connected_bipartite(m):
                continue
            connected += 1
            below = gram_spectrum_below_4(m)
            assert (_dynkin_key(m) is not None) == below, m
            if below:
                in_range += 1
                assert classify_under4(m) == classify_by_canonical_form(m), m
            else:
                with pytest.raises(SpectrumOutOfRangeError):
                    classify_under4(m)
    assert (connected, in_range) == (3975, 729)


@st.composite
def connected_binary_matrices(draw, max_dim=6):
    """A random spanning tree of the bipartite graph on r rows and c
    columns, plus up to three more ones."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = [[0] * c for _ in range(r)]
    placed_rows, placed_cols = [0], []
    unplaced_rows, unplaced_cols = list(range(1, r)), list(range(c))
    while unplaced_rows or unplaced_cols:
        add_col = not unplaced_rows or (
            unplaced_cols and (not placed_cols or draw(st.booleans()))
        )
        if add_col:
            j = unplaced_cols.pop(draw(st.integers(0, len(unplaced_cols) - 1)))
            i = draw(st.sampled_from(placed_rows))
            placed_cols.append(j)
        else:
            i = unplaced_rows.pop(draw(st.integers(0, len(unplaced_rows) - 1)))
            j = draw(st.sampled_from(placed_cols))
            placed_rows.append(i)
        rows[i][j] = 1
    extra = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))
    for i, j in draw(st.lists(extra, max_size=3)):
        rows[i][j] = 1
    return IntMatrix.from_rows(rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(connected_binary_matrices())
def test_sampled_matrices_up_to_6x6_agree_with_sturm(m):
    assert is_connected_bipartite(m)
    below = gram_spectrum_below_4(m)
    assert (_dynkin_key(m) is not None) == below, m
    if below:
        assert classify_under4(m) == classify_by_canonical_form(m), m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_classification_is_invariant_under_permutations(data):
    mc = data.draw(st.sampled_from(REPRESENTATIVES))
    row_order = data.draw(st.permutations(range(mc.n_rows)))
    col_order = data.draw(st.permutations(range(mc.n_cols)))
    assert classify_under4(permuted(mc.matrix, row_order, col_order)) == mc


@pytest.mark.parametrize("mc", REPRESENTATIVES, ids=lambda mc: mc.describe())
def test_transpose_swaps_the_shape_only(mc):
    back = classify_under4(mc.matrix.transpose())
    assert (back.kind, back.variant) == (mc.kind, mc.variant)
    assert (back.n_rows, back.n_cols) == (mc.n_cols, mc.n_rows)
    assert canonical_form(back.matrix) == canonical_form(mc.matrix.transpose())


@pytest.mark.parametrize("shape", [(5, 5), (5, 6), (6, 5)])
def test_larger_searches_match_the_families(shape):
    expected = {
        canonical_form(mc.matrix).rows for mc in generators_for_shape(*shape)
    }
    assert {m.rows for m in brute_force_under4(*shape)} == expected


def test_huge_max_entry_changes_nothing():
    for shape in [(1, 3), (2, 3), (3, 3), (1, 6), (3, 4)]:
        started = time.monotonic()
        wide = brute_force_under4(*shape, max_entry=10**6)
        assert time.monotonic() - started < 1.0, shape
        assert wide == brute_force_under4(*shape), shape


@pytest.mark.parametrize(
    "m,kind",
    [
        (make_staircase(11, 12), "staircase"),
        (make_extended_staircase(11, 12), "extended_staircase"),
    ],
)
def test_more_than_ten_columns_classify(m, kind):
    rng = random.Random(11)
    row_order = rng.sample(range(m.n_rows), m.n_rows)
    col_order = rng.sample(range(m.n_cols), m.n_cols)
    mc = classify_under4(permuted(m, row_order, col_order))
    assert (mc.kind, mc.matrix) == (kind, m)


@functools.cache
def classes_of(shape):
    return brute_force_under4(*shape)


@pytest.mark.parametrize(
    "shape", [(r, c) for r in range(1, 7) for c in range(1, 7)]
)
def test_search_agrees_with_the_transposed_shape(shape):
    r, c = shape
    transposed = {canonical_form(m.transpose()).rows for m in classes_of((c, r))}
    assert {m.rows for m in classes_of(shape)} == transposed


def test_a_long_single_row_is_searched_at_once():
    started = time.monotonic()
    assert brute_force_under4(1, 13) == []
    assert _dynkin_members(1, 13) == []
    assert time.monotonic() - started < 0.5


COXETER_NUMBERS = (
    [(f"A{m}", m + 1) for m in range(2, 41)]
    + [(f"D{m}", 2 * m - 2) for m in range(4, 41)]
    + [("E6", 12), ("E7", 18), ("E8", 30)]
)


@pytest.mark.parametrize("name,coxeter", COXETER_NUMBERS)
def test_classes_of_type(name, coxeter):
    classes = classes_of_type(name)
    for mc in classes:
        assert _dynkin_key(mc.matrix)[0] == name
        assert recover_n(mc.matrix) == coxeter
    # only the square staircases of A_(2k) are their own transposes
    square_path = name[0] == "A" and int(name[1:]) % 2 == 0
    assert len(classes) == (1 if square_path else 2)
    if not square_path:
        assert classes[1].matrix == classes[0].matrix.transpose()
        assert [mc.transposed for mc in classes] == [False, True]


@pytest.mark.parametrize("name", ["", "A", "A1", "D3", "E5", "E9", "B3", "Dx"])
def test_classes_of_type_refuses_other_names(name):
    with pytest.raises(ValueError):
        classes_of_type(name)
