"""Berkowitz's characteristic polynomial against recorded and independent values.

The digest pins the coefficient lists of the matrices the package feeds to
charpoly at scale: the total actions of the dihedral candidate modules at
levels 3..30, the stored higher-rank candidates and both reflection sign
matrices.  It was recorded with the Faddeev-LeVerrier recursion that
Berkowitz's replaced.  The property test compares with sympy on random
matrices with entries up to 2^70 in size and with zero rows and columns.
"""

import hashlib
import json

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspec.dihedral import DihedralRep, based_module_of, enumerate_B
from cellspec.fibpoly import IntPolynomial
from cellspec.higher_rank import reflection_sign_matrix, special_modules
from cellspec.intmat import IntMatrix, charpoly
from oracles import charpoly_by_permutation_expansion

RECORDED_SHA256 = "794e195d21bb1a6e99a5c5edc9ff8a883a4247b033e21fced20cc112b75e637c"

X = sympy.Symbol("x")


def corpus() -> list[IntMatrix]:
    matrices = [
        based_module_of(DihedralRep(n, cand.matrix)).total_action()
        for n in range(3, 31)
        for cand in enumerate_B(n)
    ]
    for name in ("H3", "H4", "F4", "B5"):
        matrices += [c.matrix for c in special_modules(name)]
    return matrices + [reflection_sign_matrix("H3"), reflection_sign_matrix("H4")]


def test_coefficients_match_the_recorded_digest():
    matrices = corpus()
    assert len(matrices) == 82
    text = json.dumps([list(charpoly(m).coeffs) for m in matrices])
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_SHA256


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 9))
    entry = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([2**70, -(2**70), 2**70 - 1, 1 - 2**70]),
        st.integers(-(2**70), 2**70),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_matches_sympy(m):
    expected = sympy.Matrix(m.to_lists()).charpoly(X).all_coeffs()
    assert list(charpoly(m).coeffs) == [int(c) for c in reversed(expected)]
    if m.n_rows <= 4:
        assert charpoly(m) == charpoly_by_permutation_expansion(m.rows)


def test_empty_matrix_gives_one():
    assert charpoly(IntMatrix(())) == IntPolynomial.one()


def test_non_square_matrix_is_refused():
    with pytest.raises(ValueError, match="square"):
        charpoly(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
