"""The Sturm chain from one remainder sequence, against the reference that
first takes the squarefree part by a gcd and then builds its chain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.fibpoly as fibpoly_module
from cellspec.fibpoly import IntPolynomial, fib_irreducible_factor, sturm_chain
from oracles import sturm_chain_by_squarefree_part

factor = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)


@st.composite
def with_repeated_factors(draw):
    """A product of up to three small integer polynomials, each to a power
    of at most 3, so that repeated roots are common."""
    p = IntPolynomial.one()
    for coeffs in draw(st.lists(factor, min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            p = p * IntPolynomial(coeffs)
    return p


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(with_repeated_factors())
def test_chain_matches_the_squarefree_part_reference(p):
    reference = sturm_chain_by_squarefree_part(p)
    chain = fibpoly_module._sturm_chain.__wrapped__(p.coeffs)
    assert list(chain) == reference
    assert sturm_chain(p) == reference


@pytest.mark.parametrize("i", [3, 12, 30])
def test_squarefree_input_runs_no_gcd(monkeypatch, i):
    calls = []
    gcd = IntPolynomial.gcd

    def counted(self, other):
        calls.append(other)
        return gcd(self, other)

    monkeypatch.setattr(IntPolynomial, "gcd", counted)
    p = fib_irreducible_factor(i)
    chain = fibpoly_module._sturm_chain.__wrapped__(p.coeffs)
    assert chain[0] == p.primitive_part()
    assert calls == []


def test_repeated_roots_rebuild_from_the_squarefree_part():
    x = IntPolynomial.x()
    p = 3 * (x - 1) * (x - 1) * (x - 1) * (x + 2) * (x + 2) * (x * x - 5)
    assert sturm_chain(p)[0] == (x - 1) * (x + 2) * (x * x - 5)
    assert sturm_chain(p) == sturm_chain_by_squarefree_part(p)


def test_zero_polynomial_has_no_chain():
    with pytest.raises(ValueError, match="^zero polynomial has no squarefree part$"):
        sturm_chain(IntPolynomial())
