"""Euclid in Z[x]: primitive pseudo-remainders behind gcd and Sturm chains.

The worked examples pin the remainder helper on divisors with a negative
leading coefficient and on constant divisors.  The property tests compare
against sympy, which runs Euclid over Q: each chain member must be a
positive rational multiple of sympy's, term by term, and gcd must equal
sympy's gcd made primitive with a positive leading coefficient.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellspec.fibpoly import IntPolynomial, _primitive_rem, sturm_chain

X = sympy.Symbol("x")


def to_sympy(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X, domain="QQ")


def from_sympy(p: sympy.Poly) -> list[Fraction]:
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


class TestPrimitiveRemainder:
    def test_negative_leading_coefficient_divisor(self):
        # x^3 + 2x + 5 = (-x/2)(-2x^2 + 1) + (5x/2 + 5)
        a = IntPolynomial([5, 2, 0, 1])
        b = IntPolynomial([1, 0, -2])
        assert _primitive_rem(a, b) == IntPolynomial([2, 1])

    def test_negative_remainder_keeps_its_sign(self):
        # -x^2 + x at the root 2 of 2 - x is -2
        a = IntPolynomial([0, 1, -1])
        b = IntPolynomial([2, -1])
        assert _primitive_rem(a, b) == IntPolynomial([-1])
        assert _primitive_rem(-a, -b) == IntPolynomial([1])

    def test_constant_divisor_leaves_no_remainder(self):
        a = IntPolynomial([4, -6, 7])
        assert _primitive_rem(a, IntPolynomial([-3])).is_zero()
        assert _primitive_rem(a, IntPolynomial([1])).is_zero()

    def test_lower_degree_dividend_is_made_primitive(self):
        a = IntPolynomial([-4, 6])
        assert _primitive_rem(a, IntPolynomial([0, 0, -5])) == IntPolynomial([-2, 3])

    def test_exact_division_gives_zero(self):
        a = IntPolynomial([-1, 0, 1])
        assert _primitive_rem(a, IntPolynomial([3, -3])).is_zero()

    def test_gcd_zero_cases(self):
        zero = IntPolynomial()
        p = IntPolynomial([4, -6])
        assert zero.gcd(zero) == zero
        assert p.gcd(zero) == IntPolynomial([-2, 3])
        assert zero.gcd(p) == IntPolynomial([-2, 3])
        assert (-p).gcd(zero) == IntPolynomial([-2, 3])
        assert p.gcd(IntPolynomial([6])) == IntPolynomial([1])


coefficients = st.lists(st.integers(-12, 12), min_size=2, max_size=9)


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(coefficients)
    def test_sturm_chain_is_a_positive_multiple_of_sympys(self, cs):
        p = IntPolynomial(cs)
        assume(p.degree >= 1 and p.leading_coefficient > 0)
        reference = to_sympy(p)
        assume(sympy.gcd(reference, reference.diff(X)).degree() == 0)
        ours = sturm_chain(p)
        theirs = [from_sympy(q) for q in sympy.sturm(reference)]
        assert len(ours) == len(theirs)
        for mine, ref in zip(ours, theirs):
            assert [c == 0 for c in mine.coeffs] == [r == 0 for r in ref]
            ratios = {Fraction(c) / r for c, r in zip(mine.coeffs, ref) if r}
            assert len(ratios) == 1
            assert ratios.pop() > 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(coefficients, coefficients, st.lists(st.integers(-5, 5), max_size=4))
    def test_gcd_matches_sympy(self, cs, ds, shared):
        common = IntPolynomial(shared or [1])
        assume(not common.is_zero())
        p = IntPolynomial(cs) * common
        q = IntPolynomial(ds) * common
        g = sympy.gcd(to_sympy(p), to_sympy(q)).clear_denoms(convert=True)[1]
        expected = IntPolynomial(
            [int(c) for c in reversed(g.all_coeffs())]
        ).primitive_part()
        assert p.gcd(q) == expected
        assert q.gcd(p) == expected
