import doctest
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cellspec.fibpoly as fibpoly_module
from cellspec.fibpoly import (
    IntPolynomial,
    check_fg_relation,
    count_real_roots,
    count_roots_in,
    divisors,
    eval_at_matrix,
    fib_f,
    fib_g,
    fib_irreducible_factor,
    max_root_bracket,
    max_root_strictly_less,
    root_bound,
    squarefree_part,
    sturm_chain,
)
from cellspec.higher_rank import b_family_matrix
from cellspec.intmat import charpoly
from frozen import F_TABLE, FBAR_TABLE
from oracles import (
    fib_f_by_products,
    fib_g_by_products,
    max_root_bracket_by_bisection,
    totient,
)


def test_doctests():
    result = doctest.testmod(fibpoly_module)
    assert result.failed == 0


class TestIntPolynomial:
    def test_construction_and_degree(self):
        p = IntPolynomial((1, -3, 1))
        assert p.degree == 2
        assert p.leading_coefficient == 1
        assert IntPolynomial.zero().degree == -1
        assert not IntPolynomial.zero()
        assert IntPolynomial.one().degree == 0
        assert IntPolynomial.x().degree == 1

    def test_trailing_zeros_are_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))

    def test_arithmetic(self):
        x = IntPolynomial.x()
        p = (x - 1) * (x - 2)
        assert p == IntPolynomial((2, -3, 1))
        assert p + 1 == IntPolynomial((3, -3, 1))
        assert 2 * x == IntPolynomial((0, 2))
        assert (p - p).is_zero()
        assert -(x - 1) == IntPolynomial((1, -1))

    def test_division(self):
        x = IntPolynomial.x()
        p = (x - 1) * (x - 2)
        q, r = divmod(p, x - 1)
        assert q == x - 2 and r.is_zero()
        q, r = divmod(p, x)
        assert q == IntPolynomial((-3, 1)) and r == IntPolynomial((2,))
        assert p.exact_div(x - 2) == x - 1
        with pytest.raises(ValueError):
            p.exact_div(x - 5)
        with pytest.raises(ValueError):
            divmod(p, 2 * x)  # leading coefficient 2 does not divide 1

    def test_gcd(self):
        x = IntPolynomial.x()
        a = (x - 1) * (x - 2)
        b = (x - 2) * (x - 3)
        assert a.gcd(b) == x - 2
        assert a.gcd(IntPolynomial.zero()) == (x - 1) * (x - 2)
        # gcd is normalized to positive leading coefficient
        assert (-(x - 2)).gcd(-(x - 2) * (x - 1)) == x - 2

    def test_evaluation(self):
        p = IntPolynomial((1, -3, 1))
        assert p(0) == 1
        assert p(Fraction(1, 2)) == Fraction(-1, 4)
        x = IntPolynomial.x()
        assert p(x - 1) == IntPolynomial((5, -5, 1))  # shift by 1

    def test_derivative_content_primitive(self):
        p = IntPolynomial((4, -6, 2))
        assert p.derivative() == IntPolynomial((-6, 4))
        assert p.content() == 2
        assert p.primitive_part() == IntPolynomial((2, -3, 1))
        assert (-1 * p).primitive_part() == IntPolynomial((2, -3, 1))

    @pytest.mark.parametrize("c", [0, 3, -5, 2**70])
    def test_a_constant_hashes_as_its_int(self, c):
        p = IntPolynomial((c,))
        assert p == c and hash(p) == hash(c)
        assert p in {c} and c in {p}
        assert len({c, p}) == 1

    def test_str(self):
        assert str(IntPolynomial((1, -3, 1))) == "x^2 - 3x + 1"
        assert str(IntPolynomial.zero()) == "0"
        assert str(IntPolynomial((0, -1))) == "-x"


class TestFamily:
    def test_f_table(self):
        for i, text in F_TABLE.items():
            assert str(fib_f(i)) == text, f"f_{i}"

    def test_fbar_table(self):
        for i, text in FBAR_TABLE.items():
            assert str(fib_irreducible_factor(i)) == text, f"fbar_{i}"

    def test_g_recursion(self):
        x = IntPolynomial.x()
        assert fib_g(0).is_zero()
        assert fib_g(1) == IntPolynomial.one()
        for i in range(2, 40):
            assert fib_g(i) == x * fib_g(i - 1) + fib_g(i - 2)

    def test_f_recursion(self):
        x = IntPolynomial.x()
        for i in range(2, 40):
            if i % 2 == 1:
                assert fib_f(i) == fib_f(i - 1) - fib_f(i - 2)
            else:
                assert fib_f(i) == x * fib_f(i - 1) - fib_f(i - 2)

    def test_substitution_relation(self):
        for i in range(1, 40):
            assert check_fg_relation(i), i

    def test_one_step_and_cold_builds_agree(self):
        # a term whose two predecessors are kept takes one step from them;
        # any other is built from index 0.  Descending indices are all cold.
        for family in (fib_f, fib_g):
            family.cache_clear()
            cold = [family(i) for i in range(80, -1, -1)][::-1]
            family.cache_clear()
            assert [family(i) for i in range(81)] == cold
        with pytest.raises(ValueError, match="^index must be non-negative$"):
            fib_f(-1)

    def test_families_match_the_product_recurrences(self):
        fib_f.cache_clear()
        fib_g.cache_clear()
        pairs = zip(fib_f_by_products(200), fib_g_by_products(200))
        for i, (f, g) in enumerate(pairs):
            assert fib_f(i) == f, f"f_{i}"
            assert fib_g(i) == g, f"g_{i}"

    def test_coefficient_placement_is_the_substitution(self):
        minus_x_sq = IntPolynomial((0, 0, -1))
        for i in range(101):
            placed = fibpoly_module._at_minus_x_squared(fib_f(i))
            assert placed == fib_f(i)(minus_x_sq), i

    @pytest.mark.parametrize("name", ["fib_f", "fib_g"])
    @pytest.mark.parametrize(
        "perturb",
        [
            lambda p: p + 1,
            lambda p: -p,
            lambda p: p + IntPolynomial((0,) * p.degree + (1,)),
        ],
        ids=["constant", "sign", "leading"],
    )
    @pytest.mark.parametrize("i", [1, 2, 5, 12, 31, 64])
    def test_relation_fails_for_a_perturbed_family(self, monkeypatch, name, perturb, i):
        assert check_fg_relation(i)
        family = getattr(fibpoly_module, name)
        monkeypatch.setattr(fibpoly_module, name, lambda k: perturb(family(k)))
        assert not check_fg_relation(i)

    def test_product_of_factors(self):
        for i in range(1, 61):
            product = IntPolynomial.one()
            for d in divisors(i):
                product = product * fib_irreducible_factor(d)
            assert product == fib_f(i), i

    def test_factor_degrees_follow_totient(self):
        for i in range(3, 61):
            assert 2 * fib_irreducible_factor(i).degree == totient(i), i

    def test_factors_are_irreducible(self):
        x = sympy.symbols("x")
        for i in range(2, 31):
            p = sympy.Poly(list(reversed(fib_irreducible_factor(i).coeffs)), x)
            assert p.is_irreducible, i

    def test_f_is_squarefree(self):
        for i in range(2, 41):
            p = fib_f(i)
            assert p.gcd(p.derivative()).degree == 0, i


class TestSturm:
    def test_known_root_counts(self):
        x = IntPolynomial.x()
        p = (x - 1) * (x - 2) * (x - 3)
        assert count_real_roots(p) == 3
        assert count_roots_in(p, 1, 3) == 2  # (1, 3]: root at 1 excluded
        assert count_roots_in(p, 0, 1) == 1  # root at 1 included
        assert count_roots_in(p, None, 0) == 0
        assert count_roots_in(p, 3, None) == 0
        assert count_real_roots(IntPolynomial((1, 0, 1))) == 0  # x^2 + 1

    def test_repeated_roots_counted_once(self):
        x = IntPolynomial.x()
        p = (x - 2) * (x - 2) * (x - 5)
        assert count_real_roots(p) == 2
        assert count_roots_in(p, 1, 3) == 1
        assert squarefree_part(p) == (x - 2) * (x - 5)

    def test_randomized_against_known_integer_roots(self):
        rng = random.Random(20210)
        x = IntPolynomial.x()
        for _ in range(200):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
            p = IntPolynomial.one()
            for r in roots:
                power = rng.randint(1, 2)
                for _ in range(power):
                    p = p * (x - r)
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 12)
            expected = sum(1 for r in set(roots) if lo < r <= hi)
            assert count_roots_in(p, lo, hi) == expected, (roots, lo, hi)
            assert count_real_roots(p) == len(set(roots))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_rational_roots_at_rational_endpoints(self, data):
        # Products of (b*x - a), some factors repeated, so roots are rational
        # and the chain starts from a non-trivial squarefree part.  Endpoints
        # have odd denominators, sit exactly on roots, or are None.
        x = IntPolynomial.x()
        factors = data.draw(
            st.lists(
                st.tuples(st.integers(-12, 12), st.integers(1, 4), st.integers(1, 3)),
                min_size=1,
                max_size=4,
            )
        )
        p = IntPolynomial.one()
        for a, b, power in factors:
            for _ in range(power):
                p = p * (b * x - a)
        odd_fraction = st.builds(
            Fraction, st.integers(-60, 60), st.sampled_from([1, 3, 5, 7, 9, 15, 21])
        )
        endpoint = st.one_of(
            st.none(), odd_fraction, st.sampled_from([Fraction(a, b) for a, b, _ in factors])
        )
        lo, hi = data.draw(endpoint), data.draw(endpoint)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        t = sympy.symbols("t")
        roots = set(sympy.real_roots(sympy.Poly(list(reversed(p.coeffs)), t)))
        expected = sum(
            1
            for r in roots
            if (lo is None or r > sympy.Rational(lo.numerator, lo.denominator))
            and (hi is None or r <= sympy.Rational(hi.numerator, hi.denominator))
        )
        assert count_roots_in(p, lo, hi) == expected, (factors, lo, hi)

    def test_chain_shape(self):
        chain = sturm_chain(fib_f(9))
        assert chain[0] == fib_f(9)
        degrees = [q.degree for q in chain]
        assert degrees == sorted(degrees, reverse=True)

    def test_cached_chain_is_not_aliased(self):
        p = fib_f(9)
        ranges = [(None, None), (0, 4), (Fraction(1, 3), Fraction(7, 3)), (2, None)]
        chain = sturm_chain(p)
        original = list(chain)
        counts = [count_roots_in(p, lo, hi) for lo, hi in ranges]
        chain.append(IntPolynomial.one())
        chain[0] = IntPolynomial.x()
        assert sturm_chain(p) == original
        assert [count_roots_in(p, lo, hi) for lo, hi in ranges] == counts

    def test_max_root_bracket(self):
        x = IntPolynomial.x()
        p = (x - 1) * (x - 4) * (x + 2)
        lo, hi = max_root_bracket(p, Fraction(1, 1000))
        assert lo < 4 <= hi and hi - lo <= Fraction(1, 1000)
        with pytest.raises(ValueError):
            max_root_bracket(IntPolynomial((1, 0, 1)), Fraction(1, 2))

    @pytest.mark.parametrize("width", [0, Fraction(-1, 8), -1.0, float("nan"), float("inf")])
    def test_max_root_bracket_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match="width"):
            max_root_bracket(fib_irreducible_factor(7), width)

    @pytest.mark.parametrize("width", [Fraction(1, 10**8), Fraction(1, 10**12)])
    def test_brackets_match_plain_bisection(self, width):
        for i in range(3, 31):
            p = fib_irreducible_factor(i)
            assert max_root_bracket(p, width) == max_root_bracket_by_bisection(p, width), i

    def test_brackets_with_repeated_roots_match_plain_bisection(self):
        # once the top root is isolated, bisection steps on the sign of the
        # squarefree part: repeated roots, at the top or below it, and
        # rational roots on a midpoint must leave every bracket unchanged
        rng = random.Random(11)
        for _ in range(80):
            p = IntPolynomial.one()
            for _ in range(rng.randint(1, 4)):
                factor = IntPolynomial((-rng.randint(-9, 9), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3)):
                    p = p * factor
            width = Fraction(1, 10 ** rng.randint(1, 12))
            # bisection of (-B, B] by a root count in the upper half
            lo, hi = -root_bound(p), root_bound(p)
            while hi - lo > width:
                mid = (lo + hi) / 2
                if count_roots_in(p, mid, hi):
                    lo = mid
                else:
                    hi = mid
            assert max_root_bracket(p, width) == (lo, hi), (p, width)

    def test_max_root_bracket_with_repeated_interior_root(self):
        # A double root below the top root must not derail the bracketing.
        x = IntPolynomial.x()
        p = (x - 2) * (x - 2) * (x - 3)
        lo, hi = max_root_bracket(p, Fraction(1, 10**6))
        assert lo < 3 <= hi

    def test_max_roots_of_factors_increase(self):
        for i in range(3, 25):
            assert max_root_strictly_less(
                fib_irreducible_factor(i), fib_irreducible_factor(i + 1)
            ), i

    def test_top_roots_match_closed_form(self):
        for i in range(3, 25):
            lo, hi = max_root_bracket(fib_irreducible_factor(i), Fraction(1, 10**9))
            target = 4 * math.cos(math.pi / i) ** 2
            assert abs(float((lo + hi) / 2) - target) < 1e-8, i


class TestRootCountEnds:
    @pytest.mark.parametrize(
        "coeffs, lo, hi, message",
        [((-1, 1), 3, 0, "lo=3 is greater than hi=0"),
         ((-2, 0, 1), 2, -2, "lo=2 is greater than hi=-2"),
         ((-2, 0, 1), Fraction(1, 3), Fraction(1, 5),
          "lo=Fraction(1, 3) is greater than hi=Fraction(1, 5)")],
    )
    def test_reversed_interval_is_refused(self, coeffs, lo, hi, message):
        with pytest.raises(ValueError) as info:
            count_roots_in(IntPolynomial(coeffs), lo, hi)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "lo, hi, message",
        [(float("nan"), 1, "lo must be finite or None, got nan"),
         (0, float("nan"), "hi must be finite or None, got nan"),
         (float("-inf"), 1, "lo must be finite or None, got -inf"),
         (None, float("inf"), "hi must be finite or None, got inf"),
         (float("inf"), None, "lo must be finite or None, got inf")],
    )
    def test_non_finite_end_is_refused(self, lo, hi, message):
        with pytest.raises(ValueError) as info:
            count_roots_in(IntPolynomial((-2, 0, 1)), lo, hi)
        assert str(info.value) == message

    def test_constant_polynomial_ends_are_checked(self):
        with pytest.raises(ValueError, match="hi must be finite"):
            count_roots_in(IntPolynomial((3,)), 0, float("inf"))
        with pytest.raises(ValueError, match="greater than"):
            count_roots_in(IntPolynomial((3,)), 1, 0)

    def test_none_and_equal_ends_still_count(self):
        p = IntPolynomial((-2, 0, 1))
        assert count_roots_in(p, None, None) == 2
        assert count_roots_in(p, 1.5, None) == 0
        assert count_roots_in(p, None, -1.4) == 1
        assert count_roots_in(p, 1, 1) == 0


def _factor_products():
    """Products of linear (c x - a) and quadratic (c x^2 + b x + a) integer
    factors with leading coefficients 1-3, each repeated up to twice, and at
    least one linear factor, so there is a real root.  Non-monic leading
    coefficients and the larger coefficients of repeated factors make the
    root bound's denominator Q exceed 1."""
    lead = st.integers(1, 3)
    linear = st.tuples(st.integers(-9, 9), lead).map(lambda t: (-t[0], t[1]))
    quadratic = st.tuples(st.integers(-9, 9), st.integers(-9, 9), lead)
    factor = st.tuples(st.one_of(linear, quadratic), st.integers(1, 2))
    return st.tuples(
        st.tuples(linear, st.integers(1, 2)), st.lists(factor, max_size=2)
    ).map(lambda t: _product([t[0], *t[1]]))


def _product(factors):
    p = IntPolynomial.one()
    for coeffs, power in factors:
        for _ in range(power):
            p = p * IntPolynomial(coeffs)
    return p


def _sympy_max_root(p):
    t = sympy.symbols("t")
    return sympy.real_roots(sympy.Poly(list(reversed(p.coeffs)), t))[-1]


WIDTHS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(7, 10), Fraction(1, 10**6), 1e-8, 0.1]),
    st.builds(Fraction, st.integers(1, 50), st.sampled_from([1, 3, 7, 9, 21, 99])),
    st.integers(1, 10**4),  # as wide as (-B, B] or wider: no step at all
)


class TestIntegerBisection:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_factor_products(), WIDTHS)
    def test_brackets_match_fraction_oracle(self, p, width):
        bracket = max_root_bracket(p, width)
        assert bracket == max_root_bracket_by_bisection(p, width), (p, width)
        lo, hi = bracket
        assert hi - lo <= width and lo < _sympy_max_root(p) <= hi

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_factor_products(), st.lists(WIDTHS, min_size=1, max_size=5))
    def test_refining_matches_a_fresh_bisection(self, p, widths):
        widths = sorted((Fraction(w) for w in widths), reverse=True)
        bisection = fibpoly_module._MaxRootBisection(p)
        for width in widths:
            assert bisection.refine(width) == max_root_bracket(p, width), (p, width)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_factor_products(), _factor_products())
    def test_strictly_less_agrees_with_sympy(self, p, q):
        rp, rq = _sympy_max_root(p), _sympy_max_root(q)
        if sympy.expand(rp - rq) == 0:
            with pytest.raises(ValueError, match="equal"):
                max_root_strictly_less(p, q)
        else:
            assert max_root_strictly_less(p, q) == bool(rp < rq), (p, q)

    def test_no_real_root_is_refused(self):
        for coeffs in [(1, 0, 1), (5,), (2, 2, 3)]:
            with pytest.raises(ValueError, match="no real root"):
                max_root_bracket(IntPolynomial(coeffs) * IntPolynomial(coeffs), Fraction(1, 2))


# deep and shallow widths, so that a query can be answered by the enclosing
# cell of a deeper bracket reached by an earlier one
QUERY_WIDTHS = st.one_of(WIDTHS, st.integers(0, 14).map(lambda k: Fraction(1, 10**k)))


def _recording(monkeypatch, name, points):
    """Replace fibpoly.<name>, an evaluation at n/q, by one that records n/q."""
    original = getattr(fibpoly_module, name)

    def record(member, n, q):
        points.append(Fraction(n, q))
        return original(member, n, q)

    monkeypatch.setattr(fibpoly_module, name, record)


def _b16_charpoly(family):
    return charpoly(b_family_matrix(16, family).matrix)


class TestBisectionMemo:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.one_of(_factor_products(), st.integers(3, 40).map(fib_irreducible_factor)),
                 min_size=1, max_size=3),
        st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2), QUERY_WIDTHS),
                 min_size=1, max_size=12),
    )
    def test_answers_do_not_depend_on_query_order(self, pool, queries):
        fibpoly_module._bisection.cache_clear()
        for is_bracket, i, j, width in queries:
            p, q = pool[i % len(pool)], pool[j % len(pool)]
            if is_bracket:
                expected = max_root_bracket_by_bisection(p, width)
                assert max_root_bracket(p, width) == expected, (p, width)
                continue
            rp, rq = _sympy_max_root(p), _sympy_max_root(q)
            if sympy.expand(rp - rq) == 0:
                with pytest.raises(ValueError, match="equal"):
                    max_root_strictly_less(p, q)
            else:
                assert max_root_strictly_less(p, q) == bool(rp < rq), (p, q)

    def test_a_repeated_or_wider_width_makes_no_evaluation(self, monkeypatch):
        p = fib_irreducible_factor(37)
        fibpoly_module._bisection.cache_clear()
        points = []
        _recording(monkeypatch, "_sign_at", points)
        max_root_bracket(p, Fraction(1, 10**12))
        assert points
        for width in (Fraction(1, 10**12), Fraction(1, 10**6), Fraction(1, 2)):
            points.clear()
            bracket = max_root_bracket(p, width)
            assert not points, width
            assert bracket == max_root_bracket_by_bisection(p, width), width

    def test_a_refusal_is_not_cached(self):
        size = fibpoly_module._bisection.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="no real root"):
                max_root_bracket(IntPolynomial((1, 0, 1)), Fraction(1, 2))
        assert fibpoly_module._bisection.cache_info().currsize == size

    @pytest.mark.parametrize("family", [1, 2])
    def test_loose_root_bounds_give_the_oracle_brackets(self, family):
        p = _b16_charpoly(family)
        assert root_bound(p) > 2**21
        for width in (Fraction(1, 10**6), Fraction(1, 10**12)):
            expected = max_root_bracket_by_bisection(p, width)
            assert fibpoly_module._MaxRootBisection(p).refine(width) == expected, width
            assert max_root_bracket(p, width) == expected, width

    @pytest.mark.parametrize("family", [1, 2])
    def test_no_chain_is_evaluated_above_the_power_of_two_bound(self, family, monkeypatch):
        p = _b16_charpoly(family)
        *lower, top = map(abs, p.coeffs)
        e = next(e for e in itertools.count() if top * 2 ** (e * len(lower))
                 > sum(c * 2 ** (e * k) for k, c in enumerate(lower)))
        assert 2**e * 1000 < root_bound(p)  # so the bound saves steps
        points = []
        _recording(monkeypatch, "_variations_at", points)
        _recording(monkeypatch, "_sign_at", points)
        fibpoly_module._MaxRootBisection(p).refine(Fraction(1, 10**12))
        assert points and max(points) < 2**e


class TestMatrixEvaluation:
    def test_eval_at_matrix(self):
        from cellspec.intmat import IntMatrix

        m = IntMatrix.from_rows([[2, 1], [1, 2]])
        p = IntPolynomial((3, -4, 1))  # (x-1)(x-3): the minimal polynomial
        assert eval_at_matrix(p, m).is_zero()
        q = IntPolynomial((0, 1))
        assert eval_at_matrix(q, m) == m
