"""Dense integer polynomials and the disguised Fibonacci family.

The polynomials f_i are defined by f_0 = 0, f_1 = 1 and

    f_i = f_{i-1} - f_{i-2}        (i odd),
    f_i = x*f_{i-1} - f_{i-2}      (i even).

They are disguised Fibonacci polynomials: with g_0 = 0, g_1 = 1 and
g_i = x*g_{i-1} + g_{i-2} one has, up to sign, f_i(-x^2) = g_i(x) for odd i
and f_i(-x^2) = x*g_i(x) for even i.  Each f_i factors over Z as the product
of irreducible polynomials fbar_d over the divisors d of i, so fbar_i is
obtained from f_i by exact division.  For i > 2 the roots of fbar_i are
4*cos^2(pi*j/i) for j coprime to i, all in the open interval (0, 4), and the
largest root increases strictly with i, approaching 4.

Everything here is exact: coefficients are Python ints and no floats appear
anywhere.  Euclid runs in Z[x]: gcds and Sturm chains are built from
primitive pseudo-remainders.  Bisection runs on integer numerators over one
common denominator, so Fractions appear only in root bounds and the returned
brackets.  Root counting uses Sturm chains of primitive integer
polynomials, built once per polynomial and cached by coefficient tuple; the
sign of a chain member at a rational point n/q is decided in integers.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from math import gcd as _int_gcd

from ._value import Value


class IntPolynomial(Value):
    """A polynomial with integer coefficients, stored densely ascending.

    >>> p = IntPolynomial([1, -3, 1])   # 1 - 3x + x^2
    >>> str(p)
    'x^2 - 3x + 1'
    >>> p.degree
    2
    >>> p(Fraction(1, 2))
    Fraction(-1, 4)
    """

    __slots__ = ("coeffs",)  # Value only refuses assignment and deletion

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if type(c) is not int:  # refuse non-ints, store bools as ints
                bad = [d for d in cs if not isinstance(d, int)]
                if bad:
                    raise TypeError(f"integer coefficients required, got {bad[0]!r}")
                cs = list(map(int, cs))
                break
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == IntPolynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int (see __eq__), so it hashes as that int
        return hash(self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs))

    def __add__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Division with remainder inside Z[x].

        Each elimination step requires the divisor's leading coefficient to
        divide the current leading coefficient; raises ValueError otherwise.
        For the monic divisors used throughout this package the division is
        ordinary polynomial long division.
        """
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading_coefficient
        if len(rem) - 1 < d:
            return IntPolynomial(), IntPolynomial(rem)
        quo = [0] * (len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            q, r = divmod(rem[k], lc)
            if r != 0:
                raise ValueError(
                    f"leading coefficient {lc} does not divide {rem[k]} in Z[x]"
                )
            quo[k - d] = q
            for j, c in enumerate(other.coeffs):
                rem[j + k - d] -= q * c
        return IntPolynomial(quo), IntPolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "IntPolynomial":
        """Divide, insisting on zero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self} exactly")
        return q

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def content(self) -> int:
        """Gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive_part(self) -> "IntPolynomial":
        """self divided by its content, normalized to positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading_coefficient < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Primitive gcd in Z[x] with positive leading coefficient (0 when
        both are 0), by Euclid on primitive pseudo-remainders."""
        a, b = self, other
        while b:
            a, b = b, _primitive_rem(a, b)
        return a.primitive_part()

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an int, Fraction or polynomial."""
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _coerce(value):
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


def _primitive_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The remainder of a mod b over Q times the positive rational that makes
    it primitive in Z[x]: pseudo-division scaling by |lc(b)| only, so no
    coefficient changes sign (a flip would corrupt a Sturm chain)."""
    rem = list(a.coeffs)
    lc = b.leading_coefficient
    scale, lower = abs(lc), b.coeffs[:-1]
    for k in range(len(rem) - len(b.coeffs), -1, -1):
        top = rem.pop() if lc > 0 else -rem.pop()
        if top:
            rem = [scale * c for c in rem]
            for j, c in enumerate(lower, k):
                rem[j] -= top * c
    r = IntPolynomial(rem)
    g = r.content()
    return r if g <= 1 else IntPolynomial(tuple(c // g for c in r.coeffs))


# --- the Fibonacci-like family -------------------------------------------------


def _three_term(i: int, shift_odd: bool, combine) -> IntPolynomial:
    """Term i of h_0 = 0, h_1 = 1, h_k = combine(x^s h_(k-1), h_(k-2)), where
    s = 1 at even k and at odd k too if shift_odd, else 0.  Runs on int
    coefficient lists, where multiplying by x is a shift, with two live terms."""
    if i < 0:
        raise ValueError("index must be non-negative")
    prev, cur = [], [1]
    for k in range(2, i + 1):
        head = [0, *cur] if shift_odd or k % 2 == 0 else cur
        # degrees never fall, so prev is no longer than head
        prev, cur = cur, [*map(combine, head, prev), *head[len(prev):]]
    return IntPolynomial(cur if i else prev)


@functools.lru_cache(maxsize=None)
def fib_f(i: int) -> IntPolynomial:
    """The i-th polynomial of the alternating family.

    >>> [str(fib_f(i)) for i in range(6)]
    ['0', '1', 'x', 'x - 1', 'x^2 - 2x', 'x^2 - 3x + 1']
    """
    return _three_term(i, False, operator.sub)


@functools.lru_cache(maxsize=None)
def fib_g(i: int) -> IntPolynomial:
    """The i-th Fibonacci polynomial: g_0 = 0, g_1 = 1, g_i = x*g_{i-1} + g_{i-2}.

    >>> str(fib_g(4))
    'x^3 + 2x'
    """
    return _three_term(i, True, operator.add)


def _at_minus_x_squared(p: IntPolynomial) -> IntPolynomial:
    """p(-x^2) by coefficient placement: c_k goes to degree 2k with sign (-1)^k."""
    out = [0] * (2 * len(p.coeffs))
    out[::2] = [-c if k % 2 else c for k, c in enumerate(p.coeffs)]
    return IntPolynomial(out)


def check_fg_relation(i: int) -> bool:
    """Exact check of the substitution identity linking f_i and g_i.

    For odd i:  (-1)^floor(i/2) * f_i(-x^2) == g_i(x).
    For even i: (-1)^(i/2)      * f_i(-x^2) == x * g_i(x).
    f and g come from two separate recurrences, so this is a real check.
    """
    lhs, g = _at_minus_x_squared(fib_f(i)), fib_g(i).coeffs
    return (-lhs if (i // 2) % 2 else lhs) == IntPolynomial(g if i % 2 else (0, *g))


def divisors(i: int) -> list[int]:
    """Positive divisors of i in increasing order."""
    if i <= 0:
        raise ValueError("positive integer required")
    return [d for d in range(1, i + 1) if i % d == 0]


@functools.lru_cache(maxsize=None)
def fib_irreducible_factor(i: int) -> IntPolynomial:
    """The factor fbar_i of f_i that is new at index i.

    Defined by f_i = prod over divisors d of i of fbar_d, computed by exact
    division of f_i by the product of the fbar_d for proper divisors d.  For
    i > 2 the result is irreducible over Q of degree phi(i)/2.  The degenerate
    rows fbar_0 = 0 and fbar_1 = 1 follow the reference table.

    >>> str(fib_irreducible_factor(12))
    'x^2 - 4x + 1'
    """
    if i < 0:
        raise ValueError("index must be non-negative")
    if i == 0:
        return IntPolynomial()
    if i == 1:
        return IntPolynomial.one()
    quotient = fib_f(i)
    for d in divisors(i)[:-1]:
        quotient = quotient.exact_div(fib_irreducible_factor(d))
    return quotient


def eval_at_matrix(p: IntPolynomial, m):
    """Evaluate p at a square IntMatrix m by Horner's rule, exactly.

    Each step multiplies by m and adds the next coefficient to the
    diagonal; no multiple of the identity is built.
    """
    acc = 0 * m.identity_like()
    for c in reversed(p.coeffs):
        acc = acc @ m
        if c:
            acc = type(m)(tuple(
                row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(acc.rows)
            ))
    return acc


# --- exact real root location (Sturm) ------------------------------------------


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = p.gcd(p.derivative())
    if g.degree <= 0:
        return p.primitive_part()
    return p.primitive_part().exact_div(g)


# Distinct polynomials whose Sturm chains are kept.  A pass over the
# Fibonacci factors or the 0-1 classification touches a few hundred at most.
_STURM_CACHE_SIZE = 1024


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of the squarefree part of p, rescaled to primitive integer
    polynomials (positive rescaling only, so sign variations are preserved).

    Chains are cached by coefficient tuple; each call returns a new list."""
    return list(_sturm_chain(p.coeffs))


@functools.lru_cache(maxsize=_STURM_CACHE_SIZE)
def _sturm_chain(coeffs: tuple[int, ...]) -> tuple[IntPolynomial, ...]:
    """The remainder sequence of (p, p'), p made primitive, whose last member
    is gcd(p, p') up to a constant factor: the chain itself when that member
    is constant, else the chain of squarefree_part(p) = p / gcd(p, p')."""
    p0 = IntPolynomial(coeffs).primitive_part()
    if p0.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    chain = [p0]
    if p0.degree >= 1:
        chain.append(p0.derivative().primitive_part())
        while chain[-1].degree >= 1:
            rem = _primitive_rem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(-rem)
    if chain[-1].degree >= 1:
        return _sturm_chain(p0.exact_div(chain[-1].primitive_part()).coeffs)
    return tuple(chain)


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at(p: IntPolynomial, n: int, q: int) -> int:
    """Sign of p at the rational n/q, for ints n and q > 0, not necessarily coprime.

    The homogeneous Horner sum is q^d * p(n/q) with d = deg p, and q^d > 0,
    so its sign is the answer; only ints are involved."""
    acc = 0
    q_power = 1
    for c in reversed(p.coeffs):
        acc = acc * n + c * q_power
        q_power *= q
    return (acc > 0) - (acc < 0)


def _variations_at(chain, n: int, q: int) -> int:
    """Sign variations of a Sturm chain at the rational n/q, q > 0."""
    return _variations([_sign_at(p, n, q) for p in chain])


def _variations_at_inf(chain, s: int) -> int:
    """Sign variations of a Sturm chain at s * infinity, s = 1 or -1."""
    return _variations(
        [(1 if p.leading_coefficient > 0 else -1) * s ** p.degree for p in chain]
    )


def _finite_end(name: str, x):
    """The interval end x as a Fraction, None (an infinite end) as None."""
    try:
        return None if x is None else Fraction(x)
    except (ValueError, OverflowError):  # nan, inf
        raise ValueError(f"{name} must be finite or None, got {x!r}") from None


def count_roots_in(p: IntPolynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    lo=None means -infinity, hi=None means +infinity.  Exact, via Sturm's
    theorem; endpoint roots are handled by the usual drop-zero-signs rule
    (a root at lo is excluded, a root at hi included).  A nan or infinite
    end, or lo > hi, raises ValueError.
    """
    a, b = _finite_end("lo", lo), _finite_end("hi", hi)
    if a is not None and b is not None and a > b:
        raise ValueError(f"lo={lo!r} is greater than hi={hi!r}")
    chain = sturm_chain(p)
    if chain[0].degree <= 0:
        return 0
    v_lo = _variations_at_inf(chain, -1) if a is None else _variations_at(
        chain, a.numerator, a.denominator)
    v_hi = _variations_at_inf(chain, 1) if b is None else _variations_at(
        chain, b.numerator, b.denominator)
    return v_lo - v_hi


def count_real_roots(p: IntPolynomial) -> int:
    return count_roots_in(p, None, None)


def root_bound(p: IntPolynomial) -> Fraction:
    """A Cauchy bound: every real root lies in (-B, B)."""
    if p.is_zero() or p.degree <= 0:
        return Fraction(1)
    lc = abs(p.leading_coefficient)
    biggest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(biggest, lc)


class _MaxRootBisection:
    """Bisection of (-N/D, N/D], N/D = root_bound(p), towards the largest real
    root of p, in ints.  At depth t the bracket (a/q, b/q] is the cell
    q = D 2^t, a = 2N j - N 2^t, b = a + 2N of a dyadic grid that holds the
    largest root; a step doubles a, b and q and takes a + b as the midpoint.
    The cells nest, so a width wider than the deepest bracket's (depth T)
    gets the enclosing cell j_t = j_T >> (T - t) with no evaluation, and a
    smaller one continues from the current bracket.  The Cauchy bound is
    strict and the chain's variation count changes only at roots of chain[0],
    so the counts at -B and B are those at -inf and +inf, which differ iff p
    has a real root, and the count at b stays that at +inf: a step evaluates
    the chain at the midpoint only, and not at all at or above 2^e, for the
    least e >= 0 with |c_d| 2^(ed) > sum_(k<d) |c_k| 2^(ek), as every root
    lies below 2^e.  Once (a, b] holds no other root, the squarefree part
    chain[0] (positive leading coefficient) is negative on (a, root) and
    positive above, so its sign at the midpoint alone decides the step."""

    def __init__(self, p: IntPolynomial):
        self.chain = sturm_chain(p)
        self.v_a, self.v_b = (_variations_at_inf(self.chain, s) for s in (-1, 1))
        if self.v_a == self.v_b:
            raise ValueError("polynomial has no real root")
        bound = root_bound(p)
        self.n, self.d, self.depth = bound.numerator, bound.denominator, 0
        self.a, self.b, self.q = -self.n, self.n, self.d
        *lower, top = map(abs, p.coeffs)
        self.e = 0
        while top << self.e * len(lower) <= sum(c << self.e * k for k, c in enumerate(lower)):
            self.e += 1

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        n, d, deepest = self.n, self.d, self.depth
        span, unit = 2 * n * width.denominator, width.numerator * d
        depth = max(0, span.bit_length() - unit.bit_length())
        depth += span > unit << depth  # the least depth whose cells fit width
        if depth < deepest:
            j = (self.a + (n << deepest)) // (2 * n) >> (deepest - depth)
            a, q = 2 * n * j - (n << depth), d << depth
            return Fraction(a, q), Fraction(a + 2 * n, q)
        chain, a, b, q, v_a, v_b = self.chain, self.a, self.b, self.q, self.v_a, self.v_b
        for _ in range(depth - deepest):
            mid, a, b, q = a + b, 2 * a, 2 * b, 2 * q
            if mid >= q << self.e:  # every root lies below 2^e
                v_mid = v_b
            elif v_a == v_b + 1:  # (a, b] holds no other root
                v_mid = v_a if _sign_at(chain[0], mid, q) < 0 else v_b
            else:
                v_mid = _variations_at(chain, mid, q)
            if v_mid > v_b:  # a root in (mid, b]
                a, v_a = mid, v_mid
            else:
                b = mid
        self.a, self.b, self.q, self.v_a, self.depth = a, b, q, v_a, depth
        return Fraction(a, q), Fraction(b, q)


@functools.lru_cache(maxsize=_STURM_CACHE_SIZE)
def _bisection(coeffs: tuple[int, ...]) -> _MaxRootBisection:
    return _MaxRootBisection(IntPolynomial(coeffs))


def max_root_bracket(p: IntPolynomial, width: Fraction) -> tuple[Fraction, Fraction]:
    """An interval (a, b] of length <= width containing exactly the largest
    real root of p.  Requires p to have at least one real root and width to
    be a positive finite number.  Each polynomial's bisection is kept at its
    deepest bracket in a bounded cache keyed by coefficients, so a repeated
    or wider width costs no evaluation.

    >>> max_root_bracket(IntPolynomial([-2, 0, 1]), Fraction(1, 8))
    (Fraction(45, 32), Fraction(3, 2))
    """
    if not 0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width!r}")
    return _bisection(p.coeffs).refine(Fraction(width))


def max_root_strictly_less(p: IntPolynomial, q: IntPolynomial) -> bool:
    """Exact comparison: is the largest real root of p strictly below q's?

    Refines Sturm bisection brackets for both maximal roots, a quarter of the
    width at a time, until the brackets separate.  Raises if the brackets
    cannot be separated (which would mean the maximal roots coincide).
    """
    p_bisection, q_bisection = _bisection(p.coeffs), _bisection(q.coeffs)
    width = Fraction(1)
    for _ in range(220):
        ap, bp = p_bisection.refine(width)
        aq, bq = q_bisection.refine(width)
        if bp <= aq:
            return True
        if bq <= ap:
            return False
        width /= 4
    raise ValueError("maximal roots are equal or indistinguishably close")
