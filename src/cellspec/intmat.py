"""Exact integer matrices with the spectral helpers the rest of the package needs.

The core object is an immutable IntMatrix over Z.  Characteristic polynomials
come from Berkowitz's recursion (integer products and sums, no division),
minimal polynomials of symmetric matrices come from the squarefree part of the
characteristic polynomial, and root location in intervals is delegated to the
Sturm machinery in fibpoly.  Products run over the nonzero entries of the
left factor.  The Perron-Frobenius helper is exact too: it returns floats,
each the double nearest to an exact algebraic value, with the eigenvector
enclosed by one centred bound on the matrix shifted to the bracket centre.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from ._value import Value
from .fibpoly import (
    IntPolynomial, _sign_at, count_roots_in, max_root_bracket, squarefree_part
)


def _int_entry(c) -> int:
    """c as an int; an entry that is not an int is refused, never truncated."""
    if not isinstance(c, int):
        raise TypeError(f"integer entries required, got {c!r}")
    return int(c)


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of int tuples.  One type scan passes rows of plain
    ints through; otherwise every entry goes through _int_entry, so a bool
    is stored as an int and the first non-int is refused by name."""
    data = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(data))) <= {int}:
        return data
    return tuple(tuple(map(_int_entry, row)) for row in data)


class IntMatrix(Value):
    """An immutable matrix of Python ints, stored as a tuple of row tuples.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> (m @ m).rows
    ((7, 10), (15, 22))
    >>> m.transpose().rows
    ((1, 3), (2, 4))
    """

    __slots__ = ("rows",)  # hot: Value only refuses assignment and deletion

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        return self.rows == other.rows if type(other) is IntMatrix else NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))  # the tuple of fields, as for every Value

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows!r})"

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = _int_rows(rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if width == 0:
            raise ValueError("rows of width zero")
        return IntMatrix(data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(n_rows: int, n_cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * n_cols for _ in range(n_rows)))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def identity_like(self) -> "IntMatrix":
        if not self.is_square():
            raise ValueError("identity_like needs a square matrix")
        return IntMatrix.identity(self.n_rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)) if self.rows else ())

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + -1 * other

    def __rmul__(self, scalar: int) -> "IntMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix(tuple(tuple(scalar * c for c in row) for row in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimension mismatch")
        zero = (0,) * other.n_cols
        product = []
        for row in self.rows:
            acc = zero
            for c, other_row in zip(row, other.rows):
                if c:
                    acc = tuple([a + c * b for a, b in zip(acc, other_row)])
            product.append(acc)
        return IntMatrix(tuple(product))

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.n_rows))

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def gram(x: IntMatrix, side: str = "right") -> IntMatrix:
    """The Gram matrix X^T X (side="right") or X X^T (side="left")."""
    if side == "right":
        return x.transpose() @ x
    if side == "left":
        return x @ x.transpose()
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), monic, exact.

    Berkowitz (1984), with no division: for the leading k x k block A, the
    first k entries R of row k and C of column k, and a = M[k][k], multiply
    the coefficients of det(xI - A), top degree first, by the lower-triangular
    Toeplitz matrix with first column (1, -a, -RC, -RAC, ..., -RA^(k-1)C).

    >>> str(charpoly(IntMatrix.from_rows([[2, 1], [1, 2]])))
    'x^2 - 4x + 3'
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]  # det(xI - A), top degree first
    for k, row in enumerate(m.rows):
        # A above R, as the nonzero entries of each row
        block = [[(j, c) for j, c in enumerate(r[:k]) if c] for r in m.rows[: k + 1]]
        v = [r[k] for r in m.rows[:k]]  # A^j C
        t = [1, -row[k]]
        for _ in range(k):
            *v, rv = [sum(c * v[j] for j, c in r) for r in block]
            t.append(-rv)
        coeffs = [
            sum(t[i - j] * c for j, c in enumerate(coeffs[: i + 1]))
            for i in range(k + 2)
        ]
    return IntPolynomial(coeffs[::-1])


def minpoly_symmetric(m: IntMatrix) -> IntPolynomial:
    """Minimal polynomial of a symmetric integer matrix.

    A symmetric matrix is diagonalizable, so its minimal polynomial is the
    squarefree part of the characteristic polynomial (monic here since the
    characteristic polynomial is monic).

    >>> str(minpoly_symmetric(IntMatrix.identity(3)))
    'x - 1'
    """
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    return squarefree_part(charpoly(m))


def reachable(adjacency, start=0) -> list:
    """The vertices reachable from start, start included, in breadth-first
    order.  adjacency[v] lists the successors of v (a list indexed by vertex
    or a dict keyed by vertex); successors are visited in the listed order.

    >>> reachable([[1, 2], [3], [], []])
    [0, 1, 2, 3]
    >>> reachable({1: [2], 2: [1], 3: []}, start=1)
    [1, 2]
    """
    order = [start]
    seen = {start}
    for v in order:  # order grows while it is walked: a FIFO queue
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def is_connected(n: int, edges) -> bool:
    """Connectivity of the undirected graph on vertices 0..n-1 whose edges
    are the given pairs; the empty graph (n = 0) counts as connected.

    >>> is_connected(3, [(0, 1), (2, 1)]), is_connected(3, [(0, 1)])
    (True, False)
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return n == 0 or len(reachable(adjacency)) == n


def slot_ranges(sizes, total: int) -> list[range]:
    """Consecutive index ranges of the given lengths, which must be positive
    and sum to total."""
    sizes = list(sizes)
    if any(s < 1 for s in sizes) or sum(sizes) != total:
        raise ValueError("block sizes must be positive and sum to the dimension")
    ranges = []
    start = 0
    for s in sizes:
        ranges.append(range(start, start + s))
        start += s
    return ranges


def _block_matrix(sizes, blocks) -> IntMatrix:
    """The symmetric matrix with 2I on each diagonal slot block of the given
    sizes and, for each (i, j, block) with slots numbered from 1, the rows of
    block between slots i and j and its transpose between j and i; every
    other entry is 0.

    >>> _block_matrix((1, 2), [(1, 2, ((1, 1),))]).rows
    ((2, 1, 1), (1, 2, 0), (1, 0, 2))
    """
    total = sum(sizes)
    slots = slot_ranges(sizes, total)
    rows = [[0] * total for _ in range(total)]
    for i in range(total):
        rows[i][i] = 2
    for i, j, block in blocks:
        for gi, row in zip(slots[i - 1], block):
            for gj, v in zip(slots[j - 1], row):
                rows[gi][gj] = rows[gj][gi] = v
    return IntMatrix.from_rows(rows)


def is_irreducible_nonneg(m: IntMatrix) -> bool:
    """Irreducibility of a square non-negative matrix in the Perron-Frobenius
    sense: the directed graph with an edge i -> j whenever m[i][j] > 0 is
    strongly connected.  A 1x1 matrix counts as irreducible only if its entry
    is positive.
    """
    if not m.is_square():
        raise ValueError("irreducibility needs a square matrix")
    n = m.n_rows
    for row in m.rows:
        for c in row:
            if c < 0:
                raise ValueError("matrix has a negative entry")
    if n == 1:
        return m.rows[0][0] > 0
    adj = [[j for j in range(n) if m.rows[i][j] > 0] for i in range(n)]
    radj = [[j for j in range(n) if m.rows[j][i] > 0] for i in range(n)]
    return len(reachable(adj)) == n and len(reachable(radj)) == n


def spectrum_in_range(m: IntMatrix, lo, hi) -> bool:
    """Exact test that every eigenvalue of the symmetric matrix m lies in
    [lo, hi).  lo and hi may be ints or Fractions.
    """
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    # The characteristic polynomial has the roots of the minimal one, and the
    # Sturm chain is built from their common squarefree part.
    p = charpoly(m)
    if p.degree <= 0:
        raise ValueError("degenerate minimal polynomial")
    lo = Fraction(lo)
    hi = Fraction(hi)
    # roots strictly below lo: count in (-inf, lo] minus a root exactly at lo
    below = count_roots_in(p, None, lo)
    if _sign_at(p, lo.numerator, lo.denominator) == 0:
        below -= 1
    if below > 0:
        return False
    if _sign_at(p, hi.numerator, hi.denominator) == 0:
        return False
    return count_roots_in(p, hi, None) == 0


def pf_vector(m: IntMatrix) -> tuple[float, tuple[float, ...]]:
    """Perron-Frobenius data of an irreducible non-negative matrix: the
    eigenvalue and the positive eigenvector with max entry 1, each value
    the double nearest to the exact one.

    The eigenvalue lam, a simple root of p = charpoly(m), is bracketed by
    Sturm bisection until the bracket, (c - r, c + r] / d in ints, has one
    nearest double.  On the shifted matrix S = dM - cI, d lam - c lies in
    (-r, r].  The first column of adj(tI - S), a positive multiple of the
    eigenvector there, is sum_k u_k t^(n-1-k) with u_0 = e_0,
    u_k = S u_(k-1) + s_k e_0 and s_k the t^(n-k) coefficient of
    det(tI - S) = d^n p((t + c) / d).  So entry i lies in
    u_(n-1)[i] +- sum_(k<n-1) |u_k[i]| r^(n-1-k), and the bracket is
    narrowed until every ratio of these enclosures has one nearest double.

    >>> lam, vec = pf_vector(IntMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    >>> round(lam, 10), [round(x, 10) for x in vec]
    (1.4142135624, [0.7071067812, 1.0, 0.7071067812])
    """
    if not is_irreducible_nonneg(m):
        raise ValueError("matrix is not irreducible")
    n = m.n_rows
    p = charpoly(m)
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in m.rows]
    width = Fraction(1)
    while True:
        lo, hi = max_root_bracket(p, width)
        width /= 2 ** 16
        if float(lo) != float(hi):
            continue
        # lam in (lo, hi] = (c - r, c + r] / d, so S = dM - cI has d lam - c in (-r, r]
        d = 2 * math.lcm(lo.denominator, hi.denominator)
        c, r = int((hi + lo) * d / 2), int((hi - lo) * d / 2)
        shifted = [1]  # det(tI - S) = d^n p((t + c) / d), top degree first
        for k in range(1, n + 1):
            shifted = [x + c * y for x, y in zip(shifted + [0], [0] + shifted)]
            shifted[-1] += p.coeffs[n - k] * d ** k
        u, err = [1] + [0] * (n - 1), [0] * n
        for k in range(1, n):
            err = [(e + abs(x)) * r for e, x in zip(err, u)]
            u = [d * sum(x * u[j] for j, x in row) - c * u_i
                 for row, u_i in zip(nonzeros, u)]
            u[0] += shifted[k]
        lows, highs = [x - e for x, e in zip(u, err)], [x + e for x, e in zip(u, err)]
        if min(lows) > 0:
            vec = tuple(low / max(highs) for low in lows)  # ratios from below
            if vec == tuple(high / max(lows) for high in highs):  # and from above
                return float(hi), vec
