"""Exact integer matrices with the spectral helpers the rest of the package needs.

The core object is an immutable IntMatrix over Z.  Characteristic polynomials
are computed by the Faddeev-LeVerrier recursion (exact integer arithmetic),
minimal polynomials of symmetric matrices come from the squarefree part of the
characteristic polynomial, and root location in intervals is delegated to the
Sturm machinery in fibpoly.  The only float code is the Perron-Frobenius
eigenvector helper, which explicitly returns floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fibpoly import IntPolynomial, _sign_at, count_roots_in, squarefree_part


@dataclass(frozen=True)
class IntMatrix:
    """An immutable matrix of Python ints, stored as a tuple of row tuples.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> (m @ m).rows
    ((7, 10), (15, 22))
    >>> m.transpose().rows
    ((1, 3), (2, 4))
    """

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(tuple(int(c) for c in row) for row in rows)
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
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __rmul__(self, scalar: int) -> "IntMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix(tuple(tuple(scalar * c for c in row) for row in self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimension mismatch")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.n_rows))

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def to_numpy(self, dtype=float) -> np.ndarray:
        return np.array([list(row) for row in self.rows], dtype=dtype)

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

    Faddeev-LeVerrier: M_1 = M, c_1 = -tr(M_1), and
    M_{k+1} = M (M_k + c_k I), c_{k+1} = -tr(M_{k+1})/(k+1); every division
    is exact in Z.

    >>> str(charpoly(IntMatrix.from_rows([[2, 1], [1, 2]])))
    'x^2 - 4x + 3'
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.n_rows
    if n == 0:
        return IntPolynomial.one()
    ident = IntMatrix.identity(n)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = m
    ck = -mk.trace()
    coeffs[n - 1] = ck
    for k in range(1, n):
        mk = m @ (mk + ck * ident)
        t = mk.trace()
        if t % (k + 1) != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        ck = -t // (k + 1)
        coeffs[n - 1 - k] = ck
    return IntPolynomial(coeffs)


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


def slot_ranges(sizes, total: int) -> list[range]:
    """Consecutive index ranges of the given lengths, which must be positive
    and sum to total; sizes None means the single range(total)."""
    if sizes is None:
        return [range(total)]
    sizes = list(sizes)
    if any(s < 1 for s in sizes) or sum(sizes) != total:
        raise ValueError("block sizes must be positive and sum to the dimension")
    ranges = []
    start = 0
    for s in sizes:
        ranges.append(range(start, start + s))
        start += s
    return ranges


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
    if _sign_at(p, lo) == 0:
        below -= 1
    if below > 0:
        return False
    if _sign_at(p, hi) == 0:
        return False
    return count_roots_in(p, hi, None) == 0


def pf_vector(m: IntMatrix, tol: float = 1e-12, max_iter: int = 200000):
    """Perron-Frobenius data of an irreducible non-negative symmetric-ish
    matrix: (eigenvalue, eigenvector) as floats, eigenvector positive with
    unit max entry.

    Power iteration on M + I (the shift makes the iteration primitive even
    when the digraph of M is periodic); the eigenvalue is the Rayleigh
    quotient for M itself.
    """
    if not is_irreducible_nonneg(m):
        raise ValueError("matrix is not irreducible")
    a = m.to_numpy(dtype=float)
    n = a.shape[0]
    shifted = a + np.eye(n)
    v = np.ones(n) / np.sqrt(n)
    for _ in range(max_iter):
        w = shifted @ v
        w /= np.linalg.norm(w)
        if np.linalg.norm(w - v) < tol:
            v = w
            break
        v = w
    if np.any(v <= 0):
        v = np.abs(v)
    lam = float(v @ (a @ v))
    v = v / v.max()
    return lam, v
