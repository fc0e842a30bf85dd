"""Candidate matrices for higher-rank systems, assembled from rank-2 blocks.

A candidate for a Coxeter system with generators 1..r assigns a size n_i to
each generator and a symmetric matrix M of size sum(n_i) with diagonal slot
blocks 2I.  The block between slots i and j must vanish when the generators
commute, and on an edge of order m the block B must satisfy f_m(B B^T) = 0,
exactly as in the rank-2 (dihedral) analysis.  Transitivity forces M to be
irreducible.  The admissible edge blocks decompose into atoms:

    m = 3: a perfect matching (permutation block),
    m = 4: components [[1], [1]] or [[1, 1]],
    m = 5: 2x2 components with exactly three ones.

assembly_search enumerates size vectors over a tree-shaped diagram and, for
each edge, builds one block per class modulo permutations of its far slot
directly from how the atoms split the near slot's rows; it returns the
candidates up to simultaneous within-slot permutation.  For the
reflection-representation comparison, exact arithmetic in Q(sqrt 5) supplies
the characteristic polynomial on the small side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coxeter import CoxeterSystem
from .fibpoly import fib_f, eval_at_matrix, max_root_bracket
from .intmat import IntMatrix, charpoly, is_irreducible_nonneg, reachable, slot_ranges


# --- exact arithmetic in Q(sqrt 5) ----------------------------------------------


@dataclass(frozen=True)
class QuadraticElement:
    """An element a + b*sqrt(5) with rational a, b; exact field arithmetic
    and exact comparisons.

    >>> phi = QuadraticElement.golden_ratio()
    >>> (phi * phi - phi - 1).is_zero()
    True
    """

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QuadraticElement":
        return QuadraticElement(Fraction(a), Fraction(b))

    @staticmethod
    def golden_ratio() -> "QuadraticElement":
        return QuadraticElement(Fraction(1, 2), Fraction(1, 2))

    def conjugate(self) -> "QuadraticElement":
        return QuadraticElement(self.a, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against 5 b^2
        if self.a * self.a > 5 * self.b * self.b:
            return 1 if self.a > 0 else -1
        if self.a * self.a < 5 * self.b * self.b:
            return 1 if self.b > 0 else -1
        return 0  # unreachable: sqrt(5) is irrational

    def __add__(self, other) -> "QuadraticElement":
        other = _as_quadratic(other)
        return QuadraticElement(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticElement":
        return QuadraticElement(-self.a, -self.b)

    def __sub__(self, other) -> "QuadraticElement":
        return self + (-_as_quadratic(other))

    def __rsub__(self, other) -> "QuadraticElement":
        return _as_quadratic(other) + (-self)

    def __mul__(self, other) -> "QuadraticElement":
        other = _as_quadratic(other)
        return QuadraticElement(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadraticElement":
        other = _as_quadratic(other)
        norm = other.a * other.a - 5 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return self * QuadraticElement(other.a / norm, -other.b / norm)

    def __lt__(self, other) -> bool:
        return (self - _as_quadratic(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - _as_quadratic(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - _as_quadratic(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - _as_quadratic(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 5 ** 0.5


def _as_quadratic(value) -> QuadraticElement:
    if isinstance(value, QuadraticElement):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadraticElement(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {value!r} into Q(sqrt 5)")


def charpoly_quadratic(rows: list[list[QuadraticElement]]) -> list[QuadraticElement]:
    """Characteristic polynomial coefficients (ascending) of a square matrix
    over Q(sqrt 5), by the trace recursion with exact division."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    zero = QuadraticElement.of(0)
    one = QuadraticElement.of(1)

    def matmul(x, y):
        return [
            [
                sum((x[i][k] * y[k][j] for k in range(n)), zero)
                for j in range(n)
            ]
            for i in range(n)
        ]

    def add_scalar_diag(x, s):
        return [
            [x[i][j] + (s if i == j else zero) for j in range(n)]
            for i in range(n)
        ]

    def trace(x):
        return sum((x[i][i] for i in range(n)), zero)

    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    mk = [row[:] for row in rows]
    ck = -trace(mk)
    coeffs[n - 1] = ck
    for k in range(1, n):
        mk = matmul(rows, add_scalar_diag(mk, ck))
        ck = -(trace(mk) * QuadraticElement.of(Fraction(1, k + 1)))
        coeffs[n - 1 - k] = ck
    return coeffs


# --- reference matrices ----------------------------------------------------------


_H3_M = (
    (2, 0, 1, 0, 0, 0),
    (0, 2, 1, 1, 0, 0),
    (1, 1, 2, 0, 1, 0),
    (0, 1, 0, 2, 0, 1),
    (0, 0, 1, 0, 2, 0),
    (0, 0, 0, 1, 0, 2),
)

_H4_M = (
    (2, 0, 1, 0, 0, 0, 0, 0),
    (0, 2, 1, 1, 0, 0, 0, 0),
    (1, 1, 2, 0, 1, 0, 0, 0),
    (0, 1, 0, 2, 0, 1, 0, 0),
    (0, 0, 1, 0, 2, 0, 1, 0),
    (0, 0, 0, 1, 0, 2, 0, 1),
    (0, 0, 0, 0, 1, 0, 2, 0),
    (0, 0, 0, 0, 0, 1, 0, 2),
)

_F4_M1 = (
    (2, 0, 1, 0, 0, 0),
    (0, 2, 0, 1, 0, 0),
    (1, 0, 2, 0, 1, 0),
    (0, 1, 0, 2, 1, 0),
    (0, 0, 1, 1, 2, 1),
    (0, 0, 0, 0, 1, 2),
)

_F4_M2 = (
    (2, 1, 0, 0, 0, 0),
    (1, 2, 1, 1, 0, 0),
    (0, 1, 2, 0, 1, 0),
    (0, 1, 0, 2, 0, 1),
    (0, 0, 1, 0, 2, 0),
    (0, 0, 0, 1, 0, 2),
)


@dataclass(frozen=True)
class AssemblyCandidate:
    """A candidate for a higher-rank system: slot sizes and the symmetric
    matrix, taken up to simultaneous within-slot permutations."""

    system_name: str
    sizes: tuple[int, ...]
    matrix: IntMatrix


def b_family_matrix(n: int, family: int) -> AssemblyCandidate:
    """The two candidate families in type B_n (n >= 3).

    Family 1 has sizes (2, 1, ..., 1); family 2 has sizes (1, 2, ..., 2).
    """
    if n < 3:
        raise ValueError("rank must be at least 3")
    if family == 1:
        sizes = (2,) + (1,) * (n - 1)
        total = n + 1
        rows = [[0] * total for _ in range(total)]
        for i in range(total):
            rows[i][i] = 2
        rows[0][2] = rows[2][0] = 1
        rows[1][2] = rows[2][1] = 1
        for k in range(2, n):
            rows[k][k + 1] = rows[k + 1][k] = 1
        return AssemblyCandidate(f"B{n}", sizes, IntMatrix.from_rows(rows))
    if family == 2:
        sizes = (1,) + (2,) * (n - 1)
        total = 2 * n - 1
        rows = [[0] * total for _ in range(total)]
        for i in range(total):
            rows[i][i] = 2
        rows[0][1] = rows[1][0] = 1
        rows[0][2] = rows[2][0] = 1
        for k in range(2, n):
            for t in range(2):
                a = 2 * (k - 2) + 1 + t
                b = 2 * (k - 1) + 1 + t
                rows[a][b] = rows[b][a] = 1
        return AssemblyCandidate(f"B{n}", sizes, IntMatrix.from_rows(rows))
    raise ValueError("family must be 1 or 2")


def special_modules(name: str) -> list[AssemblyCandidate]:
    """The reference candidate list for a named system: one candidate for H3
    and for H4, two for F4, and the two families for B_n."""
    token = name.strip().upper()
    if token == "H3":
        return [AssemblyCandidate("H3", (2, 2, 2), IntMatrix(_H3_M))]
    if token == "H4":
        return [AssemblyCandidate("H4", (2, 2, 2, 2), IntMatrix(_H4_M))]
    if token == "F4":
        return [
            AssemblyCandidate("F4", (2, 2, 1, 1), IntMatrix(_F4_M1)),
            AssemblyCandidate("F4", (1, 1, 2, 2), IntMatrix(_F4_M2)),
        ]
    if token.startswith("B") and token[1:].isdigit():
        n = int(token[1:])
        return [b_family_matrix(n, 1), b_family_matrix(n, 2)]
    raise ValueError(f"no reference candidates stored for {name!r}")


def reflection_sign_matrix(name: str) -> list[list[QuadraticElement]]:
    """The small comparison matrix for H3 (3x3) or H4 (4x4): diagonal 2,
    with off-diagonal -phi on the order-5 bond and -1 on simple bonds."""
    token = name.strip().upper()
    if token not in ("H3", "H4"):
        raise ValueError("reflection comparison exists for H3 and H4 only")
    n = 3 if token == "H3" else 4
    phi = QuadraticElement.golden_ratio()
    two = QuadraticElement.of(2)
    zero = QuadraticElement.of(0)
    one = QuadraticElement.of(1)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = two
    rows[0][1] = rows[1][0] = -phi
    for i in range(1, n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -one
    return rows


@dataclass(frozen=True)
class SharedEigenvalue:
    name: str
    value: float
    from_module: float
    from_reflection: float


def shared_top_eigenvalue(name: str, tol: float = 1e-9) -> SharedEigenvalue:
    """The common top eigenvalue of the big candidate matrix and the small
    reflection-side matrix for H3 or H4.

    The big side is located exactly (Sturm bisection on the characteristic
    polynomial); the small side is the largest real root of the exact
    Q(sqrt 5) characteristic polynomial.  Raises if they disagree by tol or
    more.
    """
    module = special_modules(name)[0].matrix
    p = charpoly(module)
    lo, hi = max_root_bracket(p, Fraction(1, 10 ** 12))
    from_module = float((lo + hi) / 2)
    coeffs = charpoly_quadratic(reflection_sign_matrix(name))
    roots = np.roots([float(c) for c in reversed(coeffs)])
    real_roots = [r.real for r in roots if abs(r.imag) < 1e-9]
    from_reflection = max(real_roots)
    if abs(from_module - from_reflection) >= tol:
        raise ValueError(
            f"top eigenvalues disagree: {from_module} vs {from_reflection}"
        )
    return SharedEigenvalue(
        name.strip().upper(),
        (from_module + from_reflection) / 2,
        from_module,
        from_reflection,
    )


# --- verification ----------------------------------------------------------------


def _block(m: IntMatrix, rows: range, cols: range) -> IntMatrix:
    return IntMatrix.from_rows(
        [[m.rows[i][j] for j in cols] for i in rows]
    )


def assembly_violations(
    system: CoxeterSystem,
    sizes,
    m: IntMatrix,
    require_size_multiple: bool = False,
) -> list[str]:
    """All ways the matrix fails to be a candidate for the system with the
    given slot sizes; an empty list means it is one.

    require_size_multiple additionally demands that the total size be a
    multiple of the rank; the reference families in types B and F violate
    it, so it is off by default.
    """
    sizes = tuple(int(s) for s in sizes)
    problems: list[str] = []
    if len(sizes) != system.rank or any(s < 1 for s in sizes):
        return ["size vector does not match the rank"]
    if not m.is_square() or m.n_rows != sum(sizes):
        return ["matrix size does not match the size vector"]
    if not m.is_symmetric():
        problems.append("matrix is not symmetric")
    slots = slot_ranges(sizes, m.n_rows)
    for i in range(system.rank):
        block = _block(m, slots[i], slots[i])
        if block != IntMatrix.identity(sizes[i]) + IntMatrix.identity(sizes[i]):
            problems.append(f"diagonal block {i + 1} is not 2I")
    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            order = system.m(i + 1, j + 1)
            block = _block(m, slots[i], slots[j])
            if order == 2:
                if not block.is_zero():
                    problems.append(
                        f"block ({i + 1}, {j + 1}) must vanish: "
                        "the generators commute"
                    )
                continue
            if block.is_zero():
                problems.append(
                    f"block ({i + 1}, {j + 1}) vanishes on an edge of order "
                    f"{order}"
                )
                continue
            f = fib_f(order)
            left = block @ block.transpose()
            right = block.transpose() @ block
            if not eval_at_matrix(f, left).is_zero() or not eval_at_matrix(
                f, right
            ).is_zero():
                problems.append(
                    f"block ({i + 1}, {j + 1}) fails the order-{order} "
                    "annihilation condition"
                )
    if not problems and not is_irreducible_nonneg(m):
        problems.append("matrix is reducible")
    if require_size_multiple and sum(sizes) % system.rank != 0:
        problems.append("total size is not a multiple of the rank")
    return problems


def verify_assembly(
    system: CoxeterSystem,
    sizes,
    m: IntMatrix,
    require_size_multiple: bool = False,
) -> bool:
    return not assembly_violations(system, sizes, m, require_size_multiple)


# --- search ----------------------------------------------------------------------


def rank2_blocks(order: int) -> list[IntMatrix]:
    """The atomic edge-block components for a bond of the given order."""
    if order == 3:
        return [IntMatrix.identity(1)]
    if order == 4:
        return [
            IntMatrix.from_rows([[1], [1]]),
            IntMatrix.from_rows([[1, 1]]),
        ]
    if order == 5:
        return [IntMatrix.from_rows([[1, 0], [1, 1]])]
    raise ValueError("atoms are available for orders 3, 4 and 5")


def _sizes_feasible(order: int, a: int, b: int) -> bool:
    if order == 2:
        return True
    if order == 3:
        return a == b
    if order == 5:
        return a == b and a % 2 == 0
    if order == 4:
        return (2 * a - b) % 3 == 0 and 2 * a >= b and 2 * b >= a
    return False


def _pairings(items: tuple[int, ...]):
    """All partitions of items into unordered pairs."""
    if not items:
        yield ()
        return
    first = items[0]
    for idx in range(1, len(items)):
        rest = items[1:idx] + items[idx + 1 :]
        for tail in _pairings(rest):
            yield ((first, items[idx]),) + tail


def _edge_blocks(order: int, n_rows: int, n_cols: int) -> list[IntMatrix]:
    """One edge block per class modulo permutations of the column slot.

    Atoms occupy disjoint rows and columns, so a class is fixed by how the
    atoms split the rows: for order 3 the identity is the only class; for
    order 4 it is which rows are paired into a shared column, and how; for
    order 5 it is how the rows are paired and which row of each pair carries
    two ones.  The first block is the one the first edge of a search uses.
    Sizes must already pass _sizes_feasible.
    """
    if order == 3:
        return [IntMatrix.identity(n_rows)]
    blocks = []
    if order == 4:
        p = (2 * n_rows - n_cols) // 3
        for paired in itertools.combinations(range(n_rows), 2 * p):
            singles = [x for x in range(n_rows) if x not in paired]
            for pairs in _pairings(paired):
                rows = [[0] * n_cols for _ in range(n_rows)]
                for t, (a, b) in enumerate(pairs):
                    rows[a][t] = rows[b][t] = 1
                for u, x in enumerate(singles):
                    rows[x][p + 2 * u] = rows[x][p + 2 * u + 1] = 1
                blocks.append(IntMatrix.from_rows(rows))
        return blocks
    if order == 5:
        for pairs in _pairings(tuple(range(n_rows))):
            for heavy in itertools.product((0, 1), repeat=len(pairs)):
                rows = [[0] * n_cols for _ in range(n_rows)]
                for t, (pair, h) in enumerate(zip(pairs, heavy)):
                    a, b = pair[h], pair[1 - h]
                    rows[a][2 * t] = rows[a][2 * t + 1] = rows[b][2 * t] = 1
                blocks.append(IntMatrix.from_rows(rows))
        return blocks
    raise ValueError("edges carry orders 3, 4 or 5")


def _size_vectors(r: int, max_total: int):
    """All tuples of r positive sizes with sum at most max_total."""
    for total in range(r, max_total + 1):
        for cuts in itertools.combinations(range(1, total), r - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(r))


def conjugation_canonical(m: IntMatrix, sizes) -> IntMatrix:
    """Minimal matrix over simultaneous within-slot permutations applied to
    rows and columns together."""
    slots = slot_ranges(sizes, m.n_rows)
    best = None
    for parts in itertools.product(
        *(itertools.permutations(rng) for rng in slots)
    ):
        order = [j for part in parts for j in part]
        cand = tuple(
            tuple(m.rows[order[i]][order[j]] for j in range(m.n_rows))
            for i in range(m.n_rows)
        )
        if best is None or cand < best:
            best = cand
    return IntMatrix(best)


def assembly_search(
    system: CoxeterSystem, max_total: int = 16
) -> list[AssemblyCandidate]:
    """All candidates for the system with total size at most max_total, up
    to simultaneous within-slot permutations, sorted by (sizes, entries).

    The diagram must be connected, tree-shaped, and carry bond orders in
    {2, 3, 4, 5} off the diagonal; every finite system handled by this
    package is of that shape.
    """
    r = system.rank
    if r < 2:
        raise ValueError("assembly needs rank at least 2")
    edges = []
    adjacency: dict[int, list[int]] = {i: [] for i in range(1, r + 1)}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            order = system.m(i, j)
            if order >= 6:
                raise ValueError(
                    "bond orders above 5 are outside the assembly atoms; "
                    "use the rank-2 tools directly"
                )
            if order >= 3:
                edges.append((i, j, order))
                adjacency[i].append(j)
                adjacency[j].append(i)
    if len(edges) != r - 1:
        raise ValueError("diagram must be a tree")
    # breadth-first orientation from generator 1: each edge (near, far) joins
    # a vertex to its earliest-visited neighbour
    visit = reachable(adjacency, start=1)
    if len(visit) != r:
        raise ValueError("diagram must be connected")
    oriented = []
    for far in visit[1:]:
        near = min(adjacency[far], key=visit.index)
        oriented.append((near, far, system.m(near, far)))

    results: dict[tuple, AssemblyCandidate] = {}
    for sizes in _size_vectors(r, max_total):
        if any(
            not _sizes_feasible(order, sizes[i - 1], sizes[j - 1])
            for i, j, order in edges
        ):
            continue
        per_edge = [
            _edge_blocks(order, sizes[near - 1], sizes[far - 1])
            for near, far, order in oriented
        ]
        # The first edge's two slots carry no earlier constraints, so one
        # representative block covers its whole orbit.
        per_edge[0] = per_edge[0][:1]
        total = sum(sizes)
        slots = slot_ranges(sizes, total)
        for combo in itertools.product(*per_edge):
            rows = [[0] * total for _ in range(total)]
            for i in range(total):
                rows[i][i] = 2
            for (near, far, order), block in zip(oriented, combo):
                for a, gi in enumerate(slots[near - 1]):
                    for b, gj in enumerate(slots[far - 1]):
                        v = block.rows[a][b]
                        rows[gi][gj] = v
                        rows[gj][gi] = v
            m = IntMatrix.from_rows(rows)
            if not is_irreducible_nonneg(m):
                continue
            if assembly_violations(system, sizes, m):
                continue
            canon = conjugation_canonical(m, sizes)
            key = (sizes, canon.rows)
            if key not in results:
                results[key] = AssemblyCandidate(system.name, sizes, canon)
    return sorted(
        results.values(), key=lambda cand: (cand.sizes, cand.matrix.rows)
    )
