"""Dihedral level-n quotients: candidate matrices, block actions, and the
associated based algebra.

A candidate is a 0-1 matrix B of shape r x c.  The two generators act on
Z^(r+c) by the block matrices

    theta_1 = [[2I, B], [0, 0]],    theta_2 = [[0, 0], [B^T, 2I]],

and the alternating product indexed by the word of length i starting with
generator 1 has the closed form (G = B B^T, f_i from fibpoly):

    i odd:   [[2 f_i(G),  f_i(G) B], [0, 0]]
    i even:  [[f_i(G),  2 (f_i/x)(G) B], [0, 0]]

(with the mirror-image formulas in the bottom rows for words starting with
generator 2).  The matrix presents the level-n quotient exactly when
f_n(B B^T) = 0 = f_n(B^T B); when that holds, the even top-right factor
vanishes too, since H = (f_n/x)(G) B satisfies H H^T = (f_n/x)(G) f_n(G) = 0.

The classified 0-1 matrices supply candidates: staircases realize the cell
representations, extended staircases realize a second family at even levels,
and the exceptional matrices give three sporadic candidates at levels 12, 18
and 30 whose origin is left hypothetical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .based_algebra import BasedAlgebra, BasedModule
from .fibpoly import IntPolynomial, eval_at_matrix, fib_f
from .intmat import IntMatrix, gram, minpoly_symmetric
from .staircase import exceptional, make_extended_staircase, make_staircase


def theta_generator_matrices(b: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The block matrices of the two generators acting on Z^(rows+cols)."""
    r, c = b.n_rows, b.n_cols
    top = [
        tuple(2 * int(i == j) for j in range(r)) + b.rows[i] for i in range(r)
    ]
    zero_wide = [(0,) * (r + c) for _ in range(c)]
    theta_1 = IntMatrix.from_rows(top + zero_wide)
    bt = b.transpose()
    bottom = [
        bt.rows[i] + tuple(2 * int(i == j) for j in range(c)) for i in range(c)
    ]
    zero_top = [(0,) * (r + c) for _ in range(r)]
    theta_2 = IntMatrix.from_rows(zero_top + bottom)
    return theta_1, theta_2


def theta_word_matrix(b: IntMatrix, length: int, first: int) -> IntMatrix:
    """Matrix of the basis element for the alternating word of the given
    length starting with generator `first` (1 or 2).  Length 0 gives the
    identity.

    >>> theta_word_matrix(IntMatrix.from_rows([[1]]), 1, 1).rows
    ((2, 1), (0, 0))
    """
    if first not in (1, 2):
        raise ValueError("first generator must be 1 or 2")
    if length < 0:
        raise ValueError("length must be non-negative")
    r, c = b.n_rows, b.n_cols
    if length == 0:
        return IntMatrix.identity(r + c)
    if first == 2:
        return _theta_word_second(b, length)
    g = gram(b, "left")
    f = fib_f(length)
    fg = eval_at_matrix(f, g)
    if length % 2 == 1:
        top_left = 2 * fg
        top_right = fg @ b
    else:
        top_left = fg
        top_right = 2 * (eval_at_matrix(IntPolynomial(f.coeffs[1:]), g) @ b)
    rows = [top_left.rows[i] + top_right.rows[i] for i in range(r)]
    rows += [(0,) * (r + c) for _ in range(c)]
    return IntMatrix.from_rows(rows)


def _theta_word_second(b: IntMatrix, length: int) -> IntMatrix:
    """Alternating word starting with generator 2: mirror formulas in the
    bottom rows, in terms of the right Gram matrix B^T B."""
    r, c = b.n_rows, b.n_cols
    g = gram(b, "right")
    f = fib_f(length)
    fg = eval_at_matrix(f, g)
    bt = b.transpose()
    if length % 2 == 1:
        bottom_left = fg @ bt
        bottom_right = 2 * fg
    else:
        bottom_left = 2 * (eval_at_matrix(IntPolynomial(f.coeffs[1:]), g) @ bt)
        bottom_right = fg
    rows = [(0,) * (r + c) for _ in range(r)]
    rows += [bottom_left.rows[i] + bottom_right.rows[i] for i in range(c)]
    return IntMatrix.from_rows(rows)


def annihilation_test(b: IntMatrix, n: int) -> bool:
    """Exact test that f_n kills both Gram matrices of b.

    This is precisely the condition for the block action to present the
    level-n quotient (the alternating length-n words act by zero).

    >>> annihilation_test(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), 6)
    True
    >>> annihilation_test(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), 5)
    False
    """
    if n < 3:
        raise ValueError("level must be at least 3")
    f = fib_f(n)
    return (
        eval_at_matrix(f, gram(b, "left")).is_zero()
        and eval_at_matrix(f, gram(b, "right")).is_zero()
    )


def recover_n(b: IntMatrix, bound: int = 120) -> int:
    """The smallest level n >= 3 whose f_n kills both Gram matrices.

    Works through the minimal polynomials: f_n kills a symmetric matrix
    exactly when the matrix's minimal polynomial divides f_n (f_n is
    squarefree).  Raises ValueError when no level up to the bound works.
    """
    p = minpoly_symmetric(gram(b, "left"))
    q = minpoly_symmetric(gram(b, "right"))
    for n in range(3, bound + 1):
        f = fib_f(n)
        if (f % p).is_zero() and (f % q).is_zero():
            return n
    raise ValueError(
        f"no level up to {bound} annihilates the Gram spectra of this matrix"
    )


@dataclass(frozen=True)
class DihedralRep:
    """A matrix presenting the level-n quotient; validated on construction."""

    n: int
    b: IntMatrix

    def __post_init__(self):
        if not annihilation_test(self.b, self.n):
            raise ValueError("matrix does not present this level")

    @property
    def dimension(self) -> int:
        return self.b.n_rows + self.b.n_cols

    @property
    def has_minimal_level(self) -> bool:
        """Whether n is the smallest level this matrix presents; this is the
        condition for the module's apex to be the middle cell of level n."""
        return recover_n(self.b, bound=max(self.n, 3)) == self.n

    def theta(self, length: int, first: int) -> IntMatrix:
        return theta_word_matrix(self.b, length, first)

    @property
    def theta_1(self) -> IntMatrix:
        return self.theta(1, 1)

    @property
    def theta_2(self) -> IntMatrix:
        return self.theta(1, 2)


# --- the candidate families -----------------------------------------------------


def cell_rep_B(n: int, side: str = "wide") -> IntMatrix:
    """The staircase candidate at level n.

    Odd n = 2k+1: the square k x k staircase (both sides coincide).
    Even n = 2k: the (k-1) x k staircase for side="wide", its transpose for
    side="tall".

    >>> cell_rep_B(6, "wide").rows
    ((1, 1, 0), (0, 1, 1))
    """
    if side not in ("wide", "tall"):
        raise ValueError("side must be 'wide' or 'tall'")
    if n < 3:
        raise ValueError("level must be at least 3")
    if n % 2 == 1:
        k = (n - 1) // 2
        return make_staircase(k, k)
    k = n // 2
    m = make_staircase(k - 1, k)
    return m if side == "wide" else m.transpose()


def n_rep_B(n: int, side: str = "wide") -> IntMatrix:
    """The extended-staircase candidate, defined at even levels only.

    Level n = 2k: for even k the column extension with square base
    (k/2, k/2); for odd k the column extension with base ((k-1)/2,
    (k-1)/2 + 1).  side="tall" transposes.

    >>> n_rep_B(8, "wide").rows
    ((1, 1, 1), (0, 0, 1))
    >>> n_rep_B(6, "tall").rows
    ((1,), (1,), (1,))
    """
    if side not in ("wide", "tall"):
        raise ValueError("side must be 'wide' or 'tall'")
    if n < 4 or n % 2 != 0:
        raise ValueError("extended candidates exist at even levels >= 4 only")
    k = n // 2
    if k % 2 == 0:
        base = (k // 2, k // 2)
    else:
        base = ((k - 1) // 2, (k - 1) // 2 + 1)
    m = make_extended_staircase(base[0], base[1], "column")
    if not annihilation_test(m, n):
        raise AssertionError("extended staircase fails its own level")
    return m if side == "wide" else m.transpose()


_EXCEPTIONAL_LEVEL = {12: 1, 18: 2, 30: 3}


@dataclass(frozen=True)
class DihedralCandidate:
    """One entry of the level-n candidate list."""

    matrix: IntMatrix
    n: int
    family: str  # "cell" | "extension" | "exceptional"
    transposed: bool = False
    hypothetical: bool = False
    variant: int | None = None

    def describe(self) -> str:
        shape = f"{self.matrix.n_rows}x{self.matrix.n_cols}"
        tag = " (hypothetical)" if self.hypothetical else ""
        t = " transposed" if self.transposed else ""
        if self.family == "exceptional":
            return f"exceptional X{self.variant}{t} {shape}{tag}"
        return f"{self.family}{t} {shape}{tag}"


def enumerate_B(n: int) -> list[DihedralCandidate]:
    """All candidate matrices at level n, in the reference order: wide
    staircase, tall staircase, wide extension, tall extension, then the
    exceptional matrices (tagged hypothetical) at levels 12, 18 and 30.
    Duplicates arising from degenerate extensions are removed by entry
    equality, and every emitted matrix is checked to have minimal level n.

    >>> [c.matrix.shape for c in enumerate_B(6)]
    [(2, 3), (3, 2), (1, 3), (3, 1)]
    >>> len(enumerate_B(5))
    1
    """
    if n < 3:
        raise ValueError("level must be at least 3")
    out: list[DihedralCandidate] = []
    seen: set[tuple] = set()

    def add(matrix: IntMatrix, family: str, transposed: bool,
            hypothetical: bool = False, variant: int | None = None):
        if matrix.rows in seen:
            return
        if recover_n(matrix, bound=max(n, 3)) != n:
            raise AssertionError("candidate recovers the wrong level")
        seen.add(matrix.rows)
        out.append(
            DihedralCandidate(matrix, n, family, transposed, hypothetical, variant)
        )

    if n % 2 == 1:
        add(cell_rep_B(n), "cell", transposed=False)
    else:
        add(cell_rep_B(n, "wide"), "cell", transposed=False)
        add(cell_rep_B(n, "tall"), "cell", transposed=True)
        if n >= 4:
            add(n_rep_B(n, "wide"), "extension", transposed=False)
            add(n_rep_B(n, "tall"), "extension", transposed=True)
    if n in _EXCEPTIONAL_LEVEL:
        k = _EXCEPTIONAL_LEVEL[n]
        x = exceptional(k)
        add(x, "exceptional", transposed=False, hypothetical=True, variant=k)
        add(x.transpose(), "exceptional", transposed=True, hypothetical=True,
            variant=k)
    return out


# --- the based algebra of a level ------------------------------------------------


def _basis_labels(n: int) -> list[str]:
    labels = ["e"]
    for length in range(1, n):
        for first in (1, 2):
            word = "".join(
                str(first if k % 2 == 0 else 3 - first) for k in range(length)
            )
            labels.append(word)
    return labels


@lru_cache(maxsize=None)
def structure_constants(n: int):
    """The multiplication tensor of the level-n quotient algebra on the basis
    e, alternating words of lengths 1..n-1 (two per length).

    gamma[i][j][k] is the coefficient of basis element k in the product of
    basis elements i and j.  Computed from the two generator left-
    multiplication matrices by the three-term ladder
    L(g, length) = L(g, 1) L(3-g, length-1) - L(g, length-2), with the
    length-n words truncated to zero.
    """
    if n < 3:
        raise ValueError("level must be at least 3")
    labels = _basis_labels(n)
    size = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}

    def word(first: int, length: int) -> str:
        return "".join(
            str(first if k % 2 == 0 else 3 - first) for k in range(length)
        )

    # left multiplication by a generator g on the truncated basis
    def generator_left(g: int) -> list[list[int]]:
        mat = [[0] * size for _ in range(size)]

        def put(target_label, col, coeff=1):
            mat[index[target_label]][col] += coeff

        put(word(g, 1), index["e"])
        for length in range(1, n):
            same = word(g, length)
            put(same, index[same], 2)
            other = word(3 - g, length)
            col = index[other]
            if length + 1 <= n - 1:
                put(word(g, length + 1), col)
            if length >= 2:
                put(word(g, length - 1), col)
        return mat

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]

    def matsub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    ident = [[int(i == j) for j in range(size)] for i in range(size)]
    left: dict[str, list[list[int]]] = {"e": ident}
    gen_left = {1: generator_left(1), 2: generator_left(2)}
    for first in (1, 2):
        left[word(first, 1)] = gen_left[first]
    for length in range(2, n):
        for first in (1, 2):
            # ladder: L(first, length) = L(first, 1) @ L(other, length - 1)
            #                            - L(first, length - 2)
            nxt = matmul(gen_left[first], left[word(3 - first, length - 1)])
            if length >= 3:
                nxt = matsub(nxt, left[word(first, length - 2)])
            left[word(first, length)] = nxt
    # assemble gamma[i][j][k] = left[label_i][k][j]
    gamma = []
    for lab in labels:
        li = left[lab]
        gamma.append(
            tuple(tuple(li[k][j] for k in range(size)) for j in range(size))
        )
    tensor = tuple(gamma)
    for plane in tensor:
        for row in plane:
            for c in row:
                if c < 0:
                    raise AssertionError("negative structure constant")
    return tuple(labels), tensor


def based_algebra_of(n: int) -> BasedAlgebra:
    """The level-n quotient as a based algebra with non-negative structure
    constants."""
    labels, gamma = structure_constants(n)
    return BasedAlgebra.make(labels, gamma, identity=0)


def based_module_of(rep: DihedralRep) -> BasedModule:
    """The based module on Z^(rows+cols) given by the block action of rep."""
    algebra = based_algebra_of(rep.n)
    actions = []
    for lab in algebra.labels:
        if lab == "e":
            actions.append(IntMatrix.identity(rep.dimension))
        else:
            actions.append(rep.theta(len(lab), int(lab[0])))
    return BasedModule.make(algebra, tuple(actions))
