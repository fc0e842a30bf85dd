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

The classified 0-1 matrices supply candidates: level n takes the classes of
the Dynkin types with Coxeter number n.  Staircases (A_(n-1)) realize the
cell representations, extended staircases (D_(n/2+1)) a second family at
even levels, and the exceptional matrices (E6, E7, E8) three sporadic
candidates at levels 12, 18 and 30 whose origin is left hypothetical.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from ._value import Value
from .based_algebra import BasedAlgebra, BasedModule
from .fibpoly import IntPolynomial, eval_at_matrix, fib_f
from .intmat import IntMatrix, _block_matrix, gram, minpoly_symmetric
from .staircase import classes_of_type


def theta_generator_matrices(b: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The block matrices of the two generators acting on Z^(rows+cols)."""
    r, c = b.n_rows, b.n_cols
    # the first r and the last c rows of [[2I, B], [B^T, 2I]]
    rows = _block_matrix((r, c), [(1, 2, b.rows)]).rows
    zero = ((0,) * (r + c),)
    return IntMatrix(rows[:r] + zero * c), IntMatrix(zero * r + rows[r:])


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
        # the mirror image: the word for b^T with its two index blocks swapped
        rows = theta_word_matrix(b.transpose(), length, 1).rows
        return IntMatrix(tuple(row[c:] + row[:c] for row in rows[c:] + rows[:c]))
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
    return _level_of_minpolys(p, q, bound)


def _level_of_minpolys(p: IntPolynomial, q: IntPolynomial, bound: int = 120) -> int:
    """The smallest level n >= 3 such that f_n is divisible by both minimal
    polynomials p and q; ValueError when no level up to the bound works."""
    for n in range(3, bound + 1):
        f = fib_f(n)
        if (f % p).is_zero() and (f % q).is_zero():
            return n
    raise ValueError(
        f"no level up to {bound} annihilates the Gram spectra of this matrix"
    )


class DihedralRep(Value):
    """A matrix presenting the level-n quotient; validated on construction."""

    n: int
    b: IntMatrix

    def __post_init__(self):
        if not annihilation_test(self.b, self.n):
            raise ValueError("matrix does not present this level")

    @property
    def dimension(self) -> int:
        return self.b.n_rows + self.b.n_cols


# --- the candidate families -----------------------------------------------------


class DihedralCandidate(Value):
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


_FAMILY = {"staircase": "cell", "extended_staircase": "extension"}


def enumerate_B(n: int) -> list[DihedralCandidate]:
    """All candidate matrices at level n: the classes (classes_of_type) of
    the simply laced Dynkin types with Coxeter number n.  In the reference
    order these are A_(n-1), the staircases ("cell"), wide then tall at even
    n; D_(n/2+1) at even n >= 6, the extended staircases ("extension"); and
    E6, E7, E8 at levels 12, 18, 30, the exceptional matrices (tagged
    hypothetical).  The first class of each type is checked to have minimal
    level n; its transpose has the same level, as the two Gram matrices swap.

    >>> [c.matrix.shape for c in enumerate_B(6)]
    [(2, 3), (3, 2), (1, 3), (3, 1)]
    >>> len(enumerate_B(5)), len(enumerate_B(4))
    (1, 2)
    """
    if n < 3:
        raise ValueError("level must be at least 3")
    names = [f"A{n - 1}"] + [f"D{n // 2 + 1}"] * (n % 2 == 0 and n >= 6)
    names += [f"E{m}" for m, h in ((6, 12), (7, 18), (8, 30)) if h == n]
    out: list[DihedralCandidate] = []
    for name in names:
        classes = classes_of_type(name)
        if recover_n(classes[0].matrix, bound=n) != n:
            raise AssertionError("candidate recovers the wrong level")
        for mc in classes:
            family = _FAMILY.get(mc.kind, mc.kind)
            out.append(DihedralCandidate(
                mc.matrix, n, family, mc.transposed, family == "exceptional", mc.variant
            ))
    return out


# --- the based algebra of a level ------------------------------------------------


def _word(first: int, length: int) -> str:
    """The alternating word of the given length starting with `first`."""
    return "".join(str(first if k % 2 == 0 else 3 - first) for k in range(length))


def _basis_labels(n: int) -> list[str]:
    return ["e"] + [_word(first, length) for length in range(1, n) for first in (1, 2)]


def _word_ladder(gen_1: IntMatrix, gen_2: IntMatrix, top: int) -> dict:
    """The matrices L(g, length) of the alternating words starting with
    generator g = 1, 2 of lengths 1..top, keyed by (g, length), from
    L(1, 1) = gen_1 and L(2, 1) = gen_2 by the ladder
    L(g, length) = L(g, 1) L(3-g, length-1) - L(g, length-2), with nothing
    subtracted at length 2.  Each row r is formed directly as
    -L(g, length-2)[r] (zeros at length 2) plus c L(3-g, length-1)[m] for
    each nonzero entry c at (r, m) of the generator, the first term taken
    together with the negation.

    >>> gen_1, gen_2 = IntMatrix(((2, 1), (0, 0))), IntMatrix(((0, 0), (1, 2)))
    >>> words = _word_ladder(gen_1, gen_2, 3)
    >>> words[(1, 2)].rows, words[(1, 3)].rows
    (((1, 2), (0, 0)), ((0, 0), (0, 0)))
    """
    nonzero = {
        g: [[(m, c) for m, c in enumerate(row) if c] for row in gen.rows]
        for g, gen in ((1, gen_1), (2, gen_2))
    }
    words = {(1, 1): gen_1, (2, 1): gen_2}
    for length in range(2, top + 1):
        for g in (1, 2):
            factor = words[(3 - g, length - 1)].rows
            if length > 2:
                backs = words[(g, length - 2)].rows
            else:
                backs = [(0,) * len(factor[0])] * len(nonzero[g])
            word = []
            for back, terms in zip(backs, nonzero[g]):
                if not terms:
                    word.append(tuple([-a for a in back]))
                    continue
                (m, c), *rest = terms
                acc = tuple([c * b - a for a, b in zip(back, factor[m])])
                for m, c in rest:
                    acc = tuple([a + c * b for a, b in zip(acc, factor[m])])
                word.append(acc)
            words[(g, length)] = IntMatrix(tuple(word))
    return words


@lru_cache(maxsize=None)
def structure_constants(n: int):
    """The multiplication tensor of the level-n quotient algebra on the basis
    e, alternating words of lengths 1..n-1 (two per length).

    gamma[i][j][k] is the coefficient of basis element k in the product of
    basis elements i and j, by the product rule of the alternating words.
    Write (p, l) for the word of length l starting with generator p.  For x
    = (p, a) ending with generator u and y = (q, b), the product of their
    basis elements is the sum over the words (p, l), l > 0, of

      2 (p, l) for l = |a-b|+1, |a-b|+3, ..., a+b-1           if q = u,
      (p, l) for l = |a-b|, |a-b|+2, ..., a+b, times 2 inside  if q != u,

    where the quotient sends (p, n) to 0 and (p, l) for l > n to -(p, 2n-l).

    >>> labels, gamma = structure_constants(3)
    >>> labels
    ('e', '1', '2', '12', '21')
    >>> gamma[1][1]
    (0, 2, 0, 0, 0)
    """
    if n < 3:
        raise ValueError("level must be at least 3")
    labels = _basis_labels(n)
    size = len(labels)
    ident = [tuple(int(i == k) for k in range(size)) for i in range(size)]
    # the word (p, l) is basis element 2l + p - 2; each plane starts with e
    tensor = [ident] + [[ident[i]] + [()] * (size - 1) for i in range(1, size)]
    for a in range(1, n):
        for b in range(1, n):
            lo, hi = abs(a - b), a + b
            for same in (1, 0):  # q = u, then q != u
                coeffs = [0] * (2 * n)  # by length l, before the quotient
                coeffs[lo + same:hi + 1 - same:2] = [2] * ((hi - lo) // 2 + 1 - same)
                if not same:
                    coeffs[lo] = coeffs[hi] = 1
                folded = list(map(sub, coeffs[1:n], coeffs[2 * n - 1:n:-1]))
                if min(folded) < 0:
                    raise AssertionError("negative structure constant")
                for p in (1, 2):
                    u = p if a % 2 else 3 - p
                    q = u if same else 3 - u
                    row = [0] * size
                    row[p::2] = folded
                    tensor[2 * a + p - 2][2 * b + q - 2] = tuple(row)
    return tuple(labels), tuple(map(tuple, tensor))


@lru_cache(maxsize=None)
def based_algebra_of(n: int) -> BasedAlgebra:
    """The level-n quotient as a based algebra with non-negative structure
    constants.  Cached per level, so each level's algebra is built and
    validated once per process."""
    labels, gamma = structure_constants(n)
    return BasedAlgebra.make(labels, gamma, identity=0)


def based_module_of(rep: DihedralRep) -> BasedModule:
    """The based module on Z^(rows+cols) given by the block action of rep.

    The action of each alternating word comes from the two generator block
    matrices by the sparse word ladder (_word_ladder); theta_word_matrix
    gives the same matrices by the closed form."""
    algebra = based_algebra_of(rep.n)
    theta_1, theta_2 = theta_generator_matrices(rep.b)
    words = _word_ladder(theta_1, theta_2, rep.n - 1)
    actions = [
        IntMatrix.identity(rep.dimension)
        if lab == "e"
        else words[(int(lab[0]), len(lab))]
        for lab in algebra.labels
    ]
    return BasedModule.make(algebra, actions)
