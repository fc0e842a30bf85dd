"""0-1 matrices whose Gram spectra stay below 4, and their classification.

A 0-1 matrix B with connected bipartite support has both Gram matrices
(B^T B and B B^T) with all eigenvalues in [0, 4) exactly when, up to
independent row and column permutations, B is a staircase matrix, an
extended staircase matrix (a staircase with one tripled line), or one of
three exceptional matrices X1, X2, X3 (or a transpose of one of these).

The classification is a graph fact.  The square of the adjacency matrix of
the support graph (rows and columns as vertices, an edge per one) is the
block sum of B B^T and B^T B, so every Gram eigenvalue is below 4 exactly
when the graph has spectral radius below 2.  A connected graph has radius
below 2 exactly when it is a simply laced Dynkin diagram A_n, D_n, E6, E7
or E8 (J. H. Smith, "Some properties of the spectrum of a graph", 1970;
Goodman, de la Harpe and Jones, Coxeter Graphs and Towers of Algebras,
1989, 1.4).  Staircases are the paths A_n, extended staircases the D_n and
X1, X2, X3 the E6, E7, E8; classes_of_type builds the classes of each type,
and classify_under4 and the pruned search read the class off the type.  The
search builds its rows directly from the column subsets of size one to
three, walks a wide shape as its transpose, and, as a subgraph never has a
larger radius, drops a partial matrix as soon as its graph has a cycle, a
vertex of degree 4 or a second vertex of degree 3; it takes the columns no
row has used yet in one order only.

gram_spectrum_below_4 stays independent of that fact: it counts roots
exactly, by Sturm sequences on the minimal polynomial of the smaller Gram
matrix, and it is the test of the unpruned search.
"""

from __future__ import annotations

import bisect
import itertools

from ._value import Value
from .intmat import IntMatrix, gram, is_connected, spectrum_in_range
from .quiver import NotSimplyLacedDynkinError, dynkin_type_of_graph


class NonBinaryEntryError(ValueError):
    """An entry outside {0, 1} where a 0-1 matrix is required."""


class ReducibleGramError(ValueError):
    """The bipartite support graph is disconnected, so a Gram matrix is
    reducible and the matrix cannot present a transitive situation."""


class SpectrumOutOfRangeError(ValueError):
    """Some Gram eigenvalue falls outside [0, 4)."""


# --- constructions --------------------------------------------------------------


def make_staircase(n_rows: int, n_cols: int) -> IntMatrix:
    """The staircase 0-1 matrix of the given shape; |n_rows - n_cols| <= 1.

    Wide and square staircases put ones at (i, i) and (i, i+1); the tall
    shape is the transpose of the corresponding wide one.

    >>> make_staircase(2, 3).rows
    ((1, 1, 0), (0, 1, 1))
    >>> make_staircase(3, 2).rows
    ((1, 0), (1, 1), (0, 1))
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape entries must be positive")
    if abs(n_rows - n_cols) > 1:
        raise ValueError("staircase shape needs |n_rows - n_cols| <= 1")
    if n_rows > n_cols:
        return make_staircase(n_cols, n_rows).transpose()
    rows = []
    for i in range(n_rows):
        row = [0] * n_cols
        row[i] = 1
        if i + 1 < n_cols:
            row[i + 1] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def make_extended_staircase(base_rows: int, base_cols: int) -> IntMatrix:
    """The staircase of shape (base_rows, base_cols), base_cols >= base_rows,
    with the column (1, 0, ..., 0)^T glued to its left, so that its first
    row has three ones; the shape is (base_rows, base_cols + 1).  This is
    the column extension; the row extension is its transpose.

    >>> make_extended_staircase(2, 2).rows
    ((1, 1, 1), (0, 0, 1))
    >>> make_extended_staircase(1, 2).transpose().rows
    ((1,), (1,), (1,))
    """
    if base_cols < base_rows:
        raise ValueError("column extension needs base_cols >= base_rows")
    base = make_staircase(base_rows, base_cols)
    rows = []
    for i, row in enumerate(base.rows):
        rows.append(((1,) if i == 0 else (0,)) + row)
    return IntMatrix.from_rows(rows)


_EXCEPTIONAL = {
    1: ((1, 0, 0), (1, 1, 1), (0, 0, 1)),
    2: ((1, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1)),
    3: ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1)),
}


def exceptional(k: int) -> IntMatrix:
    """The exceptional matrices X1 (3x3), X2 (3x4), X3 (4x4).

    Their Gram matrices have minimal polynomials with largest real roots
    4*cos^2(pi/n) for n = 12, 18, 30 respectively.
    """
    if k not in _EXCEPTIONAL:
        raise ValueError("exceptional index must be 1, 2 or 3")
    return IntMatrix(_EXCEPTIONAL[k])


class MatrixClass(Value):
    """One equivalence class from the classification, with a reference
    representative.  kind is "staircase", "extended_staircase" or
    "exceptional"; variant is the exceptional index when applicable;
    transposed records that the representative is the transpose of the
    primary construction (tall staircase, row extension, transposed
    exceptional)."""

    kind: str
    matrix: IntMatrix
    transposed: bool = False
    variant: int | None = None

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.matrix.n_cols

    def describe(self) -> str:
        shape = f"{self.n_rows}x{self.n_cols}"
        if self.kind == "exceptional":
            t = " transposed" if self.transposed else ""
            return f"exceptional X{self.variant}{t} ({shape})"
        t = "tall " if self.kind == "staircase" and self.transposed else ""
        if self.kind == "extended_staircase":
            t = "row-extended " if self.transposed else "column-extended "
        return f"{t}{self.kind} ({shape})"


def classes_of_type(name: str) -> list[MatrixClass]:
    """The classes whose support graph is the simply laced Dynkin diagram
    `name`: A_m (m >= 2), D_m (m >= 4), E6, E7 or E8.

    The wide or square class comes first, then its transpose unless that is
    the same class, as for the square staircases A_(2k).  A_m is the
    staircase with m lines, D_m the column extension with m lines and E_m
    the exceptional X_(m-5).  The level recover_n reads off each class is
    the Coxeter number of the type: m + 1, 2m - 2, or 12, 18, 30.

    >>> [mc.matrix.shape for mc in classes_of_type("A4") + classes_of_type("D5")]
    [(2, 2), (2, 3), (3, 2)]
    """
    family, m = name[:1], int(name[1:]) if name[1:].isdigit() else 0
    if family == "A" and m >= 2:
        mc = MatrixClass("staircase", make_staircase(m // 2, m - m // 2))
    elif family == "D" and m >= 4:
        r = (m - 1) // 2
        mc = MatrixClass("extended_staircase", make_extended_staircase(r, m - r - 1))
    elif family == "E" and 6 <= m <= 8:
        mc = MatrixClass("exceptional", exceptional(m - 5), variant=m - 5)
    else:
        raise ValueError(f"no 0-1 class has Dynkin type {name!r}")
    if family == "A" and m % 2 == 0:
        return [mc]
    return [mc, MatrixClass(mc.kind, mc.matrix.transpose(), True, mc.variant)]


def generators_for_shape(n_rows: int, n_cols: int) -> list[MatrixClass]:
    """All classification representatives of the exact given shape: the
    classes of A_m, D_m and E_m, m = n_rows + n_cols, that have this shape.
    Below 4 lines only A_m exists (D3 = A3).  No two are equal, since their
    support graphs have different Dynkin types or, for an exceptional
    matrix and its transpose, shapes or branch halves.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape entries must be positive")
    m = n_rows + n_cols
    names = [f"A{m}"] + [f"D{m}"] * (m >= 4) + [f"E{m}"] * (6 <= m <= 8)
    classes = [mc for name in names for mc in classes_of_type(name)]
    return [mc for mc in classes if mc.matrix.shape == (n_rows, n_cols)]


# --- canonical forms ------------------------------------------------------------


def canonical_form(m: IntMatrix) -> IntMatrix:
    """Lexicographically minimal matrix under independent row and column
    permutations.

    For a fixed column arrangement the best row arrangement sorts the rows,
    and for a fixed row arrangement the best column arrangement sorts the
    columns, so only the arrangements of the shorter side are enumerated.

    >>> canonical_form(IntMatrix.from_rows([[0, 1], [1, 1]])).rows
    ((0, 1), (1, 1))
    >>> canonical_form(IntMatrix.from_rows([[1, 0], [1, 1]])).rows
    ((0, 1), (1, 1))
    """
    if m.n_cols > 10:
        raise ValueError("refusing to enumerate permutations of more than 10 columns")
    arrangements = (
        tuple(sorted(tuple(row[j] for j in order) for row in m.rows))
        for order in itertools.permutations(range(m.n_cols))
    ) if m.n_rows >= m.n_cols else (
        tuple(zip(*sorted(zip(*(m.rows[i] for i in order)))))
        for order in itertools.permutations(range(m.n_rows))
    )
    return IntMatrix(min(arrangements))


# --- validation and classification ----------------------------------------------


def check_binary(m: IntMatrix) -> None:
    for row in m.rows:
        for entry in row:
            if entry not in (0, 1):
                raise NonBinaryEntryError(f"entry {entry} is not 0 or 1")


def is_connected_bipartite(m: IntMatrix) -> bool:
    """Connectivity of the bipartite graph on rows and columns with an edge
    where the matrix has a nonzero entry.  Isolated vertices (zero lines)
    make the graph disconnected."""
    r = m.n_rows
    return is_connected(r + m.n_cols, [(i, r + j) for i, row in enumerate(m.rows)
                                       for j, v in enumerate(row) if v])


def _smaller_gram(m: IntMatrix) -> IntMatrix:
    if m.n_rows <= m.n_cols:
        return gram(m, "left")
    return gram(m, "right")


def gram_spectrum_below_4(m: IntMatrix) -> bool:
    """Exact check that all Gram eigenvalues lie in [0, 4).

    Both Gram matrices share their nonzero eigenvalues and 0 is inside the
    window, so testing the smaller one suffices.
    """
    return spectrum_in_range(_smaller_gram(m), 0, 4)


def _dynkin_key(m: IntMatrix):
    """The class of a 0-1 matrix within its shape, read off its support
    graph, or None unless that graph is a simply laced Dynkin tree.

    Rows are the vertices 1..r and columns r+1..r+c.  The key is the Dynkin
    type, with whether the branch vertex is a row for E6 and E8, whose two
    halves have equal size; for A, D and E7 the shape fixes the half.

    >>> _dynkin_key(exceptional(1)), _dynkin_key(exceptional(1).transpose())
    (('E6', True), ('E6', False))
    >>> _dynkin_key(IntMatrix.from_rows([[1, 1], [1, 1]])) is None
    True
    """
    r, c = m.n_rows, m.n_cols
    edges = [
        (i + 1, r + j + 1)
        for i, row in enumerate(m.rows)
        for j, entry in enumerate(row)
        if entry
    ]
    try:
        name = dynkin_type_of_graph(r + c, edges)
    except NotSimplyLacedDynkinError:
        return None
    if name in ("E6", "E8"):
        return name, any(sum(row) == 3 for row in m.rows)
    return name, None


def classify_under4(m: IntMatrix) -> MatrixClass:
    """Identify the class of a 0-1 matrix with connected support and Gram
    spectrum inside [0, 4).

    Raises NonBinaryEntryError, ReducibleGramError or SpectrumOutOfRangeError
    when the corresponding hypothesis fails; otherwise returns the matching
    MatrixClass (its representative is the reference construction, equal to
    the input up to row and column permutations).  The spectrum is in range
    exactly when the support is a Dynkin tree, and the class is the one of
    that type (classes_of_type) with the same shape and Dynkin key; only a
    support that is no Dynkin tree is tested for connectivity.

    >>> classify_under4(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]])).kind
    'staircase'
    """
    check_binary(m)
    key = _dynkin_key(m)
    if key is None and not is_connected_bipartite(m):
        raise ReducibleGramError("bipartite support graph is disconnected")
    if key is None:
        raise SpectrumOutOfRangeError("some Gram eigenvalue is at least 4")
    name, branch_in_row = key  # X1 and X3 have their branch vertex in a row
    for mc in classes_of_type(name):
        if mc.matrix.shape == m.shape and branch_in_row in (None, not mc.transposed):
            return mc
    raise RuntimeError(
        "matrix passes all spectral tests but matches no known class; "
        "this contradicts the classification"
    )


# --- exhaustive search ----------------------------------------------------------


def _dynkin_members(n_rows: int, n_cols: int) -> list[IntMatrix]:
    """One 0-1 matrix of the given shape per class whose support graph is a
    Dynkin tree, found by a pruned walk.

    Each row is built from a column subset of size one to three, rows are
    walked in non-decreasing order (row order is free), and a branch is
    dropped when a new row joins two columns that are already connected (a
    cycle), a column reaches degree 4, a second vertex of degree 3 appears,
    or the count of ones can no longer end at r + c - 1.  A matrix of the
    first three kinds has a support graph containing a cycle, the star with
    four leaves or, once connected, the affine diagram D~_n, each of radius
    2; one with another count of ones has a cycle or is disconnected.  A
    forest with r + c - 1 edges on r + c vertices is a tree, so each leaf is
    connected, is in range exactly when it is a Dynkin tree, and its class
    is its Dynkin key.

    The columns no row has used yet are interchangeable, so the walk takes
    them in one order only (orderly generation, after Read 1978 and McKay
    1998): the columns a row uses for the first time are the highest-indexed
    unused ones.  The unused columns are then always 0..u-1, and a support S
    is admissible at u exactly when S meets [0, u) in u-k..u-1 for
    k = |S & [0, u)|.  No class is lost, since every canonical form obeys
    the rule: if a row used a new column j while a higher unused column j'
    stayed empty in it, swapping j and j' would keep the earlier rows and
    make this row, hence the sorted matrix, smaller.  Every prefix of a
    Dynkin tree's sorted rows passes the prunes, so each canonical form is
    a leaf.
    """
    rows = sorted(
        tuple(int(j in s) for j in range(n_cols))
        for k in (1, 2, 3)
        for s in itertools.combinations(range(n_cols), k)
    )
    supports = [tuple(j for j, e in enumerate(row) if e) for row in rows]
    # admissible[u]: (row index, new columns, support) of each row allowed
    # while the columns 0..u-1 are unused
    admissible = []
    for u in range(n_cols + 1):
        allowed = []
        for idx, support in enumerate(supports):
            new = [j for j in support if j < u]
            if new == list(range(u - len(new), u)):
                allowed.append((idx, len(new), support))
        admissible.append(allowed)
    edges = n_rows + n_cols - 1
    members: dict = {}
    chosen: list[tuple[int, ...]] = []
    component = list(range(n_cols))  # a label per column; equal when connected
    degree = [0] * n_cols  # of each column

    def extend(start: int, ones: int, branches: int, unused: int):
        if len(chosen) == n_rows:
            m = IntMatrix(tuple(chosen))
            key = _dynkin_key(m)
            if key is not None:
                members.setdefault(key, m)
            return
        later = n_rows - len(chosen) - 1  # rows still to pick after this one
        allowed = admissible[unused]
        for idx, new, support in allowed[bisect.bisect_left(allowed, (start,)):]:
            total = ones + len(support)
            if not total + later <= edges <= total + 3 * later:
                continue
            labels = {component[j] for j in support}
            if len(labels) < len(support):
                continue
            if any(degree[j] == 3 for j in support):
                continue
            new_branches = branches + (len(support) == 3) + sum(
                degree[j] == 2 for j in support
            )
            if new_branches > 1:
                continue
            saved = component[:]
            merged = min(labels)
            for j in range(n_cols):
                if component[j] in labels:
                    component[j] = merged
            for j in support:
                degree[j] += 1
            chosen.append(rows[idx])
            extend(idx, total, new_branches, unused - new)
            chosen.pop()
            for j in support:
                degree[j] -= 1
            component[:] = saved

    extend(0, 0, 0, n_cols)
    return list(members.values())


def brute_force_under4(
    n_rows: int, n_cols: int, max_entry: int = 2, prefilter: bool = True
) -> list[IntMatrix]:
    """All equivalence classes of matrices of the exact given shape, entries
    in 0..max_entry, connected bipartite support, and Gram spectrum in
    [0, 4); returned as sorted canonical forms.

    Only 0-1 matrices can survive (an entry >= 2 puts a diagonal Gram entry
    at >= 4), so allowing max_entry = 2 is a built-in check that restricting
    to 0-1 matrices loses nothing.

    prefilter=False checks every matrix the slow way: connectivity, then the
    exact spectral test.  prefilter=True takes the canonical form of each
    member from _dynkin_members, whose rows (one to three ones) are the rows
    with squared sum below 4 for every max_entry; a wide shape is walked as
    its transpose, which has fewer candidate rows.  Both settings return the
    same classes.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape entries must be positive")
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    if prefilter and n_cols > n_rows:
        members = [m.transpose() for m in _dynkin_members(n_cols, n_rows)]
    elif prefilter:
        members = _dynkin_members(n_rows, n_cols)
    else:
        members = []
        for flat in itertools.product(
            range(max_entry + 1), repeat=n_rows * n_cols
        ):
            m = IntMatrix.from_rows(
                [flat[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
            )
            if is_connected_bipartite(m) and gram_spectrum_below_4(m):
                members.append(m)
    return sorted({canonical_form(m) for m in members}, key=lambda m: m.rows)
