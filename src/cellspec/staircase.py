"""0-1 matrices whose Gram spectra stay below 4, and their classification.

A 0-1 matrix B with connected bipartite support has both Gram matrices
(B^T B and B B^T) with all eigenvalues in [0, 4) exactly when, up to
independent row and column permutations, B is a staircase matrix, an
extended staircase matrix (a staircase with one tripled line), or one of
three exceptional matrices X1, X2, X3 (or a transpose of one of these).

Two cheap necessary conditions drive the search:

  * a line (row or column) whose entries have squares summing to >= 4
    forces an eigenvalue >= 4 (it is a diagonal entry of a Gram matrix);
  * two parallel lines with inner product >= 2 force an eigenvalue >= 4
    (interlacing against the 2x2 principal Gram block [[a, b], [b, c]]
    with a, c >= b >= 2 gives top eigenvalue >= 2b >= 4).

The definitive test is exact: Sturm root counting on the minimal polynomial
of the smaller Gram matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .intmat import IntMatrix, gram, reachable, slot_ranges, spectrum_in_range


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


def make_extended_staircase(
    base_rows: int, base_cols: int, extension: str = "column"
) -> IntMatrix:
    """A staircase with one extra tripled line.

    extension="column" glues the column (1, 0, ..., 0)^T to the left of the
    staircase of shape (base_rows, base_cols); it requires base_cols >=
    base_rows so that the first row really acquires three ones.  The result
    has shape (base_rows, base_cols + 1).  extension="row" is the transpose
    construction: the transpose of the column extension of the transposed
    base, of shape (base_rows + 1, base_cols), requiring base_rows >=
    base_cols.

    >>> make_extended_staircase(2, 2, "column").rows
    ((1, 1, 1), (0, 0, 1))
    >>> make_extended_staircase(2, 2, "row").rows
    ((1, 0), (1, 0), (1, 1))
    >>> make_extended_staircase(2, 1, "row").rows
    ((1,), (1,), (1,))
    """
    if extension == "row":
        return make_extended_staircase(base_cols, base_rows, "column").transpose()
    if extension != "column":
        raise ValueError("extension must be 'row' or 'column'")
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


@dataclass(frozen=True)
class MatrixClass:
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


def generators_for_shape(n_rows: int, n_cols: int) -> list[MatrixClass]:
    """All classification representatives of the exact given shape.

    Staircases exist when |r - c| <= 1, extensions when the shape difference
    is 1 or 2 (column extensions are wide, row extensions tall), and the
    exceptional matrices at their six fixed shapes.  Duplicates that arise
    from degenerate extensions coinciding with staircases (the 1x2 case and
    its transpose) are removed by entry equality.
    """
    out: list[MatrixClass] = []
    seen: set[tuple] = set()

    def add(mc: MatrixClass):
        if mc.matrix.rows not in seen:
            seen.add(mc.matrix.rows)
            out.append(mc)

    r, c = n_rows, n_cols
    if abs(r - c) <= 1:
        add(MatrixClass("staircase", make_staircase(r, c), transposed=r > c))
    if c - r in (1, 2):
        base_cols = c - 1
        if base_cols >= 1 and abs(r - base_cols) <= 1:
            add(
                MatrixClass(
                    "extended_staircase",
                    make_extended_staircase(r, base_cols, "column"),
                    transposed=False,
                )
            )
    if r - c in (1, 2):
        base_rows = r - 1
        if base_rows >= 1 and abs(base_rows - c) <= 1:
            add(
                MatrixClass(
                    "extended_staircase",
                    make_extended_staircase(base_rows, c, "row"),
                    transposed=True,
                )
            )
    for k, rows in _EXCEPTIONAL.items():
        x = IntMatrix(rows)
        if x.shape == (r, c):
            add(MatrixClass("exceptional", x, transposed=False, variant=k))
        if x.transpose().shape == (r, c) and x.transpose() != x:
            add(MatrixClass("exceptional", x.transpose(), transposed=True, variant=k))
    return out


# --- canonical forms ------------------------------------------------------------


def canonical_form(
    m: IntMatrix, row_blocks=None, col_blocks=None
) -> IntMatrix:
    """Lexicographically minimal matrix under independent row and column
    permutations (restricted to within-block permutations when blocks are
    given as lists of consecutive sizes).

    For a fixed column arrangement the best row arrangement sorts the rows
    (within each row block), so only column arrangements are enumerated.

    >>> canonical_form(IntMatrix.from_rows([[0, 1], [1, 1]])).rows
    ((0, 1), (1, 1))
    >>> canonical_form(IntMatrix.from_rows([[1, 0], [1, 1]])).rows
    ((0, 1), (1, 1))
    """
    row_ranges = slot_ranges(row_blocks, m.n_rows)
    col_ranges = slot_ranges(col_blocks, m.n_cols)
    if col_blocks is None and m.n_cols > 10:
        raise ValueError("refusing to enumerate permutations of more than 10 columns")

    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(rng) for rng in col_ranges)
    ):
        col_order = [j for part in perm_parts for j in part]
        rows = [tuple(row[j] for j in col_order) for row in m.rows]
        arranged: list[tuple[int, ...]] = []
        for rng in row_ranges:
            arranged.extend(sorted(rows[i] for i in rng))
        candidate = tuple(arranged)
        if best is None or candidate < best:
            best = candidate
    return IntMatrix(best)


def equivalent(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a and b differ by independent row and column permutations."""
    if a.shape != b.shape:
        return False
    return canonical_form(a) == canonical_form(b)


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
    r, c = m.n_rows, m.n_cols
    n = r + c
    if n == 0:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(r):
        for j in range(c):
            if m.rows[i][j]:
                adj[i].append(r + j)
                adj[r + j].append(i)
    return len(reachable(adj)) == n


def _smaller_gram(m: IntMatrix) -> IntMatrix:
    if m.n_rows <= m.n_cols:
        return gram(m, "left")
    return gram(m, "right")


def has_forbidden_line(m: IntMatrix) -> bool:
    """Some row or column has entries whose squares sum to at least 4."""
    for row in m.rows:
        if sum(e * e for e in row) >= 4:
            return True
    for col in m.transpose().rows:
        if sum(e * e for e in col) >= 4:
            return True
    return False


def has_forbidden_parallel_pair(m: IntMatrix) -> bool:
    """Some two rows, or two columns, have inner product at least 2."""
    for a, b in itertools.combinations(m.rows, 2):
        if sum(x * y for x, y in zip(a, b)) >= 2:
            return True
    for a, b in itertools.combinations(m.transpose().rows, 2):
        if sum(x * y for x, y in zip(a, b)) >= 2:
            return True
    return False


def gram_spectrum_below_4(m: IntMatrix) -> bool:
    """Exact check that all Gram eigenvalues lie in [0, 4).

    Both Gram matrices share their nonzero eigenvalues and 0 is inside the
    window, so testing the smaller one suffices.
    """
    return spectrum_in_range(_smaller_gram(m), 0, 4)


def classify_under4(m: IntMatrix) -> MatrixClass:
    """Identify the class of a 0-1 matrix with connected support and Gram
    spectrum inside [0, 4).

    Raises NonBinaryEntryError, ReducibleGramError or SpectrumOutOfRangeError
    when the corresponding hypothesis fails; otherwise returns the matching
    MatrixClass (its representative is the reference construction, equal to
    the input up to row and column permutations).

    >>> classify_under4(IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]])).kind
    'staircase'
    """
    check_binary(m)
    if not is_connected_bipartite(m):
        raise ReducibleGramError("bipartite support graph is disconnected")
    if not gram_spectrum_below_4(m):
        raise SpectrumOutOfRangeError("some Gram eigenvalue is at least 4")
    canon = canonical_form(m)
    for mc in generators_for_shape(m.n_rows, m.n_cols):
        if canonical_form(mc.matrix) == canon:
            return mc
    raise RuntimeError(
        "matrix passes all spectral tests but matches no known class; "
        "this contradicts the classification"
    )


# --- exhaustive search ----------------------------------------------------------


def _candidate_rows(n_cols: int, max_entry: int, prefilter: bool):
    if prefilter:
        # nonzero rows whose squared entries sum to < 4
        rows = []
        for row in itertools.product(range(max_entry + 1), repeat=n_cols):
            s = sum(e * e for e in row)
            if 0 < s < 4:
                rows.append(row)
        return rows
    return list(itertools.product(range(max_entry + 1), repeat=n_cols))


def brute_force_under4(
    n_rows: int, n_cols: int, max_entry: int = 2, prefilter: bool = True
) -> list[IntMatrix]:
    """All equivalence classes of matrices of the exact given shape, entries
    in 0..max_entry, connected bipartite support, and Gram spectrum in
    [0, 4); returned as sorted canonical forms.

    Only 0-1 matrices can survive (an entry >= 2 puts a diagonal Gram entry
    at >= 4), so allowing max_entry = 2 is a built-in check that restricting
    to 0-1 matrices loses nothing.

    With prefilter=True the search walks rows in non-decreasing order (row
    order is free), keeps only rows with squared sum < 4, prunes on pairwise
    row inner products >= 2, and finishes with the column conditions before
    the exact spectral test.  These filters reject only matrices whose top
    Gram eigenvalue is provably >= 4, so both settings return the same
    classes; prefilter=False checks every matrix the slow way.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape entries must be positive")
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    found: set[tuple] = set()
    out: list[IntMatrix] = []

    def consider(m: IntMatrix):
        if not is_connected_bipartite(m):
            return
        if not gram_spectrum_below_4(m):
            return
        canon = canonical_form(m)
        if canon.rows not in found:
            found.add(canon.rows)
            out.append(canon)

    if not prefilter:
        for flat in itertools.product(
            range(max_entry + 1), repeat=n_rows * n_cols
        ):
            m = IntMatrix.from_rows(
                [flat[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
            )
            consider(m)
        out.sort(key=lambda m: m.rows)
        return out

    rows = _candidate_rows(n_cols, max_entry, prefilter=True)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    chosen: list[tuple[int, ...]] = []

    def extend(start: int):
        if len(chosen) == n_rows:
            m = IntMatrix(tuple(chosen))
            # column conditions were not enforced during the walk
            if has_forbidden_line(m) or has_forbidden_parallel_pair(m):
                return
            consider(m)
            return
        for idx in range(start, len(rows)):
            row = rows[idx]
            if all(dot(row, prev) < 2 for prev in chosen):
                chosen.append(row)
                # rows in non-decreasing index order; equal rows would have
                # inner product >= 2 unless a single shared 1, so duplicates
                # are allowed to repeat only via the same index
                extend(idx)
                chosen.pop()

    extend(0)
    out.sort(key=lambda m: m.rows)
    return out
