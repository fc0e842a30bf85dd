"""Finite Coxeter systems and the combinatorics of unique reduced expressions.

Words are tuples of 1-based generator indices.  Reducedness and braid orbits
rest on the classical rewriting theorem: two reduced expressions of the same
element are connected by braid moves alone, and a word is reduced if and only
if no word in its braid-move orbit contains an adjacent repeated letter.

The set J of elements admitting exactly one reduced expression is enumerated
by extending words on the right; this is complete because every prefix of a
unique-reduced-expression element again has a unique reduced expression, and
each step is decided by a one-step rule that the rewriting theorem implies
(see enumerate_J), without building braid orbits: a word grows only by the
diagram neighbours of its last letter.  Left and right cells of J
are read off the last and first letters, and the cell table collects the
intersections into boxes.
"""

from __future__ import annotations

from ._value import Value

Word = tuple[int, ...]


class CoxeterSystem(Value):
    """A finite-rank Coxeter system given by its symmetric Coxeter matrix.

    Generators are numbered 1..rank.  coxeter_matrix[i][j] (0-based storage)
    holds m(i+1, j+1), with 2 on commuting pairs and 1 on the diagonal.

    >>> CoxeterSystem.from_name("A3").m(1, 2)
    3
    >>> CoxeterSystem.from_name("I2_7").m(1, 2)
    7
    """

    name: str
    rank: int
    coxeter_matrix: tuple[tuple[int, ...], ...]

    def m(self, i: int, j: int) -> int:
        """Order of s_i s_j, generators numbered from 1."""
        return self.coxeter_matrix[i - 1][j - 1]

    @property
    def generators(self) -> range:
        return range(1, self.rank + 1)

    @staticmethod
    def _from_edges(name: str, rank: int, edges: dict[tuple[int, int], int]) -> "CoxeterSystem":
        mat = [[2] * rank for _ in range(rank)]
        for i in range(rank):
            mat[i][i] = 1
        for (i, j), m in edges.items():
            mat[i - 1][j - 1] = m
            mat[j - 1][i - 1] = m
        return CoxeterSystem(name, rank, tuple(tuple(row) for row in mat))

    @staticmethod
    def dihedral(m: int) -> "CoxeterSystem":
        """Rank 2 with m(1,2) = m, refused as from_name refuses I2_m."""
        return CoxeterSystem.from_name(f"I2_{m}")

    @staticmethod
    def from_name(token: str) -> "CoxeterSystem":
        """Parse names like A3, B4 (also C4), D5, E6, F4, H3, G2 and I2_7 (also
        I2(7)); G2 is I2_6.  Each non-dihedral type is the path 1 - 2 - ... - n
        of order-3 bonds with at most one change for its family; E has
        Bourbaki labels.

        >>> CoxeterSystem.from_name("E6").m(2, 4)
        3
        """
        t = token.strip().upper().replace("(", "_").rstrip(")")
        if t == "G2":
            t = "I2_6"
        family, digits = ("I2", t[3:]) if t.startswith("I2_") else (t[:1], t[1:])
        if not digits.isdecimal():
            raise ValueError(f"cannot parse Coxeter type {token!r}")
        # checked on the digit string, so int() never meets a huge one
        digits = digits.lstrip("0") or "0"
        kind, most = ("order", 2000) if family == "I2" else ("rank", 128)
        if len(digits) > len(str(most)) or int(digits) > most:
            raise ValueError(
                f"oversized Coxeter type {token!r}: {kind} at most {most}"
            )
        n = int(digits)
        family = "B" if family == "C" else family
        least = {"A": 1, "B": 2, "D": 4, "I2": 3}
        if family in least:
            if n < least[family]:
                raise ValueError(
                    f"Coxeter type {token!r}: {kind} must be at least {least[family]}"
                )
        elif f"{family}{n}" not in ("E6", "E7", "E8", "F4", "H3", "H4"):
            raise ValueError(f"unsupported Coxeter type {token!r}")
        if family == "I2":
            return CoxeterSystem._from_edges(f"I2_{n}", 2, {(1, 2): n})
        edges = {(i, i + 1): 3 for i in range(1, n)}
        if family == "B":
            edges[(1, 2)] = 4
        elif family == "H":
            edges[(1, 2)] = 5
        elif family == "F":
            edges[(2, 3)] = 4
        elif family == "D":
            del edges[(n - 1, n)]
            edges[(2, n)] = 3
        elif family == "E":
            del edges[(1, 2)], edges[(2, 3)]
            edges[(1, 3)] = edges[(2, 4)] = 3
        return CoxeterSystem._from_edges(f"{family}{n}", n, edges)


def braid_neighbors(system: CoxeterSystem, word: Word):
    """Words reachable from word by one braid move (commutations included).

    A braid move rewrites a contiguous segment a b a b ... of length m(a, b)
    as b a b a ... of the same length.  Every such segment is determined by
    its start position and its first two letters, so one window per start
    position suffices.
    """
    n = len(word)
    for start in range(n - 1):
        a, b = word[start], word[start + 1]
        if a == b:
            continue
        m = system.m(a, b)
        if start + m > n:
            continue
        if all(word[start + k] == (a if k % 2 == 0 else b) for k in range(m)):
            flipped = tuple((b if k % 2 == 0 else a) for k in range(m))
            yield word[:start] + flipped + word[start + m :]


def tits_orbit(system: CoxeterSystem, word: Word, limit: int | None = None) -> set[Word]:
    """The braid-move orbit of a word.  If limit is given, stop (and return the
    partial orbit) once it exceeds limit elements; callers use this to early
    out when only orbit size 1 matters."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for w2 in braid_neighbors(system, w):
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = nxt
    return seen


def is_reduced(system: CoxeterSystem, word: Word) -> bool:
    """True when the word is a reduced expression.

    A word is non-reduced exactly when some member of its braid orbit has two
    equal adjacent letters.

    >>> w = CoxeterSystem.from_name("A2")
    >>> is_reduced(w, (1, 2, 1))
    True
    >>> is_reduced(w, (2, 1, 1))
    False
    """
    word = tuple(word)
    for g in word:
        if not 1 <= g <= system.rank:
            raise ValueError(f"letter {g} outside 1..{system.rank}")
    for w in tits_orbit(system, word):
        if any(a == b for a, b in zip(w, w[1:])):
            return False
    return True


def has_unique_reduced_expression(system: CoxeterSystem, word: Word) -> bool:
    """True when the reduced word is the only reduced expression of its element.

    Raises ValueError on a non-reduced input, since the question is about the
    group element presented by a reduced word.
    """
    word = tuple(word)
    if not is_reduced(system, word):
        raise ValueError("word is not reduced")
    orbit = tits_orbit(system, word, limit=1)
    return len(orbit) == 1


def enumerate_J(system: CoxeterSystem, max_length: int | None = None) -> list[Word]:
    """All elements with a unique reduced expression, as their single reduced
    words, sorted by (length, lexicographic order).

    Breadth-first on the right: the empty word is excluded (following the
    convention that J consists of non-identity elements), and a word of J
    ending in s grows by a letter g only along an edge of the Coxeter graph.
    Prefixes of unique-expression words again have unique expressions, so the
    search tree contains all of J.  For finite types the search terminates on
    its own; max_length adds an explicit cap (needed for infinite types).

    The rule, for a word w of J ending in s: a braid move on w + (g,) that
    stayed inside w would give w a second reduced expression, so every braid
    move must use the new letter, and its segment alternates s and g.  Such a
    move exists exactly when the alternating s, g suffix ending in g has
    length at least m(s, g).  Without one, the braid orbit of w + (g,) is the
    word alone; for g != s that word has no repeated adjacent letter, so by
    the word theorem it is reduced and is its element's only reduced
    expression.  Hence w + (g,) lies in J exactly when g != s and that suffix
    is shorter than m(s, g).  The suffix has length at least 2, so g must be
    a neighbour of s (m(s, g) >= 3).  Each word carries run, the length of
    its alternating suffix in its last two letters; the s, g suffix of
    w + (g,) has length run + 1 when g is the letter before s, and 2
    otherwise.
    """
    if max_length is not None and max_length <= 0:
        return []
    neighbours = {
        s: [(g, system.m(s, g)) for g in system.generators if system.m(s, g) >= 3]
        for s in system.generators
    }
    frontier = [((g,), 1) for g in system.generators]
    out = [w for w, _ in frontier]
    while frontier and (max_length is None or len(frontier[0][0]) < max_length):
        # frontier is sorted, so nxt comes out sorted too
        nxt = []
        for w, run in frontier:
            before = w[-2] if run > 1 else 0  # 0 names no generator
            for g, m in neighbours[w[-1]]:
                length = run + 1 if g == before else 2
                if length < m:
                    nxt.append((w + (g,), length))
        out.extend(w for w, _ in nxt)
        frontier = nxt
    return out


class CellTable(Value):
    """J organized into right cells (rows, by first letter) and left cells
    (columns, by last letter).  boxes[i][j] lists the words with first letter
    i+1 and last letter j+1, sorted by (length, word)."""

    system: CoxeterSystem
    elements: tuple[Word, ...]
    boxes: tuple[tuple[tuple[Word, ...], ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def row(self, i: int) -> tuple[Word, ...]:
        """The right cell of generator i (1-based): all words starting with i."""
        return tuple(w for box in self.boxes[i - 1] for w in box)

    def column(self, j: int) -> tuple[Word, ...]:
        """The left cell of generator j (1-based): all words ending with j."""
        return tuple(w for boxes_row in self.boxes for w in boxes_row[j - 1])

    def box(self, i: int, j: int) -> tuple[Word, ...]:
        return self.boxes[i - 1][j - 1]


def cell_table(system: CoxeterSystem, max_length: int | None = None) -> CellTable:
    """Compute J and arrange it into the first-letter x last-letter table.

    >>> t = cell_table(CoxeterSystem.from_name("A2"))
    >>> t.size
    4
    >>> t.box(1, 2)
    ((1, 2),)
    """
    elements = enumerate_J(system, max_length=max_length)
    r = system.rank
    grid = [[[] for _ in range(r)] for _ in range(r)]
    for w in elements:  # already sorted by (length, word)
        grid[w[0] - 1][w[-1] - 1].append(w)
    boxes = tuple(tuple(tuple(cell) for cell in row) for row in grid)
    return CellTable(system, tuple(elements), boxes)
