"""Finite Coxeter systems and the combinatorics of unique reduced expressions.

Words are tuples of 1-based generator indices.  Reducedness and braid orbits
rest on the classical rewriting theorem: two reduced expressions of the same
element are connected by braid moves alone, and a word is reduced if and only
if no word in its braid-move orbit contains an adjacent repeated letter.

The set J of elements admitting exactly one reduced expression is enumerated
by extending words on the right; this is complete because every prefix of a
unique-reduced-expression element again has a unique reduced expression, and
each step is decided by a one-step rule that the rewriting theorem implies
(see _extends_J), without building braid orbits.  Left and right cells of J
are read off the last and first letters, and the cell table collects the
intersections into boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]


@dataclass(frozen=True)
class CoxeterSystem:
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
    def type_a(n: int) -> "CoxeterSystem":
        """Path 1 - 2 - ... - n, all bonds of order 3."""
        if n < 1:
            raise ValueError("rank must be at least 1")
        edges = {(i, i + 1): 3 for i in range(1, n)}
        return CoxeterSystem._from_edges(f"A{n}", n, edges)

    @staticmethod
    def type_b(n: int) -> "CoxeterSystem":
        """Path with m(1,2) = 4 and simple bonds afterwards."""
        if n < 2:
            raise ValueError("rank must be at least 2")
        edges = {(1, 2): 4}
        edges.update({(i, i + 1): 3 for i in range(2, n)})
        return CoxeterSystem._from_edges(f"B{n}", n, edges)

    @staticmethod
    def type_d(n: int) -> "CoxeterSystem":
        """Path 1 - 2 - ... - (n-1) with the extra vertex n attached to 2."""
        if n < 4:
            raise ValueError("rank must be at least 4")
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(2, n)] = 3
        return CoxeterSystem._from_edges(f"D{n}", n, edges)

    @staticmethod
    def type_f4() -> "CoxeterSystem":
        return CoxeterSystem._from_edges("F4", 4, {(1, 2): 3, (2, 3): 4, (3, 4): 3})

    @staticmethod
    def type_h3() -> "CoxeterSystem":
        return CoxeterSystem._from_edges("H3", 3, {(1, 2): 5, (2, 3): 3})

    @staticmethod
    def type_h4() -> "CoxeterSystem":
        return CoxeterSystem._from_edges("H4", 4, {(1, 2): 5, (2, 3): 3, (3, 4): 3})

    @staticmethod
    def dihedral(m: int) -> "CoxeterSystem":
        """Rank 2 with m(1,2) = m."""
        if m < 3:
            raise ValueError("dihedral order must be at least 3")
        return CoxeterSystem._from_edges(f"I2_{m}", 2, {(1, 2): m})

    @staticmethod
    def from_name(token: str) -> "CoxeterSystem":
        """Parse names like A3, B4, D5, F4, H3, H4, I2_7 (also I2(7))."""
        t = token.strip().upper().replace("(", "_").rstrip(")")
        if t.startswith("I2_"):
            return CoxeterSystem.dihedral(int(t[3:]))
        family, digits = t[0], t[1:]
        if not digits.isdigit():
            raise ValueError(f"cannot parse Coxeter type {token!r}")
        n = int(digits)
        if family == "A":
            return CoxeterSystem.type_a(n)
        if family == "B" or family == "C":
            return CoxeterSystem.type_b(n)
        if family == "D":
            return CoxeterSystem.type_d(n)
        if family == "F" and n == 4:
            return CoxeterSystem.type_f4()
        if family == "H" and n == 3:
            return CoxeterSystem.type_h3()
        if family == "H" and n == 4:
            return CoxeterSystem.type_h4()
        raise ValueError(f"unsupported Coxeter type {token!r}")


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


def _extends_J(system: CoxeterSystem, word: Word, g: int) -> bool:
    """Whether word + (g,) lies in J, given that word lies in J (or is empty).

    Let s be the last letter of word.  A braid move on word + (g,) that
    stayed inside word would give word a second reduced expression, so every
    braid move must use the new letter, and its segment alternates s and g.
    Such a move exists exactly when the alternating s, g suffix ending in g
    has length at least m(s, g).  Without one, the braid orbit of
    word + (g,) is the word alone; for g != s that word has no repeated
    adjacent letter, so by the word theorem it is reduced and is its
    element's only reduced expression.  Hence word + (g,) lies in J exactly
    when g != s and that suffix is shorter than m(s, g).
    """
    if not word:
        return True
    s = word[-1]
    if g == s:
        return False
    run = 1  # length of the alternating s, g suffix of word, ending in s
    while run < len(word) and word[-run - 1] == (g if run % 2 else s):
        run += 1
    return run + 1 < system.m(s, g)


def enumerate_J(system: CoxeterSystem, max_length: int | None = None) -> list[Word]:
    """All elements with a unique reduced expression, as their single reduced
    words, sorted by (length, lexicographic order).

    Breadth-first on the right: the empty word is excluded (following the
    convention that J consists of non-identity elements), and a word of length
    L+1 is kept when its last letter passes the one-step rule of _extends_J.
    Prefixes of unique-expression words again have unique expressions, so the
    search tree contains all of J.  For finite types the search terminates on
    its own; max_length adds an explicit cap (needed for infinite types).
    """
    out: list[Word] = []
    frontier: list[Word] = [()]
    while frontier and (max_length is None or len(frontier[0]) < max_length):
        # frontier is sorted, so nxt comes out sorted too
        nxt = [
            w + (g,)
            for w in frontier
            for g in system.generators
            if _extends_J(system, w, g)
        ]
        out.extend(nxt)
        frontier = nxt
    return out


@dataclass(frozen=True)
class CellTable:
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
