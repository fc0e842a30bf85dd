"""Pinned answers for every task.  None of them depends on the seed.

Provenance: class lists, cell tables and candidate sets were cross-checked,
when pinned, against the independent references in tests/frozen.py and
against the family generators of each shape; the rest are closed-form
facts (totients, Coxeter numbers, dihedral bases).  Digests are the first
16 hex digits of sha256 over compact sorted-key JSON (workloads.digest).
"""

import math

# under4: (rows, cols) -> (class count, digest of the oracle's sorted class
# list, kind of each class in that order: s staircase, e extended staircase,
# x exceptional).
UNDER4 = {
    (1, 1): (1, "ae973b0501aa8047", "s"),
    (1, 2): (1, "370708fd08c3106d", "s"),
    (1, 3): (1, "68f165b163838f15", "e"),
    (1, 4): (0, "4f53cda18c2baa0c", ""),
    (1, 5): (0, "4f53cda18c2baa0c", ""),
    (2, 1): (1, "64a2d9cc61dabbb9", "s"),
    (2, 2): (1, "fad2ef1225414e09", "s"),
    (2, 3): (2, "c21c55e9f33df872", "es"),
    (2, 4): (1, "bbc1f59e6e051c9c", "e"),
    (2, 5): (0, "4f53cda18c2baa0c", ""),
    (3, 1): (1, "b346cd876b42f214", "e"),
    (3, 2): (2, "410510d4202551e0", "es"),
    (3, 3): (3, "ac1b8575b02905df", "xxs"),
    (3, 4): (3, "fc8d0d0a54e81d71", "exs"),
    (3, 5): (1, "09c6881eab02b7cc", "e"),
    (4, 1): (0, "4f53cda18c2baa0c", ""),
    (4, 2): (1, "1d01e02414946d3a", "e"),
    (4, 3): (3, "d443cd8ca89ceb4a", "exs"),
    (4, 4): (3, "2a644ae79edb243f", "xxs"),
    (4, 5): (2, "c39d7b1f68a8c934", "es"),
}
KIND_CODES = {"s": "staircase", "e": "extended_staircase", "x": "exceptional"}

# roots: the factors fbar_i whose roots are localised, the pairs (i, i + 1)
# whose maximal roots are compared, the bracket width, and the shared top
# eigenvalues with their tolerances.
ROOT_FACTORS = range(3, 31)
ROOT_COMPARISONS = range(3, 30)
BRACKET_WIDTH = 1e-8
SHARED_TOP = {
    "H3": (2.0 + math.sqrt((5.0 + math.sqrt(5.0)) / 2.0), 1e-9),
    "H4": (3.98904, 1e-4),
}

# assembly: system -> (number of candidates with total size <= MAX_TOTAL,
# digest of the sorted [sizes, conjugation-canonical rows] pairs).
MAX_TOTAL = 16
ASSEMBLIES = {
    "B3": (2, "71aed605a3149815"),
    "B4": (2, "69df8967f9cb401e"),
    "F4": (2, "602718c2aa744f6d"),
    "H3": (1, "c1d642950c96c283"),
    "H4": (1, "fd94d2d226ecb526"),
}

# cells: Coxeter type -> (number of unique-expression elements, digest of
# the boxes as the CLI reports them).  The nine small types are the
# reference tables; A20, D20 and B16 make the table work dominate.
CELL_TABLES = {
    "A3": (9, "11dd3c7d84545813"),
    "B3": (14, "9178d953761402a1"),
    "B4": (26, "5fa2690ff648daee"),
    "D4": (16, "79d4e666c9303b55"),
    "F4": (24, "7fc5171722e731ed"),
    "H3": (18, "bf0e1b5053fdef69"),
    "H4": (32, "ea7efb7772cde601"),
    "I2_5": (8, "bf909a8d78b136d7"),
    "I2_6": (10, "33981db9f0646585"),
    "A20": (400, "5f8e4b2a6fe97a60"),
    "D20": (400, "afeaa308c3b4373b"),
    "B16": (482, "5be0db420f3cf761"),
}

# cells: the dihedral levels whose candidates, modules and algebras are run.
LEVELS = range(3, 15)

# cells: the reference assembled matrices and the simply laced type of
# their double quivers.
_H3 = [[2, 0, 1, 0, 0, 0], [0, 2, 1, 1, 0, 0], [1, 1, 2, 0, 1, 0],
       [0, 1, 0, 2, 0, 1], [0, 0, 1, 0, 2, 0], [0, 0, 0, 1, 0, 2]]
_H4 = [[2, 0, 1, 0, 0, 0, 0, 0], [0, 2, 1, 1, 0, 0, 0, 0],
       [1, 1, 2, 0, 1, 0, 0, 0], [0, 1, 0, 2, 0, 1, 0, 0],
       [0, 0, 1, 0, 2, 0, 1, 0], [0, 0, 0, 1, 0, 2, 0, 1],
       [0, 0, 0, 0, 1, 0, 2, 0], [0, 0, 0, 0, 0, 1, 0, 2]]
_F4_1 = [[2, 0, 1, 0, 0, 0], [0, 2, 0, 1, 0, 0], [1, 0, 2, 0, 1, 0],
         [0, 1, 0, 2, 1, 0], [0, 0, 1, 1, 2, 1], [0, 0, 0, 0, 1, 2]]
_F4_2 = [[2, 1, 0, 0, 0, 0], [1, 2, 1, 1, 0, 0], [0, 1, 2, 0, 1, 0],
         [0, 1, 0, 2, 0, 1], [0, 0, 1, 0, 2, 0], [0, 0, 0, 1, 0, 2]]
_B3_1 = [[2, 0, 1, 0], [0, 2, 1, 0], [1, 1, 2, 1], [0, 0, 1, 2]]
_B3_2 = [[2, 1, 1, 0, 0], [1, 2, 0, 1, 0], [1, 0, 2, 0, 1],
         [0, 1, 0, 2, 0], [0, 0, 1, 0, 2]]
_B4_1 = [[2, 0, 1, 0, 0], [0, 2, 1, 0, 0], [1, 1, 2, 1, 0],
         [0, 0, 1, 2, 1], [0, 0, 0, 1, 2]]
_B4_2 = [[2, 1, 1, 0, 0, 0, 0], [1, 2, 0, 1, 0, 0, 0], [1, 0, 2, 0, 1, 0, 0],
         [0, 1, 0, 2, 0, 1, 0], [0, 0, 1, 0, 2, 0, 1], [0, 0, 0, 1, 0, 2, 0],
         [0, 0, 0, 0, 1, 0, 2]]
QUIVER_REFERENCES = [
    (_H3, "D6"), (_H4, "E8"), (_F4_1, "E6"), (_F4_2, "E6"),
    (_B3_1, "D4"), (_B3_2, "A5"), (_B4_1, "D5"), (_B4_2, "A7"),
]


def candidate_count(n: int) -> int:
    """Number of candidate matrices at dihedral level n (3 <= n <= 30)."""
    if n % 2 == 1:
        return 1
    if n == 4:
        return 2
    return 6 if n in (12, 18, 30) else 4


def level_labels(n: int) -> list[str]:
    """Basis of the level-n algebra: e and the alternating words of lengths
    1 to n - 1, two per length."""
    words = [
        "".join(str(first if k % 2 == 0 else 3 - first) for k in range(length))
        for length in range(1, n) for first in (1, 2)
    ]
    return ["e"] + words


def coxeter_number(dynkin: str) -> int:
    """Coxeter number of a simply laced Dynkin type such as A5, D6 or E8.
    A level-n candidate's double quiver must have Coxeter number n."""
    family, rank = dynkin[0], int(dynkin[1:])
    if family == "A":
        return rank + 1
    if family == "D":
        return 2 * rank - 2
    return {6: 12, 7: 18, 8: 30}[rank]


def corrupt(workload: str) -> None:
    """Falsify one expectation of the workload, for the self-check that
    shows a wrong expectation is reported as a failed task."""
    if workload == "under4":
        count, dig, kinds = UNDER4[(3, 3)]
        UNDER4[(3, 3)] = (count, dig, kinds[::-1])
    elif workload == "roots":
        value, tol = SHARED_TOP["H3"]
        SHARED_TOP["H3"] = (value + 10 * tol, tol)
    elif workload == "assembly":
        count, dig = ASSEMBLIES["H3"]
        ASSEMBLIES["H3"] = (count, "0" * 16)
    elif workload == "cells":
        size, dig = CELL_TABLES["A3"]
        CELL_TABLES["A3"] = (size + 1, dig)
    else:
        raise ValueError(f"unknown workload {workload!r}")
