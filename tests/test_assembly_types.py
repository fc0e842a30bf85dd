"""The higher-rank search against the reference candidates on every finite
type of rank 3 to 8 whose bonds the assembly atoms cover, and the top
eigenvalue of every reference candidate against the Coxeter number.

Each reference candidate minus 2I is the adjacency matrix of a simply laced
Dynkin graph with the Coxeter number h of its type (B_n: A_{2n-1} or
D_{n+1}; F4: E6; H3: D6; H4: E8), whose top eigenvalue is 2cos(pi/h).  So
the candidate's top eigenvalue is 2 + 2cos(pi/h), the largest root of
fbar_{2h}.
"""

import math
from fractions import Fraction

import pytest

from cellspec.coxeter import CoxeterSystem
from cellspec.fibpoly import count_roots_in, fib_irreducible_factor, max_root_bracket
from cellspec.higher_rank import assembly_search, conjugation_canonical, special_modules
from cellspec.intmat import charpoly

COXETER_NUMBER = {
    "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "B3": 6, "B4": 8, "B5": 10, "B6": 12, "B7": 14, "B8": 16,
    "D4": 6, "D5": 8, "D6": 10, "D7": 12, "D8": 14,
    "E6": 12, "E7": 18, "E8": 30,
    "F4": 12, "H3": 10, "H4": 30,
}
# All 23 searches take about 0.08 s together at 60 (B3, the slowest, 14 ms)
# and 0.33 s at 100, on a 2-vCPU Xeon VM with Python 3.11.
MAX_TOTAL = 60


@pytest.mark.parametrize("name", sorted(COXETER_NUMBER))
def test_search_finds_exactly_the_references(name):
    found = assembly_search(CoxeterSystem.from_name(name), max_total=MAX_TOTAL)
    expected = sorted(
        (c.sizes, conjugation_canonical(c.matrix, c.sizes).rows)
        for c in special_modules(name)
    )
    assert [(c.sizes, c.matrix.rows) for c in found] == expected


@pytest.mark.parametrize("name", sorted(COXETER_NUMBER))
def test_top_eigenvalue_is_the_largest_root_of_fbar_2h(name):
    h = COXETER_NUMBER[name]
    factor = fib_irreducible_factor(2 * h)
    lo, hi = max_root_bracket(factor, Fraction(1, 10 ** 9))
    assert lo < 2 + 2 * math.cos(math.pi / h) <= hi
    for cand in special_modules(name):
        p = charpoly(cand.matrix)
        # fbar_2h is irreducible and divides p, so its largest root is a root
        # of p; p has no other root above lo, so that root is p's largest
        assert (p % factor).is_zero()
        assert count_roots_in(p, lo, None) == 1
