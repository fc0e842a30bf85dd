"""Independent reference computations for the test suite.

These deliberately avoid the package's own algorithms: the group-theoretic
word counts walk a concrete matrix or permutation realization of each group,
the characteristic polynomial comes from permutation expansion of the
determinant, and the equivalence test for 0-1 matrices tries every row and
column permutation; the class matcher that the Dynkin lookup replaced
compares least arrangements over every column order.  The
enumerate-then-filter references keep the slow paths that direct
constructions replaced: J by the braid-orbit filter, the higher-rank
assembly search by every product of raw edge wirings on every size vector,
the conjugation canonical form of its candidates by every product of
within-slot permutations, and cells by Tarjan's strongly connected
components.  The
law check of based algebras and modules is redone pair by pair in Python
ints, and the dihedral structure constants by the dense word ladder that
the product rule replaced.  The polynomial
families f and g run their recurrences in polynomial products and
differences instead of shifted coefficient lists, and a Sturm chain is built
from the squarefree part, by a gcd, rather than from one remainder sequence.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from cellspec.coxeter import is_reduced, tits_orbit
from cellspec.dihedral import annihilation_test
from cellspec.fibpoly import IntPolynomial, _primitive_rem, squarefree_part
from cellspec.intmat import IntMatrix, is_irreducible_nonneg, slot_ranges
from cellspec.staircase import generators_for_shape


def totient(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        a, b = n, k
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k_range = range(len(b))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in k_range) for j in range(m))
        for i in range(n)
    )


def cayley_unique_word_elements(identity, gens, mul):
    """BFS over a finite group: distance from the identity is the length
    function for the generating set, and the number of geodesic words per
    element counts its reduced expressions.  Returns (dist, ways, unique)
    where unique is the set of non-identity elements with exactly one
    reduced expression."""
    dist = {identity: 0}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = dist[g] + 1
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    ways = {identity: 1}
    for h in order[1:]:
        total = 0
        for s in gens:
            g = mul(h, s)
            if dist[g] == dist[h] - 1:
                total += ways[g]
        ways[h] = total
    unique = {h for h in order[1:] if ways[h] == 1}
    return dist, ways, unique


def element_order(g, identity, mul):
    n = 1
    h = g
    while h != identity:
        h = mul(h, g)
        n += 1
        if n > 1000:
            raise RuntimeError("runaway order computation")
    return n


def perm_gens_a(n_coords: int):
    """Adjacent transpositions acting on 0..n_coords-1, as mapping tuples."""
    gens = []
    for i in range(n_coords - 1):
        p = list(range(n_coords))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    identity = tuple(range(n_coords))

    def mul(g, s):
        return tuple(g[s[i]] for i in range(n_coords))

    return identity, gens, mul


def signed_perm_gens_b(n_coords: int):
    """Generators of the hyperoctahedral group with the 4-bond between the
    sign flip and the first swap: g1 negates coordinate 1, g2..gn are the
    adjacent swaps."""
    def diag(entries):
        return tuple(
            tuple(entries[i] if i == j else 0 for j in range(n_coords))
            for i in range(n_coords)
        )

    def swap(i):
        rows = []
        for r in range(n_coords):
            row = [0] * n_coords
            if r == i:
                row[i + 1] = 1
            elif r == i + 1:
                row[i] = 1
            else:
                row[r] = 1
            rows.append(tuple(row))
        return tuple(rows)

    gens = [diag([-1] + [1] * (n_coords - 1))]
    gens += [swap(i) for i in range(n_coords - 1)]
    identity = diag([1] * n_coords)
    return identity, gens, mat_mul


def signed_perm_gens_d4():
    """Generators for the order-192 group with the branch vertex labeled 2:
    g1, g2, g3 are adjacent swaps of four coordinates and g4 is the signed
    swap of the first two, which commutes with g1 and g3 and braids with
    g2."""
    def swap(i):
        rows = []
        for r in range(4):
            row = [0] * 4
            if r == i:
                row[i + 1] = 1
            elif r == i + 1:
                row[i] = 1
            else:
                row[r] = 1
            rows.append(tuple(row))
        return tuple(rows)

    neg_swap = (
        (0, -1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    identity = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    gens = [swap(0), swap(1), swap(2), neg_swap]
    return identity, gens, mat_mul


def dihedral_gens(m: int):
    """The dihedral group of order 2m as affine maps x -> b*x + a mod m,
    encoded (b, a) with b in {1, m-1}.  The two generators are the
    reflections x -> -x and x -> 1 - x."""
    identity = (1, 0)
    gens = [(m - 1, 0), (m - 1, 1 % m)]

    def mul(g, s):
        b1, a1 = g
        b2, a2 = s
        return ((b1 * b2) % m, (b1 * a2 + a1) % m)

    return identity, gens, mul


def reflection_gens_h3():
    """The geometric realization of the order-120 group with a 5-bond
    between the first two generators.  Twice its bilinear form has entries
    2, -2cos(pi/5) = -phi and -2cos(pi/3) = -1, so every generator has
    entries a + b*phi in Z[phi]; each is written over the integers as the
    2x2 block [[a, b], [b, a + b]] of multiplication by it on the basis
    (1, phi), giving 6x6 integer matrices."""
    # twice the bilinear form, each entry a + b*phi stored as (a, b)
    two_b = [
        [(2, 0), (0, -1), (0, 0)],
        [(0, -1), (2, 0), (-1, 0)],
        [(0, 0), (-1, 0), (2, 0)],
    ]

    def to_integer_matrix(entries):
        rows = []
        for row in entries:
            rows.append(tuple(v for a, b in row for v in (a, b)))
            rows.append(tuple(v for a, b in row for v in (b, a + b)))
        return tuple(rows)

    # s_i(e_j) = e_j - 2B(e_i, e_j) e_i changes only row i of the identity
    mats = []
    for i in range(3):
        entries = [
            [
                (
                    int(j == k) - (two_b[i][k][0] if j == i else 0),
                    -two_b[i][k][1] if j == i else 0,
                )
                for k in range(3)
            ]
            for j in range(3)
        ]
        mats.append(to_integer_matrix(entries))
    identity = to_integer_matrix(
        [[(int(j == k), 0) for k in range(3)] for j in range(3)]
    )
    return identity, mats, mat_mul


def charpoly_by_permutation_expansion(rows) -> IntPolynomial:
    """det(xI - M) via the Leibniz formula over polynomial entries."""
    n = len(rows)
    x = IntPolynomial.x()
    entries = [
        [
            (x if i == j else IntPolynomial.zero())
            - IntPolynomial((rows[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = IntPolynomial.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = IntPolynomial.one()
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (sign * IntPolynomial.one()) * term
    return total


def equivalent_by_all_permutations(a, b) -> bool:
    """Row-and-column permutation equivalence, checked exhaustively."""
    if (a.n_rows, a.n_cols) != (b.n_rows, b.n_cols):
        return False
    target = set()
    for rp in permutations(range(b.n_rows)):
        rows = [b.rows[i] for i in rp]
        for cp in permutations(range(b.n_cols)):
            target.add(tuple(tuple(row[j] for j in cp) for row in rows))
    return a.rows in target


def _canonical_rows(rows):
    """The least arrangement of a matrix under row and column permutations:
    over every column order, the rows sorted."""
    return min(
        tuple(sorted(tuple(row[j] for j in perm) for row in rows))
        for perm in permutations(range(len(rows[0])))
    )


def classify_by_canonical_form(m):
    """The class of an in-range 0-1 matrix by canonical-form matching: the
    representative of its shape with the same least arrangement, or None."""
    key = _canonical_rows(m.rows)
    for mc in generators_for_shape(m.n_rows, m.n_cols):
        if _canonical_rows(mc.matrix.rows) == key:
            return mc
    return None


def fib_f_by_products(n: int) -> list[IntPolynomial]:
    """f_0..f_n of f_k = x f_(k-1) - f_(k-2) (k even), f_(k-1) - f_(k-2)
    (k odd), in IntPolynomial products and differences."""
    x = IntPolynomial.x()
    terms = [IntPolynomial.zero(), IntPolynomial.one()]
    for k in range(2, n + 1):
        terms.append((x if k % 2 == 0 else 1) * terms[-1] - terms[-2])
    return terms[: n + 1]


def fib_g_by_products(n: int) -> list[IntPolynomial]:
    """g_0..g_n of g_k = x g_(k-1) + g_(k-2), in IntPolynomial products and
    sums."""
    x = IntPolynomial.x()
    terms = [IntPolynomial.zero(), IntPolynomial.one()]
    for _ in range(2, n + 1):
        terms.append(x * terms[-1] + terms[-2])
    return terms[: n + 1]


def sturm_chain_by_squarefree_part(p: IntPolynomial) -> list[IntPolynomial]:
    """Reference for fibpoly.sturm_chain: the squarefree part p / gcd(p, p')
    first, then its own remainder sequence of negated primitive
    pseudo-remainders."""
    p0 = squarefree_part(p)
    chain = [p0]
    if p0.degree >= 1:
        chain.append(p0.derivative().primitive_part())
        while chain[-1].degree >= 1:
            rem = _primitive_rem(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(-rem)
    return chain


def max_root_bracket_by_bisection(p: IntPolynomial, width: Fraction):
    """Reference for fibpoly.max_root_bracket.

    Bisects (-B, B], with the Cauchy bound B = 1 + max|c_i| / |c_d|, keeping
    the upper half whenever it holds a root, until the bracket is at most
    width wide.  Root counts come from the classical Sturm sequence of p
    with Fraction coefficients (negated remainders, no rescaling), evaluated
    in Fraction at both ends of the upper half at every step.  When p has
    repeated roots the sequence ends at gcd(p, p'), which vanishes there
    with every member; each member is then divided by it, the textbook
    sequence of the squarefree part, so a midpoint on a repeated root is
    counted right."""
    seq = [
        [Fraction(c) for c in p.coeffs],
        [Fraction(i * c) for i, c in enumerate(p.coeffs) if i],
    ]
    while len(seq[-1]) > 1:
        rem = list(seq[-2])
        divisor = seq[-1]
        while len(rem) >= len(divisor):
            factor = rem[-1] / divisor[-1]
            shift = len(rem) - len(divisor)
            for j, c in enumerate(divisor):
                rem[j + shift] -= factor * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        seq.append([-c for c in rem])
    if len(seq[-1]) > 1:
        seq = [_fraction_quotient(poly, seq[-1]) for poly in seq]

    def variations(x):
        signs = []
        for poly in seq:
            value = Fraction(0)
            for c in reversed(poly):
                value = value * x + c
            if value:
                signs.append(value > 0)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    bound = 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.coeffs[-1]))
    a, b = -bound, bound
    while b - a > width:
        mid = (a + b) / 2
        if variations(mid) - variations(b) >= 1:
            a = mid
        else:
            b = mid
    return a, b


def _fraction_quotient(num, den):
    """The quotient num / den of ascending Fraction coefficient lists, for a
    den that divides num exactly."""
    num, quotient = list(num), [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = num[k + len(den) - 1] / den[-1]
        for j, c in enumerate(den):
            num[j + k] -= quotient[k] * c
    assert not any(num), "inexact division"
    return quotient


def enumerate_J_by_orbit_filter(system, max_length):
    """Reference for coxeter.enumerate_J: extend every word of J by every
    letter and keep the extensions that are reduced with a singleton braid
    orbit, level by level up to max_length."""
    out = []
    frontier = [()]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for g in system.generators:
                cand = w + (g,)
                if is_reduced(system, cand) and len(
                    tits_orbit(system, cand, limit=1)
                ) == 1:
                    nxt.append(cand)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def _pairings(items):
    if not items:
        yield ()
        return
    for idx in range(1, len(items)):
        rest = items[1:idx] + items[idx + 1 :]
        for tail in _pairings(rest):
            yield ((items[0], items[idx]),) + tail


def edge_wirings(order: int, n_rows: int, n_cols: int):
    """Every raw wiring of one edge of the given bond order, as row tuples:
    each way to place the atoms of the order (a permutation block for 3,
    [[1], [1]] and [[1, 1]] for 4, 2x2 blocks with one zero for 5) on
    disjoint rows and columns, covering every row.  Any sizes are accepted:
    for orders 3 and 5 a wiring may leave columns empty (annihilation_test
    refuses it), and order 4 fills the columns or gives no wiring."""
    wirings = []
    if order == 3:
        for perm in permutations(range(n_cols), n_rows):
            wirings.append({(i, perm[i]) for i in range(n_rows)})
    elif order == 5:
        for row_pairs in _pairings(tuple(range(n_rows))):
            for col_pairs in _pairings(tuple(range(n_cols))):
                for assignment in permutations(range(len(col_pairs)), len(row_pairs)):
                    matched = [
                        (row_pairs[t], col_pairs[assignment[t]])
                        for t in range(len(row_pairs))
                    ]
                    for zeros in product(range(4), repeat=len(matched)):
                        cells = set()
                        for ((a, b), (c, d)), z in zip(matched, zeros):
                            square = [(a, c), (a, d), (b, c), (b, d)]
                            del square[z]
                            cells.update(square)
                        wirings.append(cells)
    elif order == 4:
        # p row pairs share a column each, q single rows take two each
        for p in range(n_rows // 2 + 1):
            q = n_rows - 2 * p
            if p + 2 * q != n_cols:
                continue
            for paired_rows in combinations(range(n_rows), 2 * p):
                single_rows = [x for x in range(n_rows) if x not in paired_rows]
                for row_pairs in _pairings(paired_rows):
                    for single_cols in combinations(range(n_cols), p):
                        paired_cols = tuple(
                            x for x in range(n_cols) if x not in single_cols
                        )
                        for col_pairs in _pairings(paired_cols):
                            for sigma in permutations(range(p)):
                                for tau in permutations(range(q)):
                                    cells = set()
                                    for t, (a, b) in enumerate(row_pairs):
                                        cells.add((a, single_cols[sigma[t]]))
                                        cells.add((b, single_cols[sigma[t]]))
                                    for t, x in enumerate(single_rows):
                                        c, d = col_pairs[tau[t]]
                                        cells.update({(x, c), (x, d)})
                                    wirings.append(cells)
    else:
        raise ValueError("edges carry orders 3, 4 or 5")
    return [
        tuple(
            tuple(int((i, j) in cells) for j in range(n_cols))
            for i in range(n_rows)
        )
        for cells in wirings
    ]


def edge_wiring(order: int, row_order, col_order):
    """One raw wiring of edge_wirings, as row tuples, with its atoms placed
    along row_order and col_order (permutations of the rows and columns).
    Order 3 sends row row_order[t] to column col_order[t].  Order 4 lets
    the t-th of the p = (2 rows - cols) / 3 leading row pairs of row_order
    share column col_order[t], and gives each later row the next two
    columns.  Order 5 places its t-th 2x2 atom on the t-th pairs of both
    orders, with its zero on the first row and column of those pairs.  Sizes
    must pass the search's size test; every wiring of edge_wirings arises
    this way."""
    n_rows, n_cols = len(row_order), len(col_order)
    cells = set()
    if order == 3:
        cells.update(zip(row_order, col_order))
    elif order == 4:
        p = (2 * n_rows - n_cols) // 3
        for t in range(p):
            cells.update({(row_order[2 * t], col_order[t]), (row_order[2 * t + 1], col_order[t])})
        for t, x in enumerate(row_order[2 * p :]):
            cells.update({(x, col_order[p + 2 * t]), (x, col_order[p + 2 * t + 1])})
    elif order == 5:
        for t in range(n_rows // 2):
            (a, b), (c, d) = row_order[2 * t : 2 * t + 2], col_order[2 * t : 2 * t + 2]
            cells.update({(a, d), (b, c), (b, d)})
    else:
        raise ValueError("edges carry orders 3, 4 or 5")
    return tuple(
        tuple(int((i, j) in cells) for j in range(n_cols)) for i in range(n_rows)
    )


def assembly_search_by_every_wiring(system, max_total):
    """Reference for higher_rank.assembly_search, as sorted (sizes, rows)
    pairs: on every composition of every total up to max_total, every
    product of the raw wirings of the edges (orders 3 to 5) that pass
    annihilation_test, with 2I on the diagonal slots and zero elsewhere; the
    irreducible matrices, deduplicated by
    conjugation_canonical_by_permutations."""
    r = system.rank
    edges = [(i, j, system.m(i + 1, j + 1)) for i in range(r)
             for j in range(i + 1, r) if system.m(i + 1, j + 1) > 2]
    passing, found = {}, set()
    for sizes in product(range(1, max_total + 1), repeat=r):
        if sum(sizes) > max_total:
            continue
        per_edge = []
        for i, j, order in edges:
            key = (order, sizes[i], sizes[j])
            if key not in passing:
                passing[key] = [rows for rows in edge_wirings(*key)
                                if annihilation_test(IntMatrix(rows), order)]
            per_edge.append(passing[key])
        n, starts = sum(sizes), [sum(sizes[:i]) for i in range(r)]
        for blocks in product(*per_edge):
            m = [[2 * (x == y) for y in range(n)] for x in range(n)]
            for (i, j, _), rows in zip(edges, blocks):
                for x, row in enumerate(rows):
                    for y, v in enumerate(row):
                        m[starts[i] + x][starts[j] + y] = v
                        m[starts[j] + y][starts[i] + x] = v
            m = IntMatrix(tuple(map(tuple, m)))
            if is_irreducible_nonneg(m):
                canonical = conjugation_canonical_by_permutations(m, sizes)
                found.add((sizes, canonical.rows))
    return sorted(found)


def conjugation_canonical_by_permutations(m, sizes):
    """The row-major least matrix over simultaneous within-slot permutations
    of rows and columns, trying every product of within-slot permutations."""
    slots = slot_ranges(sizes, m.n_rows)
    best = None
    for parts in product(*(permutations(rng) for rng in slots)):
        order = [j for part in parts for j in part]
        cand = tuple(
            tuple(m.rows[order[i]][order[j]] for j in range(m.n_rows))
            for i in range(m.n_rows)
        )
        if best is None or cand < best:
            best = cand
    return IntMatrix(best)


def cells_by_tarjan(succ):
    """Strongly connected components of the digraph succ (succ[v] lists the
    successors of v) by Tarjan's algorithm, and the reachability order
    between them.  Returns (cells, leq): cells as sorted tuples ordered by
    least member, leq[a][b] true when cell b is reachable from cell a."""
    n = len(succ)
    index, low, on_stack = {}, {}, set()
    stack, components = [], []

    def strongconnect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            components.append(tuple(sorted(component)))

    for v in range(n):
        if v not in index:
            strongconnect(v)
    cells = sorted(components)
    cell_of = {v: a for a, cell in enumerate(cells) for v in cell}
    above = [set() for _ in cells]
    for v in range(n):
        for w in succ[v]:
            above[cell_of[v]].add(cell_of[w])

    def closure(a, seen):
        seen.add(a)
        for b in above[a]:
            if b not in seen:
                closure(b, seen)
        return seen

    leq = tuple(
        tuple(b in closure(a, set()) for b in range(len(cells)))
        for a in range(len(cells))
    )
    return tuple(cells), leq


def law_failure_by_pairs(gamma, acts, labels, what):
    """Reference for the batched law check of based algebras and modules:
    the message "<what> fails at (label_i, label_j)" for the first pair
    (i, j) in row-major order with acts[i] acts[j] differing from
    sum_k gamma[i][j][k] acts[k], or None when every pair holds.  Plain
    Python ints, one pair at a time."""
    n = len(acts)
    d = len(acts[0])
    for i in range(n):
        for j in range(n):
            product_ij = mat_mul(acts[i], acts[j])
            combo = tuple(
                tuple(
                    sum(gamma[i][j][k] * acts[k][r][c] for k in range(n))
                    for c in range(d)
                )
                for r in range(d)
            )
            if product_ij != combo:
                return f"{what} fails at ({labels[i]}, {labels[j]})"
    return None


def left_multiplications(gamma):
    """The matrices L_i[k][j] = gamma[i][j][k] of left multiplication by
    each basis element."""
    n = len(gamma)
    return [
        tuple(tuple(gamma[i][j][k] for j in range(n)) for k in range(n))
        for i in range(n)
    ]


def structure_constants_by_dense_ladder(n: int):
    """Reference for dihedral.structure_constants: the dense left
    multiplication matrices of the two generators on the basis e, 1, 2, 12,
    21, ... (alternating words of lengths 1..n-1), then the ladder
    L(g, length) = L(g, 1) L(3-g, length-1) - L(g, length-2) (nothing
    subtracted at length 2) with full dense int64 products.  Every entry is
    kept below 2^31, so no product can wrap.  Returns (labels, gamma) with
    gamma[i][j][k] = L_i[k][j]."""

    def word(first, length):
        return "".join(str(first if k % 2 == 0 else 3 - first) for k in range(length))

    labels = ["e"] + [word(g, length) for length in range(1, n) for g in (1, 2)]
    size = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}

    def generator_left(g):
        mat = np.zeros((size, size), dtype=np.int64)
        mat[index[word(g, 1)], index["e"]] += 1
        for length in range(1, n):
            same = index[word(g, length)]
            mat[same, same] += 2
            col = index[word(3 - g, length)]
            if length + 1 <= n - 1:
                mat[index[word(g, length + 1)], col] += 1
            if length >= 2:
                mat[index[word(g, length - 1)], col] += 1
        return mat

    left = {"e": np.eye(size, dtype=np.int64)}
    gen = {g: generator_left(g) for g in (1, 2)}
    for g in (1, 2):
        left[word(g, 1)] = gen[g]
    for length in range(2, n):
        for g in (1, 2):
            nxt = gen[g] @ left[word(3 - g, length - 1)]
            if length >= 3:
                nxt = nxt - left[word(g, length - 2)]
            if np.abs(nxt).max() >= 2 ** 31:
                raise OverflowError("ladder entries outgrew the int64 guard")
            left[word(g, length)] = nxt
    gamma = tuple(tuple(map(tuple, left[lab].T.tolist())) for lab in labels)
    return tuple(labels), gamma
