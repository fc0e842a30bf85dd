"""Independent reference computations for the test suite.

These deliberately avoid the package's own algorithms: the group-theoretic
word counts walk a concrete matrix or permutation realization of each group,
the characteristic polynomial comes from permutation expansion of the
determinant, and the equivalence test for 0-1 matrices tries every row and
column permutation.  The enumerate-then-filter references keep the slow paths
that direct constructions replaced: J by the braid-orbit filter, edge blocks
by every raw wiring deduplicated over all column orders, and cells by Tarjan's
strongly connected components.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from cellspec.coxeter import is_reduced, tits_orbit
from cellspec.fibpoly import IntPolynomial
from cellspec.higher_rank import QuadraticElement


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
    between the first two generators, over the field extended by sqrt(5)."""
    half = Fraction(1, 2)
    phi_half = QuadraticElement(Fraction(1, 4), Fraction(1, 4))
    zero = QuadraticElement.of(0)
    one = QuadraticElement.of(1)
    b = [
        [one, -phi_half, zero],
        [-phi_half, one, QuadraticElement.of(-half)],
        [zero, QuadraticElement.of(-half), one],
    ]
    mats = []
    for i in range(3):
        rows = []
        for j in range(3):
            row = []
            for k in range(3):
                v = one if j == k else zero
                if j == i:
                    v = v - (b[i][k] + b[i][k])
                row.append(v)
            rows.append(tuple(row))
        mats.append(tuple(rows))
    identity = tuple(
        tuple(one if i == j else zero for j in range(3)) for i in range(3)
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


def max_root_bracket_by_bisection(p: IntPolynomial, width: Fraction):
    """Reference for fibpoly.max_root_bracket on a squarefree p.

    Bisects (-B, B], with the Cauchy bound B = 1 + max|c_i| / |c_d|, keeping
    the upper half whenever it holds a root, until the bracket is at most
    width wide.  Root counts come from the classical Sturm sequence of p
    with Fraction coefficients (negated remainders, no rescaling), evaluated
    in Fraction at both ends of the upper half at every step."""
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
    disjoint rows and columns."""
    wirings = []
    if order == 3:
        for perm in permutations(range(n_cols)):
            wirings.append({(i, perm[i]) for i in range(n_rows)})
    elif order == 5:
        for row_pairs in _pairings(tuple(range(n_rows))):
            for col_pairs in _pairings(tuple(range(n_cols))):
                for assignment in permutations(range(len(col_pairs))):
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
        p = (2 * n_rows - n_cols) // 3
        q = (2 * n_cols - n_rows) // 3
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


def min_under_col_perms(rows):
    """The class key of a block modulo column permutations: its least
    arrangement over every column order."""
    return min(
        tuple(tuple(row[j] for j in perm) for row in rows)
        for perm in permutations(range(len(rows[0])))
    )


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
