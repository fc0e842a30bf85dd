"""Candidate matrices for higher-rank systems, assembled from rank-2 blocks.

A candidate for a Coxeter system with generators 1..r assigns a size n_i to
each generator and a symmetric matrix M of size sum(n_i) with diagonal slot
blocks 2I.  The block between slots i and j must vanish when the generators
commute, and on an edge of order m the block B must satisfy f_m(B B^T) = 0,
exactly as in the rank-2 (dihedral) analysis.  Transitivity forces M to be
irreducible.  Edge blocks are direct sums of atoms (see _edge_block).

assembly_search grows the size vectors of a tree-shaped diagram along its
edges, giving each slot only the sizes the bond to its parent admits, and
places one block on each edge, since within-slot permutations carry every
wiring onto it in a diagram with at most one bond of order 4 or 5; it
builds a matrix only where the blocks' nonzero entries connect every index,
and returns the candidates up to simultaneous within-slot permutation.
Every candidate, searched or stored, comes from the one slot-block builder
intmat._block_matrix (2I on the diagonal slot blocks, one block per edge,
mirrored); the reference candidates are stored as slot sizes plus one block
per bond of the path 1 - 2 - ... - n, or read off the Coxeter graph in the
simply laced types.  For the reflection comparison in H3 and H4, the small matrix over
Z[phi] is written over the integers (each entry a + b*phi as the 2x2 block of
multiplication by it), so both sides go through the one integer
characteristic polynomial and the one Sturm root locator.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .coxeter import CoxeterSystem
from .dihedral import annihilation_test
from .fibpoly import count_roots_in, max_root_bracket
from .intmat import (
    IntMatrix, _block_matrix, charpoly, is_connected, is_irreducible_nonneg, reachable,
    slot_ranges,
)


class AssemblyCandidate(Value):
    """A candidate for a higher-rank system: slot sizes and the symmetric
    matrix, taken up to simultaneous within-slot permutations."""

    system_name: str
    sizes: tuple[int, ...]
    matrix: IntMatrix


def _path_candidate(name: str, sizes, blocks) -> AssemblyCandidate:
    """The candidate with the given slot sizes whose k-th block (from 1)
    joins slots k and k + 1 of the path 1 - 2 - ... - n."""
    bonds = [(k, k + 1, block) for k, block in enumerate(blocks, 1)]
    return AssemblyCandidate(name, tuple(sizes), _block_matrix(sizes, bonds))


def b_family_matrix(n: int, family: int) -> AssemblyCandidate:
    """The two candidate families in type B_n (n >= 3).

    Family 1 has sizes (2, 1, ..., 1), the column [1, 1] on the order-4 bond
    and 1 on the others; family 2 has sizes (1, 2, ..., 2), the row [1, 1]
    on the order-4 bond and I on the others.
    """
    if n < 3:
        raise ValueError(f"candidate families of type 'B{n}': rank must be at least 3")
    if family == 1:
        sizes, first, rest = (2,) + (1,) * (n - 1), ((1,), (1,)), ((1,),)
    elif family == 2:
        sizes, first, rest = (1,) + (2,) * (n - 1), ((1, 1),), ((1, 0), (0, 1))
    else:
        raise ValueError("family must be 1 or 2")
    return _path_candidate(f"B{n}", sizes, [first] + [rest] * (n - 2))


def special_modules(name: str) -> list[AssemblyCandidate]:
    """The reference candidate list for a named system: one candidate for H3
    and for H4, two for F4, and the two families for B_n, each stored as its
    slot sizes and one block per bond of the path 1 - 2 - ... - n; for the
    simply laced A_n, D_n and E_n (n >= 3), the one candidate 2I plus the
    adjacency matrix of the Coxeter graph."""
    token = name.strip().upper()
    one, column, row, eye = ((1,),), ((1,), (1,)), ((1, 1),), ((1, 0), (0, 1))
    five = ((1, 0), (1, 1))  # the order-5 bond
    paths = {
        "H3": [((2, 2, 2), [five, eye])],
        "H4": [((2, 2, 2, 2), [five, eye, eye])],
        "F4": [((2, 2, 1, 1), [eye, column, one]), ((1, 1, 2, 2), [one, row, eye])],
    }
    if token in paths:
        return [_path_candidate(token, *path) for path in paths[token]]
    if token.startswith(("B", "C")):  # Cn is read as Bn
        n = CoxeterSystem.from_name(token).rank
        return [b_family_matrix(n, 1), b_family_matrix(n, 2)]
    if token.startswith(("A", "D", "E")):
        system = CoxeterSystem.from_name(token)
        if system.rank < 3:
            raise ValueError(f"reference candidates of type {system.name!r}: "
                             "rank must be at least 3")
        sizes = (1,) * system.rank
        bonds = [(i, j, one) for i in range(1, system.rank + 1)
                 for j in range(i + 1, system.rank + 1) if system.m(i, j) == 3]
        return [AssemblyCandidate(system.name, sizes, _block_matrix(sizes, bonds))]
    raise ValueError(f"no reference candidates stored for {name!r}")


def reflection_sign_matrix(name: str) -> IntMatrix:
    """The small comparison matrix for H3 (3x3) or H4 (4x4) over Z[phi],
    -2cos(pi/m(i, j)) read from the Coxeter matrix (2 on the diagonal, -phi
    on the order-5 bond, -1 on simple bonds, 0 elsewhere), written over
    the integers: each entry a + b*phi becomes the 2x2 block [[a, b], [b, a + b]]
    of multiplication by it, so the result is 6x6 or 8x8.  Its eigenvalues
    are those of the matrix over Z[phi] together with their Galois conjugates.

    >>> reflection_sign_matrix("H3").rows[:2]
    ((2, 0, 0, -1, 0, 0), (0, 2, -1, -1, 0, 0))
    """
    token = name.strip().upper()
    if token not in ("H3", "H4"):
        raise ValueError("reflection comparison exists for H3 and H4 only")
    entry = {1: (2, 0), 2: (0, 0), 3: (-1, 0), 5: (0, -1)}
    # a + b*phi times 1 is a + b*phi, times phi is b + (a + b)*phi
    rows = []
    for bonds in CoxeterSystem.from_name(token).coxeter_matrix:
        row = [entry[m] for m in bonds]
        rows.append(tuple(v for a, b in row for v in (a, b)))
        rows.append(tuple(v for a, b in row for v in (b, a + b)))
    return IntMatrix(tuple(rows))


class SharedEigenvalue(Value):
    name: str
    value: float
    from_module: float
    from_reflection: float


def shared_top_eigenvalue(name: str) -> SharedEigenvalue:
    """The common top eigenvalue of the big candidate matrix and the small
    reflection-side matrix for H3 or H4.

    Both characteristic polynomials are exact integer polynomials (the
    reflection side through reflection_sign_matrix), and each largest root
    is bracketed by Sturm bisection.  Raises ValueError if the two largest
    roots are not proved to be one root: a root of their gcd above which
    neither polynomial has another root.
    """
    width = Fraction(1, 10 ** 12)
    p = charpoly(special_modules(name)[0].matrix)
    q = charpoly(reflection_sign_matrix(name))
    lo_p, hi_p = max_root_bracket(p, width)
    lo_q, hi_q = max_root_bracket(q, width)
    from_module = float((lo_p + hi_p) / 2)
    from_reflection = float((lo_q + hi_q) / 2)
    # Above lo the gcd has a root, which is then the one root of p and of q
    # above lo, hence the largest root of each.
    lo = max(lo_p, lo_q)
    if any(count_roots_in(f, lo, None) != 1 for f in (p.gcd(q), p, q)):
        raise ValueError(
            f"top eigenvalues {from_module} and {from_reflection} are not "
            "one common root"
        )
    return SharedEigenvalue(
        name.strip().upper(),
        (from_module + from_reflection) / 2,
        from_module,
        from_reflection,
    )


# --- verification ----------------------------------------------------------------


def _block(m: IntMatrix, rows: range, cols: range) -> IntMatrix:
    return IntMatrix.from_rows(
        [[m.rows[i][j] for j in cols] for i in rows]
    )


def assembly_violations(
    system: CoxeterSystem,
    sizes,
    m: IntMatrix,
    require_size_multiple: bool = False,
) -> list[str]:
    """All ways the matrix fails to be a candidate for the system with the
    given slot sizes; an empty list means it is one.

    require_size_multiple additionally demands that the total size be a
    multiple of the rank; the reference families in types B and F violate
    it, so it is off by default.
    """
    sizes = tuple(int(s) for s in sizes)
    problems: list[str] = []
    if len(sizes) != system.rank or any(s < 1 for s in sizes):
        return ["size vector does not match the rank"]
    if not m.is_square() or m.n_rows != sum(sizes):
        return ["matrix size does not match the size vector"]
    if not m.is_symmetric():
        problems.append("matrix is not symmetric")
    slots = slot_ranges(sizes, m.n_rows)
    for i in range(system.rank):
        block = _block(m, slots[i], slots[i])
        if block != _block_matrix((sizes[i],), []):  # 2I
            problems.append(f"diagonal block {i + 1} is not 2I")
    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            order = system.m(i + 1, j + 1)
            block = _block(m, slots[i], slots[j])
            if order == 2:
                if not block.is_zero():
                    problems.append(
                        f"block ({i + 1}, {j + 1}) must vanish: "
                        "the generators commute"
                    )
                continue
            if block.is_zero():
                problems.append(
                    f"block ({i + 1}, {j + 1}) vanishes on an edge of order "
                    f"{order}"
                )
                continue
            if not annihilation_test(block, order):
                problems.append(
                    f"block ({i + 1}, {j + 1}) fails the order-{order} "
                    "annihilation condition"
                )
    if not problems and not is_irreducible_nonneg(m):
        problems.append("matrix is reducible")
    if require_size_multiple and sum(sizes) % system.rank != 0:
        problems.append("total size is not a multiple of the rank")
    return problems


# --- search ----------------------------------------------------------------------


def _sizes_feasible(order: int, a: int, b: int) -> bool:
    if order == 4:
        return (2 * a - b) % 3 == 0 and 2 * a >= b and 2 * b >= a
    return a == b and (order == 3 or a % 2 == 0)


def _edge_block(order: int, n_rows: int, n_cols: int) -> IntMatrix:
    """The one edge block the search places on an edge of the given order:
    a direct sum of atoms on disjoint rows and columns.  Order 3 gives I;
    order 4 gives rows 2t and 2t + 1 a shared column t for t < p =
    (2 n_rows - n_cols) / 3 and each later row two columns of its own;
    order 5 gives rows 2t and 2t + 1 the atom [[1, 1], [1, 0]].  Sizes must
    already pass _sizes_feasible.

    Every wiring of the same sizes is this block up to row and column
    permutations: the atoms' sizes fix how many of each there are.

    Atom lemma, so assembly_search does not test it: f_order(B B^T) = 0, as
    the Gram of a direct sum of atoms is block-diagonal; B B^T = I for order
    3 (f_3 = x - 1); [[1], [1]] and [[1, 1]] have Gram eigenvalues 0 and 2
    (f_4 = x^2 - 2x); a 2x2 atom with three ones has a Gram of trace 3 and
    determinant 1 (f_5 = x^2 - 3x + 1).  Atoms transpose to atoms: B^T B too.
    """
    if order == 3:
        return IntMatrix.identity(n_rows)
    rows = [[0] * n_cols for _ in range(n_rows)]
    p = (2 * n_rows - n_cols) // 3
    for x, row in enumerate(rows):
        if order == 5:
            cols = (x, x + 1) if x % 2 == 0 else (x - 1,)
        else:
            cols = (x // 2,) if x < 2 * p else (2 * x - 3 * p, 2 * x - 3 * p + 1)
        for c in cols:
            row[c] = 1
    return IntMatrix.from_rows(rows)


def conjugation_canonical(m: IntMatrix, sizes) -> IntMatrix:
    """Minimal matrix, rows read in order, over simultaneous within-slot
    permutations applied to rows and columns together.

    Individualise and refine (McKay 1981): a state is an ordered partition
    whose first p cells are the rows already placed and whose later cells
    hold indices those rows cannot tell apart.  Placing x next and splitting
    every later cell by m[x][.], ascending, gives the least row p that x
    allows; only states with the least row p go on, until each fixes a matrix.
    """
    states = {tuple(tuple(r) for r in slot_ranges(sizes, m.n_rows) if r)}
    for p in range(m.n_rows):
        if all(len(cells) == m.n_rows for cells in states):
            break
        best, kept = None, set()
        for cells in states:
            for x in cells[p]:
                row, state = m.rows[x], cells[:p] + ((x,),)
                for cell in (tuple(y for y in cells[p] if y != x),) + cells[p + 1:]:
                    if len(cell) == 1 or len(values := {row[y] for y in cell}) == 1:
                        state += (cell,)
                    else:  # an empty cell adds nothing
                        for v in sorted(values):
                            state += (tuple(y for y in cell if row[y] == v),)
                key = tuple(row[c[0]] for c in state for _ in c)
                if best is None or key < best:
                    best, kept = key, {state}
                elif key == best:
                    kept.add(state)
        states = kept
    return IntMatrix(min(tuple(tuple(m.rows[i][j] for (j,) in c) for (i,) in c)
                         for c in states))


def assembly_search(
    system: CoxeterSystem, max_total: int = 16
) -> list[AssemblyCandidate]:
    """All candidates for the system with total size at most max_total, up
    to simultaneous within-slot permutations, sorted by (sizes, entries).

    The diagram must be a tree with bond orders 2 and 3 off the diagonal
    and at most one bond of order 4 or 5, as every finite type with bonds up
    to 5 is (Coxeter 1935); any other diagram raises ValueError.  Only size
    vectors that pass _sizes_feasible on every edge are built, each far slot
    taking what its bond admits.  Each edge gets the one block _edge_block:
    its far slot is new, so permuting it turns any order-3 wiring into I, and
    the permutations that keep the earlier identity blocks act as the whole
    of S_a x S_b on the one order-4 or 5 edge, where the wirings of given
    sizes form one orbit.  The blocks become a matrix only if their nonzero
    entries connect every index.
    """
    r = system.rank
    if r < 2:
        raise ValueError("assembly needs rank at least 2")
    adjacency: dict[int, list[int]] = {i: [] for i in range(1, r + 1)}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            order = system.m(i, j)
            if order >= 6:
                raise ValueError(
                    "bond orders above 5 are outside the assembly atoms; "
                    "use the rank-2 tools directly"
                )
            if order >= 3:
                adjacency[i].append(j)
                adjacency[j].append(i)
    if sum(map(len, adjacency.values())) != 2 * (r - 1):
        raise ValueError("diagram must be a tree")
    # breadth-first orientation from generator 1: each edge (near, far) joins
    # a vertex to its earliest-visited neighbour
    visit = reachable(adjacency, start=1)
    if len(visit) != r:
        raise ValueError("diagram must be connected")
    oriented = []
    for far in visit[1:]:
        near = min(adjacency[far], key=visit.index)
        oriented.append((near, far, system.m(near, far)))
    if sum(order > 3 for _, _, order in oriented) > 1:
        raise ValueError(
            "diagram has more than one bond of order 4 or 5, so it is not "
            "of finite type"
        )

    # each far slot leaves size 1 for every slot still empty
    vectors = [(s,) + (0,) * (r - 1) for s in range(1, max_total - r + 2)]
    for k, (near, far, order) in enumerate(oriented):
        vectors = [
            v[: far - 1] + (s,) + v[far:]
            for v in vectors
            for s in range(1, max_total - sum(v) - (r - k - 2) + 1)
            if _sizes_feasible(order, v[near - 1], s)
        ]
    found = []
    for sizes in vectors:
        bonds = [(near, far, _edge_block(order, sizes[near - 1], sizes[far - 1]).rows)
                 for near, far, order in oriented]
        total = sum(sizes)
        slots = slot_ranges(sizes, total)
        # 2I plus non-negative blocks is irreducible iff their entries connect
        if is_connected(total, [
            (x, y) for near, far, rows in bonds
            for x, row in zip(slots[near - 1], rows)
            for y, v in zip(slots[far - 1], row) if v
        ]):
            m = _block_matrix(sizes, bonds)
            found.append((sizes, conjugation_canonical(m, sizes).rows))
    return [AssemblyCandidate(system.name, sizes, IntMatrix(rows))
            for sizes, rows in sorted(found)]
