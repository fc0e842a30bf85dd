"""Algebras with a distinguished basis with non-negative structure constants,
their cell preorders, and modules with an apex.

The basis cells are the classical ones: a_s lies above a_j on the left when
a_s appears with nonzero coefficient in some product a_i a_j; left cells are
the strong components of that one-step relation (which is already transitive
up to reachability because the constants are non-negative, so no cancellation
can hide a factorization).  Right cells use multiplication on the other side,
and two-sided cells are the strong components of the union of both edge sets.

A based module assigns a non-negative integer matrix to each basis element,
compatibly with the structure constants.  It is transitive when the sum of
all action matrices is irreducible, and the apex is the unique maximal
two-sided cell that does not act by zero.
"""

from __future__ import annotations

from functools import cached_property

from ._value import Value
from .intmat import IntMatrix, _int_rows, is_irreducible_nonneg, reachable

Gamma = tuple[tuple[tuple[int, ...], ...], ...]


def _check_law(algebra: "BasedAlgebra", acts, what: str) -> None:
    """Check A_i A_j == sum_k gamma[i][j][k] A_k for every j and the rows i
    in algebra.generators, which imply the rest.  acts[i][r] lists the
    (column, entry) pairs of the nonzero entries in row r of A_i.  Row r of
    each difference is formed over nonzeros only: A_i[r][m] times row m of
    A_j for each nonzero A_i[r][m], less gamma[i][j][k] times row r of A_k
    for each nonzero gamma[i][j][k] (algebra.nonzeros).  On a failure every
    row is scanned, so the ValueError "<what> fails at (label_i, label_j)"
    names the first failing pair in row-major order."""
    nonzeros, n = algebra.nonzeros, len(acts)
    zero = [0] * len(acts[0])

    def holds(i: int, j: int) -> bool:
        right, terms = acts[j], nonzeros[i][j]
        for r, row in enumerate(acts[i]):
            acc = zero[:]
            for m, a in row:
                for col, b in right[m]:
                    acc[col] += a * b
            for k, g in terms:
                for col, b in acts[k][r]:
                    acc[col] -= g * b
            if acc != zero:
                return False
        return True

    if not all(holds(i, j) for i in algebra.generators for j in range(n)):
        i, j = next((i, j) for i in range(n) for j in range(n) if not holds(i, j))
        raise ValueError(f"{what} fails at ({algebra.labels[i]}, {algebra.labels[j]})")


class BasedAlgebra(Value):
    """A finite-dimensional algebra with a fixed basis, multiplication tensor
    gamma[i][j][k] (coefficient of basis k in the product of i and j), and an
    identity basis element."""

    labels: tuple[str, ...]
    gamma: Gamma
    identity: int

    @staticmethod
    def make(labels, gamma, identity: int) -> "BasedAlgebra":
        labels = tuple(str(x) for x in labels)
        algebra = BasedAlgebra(labels, tuple(map(_int_rows, gamma)), identity)
        algebra.validate()
        return algebra

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @cached_property
    def nonzeros(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """nonzeros[i][j]: the pairs (k, gamma[i][j][k]) with a nonzero
        constant, in increasing k; the one sparse view of gamma that
        validation and the cell steps read."""
        return tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
            for plane in self.gamma
        )

    def validate(self) -> None:
        """Check the identity index, the tensor shape, non-negativity, the
        identity laws and associativity, raising ValueError at the first
        failure.  All but the first two read the nonzero constants only.
        Associativity compares L_i L_j with sum_k gamma[i][j][k] L_k for
        the left multiplication matrices L_i[k][j] = gamma[i][j][k],
        exactly, for the rows i in generators (see _check_law)."""
        n = self.dimension
        if not (0 <= self.identity < n):
            raise ValueError("identity index out of range")
        if len(self.gamma) != n:
            raise ValueError(
                f"tensor shape mismatch: {n} labels for "
                f"a basis of size {len(self.gamma)}"
            )
        for i, plane in enumerate(self.gamma):
            if len(plane) != n:
                raise ValueError(
                    f"tensor shape mismatch: plane {i} has length {len(plane)}, not {n}"
                )
            for j, row in enumerate(plane):
                if len(row) != n:
                    raise ValueError(
                        f"tensor shape mismatch: plane {i} row {j} has length "
                        f"{len(row)}, not {n}"
                    )
        nonzeros = self.nonzeros
        if any(c < 0 for plane in nonzeros for row in plane for _, c in row):
            raise ValueError("negative structure constant")
        e = self.identity
        for j in range(n):
            unit = ((j, 1),)
            if nonzeros[e][j] != unit or nonzeros[j][e] != unit:
                # name the side that fails first in the dense order of k
                for k in range(n):
                    if self.gamma[e][j][k] != int(j == k):
                        raise ValueError("identity fails on the left")
                    if self.gamma[j][e][k] != int(j == k):
                        raise ValueError("identity fails on the right")
        lefts = [[[] for _ in range(n)] for _ in range(n)]
        for i, plane in enumerate(nonzeros):
            for j, row in enumerate(plane):
                for k, c in row:
                    lefts[i][k].append((j, c))
        _check_law(self, lefts, "associativity")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices G whose rows of a law check imply every row.

        The x with (x y) z = x (y z) for all y, z form a subspace holding
        the identity and, once the rows of G pass, closed under left
        multiplication by G: ((g x) y) z = g ((x y) z) = (g x) (y z).  So G
        suffices when words in G span the algebra; the same induction gives
        the module law over an associative algebra.  Walking from the
        identity, a product g v is kept when its support (nothing cancels:
        constants are non-negative) has a new index, so kept vectors are
        independent; the first uncovered index joins G until all are
        covered.  With fewer than n kept vectors, G is every index."""
        n = self.dimension

        def times(g: int, support: frozenset) -> frozenset:
            plane = self.nonzeros[g]
            return frozenset(k for j in support for k, _ in plane[j])

        kept, covered, gens = [], set(), []
        pending = [frozenset((self.identity,))]
        while True:
            while pending:
                support = pending.pop(0)
                if not support <= covered:
                    covered |= support
                    kept.append(support)
                    pending += [times(g, support) for g in gens]
            if len(covered) == n:
                return tuple(gens) if len(kept) == n else tuple(range(n))
            gens.append(min(set(range(n)) - covered))
            pending = [times(gens[-1], support) for support in kept]

    @cached_property
    def two_sided_cells(self) -> "CellPartition":
        """cells("two_sided"), computed once per algebra."""
        return self.cells("two_sided")

    # --- cells -------------------------------------------------------------

    def _one_step(self, side: str) -> list[set[int]]:
        """succ[j] = basis elements reachable from j in one multiplication
        step on the given side."""
        nonzeros = self.nonzeros
        succ: list[set[int]] = [set() for _ in nonzeros]
        if side != "right":  # a_k in a_i a_j lies above a_j
            for j, step in enumerate(succ):
                step.update(k for plane in nonzeros for k, _ in plane[j])
        if side != "left":  # and above a_i
            for step, plane in zip(succ, nonzeros):
                step.update(k for row in plane for k, _ in row)
        return succ

    def cells(self, side: str) -> "CellPartition":
        """The cell partition on the given side: "left", "right" or
        "two_sided"."""
        if side not in ("left", "right", "two_sided"):
            raise ValueError("side must be 'left', 'right' or 'two_sided'")
        n = self.dimension
        succ = self._one_step(side)
        reach = [set(reachable(succ, j)) for j in range(n)]
        assigned = [None] * n
        cells: list[tuple[int, ...]] = []
        for j in range(n):
            if assigned[j] is not None:
                continue
            members = tuple(
                sorted(k for k in range(n) if k in reach[j] and j in reach[k])
            )
            idx = len(cells)
            cells.append(members)
            for k in members:
                assigned[k] = idx
        leq = tuple(
            tuple(cells[b][0] in reach[cells[a][0]] for b in range(len(cells)))
            for a in range(len(cells))
        )
        return CellPartition(side, tuple(cells), tuple(assigned), leq)


class CellPartition(Value):
    """Cells on one side, with the reachability order between them.
    leq[a][b] means cell a is below or equal to cell b."""

    side: str
    cells: tuple[tuple[int, ...], ...]
    cell_of: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]

    @property
    def count(self) -> int:
        return len(self.cells)

    def maximal_among(self, cell_indices) -> tuple[int, ...]:
        chosen = sorted(set(cell_indices))
        return tuple(
            a
            for a in chosen
            if not any(b != a and self.leq[a][b] for b in chosen)
        )


class BasedModule(Value):
    """Non-negative integer matrices representing a based algebra."""

    algebra: BasedAlgebra
    actions: tuple[IntMatrix, ...]

    @staticmethod
    def make(algebra: BasedAlgebra, actions) -> "BasedModule":
        module = BasedModule(algebra, tuple(actions))
        module.validate()
        return module

    @property
    def dimension(self) -> int:
        return self.actions[0].n_rows

    def validate(self) -> None:
        """Check one square non-negative action per basis element, the
        identity action and the module law A_i A_j = sum_k gamma[i][j][k] A_k,
        raising ValueError at the first failure.  The law is checked
        exactly, over the nonzero entries of the actions and constants, on
        the rows of the algebra's generators (see _check_law); these imply
        every row only over an associative algebra, so the algebra must be
        validated, as BasedAlgebra.make does."""
        n = self.algebra.dimension
        if len(self.actions) != n:
            raise ValueError("one action matrix per basis element required")
        d = self.actions[0].n_rows
        for label, m in zip(self.algebra.labels, self.actions):
            if m.shape != (d, d):
                raise ValueError(f"the action of {label} is not a {d} x {d} matrix")
            if min(map(min, m.rows)) < 0:
                raise ValueError(f"negative entry in the action matrix of {label}")
        if self.actions[self.algebra.identity] != IntMatrix.identity(d):
            raise ValueError("identity must act as the identity matrix")
        acts = [
            [[(col, c) for col, c in enumerate(row) if c] for row in m.rows]
            for m in self.actions
        ]
        _check_law(self.algebra, acts, "module law")

    def total_action(self) -> IntMatrix:
        """The sum of all action matrices."""
        rows = zip(*(m.rows for m in self.actions))
        return IntMatrix(tuple(tuple(map(sum, zip(*row))) for row in rows))

    def is_transitive(self) -> bool:
        """Whether the summed action of all basis elements is irreducible."""
        return is_irreducible_nonneg(self.total_action())

    def annihilated(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.actions) if m.is_zero())

    def apex(self) -> tuple[int, ...]:
        """The unique maximal two-sided cell acting by nonzero matrices,
        as a tuple of basis indices.  Raises when no unique maximum exists."""
        partition = self.algebra.two_sided_cells
        alive = {
            partition.cell_of[i]
            for i, m in enumerate(self.actions)
            if not m.is_zero()
        }
        maximal = partition.maximal_among(alive)
        if len(maximal) != 1:
            raise ValueError("no unique maximal non-annihilating cell")
        return partition.cells[maximal[0]]
