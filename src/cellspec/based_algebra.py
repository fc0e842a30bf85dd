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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .intmat import IntMatrix, _int_entry, is_irreducible_nonneg, reachable

Gamma = tuple[tuple[tuple[int, ...], ...], ...]


def _check_law(algebra: "BasedAlgebra", acts, what: str) -> None:
    """Check acts[i] @ acts[j] == sum_k gamma[i][j][k] acts[k] for every j
    and the rows i in algebra.generators, which imply the rest: acts[i]
    times all acts side by side against gamma[i] times all acts flattened.
    On a failure every row is scanned, so the ValueError "<what> fails at
    (label_i, label_j)" names the first failing pair in row-major order."""
    n, d = len(acts), acts[0].n_rows
    wide = IntMatrix(tuple(tuple(chain(*(a.rows[r] for a in acts))) for r in range(d)))
    flat = IntMatrix(tuple(tuple(chain(*a.rows)) for a in acts))

    def failures(i: int) -> list[int]:
        products = (acts[i] @ wide).rows
        combos = (IntMatrix(algebra.gamma[i]) @ flat).rows
        blocks = (chain(*(p[j * d:(j + 1) * d] for p in products)) for j in range(n))
        return [j for j, block in enumerate(blocks) if tuple(block) != combos[j]]

    if any(failures(i) for i in algebra.generators):
        i = next(i for i in range(n) if failures(i))
        left, right = algebra.labels[i], algebra.labels[failures(i)[0]]
        raise ValueError(f"{what} fails at ({left}, {right})")


@dataclass(frozen=True)
class BasedAlgebra:
    """A finite-dimensional algebra with a fixed basis, multiplication tensor
    gamma[i][j][k] (coefficient of basis k in the product of i and j), and an
    identity basis element."""

    labels: tuple[str, ...]
    gamma: Gamma
    identity: int

    @staticmethod
    def make(labels, gamma, identity: int) -> "BasedAlgebra":
        labels = tuple(str(x) for x in labels)
        gamma = tuple(
            tuple(tuple(map(_int_entry, row)) for row in plane) for plane in gamma
        )
        algebra = BasedAlgebra(labels, gamma, identity)
        algebra.validate()
        return algebra

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        """Check the identity index, the tensor shape, non-negativity, the
        identity laws and associativity, raising ValueError at the first
        failure.  Associativity compares L_i L_j with
        sum_k gamma[i][j][k] L_k for the left multiplication matrices L_i,
        exactly, for the rows i in generators (see _check_law)."""
        n = self.dimension
        if not (0 <= self.identity < n):
            raise ValueError("identity index out of range")
        if len(self.gamma) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in self.gamma
        ):
            raise ValueError("tensor shape mismatch")
        if min(min(row) for plane in self.gamma for row in plane) < 0:
            raise ValueError("negative structure constant")
        e = self.identity
        for j in range(n):
            for k in range(n):
                if self.gamma[e][j][k] != int(j == k):
                    raise ValueError("identity fails on the left")
                if self.gamma[j][e][k] != int(j == k):
                    raise ValueError("identity fails on the right")
        # L_i[k][j] = gamma[i][j][k]: each plane transposed
        lefts = [IntMatrix(tuple(zip(*plane))) for plane in self.gamma]
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
            plane = self.gamma[g]
            return frozenset(k for j in support for k, c in enumerate(plane[j]) if c)

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
        left = side in ("left", "two_sided")
        right = side in ("right", "two_sided")
        succ: list[set[int]] = [set() for _ in range(self.dimension)]
        for i, plane in enumerate(self.gamma):
            for j, row in enumerate(plane):
                support = [k for k, c in enumerate(row) if c]
                if left:
                    succ[j].update(support)
                if right:
                    succ[i].update(support)
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


@dataclass(frozen=True)
class CellPartition:
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


@dataclass(frozen=True)
class BasedModule:
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
        exactly, on the rows of the algebra's generators (see _check_law);
        these imply every row only over an associative algebra, so the
        algebra must be validated, as BasedAlgebra.make does."""
        n = self.algebra.dimension
        if len(self.actions) != n:
            raise ValueError("one action matrix per basis element required")
        d = self.actions[0].n_rows
        for m in self.actions:
            if m.shape != (d, d):
                raise ValueError("action matrices must share one square shape")
            if min(map(min, m.rows)) < 0:
                raise ValueError("negative entry in an action matrix")
        if self.actions[self.algebra.identity] != IntMatrix.identity(d):
            raise ValueError("identity must act as the identity matrix")
        _check_law(self.algebra, self.actions, "module law")

    def total_action(self) -> IntMatrix:
        total = IntMatrix.zeros(self.dimension, self.dimension)
        for m in self.actions:
            total = total + m
        return total

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
