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

import numpy as np

from .intmat import IntMatrix, is_irreducible_nonneg, pf_vector, reachable

Gamma = tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class BasedAlgebra:
    """A finite-dimensional algebra with a fixed basis, multiplication tensor
    gamma[i][j][k] (coefficient of basis k in the product of i and j), and an
    identity basis element."""

    labels: tuple[str, ...]
    gamma: Gamma
    identity: int

    @staticmethod
    def make(labels, gamma, identity: int, validate: bool = True) -> "BasedAlgebra":
        labels = tuple(str(x) for x in labels)
        gamma = tuple(
            tuple(tuple(int(c) for c in row) for row in plane) for plane in gamma
        )
        algebra = BasedAlgebra(labels, gamma, identity)
        if validate:
            algebra.validate()
        return algebra

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def left_multiplication(self, i: int) -> IntMatrix:
        """Matrix of left multiplication by basis element i on the basis."""
        n = self.dimension
        return IntMatrix.from_rows(
            [[self.gamma[i][j][k] for j in range(n)] for k in range(n)]
        )

    def validate(self) -> None:
        n = self.dimension
        if not (0 <= self.identity < n):
            raise ValueError("identity index out of range")
        if len(self.gamma) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in self.gamma
        ):
            raise ValueError("tensor shape mismatch")
        for plane in self.gamma:
            for row in plane:
                for c in row:
                    if c < 0:
                        raise ValueError("negative structure constant")
        e = self.identity
        for j in range(n):
            for k in range(n):
                if self.gamma[e][j][k] != int(j == k):
                    raise ValueError("identity fails on the left")
                if self.gamma[j][e][k] != int(j == k):
                    raise ValueError("identity fails on the right")
        # associativity via left multiplication operators:
        # L_i L_j must equal sum_k gamma[i][j][k] L_k; no value on either side,
        # partial sums included, exceeds n * max(gamma)^2 (constants are >= 0)
        top = max(c for plane in self.gamma for row in plane for c in row)
        if n * top * top >= 2 ** 63:
            raise ValueError("associativity check would overflow int64")
        lefts = np.array(
            [self.left_multiplication(i).to_numpy(dtype=np.int64) for i in range(n)]
        )
        g = np.array(self.gamma, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                product = lefts[i] @ lefts[j]
                combo = np.tensordot(g[i][j], lefts, axes=(0, 0))
                if not np.array_equal(product, combo):
                    raise ValueError(
                        f"associativity fails at ({self.labels[i]}, {self.labels[j]})"
                    )

    # --- cells -------------------------------------------------------------

    def _one_step(self, side: str) -> list[set[int]]:
        """succ[j] = basis elements reachable from j in one multiplication
        step on the given side."""
        n = self.dimension
        succ: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.gamma[i][j][k]:
                        if side in ("left", "two_sided"):
                            succ[j].add(k)
                        if side in ("right", "two_sided"):
                            succ[i].add(k)
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

    def cell_index_of(self, basis_index: int) -> int:
        return self.cell_of[basis_index]

    def is_leq(self, a: int, b: int) -> bool:
        return self.leq[a][b]

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
    def make(algebra: BasedAlgebra, actions, validate: bool = True) -> "BasedModule":
        module = BasedModule(algebra, tuple(actions))
        if validate:
            module.validate()
        return module

    @property
    def dimension(self) -> int:
        return self.actions[0].n_rows

    def validate(self) -> None:
        n = self.algebra.dimension
        if len(self.actions) != n:
            raise ValueError("one action matrix per basis element required")
        d = self.actions[0].n_rows
        for m in self.actions:
            if m.shape != (d, d):
                raise ValueError("action matrices must share one square shape")
            for row in m.rows:
                for c in row:
                    if c < 0:
                        raise ValueError("negative entry in an action matrix")
        if self.actions[self.algebra.identity] != IntMatrix.identity(d):
            raise ValueError("identity must act as the identity matrix")
        # A_i A_j must equal sum_k gamma[i][j][k] A_k; the two sides stay
        # below d * max(A)^2 and n * max(gamma) * max(A)
        top_a = max((c for m in self.actions for row in m.rows for c in row), default=0)
        top_g = max(c for plane in self.algebra.gamma for row in plane for c in row)
        if max(d * top_a, n * top_g) * top_a >= 2 ** 63:
            raise ValueError("module law check would overflow int64")
        acts = np.array([m.to_numpy(dtype=np.int64) for m in self.actions])
        g = np.array(self.algebra.gamma, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                product = acts[i] @ acts[j]
                combo = np.tensordot(g[i][j], acts, axes=(0, 0))
                if not np.array_equal(product, combo):
                    raise ValueError(
                        "module law fails at "
                        f"({self.algebra.labels[i]}, {self.algebra.labels[j]})"
                    )

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
        partition = self.algebra.cells("two_sided")
        alive = {
            partition.cell_of[i]
            for i, m in enumerate(self.actions)
            if not m.is_zero()
        }
        maximal = partition.maximal_among(alive)
        if len(maximal) != 1:
            raise ValueError("no unique maximal non-annihilating cell")
        return partition.cells[maximal[0]]

    def special_vector(self, tol: float = 1e-12):
        """Perron-Frobenius eigenvalue and positive eigenvector (max entry 1)
        of the summed action matrix; requires transitivity."""
        return pf_vector(self.total_action(), tol=tol)
