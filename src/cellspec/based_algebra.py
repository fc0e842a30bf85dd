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


def _check_law(gamma: np.ndarray, acts: np.ndarray, labels, what: str) -> None:
    """Check acts[i] @ acts[j] == sum_k gamma[i][j][k] acts[k] for every pair
    (i, j), with one batched product per i over all j.

    gamma has shape (n, n, n) and acts shape (n, d, d), both int64; the
    caller guarantees that no value on either side overflows.  Raises
    ValueError "<what> fails at (label_i, label_j)" for the first failing
    pair in row-major order.
    """
    n, d = acts.shape[0], acts.shape[1]
    flat = acts.reshape(n, d * d)
    for i in range(n):
        products = acts[i] @ acts
        combos = (gamma[i] @ flat).reshape(n, d, d)
        bad = np.flatnonzero((products != combos).any(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"{what} fails at ({labels[i]}, {labels[bad[0]]})")


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

    def validate(self) -> None:
        """Check the identity index, the tensor shape, non-negativity, the
        identity laws and associativity, raising ValueError at the first
        failure.  Associativity compares L_i L_j with
        sum_k gamma[i][j][k] L_k for the left multiplication matrices L_i,
        in int64 with one batched product per i (see _check_law), after a
        guard that refuses tensors whose values could reach 2^63."""
        n = self.dimension
        if not (0 <= self.identity < n):
            raise ValueError("identity index out of range")
        if len(self.gamma) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in self.gamma
        ):
            raise ValueError("tensor shape mismatch")
        rows = [row for plane in self.gamma for row in plane]
        if min(map(min, rows)) < 0:
            raise ValueError("negative structure constant")
        e = self.identity
        for j in range(n):
            for k in range(n):
                if self.gamma[e][j][k] != int(j == k):
                    raise ValueError("identity fails on the left")
                if self.gamma[j][e][k] != int(j == k):
                    raise ValueError("identity fails on the right")
        # associativity via left multiplication operators L_i[k][j] =
        # gamma[i][j][k]: L_i L_j must equal sum_k gamma[i][j][k] L_k; no
        # value on either side, partial sums included, exceeds
        # n * max(gamma)^2 (constants are >= 0)
        top = max(map(max, rows))
        if n * top * top >= 2 ** 63:
            raise ValueError("associativity check would overflow int64")
        g = np.array(self.gamma, dtype=np.int64)
        lefts = np.ascontiguousarray(g.transpose(0, 2, 1))
        _check_law(g, lefts, self.labels, "associativity")

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
        """Check one square non-negative action per basis element, the
        identity action and the module law A_i A_j = sum_k gamma[i][j][k] A_k
        for every pair, raising ValueError at the first failure.  The law is
        checked in int64 with one batched product per i (see _check_law),
        after a guard that refuses values that could reach 2^63."""
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
        # A_i A_j must equal sum_k gamma[i][j][k] A_k; the two sides stay
        # below d * max(A)^2 and n * max(gamma) * max(A)
        top_a = max((max(row) for m in self.actions for row in m.rows), default=0)
        top_g = max(max(row) for plane in self.algebra.gamma for row in plane)
        if max(d * top_a, n * top_g) * top_a >= 2 ** 63:
            raise ValueError("module law check would overflow int64")
        acts = np.array([m.to_numpy(dtype=np.int64) for m in self.actions])
        g = np.array(self.algebra.gamma, dtype=np.int64)
        _check_law(g, acts, self.algebra.labels, "module law")

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
