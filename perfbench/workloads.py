"""The four workloads: how each builds its tasks from a seed, runs them and
checks every answer against the pinned facts in expected.py.

A workload is a pair of functions.  ``build(seed)`` is set-up: it fixes the
task order and draws the seeded permutations, and is timed as part of
``setup_s``.  ``run(plan, tally)`` is the job: it calls the library or the
CLI, checks each answer, and is timed as ``job_s``.  The seed chooses only
task order and permutations; every expected answer is seed-independent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

from cellspec import (
    CoxeterSystem,
    assembly_search,
    conjugation_canonical,
    count_real_roots,
    count_roots_in,
    fib_irreducible_factor,
    max_root_bracket,
    max_root_strictly_less,
)
from cellspec import cli as cellspec_cli

import expected


class WrongAnswer(Exception):
    """An answer that disagrees with a pinned fact."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


class Tally:
    """Counts tasks attempted and failed.  A task fails on a wrong answer,
    an exception, or a nonzero CLI exit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def task(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # any crash in the program is a failed task
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


def cli(*argv) -> dict:
    """Run one ``cellspec ... --json`` call in-process with stdout captured
    and return the parsed report."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cellspec_cli.main([str(a) for a in argv] + ["--json"])
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code
    if code != 0:
        raise WrongAnswer(f"exit code {code}")
    return json.loads(out.getvalue())


def digest(value) -> str:
    """Short digest of a JSON-serialisable value, as pinned in expected.py."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def permuted(rows, rng: random.Random) -> list[list[int]]:
    """The matrix with its rows and its columns each shuffled by rng."""
    order_r = list(range(len(rows)))
    order_c = list(range(len(rows[0])))
    rng.shuffle(order_r)
    rng.shuffle(order_c)
    return [[rows[i][j] for j in order_c] for i in order_r]


def conjugated(rows, rng: random.Random) -> list[list[int]]:
    """The square matrix with one shuffle applied to rows and columns alike
    (a relabelling of the vertices of the graph it encodes)."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [[rows[i][j] for j in order] for i in order]


def line_sums(rows) -> list:
    """Row and column sums as sorted lists: unchanged by permutations."""
    return [sorted(sum(r) for r in rows), sorted(sum(c) for c in zip(*rows))]


def as_json_matrix(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


# --- under4: the bulk classification sweep -------------------------------------


def build_under4(seed: int):
    rng = random.Random(seed)
    shapes = sorted(expected.UNDER4)
    rng.shuffle(shapes)
    # one sub-seed per class to be classified, drawn here so that set-up
    # fixes every permutation before the job starts
    return [
        (shape, [rng.getrandbits(64) for _ in range(expected.UNDER4[shape][0])])
        for shape in shapes
    ]


def _oracle(shape, found: dict) -> None:
    r, c = shape
    count, classes_digest, _ = expected.UNDER4[shape]
    res = cli("oracle-under4", "--rows", r, "--cols", c)["results"]
    found[shape] = [m["entries"] for m in res["classes"]]
    expect(res["matches_expected_families"] is True, "families do not match")
    expect(res["count"] == count, f"count {res['count']} != {count}")
    expect(digest(found[shape]) == classes_digest, "class list digest differs")


def _classify(shape, found: dict, k: int, subseed: int) -> None:
    rows = permuted(found[shape][k], random.Random(subseed))
    res = cli("classify-matrix", "--matrix", as_json_matrix(rows))["results"]
    kind = expected.KIND_CODES[expected.UNDER4[shape][2][k]]
    expect(res["kind"] == kind, f"kind {res['kind']} != {kind}")
    expect(res["shape"] == list(shape), f"shape {res['shape']}")
    rep = res["representative"]["entries"]
    expect(line_sums(rep) == line_sums(rows), "representative is not equivalent")


def run_under4(plan, tally: Tally) -> None:
    found: dict = {}
    for shape, subseeds in plan:
        tally.task(f"oracle-under4 {shape}", _oracle, shape, found)
        for k, subseed in enumerate(subseeds):
            tally.task(f"classify-matrix {shape}#{k}", _classify, shape, found, k, subseed)


# --- roots: Sturm localisation of the Fibonacci-factor roots -----------------


def build_roots(seed: int):
    tasks = [("factor", i) for i in expected.ROOT_FACTORS]
    tasks += [("compare", i) for i in expected.ROOT_COMPARISONS]
    tasks += [("special", name) for name in sorted(expected.SHARED_TOP)]
    random.Random(seed).shuffle(tasks)
    return tasks


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _factor(i: int) -> None:
    p = fib_irreducible_factor(i)
    degree = _totient(i) // 2
    expect(p.degree == degree, f"degree {p.degree} != {degree}")
    expect(count_real_roots(p) == degree, "real roots")
    expect(count_roots_in(p, 0, 4) == degree, "roots in (0, 4]")
    lo, hi = max_root_bracket(p, expected.BRACKET_WIDTH)
    target = 4.0 * math.cos(math.pi / i) ** 2
    expect(hi - lo <= expected.BRACKET_WIDTH, "bracket too wide")
    expect(lo - 1e-12 <= target <= hi + 1e-12, f"bracket ({float(lo)}, {float(hi)}] misses {target}")


def _compare(i: int) -> None:
    less = max_root_strictly_less(fib_irreducible_factor(i), fib_irreducible_factor(i + 1))
    expect(less is True, "maximal roots out of order")


def _special(name: str) -> None:
    value, tol = expected.SHARED_TOP[name]
    res = cli("special", "--type", name)["results"]
    got = res["shared_top_eigenvalue"]
    expect(abs(got - value) < tol, f"shared top eigenvalue {got} != {value}")
    expect(len(res["candidates"]) == 1, "one reference candidate expected")


def run_roots(plan, tally: Tally) -> None:
    steps = {"factor": _factor, "compare": _compare, "special": _special}
    for kind, arg in plan:
        tally.task(f"{kind} {arg}", steps[kind], arg)


# --- assembly: the higher-rank search ----------------------------------------


def build_assembly(seed: int):
    names = sorted(expected.ASSEMBLIES)
    random.Random(seed).shuffle(names)
    return names


def _assembly(name: str) -> None:
    count, want = expected.ASSEMBLIES[name]
    found = assembly_search(CoxeterSystem.from_name(name), max_total=expected.MAX_TOTAL)
    keys = sorted(
        [list(c.sizes), [list(r) for r in conjugation_canonical(c.matrix, c.sizes).rows]]
        for c in found
    )
    expect(len(keys) == count, f"{len(keys)} candidates != {count}")
    expect(digest(keys) == want, "candidate set digest differs")


def run_assembly(plan, tally: Tally) -> None:
    for name in plan:
        tally.task(f"assembly_search {name}", _assembly, name)


# --- cells: Coxeter cell tables and the dihedral modules ---------------------


def build_cells(seed: int):
    rng = random.Random(seed)
    tasks = [("cells", name) for name in expected.CELL_TABLES]
    tasks += [("level", n) for n in expected.LEVELS]
    tasks += [("quiver", i) for i in range(len(expected.QUIVER_REFERENCES))]
    rng.shuffle(tasks)
    return [(kind, arg, rng.getrandbits(64)) for kind, arg in tasks]


def _cells(name: str) -> None:
    size, boxes_digest = expected.CELL_TABLES[name]
    res = cli("cells", name)["results"]
    expect(res["size"] == size, f"size {res['size']} != {size}")
    expect(digest(res["boxes"]) == boxes_digest, "box digest differs")


def _enumerate(n: int, found: dict) -> None:
    res = cli("enumerate-b", "--n", n)["results"]
    found[n] = [c["matrix"]["entries"] for c in res]
    want = expected.candidate_count(n)
    expect(len(found[n]) == want, f"{len(found[n])} candidates != {want}")


def _algebra_cells(n: int) -> None:
    res = cli("cells-of-algebra", "--dihedral-n", n)["results"]
    labels = expected.level_labels(n)
    rest = [lab for lab in labels if lab != "e"]
    want = {
        "left": [["e"], [l for l in rest if l.endswith("1")], [l for l in rest if l.endswith("2")]],
        "right": [["e"], [l for l in rest if l.startswith("1")], [l for l in rest if l.startswith("2")]],
        "two_sided": [["e"], rest],
    }
    for side, cells in want.items():
        got = sorted(sorted(cell) for cell in res[side])
        expect(got == sorted(sorted(cell) for cell in cells), f"{side} cells")


def _matspec(n: int, rows) -> None:
    res = cli("matspec", "--matrix", as_json_matrix(rows))["results"]
    expect(res["dihedral_level"] == n, f"level {res['dihedral_level']} != {n}")


def _apex(n: int, rows) -> None:
    res = cli("apex", "--matrix", as_json_matrix(rows))["results"]
    expect(res["level"] == n, f"level {res['level']} != {n}")
    expect(res["transitive"] is True, "module not transitive")
    expect(res["annihilated"] == [], "some basis element acts by zero")
    want = sorted(lab for lab in expected.level_labels(n) if lab != "e")
    expect(sorted(res["apex"]) == want, "apex is not the top cell")


def _quiver(n: int, rows) -> None:
    # the cell matrix [[2I, B], [B^T, 2I]] of a level-n candidate B
    r, c = len(rows), len(rows[0])
    m = [[2 * (i == j) for j in range(r + c)] for i in range(r + c)]
    for i in range(r):
        for j in range(c):
            m[i][r + j] = m[r + j][i] = rows[i][j]
    res = cli("quiver", "--matrix", as_json_matrix(m))["results"]
    dynkin = res["dynkin_type"]
    expect(dynkin is not None and expected.coxeter_number(dynkin) == n,
           f"{dynkin} has the wrong Coxeter number for level {n}")
    expect(res["total_dimension"] == 2 * (r + c) + 2 * sum(map(sum, rows)), "dimension")


def _on_candidate(step, n: int, found: dict, k: int, subseed: int) -> None:
    expect(k < len(found.get(n, ())), f"candidate {k} missing")
    step(n, permuted(found[n][k], random.Random(subseed)))


def _reference_quiver(i: int, subseed: int) -> None:
    rows, dynkin = expected.QUIVER_REFERENCES[i]
    m = conjugated(rows, random.Random(subseed))
    res = cli("quiver", "--matrix", as_json_matrix(m))["results"]
    expect(res["dynkin_type"] == dynkin, f"{res['dynkin_type']} != {dynkin}")


def run_cells(plan, tally: Tally) -> None:
    found: dict = {}
    for kind, arg, subseed in plan:
        if kind == "cells":
            tally.task(f"cells {arg}", _cells, arg)
        elif kind == "quiver":
            tally.task(f"quiver reference {arg}", _reference_quiver, arg, subseed)
        else:
            n = arg
            tally.task(f"enumerate-b {n}", _enumerate, n, found)
            tally.task(f"cells-of-algebra {n}", _algebra_cells, n)
            # the same permutation of candidate k feeds all three steps
            for k in range(expected.candidate_count(n)):
                for step in (_matspec, _apex, _quiver):
                    label = f"{step.__name__[1:]} level {n} candidate {k}"
                    tally.task(label, _on_candidate, step, n, found, k, subseed + k)


WORKLOADS = {
    "under4": (build_under4, run_under4),
    "roots": (build_roots, run_roots),
    "assembly": (build_assembly, run_assembly),
    "cells": (build_cells, run_cells),
}
