"""Command-line interface.

Every subcommand accepts --json for a machine-readable report of the shape
{"command": ..., "inputs": ..., "results": ..., "paper_anchors": [...]},
serialized deterministically (sorted keys, fixed separators).  Matrices are
serialized as {"rows": r, "cols": c, "entries": [[...], ...]}.  Exit codes:
0 on success, 1 on a domain error (bad matrix, failed classification, out of
range spectrum), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .based_algebra import BasedAlgebra
from .coxeter import CoxeterSystem, cell_table
from .dihedral import (
    DihedralRep,
    _level_of_minpolys,
    based_algebra_of,
    based_module_of,
    enumerate_B,
    recover_n,
    structure_constants,
)
from .fibpoly import (
    check_fg_relation, fib_f, fib_g, fib_irreducible_factor, squarefree_part
)
from .higher_rank import (
    assembly_violations,
    shared_top_eigenvalue,
    special_modules,
)
from .intmat import IntMatrix, charpoly, gram, minpoly_symmetric, pf_vector
from .quiver import NotSimplyLacedDynkinError, ZigzagAlgebra
from .staircase import (
    brute_force_under4,
    canonical_form,
    classify_under4,
    generators_for_shape,
    gram_spectrum_below_4,
)


def _check_json_ints(data, what: str, depth: int) -> None:
    """Raise ValueError unless data is JSON lists nested depth deep with an
    integer at every leaf; floats, strings and booleans are refused, never
    truncated."""
    if depth:
        if not isinstance(data, list):
            raise ValueError(f"{what} needs a list in place of {json.dumps(data)}")
        for item in data:
            _check_json_ints(item, what, depth - 1)
    elif isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} entry {json.dumps(data)} is not an integer")


def _parse_json(text: str, what: str):
    """json.loads, with nesting too deep for the parser refused by name."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None


def _matrix_from_text(text: str, what: str) -> IntMatrix:
    data = _parse_json(text, what)
    if isinstance(data, dict):
        if "entries" not in data:
            raise ValueError("matrix object has no 'entries' key")
        data = data["entries"]
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a non-empty list of rows")
    _check_json_ints(data, "matrix", 2)
    return IntMatrix.from_rows(data)


def _load_matrix(args) -> IntMatrix:
    if getattr(args, "matrix", None):
        return _matrix_from_text(args.matrix, "--matrix")
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            return _matrix_from_text(fh.read(), "--matrix-file")
    raise ValueError("provide --matrix or --matrix-file")


def _matrix_json(m: IntMatrix) -> dict:
    return {"rows": m.n_rows, "cols": m.n_cols, "entries": m.to_lists()}


def _word_text(word, rank: int):
    if rank <= 9:
        return "".join(str(g) for g in word)
    return list(word)


def _poly_json(p) -> dict:
    return {"coeffs": list(p.coeffs), "text": str(p)}


def _emit(args, inputs, results, anchors, lines) -> None:
    if args.json:
        report = {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "paper_anchors": anchors,
        }
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


# --- subcommand handlers ---------------------------------------------------------


def _cmd_cells(args) -> int:
    system = CoxeterSystem.from_name(args.type)
    table = cell_table(system, max_length=args.max_length)
    rank = system.rank
    boxes = [
        [[_word_text(w, rank) for w in table.box(i, j)] for j in system.generators]
        for i in system.generators
    ]
    results = {
        "type": system.name,
        "rank": rank,
        "size": table.size,
        "elements": [_word_text(w, rank) for w in table.elements],
        "boxes": boxes,
    }
    lines = [f"unique-expression elements of {system.name}: {table.size}"]
    for i in system.generators:
        for j in system.generators:
            box = table.box(i, j)
            if box:
                words = ", ".join(str(_word_text(w, rank)) for w in box)
                lines.append(f"R{i} x L{j}: {words}")
    inputs = {"type": args.type, "max_length": args.max_length}
    _emit(args, inputs, results, [f"cell-table:{system.name}"], lines)
    return 0


def _cmd_fibpoly(args) -> int:
    indices = [args.i] if args.upto is None else range(args.upto + 1)
    rows = []
    lines = []
    for i in indices:
        f = fib_f(i)
        g = fib_g(i)
        fbar = fib_irreducible_factor(i)
        ok = check_fg_relation(i)
        rows.append({"i": i, "f": _poly_json(f), "g": _poly_json(g),
                     "fbar": _poly_json(fbar), "relation_ok": ok})
        lines.append(
            f"i={i}: f = {f}; g = {g}; fbar = {fbar}; "
            f"substitution identity {'holds' if ok else 'FAILS'}"
        )
    anchors = ["polynomial-family:f", "polynomial-family:g", "factor-table"]
    _emit(args, {"i": args.i, "upto": args.upto}, rows, anchors, lines)
    return 0


def _cmd_matspec(args) -> int:
    m = _load_matrix(args)
    results: dict = {"matrix": _matrix_json(m)}
    lines = [f"shape: {m.n_rows} x {m.n_cols}"]
    if m.is_square():
        p = charpoly(m)
        results["charpoly"] = _poly_json(p)
        lines.append(f"characteristic polynomial: {p}")
        if m.is_symmetric():
            mp = squarefree_part(p)
            results["minpoly"] = _poly_json(mp)
            lines.append(f"minimal polynomial: {mp}")
    left = minpoly_symmetric(gram(m, "left"))
    right = minpoly_symmetric(gram(m, "right"))
    results["gram_left_minpoly"] = _poly_json(left)
    results["gram_right_minpoly"] = _poly_json(right)
    below = gram_spectrum_below_4(m)
    results["gram_spectrum_below_4"] = below
    lines.append(f"left Gram minimal polynomial: {left}")
    lines.append(f"right Gram minimal polynomial: {right}")
    lines.append(f"gram spectrum inside [0, 4): {'yes' if below else 'no'}")
    try:
        level = _level_of_minpolys(left, right)
        results["dihedral_level"] = level
        lines.append(f"smallest annihilating level: {level}")
    except ValueError:
        results["dihedral_level"] = None
        lines.append("smallest annihilating level: none up to 120")
    _emit(args, {"matrix": _matrix_json(m)}, results, ["spectral-report"], lines)
    return 0


def _cmd_classify_matrix(args) -> int:
    m = _load_matrix(args)
    mc = classify_under4(m)
    results = {
        "kind": mc.kind,
        "transposed": mc.transposed,
        "variant": mc.variant,
        "shape": [mc.n_rows, mc.n_cols],
        "representative": _matrix_json(mc.matrix),
        "description": mc.describe(),
    }
    _emit(args, {"matrix": _matrix_json(m)}, results, ["classification-under-4"],
          [f"class: {mc.describe()}"])
    return 0


def _cmd_oracle_under4(args) -> int:
    classes = brute_force_under4(
        args.rows, args.cols, max_entry=args.max_entry,
        prefilter=not args.no_prefilter,
    )
    expected = {
        canonical_form(mc.matrix).rows
        for mc in generators_for_shape(args.rows, args.cols)
    }
    found = {m.rows for m in classes}
    results = {
        "count": len(classes),
        "classes": [_matrix_json(m) for m in classes],
        "matches_expected_families": found == expected,
    }
    lines = [f"classes with Gram spectrum in [0, 4): {len(classes)}"]
    for m in classes:
        lines.append("  " + json.dumps(m.to_lists()))
    lines.append(
        "matches the expected families: "
        + ("yes" if results["matches_expected_families"] else "NO")
    )
    inputs = {
        "rows": args.rows,
        "cols": args.cols,
        "max_entry": args.max_entry,
        "prefilter": not args.no_prefilter,
    }
    _emit(args, inputs, results, ["exhaustive-search-under-4"], lines)
    return 0


def _cmd_enumerate_b(args) -> int:
    candidates = enumerate_B(args.n)
    results = [
        {
            "matrix": _matrix_json(c.matrix),
            "family": c.family,
            "transposed": c.transposed,
            "hypothetical": c.hypothetical,
            "variant": c.variant,
            "description": c.describe(),
        }
        for c in candidates
    ]
    lines = [f"candidates at level {args.n}: {len(candidates)}"]
    for c in candidates:
        lines.append(f"  {c.describe()}: {json.dumps(c.matrix.to_lists())}")
    _emit(args, {"n": args.n}, results, [f"dihedral-candidates:level-{args.n}"],
          lines)
    return 0


def _cmd_dihedral_table(args) -> int:
    labels, gamma = structure_constants(args.n)
    results = {"labels": list(labels), "gamma": [
        [list(row) for row in plane] for plane in gamma
    ]}
    lines = [f"basis of the level-{args.n} algebra: {', '.join(labels)}"]
    size = len(labels)
    for i in range(size):
        for j in range(size):
            terms = [
                (gamma[i][j][k], labels[k])
                for k in range(size)
                if gamma[i][j][k]
            ]
            text = " + ".join(
                lab if c == 1 else f"{c}*{lab}" for c, lab in terms
            ) or "0"
            lines.append(f"{labels[i]} * {labels[j]} = {text}")
    _emit(args, {"n": args.n}, results, [f"dihedral-algebra:level-{args.n}"], lines)
    return 0


def _cmd_verify_rank3(args) -> int:
    system = CoxeterSystem.from_name(args.type)
    try:
        sizes = tuple(int(x) for x in args.sizes.split(","))
    except ValueError:
        raise ValueError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    m = _load_matrix(args)
    problems = assembly_violations(
        system, sizes, m, require_size_multiple=args.require_size_multiple
    )
    results = {"valid": not problems, "violations": problems}
    lines = ["valid candidate" if not problems else "not a candidate:"]
    lines += [f"  {p}" for p in problems]
    inputs = {
        "type": system.name,
        "sizes": list(sizes),
        "matrix": _matrix_json(m),
        "require_size_multiple": args.require_size_multiple,
    }
    _emit(args, inputs, results, [f"assembly-check:{system.name}"], lines)
    return 0


def _cmd_special(args) -> int:
    candidates = special_modules(args.type)
    results: dict = {
        "candidates": [
            {"sizes": list(c.sizes), "matrix": _matrix_json(c.matrix)}
            for c in candidates
        ]
    }
    lines = [f"reference candidates for {args.type.upper()}: {len(candidates)}"]
    for c in candidates:
        lines.append(f"  sizes {c.sizes}: {json.dumps(c.matrix.to_lists())}")
    token = args.type.strip().upper()
    if token in ("H3", "H4"):
        shared = shared_top_eigenvalue(token)
        results["shared_top_eigenvalue"] = round(shared.value, 10)
        lines.append(f"shared top eigenvalue: {shared.value:.7f}")
    lam, vec = pf_vector(candidates[0].matrix)
    results["top_eigenvalue"] = round(lam, 10)
    results["positive_eigenvector"] = [round(x, 10) for x in vec]
    lines.append(f"top eigenvalue of the first candidate: {lam:.7f}")
    lines.append(
        "positive eigenvector (max entry 1): "
        + ", ".join(f"{x:.6f}" for x in vec)
    )
    anchors = [f"special-candidates:{token}"]
    if token in ("H3", "H4"):
        anchors.append(f"shared-eigenvalue:{token}")
    _emit(args, {"type": args.type}, results, anchors, lines)
    return 0


def _cmd_quiver(args) -> int:
    m = _load_matrix(args)
    z = ZigzagAlgebra.from_m_matrix(m)
    try:
        dynkin = z.dynkin_type()
        dynkin_note = dynkin
    except NotSimplyLacedDynkinError as exc:
        dynkin = None
        dynkin_note = f"not simply laced Dynkin ({exc})"
    results = {
        "vertices": z.n_vertices,
        "edges": [list(e) for e in z.edges],
        "cartan_matrix": _matrix_json(z.cartan_matrix()),
        "total_dimension": z.total_dimension(),
        "dynkin_type": dynkin,
        "loewy_layers": {
            str(v): [list(layer) for layer in z.loewy_layers(v)]
            for v in range(1, z.n_vertices + 1)
        },
    }
    lines = [
        f"graph: {z.n_vertices} vertices, edges {list(z.edges)}",
        f"algebra dimension: {z.total_dimension()}",
        f"dynkin type: {dynkin_note}",
    ]
    for v in range(1, z.n_vertices + 1):
        layers = " / ".join(
            ",".join(str(x) for x in layer) for layer in z.loewy_layers(v)
        )
        lines.append(f"projective at {v}: {layers}")
    anchors = ["zigzag-algebra", "dynkin-classification"]
    _emit(args, {"matrix": _matrix_json(m)}, results, anchors, lines)
    return 0


def _cmd_cells_of_algebra(args) -> int:
    if args.dihedral_n is not None:
        algebra = based_algebra_of(args.dihedral_n)
        source = {"dihedral_n": args.dihedral_n}
    else:
        if not args.gamma_file:
            raise ValueError("provide --gamma-file or --dihedral-n")
        with open(args.gamma_file, "r", encoding="utf-8") as fh:
            data = _parse_json(fh.read(), "--gamma-file")
        if not isinstance(data, dict) or "gamma" not in data:
            raise ValueError("--gamma-file must hold a JSON object with a 'gamma' key")
        _check_json_ints(data["gamma"], "gamma", 3)
        _check_json_ints(data.get("identity", 0), "identity", 0)
        labels = data.get("labels") or [
            str(i) for i in range(len(data["gamma"]))
        ]
        if not isinstance(labels, list):
            raise ValueError(f"labels must be a list, got {json.dumps(labels)}")
        algebra = BasedAlgebra.make(
            labels, data["gamma"], identity=data.get("identity", 0)
        )
        source = {"gamma_file": args.gamma_file}
    results = {}
    lines = []
    for side in ("left", "right", "two_sided"):
        partition = (
            algebra.two_sided_cells if side == "two_sided" else algebra.cells(side)
        )
        cells = [
            [algebra.labels[i] for i in cell] for cell in partition.cells
        ]
        results[side] = cells
        lines.append(f"{side} cells: " + " | ".join(
            "{" + ", ".join(cell) + "}" for cell in cells
        ))
    _emit(args, source, results, ["cell-partition"], lines)
    return 0


def _cmd_apex(args) -> int:
    m = _load_matrix(args)
    n = args.n if args.n is not None else recover_n(m)
    rep = DihedralRep(n, m)  # refuses a level the matrix does not present
    level = n if args.n is None else recover_n(m, bound=n)
    if level != n:  # the module law holds at the matrix's own level only
        raise ValueError(f"apex --n {n}: the matrix's level is {level}, not {n}")
    module = based_module_of(rep)
    apex_indices = module.apex()
    labels = module.algebra.labels
    results = {
        "level": n,
        "transitive": module.is_transitive(),
        "apex": [labels[i] for i in apex_indices],
        "annihilated": [labels[i] for i in module.annihilated()],
        "minimal_level": True,
    }
    lines = [
        f"level: {n}",
        f"transitive: {'yes' if results['transitive'] else 'no'}",
        "apex cell: {" + ", ".join(results["apex"]) + "}",
        "annihilated basis elements: "
        + (", ".join(results["annihilated"]) or "none"),
    ]
    inputs = {"n": args.n, "matrix": _matrix_json(m)}
    _emit(args, inputs, results, [f"module-apex:level-{n}"], lines)
    return 0


# --- parser ----------------------------------------------------------------------

_MATRIX_ARGUMENTS = (
    ("--matrix", {"help": "matrix as a JSON list of rows"}),
    ("--matrix-file", {"help": "path to a JSON matrix file"}),
)

# name -> (help, argument specs, handler), one spec (name, add_argument
# keywords) per argument; every command also takes --json
_COMMANDS = {
    "cells": ("unique-expression cell table of a system", (
        ("type", {"help": "Coxeter type, e.g. A3, B4, H3, I2_7"}),
        ("--max-length", {"type": int}),
    ), _cmd_cells),
    "fibpoly": ("the alternating polynomial family",
                (("--i", {"type": int}), ("--upto", {"type": int})), _cmd_fibpoly),
    "matspec": ("exact spectral report of a matrix", _MATRIX_ARGUMENTS, _cmd_matspec),
    "classify-matrix": ("classify a 0-1 matrix with Gram spectrum in [0,4)",
                        _MATRIX_ARGUMENTS, _cmd_classify_matrix),
    "oracle-under4": ("exhaustive search of one shape, up to equivalence", (
        ("--rows", {"type": int, "required": True}),
        ("--cols", {"type": int, "required": True}),
        ("--max-entry", {"type": int, "default": 2}),
        ("--no-prefilter", {"action": "store_true"}),
    ), _cmd_oracle_under4),
    "enumerate-b": ("candidate matrices at a dihedral level",
                    (("--n", {"type": int, "required": True}),), _cmd_enumerate_b),
    "dihedral-table": ("multiplication table of a dihedral level algebra", (
        ("--n", {"type": int, "required": True}),
    ), _cmd_dihedral_table),
    "verify-rank3": ("check a candidate matrix for a higher-rank system", (
        ("--type", {"required": True}),
        ("--sizes", {"required": True, "help": "comma-separated slot sizes"}),
        ("--require-size-multiple", {"action": "store_true"}),
        *_MATRIX_ARGUMENTS,
    ), _cmd_verify_rank3),
    "special": ("reference candidates for a named system",
                (("--type", {"required": True}),), _cmd_special),
    "quiver": ("zigzag algebra of a cell matrix 2I + A",
               _MATRIX_ARGUMENTS, _cmd_quiver),
    "cells-of-algebra": ("cells of a based algebra", (
        ("--gamma-file", {"help": "JSON with labels, gamma, identity"}),
        ("--dihedral-n", {"type": int}),
    ), _cmd_cells_of_algebra),
    "apex": ("apex of the module given by a 0-1 matrix",
             (("--n", {"type": int}), *_MATRIX_ARGUMENTS), _cmd_apex),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for arg, options in _COMMANDS[name][1]:
        p.add_argument(arg, **options)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, one subparser per command: main parses a call that
    names a command with _command_parser, any other call and error here."""
    parser = argparse.ArgumentParser(
        prog="cellspec",
        description="Exact computations with cell combinatorics, "
        "spectra of 0-1 matrices, and candidate module matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built as build_parser builds its
    subparser, so its usage lines, help and errors are the same."""
    return _add_arguments(argparse.ArgumentParser(prog=f"cellspec {name}"), name)


# the smallest value of each bounded integer flag: counts and lengths start
# at 0, dihedral levels at 3
_FLOORS = {
    "cells": {"--max-length": 0},
    "fibpoly": {"--i": 0, "--upto": 0},
    "enumerate-b": {"--n": 3},
    "dihedral-table": {"--n": 3},
    "cells-of-algebra": {"--dihedral-n": 3},
    "apex": {"--n": 3},
}


# the largest searches oracle-under4 runs: matrices tried without the
# prefilter (tens of microseconds each), and rows + cols of the pruned walk
_UNPRUNED_MATRICES = 2**16
_PRUNED_LINES = 14


def _check_oracle_size(args) -> None:
    """Refuse an oracle-under4 search too large to finish; shapes and
    entry bounds below 1 are left to the search's own domain errors."""
    r, c, e = args.rows, args.cols, args.max_entry
    if r < 1 or c < 1 or e < 1:
        return
    if args.no_prefilter:
        # an exponent above 16 already exceeds 2**16 since e + 1 >= 2
        if r * c > 16 or (e + 1) ** (r * c) > _UNPRUNED_MATRICES:
            build_parser().error(
                "oracle-under4 --no-prefilter needs "
                f"(--max-entry + 1) ** (--rows * --cols) <= {_UNPRUNED_MATRICES}"
            )
    elif r + c > _PRUNED_LINES:
        build_parser().error(f"oracle-under4 needs --rows + --cols <= {_PRUNED_LINES}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if extra:  # argparse's own message, under the top-level usage line
            build_parser().error("unrecognized arguments: " + " ".join(extra))
        args.command = argv[0]
    else:
        args = build_parser().parse_args(argv)
    return _run(args)


def _run(args) -> int:
    """Apply the checks argparse cannot express, then run the command."""
    if args.command == "fibpoly" and (args.i is None) == (args.upto is None):
        build_parser().error("fibpoly needs --i or --upto" if args.i is None
                             else "fibpoly takes --i or --upto, not both")
    for flag, floor in _FLOORS.get(args.command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < floor:
            bound = f"at least {floor}" if floor else "non-negative"
            build_parser().error(f"{args.command} {flag} must be {bound}")
    if args.command == "oracle-under4":
        _check_oracle_size(args)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
