"""Command-line interface.

Every subcommand accepts --json for a machine-readable report of the shape
{"command": ..., "inputs": ..., "results": ..., "paper_anchors": [...]},
serialized deterministically (sorted keys, fixed separators).  Matrices are
serialized as {"rows": r, "cols": c, "entries": [[...], ...]}.  Without
--json a subcommand prints human-readable lines instead, computed only then.
Exit codes: 0 on success, 1 on a domain error (bad matrix, failed
classification, out of range spectrum), 2 on usage errors, and 141
(128 + SIGPIPE) with nothing on stderr when stdout is closed before the
report is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    """json.loads, with input the parser refuses named: malformed JSON,
    nesting too deep, or an integer past the interpreter's digit limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ValueError(f"{what} holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


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


# --- subcommand handlers ---------------------------------------------------------
# Each handler computes everything, yields its report (inputs, results,
# paper anchors), then yields its text lines, which only a text call draws.


def _cmd_cells(args):
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
    inputs = {"type": args.type, "max_length": args.max_length}
    yield inputs, results, [f"cell-table:{system.name}"]
    yield f"unique-expression elements of {system.name}: {table.size}"
    for i, row in zip(system.generators, boxes):
        for j, box in zip(system.generators, row):
            if box:
                yield f"R{i} x L{j}: " + ", ".join(str(w) for w in box)


def _cmd_fibpoly(args):
    indices = [args.i] if args.upto is None else range(args.upto + 1)
    rows = [
        {"i": i, "f": _poly_json(fib_f(i)), "g": _poly_json(fib_g(i)),
         "fbar": _poly_json(fib_irreducible_factor(i)),
         "relation_ok": check_fg_relation(i)}
        for i in indices
    ]
    anchors = ["polynomial-family:f", "polynomial-family:g", "factor-table"]
    yield {"i": args.i, "upto": args.upto}, rows, anchors
    for row in rows:
        yield (
            f"i={row['i']}: f = {row['f']['text']}; g = {row['g']['text']}; "
            f"fbar = {row['fbar']['text']}; "
            f"substitution identity {'holds' if row['relation_ok'] else 'FAILS'}"
        )


def _cmd_matspec(args):
    m = _load_matrix(args)
    polys = {}
    if m.is_square():
        p = polys["charpoly"] = charpoly(m)
        if m.is_symmetric():
            polys["minpoly"] = squarefree_part(p)
    left = polys["gram_left_minpoly"] = minpoly_symmetric(gram(m, "left"))
    right = polys["gram_right_minpoly"] = minpoly_symmetric(gram(m, "right"))
    try:  # str() refuses an int past the interpreter's digit limit
        results = {key: _poly_json(poly) for key, poly in polys.items()}
    except ValueError:
        raise ValueError(f"matspec: an output number has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    results["matrix"] = _matrix_json(m)
    results["gram_spectrum_below_4"] = gram_spectrum_below_4(m)
    try:
        results["dihedral_level"] = _level_of_minpolys(left, right)
    except ValueError:
        results["dihedral_level"] = None
    yield {"matrix": _matrix_json(m)}, results, ["spectral-report"]
    yield f"shape: {m.n_rows} x {m.n_cols}"
    for key, name in (("charpoly", "characteristic"), ("minpoly", "minimal"),
                      ("gram_left_minpoly", "left Gram minimal"),
                      ("gram_right_minpoly", "right Gram minimal")):
        if key in results:
            yield f"{name} polynomial: {results[key]['text']}"
    yield "gram spectrum inside [0, 4): " + (
        "yes" if results["gram_spectrum_below_4"] else "no")
    level = results["dihedral_level"]
    yield f"smallest annihilating level: {'none up to 120' if level is None else level}"


def _cmd_classify_matrix(args):
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
    yield {"matrix": _matrix_json(m)}, results, ["classification-under-4"]
    yield f"class: {results['description']}"


def _cmd_oracle_under4(args):
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
    inputs = {
        "rows": args.rows,
        "cols": args.cols,
        "max_entry": args.max_entry,
        "prefilter": not args.no_prefilter,
    }
    yield inputs, results, ["exhaustive-search-under-4"]
    yield f"classes with Gram spectrum in [0, 4): {len(classes)}"
    for m in results["classes"]:
        yield "  " + json.dumps(m["entries"])
    yield "matches the expected families: " + (
        "yes" if results["matches_expected_families"] else "NO")


def _cmd_enumerate_b(args):
    results = [
        {
            "matrix": _matrix_json(c.matrix),
            "family": c.family,
            "transposed": c.transposed,
            "hypothetical": c.hypothetical,
            "variant": c.variant,
            "description": c.describe(),
        }
        for c in enumerate_B(args.n)
    ]
    yield {"n": args.n}, results, [f"dihedral-candidates:level-{args.n}"]
    yield f"candidates at level {args.n}: {len(results)}"
    for c in results:
        yield f"  {c['description']}: {json.dumps(c['matrix']['entries'])}"


def _cmd_dihedral_table(args):
    labels, gamma = structure_constants(args.n)  # tuples dump as JSON arrays
    results = {"labels": labels, "gamma": gamma}
    yield {"n": args.n}, results, [f"dihedral-algebra:level-{args.n}"]
    yield f"basis of the level-{args.n} algebra: {', '.join(labels)}"
    # every product is nonzero: its shortest word survives the fold
    for left, plane in zip(labels, gamma):
        for right, row in zip(labels, plane):
            text = " + ".join(
                lab if c == 1 else f"{c}*{lab}" for c, lab in zip(row, labels) if c
            )
            yield f"{left} * {right} = {text}"


def _cmd_verify_rank3(args):
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
    inputs = {
        "type": system.name,
        "sizes": list(sizes),
        "matrix": _matrix_json(m),
        "require_size_multiple": args.require_size_multiple,
    }
    results = {"valid": not problems, "violations": problems}
    yield inputs, results, [f"assembly-check:{system.name}"]
    yield "valid candidate" if not problems else "not a candidate:"
    for p in problems:
        yield f"  {p}"


def _cmd_special(args):
    candidates = special_modules(args.type)
    results: dict = {
        "candidates": [
            {"sizes": list(c.sizes), "matrix": _matrix_json(c.matrix)}
            for c in candidates
        ]
    }
    token = args.type.strip().upper()
    anchors = [f"special-candidates:{token}"]
    shared = None
    if token in ("H3", "H4"):
        shared = shared_top_eigenvalue(token).value
        results["shared_top_eigenvalue"] = round(shared, 10)
        anchors.append(f"shared-eigenvalue:{token}")
    lam, vec = pf_vector(candidates[0].matrix)
    results["top_eigenvalue"] = round(lam, 10)
    results["positive_eigenvector"] = [round(x, 10) for x in vec]
    yield {"type": args.type}, results, anchors
    yield f"reference candidates for {args.type.upper()}: {len(candidates)}"
    for c, row in zip(candidates, results["candidates"]):
        yield f"  sizes {c.sizes}: {json.dumps(row['matrix']['entries'])}"
    if shared is not None:
        yield f"shared top eigenvalue: {shared:.7f}"
    yield f"top eigenvalue of the first candidate: {lam:.7f}"
    yield "positive eigenvector (max entry 1): " + ", ".join(f"{x:.6f}" for x in vec)


def _cmd_quiver(args):
    m = _load_matrix(args)
    z = ZigzagAlgebra.from_m_matrix(m)
    try:
        dynkin = dynkin_note = z.dynkin_type()
    except NotSimplyLacedDynkinError as exc:
        dynkin, dynkin_note = None, f"not simply laced Dynkin ({exc})"
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
    anchors = ["zigzag-algebra", "dynkin-classification"]
    yield {"matrix": _matrix_json(m)}, results, anchors
    yield f"graph: {z.n_vertices} vertices, edges {list(z.edges)}"
    yield f"algebra dimension: {results['total_dimension']}"
    yield f"dynkin type: {dynkin_note}"
    for v, layers in results["loewy_layers"].items():
        yield f"projective at {v}: " + " / ".join(
            ",".join(str(x) for x in layer) for layer in layers
        )


def _cmd_cells_of_algebra(args):
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
    results = {
        side: [[algebra.labels[i] for i in cell] for cell in algebra.cells(side).cells]
        for side in ("left", "right", "two_sided")
    }
    yield source, results, ["cell-partition"]
    for side, cells in results.items():
        yield f"{side} cells: " + " | ".join(
            "{" + ", ".join(cell) + "}" for cell in cells
        )


def _cmd_apex(args):
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
    yield {"n": args.n, "matrix": _matrix_json(m)}, results, [f"module-apex:level-{n}"]
    yield f"level: {n}"
    yield f"transitive: {'yes' if results['transitive'] else 'no'}"
    yield "apex cell: {" + ", ".join(results["apex"]) + "}"
    yield "annihilated basis elements: " + (", ".join(results["annihilated"]) or "none")


# --- parser ----------------------------------------------------------------------

_MATRIX_ARGUMENTS = (
    ("--matrix", {"help": "matrix as a JSON list of rows"}),
    ("--matrix-file", {"help": "path to a JSON matrix file"}),
)

# name -> (help, argument specs, handler), one spec (name, add_argument
# keywords) per argument; every command also takes --json.  "floor" is the
# least value of a bounded integer flag: 0 for counts, 3 for dihedral levels
_COMMANDS = {
    "cells": ("unique-expression cell table of a system", (
        ("type", {"help": "Coxeter type, e.g. A3, B4, H3, I2_7"}),
        ("--max-length", {"type": int, "floor": 0}),
    ), _cmd_cells),
    "fibpoly": ("the alternating polynomial family", (
        ("--i", {"type": int, "floor": 0}), ("--upto", {"type": int, "floor": 0}),
    ), _cmd_fibpoly),
    "matspec": ("exact spectral report of a matrix", _MATRIX_ARGUMENTS, _cmd_matspec),
    "classify-matrix": ("classify a 0-1 matrix with Gram spectrum in [0,4)",
                        _MATRIX_ARGUMENTS, _cmd_classify_matrix),
    "oracle-under4": ("exhaustive search of one shape, up to equivalence", (
        ("--rows", {"type": int, "required": True}),
        ("--cols", {"type": int, "required": True}),
        ("--max-entry", {"type": int, "default": 2}),
        ("--no-prefilter", {"action": "store_true"}),
    ), _cmd_oracle_under4),
    "enumerate-b": ("candidate matrices at a dihedral level", (
        ("--n", {"type": int, "required": True, "floor": 3}),
    ), _cmd_enumerate_b),
    "dihedral-table": ("multiplication table of a dihedral level algebra", (
        ("--n", {"type": int, "required": True, "floor": 3}),
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
        ("--dihedral-n", {"type": int, "floor": 3}),
    ), _cmd_cells_of_algebra),
    "apex": ("apex of the module given by a 0-1 matrix",
             (("--n", {"type": int, "floor": 3}), *_MATRIX_ARGUMENTS), _cmd_apex),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for arg, options in _COMMANDS[name][1]:
        p.add_argument(arg, **{k: v for k, v in options.items() if k != "floor"})
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
    """Apply the checks argparse cannot express, run the command, and write
    its report to stdout: the JSON envelope with --json, else its text."""
    if args.command == "fibpoly" and (args.i is None) == (args.upto is None):
        build_parser().error("fibpoly needs --i or --upto" if args.i is None
                             else "fibpoly takes --i or --upto, not both")
    for flag, options in _COMMANDS[args.command][1]:
        floor = options.get("floor")
        value = None if floor is None else getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < floor:
            bound = f"at least {floor}" if floor else "non-negative"
            build_parser().error(f"{args.command} {flag} must be {bound}")
    if args.command == "oracle-under4":
        _check_oracle_size(args)
    try:
        report = _COMMANDS[args.command][2](args)
        inputs, results, anchors = next(report)
        if args.json:
            text = json.dumps(
                {"command": args.command, "inputs": inputs, "results": results,
                 "paper_anchors": anchors},
                sort_keys=True, separators=(",", ":"),
            )
        else:
            text = "\n".join(report)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout: exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
