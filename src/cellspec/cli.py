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
import json
import sys

from .based_algebra import BasedAlgebra
from .coxeter import CoxeterSystem, cell_table
from .dihedral import (
    DihedralRep,
    based_algebra_of,
    based_module_of,
    enumerate_B,
    recover_n,
    structure_constants,
)
from .fibpoly import check_fg_relation, fib_f, fib_g, fib_irreducible_factor
from .higher_rank import (
    assembly_violations,
    shared_top_eigenvalue,
    special_modules,
)
from .intmat import IntMatrix, charpoly, minpoly_symmetric, pf_vector
from .quiver import NotSimplyLacedDynkinError, ZigzagAlgebra
from .staircase import (
    brute_force_under4,
    canonical_form,
    classify_under4,
    generators_for_shape,
    gram_spectrum_below_4,
)


def _check_json_ints(data, what: str) -> None:
    """Raise ValueError unless every entry of the nested JSON lists is an
    integer; floats, strings and booleans are refused, never truncated."""
    if isinstance(data, list):
        for item in data:
            _check_json_ints(item, what)
    elif isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} entry {json.dumps(data)} is not an integer")


def _matrix_from_text(text: str) -> IntMatrix:
    data = json.loads(text)
    if isinstance(data, dict):
        data = data["entries"]
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a non-empty list of rows")
    _check_json_ints(data, "matrix")
    return IntMatrix.from_rows(data)


def _load_matrix(args) -> IntMatrix:
    if getattr(args, "matrix", None):
        return _matrix_from_text(args.matrix)
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file, "r", encoding="utf-8") as fh:
            return _matrix_from_text(fh.read())
    raise ValueError("provide --matrix or --matrix-file")


def _matrix_json(m: IntMatrix) -> dict:
    return {"rows": m.n_rows, "cols": m.n_cols, "entries": m.to_lists()}


def _word_text(word, rank: int):
    if rank <= 9:
        return "".join(str(g) for g in word)
    return list(word)


def _poly_json(p) -> dict:
    return {"coeffs": list(p.coeffs), "text": str(p)}


def _emit(args, report: dict, lines) -> None:
    if args.json:
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
    report = {
        "command": "cells",
        "inputs": {"type": args.type, "max_length": args.max_length},
        "results": results,
        "paper_anchors": [f"cell-table:{system.name}"],
    }
    lines = [f"unique-expression elements of {system.name}: {table.size}"]
    for i in system.generators:
        for j in system.generators:
            box = table.box(i, j)
            if box:
                words = ", ".join(str(_word_text(w, rank)) for w in box)
                lines.append(f"R{i} x L{j}: {words}")
    _emit(args, report, lines)
    return 0


def _cmd_fibpoly(args) -> int:
    if args.upto is not None:
        indices = list(range(0, args.upto + 1))
    else:
        indices = [args.i]
    rows = []
    lines = []
    for i in indices:
        f = fib_f(i)
        g = fib_g(i)
        fbar = fib_irreducible_factor(i)
        ok = check_fg_relation(i)
        rows.append(
            {
                "i": i,
                "f": _poly_json(f),
                "g": _poly_json(g),
                "fbar": _poly_json(fbar),
                "relation_ok": ok,
            }
        )
        lines.append(
            f"i={i}: f = {f}; g = {g}; fbar = {fbar}; "
            f"substitution identity {'holds' if ok else 'FAILS'}"
        )
    report = {
        "command": "fibpoly",
        "inputs": {"i": args.i, "upto": args.upto},
        "results": rows,
        "paper_anchors": ["polynomial-family:f", "polynomial-family:g",
                          "factor-table"],
    }
    _emit(args, report, lines)
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
            mp = minpoly_symmetric(m)
            results["minpoly"] = _poly_json(mp)
            lines.append(f"minimal polynomial: {mp}")
    left = m @ m.transpose()
    right = m.transpose() @ m
    results["gram_left_minpoly"] = _poly_json(minpoly_symmetric(left))
    results["gram_right_minpoly"] = _poly_json(minpoly_symmetric(right))
    below = gram_spectrum_below_4(m)
    results["gram_spectrum_below_4"] = below
    lines.append(f"left Gram minimal polynomial: {results['gram_left_minpoly']['text']}")
    lines.append(
        f"right Gram minimal polynomial: {results['gram_right_minpoly']['text']}"
    )
    lines.append(f"gram spectrum inside [0, 4): {'yes' if below else 'no'}")
    try:
        level = recover_n(m)
        results["dihedral_level"] = level
        lines.append(f"smallest annihilating level: {level}")
    except ValueError:
        results["dihedral_level"] = None
        lines.append("smallest annihilating level: none up to 120")
    report = {
        "command": "matspec",
        "inputs": {"matrix": _matrix_json(m)},
        "results": results,
        "paper_anchors": ["spectral-report"],
    }
    _emit(args, report, lines)
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
    report = {
        "command": "classify-matrix",
        "inputs": {"matrix": _matrix_json(m)},
        "results": results,
        "paper_anchors": ["classification-under-4"],
    }
    _emit(args, report, [f"class: {mc.describe()}"])
    return 0


def _cmd_oracle_under4(args) -> int:
    classes = brute_force_under4(
        args.rows, args.cols, max_entry=args.max_entry,
        prefilter=not args.no_prefilter,
    )
    expected = {
        tuple(map(tuple, canonical_form(mc.matrix).rows))
        for mc in generators_for_shape(args.rows, args.cols)
    }
    found = {m.rows for m in classes}
    results = {
        "count": len(classes),
        "classes": [_matrix_json(m) for m in classes],
        "matches_expected_families": found == expected,
    }
    report = {
        "command": "oracle-under4",
        "inputs": {
            "rows": args.rows,
            "cols": args.cols,
            "max_entry": args.max_entry,
            "prefilter": not args.no_prefilter,
        },
        "results": results,
        "paper_anchors": ["exhaustive-search-under-4"],
    }
    lines = [f"classes with Gram spectrum in [0, 4): {len(classes)}"]
    for m in classes:
        lines.append("  " + json.dumps(m.to_lists()))
    lines.append(
        "matches the expected families: "
        + ("yes" if results["matches_expected_families"] else "NO")
    )
    _emit(args, report, lines)
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
    report = {
        "command": "enumerate-b",
        "inputs": {"n": args.n},
        "results": results,
        "paper_anchors": [f"dihedral-candidates:level-{args.n}"],
    }
    lines = [f"candidates at level {args.n}: {len(candidates)}"]
    for c in candidates:
        lines.append(f"  {c.describe()}: {json.dumps(c.matrix.to_lists())}")
    _emit(args, report, lines)
    return 0


def _cmd_dihedral_table(args) -> int:
    labels, gamma = structure_constants(args.n)
    results = {"labels": list(labels), "gamma": [
        [list(row) for row in plane] for plane in gamma
    ]}
    report = {
        "command": "dihedral-table",
        "inputs": {"n": args.n},
        "results": results,
        "paper_anchors": [f"dihedral-algebra:level-{args.n}"],
    }
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
    _emit(args, report, lines)
    return 0


def _cmd_verify_rank3(args) -> int:
    system = CoxeterSystem.from_name(args.type)
    sizes = tuple(int(x) for x in args.sizes.split(","))
    m = _load_matrix(args)
    problems = assembly_violations(
        system, sizes, m, require_size_multiple=args.require_size_multiple
    )
    results = {"valid": not problems, "violations": problems}
    report = {
        "command": "verify-rank3",
        "inputs": {
            "type": system.name,
            "sizes": list(sizes),
            "matrix": _matrix_json(m),
            "require_size_multiple": args.require_size_multiple,
        },
        "results": results,
        "paper_anchors": [f"assembly-check:{system.name}"],
    }
    lines = ["valid candidate" if not problems else "not a candidate:"]
    lines += [f"  {p}" for p in problems]
    _emit(args, report, lines)
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
    results["positive_eigenvector"] = [round(x, 10) for x in vec.tolist()]
    lines.append(f"top eigenvalue of the first candidate: {lam:.7f}")
    lines.append(
        "positive eigenvector (max entry 1): "
        + ", ".join(f"{x:.6f}" for x in vec.tolist())
    )
    report = {
        "command": "special",
        "inputs": {"type": args.type},
        "results": results,
        "paper_anchors": [f"special-candidates:{token}"]
        + ([f"shared-eigenvalue:{token}"] if token in ("H3", "H4") else []),
    }
    _emit(args, report, lines)
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
    report = {
        "command": "quiver",
        "inputs": {"matrix": _matrix_json(m)},
        "results": results,
        "paper_anchors": ["zigzag-algebra", "dynkin-classification"],
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
    _emit(args, report, lines)
    return 0


def _cmd_cells_of_algebra(args) -> int:
    if args.dihedral_n is not None:
        algebra = based_algebra_of(args.dihedral_n)
        source = {"dihedral_n": args.dihedral_n}
    else:
        if not args.gamma_file:
            raise ValueError("provide --gamma-file or --dihedral-n")
        with open(args.gamma_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        labels = data.get("labels") or [
            str(i) for i in range(len(data["gamma"]))
        ]
        _check_json_ints(data["gamma"], "gamma")
        _check_json_ints(data.get("identity", 0), "identity")
        algebra = BasedAlgebra.make(
            labels, data["gamma"], identity=data.get("identity", 0)
        )
        source = {"gamma_file": args.gamma_file}
    results = {}
    lines = []
    for side in ("left", "right", "two_sided"):
        partition = algebra.cells(side)
        cells = [
            [algebra.labels[i] for i in cell] for cell in partition.cells
        ]
        results[side] = cells
        lines.append(f"{side} cells: " + " | ".join(
            "{" + ", ".join(cell) + "}" for cell in cells
        ))
    report = {
        "command": "cells-of-algebra",
        "inputs": source,
        "results": results,
        "paper_anchors": ["cell-partition"],
    }
    _emit(args, report, lines)
    return 0


def _cmd_apex(args) -> int:
    m = _load_matrix(args)
    n = args.n if args.n is not None else recover_n(m)
    rep = DihedralRep(n, m)
    module = based_module_of(rep)
    apex_indices = module.apex()
    labels = module.algebra.labels
    results = {
        "level": n,
        "transitive": module.is_transitive(),
        "apex": [labels[i] for i in apex_indices],
        "annihilated": [labels[i] for i in module.annihilated()],
        "minimal_level": rep.has_minimal_level,
    }
    report = {
        "command": "apex",
        "inputs": {"n": args.n, "matrix": _matrix_json(m)},
        "results": results,
        "paper_anchors": [f"module-apex:level-{n}"],
    }
    lines = [
        f"level: {n}",
        f"transitive: {'yes' if results['transitive'] else 'no'}",
        "apex cell: {" + ", ".join(results["apex"]) + "}",
        "annihilated basis elements: "
        + (", ".join(results["annihilated"]) or "none"),
    ]
    _emit(args, report, lines)
    return 0


# --- parser ----------------------------------------------------------------------


def _add_matrix_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="matrix as a JSON list of rows")
    p.add_argument("--matrix-file", help="path to a JSON matrix file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellspec",
        description="Exact computations with cell combinatorics, "
        "spectra of 0-1 matrices, and candidate module matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="unique-expression cell table of a system")
    p.add_argument("type", help="Coxeter type, e.g. A3, B4, H3, I2_7")
    p.add_argument("--max-length", type=int, default=None)
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("fibpoly", help="the alternating polynomial family")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--upto", type=int, default=None)
    p.set_defaults(func=_cmd_fibpoly)

    p = sub.add_parser("matspec", help="exact spectral report of a matrix")
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_matspec)

    p = sub.add_parser(
        "classify-matrix", help="classify a 0-1 matrix with Gram spectrum in [0,4)"
    )
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_classify_matrix)

    p = sub.add_parser(
        "oracle-under4", help="exhaustive search of one shape, up to equivalence"
    )
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--max-entry", type=int, default=2)
    p.add_argument("--no-prefilter", action="store_true")
    p.set_defaults(func=_cmd_oracle_under4)

    p = sub.add_parser("enumerate-b", help="candidate matrices at a dihedral level")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate_b)

    p = sub.add_parser(
        "dihedral-table", help="multiplication table of a dihedral level algebra"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dihedral_table)

    p = sub.add_parser(
        "verify-rank3", help="check a candidate matrix for a higher-rank system"
    )
    p.add_argument("--type", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated slot sizes")
    p.add_argument("--require-size-multiple", action="store_true")
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_verify_rank3)

    p = sub.add_parser("special", help="reference candidates for a named system")
    p.add_argument("--type", required=True)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("quiver", help="zigzag algebra of a cell matrix 2I + A")
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_quiver)

    p = sub.add_parser("cells-of-algebra", help="cells of a based algebra")
    p.add_argument("--gamma-file", help="JSON with labels, gamma, identity")
    p.add_argument("--dihedral-n", type=int, default=None)
    p.set_defaults(func=_cmd_cells_of_algebra)

    p = sub.add_parser("apex", help="apex of the module given by a 0-1 matrix")
    p.add_argument("--n", type=int, default=None)
    _add_matrix_arguments(p)
    p.set_defaults(func=_cmd_apex)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fibpoly" and args.i is None and args.upto is None:
        parser.error("fibpoly needs --i or --upto")
    if args.command == "fibpoly" and args.upto is not None and args.upto < 0:
        parser.error("fibpoly --upto must be non-negative")
    if args.command == "cells" and args.max_length is not None and args.max_length < 0:
        parser.error("cells --max-length must be non-negative")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
