"""A byte-level transcript of the command line interface.

Each subcommand runs once with and once without --json on fixed inputs,
and two domain errors run as well.  The sha256 of every exit code, stdout
and stderr together must equal a digest recorded before the report
envelope was built in one place; any change to any byte of any report, or
to an exit code, changes the digest.
"""

import hashlib
import json

from cellspec import cli

INVOCATIONS = [
    ("cells", "H3"),
    ("fibpoly", "--upto", "12"),
    ("matspec", "--matrix", "[[1,1,0],[0,1,1],[0,0,1]]"),
    ("classify-matrix", "--matrix", "[[1,0,0],[1,1,1],[0,0,1]]"),
    ("oracle-under4", "--rows", "2", "--cols", "3"),
    ("enumerate-b", "--n", "12"),
    ("dihedral-table", "--n", "5"),
    (
        "verify-rank3",
        "--type",
        "B3",
        "--sizes",
        "2,1,1",
        "--matrix",
        "[[2,0,1,0],[0,2,1,0],[1,1,2,0],[0,0,0,2]]",
    ),
    ("special", "--type", "H3"),
    ("quiver", "--matrix", "[[2,1,0,0],[1,2,1,1],[0,1,2,0],[0,1,0,2]]"),
    ("cells-of-algebra", "--dihedral-n", "7"),
    ("apex", "--matrix", "[[1,0,0],[1,1,1],[0,0,1]]"),
]

DOMAIN_ERRORS = [
    ("matspec", "--matrix", "[[1,2.5]]"),
    ("apex", "--matrix", "[[1,1],[1,1]]"),
]

RECORDED_SHA256 = "e94d5c0f510fd7a159b9a14f7ae565f1664ea37f1257367e1861636e98520671"


def transcript(capsys) -> str:
    records = []
    for argv in INVOCATIONS:
        for extra in ((), ("--json",)):
            args = list(argv) + list(extra)
            code = cli.main(args)
            captured = capsys.readouterr()
            records.append([args, code, captured.out, captured.err])
    for argv in DOMAIN_ERRORS:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        records.append([list(argv), code, captured.out, captured.err])
    return json.dumps(records, sort_keys=True)


def test_cli_transcript_is_unchanged(capsys):
    text = transcript(capsys)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORDED_SHA256
