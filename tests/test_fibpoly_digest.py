"""A byte-level record of the polynomial family report, and a memory guard.

The sha256 of `cellspec fibpoly --upto 300 --json` must equal the digest
recorded while f_i and g_i were still built with polynomial products and
f_i(-x^2) by Horner composition; any change to a coefficient, a factor or a
relation verdict changes it.  A cold index far beyond any report must build
in a fresh interpreter without recursion and in memory of the order of the
polynomial itself.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import cellspec
from cellspec import cli

UPTO_300_SHA256 = "c81087c744c3ff146e7b220c7db475574f2e33e9669b24ce92aab35710b4c7d0"
UPTO_300_BYTES = 3794761


def test_upto_300_report_is_unchanged(capsys):
    assert cli.main(["fibpoly", "--upto", "300", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == UPTO_300_BYTES
    assert hashlib.sha256(out).hexdigest() == UPTO_300_SHA256


def test_a_cold_index_builds_in_small_memory():
    # a fresh interpreter, so that the lru_caches start empty.  Linux keeps
    # ru_maxrss across exec, so a child of this large process would report
    # at least this process's peak: the build runs in a grandchild, and its
    # small parent reads the grandchild's peak as RUSAGE_CHILDREN.
    source = Path(cellspec.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    build = (
        "from cellspec.fibpoly import fib_f, fib_g; "
        "print(fib_f(5000).degree, fib_g(3000).degree)"
    )
    code = (
        "import resource, subprocess, sys; "
        f"run = subprocess.run([sys.executable, '-c', {build!r}]); "
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    f_degree, g_degree, returncode, max_rss_kb = map(int, run.stdout.split())
    assert returncode == 0, run.stderr
    assert (f_degree, g_degree) == (2500, 2999)
    assert max_rss_kb < 64 * 1024
