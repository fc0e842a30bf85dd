"""A byte-level record of the candidate constructions.

The classified 0-1 families (generators_for_shape), the dihedral candidate
lists (enumerate_B), the pruned oracle (brute_force_under4) and the
higher-rank search (assembly_search) are serialized on fixed inputs.  The
sha256 of that text must equal a digest recorded before these objects were
built directly instead of being enumerated and then deduplicated; any change
to a representative, its order, a flag or a description changes the digest.
"""

import hashlib
import json

from cellspec.coxeter import CoxeterSystem
from cellspec.dihedral import enumerate_B
from cellspec.higher_rank import assembly_search
from cellspec.staircase import brute_force_under4, generators_for_shape

ASSEMBLY_RUNS = [
    ("B3", 16),
    ("B4", 16),
    ("F4", 16),
    ("H3", 16),
    ("H4", 16),
    ("A3", 12),
    ("A4", 12),
    ("D4", 12),
    ("B5", 14),
    ("D5", 10),
    ("B4", 20),
]

RECORDED_SHA256 = {
    "generators_for_shape": (
        "1fe9ea5852dbe0a9fc98fd10d4e5bbd1011f535755e73079b18e9efe49bb0240"
    ),
    "enumerate_B": (
        "bda8f06dec74a5ac562c571cbcf98dcb6fd73a7da41afdb889417671486f146d"
    ),
    "brute_force_under4": (
        "080a6d12645df5807658493d2ffe2536ed27e6ffb4a4adff8879550334b163dd"
    ),
    "assembly_search": (
        "bd951d2e04f9f7494b086ad1a34237e638c9a4f1079547a6f8dcb6f4d9746f15"
    ),
}


def shape_records():
    return [
        [r, c, [
            [mc.kind, mc.transposed, mc.variant, mc.matrix.rows, mc.describe()]
            for mc in generators_for_shape(r, c)
        ]]
        for r in range(1, 13)
        for c in range(1, 13)
    ]


def level_records():
    return [
        [n, [
            [c.matrix.rows, c.n, c.family, c.transposed, c.hypothetical,
             c.variant, c.describe()]
            for c in enumerate_B(n)
        ]]
        for n in range(3, 41)
    ]


def oracle_records():
    return [
        [r, c, [m.rows for m in brute_force_under4(r, c)]]
        for r in range(1, 6)
        for c in range(1, 6)
    ]


def assembly_records():
    return [
        [name, max_total, [
            [cand.system_name, cand.sizes, cand.matrix.rows]
            for cand in assembly_search(CoxeterSystem.from_name(name), max_total)
        ]]
        for name, max_total in ASSEMBLY_RUNS
    ]


RECORDS = {
    "generators_for_shape": shape_records,
    "enumerate_B": level_records,
    "brute_force_under4": oracle_records,
    "assembly_search": assembly_records,
}


def digest(name: str) -> str:
    text = json.dumps(RECORDS[name](), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generators_for_shape_is_unchanged():
    assert digest("generators_for_shape") == RECORDED_SHA256["generators_for_shape"]


def test_enumerate_B_is_unchanged():
    assert digest("enumerate_B") == RECORDED_SHA256["enumerate_B"]


def test_brute_force_under4_is_unchanged():
    assert digest("brute_force_under4") == RECORDED_SHA256["brute_force_under4"]


def test_assembly_search_is_unchanged():
    assert digest("assembly_search") == RECORDED_SHA256["assembly_search"]
