"""The pruned Dynkin walk at the shapes up to 7x7.

brute_force_under4 is pinned to a sha256 of its class lists on every shape
with both sides at most 7 that test_constructions_digest.py leaves out (it
covers 1..5 by 1..5); the digest was recorded before the walk took the
unused columns in one order only.  The walk's work at (7,6) and (7,7) is
pinned as the number of leaves it hands to _dynkin_key, and every class
found is checked to obey the column rule the walk relies on: the columns a
row of a canonical form uses for the first time are the highest-indexed
columns still unused.
"""

import hashlib
import json

import pytest

from cellspec import staircase

SHAPES = [(r, c) for r in range(1, 8) for c in range(1, 8)]
RECORDED_SHA256 = "126db865a5301bc27b53d993a17b9a4d2be73dc43319071aec42d4dbf68c6d9a"
LEAVES = {(7, 6): 1716, (7, 7): 8513}


@pytest.fixture(scope="module")
def sweep():
    """The classes of every shape in SHAPES, with the leaves each search
    passed to _dynkin_key."""
    classes, leaves = {}, {}
    count = [0]

    def counted(m):
        count[0] += 1
        return dynkin_key(m)

    dynkin_key = staircase._dynkin_key
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(staircase, "_dynkin_key", counted)
        for shape in SHAPES:
            count[0] = 0
            classes[shape] = staircase.brute_force_under4(*shape)
            leaves[shape] = count[0]
    return classes, leaves


def test_classes_up_to_7x7_are_unchanged(sweep):
    classes, _ = sweep
    records = [
        [r, c, [m.rows for m in classes[(r, c)]]]
        for r, c in SHAPES
        if r > 5 or c > 5
    ]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORDED_SHA256


def test_walk_leaves_are_pinned(sweep):
    _, leaves = sweep
    assert {shape: leaves[shape] for shape in LEAVES} == LEAVES


def obeys_column_rule(m) -> bool:
    """Whether each row's first use of columns takes the highest-indexed
    columns that no earlier row has used."""
    used: set[int] = set()
    for row in m.rows:
        support = {j for j, e in enumerate(row) if e}
        unused = [j for j in range(m.n_cols) if j not in used]
        new = sorted(support - used)
        if new != unused[len(unused) - len(new):]:
            return False
        used |= support
    return True


def test_every_canonical_form_obeys_the_column_rule(sweep):
    classes, _ = sweep
    found = [m for shape in SHAPES for m in classes[shape]]
    assert len(found) == 45
    for m in found:
        assert obeys_column_rule(staircase.canonical_form(m)), m.rows


def test_the_column_rule_is_not_vacuous():
    m = staircase.make_staircase(2, 3)
    assert not obeys_column_rule(m)
    assert obeys_column_rule(staircase.canonical_form(m))
