"""The contract of the package's immutable value classes.

For each class: the exact repr text, equality and hashing on the tuple of
fields, keyword construction, refused assignment, deletion and unknown or
missing fields.  A start-up guard checks that importing cellspec pulls in
none of dataclasses, inspect or ast.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellspec.based_algebra import BasedAlgebra, BasedModule, CellPartition
from cellspec.coxeter import CellTable, CoxeterSystem, cell_table
from cellspec.dihedral import DihedralCandidate, DihedralRep, enumerate_B
from cellspec.higher_rank import AssemblyCandidate, SharedEigenvalue, b_family_matrix
from cellspec.intmat import IntMatrix
from cellspec.quiver import ZigzagAlgebra
from cellspec.staircase import MatrixClass, classes_of_type


def _cyclic():
    return BasedAlgebra.make(["e", "g"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 0)


A2 = "CoxeterSystem(name='A2', rank=2, coxeter_matrix=((1, 3), (3, 1)))"
CYCLIC = (
    "BasedAlgebra(labels=('e', 'g'), "
    "gamma=(((1, 0), (0, 1)), ((0, 1), (1, 0))), identity=0)"
)

# (class, factory, field names in order, repr text recorded before the
# value classes dropped dataclasses)
CASES = [
    (IntMatrix, lambda: IntMatrix.from_rows([[1, 2], [3, 4]]), ("rows",),
     "IntMatrix(rows=((1, 2), (3, 4)))"),
    (CoxeterSystem, lambda: CoxeterSystem.from_name("A2"),
     ("name", "rank", "coxeter_matrix"), A2),
    (CellTable, lambda: cell_table(CoxeterSystem.from_name("A2")),
     ("system", "elements", "boxes"),
     f"CellTable(system={A2}, elements=((1,), (2,), (1, 2), (2, 1)), "
     "boxes=((((1,),), ((1, 2),)), (((2, 1),), ((2,),))))"),
    (BasedAlgebra, _cyclic, ("labels", "gamma", "identity"), CYCLIC),
    (CellPartition, lambda: _cyclic().cells("two_sided"),
     ("side", "cells", "cell_of", "leq"),
     "CellPartition(side='two_sided', cells=((0, 1),), cell_of=(0, 0), "
     "leq=((True,),))"),
    (BasedModule, lambda: BasedModule.make(_cyclic(), [IntMatrix.identity(1)] * 2),
     ("algebra", "actions"),
     f"BasedModule(algebra={CYCLIC}, "
     "actions=(IntMatrix(rows=((1,),)), IntMatrix(rows=((1,),))))"),
    (DihedralRep, lambda: DihedralRep(3, IntMatrix.from_rows([[1]])), ("n", "b"),
     "DihedralRep(n=3, b=IntMatrix(rows=((1,),)))"),
    (DihedralCandidate, lambda: enumerate_B(4)[1],
     ("matrix", "n", "family", "transposed", "hypothetical", "variant"),
     "DihedralCandidate(matrix=IntMatrix(rows=((1,), (1,))), n=4, "
     "family='cell', transposed=True, hypothetical=False, variant=None)"),
    (MatrixClass, lambda: classes_of_type("E6")[1],
     ("kind", "matrix", "transposed", "variant"),
     "MatrixClass(kind='exceptional', "
     "matrix=IntMatrix(rows=((1, 1, 0), (0, 1, 0), (0, 1, 1))), "
     "transposed=True, variant=1)"),
    (AssemblyCandidate, lambda: b_family_matrix(3, 1), ("system_name", "sizes", "matrix"),
     "AssemblyCandidate(system_name='B3', sizes=(2, 1, 1), "
     "matrix=IntMatrix(rows=((2, 0, 1, 0), (0, 2, 1, 0), (1, 1, 2, 1), (0, 0, 1, 2))))"),
    (SharedEigenvalue, lambda: SharedEigenvalue("H3", 1.5, 1.25, 1.75),
     ("name", "value", "from_module", "from_reflection"),
     "SharedEigenvalue(name='H3', value=1.5, from_module=1.25, from_reflection=1.75)"),
    (ZigzagAlgebra, lambda: ZigzagAlgebra.from_graph(2, [(1, 2)]), ("n_vertices", "edges"),
     "ZigzagAlgebra(n_vertices=2, edges=((1, 2),))"),
]
IDS = [case[0].__name__ for case in CASES]


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


@pytest.mark.parametrize("cls, make, fields, text", CASES, ids=IDS)
class TestValueClass:
    def test_repr(self, cls, make, fields, text):
        assert repr(make()) == text

    def test_equality_and_hash(self, cls, make, fields, text):
        obj, twin = make(), make()
        assert obj is not twin and obj == twin and not obj != twin
        assert hash(obj) == hash(twin) == hash(_values(obj, fields))
        assert obj.__eq__(_values(obj, fields)) is NotImplemented
        assert obj != _values(obj, fields)
        assert len({obj, twin}) == 1

    def test_keyword_construction(self, cls, make, fields, text):
        obj = make()
        kwargs = dict(zip(fields, _values(obj, fields)))
        assert cls(**kwargs) == obj
        assert type(cls(**kwargs)) is cls

    def test_assignment_and_deletion_refused(self, cls, make, fields, text):
        obj = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert repr(obj) == text

    def test_unknown_or_missing_field_refused(self, cls, make, fields, text):
        kwargs = dict(zip(fields, _values(make(), fields)))
        with pytest.raises(TypeError):
            cls(**kwargs, not_a_field=1)
        del kwargs[fields[0]]
        with pytest.raises(TypeError):
            cls(**kwargs)


def test_candidate_and_class_defaults():
    m = IntMatrix.from_rows([[1]])
    c = DihedralCandidate(matrix=m, n=3, family="cell")
    assert (c.transposed, c.hypothetical, c.variant) == (False, False, None)
    assert c == DihedralCandidate(m, 3, "cell", False, False, None)
    k = MatrixClass(kind="staircase", matrix=m)
    assert (k.transposed, k.variant) == (False, None)
    assert k == MatrixClass("staircase", m, False, None)


def test_dihedral_rep_refuses_a_matrix_of_another_level():
    b = IntMatrix.from_rows([[1]])  # presents level 3, not 4
    with pytest.raises(ValueError, match="does not present this level"):
        DihedralRep(4, b)
    with pytest.raises(ValueError, match="does not present this level"):
        DihedralRep(n=4, b=b)


def test_nonzeros_computed_once_per_instance():
    made = _cyclic()  # make validates, which reads nonzeros
    algebra = BasedAlgebra(made.labels, made.gamma, made.identity)
    twin = BasedAlgebra(made.labels, made.gamma, made.identity)
    assert "nonzeros" not in vars(algebra)
    view = algebra.nonzeros
    assert algebra.nonzeros is view and vars(algebra)["nonzeros"] is view
    assert "nonzeros" not in vars(twin)
    # the cached view is not a field: equality and hashing ignore it
    assert algebra == twin and hash(algebra) == hash(twin)
    assert twin.nonzeros == view and twin.nonzeros is not view
    assert made.nonzeros == view and made.nonzeros is not view


def test_import_loads_no_dataclasses_inspect_or_ast():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys; before = set(sys.modules); import cellspec; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
