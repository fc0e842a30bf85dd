"""The package's public names: the star import and ``cellspec.__all__``."""

import cellspec


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cellspec import *", namespace)
    assert set(cellspec.__all__) <= set(namespace)


def test_all_is_sorted_without_duplicates_and_resolves():
    names = cellspec.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cellspec, name)] == []
