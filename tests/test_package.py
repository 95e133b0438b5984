"""The package namespace."""

import cinfer


def test_star_import_binds_exactly_the_exported_names():
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec("from cinfer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(cinfer.__all__))
    assert len(cinfer.__all__) == len(namespace)
