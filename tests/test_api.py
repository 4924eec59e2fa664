"""The package namespace: every exported name resolves."""

import ramwedge


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from ramwedge import *", namespace)
    assert len(set(ramwedge.__all__)) == len(ramwedge.__all__)
    assert set(ramwedge.__all__) <= set(namespace)
    assert not [name for name in ramwedge.__all__ if name.startswith("_")]
