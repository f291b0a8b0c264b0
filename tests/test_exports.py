"""The package's public names."""

import poincarerep


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from poincarerep import *", namespace)
    assert set(poincarerep.__all__) <= set(namespace)
