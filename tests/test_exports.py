"""`mmreg.__all__` lists exactly the public names the package binds, so
`from mmreg import *` neither fails on a stale entry nor misses a name."""

import types

import mmreg


def test_all_has_no_duplicates():
    assert len(mmreg.__all__) == len(set(mmreg.__all__))


def test_all_matches_the_public_names():
    public = {
        name
        for name, value in vars(mmreg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(mmreg.__all__) == public
