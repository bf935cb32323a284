"""The package's public names."""

import randnet


def test_every_exported_name_resolves():
    missing = [name for name in randnet.__all__ if not hasattr(randnet, name)]
    assert not missing
    assert len(set(randnet.__all__)) == len(randnet.__all__)
