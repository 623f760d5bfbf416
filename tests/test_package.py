"""The package's public surface."""

import hadr


def test_every_export_resolves_once():
    assert len(set(hadr.__all__)) == len(hadr.__all__)
    missing = [name for name in hadr.__all__ if not hasattr(hadr, name)]
    assert missing == []
