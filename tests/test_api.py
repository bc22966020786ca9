"""The public API: every name the package exports resolves."""

import snapclust


def test_all_names_resolve():
    missing = [name for name in snapclust.__all__ if not hasattr(snapclust, name)]
    assert missing == []
    assert len(set(snapclust.__all__)) == len(snapclust.__all__)
