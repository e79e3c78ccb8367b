"""The package's public names: ``mpslam_bounds.__all__`` is what a star
import binds, so a stale entry breaks every ``from mpslam_bounds import *``."""

import mpslam_bounds


def test_every_exported_name_resolves_once():
    names = mpslam_bounds.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mpslam_bounds, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mpslam_bounds import *", namespace)
    assert set(mpslam_bounds.__all__) <= set(namespace)
