"""The curve-table cache lives in memory only.

Tables build in milliseconds (repro.sfc.lut), so no table is written
to or read from disk, whatever the environment says: a run leaves the
checkout clean.  What remains is the process-wide cache, one entry per
curve geometry, which an eviction and rebuild must reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sfc import get_curve, lut_cache
from repro.sfc.lut import (LUT_STATS, build_lut, cached_lut_count,
                           clear_lut_cache, curve_lut)


@pytest.fixture(autouse=True)
def clean_cache():
    clear_lut_cache()
    LUT_STATS.reset()
    yield
    clear_lut_cache()


def curve():
    return get_curve("diagonal", 2, 12)


def test_disabled_by_default(tmp_path, monkeypatch):
    """The variables that once enabled an on-disk tier change nothing."""
    monkeypatch.setenv("REPRO_LUT_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_LUT_CACHE", "1")
    monkeypatch.chdir(tmp_path)
    assert lut_cache.cache_dir() is None
    curve_lut(curve())
    assert list(tmp_path.iterdir()) == []
    assert LUT_STATS.builds == 1 and LUT_STATS.disk_loads == 0


def test_round_trip():
    """Evicting a table and building it again gives the same table."""
    built = curve_lut(curve())
    assert curve_lut(curve()) is built
    assert (LUT_STATS.builds, LUT_STATS.hits) == (1, 1)
    clear_lut_cache()
    rebuilt = curve_lut(curve())
    assert LUT_STATS.builds == 2
    assert np.array_equal(rebuilt, built)
    assert np.array_equal(rebuilt, build_lut(curve()))


def test_distinct_geometries_distinct_entries():
    twelve = curve_lut(get_curve("diagonal", 2, 12))
    seven = curve_lut(get_curve("diagonal", 2, 7))
    assert cached_lut_count() == 2
    assert (len(twelve), len(seven)) == (144, 49)
    clear_lut_cache(get_curve("diagonal", 2, 7))
    assert cached_lut_count() == 1
