"""Former on-disk curve-table tier, kept as one stub for old readers.

Curve tables now build in milliseconds (:mod:`repro.sfc.lut`), so
nothing is stored on disk.  :func:`cache_dir` stays because benchmark
scripts still report it.
"""

from __future__ import annotations


def cache_dir() -> None:
    """No table directory: tables are never stored on disk."""
    return None
