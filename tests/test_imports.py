"""Package import hygiene: no import cycles, an import-on-use root."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.parallel

SRC = str(Path(repro.__file__).resolve().parents[1])
SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                     if info.ispkg)
#: Modules a simulation-only run (the simulator plus the parallel
#: layer's cell helpers) must never load.
NOT_FOR_SIM = ("sqlite3", "multiprocessing", "concurrent.futures",
               "repro.serve", "repro.cluster", "repro.store")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_subpackages_discovered():
    assert {"core", "disk", "faults", "sim", "serve"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_alone(name):
    result = run_fresh(f"import repro.{name}")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("package", [repro, repro.parallel],
                         ids=lambda package: package.__name__)
def test_every_public_name_resolves(package):
    listing = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listing


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_sim_run_leaves_serving_tiers_unloaded():
    result = run_fresh(
        "import sys, repro, repro.sim, repro.parallel\n"
        f"print([m for m in {NOT_FOR_SIM!r} if m in sys.modules])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
