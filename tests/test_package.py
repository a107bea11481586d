"""Tests of the package surface: its version and its public exports."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _packages_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == repro.__version__


@pytest.mark.parametrize("package", _packages_with_all())
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists names it does not define: {missing}"
