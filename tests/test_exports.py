import importlib

import pytest

MODULES = ["factor", "krylov", "precond", "problems", "sparse", "spectral", "stationary"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sadprec.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"sadprec.{name}.__all__ names undefined {missing}"
