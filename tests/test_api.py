"""Every name in a module's ``__all__`` exists in that module."""

import importlib

import pytest

MODULES = ("kinematics", "wavepacket", "relstate", "entanglement", "correlations")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"relent.{name}")
    assert len(module.__all__) == len(set(module.__all__)), "a name is listed twice"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
