"""The lazy `gha` package: every public name and submodule resolves on access."""

import importlib
import sys
from unittest import mock

import pytest

import gha

_SUBMODULES = ("cli", "errors", "hartree", "hipt", "ladder", "oracle", "qft",
               "tables", "vacuum")


def test_every_public_name_is_the_object_in_its_home_module():
    assert len(gha.__all__) == len(set(gha.__all__)) == 38
    for name in gha.__all__:
        obj = getattr(gha, name)
        home = obj.__module__
        assert home.startswith("gha."), name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_submodules_resolve_as_attributes():
    for name in _SUBMODULES:
        assert getattr(gha, name) is sys.modules[f"gha.{name}"]
    assert gha.oracle._MAX_DIMENSION > 0


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from gha import *", namespace)
    assert set(gha.__all__) <= set(namespace)
    for name in gha.__all__:
        assert namespace[name] is getattr(gha, name)
    assert set(gha.__all__) | set(_SUBMODULES) <= set(dir(gha))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gha.no_such_name


def test_resolved_names_are_not_cached_in_the_package():
    # a wrapper set on the home module shows through gha, and is gone after
    original = gha.solve_level
    with mock.patch.object(gha.hartree, "solve_level") as patched:
        assert gha.solve_level is patched
    assert gha.solve_level is original
    assert "solve_level" not in vars(gha)
