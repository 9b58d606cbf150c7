"""The package's public surface: what ``import cbckit`` exports."""

import ast
from pathlib import Path

import cbckit
from cbckit import errors

REMOVED = ("Profile", "profile", "truncate_to_k", "greedy_code", "min_distance",
           "check_inequality", "OversizedSet", "InsufficientCode")


def test_public_names_resolve_and_match_the_imports():
    tree = ast.parse(Path(cbckit.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name != "annotations"}
    assert sorted(cbckit.__all__) == sorted(imported)
    assert len(set(cbckit.__all__)) == len(cbckit.__all__)
    for name in cbckit.__all__:
        assert getattr(cbckit, name) is not None, name


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(cbckit.__all__)
    for name in REMOVED:
        assert not hasattr(cbckit, name), name


def test_removed_error_classes_are_gone():
    # One class per failure: FormatError for text, BudgetExceeded for search.
    for name in ("MalformedHeader", "MalformedItemLine", "ServerIndexOutOfRange",
                 "EmptyItemSet", "Unknown"):
        assert not hasattr(errors, name), name
