"""The public name lists of the package and its modules agree with each other.

The benchmark's workloads call the package through its modules, so every
module attribute they use must exist.
"""

import ast
from pathlib import Path

import pytest

import coinwalk
from coinwalk import analysis, cli, core, disorder, errors

#: The modules whose public names the package re-exports.
REEXPORTED = (core, disorder, analysis, errors)

#: The benchmark's workloads, which import coinwalk's modules by name.
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.mark.parametrize("module", [coinwalk, *REEXPORTED, cli], ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def test_package_reexports_exactly_the_module_lists():
    listed = set().union(*(module.__all__ for module in REEXPORTED))
    assert set(coinwalk.__all__) - {"__version__"} == listed
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(coinwalk, name) is getattr(module, name)


@pytest.mark.parametrize("name", ["step", "build_coin_matrix", "CoinSchedule"])
def test_per_step_wrappers_are_gone(name):
    assert not any(hasattr(module, name) for module in (coinwalk, core, disorder))


@pytest.mark.parametrize("module", [*REEXPORTED, cli], ids=lambda m: m.__name__)
def test_every_exception_class_is_a_walk_error(module):
    defined = [
        value for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    ]
    assert all(issubclass(cls, errors.WalkError) for cls in defined)
    if module is errors:
        # the filter finds every class the package documents
        assert len(defined) == len(errors.__all__)


def test_every_module_attribute_the_benchmark_uses_exists():
    tree = ast.parse(BENCH_WORKLOADS.read_text(encoding="utf-8"))
    # the local names `from coinwalk import ...` binds, mapped to their modules
    modules = {
        alias.asname or alias.name: getattr(coinwalk, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "coinwalk"
        for alias in node.names
    }
    assert set(modules) == {"analysis", "cli", "core", "disorder"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    # every module is used, so a renamed import cannot empty the check
    assert {name for name, _ in used} == set(modules)
    missing = sorted(f"{name}.{attr}" for name, attr in used if not hasattr(modules[name], attr))
    assert missing == []
