"""The public name lists of the package and its modules agree with each other."""

import pytest

import coinwalk
from coinwalk import analysis, cli, core, disorder, errors

#: The modules whose public names the package re-exports.
REEXPORTED = (core, disorder, analysis, errors)


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
