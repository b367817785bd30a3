"""Public surface: the package root and each library module's ``__all__``
name exactly the functions and classes it defines without a leading
underscore, and the submodules share the root's names."""

import pytest

import kohncount
from kohncount import asymptotics, exact, spectrum


@pytest.mark.parametrize(
    "module", [kohncount, exact, spectrum, asymptotics], ids=lambda m: m.__name__
)
def test_all_lists_public_functions_and_classes(module):
    public = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)  # functions, cached functions and classes
        and getattr(value, "__module__", None) == module.__name__
    ]
    assert sorted(module.__all__) == sorted(public)


@pytest.mark.parametrize("name", kohncount.__all__)
def test_submodules_bind_the_roots_shared_names(name):
    # defined once, in the root: spectrum re-binds them but does not list
    # them, and the CLI maps the root's error to exit 3
    assert getattr(spectrum, name) is getattr(kohncount, name)
    assert name not in spectrum.__all__
