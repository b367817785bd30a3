"""Public surface: each library module's ``__all__`` names exactly the
functions and classes it defines without a leading underscore."""

import pytest

from kohncount import asymptotics, exact, spectrum


@pytest.mark.parametrize(
    "module", [exact, spectrum, asymptotics], ids=lambda m: m.__name__
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
