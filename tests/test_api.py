"""Public surface: the package root and each library module's ``__all__``
name exactly the functions and classes it defines without a leading
underscore, the submodules share the root's names, and every entry that
takes a convention reads it as ``CountingConvention(conv)``."""

import re

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


PAPER = kohncount.CountingConvention.PAPER_RESTRICTED

# each entry that takes a convention: a call with it, and the module and
# name of the first work it does past its checks
CONVENTION_READERS = {
    "count_N": (lambda conv: spectrum.count_N(2, 1000, conv), spectrum, "_fork_join"),
    "spectrum_table": (
        lambda conv: spectrum.spectrum_table(3, 20, conv),
        spectrum,
        "_multiplicities_by_runs",
    ),
    "remainder_profile": (
        lambda conv: asymptotics.remainder_profile(2, [256, 1024], conv),
        asymptotics,
        "leading_coefficient_closed",
    ),
    "leading_coefficient_series": (
        lambda conv: asymptotics.leading_coefficient_series(3, conv=conv),
        asymptotics,
        "_series_sum",
    ),
    "leading_coefficient_closed": (
        lambda conv: asymptotics.leading_coefficient_closed(3, conv),
        asymptotics,
        "_inverse_power_coeffs",
    ),
    "empirical_report": (
        lambda conv: asymptotics.empirical_report(2, 4096, conv),
        spectrum,
        "count_N",
    ),
}


@pytest.mark.parametrize("conv", ["paper", "PAPER_RESTRICTED", None])
@pytest.mark.parametrize("name", CONVENTION_READERS)
def test_unknown_convention_refused_before_any_work(monkeypatch, name, conv):
    # none of these may fall through to full_spectrum
    call, module, work = CONVENTION_READERS[name]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} worked with the convention {conv!r}")

    monkeypatch.setattr(module, work, refuse)
    message = f"{conv!r} is not a valid CountingConvention"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(conv)


@pytest.mark.parametrize("name", CONVENTION_READERS)
def test_convention_value_reads_as_its_member(name):
    # the spelling that every output prints gives the member's result, and
    # a report or profile carries the member
    call = CONVENTION_READERS[name][0]
    result = call("paper_restricted")
    assert result == call(PAPER)
    if hasattr(result, "convention"):
        assert result.convention is PAPER
