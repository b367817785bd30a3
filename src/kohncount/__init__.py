"""Exact spectrum and Weyl-type asymptotics of the Kohn Laplacian on S^{2n-1}.

The root defines the three names that the submodules share:
``CountingConvention``, ``WorkLimitError`` and ``validate_sphere_n``. So a
module that needs only these, and a command that never counts, loads no
counting code. Everything else is imported from the submodules:
``kohncount.exact``, ``kohncount.spectrum``, ``kohncount.asymptotics`` and
``kohncount.cli``.
"""

import enum

__version__ = "0.1.0"

__all__ = ["CountingConvention", "WorkLimitError", "validate_sphere_n"]


class CountingConvention(enum.Enum):
    """Divisor-restriction convention for the counting functions.

    ``PAPER_RESTRICTED`` sums f(p, q) over divisors p >= n, which drops the
    H_{0,q} eigenspaces; ``FULL_SPECTRUM`` keeps every eigenspace with q >= 1
    (divisors p >= n-1). Every entry that takes a convention reads it as
    ``CountingConvention(conv)``, so a member or its value passes, and
    anything else raises ``ValueError`` before any work.
    """

    PAPER_RESTRICTED = "paper_restricted"
    FULL_SPECTRUM = "full_spectrum"


class WorkLimitError(Exception):
    """A request needs more work than a fixed cap allows, and is refused
    before that work: a count more index steps than
    ``spectrum.MAX_INDEX_STEPS`` (2^40), a spectrum table more entries than
    ``spectrum.MAX_TABLE_ENTRIES`` (2^24), a series more terms than
    ``asymptotics.DEFAULT_MAX_TERMS`` (10^9), a ``converge`` sweep more
    points than ``cli.MAX_LAMBDAS`` (10^5), an evaluation more digits than
    ``exact.validate_digits`` allows (10^5) or a printed value as many, a
    coefficient route (``asymptotics.leading_coefficient_series``,
    ``leading_coefficient_closed`` or ``empirical_report``) an n above
    ``asymptotics.MAX_COEFF_N`` (2000), or ``asymptotics.weyl_ball_constant``
    an n above ``asymptotics.MAX_WEYL_N`` (5000). The CLI exits 3 on it."""


def validate_sphere_n(n: int) -> int:
    """Sphere parameter n for S^{2n-1} in C^n; the formulas need n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("sphere parameter n must be an integer >= 2")
    return n
