"""Exact spectrum and Weyl-type asymptotics of the Kohn Laplacian on S^{2n-1}.

Import from the submodules: ``kohncount.exact``, ``kohncount.spectrum``,
``kohncount.asymptotics`` and ``kohncount.cli``.
"""

__version__ = "0.1.0"
