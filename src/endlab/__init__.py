"""Polyhedral surfaces in hyperbolic 3-space and its de Sitter extension.

Subpackages cover the Minkowski-model geometry kernel (mink), surface
combinatorics (cellsurf, surfgroup), partial edge orientations (decor),
geometric polyhedral surfaces (polysurf), infinitesimal rigidity operators
(rigidity), cross-ratio coordinates (crossratio), volume and variational
checks (volume), and the ``endlab`` command line (cli).

Imports sit at module level, except scipy's submodules and ``fixtures``:
imported where used, they stay off ``endlab.cli``'s path.  ``surfgroup`` is
pure Python and on that path, through cellsurf.
"""

__version__ = "0.1.0"

FORMAT_VERSIONS = {
    "surf": "surf v1",
    "poly": "poly v1",
    "cr": "cr v1",
    "decor": "decor v1",
    "rigidity": "rigidity v1",
}
