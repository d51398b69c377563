"""maform: Monge-Ampere foliations, Moser normalization and deformation
invariants of complete circular domains at desk scale.

Convention used throughout: dc = i(dbar - d), so d(dc) = 2i d dbar and
d(dc)|z|^2 = 4 dx^dy.  This convention line is repeated in every report
header emitted by the command line tools.

MAFORM_THREADS caps the linear algebra thread pools.  The pools read their
variables once, when numpy is first imported, so the cap is applied here,
before any module of the package imports numpy.
"""

import os

if os.environ.get("MAFORM_THREADS"):
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = os.environ["MAFORM_THREADS"]

CONVENTION = "dc = i(dbar - d); ddc = 2i d-dbar; ddc|z|^2 = 4 dx^dy"

__version__ = "0.1.0"
