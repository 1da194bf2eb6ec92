"""Numerical laboratory for the mass-subcritical NLS equation with a
combined defocusing/focusing power nonlinearity: split-step evolution in
physical and pseudo-conformal variables, constrained minimization on
mass spheres, threshold-mass bisection, and scattering diagnostics.
"""

import os

# Every run is serial and no hot loop calls BLAS, yet OpenBLAS starts a
# worker pool when numpy loads, which spins on another CPU for ~0.1 s and
# never gets work.  Pin it to one thread before the first numpy import; a
# value the user set wins.  A process that imported numpy before nls_lab
# keeps its pool (the run manifest records the native thread count).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .functionals import CoeffTriple, ModelParams  # noqa: E402
from .grid import AnalyticProfile, Field, Grid, eval_profile  # noqa: E402

__all__ = [
    "__version__",
    "Grid",
    "Field",
    "AnalyticProfile",
    "eval_profile",
    "ModelParams",
    "CoeffTriple",
]
