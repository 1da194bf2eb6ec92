"""Numerical laboratory for the mass-subcritical NLS equation with a
combined defocusing/focusing power nonlinearity: split-step evolution in
physical and pseudo-conformal variables, constrained minimization on
mass spheres, threshold-mass bisection, and scattering diagnostics.
"""

__version__ = "0.1.0"

from .functionals import CoeffTriple, ModelParams
from .grid import AnalyticProfile, Field, Grid, eval_profile

__all__ = [
    "__version__",
    "Grid",
    "Field",
    "AnalyticProfile",
    "eval_profile",
    "ModelParams",
    "CoeffTriple",
]
