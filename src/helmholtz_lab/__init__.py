"""Desk-scale numerical laboratory for Helmholtz discretizations at large wavenumber.

Conforming hp-FEM, partition-of-unity enriched FEM, plane-wave least squares
and plane-wave discontinuous Galerkin solvers for the interior impedance
problem, together with an experiment harness for pollution / convergence
studies and discrete stability probes.
"""

__version__ = "0.1.0"

from . import numerics
from . import meshing
from . import spaces
from . import assembly
from . import analysis
from . import methods

__all__ = [
    "numerics",
    "meshing",
    "spaces",
    "assembly",
    "analysis",
    "methods",
]
