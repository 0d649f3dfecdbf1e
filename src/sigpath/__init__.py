"""Signatures of piecewise-linear paths, the topologies they induce, and
two of their applications: signature-series solutions of controlled ODEs
and linear regression on signature features.

Submodules group the functionality, and every name in a submodule's
__all__ is re-exported here, so the flat namespace is derived from those
lists rather than kept by hand.
"""

from .tensor_algebra import *
from .path_core import *
from .signature_engine import *
from .topology_lab import *
from .ito_solver import *
from .sig_regression import *
# named after the star imports, which set the order the submodules load in
from . import ito_solver, path_core, sig_regression, signature_engine, tensor_algebra, topology_lab

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        tensor_algebra, path_core, signature_engine, topology_lab, ito_solver, sig_regression
    )
    for name in module.__all__
] + ["__version__"]
