"""Numerical end-to-end gluing for constant fourth-order curvature metrics."""

__version__ = "0.1.0"

from .errors import (DomainError, NumericalError, IllConditionedError,
                     ManifestError)
from .gauges import GaugeConstants, derive_constants, CylField, q_residual
from .delaunay import hamiltonian, DelaunayOrbit, solve_orbit
from .jacobi import (ModeOperator, mode_apply, indicial_roots, generators,
                     expansion_error, symplectic_pairing)
