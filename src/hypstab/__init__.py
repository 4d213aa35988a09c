"""Numerical toolkit for minimal hypersurfaces in hyperbolic space.

Covers the rotationally symmetric catenoid families (spherical in dimension
three, hyperbolic in every dimension), the helicoid family, dimension-generic
stability certificates, and the spectral Morse index of spherical catenoids,
including the location of the instability threshold of the catenoid family.
"""

__version__ = "0.1.0"

from . import criteria, helicoid, hyperbolic_catenoid, lorentz, quadrature, spectral, spherical_catenoid

__all__ = [
    "__version__",
    "cli",
    "criteria",
    "helicoid",
    "hyperbolic_catenoid",
    "lorentz",
    "quadrature",
    "spectral",
    "spherical_catenoid",
]
