"""Numerical toolkit for minimal hypersurfaces in hyperbolic space.

Covers the rotationally symmetric catenoid families (spherical in dimension
three, hyperbolic in every dimension), the helicoid family, dimension-generic
stability certificates, and the spectral Morse index of spherical catenoids,
including the location of the instability threshold of the catenoid family.
"""

__version__ = "0.1.0"

from . import criteria, helicoid, hyperbolic_catenoid, lorentz, quadrature, spectral, spherical_catenoid
from .criteria import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    StabilityReport,
    grad_condition_deficit,
    lambda1_bounds,
    lambda1_bounds_pinched,
    pointwise_stability_test,
    sobolev_stability_test,
)
from .helicoid import Helicoid, is_stable_by_pitch
from .hyperbolic_catenoid import (
    HyperbolicCatenoid,
    ProfileError,
    ProfileSample,
    integrate_profile,
    is_stable_by_window,
    shape_constant,
    stability_window_max_t,
)
from .lorentz import minkowski_inner, on_hyperboloid
from .quadrature import (
    QuadratureError,
    QuadratureResult,
    find_root_bracketed,
)
from .spectral import (
    IndexReport,
    ModeSpectrum,
    SturmLiouvilleDisc,
    assemble_mode_operator,
    count_negative_eigenvalues,
    morse_index,
)
from .spherical_catenoid import F, SphericalCatenoid, find_c0, total_A_sq

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
    "minkowski_inner",
    "on_hyperboloid",
    "QuadratureError",
    "QuadratureResult",
    "find_root_bracketed",
    "SphericalCatenoid",
    "F",
    "find_c0",
    "total_A_sq",
    "HyperbolicCatenoid",
    "ProfileError",
    "ProfileSample",
    "shape_constant",
    "integrate_profile",
    "stability_window_max_t",
    "is_stable_by_window",
    "Helicoid",
    "is_stable_by_pitch",
    "StabilityReport",
    "STABLE",
    "UNSTABLE",
    "INCONCLUSIVE",
    "lambda1_bounds",
    "lambda1_bounds_pinched",
    "pointwise_stability_test",
    "sobolev_stability_test",
    "grad_condition_deficit",
    "SturmLiouvilleDisc",
    "ModeSpectrum",
    "IndexReport",
    "assemble_mode_operator",
    "count_negative_eigenvalues",
    "morse_index",
]
