"""Every real argument of the package goes through `criteria._real`: one
rule for which values are real numbers, and one message when they are not.

Each site below passes one real argument to a library function or a CLI
handler.  A NaN, an infinity, a bool, a string or an int past the float
range is a ValueError naming the argument; a Python float, numpy's float64
and float32 and an int with the same value give the same result, bit for
bit and type for type.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest

from hypstab import cli
from hypstab.criteria import (
    _real,
    grad_condition_deficit,
    lambda1_bounds_pinched,
    pointwise_stability_test,
    sobolev_stability_test,
)
from hypstab.helicoid import Helicoid, first_fundamental, normal
from hypstab.hyperbolic_catenoid import (
    HyperbolicCatenoid,
    ProfileSample,
    integrate_profile,
    principal_curvatures,
    shape_constant,
)
from hypstab.lorentz import on_hyperboloid, on_hyperboloid_rows
from hypstab.quadrature import find_root_bracketed, integrate_adaptive, integrate_semi_infinite
from hypstab.spectral import (
    assemble_mode_operator,
    count_negative_eigenvalues,
    discretize,
    morse_index,
)
from hypstab.spherical_catenoid import SphericalCatenoid, grad_norm_A, norm_A_sq, phi, warp_rho

CAT = SphericalCatenoid(0.7)
HEL = Helicoid(1.5)
NECK = HyperbolicCatenoid(2, 2.0)
DISC = assemble_mode_operator(CAT, 0, 4.0, 100)


def _even(s):
    return 1.0 + s * s


def _decay(s):
    return math.exp(-s)


def _export(family, **params):
    base = {"family": family, "a": 1.0, "alpha": 1.0, "n": 2, "t": 1.5, "s_max": 1.0,
            "s_grid": 2, "t_max": 1.0, "t_grid": 2, "theta_grid": 1, "samples": 3}
    return cli._cmd_embed_export({**base, **params})


# site id -> (call with the value, name in the message, a good value, whole
# and exact in float32 so that all four types carry it)
SITES = {
    "lambda1_bounds_pinched-a": (lambda v: lambda1_bounds_pinched(v, 2.0),
                                 "pinching constant a", 1.0),
    "lambda1_bounds_pinched-b": (lambda v: lambda1_bounds_pinched(1.0, v),
                                 "pinching constant b", 2.0),
    "pointwise_stability_test": (lambda v: pointwise_stability_test(2, v), "sup_A_sq", 1.0),
    "sobolev-C_s": (lambda v: sobolev_stability_test(3, v, 0.5), "Sobolev constant C_s", 2.0),
    "sobolev-mass": (lambda v: sobolev_stability_test(3, 2.0, v),
                     "curvature mass A_n_norm_to_n", 1.0),
    "grad_deficit-mass_A_sq": (lambda v: grad_condition_deficit(2, v, 1.0), "mass_A_sq", 1.0),
    "grad_deficit-mass_grad_A_sq": (lambda v: grad_condition_deficit(2, 1.0, v),
                                    "mass_grad_A_sq", 1.0),
    "Helicoid": (Helicoid, "pitch alpha", 1.0),
    "helicoid.first_fundamental": (lambda v: first_fundamental(HEL, v), "t", 1.0),
    "helicoid.normal": (lambda v: normal(HEL, v, 0.5), "s", 1.0),
    "SphericalCatenoid": (SphericalCatenoid, "shape parameter a", 1.0),
    "phi": (lambda v: phi(CAT, v), "s", 1.0),
    "warp_rho": (lambda v: warp_rho(CAT, v), "s", 1.0),
    "spherical.norm_A_sq": (lambda v: norm_A_sq(CAT, v), "s", 1.0),
    "grad_norm_A": (lambda v: grad_norm_A(CAT, v), "s", 1.0),
    "shape_constant": (lambda v: shape_constant(2, v), "neck height t", 2.0),
    "HyperbolicCatenoid": (lambda v: HyperbolicCatenoid(2, v), "neck height t", 2.0),
    "integrate_profile": (lambda v: integrate_profile(NECK, v), "s_max", 1.0),
    "principal_curvatures": (lambda v: principal_curvatures(NECK, ProfileSample(0.0, v, 0.0)),
                             "sample height x", 2.0),
    "discretize": (lambda v: discretize(np.cosh, _even, v, 8), "radius R", 2.0),
    "assemble_mode_operator": (lambda v: assemble_mode_operator(CAT, 0, v, 100),
                               "radius R", 2.0),
    "morse_index": (lambda v: morse_index(CAT, v, 100, 0), "radius R", 2.0),
    "count_negative_eigenvalues": (lambda v: count_negative_eigenvalues(DISC, v), "margin", 1.0),
    "on_hyperboloid_rows": (lambda v: on_hyperboloid_rows([[1.0, 0.0, 0.0]], v), "tol", 1.0),
    "on_hyperboloid": (lambda v: on_hyperboloid([-3.0, 1.0, 0.0], v), "tol", 1.0),
    "find_root_bracketed-lo": (lambda v: find_root_bracketed(math.cos, v, 2.0),
                               "bracket end lo", 1.0),
    "find_root_bracketed-hi": (lambda v: find_root_bracketed(math.cos, 1.0, v),
                               "bracket end hi", 2.0),
    "find_root_bracketed-tol": (lambda v: find_root_bracketed(math.cos, 1.0, 2.0, v), "tol", 1.0),
    "integrate_adaptive-lo": (lambda v: integrate_adaptive(_even, v, 2.0),
                              "integration limit lo", 1.0),
    "integrate_adaptive-hi": (lambda v: integrate_adaptive(_even, 1.0, v),
                              "integration limit hi", 2.0),
    "integrate_adaptive-tol": (lambda v: integrate_adaptive(_even, 1.0, 2.0, v), "tol", 1.0),
    "integrate_semi_infinite-tol": (lambda v: integrate_semi_infinite(_decay, v), "tol", 1.0),
    "integrate_semi_infinite-decay_hint": (lambda v: integrate_semi_infinite(_decay, 1e-9, v),
                                           "decay_hint", 1.0),
    "cli.sweep-f-a_min": (lambda v: cli._cmd_sweep_f(
        {"a_min": v, "a_max": 2.0, "step": 1.0, "tol": 1e-9}), "a_min", 1.0),
    "cli.sweep-f-step": (lambda v: cli._cmd_sweep_f(
        {"a_min": 1.0, "a_max": 2.0, "step": v, "tol": 1e-9}), "step", 1.0),
    "cli.sweep-f-tol": (lambda v: cli._cmd_sweep_f(
        {"a_min": 1.0, "a_max": 2.0, "step": 1.0, "tol": v}), "tol", 1.0),
    "cli.find-c0-tol": (lambda v: cli._cmd_find_c0({"tol": v, "quad_tol": 1e-9}), "tol", 1.0),
    "cli.find-c0-quad_tol": (lambda v: cli._cmd_find_c0({"tol": 1.0, "quad_tol": v}),
                             "quad_tol", 1.0),
    "cli.hyperbolic-window-t_min": (lambda v: cli._cmd_hyperbolic_window(
        {"n": 2, "t_min": v, "t_max": 3.0, "steps": 2}), "t_min", 2.0),
    "cli.helicoid-t_max": (lambda v: cli._cmd_helicoid(
        {"alpha": 1.0, "t_max": v, "t_grid": 3}), "t_max", 1.0),
    "cli.spherical-s_max": (lambda v: _export("spherical", s_max=v), "s_max", 1.0),
    "cli.helicoid-s_max": (lambda v: _export("helicoid", s_max=v), "s_max", 1.0),
    "cli.helicoid-t_max-export": (lambda v: _export("helicoid", t_max=v), "t_max", 1.0),
    "cli.hyperbolic-curve-s_max": (lambda v: _export("hyperbolic-curve", s_max=v),
                                   "s_max", 1.0),
}

# value -> how the message shows it
REJECTED = {
    "nan": (math.nan, "nan"),
    "inf": (math.inf, "inf"),
    "-inf": (-math.inf, "-inf"),
    "bool": (True, "True"),
    "str": ("0.7", "'0.7'"),
    "int-past-float": (10**400, "a number past the float range"),
}


@pytest.mark.parametrize("bad", sorted(REJECTED))
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_real_argument_rejects_what_is_not_a_finite_real(site, bad):
    call, name, _ = SITES[site]
    value, shown = REJECTED[bad]
    with pytest.raises(ValueError) as exc:
        call(value)
    message = str(exc.value)
    assert message.startswith(f"{name} must be a finite real number"), message
    assert message.endswith(f", got {shown}"), message


def _bits(value):
    """A key equal for two results exactly when they agree bit for bit and
    type for type."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value), _bits([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, (list, tuple)):
        return type(value), tuple(_bits(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, float):
        return type(value), struct.pack("<d", value)
    return type(value), value


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_real_type_gives_the_float_result(site):
    call, _, good = SITES[site]
    expected = _bits(call(good))
    for value in (np.float64(good), np.float32(good), int(good)):
        assert _bits(call(value)) == expected, type(value)


@pytest.mark.parametrize(
    "bounds, value, message",
    [
        ({"above": 0.5}, 0.4, "a must be a finite real number > 0.5, got 0.4"),
        ({"least": 0}, -1, "a must be a finite real number >= 0, got -1.0"),
        ({"above": 0, "most": 300.0}, 301.0,
         "a must be a finite real number > 0 and <= 300.0, got 301.0"),
        ({}, np.float32("nan"), "a must be a finite real number, got nan"),
        ({}, None, "a must be a finite real number, got None"),
    ],
)
def test_the_message_names_the_argument_and_its_bounds(bounds, value, message):
    with pytest.raises(ValueError) as exc:
        _real(value, "a", **bounds)
    assert str(exc.value) == message


def test_bounds_are_inclusive_as_named():
    assert _real(0.5, "a", least=0.5) == 0.5
    assert _real(300, "a", most=300.0) == 300.0
    with pytest.raises(ValueError):
        _real(0.5, "a", above=0.5)
    assert type(_real(np.float64(0.7), "a")) is float
