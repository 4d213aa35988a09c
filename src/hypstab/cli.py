"""Batch command-line frontend emitting reproducible CSV and JSON tables.

Every command writes a single self-describing document: CSV tables carry
'#'-prefixed header lines (tool version, command, parameters, column names)
above plain comma-separated numeric rows with '.' decimals; JSON output is
one object that embeds the same version and parameter block.  Output
contains no timestamps or machine identifiers, so repeated runs with equal
arguments are byte-identical.

Exit codes: 0 success, 2 invalid arguments or parameters (a NaN or
infinite float flag among them, read by the command or not, rejected
before the command does any work), 3 numerical failure (a root bracket
stalled above its tol, profile blow-up, constraint violation, overflow, a
grid too fine for h^2).

`main(argv)` is the one entrance, for the `hypstab` script and for Python
callers alike: it takes the script's argument list (`--output` names a
file, '-' is stdout) and returns the exit code.  The parser types every
flag and restricts only --family and --format to their choices; each
handler checks its own counts, half-widths, positive values and row bound
before any work, every real value by the package's one real-number rule,
`criteria._real`.  The finiteness rule, that same rule on every float
flag, runs inside `main` before the handler.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .criteria import (
    STABLE,
    _HALF_WIDTH_MAX,
    _real,
    grad_condition_report,
    lambda1_bounds,
    lambda1_bounds_pinched,
    pointwise_stability_test,
    sobolev_stability_test,
)
from .helicoid import (
    Helicoid,
    embed as helicoid_embed,
    embed_grid as helicoid_embed_grid,
    first_fundamental,
    is_stable_by_pitch,
    norm_A_sq as helicoid_norm_A_sq,
)
from .hyperbolic_catenoid import (
    HyperbolicCatenoid,
    ProfileError,
    generating_curve_points,
    is_stable_by_window,
    stability_window_max_t,
    sup_norm_A_sq,
)
from .lorentz import on_hyperboloid, on_hyperboloid_rows
from .quadrature import DEFAULT_TOL, QuadratureError
from .spectral import morse_index
from .spherical_catenoid import (
    F,
    SphericalCatenoid,
    _locate_c0,
    embed as catenoid_embed,
    embed_grid as catenoid_embed_grid,
)

# The exports call the grid functions; the scalar embeddings and the
# single-point check stay importable here because bench/tracing.py wraps
# them by name.

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_NUMERICAL",
    "ExportError",
    "read_table",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_EXPORT_TOL = 1e-8  # hyperboloid membership tolerance for every emitted point
_MAX_GRID_POINTS = 10**6  # most rows a sweep, profile or export table may hold
_UNUSED_TOL = "must be positive; changes nothing, F is a closed form"


class ExportError(RuntimeError):
    """An emitted point failed its geometric validity check."""


def _param_str(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.15g" % value
    return str(value)


def _float_grid(lo: float, hi: float, step: float) -> list[float]:
    step = _real(step, "step", above=0)
    if hi < lo:
        raise ValueError(f"need hi >= lo, got [{lo}, {hi}]")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ValueError(f"step {step} gives no finite grid count on [{lo}, {hi}]")
    count = int(math.floor(span + 1e-9))
    if count + 1 > _MAX_GRID_POINTS:
        raise ValueError(
            f"step {step} gives {count + 1:.15g} grid points on [{lo}, {hi}], "
            f"more than {_MAX_GRID_POINTS}"
        )
    return [lo + k * step for k in range(count + 1)]


def _bounded_rows(rows: int, what: str) -> None:
    """Reject a table of more than _MAX_GRID_POINTS rows before it is built."""
    if rows > _MAX_GRID_POINTS:
        raise ValueError(f"{what} gives {rows} table rows, more than {_MAX_GRID_POINTS}")


def _count(params: Mapping[str, Any], key: str, least: int) -> int:
    value = params[key]
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _together(params: Mapping[str, Any], *keys: str) -> list[float] | None:
    """The values of flags that go together: None when none is given."""
    values = [params.get(key) for key in keys]
    if values.count(None) == len(values):
        return None
    if None in values:
        flags = " and ".join("--" + key.replace("_", "-") for key in keys)
        raise ValueError(f"{flags} must be given together")
    return values


# ---------------------------------------------------------------------------
# command handlers: params dict in, payload dict out.  Tabular payloads carry
# "columns" and "rows"; everything else is scalar metadata.


def _cmd_sweep_f(params: Mapping[str, Any]) -> dict[str, Any]:
    a_min = _real(params["a_min"], "a_min", above=0.5)
    grid = _float_grid(a_min, params["a_max"], params["step"])
    _real(params["tol"], "tol", above=0)  # validated, though the closed-form F does not use it
    rows = []
    for a in grid:
        res = F(SphericalCatenoid(a))
        rows.append([a, res.value, res.error_estimate])
    return {"columns": ["a", "F", "err"], "rows": rows}


def _cmd_find_c0(params: Mapping[str, Any]) -> dict[str, Any]:
    tol = _real(params["tol"], "tol", above=0)
    _real(params["quad_tol"], "quad_tol", above=0)  # validated, though F does not use it
    root, lo, hi = _locate_c0(tol)
    return {"c0": root, "bracket": [lo, hi]}


def _cmd_index(params: Mapping[str, Any]) -> dict[str, Any]:
    nodes = params["nodes"]
    m_max = params["m_max"]
    _bounded_rows(nodes, f"nodes {nodes}")
    _bounded_rows(m_max + 1, f"m_max {m_max}")
    report = morse_index(
        SphericalCatenoid(params["a"]),
        R=params["radius"],
        N=nodes,
        m_max=m_max,
        k_eigs=params["k_eigs"],
    )
    return asdict(report)


def _cmd_hyperbolic_window(params: Mapping[str, Any]) -> dict[str, Any]:
    n = params["n"]
    t_max = params["t_max"]
    steps = _count(params, "steps", 2)
    _bounded_rows(steps, f"steps {steps}")
    t_min = _real(params["t_min"], "t_min", above=1)
    if not t_max >= t_min:
        raise ValueError(f"need t_max >= t_min, got [{t_min}, {t_max}]")
    max_t = stability_window_max_t(n)
    rows = []
    for t in np.linspace(t_min, t_max, steps):
        cat = HyperbolicCatenoid(n, float(t))
        window_ok = 1.0 if is_stable_by_window(cat) else 0.0
        bound = sup_norm_A_sq(cat)
        pointwise_ok = (
            1.0 if pointwise_stability_test(n, bound).verdict == STABLE else 0.0
        )
        rows.append([float(t), max_t, window_ok, bound, pointwise_ok])
    return {
        "columns": ["t", "window_max_t", "window_stable", "bound_A_sq", "pointwise_stable"],
        "rows": rows,
    }


def _cmd_helicoid(params: Mapping[str, Any]) -> dict[str, Any]:
    h = Helicoid(params["alpha"])
    t_grid = _count(params, "t_grid", 2)
    _bounded_rows(t_grid, f"t_grid {t_grid}")
    t_max = _real(params["t_max"], "t_max", above=0, most=_HALF_WIDTH_MAX)
    rows = []
    for t in np.linspace(-t_max, t_max, t_grid):
        e_coef, _, _ = first_fundamental(h, float(t))
        rows.append([float(t), e_coef, helicoid_norm_A_sq(h, float(t))])
    return {
        "columns": ["t", "E", "norm_A_sq"],
        "rows": rows,
        "stable_by_pitch": is_stable_by_pitch(h),
    }


# Export families: params in, (grid, points) out, where grid holds the
# parameter columns and points the coordinates of one row each.


def _outer_grid(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """All (s, u) pairs as rows, s outer."""
    return np.column_stack([np.repeat(s, u.size), np.tile(u, s.size)])


def _spherical_points(params: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    cat = SphericalCatenoid(params["a"])
    s_grid = _count(params, "s_grid", 2)
    theta_grid = _count(params, "theta_grid", 1)
    _bounded_rows(s_grid * theta_grid, f"s_grid {s_grid} x theta_grid {theta_grid}")
    s_max = _real(params["s_max"], "s_max", above=0, most=_HALF_WIDTH_MAX)
    s = np.linspace(-s_max, s_max, s_grid)
    theta = np.linspace(0.0, 2.0 * math.pi, theta_grid, endpoint=False)
    return _outer_grid(s, theta), catenoid_embed_grid(cat, s, theta)


def _helicoid_points(params: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    h = Helicoid(params["alpha"])
    s_grid = _count(params, "s_grid", 2)
    t_grid = _count(params, "t_grid", 2)
    _bounded_rows(s_grid * t_grid, f"s_grid {s_grid} x t_grid {t_grid}")
    s_max = _real(params["s_max"], "s_max", above=0, most=_HALF_WIDTH_MAX)
    t_max = _real(params["t_max"], "t_max", above=0, most=_HALF_WIDTH_MAX)
    s = np.linspace(-s_max, s_max, s_grid)
    t = np.linspace(-t_max, t_max, t_grid)
    return _outer_grid(s, t), helicoid_embed_grid(h, s, t)


def _hyperbolic_curve_points(params: Mapping[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    cat = HyperbolicCatenoid(params["n"], params["t"])
    samples = _count(params, "samples", 2)
    _bounded_rows(samples, f"samples {samples}")
    s = np.linspace(0.0, _real(params["s_max"], "s_max", above=0), samples)
    return s[:, None], generating_curve_points(cat, s)


class _ExportFamily(NamedTuple):
    points: Callable[[Mapping[str, Any]], tuple[np.ndarray, np.ndarray]]
    columns: tuple[str, ...]
    off_sheet: str  # message naming the first failing grid point


_EXPORT_FAMILIES: dict[str, _ExportFamily] = {
    "spherical": _ExportFamily(
        _spherical_points,
        ("s", "theta", "x1", "x2", "x3", "x4"),
        "embedded point at (s, theta) = ({}, {}) leaves the hyperboloid beyond {}",
    ),
    "helicoid": _ExportFamily(
        _helicoid_points,
        ("s", "t", "x1", "x2", "x3", "x4"),
        "embedded point at (s, t) = ({}, {}) leaves the hyperboloid beyond {}",
    ),
    "hyperbolic-curve": _ExportFamily(
        _hyperbolic_curve_points,
        ("s", "x", "y", "z"),
        "generating-curve point at s = {} leaves the hyperbolic plane beyond {}",
    ),
}


def _cmd_embed_export(params: Mapping[str, Any]) -> dict[str, Any]:
    spec = _EXPORT_FAMILIES[params["family"]]
    grid, points = spec.points(params)
    bad = np.flatnonzero(~on_hyperboloid_rows(points, _EXPORT_TOL))
    if bad.size:
        raise ExportError(spec.off_sheet.format(*grid[bad[0]].tolist(), _EXPORT_TOL))
    return {"columns": list(spec.columns), "rows": np.hstack([grid, points])}


def _cmd_criteria(params: Mapping[str, Any]) -> dict[str, Any]:
    n = params["n"]
    out: dict[str, Any] = {"lambda1": list(lambda1_bounds(n))}
    if pinch := _together(params, "pinch_a", "pinch_b"):
        out["lambda1_pinched"] = list(lambda1_bounds_pinched(*pinch))
    if sup := _together(params, "sup_a_sq"):
        out["pointwise"] = asdict(pointwise_stability_test(n, *sup))
    if sobolev := _together(params, "sobolev_constant", "a_n_mass"):
        out["sobolev"] = asdict(sobolev_stability_test(n, *sobolev))
    if mass := _together(params, "mass_a_sq", "mass_grad_a_sq"):
        out["grad_deficit"] = asdict(grad_condition_report(n, *mass))
    return out


class _Command(NamedTuple):
    handler: Callable[[Mapping[str, Any]], dict[str, Any]]
    help: str
    formats: tuple[str, ...]  # accepted --format values, the default first
    arguments: dict[str, dict[str, Any]]  # flag -> add_argument keywords, in order


# The one place a command is declared: `_build_parser` builds each subcommand
# from it and `main` dispatches through it.  Every flag declares a `type` or
# `choices`, so a handler reads each value as the parser gave it.  Commands
# whose payload is a single object rather than a table list only "json".
_COMMANDS: dict[str, _Command] = {
    "sweep-f": _Command(
        _cmd_sweep_f, "tabulate the instability functional F(a)", ("csv", "json"), {
            "--a-min": dict(type=float, default=0.55),
            "--a-max": dict(type=float, default=1.5),
            "--step": dict(type=float, default=0.05),
            "--tol": dict(type=float, default=DEFAULT_TOL, help=_UNUSED_TOL),
        }),
    "find-c0": _Command(
        _cmd_find_c0, "locate the sign change of F along the family", ("json",), {
            "--tol": dict(type=float, default=1e-4, help="bracket width at the root"),
            "--quad-tol": dict(type=float, default=DEFAULT_TOL, help=_UNUSED_TOL),
        }),
    "index": _Command(
        _cmd_index, "spectral Morse index of one spherical catenoid", ("json",), {
            "--a": dict(type=float, required=True),
            "--radius": dict(type=float, default=10.0),
            "--nodes": dict(type=int, default=2000),
            "--m-max": dict(type=int, default=5),
            "--k-eigs": dict(type=int, default=3),
        }),
    "hyperbolic-window": _Command(
        _cmd_hyperbolic_window, "stable neck window of hyperbolic catenoids", ("csv", "json"), {
            "--n": dict(type=int, default=2),
            "--t-min": dict(type=float, default=1.01),
            "--t-max": dict(type=float, default=3.0),
            "--steps": dict(type=int, default=50),
        }),
    "helicoid": _Command(
        _cmd_helicoid, "metric and curvature profile of a helicoid", ("csv", "json"), {
            "--alpha": dict(type=float, required=True),
            "--t-max": dict(type=float, default=3.0),
            "--t-grid": dict(type=int, default=101),
        }),
    "embed-export": _Command(
        _cmd_embed_export, "emit surface points in hyperboloid coordinates", ("csv", "json"), {
            "--family": dict(required=True, choices=sorted(_EXPORT_FAMILIES)),
            "--a": dict(type=float, default=1.0, help="spherical family shape"),
            "--alpha": dict(type=float, default=1.0, help="helicoid pitch"),
            "--n": dict(type=int, default=2, help="hyperbolic-curve dimension"),
            "--t": dict(type=float, default=1.5, help="hyperbolic-curve neck height"),
            "--s-max": dict(type=float, default=3.0),
            "--s-grid": dict(type=int, default=20),
            "--t-max": dict(type=float, default=2.0),
            "--t-grid": dict(type=int, default=20),
            "--theta-grid": dict(type=int, default=20),
            "--samples": dict(type=int, default=101),
        }),
    "criteria": _Command(
        _cmd_criteria, "dimension-generic stability certificates", ("json",), {
            "--n": dict(type=int, required=True),
            "--sup-a-sq": dict(type=float, default=None),
            "--pinch-a": dict(type=float, default=None),
            "--pinch-b": dict(type=float, default=None),
            "--sobolev-constant": dict(type=float, default=None),
            "--a-n-mass": dict(type=float, default=None),
            "--mass-a-sq": dict(type=float, default=None),
            "--mass-grad-a-sq": dict(type=float, default=None),
        }),
}


def _render_csv(command: str, params: Mapping[str, Any], payload: dict[str, Any]) -> str:
    """CSV document: header lines, then one row per table row with every
    value printed by "%.15g".

    Every cell has the bytes of "%.15g", also where `_render_rows` does not
    call it: on tables of _CORE_MIN_CELLS cells or more a vectorized core
    prints the cells in fixed notation, with each decimal exponent checked
    and each 15-digit rounding (half to even) done on Dekker's exact product,
    so it is exact.  Zeros, subnormals, NaN, +-inf, exponent notation and the
    rare cell the core cannot decide go through "%.15g" itself.
    """
    lines = [f"# hypstab {__version__}", f"# command={command}"]
    for key, value in sorted(params.items()):
        lines.append(f"# {key}={_param_str(value)}")
    for key in sorted(payload):
        if key in ("columns", "rows"):
            continue
        lines.append(f"# {key}={_param_str(payload[key])}")
    columns = payload["columns"]
    lines.append("# columns=" + ",".join(columns))
    table = np.ascontiguousarray(payload["rows"], dtype=float).reshape(-1, len(columns))
    if table.size:
        lines.append(_render_rows(table))
    return "\n".join(lines) + "\n"


# The "%.15g" core of `_render_rows`.  Each cell is built in a row of
# _CELL_BYTES bytes, where a zero byte is no character.
_CELL_BYTES = 23  # the longest "%.15g" text (22 bytes) and its separator
# Smaller tables go through one "%.15g" template, as the core's fixed cost is
# about 0.15 ms.  Measured on a 2-vCPU x86 machine, the two break even near
# 600 cells on export tables, all in fixed notation, and near 1000 on
# sweep-f and hyperbolic-window tables, where 9-33% of the cells are spliced.
_CORE_MIN_CELLS = 1024
# Cells per pass, so that the pass's temporaries stay in cache: a 140 x 140
# helicoid export renders in 16.4 ms this way and in 21.3 ms in one pass
# (medians of 15, same machine).
_BLOCK_CELLS = 16384
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 x into hi + lo, exactly, each half of at
    most 26 significant bits, so that a product of two halves is exact."""
    hi = x * _SPLIT - (x * _SPLIT - x)
    return hi, x - hi


_POW10 = np.array([10.0**k for k in range(19)])  # exact, as 5**18 < 2**53
_POW10_HI, _POW10_LO = _halves(_POW10)
_GROUP_DIGITS = (np.arange(10000, dtype=np.int16)[:, None]
                 // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.int8)
# the four ASCII digits of q < 10**4 as one 4-byte word, and the
# index of its last nonzero digit (-99, below every index, for q = 0)
_DIGITS4 = (_GROUP_DIGITS + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_LAST4 = np.where(_GROUP_DIGITS > 0, np.arange(4, dtype=np.int8), np.int8(-99)).max(axis=1)
# _KEEP[p] masks a sign byte and 15 digit bytes down to the first p digits
_KEEP = np.tril(np.full((16, 16), 0xFF, dtype=np.uint8))
_KEEP[:, 0] = 0
_KEEP = _KEEP.view(np.uint64)


def _render_rows(table: np.ndarray) -> str:
    """The rows of a float64 table: cells joined by ",", rows by "\n",
    with no final newline, and each cell the bytes of "%.15g" of its value.

    Tables of fewer than _CORE_MIN_CELLS cells go through one "%.15g" row
    template; larger ones go through `_render_block`, a block of rows at a
    time.
    """
    nrows, ncols = table.shape
    if table.size < _CORE_MIN_CELLS:
        row = ",".join(["%.15g"] * ncols)
        return "\n".join([row] * nrows) % tuple(table.ravel().tolist())
    step = max(1, _BLOCK_CELLS // ncols)
    body = b"".join([_render_block(table[i:i + step]) for i in range(0, nrows, step)])
    return body[:-1].decode("ascii")


def _render_block(block: np.ndarray) -> bytes:
    """The rows of `block`, each cell followed by "," or "\n".

    Cells in fixed notation are built by `_significands` and
    `_fixed_notation`; every other cell (zeros, subnormals, NaN, +-inf,
    exponent notation, and the rare cell the core cannot decide) is "%.15g"
    of its value, spliced into place.
    """
    nrows, ncols = block.shape
    values = block.ravel()
    fixed, exponent, significand = _significands(values)
    # built sorted by exponent, then the rest, and gathered into place
    by_exponent = np.argsort(exponent.astype(np.int8), kind="stable")
    fixed = fixed[by_exponent]
    rest = np.ones(values.size, dtype=bool)
    rest[fixed] = False
    rest = np.flatnonzero(rest)
    texts = np.zeros((values.size, _CELL_BYTES), dtype=np.uint8)
    _fixed_notation(texts[:fixed.size], values[fixed] < 0,
                    exponent[by_exponent], significand[by_exponent])
    if rest.size:
        spliced = np.array(["%.15g" % v for v in values[rest].tolist()],
                           dtype=f"S{_CELL_BYTES - 1}")
        texts[fixed.size:, :-1] = spliced.view(np.uint8).reshape(rest.size, -1)
    position = np.empty(values.size, dtype=np.intp)
    position[fixed] = np.arange(fixed.size)
    position[rest] = np.arange(fixed.size, values.size)
    texts = np.take(texts, position, axis=0)
    texts[:, -1] = ord(",")
    texts.reshape(nrows, ncols, _CELL_BYTES)[:, -1, -1] = ord("\n")
    flat = texts.ravel()
    return np.compress(flat != 0, flat).tobytes()


def _significands(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells "%.15g" prints in fixed notation and the core decides
    exactly: their indices, decimal exponents e and 15-digit significands M,
    with |v| rounded to 15 significant digits equal to M * 10**(e - 14).

    Only 1e-4 <= |v| < 1e15 can print in fixed notation.  e is
    floor(log10|v|), which the last bits of log10 can leave one off near a
    power of ten, so it is checked against the exact product: x = |v| *
    10**(14 - e) is hi + lo exactly by Dekker's product (10**k is exact for
    k <= 22).  A cell is kept only if 10**14 <= x and x rounds, half to even
    as "%.15g" does, to M < 10**15.  So no byte depends on log10, and a cell
    that rounds up to the next power of ten is left to "%.15g".
    """
    size = np.abs(values)
    fixed = np.flatnonzero((size >= 1e-4) & (size < 1e15))
    x = size[fixed]
    exponent = np.clip(np.floor(np.log10(x)), -4, 14).astype(np.intp)
    scale = 14 - exponent
    hi = x * _POW10[scale]
    x_hi, x_lo = _halves(x)
    p_hi = _POW10_HI[scale]
    p_lo = _POW10_LO[scale]
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    # where M < 10**15, hi < 2**53: hi - floor(hi) - 0.5 is exact, and adding
    # lo keeps the sign of x's distance above the half
    significand = np.floor(hi)
    above_half = (hi - significand - 0.5) + lo
    odd = np.floor(significand * 0.5) * 2.0 != significand
    significand += (above_half > 0) | ((above_half == 0) & odd)
    decided = np.flatnonzero(((hi > 1e14) | ((hi == 1e14) & (lo >= 0))) & (significand < 1e15))
    return fixed[decided], exponent[decided], significand[decided]


def _fixed_notation(out: np.ndarray, negative: np.ndarray, exponent: np.ndarray,
                    significand: np.ndarray) -> None:
    """Write into the zeroed rows of `out` the "%.15g" text of
    sign * significand * 10**(exponent - 14), for cells sorted by exponent,
    with 15-digit significands and exponents in [-4, 14]: the 15 digits
    with the point after the integer part (or "0." and -exponent - 1 zeros
    before them), no trailing zero after the point, and no point with
    nothing after it.
    """
    # four 4-digit groups, the first of 3 digits, by exact float division
    high = np.floor(significand / 1e8)
    low = significand - high * 1e8
    groups = np.empty((significand.size, 4))
    np.floor(high / 1e4, out=groups[:, 0])
    np.subtract(high, groups[:, 0] * 1e4, out=groups[:, 1])
    np.floor(low / 1e4, out=groups[:, 2])
    np.subtract(low, groups[:, 2] * 1e4, out=groups[:, 3])
    groups = groups.astype(np.intp)
    # byte 0 of a row is the sign, bytes 1..15 the digits, the last
    # nonzero one at index `last`
    last = _LAST4[groups]
    last = np.maximum(np.maximum(last[:, 0] - 1, last[:, 1] + 3),
                      np.maximum(last[:, 2] + 7, last[:, 3] + 11))
    keep = np.maximum(last, exponent) + 1
    digits = (_DIGITS4[groups].view(np.uint64) & np.take(_KEEP, keep, axis=0)).view(np.uint8)
    digits[:, 0] = np.where(negative, ord("-"), 0)
    # one slice layout per exponent, each a block of rows
    out[:, :16] = digits
    end = 0
    for e, count in enumerate(np.bincount(exponent + 4, minlength=19).tolist(), -4):
        rows = slice(end, end + count)
        end += count
        if 0 <= e < 14:  # sign, e + 1 digits, ".", the rest
            out[rows, e + 2] = np.where(digits[rows, e + 2] != 0, ord("."), 0)
            out[rows, e + 3:17] = digits[rows, e + 2:]
        elif e < 0:  # sign, "0.", -e - 1 zeros, the digits
            lead = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)
            out[rows, 1:1 + lead.size] = lead
            out[rows, 1 + lead.size:16 + lead.size] = digits[rows, 1:]


def _render_json(command: str, params: Mapping[str, Any], payload: dict[str, Any]) -> str:
    document = {
        "version": __version__,
        "command": command,
        "parameters": {k: params[k] for k in sorted(params)},
    }
    document.update(payload)
    if isinstance(document.get("rows"), np.ndarray):
        document["rows"] = document["rows"].tolist()
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(output: str, text: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[float]]]:
    """Parse a CSV table written by this tool.

    Returns (metadata, column names, numeric rows); metadata maps the header
    keys to their string values, with the version banner under 'banner'.
    """
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                if key == "columns":
                    columns = value.split(",")
                else:
                    meta[key] = value
            else:
                meta.setdefault("banner", body)
        elif line.strip():
            rows.append([float(tok) for tok in line.split(",")])
    return meta, columns, rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypstab",
        description=(
            "Numerical toolkit for minimal catenoids and helicoids in "
            "hyperbolic space: curvature functionals, stability windows, "
            "and spectral Morse indices."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hypstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")
        sp.add_argument(
            "--format", dest="fmt", default=command.formats[0],
            choices=command.formats, help="output format",
        )
        for flag, options in command.arguments.items():
            sp.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command from its argument list; returns the process exit code."""
    params = vars(_build_parser().parse_args(argv))
    command = params.pop("command")
    output = params.pop("output")
    fmt = params.pop("fmt")
    try:
        # every float flag, read by the command or not, before any work
        for key, value in sorted(params.items()):
            if isinstance(value, float):
                _real(value, key)
        payload = _COMMANDS[command].handler(params)
        render = _render_csv if fmt == "csv" else _render_json
        try:
            _emit(output, render(command, params, payload))
        except OSError as exc:
            raise ValueError(f"cannot write --output {output}: {exc.strerror or exc}") from exc
        return EXIT_OK
    except ValueError as exc:
        print(f"hypstab {command}: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, ProfileError, ExportError, OverflowError) as exc:
        print(f"hypstab {command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
