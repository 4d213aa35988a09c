"""Output checks that do not rely on the program's own checks.

Each check takes the operation and the text the CLI wrote and returns None
when the output is right, or a one-line reason.  The checks re-derive what
they test from the command's documented meaning (closed forms, grids, sign
facts of the catenoid family), never from `hypstab` code.
"""

from __future__ import annotations

import io
import json
import math
from typing import Callable

import numpy as np

from workloads import Op

# Every coordinate is printed with 15 significant digits, so it carries a
# relative error of at most half a unit in the 15th digit; the program that
# computed it is allowed a few ulps more.  Squaring doubles a relative error,
# and summing d squares in float64 adds d rounding errors of the sum.
_PRINT_REL = 0.5e-14
_EVAL_ULPS = 8
_EPS = np.finfo(float).eps


def sheet_bound(points: np.ndarray) -> np.ndarray:
    """Forward rounding bound on |<x, x> + 1| for printed hyperboloid points.

    The bound scales with sum(x_i^2), the magnitude every term of the
    Minkowski square shares, so large but correct points pass.
    """
    coord_rel = _PRINT_REL + _EVAL_ULPS * _EPS
    rel = 2.0 * coord_rel + coord_rel**2 + points.shape[1] * _EPS
    return rel * np.einsum("ij,ij->i", points, points)


def _sheet_problem(points: np.ndarray) -> str | None:
    sq = points * points
    mink = sq[:, 1:].sum(axis=1) - sq[:, 0]
    bound = sheet_bound(points)
    bad = np.flatnonzero((np.abs(mink + 1.0) > bound) | (points[:, 0] < 1.0 - bound))
    if bad.size:
        i = int(bad[0])
        return (
            f"{bad.size} points off the hyperboloid; row {i}: <x,x>+1 = "
            f"{mink[i] + 1.0:.3e}, bound {bound[i]:.3e}"
        )
    return None


def _csv(text: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    columns = meta.pop("columns", "").split(",")
    rows = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)
    return meta, columns, rows.reshape(len(body), len(columns))


def _close(got: np.ndarray, want: np.ndarray, rel: float = 1e-13) -> bool:
    return bool(np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))))


def _table(text: str, columns: list[str], rows: int):
    meta, cols, data = _csv(text)
    if cols != columns:
        return None, f"columns {cols}, expected {columns}"
    if data.shape[0] != rows:
        return None, f"{data.shape[0]} rows, expected {rows}"
    if not np.all(np.isfinite(data)):
        return None, "non-finite value in table"
    return (meta, data), None


def _sweep_f(op: Op, text: str) -> str | None:
    p = op.params
    count = int(math.floor((p["a_max"] - p["a_min"]) / p["step"] + 1e-9)) + 1
    got, why = _table(text, ["a", "F", "err"], count)
    if why:
        return why
    _, data = got
    a, f, err = data.T
    if not _close(a, p["a_min"] + p["step"] * np.arange(count)):
        return "a column is not the requested grid"
    if np.any(err < 0.0):
        return "negative error estimate"
    # F < 0 on unstable necks (a <= 0.70), F > 0 past the threshold (a >= 0.80).
    for mask, sign, label in ((a <= 0.70, -1.0, "negative"), (a >= 0.80, 1.0, "positive")):
        wrong = mask & ~((sign * f > 0.0) & (err < np.abs(f)))
        if np.any(wrong):
            i = int(np.flatnonzero(wrong)[0])
            return f"F({a[i]:.6g}) = {f[i]:.6g} +- {err[i]:.3g} is not certified {label}"
    return None


def _find_c0(op: Op, text: str) -> str | None:
    doc = json.loads(text)
    c0 = doc["c0"]
    lo, hi = doc["bracket"]
    if not 0.72 <= c0 <= 0.74:
        return f"c0 = {c0} outside [0.72, 0.74]"
    if not lo <= c0 <= hi:
        return f"c0 = {c0} outside its bracket [{lo}, {hi}]"
    if hi - lo > op.params["tol"]:
        return f"bracket width {hi - lo:.3e} exceeds tol {op.params['tol']:.3e}"
    return None


def _index(op: Op, text: str) -> str | None:
    p = op.params
    doc = json.loads(text)
    modes = doc["modes"]
    if [m["mode"] for m in modes] != list(range(p["m_max"] + 1)):
        return f"modes {[m['mode'] for m in modes]}, expected 0..{p['m_max']}"
    weighted = sum((1 if m["mode"] == 0 else 2) * m["negative_count"] for m in modes)
    if doc["total_index"] != weighted:
        return f"total_index {doc['total_index']} != weighted mode sum {weighted}"
    for m in modes:
        eigs = m["lowest_eigenvalues"]
        if len(eigs) > p["k_eigs"] or eigs != sorted(eigs):
            return f"mode {m['mode']}: eigenvalues {eigs} not the ascending lowest {p['k_eigs']}"
    a = p["a"]
    if a <= 0.70 and doc["total_index"] != 1:
        return f"index {doc['total_index']} at a = {a}, expected 1"
    if a >= 1.0 and doc["total_index"] != 0:
        return f"index {doc['total_index']} at a = {a}, expected 0"
    return None


def _criteria(op: Op, text: str) -> str | None:
    p = op.params
    doc = json.loads(text)
    n = p["n"]
    if doc["lambda1"] != [(n - 1) ** 2 / 4.0, float(n * n)]:
        return f"lambda1 {doc['lambda1']} for n = {n}"
    a, b = p["pinch_a"], p["pinch_b"]
    if not _close(np.array(doc["lambda1_pinched"]), np.array([a * a / 4.0, 4.0 * b * b / 3.0])):
        return f"lambda1_pinched {doc['lambda1_pinched']} for a = {a}, b = {b}"
    stable = p["sup_a_sq"] <= (n + 1) ** 2 / 4.0
    if (doc["pointwise"]["verdict"] == "stable-certified") != stable:
        return f"pointwise verdict {doc['pointwise']['verdict']} for sup |A|^2 = {p['sup_a_sq']}"
    deficit = n * n * p["mass_a_sq"] - p["mass_grad_a_sq"]
    if (doc["grad_deficit"]["verdict"] == "unstable-certified") != (deficit < 0.0):
        return f"gradient verdict {doc['grad_deficit']['verdict']} for deficit {deficit}"
    if "sobolev_constant" in p:
        small = p["a_n_mass"] <= p["sobolev_constant"] ** (-0.5 * n)
        if (doc["sobolev"]["verdict"] == "stable-certified") != small:
            return f"Sobolev verdict {doc['sobolev']['verdict']}"
    return None


def _spherical(op: Op, text: str) -> str | None:
    p = op.params
    ns, nt = p["s_grid"], p["theta_grid"]
    got, why = _table(text, ["s", "theta", "x1", "x2", "x3", "x4"], ns * nt)
    if why:
        return why
    _, data = got
    if not _close(data[:, 0], np.repeat(np.linspace(-p["s_max"], p["s_max"], ns), nt)):
        return "s column is not the requested grid"
    theta = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    if not _close(data[:, 1], np.tile(theta, ns)):
        return "theta column is not the requested grid"
    return _sheet_problem(data[:, 2:])


def _helicoid_export(op: Op, text: str) -> str | None:
    p = op.params
    ns, nt = p["s_grid"], p["t_grid"]
    got, why = _table(text, ["s", "t", "x1", "x2", "x3", "x4"], ns * nt)
    if why:
        return why
    _, data = got
    if not _close(data[:, 0], np.repeat(np.linspace(-p["s_max"], p["s_max"], ns), nt)):
        return "s column is not the requested grid"
    if not _close(data[:, 1], np.tile(np.linspace(-p["t_max"], p["t_max"], nt), ns)):
        return "t column is not the requested grid"
    return _sheet_problem(data[:, 2:])


def _curve(op: Op, text: str) -> str | None:
    p = op.params
    got, why = _table(text, ["s", "x", "y", "z"], p["samples"])
    if why:
        return why
    _, data = got
    if not _close(data[:, 0], np.linspace(0.0, p["s_max"], p["samples"])):
        return "s column is not the requested grid"
    if not _close(data[:1, 1], np.array([p["t"]])) or np.any(np.diff(data[:, 1]) <= 0.0):
        return "profile heights do not start at the neck and increase"
    return _sheet_problem(data[:, 1:])


def _helicoid_table(op: Op, text: str) -> str | None:
    p = op.params
    got, why = _table(text, ["t", "E", "norm_A_sq"], p["t_grid"])
    if why:
        return why
    meta, data = got
    t, e_coef, a_sq = data.T
    alpha = p["alpha"]
    if not _close(t, np.linspace(-p["t_max"], p["t_max"], p["t_grid"])):
        return "t column is not the requested grid"
    if not _close(e_coef, np.cosh(t) ** 2 + alpha**2 * np.sinh(t) ** 2, 1e-12):
        return "E differs from cosh^2 t + alpha^2 sinh^2 t"
    if np.any(a_sq < 0.0) or np.any(a_sq > 2.0 * alpha**2 * (1.0 + 1e-12)):
        return "norm_A_sq outside [0, 2 alpha^2]"
    if meta.get("stable_by_pitch") != ("true" if alpha**2 <= 9.0 / 8.0 else "false"):
        return f"stable_by_pitch={meta.get('stable_by_pitch')} at alpha = {alpha}"
    return None


def _hyperbolic_window(op: Op, text: str) -> str | None:
    p = op.params
    columns = ["t", "window_max_t", "window_stable", "bound_A_sq", "pointwise_stable"]
    got, why = _table(text, columns, p["steps"])
    if why:
        return why
    _, data = got
    n = p["n"]
    t = data[:, 0]
    if not _close(t, np.linspace(p["t_min"], p["t_max"], p["steps"])):
        return "t column is not the requested grid"
    edge = 1.0 + (n + 1) ** 2 / (4.0 * n * (n - 1))
    if not _close(data[:, 1], np.full_like(t, edge)):
        return f"window edge {data[0, 1]}, expected {edge}"
    if np.any(data[:, 2] != (t < edge)):
        return "window_stable disagrees with t < window edge"
    return None


CHECKS: dict[str, Callable[[Op, str], str | None]] = {
    "sweep-f": _sweep_f,
    "find-c0": _find_c0,
    "index": _index,
    "criteria": _criteria,
    "export-spherical": _spherical,
    "export-helicoid": _helicoid_export,
    "export-curve": _curve,
    "helicoid": _helicoid_table,
    "hyperbolic-window": _hyperbolic_window,
}


def check(op: Op, text: str) -> str | None:
    """Reason the output of `op` is wrong, or None."""
    try:
        return CHECKS[op.kind](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def rows_of(text: str) -> int:
    """Data records in an output: CSV rows, or 1 for a JSON document."""
    if text.startswith("{"):
        return 1
    return sum(1 for line in text.splitlines() if line and not line.startswith("#"))

