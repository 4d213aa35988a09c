"""Seeded operation streams for the benchmark workloads.

An operation is one `hypstab` CLI command.  Every operation draws fresh
continuous parameters, so no two operations share a cache entry (the
rotation-angle cache in `spherical_catenoid` is keyed on the shape
parameter).  Every parameter is drawn stratified: over every `STRATA`
draws of it, each of `STRATA` equal sub-ranges of its range is visited
once, in a seeded order.  That keeps the work mix of a run close to the
workload's average, so runs with different seeds measure the same load.

Command kinds are interleaved by a fixed slot pattern per workload, shuffled
per cycle.  The pattern fixes the share of every kind.

Every operation of every workload succeeds.  The coordinate ranges stop
short of e^9 (s_max <= 7.5 on the spherical family and on curves, s_max <= 5
and t_max <= 3.5 on the helicoid), where the CLI's absolute 1e-8 hyperboloid
check starts to reject correct points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

STRATA = 10


@dataclass
class Op:
    """One CLI invocation: `argv` without `--output`, plus the parameters
    the output checks need."""

    kind: str
    argv: tuple[str, ...]
    params: dict[str, Any] = field(default_factory=dict)


class Strata:
    """Uniform draws on [0, 1) that visit each of `count` equal sub-ranges
    once per `count` draws, in seeded random order."""

    def __init__(self, rng: random.Random, count: int = STRATA) -> None:
        self._rng = rng
        self._count = count
        self._order: list[int] = []

    def draw(self) -> float:
        if not self._order:
            self._order = list(range(self._count))
            self._rng.shuffle(self._order)
        return (self._order.pop() + self._rng.random()) / self._count


def _num(x: float | int) -> str:
    """Argument text that parses back to exactly x."""
    return repr(x) if isinstance(x, float) else str(x)


def _op(kind: str, command: str, params: dict[str, Any]) -> Op:
    argv = [command]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), _num(value)]
    return Op(kind, tuple(argv), params)


class _Draw:
    """Random source of one stream.  Every parameter draws from its own
    `Strata`, keyed by name, so each parameter's values spread evenly over
    its range within every `STRATA` operations of one kind."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._strata: dict[str, Strata] = {}

    def uniform(self, name: str, lo: float, hi: float) -> float:
        strata = self._strata.setdefault(name, Strata(self.rng))
        return lo + (hi - lo) * strata.draw()

    def log_uniform(self, name: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(name, math.log(lo), math.log(hi)))

    def integer(self, name: str, lo: int, hi: int) -> int:
        return min(hi, lo + int(self.uniform(name, 0.0, hi - lo + 1)))


# --- spherical-certify ---------------------------------------------------


def _sweep_f(d: _Draw) -> Op:
    a_min = d.uniform("sweep_f.a_min", 0.55, 0.75)
    width = d.uniform("sweep_f.width", 0.1, 0.9)
    return _op(
        "sweep-f",
        "sweep-f",
        {
            "a_min": a_min,
            "a_max": a_min + width,
            "step": d.uniform("sweep_f.step", 0.005, 0.015),
            "tol": d.log_uniform("sweep_f.tol", 1e-12, 1e-9),
        },
    )


def _find_c0(d: _Draw) -> Op:
    return _op(
        "find-c0",
        "find-c0",
        {
            "tol": d.log_uniform("find_c0.tol", 1e-12, 1e-6),
            "quad_tol": d.log_uniform("find_c0.quad_tol", 1e-12, 1e-9),
        },
    )


def _criteria(d: _Draw) -> Op:
    n = d.integer("criteria.n", 2, 6)
    pinch_a = d.uniform("criteria.pinch_a", 0.5, 1.0)
    params: dict[str, Any] = {
        "n": n,
        "sup_a_sq": d.uniform("criteria.sup_a_sq", 0.0, 10.0),
        "pinch_a": pinch_a,
        "pinch_b": pinch_a + d.uniform("criteria.pinch_gap", 0.0, 1.0),
        "mass_a_sq": d.uniform("criteria.mass_a_sq", 0.0, 10.0),
        "mass_grad_a_sq": d.uniform("criteria.mass_grad_a_sq", 0.0, 40.0),
    }
    if n >= 3:
        params["sobolev_constant"] = d.uniform("criteria.sobolev_constant", 0.1, 2.0)
        params["a_n_mass"] = d.uniform("criteria.a_n_mass", 0.0, 2.0)
    return _op("criteria", "criteria", params)


# --- morse-index -----------------------------------------------------------


def _index(d: _Draw) -> Op:
    return _op(
        "index",
        "index",
        {
            "a": d.uniform("index.a", 0.55, 3.0),
            "nodes": 1000 * d.integer("index.nodes", 2, 20),
            "radius": d.uniform("index.radius", 8.0, 15.0),
            "m_max": d.integer("index.m_max", 2, 8),
            "k_eigs": d.integer("index.k_eigs", 1, 5),
        },
    )


# --- surface-export --------------------------------------------------------


def _spherical_export(d: _Draw) -> Op:
    return _op(
        "export-spherical",
        "embed-export",
        {
            "family": "spherical",
            "a": d.uniform("spherical.a", 0.55, 3.0),
            "s_max": d.uniform("spherical.s_max", 1.0, 7.5),
            "s_grid": d.integer("spherical.s_grid", 60, 140),
            "theta_grid": d.integer("spherical.theta_grid", 60, 140),
        },
    )


def _helicoid_export(d: _Draw) -> Op:
    return _op(
        "export-helicoid",
        "embed-export",
        {
            "family": "helicoid",
            "alpha": d.uniform("helicoid.alpha", 0.1, 2.0),
            "s_max": d.uniform("helicoid.s_max", 1.0, 5.0),
            "t_max": d.uniform("helicoid.t_max", 0.5, 3.5),
            "s_grid": d.integer("helicoid.s_grid", 60, 140),
            "t_grid": d.integer("helicoid.t_grid", 60, 140),
        },
    )


def _helicoid_table(d: _Draw) -> Op:
    return _op(
        "helicoid",
        "helicoid",
        {
            "alpha": d.uniform("helicoid_table.alpha", 0.0, 2.0),
            "t_max": d.uniform("helicoid_table.t_max", 1.0, 4.0),
            "t_grid": d.integer("helicoid_table.t_grid", 51, 201),
        },
    )


# --- hyperbolic-curves -----------------------------------------------------


def _curve(d: _Draw) -> Op:
    return _op(
        "export-curve",
        "embed-export",
        {
            "family": "hyperbolic-curve",
            "n": d.integer("curve.n", 2, 6),
            "t": d.uniform("curve.t", 1.01, 3.0),
            "s_max": d.uniform("curve.s_max", 3.0, 7.5),
            "samples": d.integer("curve.samples", 200, 1500),
        },
    )


def _hyperbolic_window(d: _Draw) -> Op:
    return _op(
        "hyperbolic-window",
        "hyperbolic-window",
        {
            "n": d.integer("hyperbolic_window.n", 2, 6),
            "t_min": 1.01,
            "t_max": d.uniform("hyperbolic_window.t_max", 1.5, 3.0),
            "steps": d.integer("hyperbolic_window.steps", 20, 200),
        },
    )


Maker = Callable[[_Draw], Op]

# One cycle of 20 slots per workload; the counts are the shares.
WORKLOADS: dict[str, list[tuple[Maker, int]]] = {
    "spherical-certify": [(_sweep_f, 9), (_find_c0, 9), (_criteria, 2)],
    "morse-index": [(_index, 20)],
    "surface-export": [
        (_spherical_export, 9),
        (_helicoid_export, 8),
        (_helicoid_table, 3),
    ],
    "hyperbolic-curves": [(_curve, 18), (_hyperbolic_window, 2)],
}


class Stream:
    """Endless, reproducible operation stream of one workload.

    `purpose` separates streams of one seed: the warm-up stream and the
    timed stream never share a random source.
    """

    def __init__(self, workload: str, seed: int, purpose: str) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self._draw = _Draw(random.Random(f"{workload}/{seed}/{purpose}"))
        self._slots = [maker for maker, count in WORKLOADS[workload] for _ in range(count)]
        self._cycle: list[Maker] = []

    def next(self) -> Op:
        if not self._cycle:
            self._cycle = list(self._slots)
            self._draw.rng.shuffle(self._cycle)
        return self._cycle.pop()(self._draw)
