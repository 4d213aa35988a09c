"""Acceptance suite.

Each criterion is one test function, so `pytest -v` prints one pass/fail
line per criterion.  Tolerances are pinned here and must not be loosened;
each test also prints the measured quantity for the record.
"""

import math
import time

import numpy as np
import pytest

from hypstab.cli import EXIT_OK, main, read_table
from hypstab.criteria import (
    STABLE,
    lambda1_bounds,
    lambda1_bounds_pinched,
    pointwise_stability_test,
)
from hypstab.helicoid import (
    Helicoid,
    first_fundamental,
    first_fundamental_fd,
    is_stable_by_pitch,
    norm_A_sq as helicoid_norm_A_sq,
    second_fundamental,
    second_fundamental_fd,
    sup_norm_A_sq,
)
from hypstab.hyperbolic_catenoid import (
    HyperbolicCatenoid,
    integrate_profile,
    is_stable_by_window,
    norm_A_sq as hyperbolic_norm_A_sq,
    shape_constant,
    stability_window_max_t,
)
from hypstab.lorentz import on_hyperboloid
from hypstab.spectral import (
    count_negative_eigenvalues,
    discretize,
    morse_index,
)
from hypstab.spherical_catenoid import (
    F,
    SphericalCatenoid,
    find_c0,
    metric_residual,
)

import oracles


def test_criterion_01_instability_threshold_location():
    """find_c0 lands in [0.72, 0.74] within 5 seconds."""
    start = time.perf_counter()
    c0 = find_c0(tol=1e-4)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: c0 = {c0:.6f} in {elapsed:.2f} s")
    assert 0.72 <= c0 <= 0.74
    assert elapsed < 5.0


def test_criterion_02_functional_sign_table():
    """F < 0 for a in {0.55, 0.60, 0.65, 0.70}, F > 0 for {0.80, 1.00, 1.50},
    every reported error below 1e-6 |F| + 1e-9, all within 10 seconds."""
    start = time.perf_counter()
    results = {}
    for a in (0.55, 0.60, 0.65, 0.70, 0.80, 1.00, 1.50):
        results[a] = F(SphericalCatenoid(a))
    elapsed = time.perf_counter() - start
    line = ", ".join(f"F({a}) = {r.value:.3f}" for a, r in results.items())
    print(f"criterion 2: {line} in {elapsed:.2f} s")
    for a in (0.55, 0.60, 0.65, 0.70):
        assert results[a].value < 0.0, a
    for a in (0.80, 1.00, 1.50):
        assert results[a].value > 0.0, a
    for a, res in results.items():
        assert res.error_estimate < 1e-6 * abs(res.value) + 1e-9, a
    assert elapsed < 10.0


def test_criterion_03_morse_index_transition():
    """Index 1 below the threshold (a = 0.6, converged, all negativity in the
    rotationally symmetric mode) and 0 far above it (a = 10), in 30 seconds."""
    start = time.perf_counter()
    low = morse_index(SphericalCatenoid(0.6), R=10.0, N=2000, m_max=5)
    high = morse_index(SphericalCatenoid(10.0), R=10.0, N=2000, m_max=5)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3: index(0.6) = {low.total_index}, "
        f"index(10) = {high.total_index} in {elapsed:.2f} s"
    )
    assert low.total_index == 1
    assert low.converged
    for entry in low.modes:
        assert entry.negative_count == (1 if entry.mode == 0 else 0)
    assert high.total_index == 0
    assert high.converged
    assert elapsed < 30.0


def test_criterion_04_inertia_counts_on_known_spectra():
    """Constant-potential box problems on [-pi, pi]: q = -1 has exactly one
    negative eigenvalue, q = +1 none, at every tested resolution."""
    for n_cells in (500, 1000, 2000):
        neg = count_negative_eigenvalues(
            discretize(lambda s: 1.0, lambda s: -1.0, math.pi, n_cells)
        )
        pos = count_negative_eigenvalues(
            discretize(lambda s: 1.0, lambda s: 1.0, math.pi, n_cells)
        )
        assert neg == 1, n_cells
        assert pos == 0, n_cells
    print("criterion 4: counts (1, 0) at N = 500, 1000, 2000")


def test_criterion_05_embedding_certification(tmp_path):
    """Every exported point solves the hyperboloid constraint to 1e-8; the
    finite-difference fundamental forms match the closed forms to 1e-6; the
    catenoid metric residual stays under 1e-7."""
    worst_metric = 0.0
    for a in (0.6, 1.0, 2.0):
        cat = SphericalCatenoid(a)
        for s in np.linspace(-3.0, 3.0, 20):
            for theta in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
                worst_metric = max(
                    worst_metric, metric_residual(cat, float(s), float(theta))
                )
    assert worst_metric < 1e-7

    worst_fd = 0.0
    for alpha in (0.5, 1.0, 1.5):
        h = Helicoid(alpha)
        for t in np.linspace(-2.0, 2.0, 9):
            exact1 = first_fundamental(h, float(t))
            exact2 = second_fundamental(h, float(t))
            for s in (-1.0, 0.5):
                got1 = first_fundamental_fd(h, s, float(t))
                got2 = second_fundamental_fd(h, s, float(t))
                worst_fd = max(
                    worst_fd,
                    *(abs(x - y) for x, y in zip(exact1, got1)),
                    *(abs(x - y) for x, y in zip(exact2, got2)),
                )
    assert worst_fd <= 1e-6

    exports = [
        (["embed-export", "--family", "spherical", "--a", "0.8",
          "--s-grid", "9", "--theta-grid", "9"], 4),
        (["embed-export", "--family", "helicoid", "--alpha", "1.2",
          "--s-grid", "8", "--t-grid", "8"], 4),
        (["embed-export", "--family", "hyperbolic-curve", "--n", "3",
          "--t", "1.4", "--samples", "41"], 3),
    ]
    for argv, coord_count in exports:
        out = tmp_path / (argv[2] + ".csv")
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        for row in rows:
            assert on_hyperboloid(row[-coord_count:], 1e-8)
    print(
        f"criterion 5: metric residual {worst_metric:.2e}, "
        f"fundamental-form deviation {worst_fd:.2e}, exports on-sheet at 1e-8"
    )


def test_criterion_06_hyperbolic_profiles_verified():
    """Profiles for n in {2, 3, 4}, t in {1.1, 1.5, 2.0}: slope brackets and
    matching curvature forms on every sample, height at s = 2 within 1e-8 of
    an independent fixed-step integration."""
    worst_gap = 0.0
    for n in (2, 3, 4):
        for t in (1.1, 1.5, 2.0):
            cat = HyperbolicCatenoid(n, t)
            samples = integrate_profile(cat, 3.0)
            for smp in samples[1:]:
                upper = smp.x**2 - 1.0
                assert smp.x_prime**2 < upper
                assert smp.x_prime**2 > upper - shape_constant(n, t) ** 2
                closed = hyperbolic_norm_A_sq(cat, smp)
                state = n * (n - 1) * (smp.x**2 - smp.x_prime**2 - 1.0) / smp.x**2
                worst_gap = max(worst_gap, abs(closed - state))
    assert worst_gap <= 1e-8

    x_live, _ = oracles.rk4_profile_oracle(2, 1.5, 2.0, 1e-4)
    assert abs(x_live - 6.949058027030028) < 5e-10  # oracle frozen at h = 1e-6
    got = integrate_profile(HyperbolicCatenoid(2, 1.5), 2.0)[-1].x
    diff = abs(got - x_live)
    print(
        f"criterion 6: worst curvature-form gap {worst_gap:.2e}, "
        f"oracle deviation {diff:.2e}"
    )
    assert diff <= 1e-8


def test_criterion_07_window_against_pointwise_certificate():
    """The neck-height window and the pointwise curvature certificate agree
    wherever both can decide, and the window edge at n = 2 is exactly 2.125.
    Between sqrt(max_t) and max_t the window certifies stability while the
    pointwise bound is inconclusive; that band is checked explicitly."""
    assert stability_window_max_t(2) == 2.125
    disagreements = 0
    for n in (2, 3, 4):
        max_t = stability_window_max_t(n)
        both_lo = np.linspace(1.0 + 1e-6, math.sqrt(max_t) - 1e-6, 50)
        both_hi = np.linspace(max_t + 1e-6, max_t + 2.0, 50)
        for t in np.concatenate([both_lo, both_hi]):
            cat = HyperbolicCatenoid(n, float(t))
            window = is_stable_by_window(cat)
            bound = n * (n - 1) * (t * t - 1.0)
            pointwise = pointwise_stability_test(n, bound).verdict == STABLE
            if window != pointwise:
                disagreements += 1
        # inside the gap only the sharper window test certifies
        for t in np.linspace(math.sqrt(max_t) + 1e-6, max_t - 1e-6, 20):
            cat = HyperbolicCatenoid(n, float(t))
            assert is_stable_by_window(cat)
            bound = n * (n - 1) * (t * t - 1.0)
            assert pointwise_stability_test(n, bound).verdict != STABLE
    print(f"criterion 7: 0 disagreements expected, found {disagreements}")
    assert disagreements == 0


def test_criterion_08_helicoid_pitch_criterion():
    """The pointwise certificate holds exactly for pitch^2 <= 9/8 (a
    sufficient condition for stability, not a threshold), and the curvature
    supremum is 2 pitch^2, attained on the axis."""
    table = {0.0: True, 0.5: True, 1.0: True, 1.06: True, 1.061: False, 1.5: False}
    for alpha, expected in table.items():
        assert is_stable_by_pitch(Helicoid(alpha)) is expected, alpha
    for alpha in (0.5, 1.0, 1.5):
        h = Helicoid(alpha)
        sup = sup_norm_A_sq(h)
        assert abs(sup - 2.0 * alpha * alpha) <= 1e-12
        assert abs(helicoid_norm_A_sq(h, 0.0) - sup) <= 1e-12
        assert helicoid_norm_A_sq(h, 0.3) < sup
    print("criterion 8: pitch table and axis supremum verified")


def test_criterion_09_eigenvalue_bound_constants():
    """First-eigenvalue bounds ((n-1)^2/4, n^2) exactly, and the pinched
    refinement at unit curvature bounds gives (1/4, 4/3) exactly."""
    assert lambda1_bounds(2) == (0.25, 4.0)
    assert lambda1_bounds(3) == (1.0, 9.0)
    assert lambda1_bounds(4) == (2.25, 16.0)
    assert lambda1_bounds_pinched(1.0, 1.0) == (0.25, 4.0 / 3.0)
    print("criterion 9: bound constants exact")


def test_criterion_10_cli_runs_are_reproducible(tmp_path):
    """Two consecutive runs of every command produce byte-identical files."""
    commands = [
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.8", "--step", "0.05"],
        ["find-c0"],
        ["index", "--a", "0.6", "--radius", "8", "--nodes", "800", "--m-max", "2"],
        ["hyperbolic-window", "--n", "2", "--steps", "10"],
        ["helicoid", "--alpha", "1.1", "--t-grid", "11"],
        ["embed-export", "--family", "spherical", "--s-grid", "6",
         "--theta-grid", "6"],
        ["criteria", "--n", "2", "--sup-a-sq", "2.0", "--mass-a-sq", "1.0",
         "--mass-grad-a-sq", "9.0"],
    ]
    for argv in commands:
        first = tmp_path / "run1.out"
        second = tmp_path / "run2.out"
        assert main(argv + ["--output", str(first)]) == EXIT_OK, argv[0]
        assert main(argv + ["--output", str(second)]) == EXIT_OK, argv[0]
        assert first.read_bytes() == second.read_bytes(), argv[0]
    print(f"criterion 10: {len(commands)} commands byte-identical across reruns")
