"""Sturm-Liouville discretization, inertia counting, and the Morse index of
spherical catenoids.  Constant-coefficient and exponential-weight problems
with known spectra anchor the machinery before it touches the catenoid."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import hypstab.spectral as spectral
from hypstab.quadrature import QuadratureResult, find_root_bracketed
from hypstab.spectral import (
    IndexReport,
    SturmLiouvilleDisc,
    assemble_mode_operator,
    count_negative_eigenvalues,
    default_count_margin,
    discretize,
    lowest_eigenvalues,
    mode_is_positive_by_bound,
    morse_index,
)
from hypstab.spherical_catenoid import F, SphericalCatenoid, find_c0, norm_A_sq

import oracles


def flat_disc(q_val, R, N):
    return discretize(lambda s: 1.0, lambda s: q_val, R, N)


# -- constant-coefficient box problems: -u'' + q u on [-R, R], Dirichlet ----
# eigenvalues q + (k pi / 2R)^2, k = 1, 2, ...


def test_box_eigenvalues_zero_potential():
    disc = flat_disc(0.0, math.pi, 800)
    got = lowest_eigenvalues(disc, 3)
    for k, lam in enumerate(got, start=1):
        # second-difference eigenvalues undershoot by about lam^2 h^2 / 12
        assert lam == pytest.approx((k / 2.0) ** 2, abs=5e-5)


def test_negative_count_shifted_box():
    # q = -1: eigenvalues -1 + (k/2)^2 for R = pi -> -0.75, 0, 0.75, ...
    # one eigenvalue strictly below zero, one discrete-zero straggler
    for N in (500, 1000, 2000):
        assert count_negative_eigenvalues(flat_disc(-1.0, math.pi, N)) == 1
        assert count_negative_eigenvalues(flat_disc(1.0, math.pi, N)) == 0


def test_raw_count_sees_the_marginal_mode():
    # with zero margin the k = 2 eigenvalue, exactly 0 in the continuum but
    # slightly negative on the grid, is counted too
    disc = flat_disc(-1.0, math.pi, 1000)
    assert count_negative_eigenvalues(disc, margin=0.0) == 2
    lams = lowest_eigenvalues(disc, 3)
    assert lams[0] == pytest.approx(-0.75, abs=2e-5)
    assert lams[1] == pytest.approx(0.0, abs=2e-5)
    assert lams[2] == pytest.approx(1.25, abs=2e-5)
    assert lams[1] < 0.0  # the discrete straggler the margin absorbs


def test_large_margin_absorbs_everything():
    disc = flat_disc(-1.0, math.pi, 1000)
    assert count_negative_eigenvalues(disc, margin=10.0) == 0


def test_exponential_weight_problem():
    # weight e^{2s}, zero potential, R = pi: substituting u = e^{-s} w maps
    # the pencil to the shifted box, eigenvalues 1 + (k/2)^2
    disc = discretize(lambda s: np.exp(2.0 * s), lambda s: 0.0, math.pi, 2000)
    got = lowest_eigenvalues(disc, 3)
    for k, lam in enumerate(got, start=1):
        assert lam == pytest.approx(1.0 + (k / 2.0) ** 2, abs=5e-5)
    assert count_negative_eigenvalues(disc) == 0


def test_count_matches_eigenvalue_signs():
    disc = flat_disc(-2.0, math.pi, 1500)
    lams = lowest_eigenvalues(disc, 6)
    margin = default_count_margin(disc)
    expected = sum(1 for lam in lams if lam < -margin)
    assert count_negative_eigenvalues(disc) == expected == 2


def test_zero_pivot_retry():
    # R = 2, N = 4, q = -2: h = 1, every diagonal entry is exactly zero, so
    # the first pivot is zero and is taken as +1e-300.  Spectrum of the
    # resulting 3x3 system is -sqrt(2), 0, sqrt(2).
    disc = flat_disc(-2.0, 2.0, 4)
    assert count_negative_eigenvalues(disc, margin=0.0) == 1
    lams = lowest_eigenvalues(disc, 3)
    assert lams[0] == pytest.approx(-math.sqrt(2.0), abs=1e-12)
    assert lams[1] == pytest.approx(0.0, abs=1e-12)
    assert lams[2] == pytest.approx(math.sqrt(2.0), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_count_is_the_inertia_of_the_pencil(data):
    # small pencils with weights and potentials exact in binary, so that
    # pivots are often exactly zero; the count must be the number of
    # negative eigenvalues of D^-1/2 K D^-1/2 (dense eigvalsh)
    halves = st.sampled_from([0.5, 1.0, 2.0])
    N = data.draw(st.integers(4, 9), label="cells")
    h = data.draw(halves, label="h")
    weight = np.array(data.draw(st.lists(halves, min_size=N + 1, max_size=N + 1)))
    weight_mid = np.array(data.draw(st.lists(halves, min_size=N, max_size=N)))
    q_h2 = st.sampled_from([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0])
    potential = np.array(data.draw(st.lists(q_h2, min_size=N + 1, max_size=N + 1))) / (h * h)
    grid = np.linspace(-0.5 * N * h, 0.5 * N * h, N + 1)
    disc = SturmLiouvilleDisc(grid, weight, weight_mid, potential)
    w = weight[1:-1]
    stiffness = (np.diag((weight_mid[:-1] + weight_mid[1:]) / h + potential[1:-1] * w * h)
                 - np.diag(weight_mid[1:-1] / h, 1) - np.diag(weight_mid[1:-1] / h, -1))
    scale = 1.0 / np.sqrt(w * h)
    lams = np.linalg.eigvalsh(stiffness * np.outer(scale, scale))
    assume(np.min(np.abs(lams)) > 1e-9 * np.max(np.abs(lams)))
    assert count_negative_eigenvalues(disc, margin=0.0) == int(np.sum(lams < 0.0))


@pytest.mark.parametrize("q", [1.0, -1.0])
@pytest.mark.parametrize("R", [1e-100, 1e-155, 1e-200])
def test_tiny_box_pencils_have_no_negative_eigenvalue(R, q):
    # every eigenvalue is near q + (pi / 2R)^2 > 0; where h^2 underflows the
    # scaled form still holds the stencil's O(1) entries
    assert count_negative_eigenvalues(flat_disc(q, R, 100)) == 0
    assert count_negative_eigenvalues(flat_disc(q, R, 100), margin=0.0) == 0


def test_zero_potential_eigenvalues_scale_as_the_inverse_square_radius():
    # with q = 0 the form on [-R, R] is the one on [-1, 1] over R^2
    unit = np.array(lowest_eigenvalues(flat_disc(0.0, 1.0, 100), 3))
    for R in (1e-150, 1e-100, 1e-20, 1e3, 1e100):
        scaled = np.array(lowest_eigenvalues(flat_disc(0.0, R, 100), 3)) * R * R
        assert np.max(np.abs(scaled - unit) / unit) <= 1e-14, R


@pytest.mark.parametrize("R", [1e-160, 1e-200, 1e-300])
def test_eigenvalues_on_a_grid_too_fine_for_h_squared_name_h(R):
    disc = flat_disc(0.0, R, 100)
    with pytest.raises(OverflowError, match=f"grid spacing h = {disc.h}"):
        lowest_eigenvalues(disc, 1)
    assert count_negative_eigenvalues(disc) == 0


def test_mode_operator_guard_reads_the_weight_alone():
    # a cosh(20) passes the float maximum between a = 7.4e299 and 7.5e299;
    # the grid spacing plays no part
    for N in (100, 20000):
        assemble_mode_operator(SphericalCatenoid(7.4e299), 0, 10.0, N)
    with pytest.raises(OverflowError, match=r"a cosh\(2R\) is not finite at a = 7.5e\+299"):
        assemble_mode_operator(SphericalCatenoid(7.5e299), 0, 10.0, 100)
    disc = assemble_mode_operator(SphericalCatenoid(0.9), 0, 1e-200, 100)
    assert disc.interior == 99


def test_lowest_eigenvalues_stop_at_the_interior_nodes():
    # N cells leave N - 1 interior unknowns, so k past that returns them all
    disc = flat_disc(0.0, math.pi, 100)
    lams = lowest_eigenvalues(disc, 5000)
    assert len(lams) == 99
    assert list(lams) == sorted(lams)


EPS = np.finfo(float).eps


def _standard_form(disc):
    """(d, e) of D^-1/2 K D^-1/2 from the disc's fields, written out here
    rather than taken from the module."""
    h = disc.h
    w = disc.weight[1:-1]
    wm = disc.weight_mid
    scale = 1.0 / np.sqrt(w * h)
    d = ((wm[:-1] + wm[1:]) / h + disc.potential[1:-1] * w * h) * scale * scale
    e = -wm[1:-1] / h * (scale[:-1] * scale[1:])
    return d, e


def _inf_norm(d, e):
    pad = np.concatenate(([0.0], np.abs(e), [0.0]))
    return float(np.max(np.abs(d) + pad[:-1] + pad[1:]))


@pytest.mark.parametrize("R", [1.0, 8.0, 10.0, 12.345, 15.0])
@pytest.mark.parametrize("N", [4, 5, 777, 2000, 2001, 14000, 20000])
def test_discretize_grid_is_its_own_mirror_image(N, R):
    # linspace alone is not, for every N here from 777 up
    grid = discretize(lambda s: 1.0, lambda s: 0.0, R, N).grid
    assert np.array_equal(grid, -grid[::-1])
    assert (grid[0], grid[-1]) == (-R, R)


def _recording(sizes):
    # eigvalsh_tridiagonal, noting the size of every matrix it is given
    solve = scipy.linalg.eigvalsh_tridiagonal

    def recording(diag, off, **kwargs):
        sizes.append(len(diag))
        return solve(diag, off, **kwargs)

    return recording


def _mirrored(values, size):
    # the first ceil(size/2) values, followed by their mirror image
    half = np.array(values[: (size + 1) // 2])
    return np.concatenate((half, half[: size // 2][::-1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_folded_eigenvalues_are_the_spectrum(data):
    # mirror-symmetric pencils with 3-12 interior nodes, odd and even: the
    # parity sectors give the k lowest eigenvalues of the whole matrix.  The
    # reference is 30-digit mpmath: dense eigvalsh was itself 4.1 eps ||T||
    # off on one drawn 9-node matrix, where the fold was exact.
    import mpmath as mp

    n = data.draw(st.integers(3, 12), label="interior nodes")
    k = data.draw(st.integers(1, n), label="k")
    R = data.draw(st.floats(0.5, 5.0), label="R")
    weights = st.lists(st.floats(0.25, 4.0), min_size=n + 2, max_size=n + 2)
    potentials = st.lists(st.floats(-20.0, 20.0), min_size=n + 2, max_size=n + 2)
    grid = np.linspace(-R, R, n + 2)
    grid = 0.5 * (grid - grid[::-1])
    disc = SturmLiouvilleDisc(
        grid,
        _mirrored(data.draw(weights, label="weight"), n + 2),
        _mirrored(data.draw(weights, label="weight_mid"), n + 1),
        _mirrored(data.draw(potentials, label="potential"), n + 2),
    )
    d, e = _standard_form(disc)
    sizes = []
    with mock.patch.object(scipy.linalg, "eigvalsh_tridiagonal", _recording(sizes)):
        got = lowest_eigenvalues(disc, k)
    assert max(sizes) == (n + 1) // 2  # the fold ran
    with mp.workdps(30):
        full = mp.matrix(n, n)
        for i in range(n):
            full[i, i] = d[i]
        for i in range(n - 1):
            full[i, i + 1] = full[i + 1, i] = e[i]
        want = np.array(sorted(float(v) for v in mp.eigsy(full, eigvals_only=True))[:k])
    assert np.max(np.abs(np.array(got) - want)) <= 4.0 * EPS * _inf_norm(d, e)


@pytest.mark.parametrize("N", [2000, 2001, 20000])
@pytest.mark.parametrize("a", [0.55, 0.7666, 1.7, 3.0])
def test_folded_catenoid_eigenvalues_match_the_full_solve(a, N):
    disc = assemble_mode_operator(SphericalCatenoid(a), 0, 10.0, N)
    d, e = _standard_form(disc)
    full = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 4))
    got = np.array(lowest_eigenvalues(disc, 5))
    assert np.max(np.abs(got - full)) <= 4.0 * EPS * _inf_norm(d, e)


@pytest.mark.parametrize("N, k, sizes", [
    (2000, 1, [1000]),
    (2000, 2, [1000, 999]),
    (2000, 5, [1000, 999]),
    (2001, 2, [1000, 1000]),
    (2001, 4, [1000, 1000]),
])
def test_mode_zero_is_solved_as_two_half_size_sectors(monkeypatch, N, k, sizes):
    # a lost mirror image would bring back the full-size solve unnoticed
    calls = []
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", _recording(calls))
    lowest_eigenvalues(assemble_mode_operator(SphericalCatenoid(0.9), 0, 10.0, N), k)
    assert calls == sizes
    calls.clear()
    # an odd weight has no mirror image: one solve on all N - 1 nodes
    lowest_eigenvalues(discretize(lambda s: np.exp(2.0 * s), lambda s: 0.0, 10.0, N), k)
    assert calls == [N - 1]


def test_discretize_validation():
    with pytest.raises(ValueError):
        discretize(lambda s: 1.0, lambda s: 0.0, 0.0, 100)
    with pytest.raises(ValueError):
        discretize(lambda s: 1.0, lambda s: 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        discretize(lambda s: 1.0, lambda s: 0.0, 1.0, 100.0)
    # the span 2R of [-R, R] is past the float range
    with pytest.raises(ValueError, match="radius R"):
        discretize(lambda s: 1.0, lambda s: 0.0, 1e308, 10)
    # h = 2e158 has no finite square, which the scaled form needs
    with pytest.raises(ValueError, match=r"h\^2 a finite float, got h = 2e\+158"):
        discretize(lambda s: 1.0, lambda s: 0.0, 1e160, 100)


def test_disc_field_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    ones = np.ones_like(grid)
    mid = np.ones(10)
    with pytest.raises(ValueError):
        SturmLiouvilleDisc(grid, -ones, mid, ones)  # negative weight
    warped = grid.copy()
    warped[3] += 0.05
    with pytest.raises(ValueError):
        SturmLiouvilleDisc(warped, ones, mid, ones)  # non-uniform
    with pytest.raises(ValueError, match="at least 5 nodes"):
        SturmLiouvilleDisc(grid[:4], ones[:4], mid[:3], ones[:4])
    with pytest.raises(ValueError, match="weight and potential must match"):
        SturmLiouvilleDisc(grid, ones, mid, ones[:-1])
    with pytest.raises(ValueError, match="one entry per grid cell"):
        SturmLiouvilleDisc(grid, ones, np.ones(11), ones)
    with pytest.raises(ValueError, match="grid must be increasing"):
        SturmLiouvilleDisc(grid[::-1], ones, mid, ones)
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="weight_mid must be finite and positive"):
            SturmLiouvilleDisc(grid, ones, np.full(10, bad), ones)
    with pytest.raises(ValueError, match="potential must be finite"):
        SturmLiouvilleDisc(grid, ones, mid, np.full(11, math.nan))


@pytest.mark.parametrize("margin", [-1.0, math.inf, math.nan])
def test_count_rejects_a_bad_margin(margin):
    with pytest.raises(ValueError, match="margin must be finite and >= 0"):
        count_negative_eigenvalues(flat_disc(0.0, 1.0, 10), margin=margin)


@pytest.mark.parametrize("k", [0, -1, True, 2.0])
def test_lowest_eigenvalues_rejects_a_bad_k(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        lowest_eigenvalues(flat_disc(0.0, 1.0, 10), k)


def test_assemble_mode_operator_validation():
    cat = SphericalCatenoid(0.6)
    with pytest.raises(ValueError):
        assemble_mode_operator(cat, -1, 10.0, 500)
    with pytest.raises(ValueError):
        assemble_mode_operator(cat, 0, 10.0, 50)  # too few cells
    with pytest.raises(ValueError):
        assemble_mode_operator(cat, 0, 400.0, 500)  # beyond domain cap


def test_mode_potential_values_at_center():
    # q_m(0) = m^2/rho(0)^2 - |A|^2(0) + 2 with rho(0)^2 = a - 1/2, the
    # squared neck radius of the rotation orbit
    for a in (0.6, 1.0, 2.0):
        cat = SphericalCatenoid(a)
        for m in (0, 1, 3):
            disc = assemble_mode_operator(cat, m, 8.0, 200)
            center = disc.potential[100]
            rho_sq = a - 0.5
            expected = m * m / rho_sq - norm_A_sq(cat, 0.0) + 2.0
            assert center == pytest.approx(expected, rel=1e-12)


def test_mode_weight_is_rotation_radius():
    cat = SphericalCatenoid(0.8)
    disc = assemble_mode_operator(cat, 0, 6.0, 300)
    s = disc.grid[225]
    w = cat.a * math.cosh(2.0 * s) - 0.5
    assert disc.weight[225] == pytest.approx(math.sqrt(w), rel=1e-12)


def test_positive_mode_screen():
    assert mode_is_positive_by_bound(SphericalCatenoid(0.6), 10)
    assert mode_is_positive_by_bound(SphericalCatenoid(0.6), 2)
    assert mode_is_positive_by_bound(SphericalCatenoid(10.0), 2)
    assert mode_is_positive_by_bound(SphericalCatenoid(0.5001), 1)
    assert mode_is_positive_by_bound(SphericalCatenoid(10.0), 1)
    # m = 0 keeps the unstable direction in play, never screened out
    assert not mode_is_positive_by_bound(SphericalCatenoid(0.6), 0)
    assert not mode_is_positive_by_bound(SphericalCatenoid(10.0), 0)
    with pytest.raises(ValueError):
        mode_is_positive_by_bound(SphericalCatenoid(0.6), -1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 1e3, exclude_min=True),
    st.floats(0.55, 3.0),
    st.integers(0, 12),
)
def test_exact_screen_against_the_sampled_screen(a_any, a_bench, m):
    # Close to a = 1/2 the sampled screen's curvature allowance outgrows the
    # potential's margin and it gives up on modes the closed form certifies.
    # On a grid of 20 000 values of a in (1/2, 3] the two disagree only below
    # a = 0.528 for m <= 8 and below 0.5434 for m <= 12, short of the
    # benchmark's lowest a = 0.55.  The sampled screen tests q_m >= 0, which
    # fails for m = 1; the exact screen certifies mode 1 by its positive
    # Jacobi field instead.
    cat = SphericalCatenoid(a_bench)
    if m != 1:
        assert mode_is_positive_by_bound(cat, m) == oracles.sampled_mode_screen(cat, m)
    cat = SphericalCatenoid(a_any)
    if oracles.sampled_mode_screen(cat, m):
        assert mode_is_positive_by_bound(cat, m)
    assert mode_is_positive_by_bound(cat, 1)
    assert not mode_is_positive_by_bound(cat, 0)


def _mode_one_jacobi_field(a, s):
    """(u, residual of (rho u')' = rho q_1 u relative to its largest term)
    for the Killing-field Jacobi field u = d/ds (B sinh phi) of mode 1, at
    the current mpmath precision.  phi takes one quadrature; every
    derivative of B = sqrt(w + 1), rho = sqrt(w) and phi' = c / ((w + 1)
    sqrt(w)) is taken in closed form through w = a cosh(2s) - 1/2."""
    import mpmath as mp

    a, s, half = mp.mpf(a), mp.mpf(s), mp.mpf(1) / 2
    c = mp.sqrt(a * a - half / 2)
    w = a * mp.cosh(2 * s) - half
    v = w + 1
    r = mp.sqrt(w)
    dw = (2 * a * mp.sinh(2 * s), 4 * a * mp.cosh(2 * s), 8 * a * mp.sinh(2 * s))

    def chain(f1, f2, f3=0):
        # first three s-derivatives of f(w(s)) from the w-derivatives of f
        return (
            f1 * dw[0],
            f2 * dw[0] ** 2 + f1 * dw[1],
            f3 * dw[0] ** 3 + 3 * f2 * dw[0] * dw[1] + f1 * dw[2],
        )

    b0 = mp.sqrt(v)
    b1, b2, b3 = chain(1 / (2 * b0), -1 / (4 * v * b0), 3 / (8 * v * v * b0))
    p1 = c / (v * r)
    g1 = -1 / (v * v * r) - 1 / (2 * v * w * r)
    g2 = 2 / (v**3 * r) + 1 / (v * v * w * r) + 3 / (4 * v * w * w * r)
    p2, p3, _ = (c * d for d in chain(g1, g2))
    phi = mp.quad(
        lambda t: c / ((a * mp.cosh(2 * t) + half) * mp.sqrt(a * mp.cosh(2 * t) - half)),
        [0, abs(s)],
    )
    sh, ch = mp.sign(s) * mp.sinh(phi), mp.cosh(phi)
    u = b1 * sh + b0 * p1 * ch
    du = (b2 + b0 * p1**2) * sh + (2 * b1 * p1 + b0 * p2) * ch
    ddu = (b3 + 3 * b1 * p1**2 + 3 * b0 * p1 * p2) * sh + (
        3 * b2 * p1 + 3 * b1 * p2 + b0 * p3 + b0 * p1**3
    ) * ch
    q1 = 1 / w - 2 * (a * a - half / 2) / (w * w) + 2
    terms = (r * ddu, dw[0] / (2 * r) * du, -r * q1 * u)
    return u, abs(sum(terms)) / max(abs(x) for x in terms)


@pytest.mark.parametrize("a", [0.5001, 0.6, 0.7666, 1.0, 3.0, 50.0])
def test_mode_one_killing_jacobi_field_is_positive(a):
    # the certificate behind mode_is_positive_by_bound(cat, 1), at 32 digits
    import mpmath as mp

    with mp.workdps(32):
        for k in range(-12, 13):
            u, residual = _mode_one_jacobi_field(a, k / 2)
            assert residual <= 1e-25, (a, k / 2)
            assert u > 0, (a, k / 2)
        assert _mode_one_jacobi_field(a, 0)[0] == 1


def _even_jacobi_field(a, s):
    """u_e = <d_a X, nu> of mode 0 at (s, theta = 0), at the current mpmath
    precision: d_a by mp.diff of X's component along the normal, phi by
    mp.quad of its defining integrand.  nu = J (X x X_s), J = diag(-1, 1, 1)
    on (x0, x1, x2), is Minkowski-orthogonal to X, X_s and X_theta = rho e_3,
    and points away from the axis at the neck."""
    import mpmath as mp

    a, s, half = mp.mpf(a), mp.mpf(s), mp.mpf(1) / 2

    def point(b):
        # (x0, x1, x2) of X(s, 0) = (B cosh phi, B sinh phi, rho) at shape b
        c = mp.sqrt(b * b - half / 2)

        def rate(t):
            v = b * mp.cosh(2 * t)
            return c / ((v + half) * mp.sqrt(v - half))

        w = b * mp.cosh(2 * s) - half
        p = mp.quad(rate, [0, s])
        return mp.sqrt(w + 1) * mp.cosh(p), mp.sqrt(w + 1) * mp.sinh(p), mp.sqrt(w)

    x0, x1, x2 = point(a)
    big_sq = x2 * x2 + 1  # B^2 = w + 1
    dw = 2 * a * mp.sinh(2 * s)
    dp = mp.sqrt(a * a - half / 2) / (big_sq * x2)
    # X_s from B' / B = w' / (2 B^2) and rho' = w' / (2 rho)
    t0 = dw / (2 * big_sq) * x0 + dp * x1
    t1 = dw / (2 * big_sq) * x1 + dp * x0
    t2 = dw / (2 * x2)
    n0 = x2 * t1 - x1 * t2
    n1 = x2 * t0 - x0 * t2
    n2 = x0 * t1 - x1 * t0
    norm = mp.sqrt(n1 * n1 + n2 * n2 - n0 * n0)

    def along_nu(b):
        y0, y1, y2 = point(b)
        return (-y0 * n0 + y1 * n1 + y2 * n2) / norm

    return mp.diff(along_nu, a)


@pytest.mark.parametrize("a, zeros", [(0.6, 1), (1.5, 0)])
def test_even_jacobi_field_zero_count_is_the_index(a, zeros):
    """The premise of morse_index's mode-0 verdict, checked without the
    boundary-angle slope: the even Jacobi field u_e from varying a has one
    zero on (0, 10] below the index threshold and none above it, in 30-digit
    mpmath on s = 0, 0.5, ..., 10."""
    import mpmath as mp

    with mp.workdps(30):
        u = [_even_jacobi_field(a, k / 2) for k in range(21)]
        # u_e(0) = 1 / (2 B rho) at the neck
        am = mp.mpf(a)
        assert abs(u[0] - 1 / (2 * mp.sqrt((am + 0.5) * (am - 0.5)))) < 1e-25
    assert all(abs(v) > 1e-2 for v in u), a  # every sign is far from rounding
    signs = [v > 0 for v in u]
    assert signs[0]
    assert sum(p != q for p, q in zip(signs, signs[1:])) == zeros
    assert morse_index(SphericalCatenoid(a), m_max=0).total_index == zeros


@settings(max_examples=20, deadline=None)
@given(st.floats(0.55, 3.0))
def test_resolved_mode_one_has_no_discrete_negative_eigenvalue(a):
    # where the grid resolves the neck, the raw FD count agrees with the
    # closed-form screen even without the margin
    disc = assemble_mode_operator(SphericalCatenoid(a), 1, 10.0, 4000)
    assert count_negative_eigenvalues(disc, margin=0.0) == 0


@pytest.mark.parametrize("a", [0.501, 0.51, 0.52, 3.0])
def test_screened_modes_have_no_negative_eigenvalue(a):
    # The discrete Rayleigh quotient is at least the smallest nodal
    # potential.  For m >= 2, q_m = 2 + m^2 x - 2 (a^2 - 1/4) x^2 is concave
    # in x = 1/w, so that is at least min(2, (m^2-2)/(a-1/2)).  (Mode 1,
    # whose potential dips below 0, is covered by the Jacobi-field tests.)
    cat = SphericalCatenoid(a)
    for m in range(2, 7):
        assert mode_is_positive_by_bound(cat, m)
        disc = assemble_mode_operator(cat, m, 10.0, 4000)
        assert count_negative_eigenvalues(disc, margin=0.0) == 0, m
        lam0 = lowest_eigenvalues(disc, 1)[0]
        assert lam0 >= min(2.0, (m * m - 2.0) / (a - 0.5)) - 1e-9, m


def test_morse_index_below_threshold():
    rep = morse_index(SphericalCatenoid(0.6), R=10.0, N=2000, m_max=5)
    assert isinstance(rep, IndexReport)
    assert rep.total_index == 1
    assert rep.converged
    by_mode = {m.mode: m.negative_count for m in rep.modes}
    assert by_mode[0] == 1
    assert all(count == 0 for mode, count in by_mode.items() if mode != 0)
    # rotational modes enter twice; the report carries each once with the
    # doubling applied in the total
    assert rep.total_index == by_mode[0] + 2 * sum(
        count for mode, count in by_mode.items() if mode != 0
    )


def test_morse_index_above_threshold():
    for a in (0.8, 1.0, 10.0):
        rep = morse_index(SphericalCatenoid(a), R=10.0, N=1500, m_max=3)
        assert rep.total_index == 0, a
        assert rep.converged


def test_morse_index_transition_brackets_critical_neck():
    flips = []
    values = [0.72 + 0.01 * k for k in range(9)]
    for a in values:
        rep = morse_index(SphericalCatenoid(a), R=10.0, N=1000, m_max=0)
        flips.append(rep.total_index)
    assert flips[0] == 1 and flips[-1] == 0
    changes = [i for i in range(1, len(flips)) if flips[i] != flips[i - 1]]
    assert len(changes) == 1
    crossing = 0.5 * (values[changes[0] - 1] + values[changes[0]])
    assert abs(crossing - oracles.INDEX_THRESHOLD) < 0.005


def test_positive_F_with_index_one_past_c0():
    """The README's converse counterexample: just past c0, F is positive
    while the converged index is still 1, so c0 is not the index threshold."""
    for a in (0.74, 0.75):
        cat = SphericalCatenoid(a)
        assert F(cat).value > 0.0, a
        rep = morse_index(cat)
        assert rep.total_index == 1, a
        assert rep.converged, a
    assert find_c0() < 0.74


def test_morse_index_converges_across_necks():
    for a in (0.55, 0.65, 0.7, 1.5):
        rep = morse_index(SphericalCatenoid(a), R=9.0, N=900, m_max=2)
        assert rep.converged, a


def test_morse_index_stable_under_domain_growth():
    cat = SphericalCatenoid(0.6)
    # same cell width h = 0.01, growing window
    for R, N in ((8.0, 1600), (12.0, 2400), (16.0, 3200)):
        rep = morse_index(cat, R=R, N=N, m_max=1)
        assert rep.total_index == 1, R


def test_morse_index_validation():
    cat = SphericalCatenoid(0.6)
    with pytest.raises(ValueError):
        morse_index(cat, R=-1.0)
    with pytest.raises(ValueError):
        morse_index(cat, m_max=-1)
    with pytest.raises(ValueError):
        morse_index(cat, k_eigs=0)


def test_morse_index_screens_each_mode_once(monkeypatch):
    calls = []

    def counting_screen(cat, m):
        calls.append(m)
        return mode_is_positive_by_bound(cat, m)

    monkeypatch.setattr(spectral, "mode_is_positive_by_bound", counting_screen)
    morse_index(SphericalCatenoid(0.6), R=6.0, N=600, m_max=3)
    assert calls == [0, 1, 2, 3]


def test_morse_index_discretizes_mode_zero_only(monkeypatch):
    calls = []
    assemble = spectral.assemble_mode_operator

    def recording_assemble(cat, m, R, N):
        calls.append((m, R, N))
        return assemble(cat, m, R, N)

    def no_inertia(*args):
        raise AssertionError("mode 0 is decided without an inertia count")

    monkeypatch.setattr(spectral, "assemble_mode_operator", recording_assemble)
    monkeypatch.setattr(spectral, "count_negative_eigenvalues", no_inertia)
    rep = morse_index(SphericalCatenoid(0.6), R=6.0, N=600, m_max=3)
    assert calls == [(0, 6.0, 600)]
    assert [(s.negative_count, s.lowest_eigenvalues) for s in rep.modes[1:]] == [(0, ())] * 3


def test_morse_index_accepts_the_operator_radius_cap():
    cat = SphericalCatenoid(0.6)
    rep = morse_index(cat, R=300.0, N=100, m_max=0)
    assert rep.radius == 300.0
    assert rep.total_index == 1 and rep.converged
    with pytest.raises(ValueError, match=r"\(0, 300\], got 301\.0"):
        morse_index(cat, R=301.0, N=100, m_max=0)


SIZES = [{}, {"R": 12.0, "N": 20000}]  # the defaults and the largest bench grid


@pytest.mark.parametrize("size", SIZES, ids=["defaults", "R12-N20000"])
@pytest.mark.parametrize("a", [0.50001, 0.500001, 0.76655, 0.7666])
def test_morse_index_is_one_below_the_threshold(a, size):
    # the margin count said 0 here: lambda0 is tiny near a*, and the margin
    # grows like max|q| at a thin neck
    rep = morse_index(SphericalCatenoid(a), **size)
    assert (rep.total_index, rep.converged, rep.notes) == (1, True, ())


@pytest.mark.parametrize("size", SIZES, ids=["defaults", "R12-N20000"])
@pytest.mark.parametrize("a", [0.767, 1.5, 10.0, 1e290])
def test_morse_index_is_zero_above_the_threshold(a, size):
    rep = morse_index(SphericalCatenoid(a), **size)
    assert (rep.total_index, rep.converged, rep.notes) == (0, True, ())


def _undecided(rep):
    assert rep.total_index == 0
    assert not rep.converged
    [note] = rep.notes
    assert note.startswith("mode 0: boundary-angle slope ")
    assert note.endswith("; index 0 or 1")


def test_morse_index_undecided_at_the_float_nearest_the_threshold():
    def slope(a):
        return spectral.boundary_angle_slope(SphericalCatenoid(a)).value

    a = find_root_bracketed(slope, 0.7, 0.8, 1e-15)
    r = spectral.boundary_angle_slope(SphericalCatenoid(a))
    assert abs(r.value) <= r.error_estimate
    _undecided(morse_index(SphericalCatenoid(a), R=6.0, N=600, m_max=1))


@pytest.mark.parametrize("value", [1e-16, -1e-16, 0.0, math.nan])
def test_morse_index_undecided_within_the_slope_bound(monkeypatch, value):
    monkeypatch.setattr(
        spectral, "boundary_angle_slope", lambda cat: QuadratureResult(value, 1e-15, 0)
    )
    rep = morse_index(SphericalCatenoid(0.6), R=6.0, N=600, m_max=2)
    _undecided(rep)
    assert "within its error bound 1.000e-15" in rep.notes[0]


def test_report_aliases():
    rep = morse_index(SphericalCatenoid(1.0), R=6.0, N=600, m_max=0)
    assert rep.radius == 6.0
    assert rep.nodes == 600
    assert rep.a == 1.0
