"""Spectral Morse index of spherical catenoids via Fourier-mode splitting.

Rotational symmetry splits the second-variation form into angular modes
m = 0, 1, 2, ...; mode m contributes the radial Sturm-Liouville form

    int [ (u')^2 + q_m(s) u^2 ] rho(s) ds,   q_m = m^2/rho^2 - |A|^2 + 2,

over the profile measure rho(s) ds.  Jacobi fields in closed form decide
every mode: a Killing field makes every m >= 1 positive
(mode_is_positive_by_bound), and the sign of the boundary-angle slope
counts mode 0 (morse_index); the index weights m >= 1 twice (two angular
phases).  Mode 0's eigenvalues on a uniform Dirichlet grid, its own mirror
image, are solved as an even and an odd sector of half the size and
reported uncertified; LDL inertia counts a grid's eigenvalues below a margin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .criteria import _HALF_WIDTH_MAX, _integer, _real
from .spherical_catenoid import SphericalCatenoid, _norm_A_sq, boundary_angle_slope

__all__ = [
    "SturmLiouvilleDisc",
    "ModeSpectrum",
    "IndexReport",
    "discretize",
    "assemble_mode_operator",
    "default_count_margin",
    "count_negative_eigenvalues",
    "lowest_eigenvalues",
    "mode_is_positive_by_bound",
    "morse_index",
]

_MAX_RADIUS = 300.0  # the profile weight overflows past this radius


@dataclass(frozen=True, eq=False)
class SturmLiouvilleDisc:
    """Uniform Dirichlet discretization of a radial form.

    grid holds the N+1 nodes of [-R, R]; weight and potential are the radial
    measure rho and the potential q at the nodes, and weight_mid holds
    rho at the N midpoints (evaluated analytically, not interpolated, so the
    flux stencil keeps second-order accuracy).
    """

    grid: np.ndarray
    weight: np.ndarray
    weight_mid: np.ndarray
    potential: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        weight_mid = np.asarray(self.weight_mid, dtype=float)
        potential = np.asarray(self.potential, dtype=float)
        if grid.ndim != 1 or grid.size < 5:
            raise ValueError("grid must be one-dimensional with at least 5 nodes")
        if weight.shape != grid.shape or potential.shape != grid.shape:
            raise ValueError("weight and potential must match the grid size")
        if weight_mid.shape != (grid.size - 1,):
            raise ValueError("weight_mid must have one entry per grid cell")
        h = float((grid[-1] - grid[0]) / (grid.size - 1))
        if not (h > 0.0 and math.isfinite(h * h)):
            raise ValueError(f"grid must be increasing, with h^2 a finite float, got h = {h}")
        if np.max(np.abs(np.diff(grid) - h)) > 1e-12 * max(1.0, abs(h)):
            raise ValueError("grid must be uniform")
        if not (np.all(np.isfinite(weight)) and np.all(weight > 0.0)):
            raise ValueError("weight must be finite and positive")
        if not np.all(np.isfinite(weight_mid)) or not np.all(weight_mid > 0.0):
            raise ValueError("weight_mid must be finite and positive")
        if not np.all(np.isfinite(potential)):
            raise ValueError("potential must be finite")
        for name, arr in (
            ("grid", grid),
            ("weight", weight),
            ("weight_mid", weight_mid),
            ("potential", potential),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        return float((self.grid[-1] - self.grid[0]) / (self.grid.size - 1))

    @property
    def interior(self) -> int:
        """Number of interior degrees of freedom under Dirichlet ends."""
        return self.grid.size - 2


def discretize(
    rho: Callable[[np.ndarray], np.ndarray],
    q: Callable[[np.ndarray], np.ndarray],
    R: float,
    N: int,
) -> SturmLiouvilleDisc:
    """Discretization of a general radial form on [-R, R] with N cells.

    rho and q are vectorized callables; rho is also sampled analytically at
    the cell midpoints.  assemble_mode_operator specializes this to the
    catenoid mode potentials.
    """
    R = _real(R, "radius R", above=0, most=_HALF_WIDTH_MAX)
    N = _integer(N, "cell count", 4)
    grid = np.linspace(-R, R, N + 1)
    # linspace is not its own mirror image to the last bit; this grid is, so
    # even rho and q give a pencil that lowest_eigenvalues can fold
    grid = 0.5 * (grid - grid[::-1])
    mid = 0.5 * (grid[:-1] + grid[1:])
    weight = np.asarray(rho(grid), dtype=float) * np.ones_like(grid)
    weight_mid = np.asarray(rho(mid), dtype=float) * np.ones_like(mid)
    potential = np.asarray(q(grid), dtype=float) * np.ones_like(grid)
    return SturmLiouvilleDisc(grid, weight, weight_mid, potential)


def _catenoid_profiles(cat: SphericalCatenoid, m: int):
    a = cat.a

    def rho(s: np.ndarray) -> np.ndarray:
        return np.sqrt(a * np.cosh(2.0 * s) - 0.5)

    def q(s: np.ndarray) -> np.ndarray:
        inv_w = 1.0 / (a * np.cosh(2.0 * s) - 0.5)
        return m * m * inv_w - _norm_A_sq(a, inv_w) + 2.0

    return rho, q


def assemble_mode_operator(
    cat: SphericalCatenoid, m: int, R: float, N: int
) -> SturmLiouvilleDisc:
    """Discretized radial form of angular mode m on [-R, R] with N cells.

    Requires m >= 0, 0 < R <= 300 (the profile weight overflows past that),
    and N >= 100, the resolution `default_count_margin` assumes when
    count_negative_eigenvalues counts the grid; morse_index does not count.
    Raises OverflowError naming a and R when the largest weight a cosh(2R)
    is not a finite float; _tridiagonal_system scales out the grid spacing.
    """
    m = _integer(m, "mode", 0)
    R = _real(R, "radius R", above=0, most=_MAX_RADIUS)
    N = _integer(N, "cell count", 100)
    if math.isinf(cat.a * math.cosh(2.0 * R)):
        raise OverflowError(f"mode operator overflows: a cosh(2R) is not finite at "
                            f"a = {cat.a}, R = {R}")
    rho, q = _catenoid_profiles(cat, m)
    return discretize(rho, q, R, N)


def _tridiagonal_system(disc: SturmLiouvilleDisc) -> tuple[np.ndarray, np.ndarray, float]:
    """(d, e, h^2): diagonal and off-diagonal of T = h^2 M^{-1/2} K M^{-1/2},
    the one matrix form both solvers read.  K and M = diag(rho_i h) are the
    stiffness and mass of the standard self-adjoint second-order scheme for
    -(rho u')' + q rho u, with the analytic midpoint weights in its flux:

        d_i = (rho_{i-1/2} + rho_{i+1/2}) / rho_i + q_i h^2,
        e_i = -rho_{i+1/2} / (sqrt(rho_i) sqrt(rho_{i+1})),

    O(1) at every grid scale; the form's eigenvalues are T's over h^2.  The
    product of two roots cannot overflow and is its own mirror image, so an
    even rho and q on discretize's grid give a T that _sectors folds.
    """
    h2 = disc.h * disc.h
    w = disc.weight[1:-1]
    wm = disc.weight_mid
    root = np.sqrt(w)
    d = (wm[:-1] + wm[1:]) / w + disc.potential[1:-1] * h2
    e = -wm[1:-1] / (root[:-1] * root[1:])
    return d, e, h2


def default_count_margin(disc: SturmLiouvilleDisc) -> float:
    """Spectral margin h^2 (1 + max|q|)^2 / 6 used when counting.

    The scheme's eigenvalues sit below the analytic ones by O(h^2) with a
    constant controlled by the eigenvalue scale, which the potential bound
    dominates for the forms assembled here; an analytically zero eigenvalue
    can therefore show up near -h^2 lambda^2 / 12.  The margin is a safe
    overestimate of that bias.  It can also swamp a negative eigenvalue that
    is small or that the grid does not resolve, so a count under it is a
    heuristic, not a certificate.
    """
    h = disc.h
    q_scale = 1.0 + float(np.max(np.abs(disc.potential)))
    return h * h * q_scale * q_scale / 6.0


def count_negative_eigenvalues(
    disc: SturmLiouvilleDisc, margin: float | None = None
) -> int:
    """Number of eigenvalues of the discretized form below -margin.

    margin defaults to default_count_margin(disc); pass margin = 0.0 for the
    raw discrete count.  By Sylvester inertia the count is the number of
    negative pivots in the one-pass LDL factorization of (d + margin h^2, e)
    from _tridiagonal_system, whose O(1) entries keep the count valid at
    every positive h.  A pivot that is exactly zero is taken as +1e-300:
    with coupling o to the next row it drives the next pivot to about
    -o^2/1e-300 (or -inf), so the block [[0, o], [o, d]], whose determinant
    is -o^2 < 0, adds the one negative pivot of its inertia; a trailing zero
    pivot is a zero eigenvalue, which is not below -margin.
    """
    if margin is None:
        margin = default_count_margin(disc)
    margin = _real(margin, "margin", least=0)
    d, e, h2 = _tridiagonal_system(disc)
    # A zero off-diagonal against an infinite pivot ahead of the first row
    # makes the first pivot the first diagonal entry, bit for bit.  The
    # memoryviews yield Python floats without copying the arrays into lists.
    off = memoryview(np.concatenate(([0.0], e)))
    count = 0
    pivot = math.inf
    for diag, o in zip(memoryview(d + margin * h2), off):
        pivot = diag - o * o / pivot
        if pivot == 0.0:
            pivot = 1e-300
        elif pivot < 0.0:
            count += 1
    return count


def _sectors(d: np.ndarray, e: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(diagonal, off-diagonal, count) triples of tridiagonal matrices whose
    lowest `count` eigenvalues together are the k lowest of T = (d, e).

    That is T itself unless T is its own mirror image with negative
    couplings; then it is T's even sector for ceil(k/2) and odd sector for
    floor(k/2).  With c = n // 2, odd n gives d[c:] with its first coupling
    times sqrt(2) (u_{c-1} = u_{c+1}) and d[c+1:] (u_c = 0); even n gives
    d[c:] with d[c] + e[c-1] and with d[c] - e[c-1] (u_{c-1} = +-u_c).
    Negative couplings give the eigenvector of T's k-th eigenvalue (from 0)
    k sign changes, hence parity (-1)^k; positive ones flip that for even n.
    """
    if not (np.all(e < 0.0) and np.array_equal(d, d[::-1])
            and np.array_equal(e, e[::-1])):
        return [(d, e, k)]
    c = d.size // 2
    if d.size % 2:
        e_even = e[c:].copy()
        e_even[0] *= math.sqrt(2.0)
        even, odd = (d[c:], e_even), (d[c + 1:], e[c + 1:])
    else:
        even = (np.concatenate(([d[c] + e[c - 1]], d[c + 1:])), e[c:])
        odd = (np.concatenate(([d[c] - e[c - 1]], d[c + 1:])), e[c:])
    return [(*even, (k + 1) // 2), (*odd, k // 2)]


def lowest_eigenvalues(disc: SturmLiouvilleDisc, k: int = 3) -> tuple[float, ...]:
    """The min(k, N - 1) smallest eigenvalues of the discretized form,
    ascending: a grid of N cells has only N - 1 interior nodes.

    Solves the scaled tridiagonal T of _tridiagonal_system by LAPACK
    bisection and divides its eigenvalues by h^2.  A T equal to its mirror
    image (an even rho and q on discretize's grid) is solved as its even
    sector for the ceil(k/2) lowest and its odd sector for the floor(k/2)
    lowest (see _sectors); any other T whole.  Not certified: the values
    carry the scheme's O(h^2) error and a bisection tolerance of order
    eps ||T||_inf / h^2, about 4 eps/h^2 (1e-9 at R = 10, N = 20000).
    Raises OverflowError naming h where h^2 is not a normal float (h below
    about 1.5e-154) or an eigenvalue divided by h^2 is not a finite float.
    """
    k = _integer(k, "k", 1)
    # Imported on first use: at module level scipy.linalg would add about
    # 0.3 s to every `import hypstab.cli`, and only `index` needs it.
    from scipy.linalg import eigvalsh_tridiagonal

    d, e, h2 = _tridiagonal_system(disc)
    if h2 >= sys.float_info.min:
        with np.errstate(over="ignore"):
            vals = np.sort(np.concatenate([
                eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
                for diag, off, count in _sectors(d, e, min(k, d.size)) if count
            ])) / h2
        if np.all(np.isfinite(vals)):
            return tuple(float(v) for v in vals)
    raise OverflowError(f"eigenvalues leave the float range at grid spacing h = {disc.h}")


def mode_is_positive_by_bound(cat: SphericalCatenoid, m: int) -> bool:
    """Certify that mode m is positive on every interval, without any
    eigenvalue computation; True precisely when m >= 1.  Mode 0 carries the
    unstable direction when there is one and is never screened out.

    With w = a cosh(2s) - 1/2, rho = sqrt(w) and B = sqrt(w + 1) as in
    spherical_catenoid.embed, the boost K(x) = (x_2, 0, x_0, 0) of hyperbolic
    space mixes the time axis with x_2 = rho cos(theta).  Killing fields give
    Jacobi fields, and a Minkowski triple product shows <K(X), nu> = u(s)
    cos(theta) with

        u = d/ds (B sinh phi) = B' sinh phi + B phi' cosh phi,

    so u solves the mode-1 equation (rho u')' = rho q_1 u.  u is positive on
    the whole line: B' = a sinh(2s)/B and sinh phi both have the sign of s,
    B phi' cosh phi > 0, and u(0) = 1.  Picone's identity then gives, for
    every v != 0 vanishing at both ends of an interval,

        int rho (v'^2 + q_1 v^2) ds = int rho u^2 ((v/u)')^2 ds > 0.

    Since q_m = q_1 + (m^2 - 1)/w >= q_1, every mode m >= 1 is positive on
    every interval.  The answer does not depend on the member.
    """
    m = _integer(m, "mode", 0)
    return m >= 1


@dataclass(frozen=True)
class ModeSpectrum:
    """Counting result for one angular mode."""

    mode: int
    negative_count: int
    lowest_eigenvalues: tuple[float, ...]


@dataclass(frozen=True)
class IndexReport:
    """Morse index assembled from the per-mode counts.

    converged is False, with a note, when mode 0's boundary-angle slope is
    within its error bound of zero; lowest_eigenvalues are not certified.
    """

    a: float
    radius: float
    nodes: int
    modes: tuple[ModeSpectrum, ...]
    total_index: int
    converged: bool
    notes: tuple[str, ...] = field(default=())


def morse_index(
    cat: SphericalCatenoid,
    R: float = 10.0,
    N: int = 2000,
    m_max: int = 5,
    k_eigs: int = 3,
) -> IndexReport:
    """Morse index of the catenoid from modes 0..m_max.

    Each mode is screened once by mode_is_positive_by_bound, which certifies
    every mode m >= 1 positive in closed form; those modes report count 0
    and no eigenvalues.  Mode 0 counts 1 when the boundary-angle slope
    exceeds its error bound, 0 when it is below minus that bound, and 0 with
    converged False and a note otherwise (the index is then 0 or 1).  Its
    k_eigs >= 1 lowest eigenvalues, not certified, come from the grid of
    assemble_mode_operator on [-R, R] with N cells, which needs R in
    (0, 300] and raises OverflowError at a cosh(2R) past the float maximum
    (a past about 7.4e299 at R = 10); lowest_eigenvalues solves their even
    and odd sectors, to O(h^2) plus about 4 eps/h^2, and names h where h^2
    is too small.  The index weights m >= 1 twice.

    Why the slope decides (the hyperbolic Lindelof criterion; Berard-Sa
    Earp, Proc. AMS 2010; Mori 1981): varying a gives the even mode-0 Jacobi
    field u_e = <d_a X, nu> and the axial boost (x_1, x_0, 0, 0) the odd one
    u_o, which has no zero on (0, inf).  Sturm separation leaves u_e at most
    one zero there, and u_e ~ phi_inf'(a) u_o at the end says whether it
    exists: it does when phi_inf' > 0 and not when phi_inf' < 0.  0 lies
    below the essential spectrum [9/4, inf), so that zero count is the
    index.  For phi_inf' < 0, u_e > 0 is a positive Jacobi field and the
    member is stable (Fischer-Colbrie-Schoen 1980).
    """
    m_max = _integer(m_max, "m_max", 0)
    k_eigs = _integer(k_eigs, "k_eigs", 1)
    modes: list[ModeSpectrum] = []
    notes: list[str] = []
    for m in range(m_max + 1):
        if mode_is_positive_by_bound(cat, m):
            modes.append(ModeSpectrum(m, 0, ()))
            continue
        disc = assemble_mode_operator(cat, m, R, N)
        slope = boundary_angle_slope(cat)
        if not abs(slope.value) > slope.error_estimate:
            notes.append(f"mode {m}: boundary-angle slope {slope.value:.3e} within "
                         f"its error bound {slope.error_estimate:.3e}; index 0 or 1")
        count = int(slope.value > slope.error_estimate)
        modes.append(ModeSpectrum(m, count, lowest_eigenvalues(disc, k_eigs)))
    total = sum((1 if spec.mode == 0 else 2) * spec.negative_count for spec in modes)
    # mode 0 is never screened out, so disc is its grid, which ends at R
    return IndexReport(a=cat.a, radius=float(disc.grid[-1]), nodes=int(N),
                       modes=tuple(modes), total_index=total, converged=not notes,
                       notes=tuple(notes))
