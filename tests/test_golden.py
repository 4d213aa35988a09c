"""Golden CLI outputs: SHA-256 digests of whole documents.

Each digest was recorded before the code change it guards (the export
digests from the per-point loops that preceded the array exports), so any
change in a rendered digit, a row's order or a header line shows here.
The three spherical export digests are an exception: they were recorded
from the closed-form rotation angle, whose last digits differ from the
quadrature it replaced.  So are the sweep-f and find-c0 digests, recorded
from the closed form of F, and the hyperbolic-window digest, recorded when
its bound_A_sq column became the exact neck value of |A|^2.  The four index
digests were recorded when mode 1 became certified by its Jacobi field: its
lowest_eigenvalues list is empty, and mode-0 eigenvalues moved in their last
digits with the factored |A|^2.  index-unconverged was recorded again when
the boundary-angle slope came to decide mode 0: its count of 1 is now
converged, where a margin count on a refined grid used to disagree.
All four index digests were recorded again when discretize's grid became
its own mirror image and lowest_eigenvalues came to solve mode 0 as its
even and odd parity sectors: the nodes moved by an ulp, and the mode-0
eigenvalues by at most 4.4e-11 (index-bench), which is the bisection
tolerance eps ||T||_inf of the 8000-node grid; every count, total_index,
converged flag and note is unchanged.
All four index digests were recorded again when both spectral solvers came
to read one tridiagonal form scaled by h^2, with no mass matrix: the
mode-0 eigenvalues moved by at most 3.7e-13 (index), 8.9e-14
(index-unconverged), 5.8e-13 (index-screened) and 6.2e-11, 2.9e-11
relative (index-bench), within the bisection tolerance of about 4 eps/h^2;
every count, total_index, converged flag and note is unchanged.
Both find-c0 digests were recorded again when the root finder came to
start from the fixed window [0.55, 1.5] instead of a bracket from a coarse
scan: the secant steps visit other points, so c0 moved by 2.6e-7 at the
default tol 1e-4 (within it) and by 1.1e-14 at tol 1e-12, where it now
equals the mpmath root of the closed form.
The five curve-* digests were recorded when the profile became a
Gauss-Legendre quadrature in the height, with each sample interpolated on
its panel's nodes: the rows moved by at most 7.7e-10 relative, the global
error of the Cash-Karp integration it replaced; the new rows agree with an
mpmath integration of the first integral to a few units of 1e-15.
The exports of all three families, a JSON export, the other commands that
share the CSV renderer, and the JSON-only commands (find-c0, index,
criteria with every certificate) are covered.  The index digests include a
coarse grid near the index threshold and one at a thin neck with modes 0-6,
where, as everywhere, every mode m >= 1 is certified positive and the mode-0
eigenvalues are the grid's, uncertified.
"""

import hashlib

import pytest

from hypstab.cli import EXIT_OK, main

GOLDEN = {
    "spherical-default": (
        ["embed-export", "--family", "spherical"],
        "349be3dfedc616330b519e4f424425a340fb7468e45498374522f1f1ddc8aa0e",
    ),
    "spherical-wide": (
        ["embed-export", "--family", "spherical", "--a", "2.7", "--s-max", "6",
         "--s-grid", "31", "--theta-grid", "7"],
        "24d072d222c7d9453022bd4a5a9e89843d2481fee3c1f931bb19787a0f54c51a",
    ),
    "helicoid-default": (
        ["embed-export", "--family", "helicoid"],
        "9cc46bd87603b51fc7af662962b2e2244a080c14e22575f270f2c569e780f3ac",
    ),
    "helicoid-pitched": (
        ["embed-export", "--family", "helicoid", "--alpha", "0.3", "--s-max", "1.7",
         "--t-max", "2.9", "--s-grid", "9", "--t-grid", "11"],
        "c6ab52457b8246095effac2c8e6652f7a0d0f8eebecc77f53353f1c8994a04a8",
    ),
    "curve-default": (
        ["embed-export", "--family", "hyperbolic-curve"],
        "61b8ca91f195424423f2ee99b9bc94d69a1424f8224a89f516c138326dfe9648",
    ),
    "curve-n3": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "3", "--t", "1.2",
         "--samples", "257", "--s-max", "4"],
        "e8492fdeacafe41ebacb4fe3e99009af0da4bb714bb3b1157ae22d0e163ad154",
    ),
    "curve-n6": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "6", "--t", "3",
         "--s-max", "7.5", "--samples", "1500"],
        "34576f01bc73d2490ed4ef806605a94ab01530da042aad1302adc7cc90a2a366",
    ),
    "curve-far": (
        ["embed-export", "--family", "hyperbolic-curve", "--samples", "2001",
         "--s-max", "20"],
        "ba21c9f4bd37c9149ad80b10eb7d7c51163e70159959d2ff5771d624c318133b",
    ),
    "curve-near-neck-json": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "4", "--t", "1.01",
         "--s-max", "5", "--samples", "333", "--format", "json"],
        "3a39bed309e263daa3e7de823817a3ce619906d8266d335b87ca85bca29849a0",
    ),
    "spherical-bench": (
        ["embed-export", "--family", "spherical", "--a", "0.9", "--s-max", "5",
         "--s-grid", "60", "--theta-grid", "61"],
        "9f1ac23bf34e8d50bd7738d4cd38842088b0dbde2ccba1d162296d3446b5c0e3",
    ),
    # its table holds both 0 and -0 cells, e.g. -1.7,0,2.82831545788997,...,-0,0
    "helicoid-signed-zeros": (
        ["embed-export", "--family", "helicoid", "--alpha", "2.5", "--s-max", "1.7",
         "--t-max", "2", "--s-grid", "9", "--t-grid", "5"],
        "eb348b0ef65b65082149333ac6da2903d130b9e392d1f1a4bfe9d4d4a48843c3",
    ),
    "helicoid-json": (
        ["embed-export", "--family", "helicoid", "--alpha", "1.2", "--s-grid", "5",
         "--t-grid", "4", "--format", "json"],
        "43c26fd12fde974c4151c4b7c78bf3424fc7b899f473bbeee22b4cc95791c9f9",
    ),
    "helicoid-profile": (
        ["helicoid", "--alpha", "1.0"],
        "dac76e049d8d598c6088323f991d5a321bddfe42e40f82d55f91db31ccf91c92",
    ),
    "hyperbolic-window": (
        ["hyperbolic-window"],
        "b1d5ddd2b6142ba41fda6effaf8064a46948d1b26c54528849083dbd48250b30",
    ),
    "sweep-f": (
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"],
        "709c323647d5675674f6bd34100f238bdc42760c92a07379b66c74deb1606485",
    ),
    # the spherical-certify benchmark's sweep; --tol no longer changes F
    "sweep-f-bench": (
        ["sweep-f", "--a-min", "0.55", "--a-max", "1.45", "--step", "0.005",
         "--tol", "1e-12"],
        "a24208be99f6cf4158dfeca854fc0e79fafd38c73af05034e502b9c306acd14b",
    ),
    "find-c0-tight": (
        ["find-c0", "--tol", "1e-12", "--quad-tol", "1e-12"],
        "aa21cddfa3bd5444760ac0e443702185572a92a76c1f379fdfe6a047b09143a9",
    ),
    "find-c0": (
        ["find-c0"],
        "c17c729dcdbc8f9d7318afdc2b543d65d92361b2a9164993ad03074f5de7882e",
    ),
    "index": (
        ["index", "--a", "0.6", "--radius", "8", "--nodes", "600", "--m-max", "1"],
        "5ebbaaea951b1d1d96e8a673b44b18e1a5e906b9ef808539a8a64a8bb3a68b6f",
    ),
    "index-unconverged": (
        ["index", "--a", "0.76", "--radius", "3", "--nodes", "100", "--m-max", "2"],
        "9c15aabfd68f83dc6264d7318d520fb3a5d235e50e4dcc70d9a82e0f1ceb9087",
    ),
    # modes 1-6 are screened, so their lowest_eigenvalues lists are empty;
    # mode 1 was last counted here, every count is unchanged
    "index-screened": (
        ["index", "--a", "0.51", "--radius", "6", "--nodes", "400", "--m-max", "6",
         "--k-eigs", "4"],
        "8cc900ef13e906e16616fbbbf4c2619c5b358a5cd906dcc0e1e39c3a2bf25b30",
    ),
    # the largest morse-index benchmark sizes: 8000 nodes, modes 0..8
    "index-bench": (
        ["index", "--a", "1.7", "--radius", "12", "--nodes", "8000", "--m-max", "8",
         "--k-eigs", "5"],
        "d3ee9786949f49d09bc67c5ab2550e1ed8aeaec1389ba8429fff71649076f7a9",
    ),
    "criteria-all": (
        ["criteria", "--n", "3", "--sup-a-sq", "2.5", "--pinch-a", "0.5",
         "--pinch-b", "1.5", "--sobolev-constant", "0.3", "--a-n-mass", "0.8",
         "--mass-a-sq", "1.2", "--mass-grad-a-sq", "2.0"],
        "01629b462525f01e556c0b83b39c135400f6827b6c413ef5154f616c9877a3b1",
    ),
}


# `--help` of the top level and of every command at COLUMNS=100, recorded
# before the commands came to be declared in one table (Python 3.11's
# argparse layout); each flag, default, choice and help text shows here.
HELP_GOLDEN = {
    "": "a4f55e5bae1a652fb982292df47e8cbb2bee154f635ff2d118b749022fa9c574",
    "sweep-f": "9ba79dab824529a1c95aa1881c6c4be178c31db4afea93ae85c36b7804c9dfe2",
    "find-c0": "55fa1c59979eb39f76ce7e652548e5f71e8149a30566454420da4575bb95ee19",
    "index": "b18bcfb7259a8681fc809e0744386d517d7c31a7f5a711e72603b69460955670",
    "hyperbolic-window": "fd8474be6bb66c23170644fe18d8a449bf14099d55843498a74e45799e002c62",
    "helicoid": "ee41125b83142d810a7d828171e5c7bc3ce6addcd763f1630a03e1b07c3078b1",
    "embed-export": "3c858fccee236f78c13311e52fda194b96334670ecbde3af948faca4e0415a10",
    "criteria": "9ebc1d84862dd51ee63a9a84657c3d7268cc9b3cbfe83a6662b1dc991d5c01b4",
}


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_matches_golden_digest(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == HELP_GOLDEN[command], f"{command or 'hypstab'} --help: got digest {got}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == digest, f"{name}: got digest {got}"
