"""Golden CLI outputs: SHA-256 digests of whole documents.

Each digest was recorded before the code change it guards (the export
digests from the per-point loops that preceded the array exports), so any
change in a rendered digit, a row's order or a header line shows here.
The exports of all three families, a JSON export, the other commands that
share the CSV renderer, and the JSON-only commands (find-c0, index,
criteria with every certificate) are covered.  The index digests include a
run whose refinement count disagrees (converged false) and one where some
modes are certified positive by the potential bound and others are counted.
"""

import hashlib

import pytest

from hypstab.cli import EXIT_OK, main

GOLDEN = {
    "spherical-default": (
        ["embed-export", "--family", "spherical"],
        "1df3b8277f2e2600a44d3c0cf5bc285a01da6bc7f6e403392b8a1df5288df1fa",
    ),
    "spherical-wide": (
        ["embed-export", "--family", "spherical", "--a", "2.7", "--s-max", "6",
         "--s-grid", "31", "--theta-grid", "7"],
        "4fc54ce4ffeb74a9bad3fda374f00e3023cdd8617082d690364700ddfb9d0a7b",
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
        "b5801d13df0a6bcb67f733ba05e52b6f57719d5cdb464765d1739fb493b56600",
    ),
    "curve-n3": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "3", "--t", "1.2",
         "--samples", "257", "--s-max", "4"],
        "c20e4a49902c35e1f357b42f752c055f6cc79d2d2e9a237c76cd8d76ca0d2f8a",
    ),
    "curve-n6": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "6", "--t", "3",
         "--s-max", "7.5", "--samples", "1500"],
        "01ad24de70ac15bc6ed71909b19db5f6bc172768470e058edab2e2397593914b",
    ),
    "curve-far": (
        ["embed-export", "--family", "hyperbolic-curve", "--samples", "2001",
         "--s-max", "20"],
        "347d95914787f18bcdd70b8cb1ab7f246e3c9512d17085211a4f4b200ec8a2c5",
    ),
    "curve-near-neck-json": (
        ["embed-export", "--family", "hyperbolic-curve", "--n", "4", "--t", "1.01",
         "--s-max", "5", "--samples", "333", "--format", "json"],
        "4641fc49f9af8ca32e842b95a6123b6b0937177f1a6f2c0b90c1905b9f8e8866",
    ),
    "spherical-bench": (
        ["embed-export", "--family", "spherical", "--a", "0.9", "--s-max", "5",
         "--s-grid", "60", "--theta-grid", "61"],
        "43c14abcbd3a482b3232687d933c18ee941edf3d164e7e6e50a971c58dc43773",
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
        "de620e770ea07433dbf9615c8bf1c1d7e4b58f4b0f6f5914111ca663fe185722",
    ),
    "sweep-f": (
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"],
        "542800af287551d5611e3365eff02be955707eb459a9aca8a299563215c84739",
    ),
    # the spherical-certify benchmark's sweep, at a tight quadrature tolerance
    "sweep-f-bench": (
        ["sweep-f", "--a-min", "0.55", "--a-max", "1.45", "--step", "0.005",
         "--tol", "1e-12"],
        "4db63a21535a09b0214100b7c6395416e26c2609d0f1246146d4662a58d1f1ee",
    ),
    "find-c0-tight": (
        ["find-c0", "--tol", "1e-12", "--quad-tol", "1e-12"],
        "39db5620d5859db75e45360336636facd1fbf320831c3647c14d67b27e1f006f",
    ),
    "find-c0": (
        ["find-c0"],
        "a127570267430eb133f24c6c773a4d3b2be6fc3373c34e7e834b24964ca63535",
    ),
    "index": (
        ["index", "--a", "0.6", "--radius", "8", "--nodes", "600", "--m-max", "1"],
        "62ac362f3804b70a1311fbd8d00aacab20dae43d5a59cc200ea82aa6f570b563",
    ),
    "index-unconverged": (
        ["index", "--a", "0.76", "--radius", "3", "--nodes", "100", "--m-max", "2"],
        "9c7cab46447919781d8b4a2c7cad071e6a85e4fee523c395e2714bb56bb0d7a4",
    ),
    # re-recorded when the screen became exact: modes 4-6, which the sampled
    # screen left to the counter at this neck, are now screened like 2 and 3,
    # so their lowest_eigenvalues lists are empty; every count is unchanged
    "index-screened": (
        ["index", "--a", "0.51", "--radius", "6", "--nodes", "400", "--m-max", "6",
         "--k-eigs", "4"],
        "d4a8d3b5b6b2bd4cfd4a8956851ea061f20b293b5756404eefa275d42acc6f10",
    ),
    # the largest morse-index benchmark sizes: 8000 nodes, modes 0..8
    "index-bench": (
        ["index", "--a", "1.7", "--radius", "12", "--nodes", "8000", "--m-max", "8",
         "--k-eigs", "5"],
        "70b58e707100da51940d5e881ac1cf16427ca9760860f379b8f47f1561e77fe1",
    ),
    "criteria-all": (
        ["criteria", "--n", "3", "--sup-a-sq", "2.5", "--pinch-a", "0.5",
         "--pinch-b", "1.5", "--sobolev-constant", "0.3", "--a-n-mass", "0.8",
         "--mass-a-sq", "1.2", "--mass-grad-a-sq", "2.0"],
        "01629b462525f01e556c0b83b39c135400f6827b6c413ef5154f616c9877a3b1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
