"""Golden CLI outputs: SHA-256 digests of whole documents.

The digests were recorded from the per-point export loops that preceded
the array exports, so any change in a rendered digit, a row's order or a
header line shows here.  The exports of all three families, a JSON export
and the other commands that share the CSV renderer are covered.
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
    "helicoid-json": (
        ["embed-export", "--family", "helicoid", "--alpha", "1.2", "--s-grid", "5",
         "--t-grid", "4", "--format", "json"],
        "43c26fd12fde974c4151c4b7c78bf3424fc7b899f473bbeee22b4cc95791c9f9",
    ),
    "helicoid-profile": (
        ["helicoid", "--alpha", "1.0"],
        "b33a01e0617a27c3a7f6dedc54aa0c34a0e47769da1bdac3b677c0b1423925e4",
    ),
    "hyperbolic-window": (
        ["hyperbolic-window"],
        "de620e770ea07433dbf9615c8bf1c1d7e4b58f4b0f6f5914111ca663fe185722",
    ),
    "sweep-f": (
        ["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"],
        "542800af287551d5611e3365eff02be955707eb459a9aca8a299563215c84739",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
