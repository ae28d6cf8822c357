"""End-to-end acceptance suite.

Runs every structural criterion on the shipped seed list and prints one
pass/fail line per criterion (run pytest with -s to see all lines live).
Everything is exact: no tolerances anywhere.
"""

import contextlib
import io
import json

import pytest

import jumplines.jumping
from jumplines.cli import main
from jumplines.verify import SHIPPED_SEEDS, run_all


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One `jumplines verify` over the shipped seeds: exit code, stdout, JSON report."""
    path = tmp_path_factory.mktemp("verify") / "verify.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--out", str(path)])
    print()
    print(out.getvalue(), end="")
    report = json.loads(path.read_text())
    if report["reseeds"]:
        print(f"reseeds taken: {report['reseeds']}")
    assert report["seeds"] == list(SHIPPED_SEEDS)
    return code, out.getvalue(), report


@pytest.mark.parametrize(
    "number",
    range(1, 11),
    ids=[
        "01-odd-c1-exhaustive",
        "02-example-counts-eliminant",
        "03-even-c1-exhaustive",
        "04-splitting-vs-fat-point",
        "05-degenerate-anchors",
        "06-ninth-point",
        "07-containment-and-base-locus",
        "08-pinceau-factorization",
        "09-intersection-formulas",
        "10-determinism",
    ],
)
def test_criterion(verify_run, number):
    result = {c["number"]: c for c in verify_run[2]["criteria"]}[number]
    print(f"criterion {number} {result['name']}: {result['detail']}")
    assert result["passed"], result["detail"]


def test_verify_cli_exits_zero_on_shipped_seeds(verify_run):
    code, out, _ = verify_run
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 10
    assert all(l.startswith("[PASS]") for l in lines)
    assert code == 0


def test_gen_and_jump_replay_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gen", "--count", "8", "--field", "fp:101", "--seed", "1", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    for path in (ra, rb):
        assert main(["jump", "--config", str(a), "--out", str(path)]) == 0
    assert ra.read_bytes() == rb.read_bytes()


def test_verify_scans_each_configuration_once(monkeypatch):
    scanned = []
    gamma_scan = jumplines.jumping.gamma_scan

    def counted(cfg, *plane):
        scanned.append(cfg)
        return gamma_scan(cfg, *plane)

    monkeypatch.setattr(jumplines.jumping, "gamma_scan", counted)
    results, bundles = run_all(seeds=(1,))
    assert all(r.passed for r in results)
    assert scanned == [b.report.config for b in bundles]
