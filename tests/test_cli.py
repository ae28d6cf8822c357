import json

import pytest

from jumplines import kernels
from jumplines.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--count", "8", "--field", "fp:101", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen", "--count", "8", "--field", "fp:101", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["field"] == "fp:101" and len(payload["points"]) == 8


def test_gen_field_too_small(capsys):
    code, _, err = run(capsys, "gen", "--count", "8", "--field", "fp:5", "--seed", "1")
    assert code == 2
    assert "degenerate" in err


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "jump")
    assert code == 1
    code2, _, _ = run(capsys, "jump", "--config", "/nonexistent/file.json")
    assert code2 == 1
    # a directory where a file is read or written: each used to die with an
    # IsADirectoryError traceback
    for argv in (("jump", "--config", str(tmp_path)), ("jump", "--count", "8", "--out", str(tmp_path))):
        code9, out9, err9 = run(capsys, *argv)
        assert code9 == 1 and out9 == "", argv
        assert err9 == f"usage error: [Errno 21] Is a directory: '{tmp_path}'\n", argv
    for command in ("jump", "gamma"):
        code3, _, err3 = run(capsys, command, "--count", "6", "--field", "q", "--seed", "1")
        assert code3 == 1
        assert "prime field" in err3
    # a bad field is a usage error on every command that takes one
    for argv in (
        ("gen", "--count", "5", "--field", "fp:4"),
        ("jump", "--count", "6", "--field", "zz"),
        ("monoidal", "--count", "5", "--field", "fp:x"),
        ("verify", "--p", "4"),
    ):
        code4, _, err4 = run(capsys, *argv)
        assert code4 == 1, argv
        assert err4.startswith("usage error: argument --"), argv
    # counts, budgets, sizes and seed lists are checked when parsed
    for argv in (
        ("jump", "--count", "-1"),
        ("jump", "--count", "0"),
        ("gen", "--count", "0"),
        ("jump", "--count", "6", "--threads", "0"),
        ("jump", "--count", "6", "--threads", "-3"),
        ("jump", "--count", "six"),
        ("verify", "--seeds", "x"),
        ("verify", "--seeds", "1,x"),
        ("verify", "--seeds", ""),
        ("render", "--count", "5", "--field", "q", "--grid", "0"),
    ):
        code5, out5, err5 = run(capsys, *argv)
        assert code5 == 1, argv
        assert err5.startswith(f"usage error: argument {argv[-2]}: want "), (argv, err5)
        assert out5 == "", argv
    # the base-locus check draws curves until it is exact: there is no --trials
    code6, out6, err6 = run(capsys, "verify", "--trials", "4")
    assert code6 == 1 and out6 == ""
    assert err6.startswith("usage error: unrecognized arguments: --trials 4"), err6
    # threads split jump's scan only: verify has no --threads
    code8, out8, err8 = run(capsys, "verify", "--threads", "2")
    assert code8 == 1 and out8 == ""
    assert err8.startswith("usage error: unrecognized arguments: --threads 2"), err8
    # the generator's retry budget is fixed: there is no --retries
    code7, out7, err7 = run(capsys, "gen", "--count", "6", "--retries", "5")
    assert code7 == 1 and out7 == ""
    assert err7.startswith("usage error: unrecognized arguments: --retries 5"), err7


def test_config_with_a_bad_field_is_a_usage_error(tmp_path, capsys):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(json.dumps({"field": "fp:9", "points": [[1, 0, 0]]}))
    for command in ("jump", "monoidal", "gamma", "pencil4", "render"):
        code, _, err = run(capsys, command, "--config", str(cfgp))
        assert code == 1, command
        assert err == f"usage error: configuration file {cfgp}: 9 is not prime\n"


def _config(field, points):
    return {"field": field, "points": points}


@pytest.mark.parametrize("payload, why", [
    (_config("fp:101", [["1/101", 0, 1], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
     "a coordinate has a denominator that is 0 in fp:101"),
    (_config("q", [[1, 0, 0], ["1/0", 1, 0], [0, 0, 1], [1, 1, 1]]), "a coordinate has a denominator that is 0 in q"),
    (_config("fp:101", [[1, 0, 0], [0, 1], [0, 0, 1], [1, 1, 1]]), "points must be a list of coordinate triples"),
    (_config("fp:101", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1, 1]]), "points must be a list of coordinate triples"),
    (_config("fp:101", [[1, 0, 0], [0, 1, 0], [None, 0, 1], [1, 1, 1]]),
     "coordinates must be integers or 'num/den' strings"),
    (_config("fp:101", [[1.5, 0, 1], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
     "coordinates must be integers or 'num/den' strings"),
    (_config("fp:101", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [True, 1, 1]]),
     "coordinates must be integers or 'num/den' strings"),
    (_config("q", [[0.5, 0, 1], [0, 1, 0], [0, 0, 1], [1, 1, 1]]), "coordinates must be integers or 'num/den' strings"),
    ([1, 2], "a configuration must be a JSON object"),
    (_config(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]), "bad field tag 5 (expected 'q' or 'fp:<p>')"),
], ids=["zero-denominator-mod-p", "zero-denominator-over-q", "two-coordinates", "four-coordinates", "null-coordinate",
        "float-coordinate-mod-p", "boolean-coordinate", "float-coordinate-over-q", "not-an-object",
        "field-not-a-string"])
def test_config_with_a_malformed_point_is_a_usage_error(tmp_path, capsys, payload, why):
    # each used to die with a ZeroDivisionError, IndexError, TypeError or
    # AttributeError traceback, or, for a float or a boolean, to be read as
    # another point
    cfgp = tmp_path / "malformed.json"
    cfgp.write_text(json.dumps(payload))
    for command in ("jump", "gamma", "monoidal", "pencil4", "render"):
        code, out, err = run(capsys, command, "--config", str(cfgp))
        assert code == 1, command
        assert err == f"usage error: configuration file {cfgp}: {why}\n"
        assert out == ""


def test_config_with_a_repeated_point_is_degenerate(tmp_path, capsys):
    # (2, 4, 2) is (1, 2, 1) again; jump used to die in the kernel's generic-rank check
    cfgp = tmp_path / "repeated.json"
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 1], [3, 1, 1], [5, 7, 1], [2, 4, 2]]
    cfgp.write_text(json.dumps({"field": "fp:101", "points": points}))
    for command in ("jump", "monoidal", "gamma", "pencil4", "render"):
        code, out, err = run(capsys, command, "--config", str(cfgp))
        assert code == 2, command
        assert err == "degenerate input: configuration has repeated points\n"
        assert out == ""


def test_config_with_collinear_points_is_degenerate(tmp_path, capsys):
    # the last point is the sum of the first two, on the line through them;
    # both commands used to scan such a file as if it were in general position
    from jumplines.algebra import prime_field
    from jumplines.geom import normalize_point, random_config

    field = prime_field(101)
    points = list(random_config(7, field, seed=1).points)
    points.append(normalize_point(field, [a + b for a, b in zip(points[0], points[1])]))
    cfgp = tmp_path / "collinear.json"
    cfgp.write_text(json.dumps({"field": "fp:101", "points": [list(pt) for pt in points]}))
    for command in ("jump", "gamma"):
        code, out, err = run(capsys, command, "--config", str(cfgp))
        assert code == 2, command
        assert err == "degenerate input: points 0,1,7 are collinear\n"
        assert out == ""


def test_field_too_small_for_the_interpolation_grid(capsys):
    for argv in (("jump", "--count", "11", "--field", "fp:17"), ("monoidal", "--count", "11", "--field", "fp:13")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("degenerate input: field " + argv[-1]) and "degree 20" in err


@pytest.mark.parametrize("p", ["11", "13"])
def test_field_too_small_for_the_resultant(capsys, p):
    # the eliminant's degree-16 resultant needs 17 interpolation points
    for argv in (("pencil4", "--count", "8", "--field", f"fp:{p}"), ("verify", "--p", p)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"degenerate input: field fp:{p} too small to interpolate a resultant of degree 16 (needs p > 16)\n"


def test_unknown_command_exit_code(capsys):
    assert main(["definitely-not-a-command"]) == 1
    capsys.readouterr()


def test_jump_six_points_json_and_csv(tmp_path, capsys):
    cfgp = tmp_path / "c6.json"
    assert main(["gen", "--count", "6", "--seed", "1", "--out", str(cfgp)]) == 0
    outp = tmp_path / "rep.json"
    assert main(["jump", "--config", str(cfgp), "--out", str(outp)]) == 0
    rep = json.loads(outp.read_text())
    assert all(rep["verdicts"].values())
    assert rep["counts"]["jumping_points"] == 6
    outc = tmp_path / "rep.csv"
    assert main(["jump", "--config", str(cfgp), "--format", "csv", "--out", str(outc)]) == 0
    lines = outc.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,eps1,eps2,order,in_z,in_gamma"
    assert len(lines) == 1 + 101 * 101 + 101 + 1
    # replay is byte identical
    outp2 = tmp_path / "rep2.json"
    assert main(["jump", "--config", str(cfgp), "--out", str(outp2)]) == 0
    assert outp.read_bytes() == outp2.read_bytes()


def test_jump_degenerate_configuration_exits_two(tmp_path, capsys):
    # these ten points meet the fat-point condition at a point of Z
    outp = tmp_path / "rep.json"
    code, _, err = run(capsys, "jump", "--count", "10", "--seed", "43915", "--out", str(outp))
    assert code == 2
    assert err == "degenerate input: fat-point condition meets the configuration\n"
    rep = json.loads(outp.read_text())
    assert [k for k, v in rep["verdicts"].items() if not v] == ["gamma_disjoint_from_z"]


def test_monoidal_command(tmp_path, capsys):
    cfgp = tmp_path / "c5.json"
    assert main(["gen", "--count", "5", "--seed", "1", "--out", str(cfgp)]) == 0
    code, out, _ = run(capsys, "monoidal", "--config", str(cfgp))
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2 and len(payload["coeffs"]) == 6


def test_gamma_command(tmp_path, capsys):
    cfgp = tmp_path / "c8.json"
    assert main(["gen", "--count", "8", "--seed", "1", "--out", str(cfgp)]) == 0
    code, out, _ = run(capsys, "gamma", "--config", str(cfgp))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["gamma"])


def test_pencil4_command(tmp_path, capsys):
    cfgp = tmp_path / "c8.json"
    assert main(["gen", "--count", "8", "--seed", "1", "--out", str(cfgp)]) == 0
    code, out, _ = run(capsys, "pencil4", "--config", str(cfgp))
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == {"r16": 16, "r4": 4, "r12": 12}
    assert payload["squarefree"] is True
    assert sum(t for _, t in payload["closure_degree_buckets"]) == 12


def test_degrees_command(capsys):
    code, out, _ = run(capsys, "degrees", "--n-max", "6")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    assert rows[1]["deg"] == 12 and rows[2]["jumping_length"] == 36


def test_render_five_points(tmp_path, capsys):
    cfgp = tmp_path / "c5q.json"
    assert main(["gen", "--count", "5", "--field", "q", "--seed", "2", "--out", str(cfgp)]) == 0
    svg = tmp_path / "c5.svg"
    assert main(["render", "--config", str(cfgp), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<circle") == 5 and "<line" in text


def test_render_contour_tracks_the_conic(tmp_path):
    from jumplines.algebra import RATIONALS
    from jumplines.forms import curves_through, monomials
    from jumplines.geom import random_config
    from jumplines.render import contour_segments

    cfg = random_config(5, RATIONALS, seed=2)
    conic = curves_through(cfg, 2).basis[0]
    window = ((-3.0, 3.0), (-3.0, 3.0))
    segs = contour_segments(conic, window, 200)
    assert segs
    scale = max(abs(float(c)) for c in conic.coeffs)
    for (ax, ay), (bx, by) in segs[:200]:
        mx, my = (ax + bx) / 2, (ay + by) / 2
        val = sum(
            float(c) * mx ** a * my ** b
            for (a, b, _e), c in zip(monomials(2), conic.coeffs)
        )
        assert abs(val) < 0.15 * scale * (1 + mx * mx + my * my)


def test_render_rejects_prime_field(tmp_path, capsys):
    cfgp = tmp_path / "c5p.json"
    assert main(["gen", "--count", "5", "--field", "fp:101", "--seed", "1", "--out", str(cfgp)]) == 0
    code, _, err = run(capsys, "render", "--config", str(cfgp))
    assert code == 2 and "rational" in err


def test_render_seven_points_degree_six(tmp_path):
    from jumplines.algebra import RATIONALS
    from jumplines.forms import monoidal_det
    from jumplines.geom import random_config

    cfg = random_config(7, RATIONALS, seed=1)
    assert monoidal_det(cfg).degree == 6
    from jumplines.render import render_svg

    text = render_svg(cfg, grid=60)
    assert text.count("<circle") == 7


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--seeds", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 10
    assert all(l.startswith("[PASS]") for l in lines)


@pytest.mark.parametrize("backend", sorted(kernels.backends()))
def test_threads_on_the_pure_backend_warn(tmp_path, capsys, monkeypatch, backend):
    # the warning goes to stderr only: report bytes and stdout stay as they are
    monkeypatch.setattr(kernels, "_impl", kernels.backends()[backend])
    warns = backend == "pure"
    outs = []
    for threads in ("1", "2"):
        outp = tmp_path / f"rep{threads}.csv"
        code, out, err = run(capsys, "jump", "--count", "6", "--field", "fp:31", "--format", "csv",
                             "--threads", threads, "--out", str(outp))
        assert code == 0 and out == ""
        assert ("warning: --threads 2" in err) == (warns and threads == "2")
        outs.append(outp.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_jump_writes_the_report_in_slices(tmp_path, capsys, monkeypatch, assert_same_text, fmt):
    # the report goes out part by part, a few KiB at a time, to a file and to
    # stdout, and keeps the bytes of to_json / to_csv
    from jumplines.algebra import prime_field
    from jumplines.geom import random_config
    from jumplines.jumping import jumping_scan

    monkeypatch.setattr("jumplines.cli._WRITE_SLICE", 4099)
    rep = jumping_scan(random_config(8, prime_field(101), seed=1))
    want = rep.to_json() if fmt == "json" else rep.to_csv()
    outp = tmp_path / f"rep.{fmt}"
    code, out, _ = run(capsys, "jump", "--count", "8", "--seed", "1", "--format", fmt, "--out", str(outp))
    assert code == 0 and out == ""
    assert_same_text(outp.read_bytes().decode(), want)
    code, out, _ = run(capsys, "jump", "--count", "8", "--seed", "1", "--format", fmt)
    assert code == 0
    assert_same_text(out, want)


def test_info(capsys):
    import jumplines

    code, out, err = run(capsys, "info")
    assert code == 0 and err == ""
    loaded = "imported" if "compiled" in kernels.backends() else "not importable"
    assert out.splitlines() == [
        f"backend: {kernels.BACKEND}",
        f"jumplines._fastkern: {loaded}",
        "compiled kernels: primes p < 2147483648",
        f"version: {jumplines.__version__}",
    ]
