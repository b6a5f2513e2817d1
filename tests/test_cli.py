import hashlib
import json
import math
import os

import numpy as np
import pytest

from isozonoid import bodies, harness
from isozonoid.bodies import cube_body
from isozonoid.cli import SUITES, main
from isozonoid.harness import REPORT_CSV_FIELDS
from isozonoid.measures import cross_measure, equiangular_measure
from isozonoid.metrics import wasserstein


@pytest.fixture
def cube3_json(tmp_path):
    path = tmp_path / "cube3.json"
    path.write_text(json.dumps(cube_body(3).to_json_dict()))
    return str(path)


@pytest.fixture
def hex_json(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(equiangular_measure(3).to_json_dict()))
    return str(path)


def test_volume_subcommand(cube3_json, tmp_path, capsys):
    out = tmp_path / "vol.json"
    rc = main(["volume", "--body", cube3_json, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(8.0, abs=1e-9)
    assert data["method"] == "EXACT"
    # volume, john and transport draw nothing, so they take no --seed
    for argv in (["volume", "--body", cube3_json],
                 ["john", "--body", cube3_json],
                 ["transport", "--p", "1.5", "--check", "box"]):
        assert main(argv + ["--seed", "1"]) == 2


def test_volume_of_unbounded_body_exits_2(tmp_path, capsys):
    # the quadrant x <= 1, y <= 1 is rejected when the JSON is loaded
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps({"dim": 2, "kind": "H",
                                "data": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]}))
    out = tmp_path / "vol.json"
    assert main(["volume", "--body", str(path), "--out", str(out)]) == 2
    assert "unbounded" in capsys.readouterr().err
    assert not out.exists()


def test_distance_wassO(hex_json, tmp_path):
    out = tmp_path / "d.json"
    rc = main(["distance", "--kind", "wassO", "--measure", hex_json,
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["value"] > 0.1
    assert "certificate" in data


def test_distance_wassO_needs_an_even_measure(tmp_path, capsys):
    data = equiangular_measure(3).to_json_dict()
    data["even"] = False
    path = tmp_path / "hex_flagless.json"
    path.write_text(json.dumps(data))
    rc = main(["distance", "--kind", "wassO", "--measure", str(path),
               "--out", str(tmp_path / "d.json")])
    assert rc == 2
    assert '"even": true' in capsys.readouterr().err


def test_distance_hausO(hex_json, tmp_path):
    out = tmp_path / "d.json"
    rc = main(["distance", "--kind", "hausO", "--measure", hex_json,
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(np.pi / 6, abs=1e-9)


def test_distance_bm(tmp_path):
    # the John-normalized hexagon against the square: d_BM = 3/2
    for name, body in (("hex", harness.john_normalize(
            harness.regular_polygon_body(3))[0]), ("square", cube_body(2))):
        (tmp_path / f"{name}.json").write_text(json.dumps(body.to_json_dict()))
    out = tmp_path / "bm.json"
    rc = main(["distance", "--kind", "bm", "--body",
               str(tmp_path / "hex.json"), "--body2",
               str(tmp_path / "square.json"), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text(), parse_constant=_reject_constant)
    cert = data["certificate"]
    # the CLI writes keys sorted
    assert list(cert) == ["best_start", "converged", "lambda", "map",
                          "method", "nfev", "nit", "restarts",
                          "upper_bound_only"]
    assert cert["method"] == "slsqp-epigraph"
    assert cert["converged"] == cert["restarts"] == 24
    assert abs(data["value"] - math.log(1.5)) <= 1e-12


def test_john_subcommand(cube3_json, tmp_path):
    out = tmp_path / "john.json"
    rc = main(["john", "--body", cube3_json, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert np.allclose(np.array(data["ellipsoid_shape"]), np.eye(3), atol=1e-8)
    assert data["isoperimetric_ratio"] == pytest.approx(216.0, abs=1e-6)
    assert len(data["contact_measure"]["atoms"]) == 6


def test_verify_s1_suite(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "s1", "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) >= 8
    assert all(r["passed"] for r in rows)
    csv_path = tmp_path / "report.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["suite", "label", "n"]


def test_verify_planar_suite(tmp_path):
    out = tmp_path / "planar.json"
    rc = main(["verify", "--suite", "planar", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 11


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_verify_theoremB_n3_writes_strict_json(tmp_path):
    out = tmp_path / "tb3.json"
    rc = main(["verify", "--suite", "theoremB", "--n", "3", "--p", "1.5",
               "--count", "2", "--out", str(out)])
    assert rc in (0, 1)
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(rows) == 2
    assert all(isinstance(r["passed"], bool) for r in rows)
    header = (tmp_path / "tb3.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS


def test_verify_zpstab_n3_pinf(tmp_path, capsys):
    out = tmp_path / "zp3.json"
    rc = main(["verify", "--suite", "zpstab", "--n", "3", "--p", "inf",
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    header = (tmp_path / "zp3.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    fam = harness.perturbation_family("TILTED_PAIR", 3,
                                      np.linspace(0.0, 0.4, 9))
    assert [r["label"] for r in rows] == [str(i) for i in range(len(fam))]
    assert rows[0]["epsilon"] <= 1e-10          # label 0 is the cross
    for row, mu in zip(rows, fam):
        at_identity, _ = wasserstein(mu, cross_measure(3))
        assert row["epsilon"] <= at_identity
        assert row["epsilon_method"] == "multistart-nelder-mead"
        assert row["epsilon_nfev"] > 0


@pytest.mark.parametrize("p", ["1.5", "1", "3"])
def test_verify_zpstab_n3_default_family(p, tmp_path, capsys):
    out = tmp_path / "zp3.json"
    rc = main(["verify", "--suite", "zpstab", "--n", "3", "--p", p,
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    header = (tmp_path / "zp3.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    assert [r["label"] for r in rows] == [str(i) for i in range(9)]
    assert rows[0]["epsilon"] <= 1e-10          # label 0 is the cross
    # a tilt the level-5 brackets leave undecided is recomputed at level 6
    refined = [r for r in rows if "volume_grid_nodes" in r]
    assert all(r["volume_grid_nodes"] == 40962 and r["epsilon"] > 1e-6
               and r["deficit_lower"] > 0.0 for r in refined)
    assert (refined == []) == (p == "1")


def test_verify_s1_reports_are_byte_identical(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert main(["verify", "--suite", "s1", "--seed", "3",
                     "--out", str(out)]) == 0
        runs.append((out.read_bytes(), (tmp_path / f"{name}.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert b"runtime" not in runs[0][0] + runs[0][1]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", ["1", "1.5", "4", "inf"])
def test_verify_theoremB_matrix(n, p, tmp_path):
    out = tmp_path / "tb.json"
    rc = main(["verify", "--suite", "theoremB", "--n", str(n), "--p", p,
               "--count", "2", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(rows) == 2
    header = (tmp_path / "tb.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    s = 1.0 - 1.0 / float(p)
    ref = (2.0 * math.gamma(1.0 + s)) ** n / math.gamma(1.0 + n * s)
    assert all(r["ref_Zp"] == ref for r in rows)


@pytest.mark.parametrize("suite, p, code", [
    ("theoremB", "1", 0), ("theoremB", "inf", 0), ("theoremB", "1.5", 2),
    ("zpstab", None, 2), ("reviso", None, 2)])
def test_verify_at_n4(suite, p, code, tmp_path, capsys):
    # n = 4 runs on the exact polytope paths (p in {1, inf}); quadrature,
    # orbit searches and John solves stop with exit code 2
    out = tmp_path / "n4.json"
    argv = ["verify", "--suite", suite, "--n", "4", "--out", str(out)]
    rc = main(argv + (["--p", p] if p else []))
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "error" in err and not out.exists()
        return
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(rows) == 20 and all(r["passed"] for r in rows)
    if p == "inf":
        # Ball's bound V(Z*_inf) <= 2^n, and V(Z_inf) >= 2^n / n!
        assert all(r["ref_Zp_star"] == 16.0 for r in rows)
        assert max(r["V_Zp_star"] for r in rows) <= 16.0
        assert min(r["V_Zp"] for r in rows) >= 16.0 / 24.0


@pytest.mark.parametrize("n", ["5", "1"])
@pytest.mark.parametrize("suite", ["theoremB", "caps"])
def test_verify_drawn_suites_refuse_n_before_drawing(suite, n, tmp_path,
                                                     capsys, monkeypatch):
    drawn = []
    real = harness.random_even_isotropic
    monkeypatch.setattr(harness, "random_even_isotropic",
                        lambda *a, **k: drawn.append(1) or real(*a, **k))
    out = tmp_path / "x.json"
    rc = main(["verify", "--suite", suite, "--n", n, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"draws its measures in n = 2, 3 or 4 only, not n = {n}" in err
    assert not drawn and not out.exists()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_caps_matrix(n, tmp_path, capsys):
    out = tmp_path / "caps.json"
    rc = main(["verify", "--suite", "caps", "--n", str(n), "--count", "2",
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert len(rows) == 2 and all(r["n"] == n for r in rows)
    header = (tmp_path / "caps.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS


def test_verify_reviso_n2(tmp_path):
    out = tmp_path / "reviso.json"
    rc = main(["verify", "--suite", "reviso", "--n", "2", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    header = (tmp_path / "reviso.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    assert [r["label"] for r in rows] == ["cube", "cut-0.1", "cut-0.25",
                                          "hexagon"]
    assert rows[0]["delta_vol"] <= 1e-9 and rows[0]["delta_BM"] <= 1e-9
    bodies = [cube_body(2), harness.truncated_cube_body(2, 0.1),
              harness.truncated_cube_body(2, 0.25),
              harness.regular_polygon_body(3)]
    direct = harness.reverse_isoperimetric_suite(
        bodies, ["cube", "cut-0.1", "cut-0.25", "hexagon"])
    want = json.loads(json.dumps([r.to_dict() for r in direct]))
    assert rows == want


def test_verify_reviso_converts_each_body_once(tmp_path, monkeypatch):
    # H -> V once for each of the 4 input bodies, the cube shared by the
    # searches and the 3 polar bodies of the cube sandwich checks; V -> H
    # once for each John-normalized body
    calls = []
    for name in ("halfspace_vertices", "vertices_to_halfspaces"):
        real = getattr(bodies, name)
        monkeypatch.setattr(bodies, name, lambda *a, _name=name, _real=real:
                            calls.append(_name) or _real(*a))
    rc = main(["verify", "--suite", "reviso", "--out",
               str(tmp_path / "reviso.json")])
    assert rc == 0
    assert calls.count("halfspace_vertices") <= 8
    assert calls.count("vertices_to_halfspaces") <= 4


# delta_vol of the Nelder-Mead search that the n = 3 BFGS search replaced,
# and delta_BM, which did not move
REVISO_N3 = {"cube": (1.3631318296347672e-12, 2.273736754432062e-13),
             "cut-0.1": (0.0017076692322408604, 0.059468756188760845),
             "cut-0.25": (0.024927662172343323, 0.15587933493870088)}


def test_verify_reviso_n3(tmp_path, capsys):
    out = tmp_path / "reviso.json"
    rc = main(["verify", "--suite", "reviso", "--n", "3", "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    header = (tmp_path / "reviso.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    assert [r["label"] for r in rows] == list(REVISO_N3)
    for row in rows:
        dvol, dbm = REVISO_N3[row["label"]]
        assert row["passed"] and row["n"] == 3
        assert 0.0 <= row["delta_vol"] <= dvol + 1e-12
        assert row["delta_BM"] == dbm


# sha256 of each check's CSV at p = 1.5 on 32 points.  "box" and "second"
# moved when the rows became array evaluations (numpy's exp and pow round a
# few values one ulp off libm's); test_transport_csv_is_the_scalar_rows
# holds them to the point-by-point rows
TRANSPORT_CSV_SHA256 = {
    "box": "9366f7456903632fda4c21e0d1c8406c5434310054f928dd3961dc6c2ecff4f2",
    "second": "3ec8066dd03b760305ae14d673f7a2ec4b386215ea0ae74c03667d9e096708ba",
    "mass": "4049aa21c1e05a3171e2b16fb06a7a148effd05e4c8a7ce278c15afcc960bfee",
}


def test_transport_subcommand(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["transport", "--p", "1.5", "--check", "box", "--grid", "32",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,bound,margin"
    assert len(lines) == 1 + 2 * 32
    for check, digest in TRANSPORT_CSV_SHA256.items():
        rc = main(["transport", "--p", "1.5", "--check", check, "--grid", "32",
                   "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("check", ["box", "second", "mass"])
def test_transport_csv_is_the_scalar_rows(check, tmp_path):
    # the same t column and exit code as the point-by-point rows; values,
    # bounds and margins within 32 ulp of them (phi'' cancels), and the mass
    # margin 1e-9 - |value - bound| within 2 ulp of the values
    from oracles import box_rows_scalar, mass_rows_scalar, second_rows_scalar

    from isozonoid.cli import _transport_grid

    out = tmp_path / "t.csv"
    for p in (1, 1.5, 2.7, math.inf):
        rc = main(["transport", "--p", str(p), "--check", check, "--grid",
                   "32", "--out", str(out)])
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        rows = {"box": box_rows_scalar, "second": second_rows_scalar,
                "mass": mass_rows_scalar}[check](
                    p, _transport_grid(check, 32, p))
        want = np.array([[float(x) for x in row] for row in rows])
        assert rc == (0 if np.all(want[:, 3] > 0) else 1)
        assert np.array_equal(got[:, 0], want[:, 0])
        ulp = np.spacing(np.abs(want[:, 1:3]))
        assert np.all(np.abs(got[:, 1:3] - want[:, 1:3]) <= 32 * ulp)
        slack = 32 * np.spacing(np.abs(want[:, 3]))
        if check == "mass":
            slack = 2 * ulp.max(axis=1)
        assert np.all(np.abs(got[:, 3] - want[:, 3]) <= slack)


def test_transport_subcommand_fails_a_tightened_box(tmp_path, monkeypatch):
    # the suite's verify_derivative_box and the subcommand hold phi' and
    # psi' to the same bound: at p = 1.5 they span [0.896, 1.123], outside
    # (1/1.1, 1.1) on both sides
    from isozonoid import transport

    monkeypatch.setattr(transport, "FIRST_DERIV_BOX", 1.1)
    out = tmp_path / "t.csv"
    rc = main(["transport", "--p", "1.5", "--check", "box", "--out", str(out)])
    assert rc == 1
    rows = out.read_text().splitlines()[1:]
    margins = [float(row.split(",")[3]) for row in rows]
    assert min(margins) < 0
    assert {float(row.split(",")[2]) for row in rows} == {1.1}


def test_byte_identical_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["verify", "--suite", "ballbarthe", "--count", "5", "--seed", "7",
          "--out", str(a)])
    main(["verify", "--suite", "ballbarthe", "--count", "5", "--seed", "7",
          "--out", str(b)])
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert ra == rb


def test_env_seed_override(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("ISOZONOID_SEED", "12345")
    rc = main(["verify", "--suite", "ballbarthe", "--count", "3",
               "--out", str(out)])
    assert rc == 0


def test_usage_error_exit_2(tmp_path):
    assert main(["volume", "--body", str(tmp_path / "missing.json")]) == 2
    assert main(["nonsense"]) == 2


_SQUARE_ROWS = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
_INPUT_ERRORS = {
    # each distance kind needs its own inputs
    "bm-no-body2": (["distance", "--kind", "bm", "--body", "{sq}"], "--body2"),
    "vol-no-body": (["distance", "--kind", "vol", "--body2", "{sq}"], "--body"),
    "wass-no-measure2": (["distance", "--kind", "wass", "--measure", "{hex}"],
                         "--measure2"),
    "haus-no-measure": (["distance", "--kind", "haus", "--measure2", "{hex}"],
                        "--measure"),
    "wassO-no-measure": (["distance", "--kind", "wassO"], "--measure"),
    "hausO-no-measure": (["distance", "--kind", "hausO", "--body", "{sq}"],
                         "--measure"),
    # a count or grid below 1 would pass on nothing
    "count-0": (["verify", "--suite", "ballbarthe", "--count", "0"],
                "--count must be at least 1"),
    "count-negative": (["verify", "--suite", "caps", "--count", "-3"],
                       "--count must be at least 1"),
    "verify-grid-0": (["verify", "--suite", "transport", "--grid", "0"],
                      "--grid must be at least 1"),
    "transport-grid-0": (["transport", "--p", "1.5", "--check", "box",
                          "--grid", "0"], "--grid must be at least 1"),
    # p = 2 is the fixed point: phi'' is round-off against a bound of 0
    "transport-second-p2": (["transport", "--p", "2", "--check", "second"],
                            "p = 2 is the fixed point"),
    # a body file's dim must match its rows
    "dim-mismatch-V": (["volume", "--body", "{sq3}"], '"dim": 2'),
    "dim-mismatch-H": (["volume", "--body", "{nodim}"], '"dim": 2'),
    # input files of the wrong shape name the shape they need
    "volume-body-not-object": (["volume", "--body", "{rows}"],
                               "body JSON must be an object"),
    "john-body-not-object": (["john", "--body", "{rows}"],
                             "body JSON must be an object"),
    "measure-atoms-not-objects": (["distance", "--kind", "hausO",
                                   "--measure", "{rowatoms}"],
                                  '"atoms" must be a list of objects'),
    "measure-no-atoms": (["distance", "--kind", "wassO", "--measure",
                          "{noatoms}"], 'keys "dim" and "atoms"'),
    # a value of the wrong JSON type names its field and the type it needs
    "measure-c-list": (["distance", "--kind", "hausO", "--measure", "{clist}"],
                       'measure JSON "c" must be a number'),
    "measure-dim-list": (["distance", "--kind", "hausO", "--measure",
                          "{dimlist}"], 'measure JSON "dim" must be an integer'),
    "body-data-objects": (["volume", "--body", "{dictrows}"],
                          'body JSON "data" must be a list of rows of numbers'),
    # each distance kind reads its own inputs and no others
    "wassO-reads-no-body": (["distance", "--kind", "wassO", "--measure",
                             "{hex}", "--body", "{sq}"],
                            "does not read --body"),
    "bm-reads-no-measure": (["distance", "--kind", "bm", "--body", "{sq}",
                             "--body2", "{sq}", "--measure", "{hex}"],
                            "does not read --measure"),
    "bm-dims-2-and-3": (["distance", "--kind", "bm", "--body", "{sq}",
                         "--body2", "{cube3}"], "got 2 and 3"),
    "vol-dims-3-and-2": (["distance", "--kind", "vol", "--body", "{cube3}",
                          "--body2", "{sq}"], "got 3 and 2"),
    # John's ellipsoid is certified for origin-symmetric bodies only
    "john-not-symmetric": (["john", "--body", "{kite}"],
                           "symmetric about the origin"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_input_errors_exit_2_with_one_message(case, hex_json, tmp_path,
                                              capsys):
    files = {"hex": hex_json}
    for name, data in (
            ("sq", {"dim": 2, "kind": "V", "data": _SQUARE_ROWS}),
            ("sq3", {"dim": 3, "kind": "V", "data": _SQUARE_ROWS}),
            ("nodim", {"kind": "H",
                             "data": cube_body(2).to_json_dict()["data"]}),
            ("rows", [[1, 1], [-1, 1]]),
            ("rowatoms", {"dim": 2, "atoms": [[1, 0]]}),
            ("noatoms", {"dim": 2, "even": True}),
            ("clist", {"dim": 2, "atoms": [{"u": [1, 0], "c": [1]}]}),
            ("dimlist", {"dim": [2], "atoms": [{"u": [1, 0], "c": 1}]}),
            ("dictrows", {"dim": 2, "kind": "V", "data": [{"x": 1}]}),
            ("cube3", cube_body(3).to_json_dict()),
            ("kite", {"dim": 2, "kind": "V",
                      "data": [[2, 0], [0, 1], [-1, 0], [0, -1]]})):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv, message = _INPUT_ERRORS[case]
    out = tmp_path / "out.json"
    rc = main([arg.format(**files) for arg in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "isozonoid: error:" in line]
    assert len(lines) == 1 and message in lines[0], err
    assert not out.exists()


def test_verify_rejects_flags_a_suite_does_not_read(tmp_path, capsys):
    # every (suite, flag) pair outside the table exits 2 before running,
    # naming both, and writes no report
    given = {"n": "4", "p": "1.5", "count": "3", "grid": "16"}
    pairs = [(suite, flag) for suite, (_, reads) in SUITES.items()
             for flag in given if flag not in reads]
    assert ("s1", "n") in pairs and len(pairs) == 22
    out = tmp_path / "r.json"
    for suite, flag in pairs:
        rc = main(["verify", "--suite", suite, f"--{flag}", given[flag],
                   "--seed", "1", "--jobs", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"suite {suite} does not read --{flag}" in err
        assert not out.exists()


def test_verify_suites_leave_scipy_stats_unimported(tmp_path):
    # scipy.stats costs about a second and 19 MB on import; no suite needs it
    import subprocess
    import sys

    import isozonoid

    code = (
        "import sys\n"
        "from isozonoid.cli import main\n"
        "for argv in (['--suite', 'ballbarthe', '--count', '3'],\n"
        "             ['--suite', 'caps', '--count', '2'],\n"
        "             ['--suite', 'transport', '--grid', '8']):\n"
        "    assert main(['verify', *argv, '--out', sys.argv[1]]) == 0\n"
        "print('scipy.stats' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(isozonoid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
