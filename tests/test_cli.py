import json
import math
import os

import numpy as np
import pytest

from isozonoid import harness
from isozonoid.bodies import cube_body
from isozonoid.cli import main
from isozonoid.harness import REPORT_CSV_FIELDS
from isozonoid.measures import cross_measure, hexagonal_measure
from isozonoid.metrics import wasserstein


@pytest.fixture
def cube3_json(tmp_path):
    path = tmp_path / "cube3.json"
    path.write_text(json.dumps(cube_body(3).to_json_dict()))
    return str(path)


@pytest.fixture
def hex_json(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(hexagonal_measure().to_json_dict()))
    return str(path)


def test_volume_subcommand(cube3_json, tmp_path, capsys):
    out = tmp_path / "vol.json"
    rc = main(["volume", "--body", cube3_json, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(8.0, abs=1e-9)
    assert data["method"] == "EXACT"


def test_distance_wassO(hex_json, tmp_path):
    out = tmp_path / "d.json"
    rc = main(["distance", "--kind", "wassO", "--measure", hex_json,
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["value"] > 0.1
    assert "certificate" in data


def test_distance_wassO_needs_an_even_measure(tmp_path, capsys):
    data = hexagonal_measure().to_json_dict()
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


def test_verify_zpstab_n3_p15_default_family(tmp_path, capsys):
    out = tmp_path / "zp3.json"
    rc = main(["verify", "--suite", "zpstab", "--n", "3", "--p", "1.5",
               "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    header = (tmp_path / "zp3.csv").read_text().splitlines()[0]
    assert header.split(",") == REPORT_CSV_FIELDS
    assert [r["label"] for r in rows] == [str(i) for i in range(9)]
    assert rows[0]["epsilon"] <= 1e-10          # label 0 is the cross


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


def test_transport_subcommand(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["transport", "--p", "1.5", "--check", "box", "--grid", "32",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,bound,margin"
    assert len(lines) == 1 + 2 * 32


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


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
