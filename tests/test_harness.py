import json
import math

import numpy as np
import pytest

from isozonoid.bodies import cube_body
from isozonoid.harness import (REPORT_CSV_FIELDS, StabilityReport,
                               area_conv_support,
                               area_polar_support, deficits_monotone,
                               max_area_inscribed_parallelogram,
                               octagon_Q_body, perturbation_family,
                               planar_suite, regular_polygon_body,
                               reverse_isoperimetric_suite, s1_sharp_suite,
                               sandwich_M_vertices, sine_sum_decreasing,
                               tangent_sum_increasing, theorem_B_suite,
                               truncated_cube_body, zpmustab_consistency)
from isozonoid.measures import check_isotropy, cross_measure


def test_family_equiangular_m3_is_hexagonal():
    fam = perturbation_family("EQUIANGULAR", 2, [3])
    assert fam[0].natoms == 6
    assert np.allclose(np.sort(fam[0].weights), 1.0 / 3.0)


def test_family_tilted_alpha0_is_cross():
    fam = perturbation_family("TILTED_PAIR", 2, [0.0])
    assert fam[0].natoms == 4
    assert np.allclose(np.sort(fam[0].weights), 0.5)


def test_family_random_isotropic_residual():
    fam = perturbation_family("RANDOM_ISOTROPIC", 3, (5, 8), seed=11)
    for mu in fam:
        assert check_isotropy(mu, 1e-9).is_isotropic


def test_theorem_b_cross_equality(nu2):
    reps = theorem_B_suite(2, math.inf, [nu2])
    r = reps[0]
    assert r.passed
    assert r.extra["V_Zp"] == pytest.approx(2.0, abs=1e-9)
    assert r.extra["V_Zp_star"] == pytest.approx(4.0, abs=1e-9)
    assert r.extra.get("equality_flagged", False)


@pytest.mark.parametrize("n", [2, 3])
def test_theorem_b_says_how_epsilon_was_obtained(n):
    # the cross measure sits at equality, so its report needs delta_WO
    r, = theorem_B_suite(n, 1.5, [cross_measure(n)])
    assert r.extra["equality_flagged"] and r.epsilon <= 1e-10
    d = r.to_dict()
    if n == 2:
        assert d["epsilon_method"] == "kink-enumeration"
        assert "epsilon_nfev" not in d
    else:
        assert d["epsilon_method"] == "multistart-nelder-mead"
        assert d["epsilon_nfev"] > 0
    # the search's batch count stays in its certificate, out of the report
    assert not any("batches" in key for key in d)


def test_theorem_b_hexagon_exact_areas(hexm):
    reps = theorem_B_suite(2, math.inf, [hexm])
    r = reps[0]
    assert r.passed
    assert r.extra["V_Zp"] == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-12)
    assert r.extra["V_Zp_star"] == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)


def test_s1_exact_polygon_areas(hexm, nu2):
    assert area_conv_support(hexm) == pytest.approx(3.0 * math.sqrt(3.0) / 2.0,
                                                    abs=1e-14)
    assert area_polar_support(hexm) == pytest.approx(2.0 * math.sqrt(3.0),
                                                     abs=1e-14)
    assert area_conv_support(nu2) == pytest.approx(2.0, abs=1e-14)
    assert area_polar_support(nu2) == pytest.approx(4.0, abs=1e-14)


def test_s1_suite_hexagon_margins(hexm):
    r = s1_sharp_suite([hexm])[0]
    assert r.passed
    assert r.epsilon == pytest.approx(np.pi / 6, abs=1e-9)
    assert r.extra["V_Zinf"] >= r.extra["bound_inf"]
    assert r.extra["V_Zinf_star"] <= r.extra["bound_star"]
    assert r.extra["bound_inf"] == pytest.approx(2.2617993877991494, abs=1e-8)
    assert r.extra["bound_star"] == pytest.approx(3.7905604897606805, abs=1e-8)


def test_s1_suite_cross_zero(nu2):
    r = s1_sharp_suite([nu2])[0]
    assert r.passed and r.epsilon <= 1e-9


def test_s1_suite_octagon():
    from isozonoid.measures import equiangular_measure

    r = s1_sharp_suite([equiangular_measure(4)])[0]
    assert r.passed
    assert r.epsilon == pytest.approx(np.pi / 8, abs=1e-9)
    assert r.extra["V_Zinf"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_s1_ingredients_checked_once_on_the_grid(hexm, nu2):
    from isozonoid.harness import _s1_ingredients

    grid = np.linspace(0.0, np.pi / 2 * 0.999, 9)
    pairs = [(a, b) for a in grid for b in grid if b <= a]
    want = (all(tangent_sum_increasing(a, b) for a, b in pairs),
            all(sine_sum_decreasing(a, b) for a, b in pairs))
    assert want == (True, True)
    assert _s1_ingredients() == want
    for r in s1_sharp_suite([hexm, nu2]):
        assert (r.extra["tangent_monotone"], r.extra["sine_decreasing"]) == want


def test_s1_bounds_beat_cubic_rate():
    # (1 + eps/4) > (1 + 0.1 eps^3) and (1 - eps/10) < (1 - 0.1 eps^3)
    eps = np.linspace(1e-6, 0.999, 500)
    assert np.all(0.25 * eps > 0.1 * eps ** 3)
    assert np.all(0.1 * eps > 0.1 * eps ** 3)


def test_zpstab_tilted_sweep_monotone():
    fam = perturbation_family("TILTED_PAIR", 2, np.linspace(0.0, 0.4, 9))
    reps = zpmustab_consistency(2, math.inf, fam)
    assert all(r.passed for r in reps)
    assert deficits_monotone(reps)
    assert all(r.to_dict()["epsilon_method"] == "kink-enumeration"
               and "epsilon_nfev" not in r.extra for r in reps)
    assert reps[0].deficit == pytest.approx(0.0, abs=1e-9)


def test_zpstab_equiangular_positive_except_cross():
    fam = perturbation_family("EQUIANGULAR", 2, [2, 3, 4, 6])
    reps = zpmustab_consistency(2, math.inf, fam)
    assert reps[0].epsilon <= 1e-9 and abs(reps[0].deficit) <= 1e-9
    for r in reps[1:]:
        assert r.deficit > 1e-3 and r.passed


def test_reverse_isoperimetric_cube_calibration():
    reps = reverse_isoperimetric_suite([cube_body(2)], ["cube"])
    r = reps[0]
    assert r.passed
    assert abs(r.deficit) <= 1e-9
    assert r.extra["delta_vol"] <= 1e-6 and r.extra["delta_BM"] <= 1e-6


def test_reverse_isoperimetric_cut_family_monotone():
    bodies = [truncated_cube_body(2, c) for c in (0.05, 0.15, 0.3)]
    reps = reverse_isoperimetric_suite(bodies, distances=False)
    defs = [r.deficit for r in reps]
    assert all(r.passed for r in reps)
    assert defs[0] < defs[1] < defs[2]


def test_reverse_isoperimetric_hexagon():
    reps = reverse_isoperimetric_suite([regular_polygon_body(3)], ["hex"],
                                       restarts=6)
    r = reps[0]
    assert r.passed
    assert r.deficit == pytest.approx(1.0 - (48.0 / (2.0 * math.sqrt(3.0))) / 16.0,
                                      abs=1e-9)
    assert r.extra["delta_BM"] == pytest.approx(math.log(1.5), abs=1e-4)
    assert r.extra["delta_BM"] >= math.log(1.5) - 1e-9


def test_reverse_isoperimetric_mixed_dimensions(monkeypatch):
    # one search per body and distance, in input order, and one cube per
    # dimension; reports in input order, each equal to the body's own
    # suite run
    from isozonoid import harness

    bodies = [cube_body(2), truncated_cube_body(3, 0.1),
              regular_polygon_body(3)]
    labels = ["cube", "cut3", "hex"]
    single = [reverse_isoperimetric_suite([body], [label], restarts=2)[0]
              for body, label in zip(bodies, labels)]
    calls = []

    def counted(name):
        real = getattr(harness, name)

        def search(K, *args, **kwargs):
            calls.append((name, K.dim))
            return real(K, *args, **kwargs)
        return search

    for name in ("banach_mazur", "volume_distance"):
        monkeypatch.setattr(harness, name, counted(name))
    cubes = []
    real_cube = harness.cube_body

    def cube_body_counted(n, *args):
        cubes.append(n)
        return real_cube(n, *args)

    monkeypatch.setattr(harness, "cube_body", cube_body_counted)
    reps = reverse_isoperimetric_suite(bodies, labels, restarts=2)
    assert calls == [(name, n) for n in (2, 3, 2)
                     for name in ("volume_distance", "banach_mazur")]
    assert sorted(cubes) == [2, 3]                # one cube per dimension
    assert [r.to_dict() for r in reps] == [r.to_dict() for r in single]


def test_planar_square_zero_slack():
    r = planar_suite(cube_body(2))
    assert r.passed
    assert r.extra["t"] == pytest.approx(0.0, abs=1e-12)
    assert r.epsilon == pytest.approx(0.0, abs=1e-12)


def test_planar_octagon_identities():
    for t in np.arange(0.0, 0.5001, 0.05):
        r = planar_suite(octagon_Q_body(t, t))
        assert r.passed
        assert abs(r.extra["S_M"] - r.extra["S_M_expected"]) <= 1e-12 * 16
        assert abs(r.extra["V_Q"] - r.extra["V_Q_expected"]) <= 1e-12 * 8


def test_planar_asymmetric_octagon():
    r = planar_suite(octagon_Q_body(0.1, 0.3, s1=0.2, s2=-0.1))
    assert r.passed
    assert r.extra["t"] == pytest.approx(0.2, abs=1e-12)


def test_planar_cut_corner_vs_bm():
    from isozonoid.metrics import banach_mazur

    K = truncated_cube_body(2, 0.1 * math.sqrt(2.0))    # cut 0.1 along diagonals
    r = planar_suite(K)
    assert r.passed
    dbm, _ = banach_mazur(K, cube_body(2), restarts=4)
    assert r.epsilon >= dbm / 18.0 - 1e-9


def test_max_parallelogram_certificate():
    area, q1, q2 = max_area_inscribed_parallelogram(cube_body(2))
    assert area == pytest.approx(4.0)


def test_epsilont_chain_on_grid():
    t = np.linspace(0.0, 0.5, 101)
    lhs = (3.0 - 2.0 * math.sqrt(2.0)) * t * (1.0 - t) / (1.0 + t)
    assert np.all(lhs >= t / 18.0 - 1e-12)


def test_sandwich_M_perimeter_formula():
    for t1, t2 in ((0.0, 0.0), (0.1, 0.3), (0.5, 0.5)):
        V = sandwich_M_vertices(t1, t2)
        per = float(np.sum(np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)))
        t = (t1 + t2) / 2.0
        assert per == pytest.approx((1.0 + (math.sqrt(2.0) - 1.0) * t) * 8.0,
                                    abs=1e-12)


def test_deficit_invariant_under_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    K = truncated_cube_body(2, 0.2)
    from isozonoid.bodies import BodyRep

    KR = BodyRep.from_vertices(K.to_vrep().vertices @ q.T)
    r1 = reverse_isoperimetric_suite([K], distances=False)[0]
    r2 = reverse_isoperimetric_suite([KR], distances=False)[0]
    assert r1.deficit == pytest.approx(r2.deficit, abs=1e-8)


def test_report_dict_and_csv_fields(nu2):
    r = theorem_B_suite(2, 1, [nu2])[0]
    d = r.to_dict()
    for f in REPORT_CSV_FIELDS:
        assert f in d


def test_report_dict_keeps_every_extra():
    # nested extras reach the report as strict JSON, none is dropped
    r = StabilityReport(
        suite="x", label="0", n=2, p=math.inf, epsilon=0.0, deficit=0.0,
        bound=0.0, passed=True,
        extra={"cert": {"method": "m", "nfev": np.int64(7),
                        "bracket": (0.5, math.inf)},
               "flags": [np.bool_(True), False], "rows": np.eye(2),
               "lam": np.float64(math.nan)})
    d = r.to_dict()
    assert d["cert"] == {"method": "m", "nfev": 7, "bracket": [0.5, "inf"]}
    assert d["flags"] == [True, False]
    assert d["rows"] == [[1.0, 0.0], [0.0, 1.0]]
    assert d["lam"] == "nan" and d["p"] == "inf"
    assert type(d["cert"]["nfev"]) is int and type(d["flags"][0]) is bool
    json.dumps(d, allow_nan=False)
