import math

import numpy as np
import pytest

from isozonoid import transport
from isozonoid.cli import TRANSPORT_P_LIST
from isozonoid.errors import BoundViolationError, HypothesisFailedError
from isozonoid.transport import (cdf_rho_p, p2est_bound, phi_p,
                                 phi_p_derivatives, psi_p, psi_p_derivatives,
                                 rho_p, sf_rho_p, verify_derivative_box,
                                 verify_second_derivative_bounds)

from oracles import cdf_rho_p_quad, central_diff, erf_series

P_GRID = [1, 1.2, 1.5, 1.9, 2.1, 2.3, 2.7, 3, 5, 10, math.inf]


def test_rho_p_point_values():
    assert rho_p(2, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)
    assert rho_p(math.inf, 0.5) == 0.5
    assert rho_p(math.inf, 1.5) == 0.0
    assert rho_p(1, 0.0) == pytest.approx(0.5)      # Gamma(2) = 1


@pytest.mark.parametrize("p", [1, 1.7, 2, 2.3, 4, 9])
def test_rho_p_integrates_to_one(p):
    from scipy.integrate import quad

    val, _ = quad(lambda s: rho_p(p, s), -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_cdf_examples():
    for p in [1, 1.5, 2, 3, math.inf]:
        assert cdf_rho_p(p, 0.0) == pytest.approx(0.5)
    assert cdf_rho_p(math.inf, 0.5) == pytest.approx(0.75)
    # independent erf oracle (Maclaurin series)
    expected = (1.0 + erf_series(1.0)) / 2.0
    assert cdf_rho_p(2, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.3, 2.3, 4.0, 7.0])
@pytest.mark.parametrize("t", [-1.7, 0.3, 1.1, 2.5])
def test_cdf_against_quadrature_oracle(p, t):
    assert cdf_rho_p(p, t) == pytest.approx(cdf_rho_p_quad(p, t), abs=1e-12)


def test_cdf_sf_consistency():
    for p in [1, 2.3, 10]:
        for t in [0.1, 1.0, 2.0]:
            assert cdf_rho_p(p, t) + sf_rho_p(p, t) == pytest.approx(1.0, abs=1e-13)


def test_phi_2_is_identity():
    ts = np.linspace(-3, 3, 25)
    assert np.max(np.abs(phi_p(2, ts) - ts)) < 1e-11


def test_phi_inf_is_inverse_erf():
    from scipy.special import erf

    t = erf(0.5)
    assert phi_p(math.inf, t) == pytest.approx(0.5, abs=1e-14)
    for edge in (-1.0, 1.0):                # phi_inf lives on (-1, 1)
        with pytest.raises(ValueError):
            phi_p(math.inf, edge)


@pytest.mark.parametrize("p", [1, 1.5, 2.3, 3, 7])
def test_inverse_pair_composition(p):
    ts = np.linspace(-3, 3, 41)
    back = psi_p(p, phi_p(p, ts))
    assert np.max(np.abs(back - ts)) < 1e-9


def test_cdf_matching_residual_below_1e12():
    for p in [1, 1.5, 2.3, 3, 7]:
        for t in np.linspace(-2.5, 2.5, 21):
            lhs = cdf_rho_p(p, t)
            rhs = cdf_rho_p(2, phi_p(p, t))
            assert abs(lhs - rhs) < 1e-12


def test_oddness_and_monotonicity():
    ts = np.linspace(0.0, 2.5, 40)
    for p in [1, 1.9, 2.7, 10]:
        vals = phi_p(p, ts)
        assert np.allclose(phi_p(p, -ts), -vals, atol=1e-12)
        assert np.all(np.diff(vals) > 0)
        sals = psi_p(p, ts)
        assert np.allclose(psi_p(p, -ts), -sals, atol=1e-12)
        assert np.all(np.diff(sals) > 0)


def test_phi_derivative_examples():
    v, d1, d2 = phi_p_derivatives(2, 0.7)
    assert (v, d1, d2) == pytest.approx((0.7, 1.0, 0.0), abs=1e-11)
    # p = 1 one-sided limit at 0: Gamma(3/2)/Gamma(2) = sqrt(pi)/2
    _, d1, _ = phi_p_derivatives(1, 0.0)
    assert d1 == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-13)
    _, d1, _ = phi_p_derivatives(math.inf, 0.0)
    assert d1 == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-13)


def test_psi_derivative_examples():
    v, d1, d2 = psi_p_derivatives(2, -0.4)
    assert (v, d1, d2) == pytest.approx((-0.4, 1.0, 0.0), abs=1e-11)
    for t in [0.2, 0.9]:
        v, d1, d2 = psi_p_derivatives(math.inf, t)
        assert d1 == pytest.approx(2.0 / math.sqrt(math.pi) * math.exp(-t * t))
        assert d2 == pytest.approx(-2.0 * t * d1, rel=1e-12)


def test_reciprocal_rule():
    for p in [1, 1.5, 2.3, 7]:
        for t in [0.05, 0.2, 0.8]:
            v, d1, _ = phi_p_derivatives(p, t)
            _, s1, _ = psi_p_derivatives(p, v)
            assert s1 * d1 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [1, 1.2, 1.9, 2.1, 2.7, 5, 10])
def test_derivatives_match_finite_differences(p):
    for t in [0.02, 0.06, 0.11]:
        v, d1, d2 = phi_p_derivatives(p, t)
        fd1 = central_diff(lambda s: phi_p(p, s), t)
        assert d1 == pytest.approx(fd1, rel=1e-6)
        fd2 = central_diff(lambda s: phi_p_derivatives(p, s)[1], t)
        assert d2 == pytest.approx(fd2, rel=1e-5)
        w, s1, s2 = psi_p_derivatives(p, t)
        assert s1 == pytest.approx(central_diff(lambda s: psi_p(p, s), t), rel=1e-6)
        assert s2 == pytest.approx(
            central_diff(lambda s: psi_p_derivatives(p, s)[1], t), rel=1e-5)


def test_mass_transport_identity():
    for p in [1, 1.5, 2.3, 3, 7, math.inf]:
        grid = np.linspace(-2, 2, 65)
        if math.isinf(p):
            grid = np.linspace(-0.995, 0.995, 65)
        for t in grid:
            v, d1, _ = phi_p_derivatives(p, t)
            assert abs(rho_p(p, t) - rho_p(2, v) * d1) < 1e-9


@pytest.mark.parametrize("p", P_GRID)
def test_first_derivative_box(p):
    grid = np.linspace(0.0, 1.0 / 3.1, 129)
    rep = verify_derivative_box(p, grid)
    assert rep.worst_margin > -1e-13


@pytest.mark.parametrize("p", [q for q in P_GRID if q != 2])
def test_second_derivative_branches(p):
    grid = np.linspace(1e-4, 1.0 / 8 - 1e-9, 129)
    rep = verify_second_derivative_bounds(p, grid)
    assert rep.worst_margin > 0


def test_second_derivative_branch_examples():
    # p = 1: phi'' below -(1/48) t at t = 0.1
    d2 = phi_p_derivatives(1, 0.1)[2]
    assert d2 < -(1.0 / 48.0) * 0.1
    # p = inf: phi'' above 0.2 t^1.3 at t = 0.05
    d2 = phi_p_derivatives(math.inf, 0.05)[2]
    assert d2 > 0.2 * 0.05 ** 1.3
    # p = 2.5: psi'' below -(0.5/11) t^1.3 at t = 0.05
    d2 = psi_p_derivatives(2.5, 0.05)[2]
    assert d2 < -(0.5 / 11.0) * 0.05 ** 1.3


def test_tightened_first_derivative_box_raises(monkeypatch):
    # at p = 1.5, phi' and psi' span [0.896, 1.123] on the box grid, outside
    # (1/1.1, 1.1) on both sides
    monkeypatch.setattr(transport, "FIRST_DERIV_BOX", 1.1)
    grid = np.linspace(0.0, 1.0 / 3.1, 64)
    with pytest.raises(BoundViolationError) as err:
        verify_derivative_box(1.5, grid)
    assert err.value.witness in grid


def test_density_box_violation_raises():
    with pytest.raises(ValueError):
        verify_derivative_box(2, np.array([0.9]))      # grid outside [0, 1/3.1]


def test_p2est_examples():
    tau = 0.8
    for p in (1.5, 2.5):
        nu = p * tau ** (p - 2.0)          # f(tau) = 0 exactly
        f, bound, ok = p2est_bound(p, nu, tau, tau / 2.0)
        assert ok
        if p < 2:
            assert f < bound < 0
        else:
            assert f > bound > 0
    # near p = 2 the bound degenerates to ~0 and is non-binding
    p = 2.001
    nu = p * tau ** (p - 2.0)
    _, bound, ok = p2est_bound(p, nu, tau, tau / 2.0)
    assert ok and abs(bound) < 1e-2


def test_p2est_hypothesis_failure():
    with pytest.raises(HypothesisFailedError):
        p2est_bound(1.5, 100.0, 0.8, 0.4)   # f(tau) > 0 for p < 2


# worst margins on the grids of demos/03_transport_maps.py, which prints
# the first, pinned bit for bit
WORST_MARGINS = {
    1: (0.0, 0.6573986476741385),
    1.2: (0.011604397883491574, 0.1790106791978169),
    1.5: (0.010722895506889318, 0.01453525438715106),
    1.9: (0.0011219178228175641, 0.0002772062923600748),
    2.1: (5.967457469102655e-05, 0.00011637564172824552),
    2.3: (0.00020055948740294038, 0.00018526230437350405),
    2.7: (0.0023383130412358843, 0.00019663530699745406),
    3: (0.004665718362032556, 0.0001942054231705045),
    5: (0.016393521106834508, 0.00017858264947118784),
    10: (0.009406126615790683, 0.00016041306111432604),
    math.inf: (0.06458897922312556, 0.00013794628778295584),
}


@pytest.mark.parametrize("p", TRANSPORT_P_LIST)
def test_worst_margins_keep_their_bits(p):
    box, second = WORST_MARGINS[p]
    grid = np.linspace(0.0, 1.0 / 3.1, 257)
    grid2 = np.linspace(1e-4, 1.0 / 8 - 1e-9, 257)
    assert verify_derivative_box(p, grid).worst_margin == box
    assert verify_second_derivative_bounds(p, grid2).worst_margin == second
