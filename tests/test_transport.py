import collections
import math
import re

import numpy as np
import pytest
from scipy import special as sp

from isozonoid import transport
from isozonoid.cli import TRANSPORT_P_LIST
from isozonoid.errors import BoundViolationError, HypothesisFailedError
from isozonoid.transport import (p2est_bound, phi_p, phi_p_derivatives,
                                 psi_p, psi_p_derivatives, rho_p,
                                 verify_derivative_box,
                                 verify_second_derivative_bounds)

from oracles import (box_rows_scalar, cdf_rho_p, cdf_rho_p_quad,
                     central_diff, density_rows_scalar, erf_series,
                     phi_derivatives_scalar, psi_derivatives_scalar,
                     second_rows_scalar, sf_rho_p, worst_margin_scalar)

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


# ---------------------------------------------------------------------------
# the array path against the scalar oracle


def _mixed(p, psi=False):
    """One array through every branch of phi_p (psi_p with ``psi``): t = 0,
    both signs, both sides of the complementary-branch switch and the
    log-domain tail."""
    if math.isinf(p):
        base = [1e-300, 0.3, 0.95, 0.999999] if not psi else [0.5, 1.2, 27.0]
    else:
        if psi:
            tail, upper = math.sqrt(transport._LOG_SWITCH), sp.erfinv(0.9)
        else:
            tail = transport._LOG_SWITCH ** (1.0 / p)
            upper = sp.gammaincinv(1.0 / p, 0.9) ** (1.0 / p)
        base = [1e-8, 0.05, 0.7, upper * (1 - 1e-9), upper * (1 + 1e-9), 2.5,
                tail * 1.01, tail * 1.5, tail * 4]
    base = np.array(base)
    return np.concatenate([[0.0], base, -base])


def _exponent(p, t, v, psi):
    """|E| of the exponential in phi' = C exp(E) (psi' likewise), and the
    tail mask: there an ulp of t^p (or psi^p) is many ulps of phi'."""
    a, w = np.abs(t), np.abs(v)
    if math.isinf(p):
        return (a * a if psi else w * w), np.zeros(t.shape, bool)
    if psi:
        return w ** p + a * a, a * a > transport._LOG_SWITCH
    return w * w + a ** p, a ** p > transport._LOG_SWITCH


def _ulps(got, want):
    return np.where(got == want, 0.0,
                    np.abs(got - want) / np.spacing(np.abs(want)))


@pytest.mark.parametrize("psi", [False, True])
@pytest.mark.parametrize("p", P_GRID + [2, 7])
def test_maps_and_derivatives_match_the_scalar_oracle(p, psi):
    # phi, psi, phi' and psi' within 4 ulp of the point-by-point oracle (the
    # maps within 1 ulp as measured).  In the log-domain tail phi' and psi'
    # meet 4 ulp times 1 + |E|, E the exponent: numpy's and libm's pow round
    # t^p ~ 1e3 differently in the last bit.  phi'' = (2 phi phi' - p t^{p-1})
    # phi' cancels, so it is held to 4 eps (1 + |E|) times the sum of the
    # magnitudes of its two terms; psi'' likewise.
    t = _mixed(p, psi)
    v, d1, d2 = (psi_p_derivatives if psi else phi_p_derivatives)(p, t)
    want = np.array([(psi_derivatives_scalar if psi else
                      phi_derivatives_scalar)(p, x) for x in t]).T
    assert np.all(_ulps(v, want[0]) <= 4)
    assert np.array_equal(v, (psi_p if psi else phi_p)(p, t))
    E, tail = _exponent(p, t, want[0], psi)
    assert np.all(_ulps(d1, want[1]) <= np.where(tail, 4 * (1 + E), 4))
    w, a = np.abs(want[0]), np.abs(t)
    if math.isinf(p):
        terms = 2 * a * want[1] if psi else 2 * w * want[1] * want[1]
    elif psi:
        terms = (p * w ** (p - 1) * want[1] + 2 * a) * want[1]
    else:
        terms = (2 * w * want[1] + p * a ** (p - 1)) * want[1]
    eps = np.finfo(float).eps
    assert np.all(np.abs(d2 - want[2]) <= 4 * eps * (1 + E) * terms)


@pytest.mark.parametrize("p", P_GRID + [2, 7])
def test_psi_inverts_phi_through_the_tails(p):
    t = _mixed(p)
    if not math.isinf(p):
        assert np.any(np.abs(phi_p(p, t)) ** 2 > transport._LOG_SWITCH)
    back = psi_p(p, phi_p(p, t))
    assert np.all(np.abs(back - t) <= 1e-13 * np.abs(t))


def test_scalar_and_zero_d_inputs_take_the_array_path():
    for p in (1.5, math.inf):
        for fn in (phi_p, psi_p):
            got = fn(p, 0.3)
            assert type(got) is float and got == fn(p, np.asarray(0.3))
            assert got == fn(p, np.array([0.3]))[0]
        out = phi_p_derivatives(p, 0.3)
        assert all(type(x) is float for x in out)
        assert out == tuple(c[0] for c in phi_p_derivatives(p, [0.3]))
    grid = np.linspace(-1, 1, 12).reshape(3, 4)
    assert psi_p(1.5, grid).shape == (3, 4)
    assert all(c.shape == (3, 4) for c in psi_p_derivatives(1.5, grid))


def _raised(check, *args):
    with pytest.raises(BoundViolationError) as err:
        check(*args)
    return err.value


def _same_failure(got, want):
    # the same first row: the check, t and witness exactly; value and bound
    # to the ulps the two paths may differ by
    pattern = r"(.*) fails at t=(\S+) \(value (\S+), bound (\S+)\)"
    g, w = (re.fullmatch(pattern, str(e)).groups() for e in (got, want))
    assert g[:2] == w[:2] and got.witness == want.witness
    for x, y in zip(g[2:], w[2:]):
        assert _ulps(float(x), float(y)) <= 32


def _box_failure_scalar(p, grid):
    worst_margin_scalar(box_rows_scalar(p, grid), "first-derivative box")
    worst_margin_scalar(density_rows_scalar(p, np.linspace(0.0, 1.0, 257)),
                        "density box",
                        lambda r: (transport.DENSITY_LOW - 1e-14 <= r
                                   < transport.DENSITY_HIGH))


def _second_failure_scalar(p, grid):
    worst_margin_scalar(second_rows_scalar(p, grid), "phi'' bound")
    worst_margin_scalar(second_rows_scalar(p, grid[grid < 0.1], psi=True),
                        "psi'' bound")


@pytest.mark.parametrize("p", [1.2, 1.5, 3, math.inf])
def test_box_checks_fail_at_the_scalar_first_row(p, monkeypatch):
    grid = np.linspace(0.0, 1.0 / 3.1, 64)
    with monkeypatch.context() as m:
        m.setattr(transport, "FIRST_DERIV_BOX", 1.05)
        _same_failure(_raised(verify_derivative_box, p, grid),
                      _raised(_box_failure_scalar, p, grid))
    # rho_p decreases on [0, 1] (rho_inf is flat): a lower edge just above
    # rho_p(0.6) fails past 0.6
    monkeypatch.setattr(transport, "DENSITY_LOW", float(rho_p(p, 0.6)) + 1e-9)
    got = _raised(verify_derivative_box, p, grid)
    assert str(got).startswith("density box")
    assert got.witness == 0 if math.isinf(p) else 0.6 < got.witness < 0.61
    _same_failure(got, _raised(_box_failure_scalar, p, grid))


@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 5])
@pytest.mark.parametrize("psi", [False, True])
def test_second_derivative_checks_fail_at_the_scalar_first_row(
        p, psi, monkeypatch):
    # the bound on phi'' (or on psi'' alone) scaled to meet the value at
    # t = 0.05, so that the check fails on one side of 0.05
    name = f"second_derivative_bound_{'psi' if psi else 'phi'}"
    real = getattr(transport, name)
    oracle = psi_derivatives_scalar if psi else phi_derivatives_scalar
    scale = oracle(p, 0.05)[2] / real(p, 0.05)[1]
    monkeypatch.setattr(transport, name,
                        lambda p, t: (real(p, t)[0], scale * real(p, t)[1]))
    grid = np.linspace(1e-4, 1.0 / 8 - 1e-9, 64)
    got = _raised(verify_second_derivative_bounds, p, grid)
    assert str(got).startswith("psi''" if psi else "phi''")
    _same_failure(got, _raised(_second_failure_scalar, p, grid))


@pytest.mark.parametrize("p", TRANSPORT_P_LIST)
def test_worst_margins_agree_with_the_scalar_rows(p):
    # the pinned margins below are the array path's; the point-by-point
    # rows give each within 2 ulp
    grid = np.linspace(0.0, 1.0 / 3.1, 257)
    grid2 = np.linspace(1e-4, 1.0 / 8 - 1e-9, 257)
    box = min(worst_margin_scalar(box_rows_scalar(p, grid), ""),
              worst_margin_scalar(density_rows_scalar(
                  p, np.linspace(0.0, 1.0, 257)), "", lambda r: True))
    second = min(worst_margin_scalar(second_rows_scalar(p, grid2), ""),
                 worst_margin_scalar(second_rows_scalar(
                     p, grid2[grid2 < 0.1], psi=True), ""))
    assert _ulps(verify_derivative_box(p, grid).worst_margin, box) <= 2
    assert _ulps(verify_second_derivative_bounds(p, grid2).worst_margin,
                 second) <= 2


SPECIAL = ("gammainc", "gammaincc", "gammaincinv", "gammainccinv", "erf",
           "erfc", "erfinv", "erfcinv")


def _special_calls(call_log, fn, p, t):
    with call_log(sp, *SPECIAL) as calls:
        fn(p, t)
    return collections.Counter(name for name, _ in calls)


@pytest.mark.parametrize("p", [1, 1.5, 3, math.inf])
@pytest.mark.parametrize("fn", [phi_p, psi_p, phi_p_derivatives,
                                psi_p_derivatives])
def test_maps_call_scipy_special_once_per_array(call_log, fn, p):
    # as many scipy.special calls on 10 points as on 10,000: no point loop
    lim = 0.999 if math.isinf(p) else 3.0
    small = _special_calls(call_log, fn, p, np.linspace(-lim, lim, 10))
    assert small
    assert small == _special_calls(call_log, fn, p,
                                   np.linspace(-lim, lim, 10_000))


def test_verify_functions_call_scipy_special_once_per_grid(call_log):
    for size in (10, 1000):
        box = _special_calls(call_log, verify_derivative_box, 1.5,
                             np.linspace(0.0, 1.0 / 3.1, size))
        second = _special_calls(call_log, verify_second_derivative_bounds,
                                1.5, np.linspace(1e-4, 0.12, size))
        if size == 10:
            small = (box, second)
    assert small == (box, second)


def test_the_call_counter_catches_a_point_loop(call_log):
    def looping_phi(p, t):
        return np.array([phi_p(p, x) for x in t])

    assert (_special_calls(call_log, looping_phi, 1.5, np.linspace(-3, 3, 10))
            != _special_calls(call_log, looping_phi, 1.5,
                              np.linspace(-3, 3, 40)))


# worst margins on the grids of demos/03_transport_maps.py, which prints
# the first, pinned bit for bit.  The p = 2.1 second-derivative margin was
# 0.00011637564172824552 when psi'' was evaluated point by point; numpy's
# array pow rounds psi(1e-4) one ulp off libm's, which moves it by one ulp.
WORST_MARGINS = {
    1: (0.0, 0.6573986476741385),
    1.2: (0.011604397883491574, 0.1790106791978169),
    1.5: (0.010722895506889318, 0.01453525438715106),
    1.9: (0.0011219178228175641, 0.0002772062923600748),
    2.1: (5.967457469102655e-05, 0.00011637564172824553),
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
