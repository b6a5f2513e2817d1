import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isozonoid import ballbarthe
from isozonoid.ballbarthe import (DecompositionSystem, ball_inequality,
                                  random_decomposition_system, subset_expansion,
                                  theta_star, vector_estimate, xab_gap)
from isozonoid.errors import KTooSmallError


def hexagonal_system():
    ang = np.arange(3) * np.pi / 3
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return DecompositionSystem.from_isotropic(U, np.full(3, 2.0 / 3.0))


def test_system_validates_identity():
    with pytest.raises(ValueError):
        DecompositionSystem(np.eye(2) * 1.01)
    sys_ = DecompositionSystem(np.eye(3))
    assert sys_.k == 3 and sys_.dim == 3


def test_subset_expansion_orthonormal():
    sys_ = DecompositionSystem(np.eye(3))
    t = np.array([2.0, 3.0, 5.0])
    det, t0, terms = subset_expansion(sys_, t)
    assert det == pytest.approx(30.0)
    assert len(terms) == 1 and terms[(0, 1, 2)] == pytest.approx(30.0)
    assert t0 == pytest.approx(math.sqrt(30.0))


def test_cauchy_binet_at_identity():
    sys_ = hexagonal_system()
    det, t0, terms = subset_expansion(sys_, np.ones(3))
    assert det == pytest.approx(1.0, abs=1e-12)
    assert sum(terms.values()) == pytest.approx(1.0, abs=1e-12)


def test_cauchy_binet_random_t(rng):
    sys_ = hexagonal_system()
    for _ in range(20):
        t = np.exp(rng.normal(size=3))
        det, t0, terms = subset_expansion(sys_, t)
        assert det == pytest.approx(sum(terms.values()), rel=1e-10)


def test_ball_inequality_orthonormal_equality():
    sys_ = DecompositionSystem(np.eye(2))
    lhs, rhs, ok = ball_inequality(sys_, np.array([3.0, 7.0]))
    assert ok and lhs == pytest.approx(rhs)


def test_ball_inequality_hexagonal_strict():
    lhs, rhs, ok = ball_inequality(hexagonal_system(), np.array([1.0, 2.0, 3.0]))
    assert ok and lhs > rhs * (1.0 + 1e-6)


def test_ball_inequality_random_sweep(rng):
    for _ in range(200):
        n = int(rng.integers(2, 4))
        sys_ = random_decomposition_system(n, int(rng.integers(2, 4)), rng)
        t = np.exp(rng.normal(size=sys_.k))
        lhs, rhs, ok = ball_inequality(sys_, t)
        assert ok


def test_theta_star_equal_weights_is_one():
    sys_ = hexagonal_system()
    theta, ok = theta_star(sys_, np.full(3, 2.5))
    assert theta == pytest.approx(1.0, abs=1e-12)
    assert ok


def test_theta_star_strict_gap():
    theta, ok = theta_star(hexagonal_system(), np.array([1.0, 4.0, 1.0]))
    assert theta > 1.0 + 1e-6
    assert ok


def test_theta_star_random_sweep(rng):
    for _ in range(200):
        n = int(rng.integers(2, 4))
        sys_ = random_decomposition_system(n, int(rng.integers(2, 5)), rng)
        t = np.exp(rng.normal(size=sys_.k))
        theta, ok = theta_star(sys_, t)
        assert theta >= 1.0 - 1e-12
        assert ok
        # theta* = 1 strengthening implies the plain inequality
        lhs, rhs, plain = ball_inequality(sys_, t)
        assert plain


def test_theta_star_enumerates_the_minors_once(monkeypatch, rng):
    # bit-equal to the formula over subset_expansion's t_0 and a second
    # enumeration of the minors, from one enumeration
    real = ballbarthe._subset_det_squares
    calls = []
    for _ in range(20):
        n = int(rng.integers(2, 4))
        sys_ = random_decomposition_system(n, int(rng.integers(2, 4)), rng)
        t = np.exp(rng.normal(size=sys_.k))
        _, t0, _ = subset_expansion(sys_, t)
        acc = [d2 * (math.sqrt(float(np.prod(t[list(S)]))) / t0 - 1.0) ** 2
               for S, d2 in real(sys_.vectors).items()]
        with monkeypatch.context() as m:
            m.setattr(ballbarthe, "_subset_det_squares",
                      lambda V: calls.append(1) or real(V))
            theta, _ = theta_star(sys_, t)
        assert theta == 1.0 + 0.5 * math.fsum(acc)
    assert len(calls) == 20


def test_random_frames_are_ortho_group_draws():
    # the inlined QR draw is scipy's ortho_group.rvs, bit for bit
    from scipy.stats import ortho_group

    for seed in range(50):
        for n, nframes in ((2, 3), (3, 2)):
            got = random_decomposition_system(
                n, nframes, np.random.default_rng(seed)).vectors
            rng = np.random.default_rng(seed)
            coeffs = rng.dirichlet(np.ones(nframes))
            want = np.vstack([math.sqrt(c) * ortho_group.rvs(n, random_state=rng)
                              for c in coeffs])
            assert np.array_equal(got, want)


def test_theta_star_needs_k_at_least_n_plus_one():
    with pytest.raises(KTooSmallError):
        theta_star(DecompositionSystem(np.eye(3)), np.ones(3))


def test_scale_covariance(rng):
    sys_ = hexagonal_system()
    t = np.exp(rng.normal(size=3))
    lam = 3.7
    det1, _, _ = subset_expansion(sys_, t)
    det2, _, _ = subset_expansion(sys_, lam * t)
    assert det2 == pytest.approx(lam ** 2 * det1, rel=1e-12)
    _, ok1 = theta_star(sys_, t)
    _, ok2 = theta_star(sys_, lam * t)
    assert ok1 == ok2


def test_xab_examples():
    lhs, rhs, ok = xab_gap(1.0, 1.0, 0.37)
    assert rhs == 0.0 and ok
    lhs, rhs, ok = xab_gap(2.0, 1.0, 0.5)
    assert lhs == pytest.approx(0.25)
    assert rhs == pytest.approx(9.0 / 50.0)
    assert ok


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_xab_property(a, b, x):
    lhs, rhs, ok = xab_gap(a, b, x)
    assert ok


def test_vector_estimate_orthonormal_equality():
    U = np.eye(3)
    lhs, rhs, ok = vector_estimate(U, np.ones(3), np.array([1.0, -2.0, 0.5]))
    assert ok and lhs == pytest.approx(rhs)


def test_vector_estimate_hexagonal():
    ang = np.arange(6) * np.pi / 3
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    c = np.full(6, 1.0 / 3.0)
    th = np.zeros(6)
    th[0] = 1.0
    lhs, rhs, ok = vector_estimate(U, c, th)
    assert ok and lhs == pytest.approx((1.0 / 3.0) ** 2) and rhs == pytest.approx(1.0 / 3.0)


def test_vector_estimate_random(rng):
    ang = np.arange(6) * np.pi / 3
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    c = np.full(6, 1.0 / 3.0)
    for _ in range(100):
        th = rng.normal(size=6)
        _, _, ok = vector_estimate(U, c, th)
        assert ok
