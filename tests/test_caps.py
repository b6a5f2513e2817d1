import math

import numpy as np
import pytest

from isozonoid.caps import (beta_dr, cap_dichotomy, dense_subcap_bound,
                            dvoretzky_rogers_caps, find_dense_subcap,
                            perturbed_determinant_bound,
                            verify_isotropic_cap_bound)
from isozonoid.errors import (NotIsotropicError, PreconditionViolatedError)
from isozonoid.harness import random_even_isotropic, split_cluster_measure
from isozonoid.measures import (AtomicMeasure, cap_mass, cross_measure,
                                equiangular_measure, unit_vector)


def test_beta_values():
    assert beta_dr(2) == pytest.approx(2.0 ** -3 * 2.0 ** -1.5)           # ~0.0442
    assert beta_dr(3) == pytest.approx(2.0 ** -4 * 3.0 ** -2)             # 1/144


def test_cap_bound_example_cross(nu2):
    lhs, rhs, ok = verify_isotropic_cap_bound(nu2, [1.0, 0.0], np.pi / 3)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(0.5)
    assert ok


def test_cap_bound_vacuous_when_cos_large(nu2):
    # cos(alpha) >= 1/sqrt(n) makes the right side nonpositive
    alpha = math.acos(1.0 / math.sqrt(2.0)) - 0.05
    lhs, rhs, ok = verify_isotropic_cap_bound(nu2, unit_vector([2.0, 1.0]), alpha)
    assert rhs <= 0 and ok


def test_cap_bound_hexagonal(hexm):
    lhs, rhs, ok = verify_isotropic_cap_bound(hexm, [1.0, 0.0], 0.6)
    assert ok and lhs >= rhs


def test_cap_bound_requires_isotropy():
    mu = AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([0.5, 0.5]), even=True)
    with pytest.raises(NotIsotropicError):
        verify_isotropic_cap_bound(mu, [0.0, 1.0], 0.5)


def test_cap_bound_random_sweep(rng):
    for _ in range(100):
        mu = random_even_isotropic(2, 5, rng)
        v = unit_vector(rng.standard_normal(2))
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        _, _, ok = verify_isotropic_cap_bound(mu, v, alpha)
        assert ok


def test_find_dense_subcap_single_atom(nu2):
    v = find_dense_subcap(nu2, np.array([1.0, 0.0]), 1.0, 0.5)
    assert np.allclose(v, [1.0, 0.0], atol=1e-9)
    got = cap_mass(nu2, v, 0.5)
    assert got >= dense_subcap_bound(nu2, [1.0, 0.0], 1.0, 0.5)
    assert got == pytest.approx(0.5)


def test_find_dense_subcap_uniform_circle(rng):
    mu = equiangular_measure(6)
    for _ in range(10):
        p = unit_vector(rng.standard_normal(2))
        v = find_dense_subcap(mu, p, 1.2, 0.3)
        assert float(v @ p) >= math.cos(1.2) - 1e-9
        inter = (cap_mass(mu, v, 0.3)
                 if True else 0.0)
        assert inter >= dense_subcap_bound(mu, p, 1.2, 0.3) - 1e-12


def test_find_dense_subcap_empty_cap(nu2):
    p = unit_vector([1.0, 1.0])
    v = find_dense_subcap(nu2, p, 0.2, 0.1)      # no atoms within 0.2 of p
    assert np.allclose(v, p)


def test_perturbed_determinant_identity():
    lhs, rhs, ok = perturbed_determinant_bound(np.eye(3), np.zeros((3, 3)))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(0.5) and ok


def test_perturbed_determinant_random(rng):
    for _ in range(50):
        s = rng.standard_normal((2, 2))
        s = s / np.linalg.norm(s, axis=1, keepdims=True) / 8.0
        lhs, rhs, ok = perturbed_determinant_bound(np.eye(2), s)
        assert ok


def test_perturbed_determinant_near_degenerate(rng):
    b = np.array([[1.0, 0.0], [1.0, 1e-3]])       # det = 1e-3
    b[1] /= np.linalg.norm(b[1])
    det = abs(np.linalg.det(b))
    cap = det / 8.0
    for _ in range(20):
        s = rng.standard_normal((2, 2))
        s = s / np.linalg.norm(s, axis=1, keepdims=True) * cap
        lhs, rhs, ok = perturbed_determinant_bound(b, s)
        assert ok


def test_perturbed_determinant_precondition():
    with pytest.raises(PreconditionViolatedError):
        perturbed_determinant_bound(np.eye(2), np.eye(2))


def test_dr_caps_cross(nu2, nu3):
    V, beta = dvoretzky_rogers_caps(nu2)
    assert beta == pytest.approx(beta_dr(2))
    assert abs(np.linalg.det(V)) >= 8.0 * beta - 1e-12
    for v in V:
        assert cap_mass(nu2, v, beta) >= beta ** 2 - 1e-12
    V3, b3 = dvoretzky_rogers_caps(nu3)
    assert abs(np.linalg.det(V3)) >= 12.0 * b3 - 1e-12


def test_dr_caps_hexagonal(hexm):
    V, beta = dvoretzky_rogers_caps(hexm)
    assert abs(np.linalg.det(V)) >= 8.0 * beta - 1e-12
    for v in V:
        assert cap_mass(hexm, v, beta) >= beta ** 2 - 1e-12


def test_dr_caps_atom_determinant_conclusion(rng):
    # any atoms inside the caps keep |det| >= 2 n beta
    for _ in range(20):
        mu = random_even_isotropic(2, 5, rng)
        V, beta = dvoretzky_rogers_caps(mu)
        choices = []
        for v in V:
            atoms = mu.directions[(mu.directions @ v) >= math.cos(beta) - 1e-12]
            assert len(atoms)
            choices.append(atoms)
        for a0 in choices[0]:
            for a1 in choices[1]:
                assert abs(np.linalg.det(np.array([a0, a1]))) >= 4.0 * beta - 1e-9


def test_cap_dichotomy_point_mass(nu2):
    beta = beta_dr(2)
    v = unit_vector([0.9999, 0.01])
    res = cap_dichotomy(nu2, v, beta, beta / 3.0)
    assert res.branch == "concentrated"
    assert np.allclose(res.q, [1.0, 0.0], atol=1e-9)


def test_cap_dichotomy_split_cluster():
    beta = beta_dr(2)
    mu = split_cluster_measure(2)
    eta = beta / 2.0
    res = cap_dichotomy(mu, np.array([1.0, 0.0]), beta, eta)
    assert res.branch == "split"
    a1 = mu.directions[res.psi1]
    a2 = mu.directions[res.psi2]
    assert np.min(np.linalg.norm(a1[:, None] - a2[None, :], axis=2)) >= \
        eta / math.sqrt(2.0) - 1e-12
    assert mu.weights[res.psi1].sum() >= beta ** 2 / 8.0 - 1e-12
    assert mu.weights[res.psi2].sum() >= beta ** 2 / 8.0 - 1e-12


def test_cap_dichotomy_postcondition_audit(rng):
    # returned branch always satisfies its mass/separation contract
    checked = 0
    for _ in range(100):
        mu = random_even_isotropic(2, 6, rng)
        V, beta = dvoretzky_rogers_caps(mu)
        eta = beta * rng.uniform(0.2, 0.9)
        res = cap_dichotomy(mu, V[0], beta, eta)   # verification is built in
        checked += 1
        assert res.branch in ("concentrated", "split")
    assert checked == 100


def test_cap_dichotomy_precondition():
    nu = cross_measure(2)
    beta = beta_dr(2)
    with pytest.raises(PreconditionViolatedError):
        cap_dichotomy(nu, np.array([1.0, 0.0]), beta, beta * 2.0)
