import json
import math

import numpy as np
import pytest

from isozonoid.errors import InfeasibleWeightsError
from isozonoid.measures import (MERGE_ANGLE, AtomicMeasure, CapQuery,
                                _angle_table, _merge_close_atoms, _pair_indices,
                                cap_mass, check_isotropy,
                                equiangular_measure, isotropic_measure_from_directions,
                                measure_from_json, second_moment_matrix,
                                solve_isotropic_weights, sphere_angle, unit_vector)

from oracles import merge_close_atoms_loop, pair_indices_loop


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0])


def test_sphere_angle_stable_near_zero_and_pi():
    u = unit_vector([1.0, 0.0])
    assert sphere_angle(u, u) == 0.0
    assert sphere_angle(u, -u) == pytest.approx(np.pi, abs=1e-15)
    w = unit_vector([math.cos(1e-10), math.sin(1e-10)])
    assert sphere_angle(u, w) == pytest.approx(1e-10, rel=1e-6)


def test_second_moment_cross_is_identity(nu2):
    assert np.allclose(second_moment_matrix(nu2), np.eye(2), atol=1e-14)


def test_second_moment_hexagonal_identity(hexm):
    # direct 2x2 summation: sum of cos^2 over the six angles j*pi/3 is 3,
    # so with weights 1/3 the diagonal is 1 and the off-diagonal cancels
    assert np.allclose(second_moment_matrix(hexm), np.eye(2), atol=1e-14)


def test_second_moment_single_pair():
    mu = AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                       np.array([0.5, 0.5]), even=True)
    assert np.allclose(second_moment_matrix(mu), np.diag([1.0, 0.0]))


def test_check_isotropy_examples(nu3, hexm):
    rep = check_isotropy(nu3)
    assert rep.deviation <= 1e-14 and rep.is_isotropic
    assert rep.total_mass == pytest.approx(3.0)
    rep_hex = check_isotropy(hexm)
    assert rep_hex.deviation <= 1e-14
    assert rep_hex.total_mass == pytest.approx(2.0)
    pair = AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([0.5, 0.5]), even=True)
    rep_pair = check_isotropy(pair)
    assert rep_pair.deviation == pytest.approx(1.0)
    assert not rep_pair.is_isotropic


def test_trace_identity_invariant(rng):
    # is_isotropic forces |total_mass - n| <= n * deviation tolerance
    for _ in range(20):
        U = rng.standard_normal((7, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        try:
            mu = isotropic_measure_from_directions(np.vstack([U, -U]), even=True)
        except InfeasibleWeightsError:
            continue
        rep = check_isotropy(mu)
        assert abs(rep.total_mass - 2.0) <= 2.0 * max(rep.deviation, 1e-14)


def test_solve_weights_cross_pairs():
    dirs = np.vstack([np.eye(2), -np.eye(2)])
    w = solve_isotropic_weights(dirs, even=True)
    assert np.allclose(w, 0.5, atol=1e-12)


def test_solve_weights_hexagonal():
    ang = np.arange(6) * np.pi / 3
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = solve_isotropic_weights(dirs, even=True)
    assert np.allclose(w, 1.0 / 3.0, atol=1e-12)


def test_even_weights_are_one_float_per_pair(rng):
    # both atoms of a pair get the same float, so pruning zero weights never
    # splits a pair
    for n, npairs in [(2, 5), (3, 9)]:
        solved = 0
        for _ in range(20):
            U = rng.standard_normal((npairs, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            perm = rng.permutation(2 * npairs)
            dirs = np.vstack([U, -U])[perm]
            try:
                w = solve_isotropic_weights(dirs, even=True)
            except InfeasibleWeightsError:
                continue
            partner = np.argsort(perm)[(perm + npairs) % (2 * npairs)]
            assert np.array_equal(w, w[partner])
            mu = isotropic_measure_from_directions(dirs, even=True)
            assert mu.natoms == np.count_nonzero(w > 1e-12)
            solved += 1
        assert solved >= 5


def test_solve_weights_rank_deficient_infeasible():
    with pytest.raises(InfeasibleWeightsError):
        solve_isotropic_weights(np.array([[1.0, 0.0], [-1.0, 0.0]]), even=True)


def test_solve_weights_feeds_isotropy_below_1e10(rng):
    for n, npairs in [(2, 5), (3, 9)]:
        found = 0
        while found < 10:
            U = rng.standard_normal((npairs, n))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            try:
                mu = isotropic_measure_from_directions(np.vstack([U, -U]),
                                                       even=True)
            except InfeasibleWeightsError:
                continue
            found += 1
            assert check_isotropy(mu).deviation <= 1e-10


def test_cap_mass_examples(nu2):
    assert cap_mass(nu2, CapQuery([1.0, 0.0], np.pi / 3)) == pytest.approx(0.5)
    diag = unit_vector([1.0, 1.0])
    q = CapQuery(diag, np.pi / 4)
    assert cap_mass(nu2, q) == pytest.approx(1.0)           # boundary included
    assert cap_mass(nu2, q, open_cap=True) == pytest.approx(0.0)


def test_cap_mass_monotone_and_additive(hexm, rng):
    center = unit_vector(rng.standard_normal(2))
    radii = np.sort(rng.uniform(0.05, np.pi / 2, 6))
    masses = [cap_mass(hexm, CapQuery(center, r)) for r in radii]
    assert all(b >= a for a, b in zip(masses, masses[1:]))
    # disjoint caps add up
    m1 = cap_mass(hexm, CapQuery([1.0, 0.0], 0.3))
    m2 = cap_mass(hexm, CapQuery([-1.0, 0.0], 0.3))
    both = m1 + m2
    assert both == pytest.approx(2.0 / 3.0)


def test_atom_canonicalization_merges():
    u = unit_vector([1.0, 0.0])
    w = unit_vector([math.cos(5e-10), math.sin(5e-10)])
    mu = AtomicMeasure(2, np.array([u, w]), np.array([0.3, 0.2]))
    assert mu.natoms == 1
    assert mu.weights[0] == pytest.approx(0.5)


def _threshold_pairs(n, rng):
    """(u, w) pairs, u a signed coordinate vector, whose sphere_angle lies
    within an ulp of MERGE_ANGLE: w = u + h e_j (n = 2) or u + h1 e_j +
    h2 e_k (n = 3), h scanned over ulps, then both mapped by one random
    signed permutation (exact)."""
    ulp = np.spacing(MERGE_ANGLE)
    if n == 2:
        cands = [np.array([1.0, h]) for h in MERGE_ANGLE + ulp * np.arange(-2, 3)]
    else:
        cands = [np.array([1.0, h, 0.6 * MERGE_ANGLE])
                 for h in 0.8 * MERGE_ANGLE + ulp * np.arange(-64, 65)]
    pairs = []
    for w in cands:
        P = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
        u, w = P[:, 0].copy(), P @ w
        if abs(sphere_angle(u, w) - MERGE_ANGLE) <= ulp:
            pairs.append((u, w))
    return pairs


@pytest.mark.parametrize("n", [2, 3])
def test_pairs_and_merges_equal_the_scalar_loops(n):
    # the angle table decides every pair as the scalar sphere_angle does,
    # at the threshold too: pairs within an ulp of MERGE_ANGLE, both sides
    rng = np.random.default_rng(1092 + n)
    pairs = _threshold_pairs(n, rng)
    angles = [sphere_angle(u, w) for u, w in pairs]
    assert min(angles) < MERGE_ANGLE < max(angles)
    assert MERGE_ANGLE in angles or n == 3
    for _ in range(40):
        V = rng.normal(size=(int(rng.integers(1, 5)), n))
        rows = [V / np.linalg.norm(V, axis=1)[:, None]]
        for i in rng.choice(len(pairs), size=int(rng.integers(1, 4))):
            u, w = pairs[i]
            rows.append(np.array([u, w, -u, -w]))
        U = np.vstack(rows + [-rows[0]])
        U = U[rng.permutation(len(U))[:len(U) - int(rng.integers(0, 2))]]
        assert np.array_equal(
            _angle_table(U, -U),
            [[sphere_angle(a, -b) for b in U] for a in U])
        try:
            got = _pair_indices(U)
        except InfeasibleWeightsError:
            got = None
        assert got == pair_indices_loop(U, MERGE_ANGLE)
        c = rng.uniform(0.1, 1.0, size=len(U))
        mU, mc = _merge_close_atoms(U, c)
        oU, oc = merge_close_atoms_loop(U, c, MERGE_ANGLE)
        assert np.array_equal(mU, oU) and np.array_equal(mc, oc)


def test_evenness_validation_rejects_unpaired():
    with pytest.raises(ValueError, match="misses an antipodal atom"):
        AtomicMeasure(2, np.array([[1.0, 0.0], [0.0, 1.0]]),
                      np.array([0.5, 0.5]), even=True)
    with pytest.raises(ValueError, match="unequal antipodal weights"):
        AtomicMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      np.array([0.5, 0.4]), even=True)


def test_equiangular_is_isotropic():
    for m in (2, 3, 4, 6):
        mu = equiangular_measure(m)
        assert check_isotropy(mu).deviation <= 1e-12
        assert mu.total_mass == pytest.approx(2.0)


def test_json_round_trip(hexm):
    data = json.loads(hexm.dumps())
    back = measure_from_json(data)
    assert back.dim == 2 and back.even
    assert np.allclose(np.sort(back.weights), np.sort(hexm.weights))
    # the reader normalizes directions
    noisy = {"dim": 2, "even": False,
             "atoms": [{"u": [2.0, 0.0], "c": 1.0}]}
    mu = measure_from_json(json.dumps(noisy))
    assert np.allclose(mu.directions[0], [1.0, 0.0])
