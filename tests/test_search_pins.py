"""Search outputs pinned bit for bit.

The orbit and body searches are chaotic under rounding: one changed bit in
an objective or in a simplex step moves the winning start, the evaluation
count and the value.  The pins in ``data/search_pins.json`` were recorded
from an earlier implementation of the objectives and of the driver, and
every value here must match them exactly, so a rewrite that passes keeps
every search bit for bit.  The reviso JSON is pinned whole (reports carry
no runtime field).  The support-sandwich volumes of Z_p and Z*_p, which
the Theorem B value checks read, are pinned as well.  Rewrite the pins
only for a change that is meant to move the searches:

    PYTHONPATH=src python tests/test_search_pins.py

The body searches and the reviso JSON are computed in a child interpreter
with BLAS at one thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1), as the benchmark runs them, both here and
when recording: scipy's SLSQP, which searches delta_BM, takes different
iterates at one and at two BLAS threads on the same problem, though each
setting is deterministic.

The pins are tied to the numerical toolchain they were recorded with
(numpy 2.4.6 and scipy 1.17.1 on the OpenBLAS 0.3.31 of their wheels, an
x86-64 CPU): BLAS matmul order and kernel choice, libm's arcsin, Qhull and
numpy's reduction order all reach the last bit, and the searches amplify
it.  The delta_vol search takes scipy 1.17.1's BFGS steps on the
package's own port of scipy's line search (``metrics._dcsrch``), so a
scipy release that changes them fails ``test_bfgs_driver_equals_scipy_bfgs``
without moving these pins.
After a toolchain change a mismatch with no code change is expected;
re-record the pins by running the command above at the commit before the
code change, then check the code change against them.  Do not loosen the
comparison.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from isozonoid.bodies import cube_body
from isozonoid.cli import main
from isozonoid.harness import (john_normalize, perturbation_family,
                               random_even_isotropic, regular_polygon_body,
                               tilted_pair_measure, truncated_cube_body)
from isozonoid.metrics import (banach_mazur, hausdorff_to_cross,
                               volume_distance, wasserstein_to_cross)
from isozonoid.zonoids import zonoid_volumes

PINS = Path(__file__).parent / "data" / "search_pins.json"
SRC = Path(__file__).resolve().parent.parent / "src"
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}

# the reviso bodies, searched at the restarts of the benchmark's reviso
# workload: banach_mazur at 8 (n = 2) and 4 (n = 3), volume_distance at half
BODIES = [(2, "cube", None), (2, "cut", 0.1), (2, "cut", 0.25),
          (2, "hexagon", None), (3, "cut", 0.1)]
RESTARTS = {2: 8, 3: 4}
# the benchmark's quad-volume family: seeded RANDOM_ISOTROPIC measures on
# n(n + 1)/2 + 4 pairs, their Z_p and Z*_p sandwiched at p = 1.5
SANDWICH = {2: (3, 101), 3: (2, 103)}           # n -> (count, seed)


def _body(n, shape, param):
    if shape == "cube":
        return john_normalize(cube_body(n))[0]
    if shape == "hexagon":
        return john_normalize(regular_polygon_body(3))[0]
    return john_normalize(truncated_cube_body(n, param))[0]


def _pick(cert, keys):
    return {k: cert[k] for k in keys}


def orbit_outputs():
    rng = np.random.default_rng(20161)
    out = []
    for _ in range(3):
        X = random_even_isotropic(3, 10, rng).directions
        value, frame, cert = hausdorff_to_cross(X)
        out.append({"value": value, "frame": frame.tolist(),
                    "cert": _pick(cert, ("method", "starts", "best_start",
                                         "nfev"))})
    value, frame, cert = wasserstein_to_cross(tilted_pair_measure(3, 0.2))
    out.append({"value": value, "frame": frame.tolist(),
                "cert": _pick(cert, ("method", "starts", "best_start", "nfev",
                                     "dual_value", "lp_value"))})
    return out


def body_outputs():
    out = []
    for n, shape, param in BODIES:
        K, W = _body(n, shape, param), cube_body(n)
        bm, bm_cert = banach_mazur(K, W, restarts=RESTARTS[n])
        vol, vol_cert = volume_distance(K, W, restarts=RESTARTS[n] // 2)
        out.append({"body": [n, shape, param],
                    "banach_mazur": [bm, _pick(bm_cert, ("lambda", "best_start",
                                                         "nfev"))],
                    "volume_distance": [vol, _pick(vol_cert, ("best_start",
                                                              "nfev"))]})
    return out


def sandwich_outputs():
    out = []
    for n, (count, seed) in SANDWICH.items():
        npairs = n * (n + 1) // 2 + 4
        for mu in perturbation_family("RANDOM_ISOTROPIC", n, (count, npairs),
                                      seed=seed):
            out.append([r.to_json_dict() for r in zonoid_volumes(mu, 1.5)])
    return out


def reviso_rows():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reviso.json"
        code = main(["verify", "--suite", "reviso", "--out", str(out)])
        return [code, json.loads(out.read_text())]


ONE_THREAD_OUTPUTS = {"bodies": body_outputs, "verify_reviso": reviso_rows,
                      "sandwich": sandwich_outputs}


def one_thread_outputs(key):
    """``ONE_THREAD_OUTPUTS[key]()`` computed by this file run in a child
    interpreter with BLAS at one thread; it prints them as its last line."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, key], capture_output=True, text=True,
        check=True, timeout=600,
        env={**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path})
    return json.loads(child.stdout.splitlines()[-1])


def _pinned(key):
    return json.loads(PINS.read_text())[key]


def test_orbit_searches_pinned():
    assert orbit_outputs() == _pinned("orbit")


def test_body_searches_pinned():
    assert one_thread_outputs("bodies") == _pinned("bodies")


def test_verify_reviso_pinned():
    assert one_thread_outputs("verify_reviso") == _pinned("verify_reviso")


def test_sandwich_volumes_pinned():
    assert one_thread_outputs("sandwich") == _pinned("sandwich")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.stdout.write(json.dumps(ONE_THREAD_OUTPUTS[sys.argv[1]](),
                                    allow_nan=False) + "\n")
        sys.exit()
    pins = {"orbit": orbit_outputs()}
    pins.update((key, one_thread_outputs(key)) for key in ONE_THREAD_OUTPUTS)
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=1, allow_nan=False) + "\n")
    sys.stdout.write(f"wrote {PINS}\n")
