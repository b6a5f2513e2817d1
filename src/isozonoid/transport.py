"""Monotone transport between exp(-|s|^p) densities and the Gaussian.

For p in [1, inf] let

    rho_p(s) = exp(-|s|^p) / (2 Gamma(1 + 1/p)),     rho_inf = (1/2) 1_[-1,1],

so rho_2(s) = pi^{-1/2} exp(-s^2).  The increasing maps phi_p (pushing
rho_p forward to rho_2) and psi_p = phi_p^{-1} are defined by CDF matching:

    int_{-inf}^t rho_p = int_{-inf}^{phi_p(t)} rho_2.

Both are odd.  Closed-form first and second derivatives follow by
differentiating the matching identity:

    phi'  = Gamma(3/2)/Gamma(1+1/p) * exp(phi^2 - t^p)          (t > 0)
    phi'' = (2 phi phi' - p t^{p-1}) phi'
    psi'  = Gamma(1+1/p)/Gamma(3/2) * exp(psi^p - t^2)
    psi'' = (p psi^{p-1} psi' - 2 t) psi'

and, for p = inf, phi_inf = erfinv on (-1,1) and psi_inf = erf.

Evaluation goes through regularized incomplete-gamma / erf inverses with
complementary-function branches in the upper tail; beyond double-precision
underflow (|t|^p > 690) a log-domain asymptotic Newton solve takes over.
A safeguarded Newton polish on the CDF residual keeps the matching error
at the 1e-15 level wherever the residual is representable.

The maps, their derivatives and the rows of every check take whole arrays:
each branch is chosen by mask on the scipy.special ufuncs, and the polish
is three masked Newton steps in which each element stops under its own
rule.  Only the log-domain solve runs element by element, on the elements
with |t|^p > 690 (phi) or t^2 > 690 (psi).  No verify grid reaches it;
``isozonoid transport --check mass`` on [-2, 2] does for p > log2(690),
about 9.43.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import BoundViolationError, HypothesisFailedError

GAMMA_HALF = math.gamma(1.5)            # sqrt(pi)/2
_LOG_SWITCH = 690.0                     # exponent beyond which tails underflow
_UPPER_SWITCH = 0.9                     # CDF level where complementary branch starts
_SQRT_PI = math.sqrt(math.pi)

FIRST_DERIV_BOX = 3.1                   # 1/3.1 < phi', psi' < 3.1 on [0, 1/3.1]
DENSITY_LOW = 1.0 / (2.0 * math.e)      # density box on [0, 1]
DENSITY_HIGH = 1.0 / (2.0 * 0.8856)


def _check_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("p must lie in [1, inf]")
    return p


def rho_p(p, s):
    """Density exp(-|s|^p)/(2 Gamma(1+1/p)); (1/2) on [-1,1] for p = inf."""
    p = _check_p(p)
    s = np.asarray(s, dtype=float)
    if np.isinf(p):
        out = np.where(np.abs(s) <= 1.0, 0.5, 0.0)
    else:
        out = np.exp(-np.abs(s) ** p) / (2.0 * sp.gamma(1.0 + 1.0 / p))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# log-domain asymptotics for the far tail


def _log_upper_gamma_q(a, x):
    """log Q(a, x) for large x via the divergent asymptotic series."""
    s, term = 1.0, 1.0
    for k in range(1, 8):
        term *= (a - k) / x
        if abs(term) < 1e-18:
            break
        s += term
    return -x + (a - 1.0) * math.log(x) - math.lgamma(a) + math.log(s)


def _log_erfc(y):
    """log erfc(y) for large y."""
    s, term = 1.0, 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) / (2.0 * y * y)
        if abs(term) < 1e-18:
            break
        s += term
    return -y * y - math.log(y * math.sqrt(math.pi)) + math.log(s)


def _erfc_inv_log(logq):
    """Solve log erfc(y) = logq by Newton, d(log erfc)/dy ~ -2y - 1/y."""
    y = math.sqrt(max(-logq, 1.0))
    for _ in range(60):
        f = _log_erfc(y) - logq
        step = f / (-2.0 * y - 1.0 / y)
        y -= step
        if abs(step) < 1e-15 * y:
            break
    return y


def _gamma_q_inv_log(a, logq):
    """Solve log Q(a, x) = logq for large x by Newton."""
    x = max(-logq, 2.0)
    for _ in range(60):
        f = _log_upper_gamma_q(a, x) - logq
        step = f / (-1.0 + (a - 1.0) / x)
        x -= step
        if abs(step) < 1e-15 * x:
            break
    return x


# ---------------------------------------------------------------------------
# the maps: one array path each, the branches chosen by mask


def _phi(p, t):
    """phi_p at every element of the 1-d float array t."""
    if np.isinf(p):
        if np.any(np.abs(t) >= 1.0):
            raise ValueError("phi_inf is defined on (-1, 1)")
        return sp.erfinv(t)
    a = np.abs(t)
    x = a ** p
    y = np.zeros_like(a)
    tail = x > _LOG_SWITCH
    y[tail] = [_erfc_inv_log(_log_upper_gamma_q(1.0 / p, xi))
               for xi in x[tail]]
    body = (a != 0.0) & ~tail
    xb = x[body]
    P, Q = sp.gammainc(1.0 / p, xb), sp.gammaincc(1.0 / p, xb)
    yb = sp.erfinv(P)
    upper = P >= _UPPER_SWITCH
    yb[upper] = sp.erfcinv(Q[upper])
    y[body] = _polish_phi(yb, 0.5 * Q)
    return np.where(t < 0, -y, y)


def _polish_phi(y, sf):
    """Three masked Newton steps on the survival residual (1/2)erfc(y) - sf,
    derivative -rho_2(y).  An element stops where rho_2(y) underflows, where
    the step exceeds 0.1 (1 + |y|) (not taken), or after a step below
    1e-15 (1 + |y|)."""
    live = np.arange(y.size)
    for _ in range(3):
        yl = y[live]
        d = np.exp(-yl * yl) / _SQRT_PI
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (0.5 * sp.erfc(yl) - sf[live]) / d
        take = (d != 0.0) & ~(np.abs(step) > 0.1 * (1.0 + np.abs(yl)))
        live, yl, step = live[take], yl[take] - step[take], step[take]
        y[live] = yl
        live = live[~(np.abs(step) < 1e-15 * (1.0 + np.abs(yl)))]
    return y


def _psi(p, t):
    """psi_p at every element of the 1-d float array t."""
    if np.isinf(p):
        return sp.erf(t)
    alpha = 1.0 / p
    a = np.abs(t)
    x = np.zeros_like(a)
    tail = a * a > _LOG_SWITCH
    x[tail] = [_gamma_q_inv_log(alpha, _log_erfc(ai)) for ai in a[tail]]
    body = (a != 0.0) & ~tail
    ab = a[body]
    E, C = sp.erf(ab), sp.erfc(ab)
    xb = sp.gammaincinv(alpha, E)
    upper = E >= _UPPER_SWITCH
    xb[upper] = sp.gammainccinv(alpha, C[upper])
    x[body] = _polish_psi(alpha, xb, 0.5 * C)
    y = x ** alpha
    return np.where(t < 0, -y, y)


def _polish_psi(alpha, x, sf):
    """Three masked Newton steps on (1/2)Q(alpha, x) - sf, where
    d/dx Q(alpha, x) = -x^{alpha-1} e^{-x} / Gamma(alpha).  An element stops
    where that derivative's log is below -700, where the step exceeds x/2
    (not taken), or after a step below 1e-15 x."""
    live = np.arange(x.size)
    lgamma = math.lgamma(alpha)
    for _ in range(3):
        xl = x[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = (alpha - 1.0) * np.log(xl) - xl - lgamma
            step = (0.5 * sp.gammaincc(alpha, xl) - sf[live]) / (
                0.5 * np.exp(logd))
        take = ~(logd < -700.0) & ~(np.abs(step) > 0.5 * xl)
        live, xl, step = live[take], xl[take] - step[take], step[take]
        x[live] = xl
        live = live[~(np.abs(step) < 1e-15 * xl)]
    return x


def _shaped(arr, *columns):
    """Columns evaluated on arr.ravel(), in arr's shape; floats for 0-d."""
    if arr.ndim == 0:
        return tuple(float(c[0]) for c in columns)
    return tuple(c.reshape(arr.shape) for c in columns)


def phi_p(p, t):
    """Forward map rho_p -> rho_2 at every element of t (a float for a
    scalar t)."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    return _shaped(arr, _phi(p, arr.ravel()))[0]


def psi_p(p, t):
    """Inverse map rho_2 -> rho_p at every element of t (a float for a
    scalar t)."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    return _shaped(arr, _psi(p, arr.ravel()))[0]


def phi_p_derivatives(p, t):
    """(phi, phi', phi'') at every element of t, floats for a scalar t;
    one-sided limits at t = 0 for p < 2."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    t = arr.ravel()
    v = _phi(p, t)
    if np.isinf(p):
        d1 = GAMMA_HALF * np.exp(v * v)
        return _shaped(arr, v, d1, 2.0 * v * d1 * d1)
    a = np.abs(t)
    d1 = GAMMA_HALF / sp.gamma(1.0 + 1.0 / p) * np.exp(v * v - a ** p)
    # p t^{p-1} is 1 at t = 0 for p = 1 (0^0) and 0 for p > 1
    d2 = (2.0 * np.abs(v) * d1 - p * a ** (p - 1.0)) * d1
    return _shaped(arr, v, d1, np.where(t < 0, -d2, d2))


def psi_p_derivatives(p, t):
    """(psi, psi', psi''); mirror of phi_p_derivatives."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    t = arr.ravel()
    v = _psi(p, t)
    if np.isinf(p):
        d1 = 2.0 / math.sqrt(math.pi) * np.exp(-t * t)
        return _shaped(arr, v, d1, -2.0 * t * d1)
    a, w = np.abs(t), np.abs(v)
    d1 = sp.gamma(1.0 + 1.0 / p) / GAMMA_HALF * np.exp(w ** p - a * a)
    d2 = (p * w ** (p - 1.0) * d1 - 2.0 * a) * d1
    return _shaped(arr, v, d1, np.where(t < 0, -d2, d2))


# ---------------------------------------------------------------------------
# verified bounds: each check is four arrays of rows (t, value, bound,
# margin), the margin negative where the value breaks its bound; the verify
# functions here and the ``transport`` subcommand read the same rows


@dataclass(frozen=True)
class BoundReport:
    """A check that held on every row: its verify function raises
    BoundViolationError at the first row that fails instead."""

    p: float
    name: str
    npoints: int
    worst_margin: float     # the least margin over the grid


def _box_rows(p, grid):
    """phi' over grid, then psi', in 1/3.1 < d < 3.1 (bound 3.1)."""
    d = np.concatenate([phi_p_derivatives(p, grid)[1],
                        psi_p_derivatives(p, grid)[1]])
    return (np.concatenate([grid, grid]), d, np.full_like(d, FIRST_DERIV_BOX),
            np.minimum(d - 1.0 / FIRST_DERIV_BOX, FIRST_DERIV_BOX - d))


def _density_rows(p, grid):
    """rho_p over grid in [1/(2e), 1/(2*0.8856)) (bound the upper edge)."""
    r = rho_p(p, grid)
    return (grid, r, np.full_like(r, DENSITY_HIGH),
            np.minimum(r - DENSITY_LOW, DENSITY_HIGH - r - 1e-300))


def _second_rows(p, grid, psi=False):
    """phi'' (psi'' with ``psi``) over grid against its branchwise bound;
    p = 2 has no bound to check."""
    if p == 2.0:
        raise ValueError("p = 2 is the fixed point; bounds are vacuous")
    derivatives, bound = ((psi_p_derivatives, second_derivative_bound_psi)
                          if psi else
                          (phi_p_derivatives, second_derivative_bound_phi))
    side, bnd = bound(p, grid)
    d2 = derivatives(p, grid)[2]
    return grid, d2, bnd, (bnd - d2) if side == "upper" else (d2 - bnd)


def _mass_rows(p, grid):
    """rho_p(t) (value) against rho_2(phi(t)) phi'(t) (bound), within 1e-9."""
    v, d1, _ = phi_p_derivatives(p, grid)
    lhs, rhs = rho_p(p, grid), rho_p(2, v) * d1
    return grid, lhs, rhs, 1e-9 - np.abs(lhs - rhs)


def _worst_margin(rows, what, holds=None):
    """The least margin of ``rows``.  Raises BoundViolationError, t its
    witness, at the first row whose margin is not positive or, with
    ``holds``, whose value fails ``holds``."""
    t, value, bound, margin = rows
    ok = margin > 0 if holds is None else holds(value)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise BoundViolationError(
            f"{what} fails at t={t[i]} (value {value[i]}, bound {bound[i]})",
            witness=t[i])
    return float(np.min(margin, initial=np.inf))


def verify_derivative_box(p, grid) -> BoundReport:
    """Check 1/3.1 < phi', psi' < 3.1 on grid in [0, 1/3.1] and the
    density box 1/(2e) <= rho_p < 1/(2*0.8856) on 257 points of [0, 1]."""
    p = _check_p(p)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid > 1.0 / FIRST_DERIV_BOX + 1e-15):
        raise ValueError("grid must lie in [0, 1/3.1]")
    density_grid = np.linspace(0.0, 1.0, 257)
    # the lower density bound is attained (p = 1, s = 1): allow fp equality
    worst = min(_worst_margin(_box_rows(p, grid), "first-derivative box"),
                _worst_margin(_density_rows(p, density_grid), "density box",
                              lambda r: ((DENSITY_LOW - 1e-14 <= r)
                                         & (r < DENSITY_HIGH))))
    return BoundReport(p=p, name="derivative-box", npoints=len(grid),
                       worst_margin=worst)


def second_derivative_bound_phi(p, t):
    """Required bound on phi'' at t in (0, 1/8), by branch of p: the side
    and the bound at every element of t."""
    if p < 2:
        return ("upper", -(2.0 - p) / 48.0 * t)
    if p <= 3:
        return ("lower", (p - 2.0) / 5.0 * t ** 1.3)
    return ("lower", 0.2 * t ** 1.3)


def second_derivative_bound_psi(p, t):
    """Required bound on psi'' at t in (0, 1/10); as the phi bound."""
    if p < 2:
        return ("lower", (2.0 - p) / 16.0 * t)
    if p <= 3:
        return ("upper", -(p - 2.0) / 11.0 * t ** 1.3)
    return ("upper", -1.0 / 11.0 * t ** 1.3)


def verify_second_derivative_bounds(p, grid) -> BoundReport:
    """Branchwise sign bounds on phi'' (grid in (0,1/8)) and psi''
    (restricted to (0,1/10)); p = 2 is excluded (the constants vanish)."""
    p = _check_p(p)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0) or np.any(grid >= 1.0 / 8):
        raise ValueError("grid must lie in (0, 1/8)")
    worst = min(_worst_margin(_second_rows(p, grid), "phi'' bound"),
                _worst_margin(_second_rows(p, grid[grid < 0.1], psi=True),
                              "psi'' bound"))
    return BoundReport(p=p, name="second-derivative", npoints=len(grid),
                       worst_margin=worst)


def p2est_bound(p, nu, tau, t):
    """Quantitative negativity of f(t) = nu t - p t^{p-1} past a sign change.

    With p in (1,3)\\{2}, nu > 0, tau in (0,1] and t in (0, tau/2]:
    if p < 2 and f(tau) <= 0 then f(t) < -(p(p-1)(2-p)/2^{4-p}) t^{p-1};
    if p > 2 and f(tau) >= 0 then f(t) >  (p(p-1)(p-2)/2^{4-p}) t^{p-1}.
    Returns (f(t), signed bound, pass).
    """
    p = float(p)
    if not (1.0 < p < 3.0) or p == 2.0:
        raise ValueError("p must lie in (1,3) minus {2}")
    if not (0.0 < tau <= 1.0 and 0.0 < t <= tau / 2.0 and nu > 0):
        raise ValueError("need nu > 0, tau in (0,1], t in (0, tau/2]")

    def f(x):
        return nu * x - p * x ** (p - 1.0)

    ftau = f(tau)
    slack = 1e-12 * max(1.0, nu * tau)      # roundoff slack at an exact zero
    if p < 2 and ftau > slack:
        raise HypothesisFailedError(f"f(tau) = {ftau} > 0 for p < 2")
    if p > 2 and ftau < -slack:
        raise HypothesisFailedError(f"f(tau) = {ftau} < 0 for p > 2")
    coeff = p * (p - 1.0) * abs(2.0 - p) / 2.0 ** (4.0 - p)
    if p < 2:
        bound = -coeff * t ** (p - 1.0)
        ok = f(t) < bound
    else:
        bound = coeff * t ** (p - 1.0)
        ok = f(t) > bound
    return float(f(t)), float(bound), bool(ok)
