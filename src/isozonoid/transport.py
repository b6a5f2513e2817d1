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
underflow (|t|^p > ~700) a log-domain asymptotic Newton solve takes over.
A safeguarded Newton polish on the CDF residual keeps the matching error
at the 1e-15 level wherever the residual is representable.
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


def cdf_rho_p(p, t):
    """CDF of rho_p; expressed through the regularized incomplete gamma.

    For finite p, cdf(t) = 1/2 (1 + sgn(t) P(1/p, |t|^p)); for p = 2 this is
    (1 + erf(t))/2, and for p = inf it is the clipped ramp (t+1)/2.
    """
    p = _check_p(p)
    t = np.asarray(t, dtype=float)
    if np.isinf(p):
        out = np.clip((t + 1.0) / 2.0, 0.0, 1.0)
    else:
        out = 0.5 + 0.5 * np.sign(t) * sp.gammainc(1.0 / p, np.abs(t) ** p)
    return out if out.ndim else float(out)


def sf_rho_p(p, t):
    """Upper-tail probability 1 - cdf, computed without cancellation for t > 0."""
    p = _check_p(p)
    t = np.asarray(t, dtype=float)
    if np.isinf(p):
        out = np.clip((1.0 - t) / 2.0, 0.0, 1.0)
    else:
        out = np.where(t >= 0,
                       0.5 * sp.gammaincc(1.0 / p, np.abs(t) ** p),
                       1.0 - 0.5 * sp.gammaincc(1.0 / p, np.abs(t) ** p))
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
# the maps


def _phi_scalar(p, t):
    if np.isinf(p):
        if abs(t) >= 1.0:
            raise ValueError("phi_inf is defined on (-1, 1)")
        return float(sp.erfinv(t))
    s, a = math.copysign(1.0, t), abs(t)
    if a == 0.0:
        return 0.0
    x = a ** p
    alpha = 1.0 / p
    if x > _LOG_SWITCH:
        return s * _erfc_inv_log(_log_upper_gamma_q(alpha, x))
    P = sp.gammainc(alpha, x)
    if P < _UPPER_SWITCH:
        y = float(sp.erfinv(P))
    else:
        y = float(sp.erfcinv(sp.gammaincc(alpha, x)))
    return s * _newton_polish_phi(p, a, y)


def _newton_polish_phi(p, t, y):
    # residual in survival form: (1/2)erfc(y) - sf_p(t), derivative -rho_2(y)
    for _ in range(3):
        r = 0.5 * sp.erfc(y) - 0.5 * sp.gammaincc(1.0 / p, t ** p)
        d = math.exp(-y * y) / math.sqrt(math.pi)
        if d == 0.0:
            break
        step = r / d
        if abs(step) > 0.1 * (1.0 + abs(y)):
            break
        y -= step
        if abs(step) < 1e-15 * (1.0 + abs(y)):
            break
    return y


def _psi_scalar(p, t):
    if np.isinf(p):
        return float(sp.erf(t))
    s, a = math.copysign(1.0, t), abs(t)
    if a == 0.0:
        return 0.0
    alpha = 1.0 / p
    if a * a > _LOG_SWITCH:
        return s * _gamma_q_inv_log(alpha, _log_erfc(a)) ** alpha
    E = sp.erf(a)
    if E < _UPPER_SWITCH:
        x = float(sp.gammaincinv(alpha, E))
    else:
        x = float(sp.gammainccinv(alpha, sp.erfc(a)))
    return s * _newton_polish_psi(p, a, x) ** alpha


def _newton_polish_psi(p, t, x):
    alpha = 1.0 / p
    for _ in range(3):
        r = 0.5 * sp.gammaincc(alpha, x) - 0.5 * sp.erfc(t)
        # d/dx Q(alpha, x) = -x^{alpha-1} e^{-x} / Gamma(alpha)
        logd = (alpha - 1.0) * math.log(x) - x - math.lgamma(alpha)
        if logd < -700.0:
            break
        d = 0.5 * math.exp(logd)
        step = r / d
        if abs(step) > 0.5 * x:
            break
        x -= step
        if abs(step) < 1e-15 * x:
            break
    return x


def phi_p(p, t):
    """Forward map rho_p -> rho_2 (vectorized)."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    out = np.array([_phi_scalar(p, ti) for ti in np.atleast_1d(arr)])
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def psi_p(p, t):
    """Inverse map rho_2 -> rho_p (vectorized)."""
    p = _check_p(p)
    arr = np.asarray(t, dtype=float)
    out = np.array([_psi_scalar(p, ti) for ti in np.atleast_1d(arr)])
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def phi_p_derivatives(p, t):
    """(phi, phi', phi'') at t; one-sided limits at t = 0 for p < 2."""
    p = _check_p(p)
    t = float(t)
    if np.isinf(p):
        if abs(t) >= 1.0:
            raise ValueError("phi_inf is defined on (-1, 1)")
        v = _phi_scalar(p, t)
        d1 = GAMMA_HALF * math.exp(v * v)
        d2 = 2.0 * v * d1 * d1
        return v, d1, d2
    a = abs(t)
    v = _phi_scalar(p, t)
    d1 = GAMMA_HALF / sp.gamma(1.0 + 1.0 / p) * math.exp(v * v - a ** p)
    if a == 0.0:
        pow_term = 1.0 if p == 1.0 else 0.0     # limit of p t^{p-1}
    else:
        pow_term = p * a ** (p - 1.0)
    d2 = (2.0 * abs(v) * d1 - pow_term) * d1
    if t < 0:
        d2 = -d2
    return v, d1, d2


def psi_p_derivatives(p, t):
    """(psi, psi', psi''); mirror of phi_p_derivatives."""
    p = _check_p(p)
    t = float(t)
    if np.isinf(p):
        v = float(sp.erf(t))
        d1 = 2.0 / math.sqrt(math.pi) * math.exp(-t * t)
        d2 = -2.0 * t * d1
        return v, d1, d2
    a = abs(t)
    v = _psi_scalar(p, t)
    d1 = sp.gamma(1.0 + 1.0 / p) / GAMMA_HALF * math.exp(abs(v) ** p - a * a)
    if abs(v) == 0.0:
        pow_term = 1.0 if p == 1.0 else 0.0
    else:
        pow_term = p * abs(v) ** (p - 1.0)
    d2 = (pow_term * d1 - 2.0 * a) * d1
    if t < 0:
        d2 = -d2
    return v, d1, d2


# ---------------------------------------------------------------------------
# verified bounds: each check is a sequence of rows (t, value, bound,
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
    for derivatives in (phi_p_derivatives, psi_p_derivatives):
        for t in grid:
            d = derivatives(p, t)[1]
            yield (t, d, FIRST_DERIV_BOX,
                   min(d - 1.0 / FIRST_DERIV_BOX, FIRST_DERIV_BOX - d))


def _density_rows(p, grid):
    """rho_p over grid in [1/(2e), 1/(2*0.8856)) (bound the upper edge)."""
    for s in grid:
        r = rho_p(p, s)
        yield s, r, DENSITY_HIGH, min(r - DENSITY_LOW,
                                      DENSITY_HIGH - r - 1e-300)


def _second_rows(p, grid, psi=False):
    """phi'' (psi'' with ``psi``) over grid against its branchwise bound."""
    derivatives, bound = ((psi_p_derivatives, second_derivative_bound_psi)
                          if psi else
                          (phi_p_derivatives, second_derivative_bound_phi))
    for t in grid:
        side, bnd = bound(p, t)
        d2 = derivatives(p, t)[2]
        yield t, d2, bnd, (bnd - d2) if side == "upper" else (d2 - bnd)


def _mass_rows(p, grid):
    """rho_p(t) (value) against rho_2(phi(t)) phi'(t) (bound), within 1e-9."""
    for t in grid:
        v, d1, _ = phi_p_derivatives(p, t)
        lhs, rhs = rho_p(p, t), rho_p(2, v) * d1
        yield t, lhs, rhs, 1e-9 - abs(lhs - rhs)


def _worst_margin(rows, what, holds=None):
    """The least margin of ``rows``.  Raises BoundViolationError, t its
    witness, at the first row whose margin is not positive or, with
    ``holds``, whose value fails ``holds``."""
    worst = np.inf
    for t, value, bound, margin in rows:
        worst = min(worst, margin)
        if not (margin > 0 if holds is None else holds(value)):
            raise BoundViolationError(
                f"{what} fails at t={t} (value {value}, bound {bound})",
                witness=t)
    return worst


def verify_derivative_box(p, grid, density_grid=None) -> BoundReport:
    """Check 1/3.1 < phi', psi' < 3.1 on grid in [0, 1/3.1] and the
    density box 1/(2e) <= rho_p < 1/(2*0.8856) on [0, 1]."""
    p = _check_p(p)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid > 1.0 / FIRST_DERIV_BOX + 1e-15):
        raise ValueError("grid must lie in [0, 1/3.1]")
    if density_grid is None:
        density_grid = np.linspace(0.0, 1.0, 257)
    # the lower density bound is attained (p = 1, s = 1): allow fp equality
    worst = min(_worst_margin(_box_rows(p, grid), "first-derivative box"),
                _worst_margin(_density_rows(p, density_grid), "density box",
                              lambda r: (DENSITY_LOW - 1e-14 <= r
                                         < DENSITY_HIGH)))
    return BoundReport(p=p, name="derivative-box", npoints=len(grid),
                       worst_margin=float(worst))


def second_derivative_bound_phi(p, t):
    """Required bound on phi'' at t in (0, 1/8), by branch of p."""
    if p < 2:
        return ("upper", -(2.0 - p) / 48.0 * t)
    if p <= 3:
        return ("lower", (p - 2.0) / 5.0 * t ** 1.3)
    return ("lower", 0.2 * t ** 1.3)


def second_derivative_bound_psi(p, t):
    """Required bound on psi'' at t in (0, 1/10), by branch of p."""
    if p < 2:
        return ("lower", (2.0 - p) / 16.0 * t)
    if p <= 3:
        return ("upper", -(p - 2.0) / 11.0 * t ** 1.3)
    return ("upper", -1.0 / 11.0 * t ** 1.3)


def verify_second_derivative_bounds(p, grid) -> BoundReport:
    """Branchwise sign bounds on phi'' (grid in (0,1/8)) and psi''
    (restricted to (0,1/10)); p = 2 is excluded (the constants vanish)."""
    p = _check_p(p)
    if p == 2.0:
        raise ValueError("p = 2 is the fixed point; bounds are vacuous")
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0) or np.any(grid >= 1.0 / 8):
        raise ValueError("grid must lie in (0, 1/8)")
    worst = min(_worst_margin(_second_rows(p, grid), "phi'' bound"),
                _worst_margin(_second_rows(p, grid[grid < 0.1], psi=True),
                              "psi'' bound"))
    return BoundReport(p=p, name="second-derivative", npoints=len(grid),
                       worst_margin=float(worst))


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
