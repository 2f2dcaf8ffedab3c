"""Exponential-family likelihoods on the canonical scale, plus the
log-concave censored-normal survival likelihood.

Each family carries the cumulant ``b`` with its first two derivatives,
computed together from one transcendental pass, the dispersion terms
``c(y, phi)`` with their phi derivatives, and the canonical link.
:func:`grad_hess` returns the negative log-likelihood with its gradient and
Hessian, the convention used by the minimizers; the survival helpers return
the log-likelihood itself and its derivatives with signs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateResponse, NoConvergence, NotConcave
from .numerics import gammaln, logit

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class FamilySpec:
    """Callable bundle defining one likelihood family."""

    kind: str
    phi_known: bool
    phi: Optional[float]
    # (b, b', b'') at the canonical parameter u, as new arrays; a family
    # whose b, b' and b'' are equal (poisson) returns one array three times,
    # which lets a stacked `la` pass take their sums from one product
    cumulant: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    c: Callable[[np.ndarray, float], np.ndarray]
    c_dphi: Callable[[np.ndarray, float], np.ndarray]
    c_dphi2: Callable[[np.ndarray, float], np.ndarray]
    link: Callable[[float], float]


def _zeros_like_y(y, phi):
    return np.zeros_like(np.asarray(y, dtype=np.float64))


def _logistic_cumulant(u):
    # b, b' and b'' of log(1 + e^u) from the one exponential e = e^-|u|:
    # b = max(u, 0) + log1p(e), b' = 1/(1 + e) where u >= 0 and e/(1 + e)
    # elsewhere, b'' = e/(1 + e)^2.  Computed in place, so that at most four
    # arrays of the size of u (the three results and 1/(1 + e)) are alive.
    e = np.abs(u, out=np.empty(np.shape(u)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    inv = np.add(e, 1.0, out=np.empty_like(e))
    np.divide(1.0, inv, out=inv)
    bp = np.multiply(e, inv, out=np.empty_like(e))
    b = np.log1p(e, out=e)
    np.add(b, u, out=b, where=u > 0.0)
    bpp = np.multiply(bp, inv, out=np.empty_like(e))
    np.copyto(bp, inv, where=u >= 0.0)
    return b, bp, bpp


def logistic() -> FamilySpec:
    return FamilySpec(
        kind="logistic",
        phi_known=True,
        phi=1.0,
        cumulant=_logistic_cumulant,
        c=_zeros_like_y,
        c_dphi=_zeros_like_y,
        c_dphi2=_zeros_like_y,
        link=logit,
    )


def _poisson_cumulant(u):
    e = np.exp(u)
    return e, e, e


def poisson() -> FamilySpec:
    return FamilySpec(
        kind="poisson",
        phi_known=True,
        phi=1.0,
        cumulant=_poisson_cumulant,
        c=lambda y, phi: -gammaln(np.asarray(y) + 1.0),
        c_dphi=_zeros_like_y,
        c_dphi2=_zeros_like_y,
        link=np.log,
    )


def _gaussian_c(y, phi):
    y = np.asarray(y, dtype=np.float64)
    return -0.5 * y * y / phi - 0.5 * np.log(2.0 * np.pi * phi)


def _gaussian_c_dphi(y, phi):
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * y * y / phi**2 - 0.5 / phi


def _gaussian_c_dphi2(y, phi):
    y = np.asarray(y, dtype=np.float64)
    return -y * y / phi**3 + 0.5 / phi**2


def _gaussian_cumulant(u):
    return 0.5 * np.square(u), u, np.ones_like(u)


def _gaussian_spec(phi_known: bool, phi: Optional[float]) -> FamilySpec:
    return FamilySpec(
        kind="gaussian",
        phi_known=phi_known,
        phi=phi,
        cumulant=_gaussian_cumulant,
        c=_gaussian_c,
        c_dphi=_gaussian_c_dphi,
        c_dphi2=_gaussian_c_dphi2,
        link=lambda mu: mu,
    )


def gaussian(phi: float = 1.0) -> FamilySpec:
    """Gaussian with known error variance ``phi``."""
    if not phi > 0.0:
        raise ValueError("phi must be positive")
    return _gaussian_spec(phi_known=True, phi=float(phi))


def gaussian_unknown() -> FamilySpec:
    """Gaussian with unknown error variance (phi treated as a parameter)."""
    return _gaussian_spec(phi_known=False, phi=None)


def _resolve_phi(family: FamilySpec, phi: Optional[float]) -> float:
    if phi is not None:
        if not phi > 0.0:
            raise ValueError("phi must be positive")
        return float(phi)
    if family.phi is None:
        raise ValueError(f"{family.kind} with unknown dispersion needs phi")
    return float(family.phi)


def loglik(
    family: FamilySpec, eta: np.ndarray, y: np.ndarray, phi: Optional[float] = None
) -> float:
    """Log-likelihood at linear predictor ``eta``; -inf on overflow."""
    phi = _resolve_phi(family, phi)
    eta = np.asarray(eta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        bsum = float(np.sum(family.cumulant(eta)[0]))
    if not np.isfinite(bsum):
        return -np.inf
    return (float(y @ eta) - bsum) / phi + float(np.sum(family.c(y, phi)))


def grad_hess(
    family: FamilySpec,
    Z: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    phi: Optional[float] = None,
    c_sum: Optional[float] = None,
):
    """Negative log-likelihood with its gradient and Hessian, in one pass.

    Takes one product ``Z @ beta``, one evaluation of the cumulant and its
    derivatives, one ``Z' r`` and one weighted Gram.  ``c_sum`` is the
    response-only term ``sum c(y, phi)`` when the caller has it at hand.
    For a known-dispersion family the derivatives are over beta alone.  For
    an unknown-dispersion family ``phi`` gives the evaluation point and the
    derivatives cover ``(beta, phi)`` with phi last.  An overflowing
    cumulant gives the value inf with NaN derivatives.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    phi_val = _resolve_phi(family, phi)
    eta = Z @ beta
    with np.errstate(over="ignore"):
        b, bp, bpp = family.cumulant(eta)
        bsum = float(np.sum(b))
    d = Z.shape[1] + (not family.phi_known)
    if not np.isfinite(bsum):
        return np.inf, np.full(d, np.nan), np.full((d, d), np.nan)
    if c_sum is None:
        c_sum = float(np.sum(family.c(y, phi_val)))
    kernel = float(y @ eta) - bsum
    value = -(kernel / phi_val + c_sum)
    ztr = Z.T @ (y - bp)
    g_beta = -ztr / phi_val
    h_bb = (Z.T * bpp) @ Z / phi_val
    if family.phi_known:
        return value, g_beta, h_bb
    # joint (beta, phi) curvature for the dispersion-unknown case
    g_phi = kernel / phi_val**2 - float(np.sum(family.c_dphi(y, phi_val)))
    h_pp = -2.0 * kernel / phi_val**3 - float(np.sum(family.c_dphi2(y, phi_val)))
    p = d - 1
    grad = np.empty(d)
    grad[:p] = g_beta
    grad[p] = g_phi
    hess = np.empty((d, d))
    hess[:p, :p] = h_bb
    hess[:p, p] = hess[p, :p] = ztr / phi_val**2
    hess[p, p] = h_pp
    return value, grad, hess


def phi0_mle(family: FamilySpec, y: np.ndarray, nu0: float = 0.0) -> float:
    """Dispersion maximizing the likelihood with the predictor pinned at nu0:
    the mean square of ``y - nu0`` for the gaussian, the one family whose
    dispersion may be unknown; any other unknown one raises ``ValueError``."""
    if family.phi_known:
        return float(family.phi)
    if family.kind != "gaussian":
        raise ValueError("an unknown dispersion is supported for the gaussian family only")
    phi0 = float(np.mean((np.asarray(y, dtype=np.float64) - nu0) ** 2))
    if not phi0 > 0.0:
        raise DegenerateResponse("response has no variation around nu0")
    return phi0


def _bracket_newton(
    func: Callable[[float], float],
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
    x0: Optional[float] = None,
    max_iter: int = 200,
) -> float:
    """Root of a monotone scalar function, Newton with a bisection safeguard."""
    flo, fhi = func(lo), func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise DegenerateResponse("score has no root inside the search bracket")
    a, b, fa = lo, hi, flo
    x = float(x0) if x0 is not None else 0.5 * (lo + hi)
    x = min(max(x, lo), hi)
    for _ in range(max_iter):
        fx = func(x)
        if fx == 0.0:
            return x
        if np.sign(fx) == np.sign(fa):
            a, fa = x, fx
        else:
            b = x
        d = dfunc(x)
        step_ok = np.isfinite(d) and d != 0.0
        x_new = x - fx / d if step_ok else np.nan
        if not np.isfinite(x_new) or not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= 1e-13 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    raise NoConvergence("scalar root search did not converge")


def mills_ratio(t: np.ndarray) -> np.ndarray:
    """Normal hazard pdf(t)/cdf(t), stable across the whole real line."""
    # Imported here and in ``aft_loglik_grad_hess``: only the survival
    # family needs scipy's normal tails, and a regression run loads no scipy.
    import scipy.special

    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    neg = t < 0.0
    # erfcx keeps the far-left tail finite; the direct ratio is safe elsewhere
    out[neg] = np.sqrt(2.0 / np.pi) / scipy.special.erfcx(-t[neg] / np.sqrt(2.0))
    tp = t[~neg]
    out[~neg] = np.exp(-0.5 * tp * tp) / np.sqrt(2.0 * np.pi) / scipy.special.ndtr(tp)
    return out


def log_ndtr_curvature(t: np.ndarray) -> np.ndarray:
    """Negative second derivative of log cdf: r(t)^2 + t r(t), in (0, 1)."""
    t = np.asarray(t, dtype=np.float64)
    r = mills_ratio(t)
    return np.clip(r * r + t * r, 1e-300, 1.0)


@dataclass(frozen=True)
class SurvivalData:
    """Right-censored responses on the log-time scale."""

    log_time: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        lt = np.asarray(self.log_time, dtype=np.float64)
        ev = np.asarray(self.observed, dtype=bool)
        if lt.shape != ev.shape or lt.ndim != 1:
            raise ValueError("log_time and observed must be matching vectors")
        if not np.all(np.isfinite(lt)):
            raise ValueError("log times contain non-finite entries")
        object.__setattr__(self, "log_time", lt)
        object.__setattr__(self, "observed", ev)

    @property
    def n(self) -> int:
        return self.log_time.shape[0]

    @property
    def n_obs(self) -> int:
        return int(np.sum(self.observed))


def aft_loglik_grad_hess(
    Z: np.ndarray, data: SurvivalData, alpha: np.ndarray, tau: float
):
    """Censored-normal accelerated-failure log-likelihood with derivatives.

    Parameterization: alpha = beta / sigma and tau = 1 / sigma, which keeps
    the log-likelihood jointly concave.  Returns ``(loglik, grad, hess)``
    over ``(alpha, tau)`` with tau last; signs are those of the
    log-likelihood itself, not its negative.
    """
    import scipy.special

    Z = np.asarray(Z, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    obs = data.observed
    zo, zc = Z[obs], Z[~obs]
    yo, yc = data.log_time[obs], data.log_time[~obs]
    n_o = yo.shape[0]
    e = tau * yo - zo @ alpha
    t = zc @ alpha - tau * yc
    r = mills_ratio(t)
    curv = log_ndtr_curvature(t)
    ll = (
        -0.5 * n_o * _LOG_2PI
        + n_o * np.log(tau)
        - 0.5 * float(e @ e)
        + float(np.sum(scipy.special.log_ndtr(t)))
    )
    p = Z.shape[1]
    grad = np.empty(p + 1)
    grad[:p] = zo.T @ e + zc.T @ r
    grad[p] = n_o / tau - float(yo @ e) - float(yc @ r)
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = -(zo.T @ zo) - (zc.T * curv) @ zc
    h_at = zo.T @ yo + zc.T @ (yc * curv)
    hess[:p, p] = h_at
    hess[p, :p] = h_at
    hess[p, p] = -n_o / tau**2 - float(yo @ yo) - float((yc * yc) @ curv)
    return ll, grad, hess


def aft_concavity_check(Z: np.ndarray, data: SurvivalData) -> None:
    """Raise unless the uncensored block identifies all coefficients.

    Strict concavity of the survival log-likelihood needs at least as many
    observed events as active columns, with the observed sub-design of full
    column rank.
    """
    Z = np.asarray(Z, dtype=np.float64)
    p = Z.shape[1]
    zo = Z[data.observed]
    if zo.shape[0] < p:
        raise NotConcave(
            f"{zo.shape[0]} observed events cannot identify {p} coefficients"
        )
    if p > 0 and np.linalg.matrix_rank(zo) < p:
        raise NotConcave("observed-event sub-design is rank deficient")


def aft_tau0(data: SurvivalData) -> float:
    """Rate parameter maximizing the survival likelihood at alpha = 0."""
    yo = data.log_time[data.observed]
    yc = data.log_time[~data.observed]
    n_o = yo.shape[0]
    if n_o == 0:
        raise DegenerateResponse("no observed events; tau0 is not identified")
    syy = float(yo @ yo)

    def score(tau):
        return n_o / tau - tau * syy - float(yc @ mills_ratio(-tau * yc))

    def dscore(tau):
        curv = log_ndtr_curvature(-tau * yc)
        return -n_o / tau**2 - syy - float((yc * yc) @ curv)

    x0 = np.sqrt(n_o / syy) if syy > 0.0 else 1.0
    return _bracket_newton(score, dscore, 1e-10, 1e10, x0=x0)
