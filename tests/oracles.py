"""Independent reference implementations used to cross-check the library.

Everything in this module is assembled from plain numpy linear algebra and
scipy distribution functions, sharing no code paths with the package
itself.  Agreement between these references and the library is therefore a
genuine two-route check, not a tautology.  The one exception is the Newton
references at the end, which check the engines' bookkeeping rather than the
family algebra: they call the package's ``loglik``, ``grad_hess`` and
``aft_loglik_grad_hess``, whose derivatives the acceptance tests check
against finite differences.  The
dense ``ala`` reference takes the same statistics from the package: the
log-likelihood at the centre (``loglik``) and the cache's ``b''(nu0)`` and
shifted response.  The two prior densities at the end are the package's
block prior evaluated at one coefficient vector; ``tests/test_priors.py``
checks them against scipy and numerical integration.  The last section is
no reference but an audit: a scorer that checks each model a search asks
it for against the search's constraints.
"""

import numpy as np
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from alaselect import families as fam
from alaselect.data_model import ConstraintSet, DesignMatrix, SuffStatsCache
from alaselect.marginal_engines import ModelScorer
from alaselect.priors import model_key


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------


def fd_grad(func, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (func(x + step) - func(x - step)) / (2.0 * h)
    return out


def fd_hess(func, x, h=1e-4):
    """Central-difference hessian of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    out = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (func(x + ei) - 2.0 * func(x) + func(x - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            mixed = (
                func(x + ei + ej)
                - func(x + ei - ej)
                - func(x - ei + ej)
                + func(x - ei - ej)
            ) / (4.0 * h**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def max_rel_err(approx, exact, floor=1.0):
    """Elementwise |approx - exact| / max(floor, |exact|), maximized."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = np.maximum(floor, np.abs(exact))
    return float(np.max(np.abs(approx - exact) / scale))


# ----------------------------------------------------------------------
# Designs
# ----------------------------------------------------------------------


def make_design(rng, n, sizes, intercept=False, scale=1.0):
    """Random Gaussian grouped design; optionally prepend a constant group."""
    blocks = []
    groups = []
    cursor = 0
    if intercept:
        blocks.append(np.ones((n, 1)))
        groups.append((0, 1))
        cursor = 1
    for size in sizes:
        blocks.append(scale * rng.normal(size=(n, size)))
        groups.append((cursor, cursor + size))
        cursor += size
    return DesignMatrix(
        np.hstack(blocks), tuple(groups), intercept_group=0 if intercept else None
    )


def group_columns(design, j):
    start, stop = design.groups[j]
    return design.values[:, start:stop]


def active_prior_cov(design, bits, g, phi=1.0, shift=0):
    """Block-diagonal group-Zellner covariance over the active columns.

    Group j gets covariance phi * g * n / (p_j + shift) times the inverse of
    its own raw Gram block, independent of which other groups are active;
    shift 2 gives the kernel of the product-moment prior.
    """
    n = design.n
    blocks = []
    for j, on in enumerate(bits):
        if not on:
            continue
        z = group_columns(design, j)
        p_j = z.shape[1]
        blocks.append(phi * g * n / (p_j + shift) * np.linalg.inv(z.T @ z))
    if not blocks:
        return np.zeros((0, 0))
    dim = sum(b.shape[0] for b in blocks)
    cov = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        cov[at : at + k, at : at + k] = b
        at += k
    return cov


def gzellner_logpdf(design, bits, beta, g, phi=1.0, shift=0):
    """Log density of the block Normal prior at a stacked coefficient
    vector over the active columns."""
    cov = active_prior_cov(design, bits, g, phi, shift)
    if cov.shape[0] == 0:
        return 0.0
    return float(stats.multivariate_normal.logpdf(beta, mean=np.zeros(cov.shape[0]), cov=cov))


# ----------------------------------------------------------------------
# Conjugate Gaussian marginals
# ----------------------------------------------------------------------


def conjugate_known_phi_log_ml(design, bits, y, g, phi):
    """Gaussian known-dispersion integrated likelihood by marginalizing the
    coefficients into the response covariance."""
    n = design.n
    cov = phi * np.eye(n)
    prior_cov = active_prior_cov(design, bits, g, phi)
    if prior_cov.shape[0]:
        z = design.values[:, design.columns_for(bits)]
        cov = cov + z @ prior_cov @ z.T
    return float(stats.multivariate_normal.logpdf(y, mean=np.zeros(n), cov=cov))


def conjugate_unknown_phi_log_ml(design, bits, y, g, a, b):
    """Gaussian unknown-dispersion integrated likelihood: Normal
    coefficients scaled by phi, inverse-gamma phi with shape a and rate b."""
    n = design.n
    shape = np.eye(n)
    prior_shape = active_prior_cov(design, bits, g, phi=1.0)
    if prior_shape.shape[0]:
        z = design.values[:, design.columns_for(bits)]
        shape = shape + z @ prior_shape @ z.T
    sign, logdet = np.linalg.slogdet(shape)
    quad = float(y @ np.linalg.solve(shape, y))
    return float(
        -0.5 * n * np.log(2.0 * np.pi)
        - 0.5 * logdet
        + a * np.log(b)
        - gammaln(a)
        + gammaln(a + 0.5 * n)
        - (a + 0.5 * n) * np.log(b + 0.5 * quad)
    )


# ----------------------------------------------------------------------
# Zero-expansion unknown-dispersion score, closed form
# ----------------------------------------------------------------------


def zero_expansion_unknown_phi_log_ml(design, bits, y, g, a, b, kind="gzellner"):
    """Scalar-algebra reference for the Gaussian unknown-dispersion score
    expanded at zero coefficients and the null dispersion estimate.

    Returns the log score and the dispersion plug-in value.  Raises
    ``np.linalg.LinAlgError`` style failures only for degenerate designs;
    the explained sum of squares must stay below half the total sum of
    squares for the joint expansion to have positive-definite curvature.
    Under the product-moment prior (``kind="gmom"``) the Normal kernel
    takes the place of the block Zellner prior, and a finite score with
    coefficients adds the log posterior expectation of the penalty: the
    kernel posterior of beta is Normal with mean ``m = S Z'y`` and
    covariance ``phi S``, ``S = (Z'Z + K)^-1`` for the kernel's precision K
    at unit dispersion, and the second moment taken is
    ``S + rbar m m'``, ``rbar = (a + n) / (b + y'y - y'Z (Z'Z)^-1 Z'y)``.
    """
    shift = 2 if kind == "gmom" else 0
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    phi0 = float(np.mean(y**2))
    t_half = 0.5 * n * phi0
    cols = design.columns_for(bits)
    p = cols.size
    if p == 0:
        h_pp = n / (2.0 * phi0**2)
        l0 = -0.5 * n * np.log(2.0 * np.pi * phi0) - 0.5 * n
        score = (
            l0
            + stats.invgamma.logpdf(phi0, a, scale=b)
            + 0.5 * np.log(2.0 * np.pi)
            - 0.5 * np.log(h_pp)
        )
        return score, phi0
    z = design.values[:, cols]
    gram = z.T @ z
    u = z.T @ y
    q = float(u @ np.linalg.solve(gram, u))
    if q >= t_half:
        raise ValueError("joint curvature is not positive definite")
    t_gamma = t_half / (t_half - q)
    beta_tilde = t_gamma * np.linalg.solve(gram, u)
    phi_tilde = phi0 * (t_half - 2.0 * q) / (t_half - q)
    quad = q * t_half / (phi0 * (t_half - q))
    sign, logdet_gram = np.linalg.slogdet(gram)
    logdet_h = logdet_gram - p * np.log(phi0) + np.log((t_half - q) / phi0**3)
    l0 = -0.5 * n * np.log(2.0 * np.pi * phi0) - 0.5 * n
    if phi_tilde <= 0.0:
        return -np.inf, phi_tilde
    score = (
        l0
        + 0.5 * quad
        + gzellner_logpdf(design, bits, beta_tilde, g, phi_tilde, shift)
        + stats.invgamma.logpdf(phi_tilde, a, scale=b)
        + 0.5 * (p + 1) * np.log(2.0 * np.pi)
        - 0.5 * logdet_h
    )
    if shift:
        kernel, _ = block_zellner_precision(design, bits, g, shift)
        cov = np.linalg.inv(gram + kernel)
        mean = cov @ u
        rbar = (a + n) / (b + float(y @ y) - q)
        moment = cov + rbar * np.outer(mean, mean)
        at = 0
        for j, on in enumerate(bits):
            if on:
                zj = group_columns(design, j)
                p_j = zj.shape[1]
                m_jj = moment[at : at + p_j, at : at + p_j]
                at += p_j
                score += np.log((p_j + 2) / (n * p_j * g) * np.trace(zj.T @ zj @ m_jj))
    return score, phi_tilde


def plugin_log_ml(loglik0, grad, hess, log_prior, theta0):
    """The plug-in score of a quadratic expansion at ``theta0``, by
    ``numpy.linalg.solve`` and ``slogdet``: with ``grad`` and ``hess`` the
    derivatives of the negative log-likelihood there and ``d`` its
    dimension, ``loglik0 + g'H^-1 g / 2 + log_prior(update)
    + (d/2) log 2 pi - log det H / 2`` at the update
    ``theta0 - H^-1 g``.  Returns ``(log_ml, update, g'H^-1 g)``."""
    step = np.linalg.solve(hess, grad)
    update = theta0 - step
    quad = float(grad @ step)
    log_ml = (
        loglik0
        + 0.5 * quad
        + log_prior(update)
        + 0.5 * grad.shape[0] * np.log(2.0 * np.pi)
        - 0.5 * np.linalg.slogdet(hess)[1]
    )
    return log_ml, update, quad


def zero_expansion_aft_log_ml(design, data, bits, tau0, g, a, b):
    """Dense reference for the survival score expanded at
    ``(alpha, tau) = (0, tau0)``: the plug-in score (``plugin_log_ml``) of
    the censored Gaussian log-likelihood, whose derivatives come from
    scipy's normal density and distribution function, with the block
    Zellner prior of alpha and the prior of tau induced by an
    inverse-gamma(a, b) ``phi = tau^-2`` at the update (-inf at a tau at
    or below zero).  Returns ``(log_ml, tau_tilde)``."""
    cols = design.columns_for(bits)
    z = design.values[:, cols]
    y, obs = data.log_time, data.observed.astype(bool)
    p = cols.size
    # a censored term log Phi(-r) at r = tau y has derivative -m in r and
    # second derivative -m (m - r), m = phi(r) / Phi(-r); an observed one
    # log tau + log phi(r) has r and -1 (its tau derivative adds 1 / tau)
    r = tau0 * y
    m = np.exp(stats.norm.logpdf(r) - stats.norm.logcdf(-r))
    first = np.where(obs, r, m)
    second = np.where(obs, 1.0, m * (m - r))
    grad = np.empty(p + 1)
    grad[:p] = -(z.T @ first)
    grad[p] = -(obs.sum() / tau0 - first @ y)
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = (z * second[:, None]).T @ z
    hess[:p, p] = hess[p, :p] = -(z.T @ (second * y))
    hess[p, p] = obs.sum() / tau0**2 + second @ (y * y)
    theta0 = np.append(np.zeros(p), tau0)

    def log_prior(theta):
        tau = theta[p]
        if not tau > 0.0:
            return -np.inf
        log_tau = stats.invgamma.logpdf(tau**-2, a, scale=b) + np.log(2.0 * tau**-3)
        return gzellner_logpdf(design, bits, theta[:p], g) + log_tau

    loglik0 = aft_loglik_np(z, y, obs, np.zeros(p), tau0)
    log_ml, update, _ = plugin_log_ml(loglik0, grad, hess, log_prior, theta0)
    return log_ml, update[p]


# ----------------------------------------------------------------------
# Likelihoods assembled from scratch
# ----------------------------------------------------------------------


def logistic_loglik_np(z, y, beta):
    eta = z @ np.atleast_1d(beta)
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def poisson_loglik_np(z, y, beta):
    eta = z @ np.atleast_1d(beta)
    return float(y @ eta - np.exp(eta).sum() - gammaln(y + 1.0).sum())


def gaussian_loglik_np(z, y, beta, phi):
    eta = z @ np.atleast_1d(beta)
    resid = y - eta
    return float(-0.5 * resid @ resid / phi - 0.5 * y.size * np.log(2.0 * np.pi * phi))


def aft_loglik_np(z, log_time, observed, alpha, tau):
    """Censored Gaussian log likelihood on the accelerated-failure scale,
    built directly from scipy normal functions."""
    eta = z @ np.atleast_1d(alpha)
    resid = tau * log_time - eta
    obs = observed.astype(bool)
    n_obs = int(obs.sum())
    ll = n_obs * np.log(tau) if n_obs else 0.0
    ll += float(stats.norm.logpdf(resid[obs]).sum())
    ll += float(stats.norm.logcdf(-resid[~obs]).sum())
    return ll


def total_variation(models_a, probs_a, models_b, probs_b):
    """Total variation distance between two distributions over model bit
    vectors, allowing different supports."""
    mass_a = {tuple(m): float(p) for m, p in zip(models_a, probs_a)}
    mass_b = {tuple(m): float(p) for m, p in zip(models_b, probs_b)}
    keys = set(mass_a) | set(mass_b)
    return 0.5 * sum(abs(mass_a.get(k, 0.0) - mass_b.get(k, 0.0)) for k in keys)


# ----------------------------------------------------------------------
# Laplace approximation by a reference damped Newton
# ----------------------------------------------------------------------


def _reference_damped_newton(objective, theta0, tol=1e-8, max_iter=100, positive=()):
    """Newton steps with halving, the acceptance rule and the |value|-scaled
    tolerances of the engine, with every objective evaluated from the data
    (the start included).  Returns ``(theta, value, grad, hess, iterations,
    evaluations)``."""
    theta = np.array(theta0, dtype=np.float64)
    value, grad, hess = objective(theta)
    evaluations = 1
    assert np.isfinite(value)
    for iteration in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            return theta, value, grad, hess, iteration, evaluations
        step = np.linalg.solve(hess, grad)
        if 0.5 * float(grad @ step) <= 1e-13 * (1.0 + abs(value)):
            return theta, value, grad, hess, iteration, evaluations
        slack = 1e-13 * (1.0 + abs(value))
        scale = 1.0
        for _ in range(60):
            candidate = theta - scale * step
            if any(candidate[i] <= 0.0 for i in positive):
                scale *= 0.5
                continue
            cand = objective(candidate)
            evaluations += 1
            if np.isfinite(cand[0]) and (
                cand[0] < value
                or (
                    cand[0] <= value + slack
                    and np.max(np.abs(cand[1])) < np.max(np.abs(grad))
                )
            ):
                break
            scale *= 0.5
        else:
            raise AssertionError("reference line search stalled")
        theta = candidate
        value, grad, hess = cand
    raise AssertionError("reference Newton did not converge")


def reference_newton_direction(grad, hess):
    """The Newton step ``hess^-1 grad`` of one model with the engines' ridge
    retries: when ``hess`` has no Cholesky factor or ``numpy.linalg.solve``
    finds it singular, retry with 1e-10 times its mean diagonal added, then
    100 times more at each retry, 12 tries in all."""
    d = grad.shape[0]
    base = max(abs(float(np.trace(hess))) / d, 1e-300)
    ridge = 0.0
    for _ in range(12):
        shifted = hess + ridge * np.eye(d) if ridge else hess
        try:
            np.linalg.cholesky(shifted)
            return np.linalg.solve(shifted, grad)
        except np.linalg.LinAlgError:
            ridge = 1e-10 * base if ridge == 0.0 else 100.0 * ridge
    raise AssertionError("no ridge makes the curvature positive definite")


def block_zellner_precision(design, bits, g, shift=0):
    """Dispersion-free block Zellner precision over the active columns,
    ``((p_j + shift) / (g n)) Z_j' Z_j`` per group, and its log determinant;
    shift 2 gives the product-moment kernel."""
    cols = design.columns_for(bits)
    prec = np.zeros((cols.size, cols.size))
    at = 0
    for j, on in enumerate(bits):
        if on:
            z = group_columns(design, j)
            p_j = z.shape[1]
            coef = (p_j + shift) / (g * design.n)
            prec[at : at + p_j, at : at + p_j] = coef * (z.T @ z)
            at += p_j
    return prec, (np.linalg.slogdet(prec)[1] if cols.size else 0.0)


def dense_known_phi_ala(cache, family, prior, bits, rho=1.0):
    """The known-dispersion zero-expansion ``ala`` score of one model by
    dense linear algebra, ``np.linalg.slogdet`` and ``np.linalg.solve``:
    the log-likelihood at the centre plus
    ``0.5 (log det P - log det H + g' H^-1 g)``, with ``P`` the block prior
    precision over phi (``block_zellner_precision``; shift 2, the kernel of
    the product-moment prior), ``H = rho (b''/phi) Z'Z + P`` and
    ``g = -(b''/phi) Z'ytilde``.  The product-moment prior adds the log
    posterior expectation of its penalty,
    ``sum_j log((p_j + 2) / (n p_j g) tr(Z_j'Z_j M_jj))`` for the second
    moment ``M = (H^-1 + beta beta') / phi``.  Returns
    ``(log_ml, beta)`` with ``beta = -H^-1 g``."""
    design = cache.design
    phi = float(family.phi)
    cols = design.columns_for(bits)
    z = design.values[:, cols]
    gmom = prior.kind == "gmom"
    prec, logdet = block_zellner_precision(design, bits, prior.g, 2 if gmom else 0)
    w = cache.bpp_nu0 / phi
    hess = rho * w * (z.T @ z) + prec / phi
    grad = -w * (z.T @ cache.ytilde)
    beta = -np.linalg.solve(hess, grad)
    log_ml = (
        fam.loglik(family, np.full(design.n, cache.nu0), cache.y, phi)
        + 0.5 * (logdet - cols.size * np.log(phi))
        - 0.5 * np.linalg.slogdet(hess)[1]
        - 0.5 * float(grad @ beta)
    )
    if gmom:
        sigma = np.linalg.solve(hess, np.eye(cols.size))
        moment = (sigma + np.outer(beta, beta)) / phi
        at = 0
        for j, on in enumerate(bits):
            if on:
                zj = group_columns(design, j)
                p_j = zj.shape[1]
                m_jj = moment[at : at + p_j, at : at + p_j]
                at += p_j
                coef = (p_j + 2) / (design.n * p_j * prior.g)
                log_ml += np.log(coef * np.trace(zj.T @ zj @ m_jj))
    return float(log_ml), beta


def reference_la(design, bits, y, family, g, phi_prior=None):
    """Laplace approximation of one model under the block Zellner prior, by
    the objective with separate ``loglik`` and ``grad_hess`` calls, started
    at zero coefficients (and the null dispersion estimate when phi is
    unknown).  Returns ``(log_ml, mode, iterations, evaluations)``."""
    cols = design.columns_for(bits)
    z = design.values[:, cols]
    p = cols.size
    prec_bar, logdet_bar = block_zellner_precision(design, bits, g)
    if family.phi_known:
        phi = float(family.phi)
        prec = prec_bar / phi

        def objective(beta):
            _, grad, hess = fam.grad_hess(family, z, y, beta, phi)
            value = -fam.loglik(family, z @ beta, y, phi) + 0.5 * float(
                beta @ prec @ beta
            )
            return value, grad + prec @ beta, hess + prec

        theta, value, grad, hess, its, evals = _reference_damped_newton(
            objective, np.zeros(p)
        )
        log_ml = (
            -value
            + 0.5 * (logdet_bar - p * np.log(phi))
            - 0.5 * np.linalg.slogdet(hess)[1]
            + 0.5 * float(grad @ np.linalg.solve(hess, grad))
        )
        return log_ml, theta, its, evals
    a, b = phi_prior
    const = 0.5 * p * np.log(2.0 * np.pi) - 0.5 * logdet_bar - a * np.log(b) + gammaln(a)

    def objective(theta):
        beta, phi = theta[:p], theta[p]
        _, g_lik, h_lik = fam.grad_hess(family, z, y, beta, phi)
        quad = float(beta @ prec_bar @ beta)
        value = (
            -fam.loglik(family, z @ beta, y, phi)
            + 0.5 * p * np.log(phi)
            + 0.5 * quad / phi
            + (a + 1.0) * np.log(phi)
            + b / phi
            + const
        )
        grad = g_lik.copy()
        grad[:p] += prec_bar @ beta / phi
        grad[p] += 0.5 * p / phi - 0.5 * quad / phi**2 + (a + 1.0) / phi - b / phi**2
        hess = h_lik.copy()
        hess[:p, :p] += prec_bar / phi
        hess[:p, p] -= prec_bar @ beta / phi**2
        hess[p, :p] -= prec_bar @ beta / phi**2
        hess[p, p] += (
            -0.5 * p / phi**2 + quad / phi**3 - (a + 1.0) / phi**2 + 2.0 * b / phi**3
        )
        return value, grad, hess

    theta0 = np.append(np.zeros(p), fam.phi0_mle(family, y))
    theta, value, grad, hess, its, evals = _reference_damped_newton(
        objective, theta0, positive=(p,)
    )
    log_ml = -value + 0.5 * (p + 1) * np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(hess)[1]
    return log_ml, theta, its, evals


def reference_la_aft(design, data, bits, g, a, b):
    """Laplace approximation of one survival model under the block Zellner
    prior on alpha and the scale prior that an inverse-gamma(a, b) phi
    induces on ``tau = phi**-0.5``, started at ``(0, tau0)``: the value
    from ``aft_loglik_np`` and scipy densities, the derivatives from the
    package's ``aft_loglik_grad_hess``.  Returns ``(log_ml, mode,
    iterations, evaluations)``."""
    cols = design.columns_for(bits)
    z = design.values[:, cols]
    p = cols.size
    prec, _ = block_zellner_precision(design, bits, g)

    def objective(theta):
        alpha, tau = theta[:p], theta[p]
        _, g_ll, h_ll = fam.aft_loglik_grad_hess(z, data, alpha, tau)
        # the density of tau from that of phi = tau**-2, |dphi/dtau| = 2 tau**-3
        log_tau = stats.invgamma.logpdf(tau**-2.0, a, scale=b) + np.log(2.0 / tau**3)
        value = -(
            aft_loglik_np(z, data.log_time, data.observed, alpha, tau)
            + gzellner_logpdf(design, bits, alpha, g)
            + log_tau
        )
        grad = -g_ll
        grad[:p] += prec @ alpha
        grad[p] += -(2.0 * a - 1.0) / tau + 2.0 * b * tau
        hess = -h_ll
        hess[:p, :p] += prec
        hess[p, p] += (2.0 * a - 1.0) / tau**2 + 2.0 * b
        return value, grad, hess

    theta0 = np.append(np.zeros(p), fam.aft_tau0(data))
    theta, value, grad, hess, its, evals = _reference_damped_newton(
        objective, theta0, positive=(p,)
    )
    log_ml = -value + 0.5 * (p + 1) * np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(hess)[1]
    return log_ml, theta, its, evals


def ala_general(loglik0, grad, hess, prior_precision, theta0=None, prior_logdet=None):
    """The closed-form integral of the quadratic expansion at ``theta0``
    (zero by default) of one model's log-likelihood, with value
    ``loglik0`` and the gradient ``grad`` and Hessian ``hess`` of the
    negative log-likelihood there, against the centred Normal prior of
    precision ``P = prior_precision``, by ``numpy.linalg.solve`` and
    ``slogdet``: with the joint gradient ``g = grad + P theta0`` and
    curvature ``H = hess + P``, ``loglik0 - theta0'P theta0 / 2
    + log det P / 2 - log det H / 2 + g'H^-1 g / 2``.  Exact when the
    log-likelihood is quadratic, the Laplace approximation at its mode.
    Returns the score and the expansion's mean ``theta0 - H^-1 g``; raises
    ``numpy.linalg.LinAlgError`` when H or P is not positive definite."""
    grad = np.asarray(grad, dtype=np.float64)
    theta0 = np.zeros_like(grad) if theta0 is None else theta0
    joint = hess + prior_precision
    for matrix in (joint, prior_precision):
        if grad.size and np.linalg.eigvalsh(matrix)[0] <= 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
    if prior_logdet is None:
        prior_logdet = np.linalg.slogdet(prior_precision)[1]
    g_joint = grad + prior_precision @ theta0
    shift = np.linalg.solve(joint, g_joint)
    log_ml = (
        loglik0
        - 0.5 * theta0 @ prior_precision @ theta0
        + 0.5 * prior_logdet
        - 0.5 * np.linalg.slogdet(joint)[1]
        + 0.5 * g_joint @ shift
    )
    return float(log_ml), theta0 - shift


def reference_refined_expansion(design, bits, y, family, k):
    """Point, log-likelihood, gradient and Hessian after ``k`` undamped
    Newton steps on the log-likelihood from zero, each step from separate
    ``grad_hess`` calls and the final value from ``loglik``."""
    z = design.values[:, design.columns_for(bits)]
    phi = float(family.phi)
    beta = np.zeros(z.shape[1])
    for _ in range(k):
        _, grad, hess = fam.grad_hess(family, z, y, beta, phi)
        beta = beta - np.linalg.solve(hess, grad)
    _, grad, hess = fam.grad_hess(family, z, y, beta, phi)
    return beta, fam.loglik(family, z @ beta, y, phi), grad, hess


# ----------------------------------------------------------------------
# Model spaces
# ----------------------------------------------------------------------


def reference_models(n_groups, constraints, intercept_group, among=None):
    """The admissible models by a plain loop over masks: the varying groups
    take the bits of each mask, first group most significant, and a model
    is kept when its intercept is on and it meets the constraints."""
    among = list(range(n_groups)) if among is None else list(among)
    models = []
    for mask in range(1 << len(among)):
        bits = [0] * n_groups
        for pos, j in enumerate(among):
            bits[j] = (mask >> (len(among) - 1 - pos)) & 1
        if intercept_group is not None and not bits[intercept_group]:
            continue
        if constraints is not None and (
            sum(bits) > constraints.max_groups
            or any(bits[c] and not bits[p] for c, p in constraints.requires)
        ):
            continue
        models.append(tuple(bits))
    return models


@st.composite
def model_spaces(draw, max_groups=8):
    """A group count up to ``max_groups``, a random size cap and acyclic
    ``requires`` pairs (or no constraints), and an intercept group or none."""
    n_groups = draw(st.integers(1, max_groups))
    order = draw(st.permutations(range(n_groups)))
    requires = []
    for _ in range(draw(st.integers(0, 4)) if n_groups > 1 else 0):
        # an edge from a later to an earlier position keeps the graph acyclic
        child = draw(st.integers(1, n_groups - 1))
        parent = draw(st.integers(0, child - 1))
        requires.append((order[child], order[parent]))
    cap = draw(st.integers(0, n_groups))
    constraints = draw(st.sampled_from([None, ConstraintSet(cap, tuple(requires))]))
    intercept = draw(st.sampled_from([None, *range(n_groups)]))
    return n_groups, constraints, intercept


# ----------------------------------------------------------------------
# Prior densities at one coefficient vector
# ----------------------------------------------------------------------


def log_gzellner(
    beta: np.ndarray,
    key: bytes,
    cache: SuffStatsCache,
    g: float,
    phi: float = 1.0,
) -> float:
    """Log density of the block Zellner prior at ``beta``.

    Active block j is Normal with covariance ``phi g n / p_j`` times the
    inverse Gram block.  ``beta`` concatenates the active groups in order.
    """
    beta = np.asarray(beta, dtype=np.float64)
    cols = cache.design.columns_for(key)
    if beta.shape != cols.shape:
        raise ValueError("beta length does not match the active columns")
    return cache.block_prior.log_density(beta, cols, g, phi)


def log_gmom(
    beta: np.ndarray,
    key: bytes,
    cache: SuffStatsCache,
    g: float,
    phi: float = 1.0,
) -> float:
    """Log density of the block product-moment prior at ``beta``.

    Each active block multiplies a Normal kernel with covariance
    ``phi g n / (p_j + 2)`` times the inverse Gram block by the penalty
    ``beta_j' A_j beta_j (p_j + 2) / (n p_j g phi)``.  The density is exactly
    zero (log density -inf) whenever any active block is zero.
    """
    beta = np.asarray(beta, dtype=np.float64)
    cols = cache.design.columns_for(key)
    if beta.shape != cols.shape:
        raise ValueError("beta length does not match the active columns")
    prior = cache.block_prior
    block = prior.gram.block(cols)
    penalty = prior.log_penalty(cols, np.outer(beta, beta) / phi, g, block)
    return float(penalty + prior.log_density(beta, cols, g, phi, 2, block))


# ----------------------------------------------------------------------
# Constraint audit of a search
# ----------------------------------------------------------------------


class ConstraintCheckedScorer(ModelScorer):
    """A ``ModelScorer`` that checks each distinct model passed to
    ``log_score`` against ``constraints``: ``checked`` holds every key seen,
    ``violations`` those that break the constraints.  A Gibbs step leaves
    the state at one of the two models it scores, so every state a chain
    reaches through a step is checked."""

    def __init__(self, constraints: ConstraintSet, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.constraints = constraints
        self.checked: set[bytes] = set()
        self.violations: list[bytes] = []

    def log_score(self, bits) -> float:
        key = model_key(bits)
        if key not in self.checked:
            self.checked.add(key)
            if not self.constraints.satisfied_by(key):
                self.violations.append(key)
        return super().log_score(key)
