"""Slow reference scores that back the fast engines.

The exact gaussian marginal through the n x n observation covariance, the
product-moment marginal by per-group quadrature (for mutually orthogonal
groups) or by Monte Carlo over the exact kernel posterior, and adaptive
one-dimensional quadrature with the one-column integrand that ``alaselect
oracle --oracle quadrature`` integrates.  Their cost grows with n, so no
``select`` run imports this module: ``alaselect oracle``, the
``gmom-accuracy`` simulation design and the tests do.  Like the engines,
each takes a model as a key or bits (see ``priors.model_key``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import families as fam
from .data_model import SuffStatsCache
from .errors import NotInvertible, ToleranceNotMet
from .marginal_engines import _LOG_2PI, MarginalScore, _gaussian_log_ml
from .numerics import chol_logdet, cholesky, logsumexp
from .priors import ParamPriorSpec, model_key


def exact_gaussian_marginal(
    bits,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
) -> MarginalScore:
    """Exact Gaussian marginal likelihood through the n-dimensional
    observation covariance.

    Marginalizes the coefficients analytically: y is Normal with covariance
    ``phi (I + sum_j (g n / p_j) Z_j A_j^{-1} Z_j')``.  With unknown
    dispersion the inverse-gamma prior integrates to a multivariate-t form.
    Cost grows with n cubed: the reference of the scorer's closed form
    (``marginal_engines._exact_gaussian``), and what ``alaselect oracle``
    runs.
    """
    if family.kind != "gaussian":
        raise ValueError("exact marginal is available for the gaussian family")
    if prior.kind != "gzellner":
        raise ValueError("exact marginal expects the block Zellner prior")
    cols = cache.design.columns_for(bits)
    log_ml, _ = _normal_kernel_marginal(cols, cache, family, prior, 0, "marginal")
    return MarginalScore(float(log_ml), "exact-gaussian", np.empty(0), {})


def _normal_kernel_marginal(cols, cache, family, prior, shift, what):
    """Log marginal likelihood of a gaussian response whose coefficients
    are Normal with covariance phi times the inverse of the block prior's
    precision (shift 0 is the block Zellner prior, 2 the kernel of the
    product-moment prior), through the n x n ``what`` covariance, with the
    dispersion known or inverse-gamma; returns it and ``y' C^-1 y``."""
    y, n = cache.y, cache.n
    z = cache.design.values[:, cols]
    prec, _ = cache.block_prior.precision(cols, prior.g, 1.0, shift)
    cov = np.eye(n) + z @ np.linalg.solve(prec, z.T)
    factor = cholesky(cov, NotInvertible, f"{what} covariance")
    half = scipy.linalg.solve_triangular(factor, y, lower=True)
    quad = float(half @ half)
    return _gaussian_log_ml(n, chol_logdet(factor), quad, family, prior), quad


def one_column_log_joint(
    bits,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
) -> Callable[[np.ndarray], np.ndarray]:
    """The log joint density of a one-column model's coefficient under a
    known dispersion, for an array of coefficient values: the
    log-likelihood plus the block prior's Normal log density.  Its
    ``quadrature_oracle`` integral is the model's log marginal likelihood."""
    cols = cache.design.columns_for(bits)
    z = cache.design.values[:, cols[0]]
    phi = float(family.phi)
    # the block prior's variance of the one coefficient
    scale = 1.0 / float(cache.block_prior.precision(cols, prior.g, phi)[0][0, 0])

    def log_integrand(betas):
        vals = np.empty(betas.shape[0])
        for i, b in enumerate(betas):
            vals[i] = fam.loglik(family, z * b, cache.y, phi) - 0.5 * (
                np.log(2.0 * np.pi * scale) + b * b / scale
            )
        return vals

    return log_integrand


def _panel_logsum(logf, lo, hi, panels, nodes, weights):
    """Log of the integral of exp(logf) by composite Gauss-Legendre."""
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    points = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    logw = np.log(np.repeat(half, nodes.shape[0]) * np.tile(weights, panels))
    vals = logf(points) + logw
    return float(logsumexp(vals))


def quadrature_oracle(
    log_integrand: Callable[[np.ndarray], np.ndarray],
    x0: float = 0.0,
    rtol: float = 1e-8,
    max_refinements: int = 12,
) -> float:
    """Log of a one-dimensional integral of ``exp(log_integrand)`` over the
    real line, by mode-centered adaptive composite Gauss-Legendre.

    Widens the window until the tails are negligible and doubles the panel
    count until two successive estimates agree to ``rtol``; raises when the
    tolerance cannot be met.
    """
    # Imported here, its one use: scipy.optimize pulls in scipy.sparse,
    # scipy.spatial and scipy.fft, which the other references do not need.
    import scipy.optimize

    scan = x0 + np.linspace(-50.0, 50.0, 4001)
    scan_vals = log_integrand(scan)
    best = int(np.argmax(scan_vals))
    lo_b = scan[max(best - 1, 0)]
    hi_b = scan[min(best + 1, scan.shape[0] - 1)]
    opt = scipy.optimize.minimize_scalar(
        lambda x: -float(log_integrand(np.array([x]))[0]),
        bounds=(lo_b, hi_b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    mode = float(opt.x)
    peak = -float(opt.fun)
    h = 1e-4 * (1.0 + abs(mode))
    f2 = (
        float(log_integrand(np.array([mode - h]))[0])
        - 2.0 * peak
        + float(log_integrand(np.array([mode + h]))[0])
    ) / h**2
    sd = 1.0 / np.sqrt(max(-f2, 1e-12))
    width = 8.0 * sd
    for _ in range(60):
        lo, hi = mode - width, mode + width
        tail = max(
            float(log_integrand(np.array([lo]))[0]),
            float(log_integrand(np.array([hi]))[0]),
        )
        if tail < peak + np.log(rtol) - 30.0:
            break
        width *= 2.0
    nodes, weights = np.polynomial.legendre.leggauss(40)
    panels = 8
    previous = None
    for _ in range(max_refinements):
        estimate = _panel_logsum(log_integrand, lo, hi, panels, nodes, weights)
        if previous is not None and abs(estimate - previous) <= rtol:
            return estimate
        previous = estimate
        panels *= 2
    raise ToleranceNotMet(
        f"quadrature failed to stabilize within {rtol:.1e} after "
        f"{max_refinements} refinements"
    )


def exact_gmom_blockdiag(
    bits,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    rtol: float = 1e-9,
) -> MarginalScore:
    """Exact product-moment marginal for mutually orthogonal groups, by
    per-group numerical quadrature.

    Requires a known-dispersion gaussian family and a design whose active
    groups have exactly zero cross products, so the integral factorizes.
    Groups of one or two columns are supported.
    """
    if family.kind != "gaussian" or not family.phi_known:
        raise ValueError("block quadrature expects the known-dispersion gaussian")
    if prior.kind != "gmom":
        raise ValueError("block quadrature expects the product-moment prior")
    phi, y, n = float(family.phi), cache.y, cache.n
    active = np.flatnonzero(np.frombuffer(model_key(bits), dtype=bool))
    cols = cache.design.columns_for(bits)
    if cols.size:
        xtx = cache.gram.block(cols)
        off = np.array(xtx, copy=True)
        offset = 0
        for j in active:
            pj = int(cache.design.group_sizes[j])
            off[offset : offset + pj, offset : offset + pj] = 0.0
            offset += pj
        scale = float(np.max(np.abs(np.diag(xtx)))) or 1.0
        if float(np.max(np.abs(off))) > 1e-8 * scale:
            raise ValueError("active groups are not mutually orthogonal")
    total = -0.5 * n * (_LOG_2PI + np.log(phi)) - 0.5 * float(y @ y) / phi
    g = prior.g
    for j in active:
        pj = int(cache.design.group_sizes[j])
        if pj > 2:
            raise ValueError("block quadrature supports groups of up to 2 columns")
        start, stop = cache.design.groups[j]
        block = cache.gram.block(np.arange(start, stop))
        logdet_a = np.linalg.slogdet(block)[1]
        uj = cache.zty[start:stop]
        kernel_cov = phi * g * n / (pj + 2)
        pen_coef = (pj + 2) / (n * pj * g * phi)

        def log_f(bvecs):
            # bvecs: (m, pj) points; likelihood kernel times the prior density
            quad_a = np.einsum("mi,ij,mj->m", bvecs, block, bvecs)
            lin = bvecs @ uj
            with np.errstate(divide="ignore"):
                log_pen = np.log(pen_coef * quad_a)
            log_kernel = (
                -0.5 * pj * (_LOG_2PI + np.log(kernel_cov))
                + 0.5 * logdet_a
                - 0.5 * quad_a / kernel_cov
            )
            return lin / phi - 0.5 * quad_a / phi + log_pen + log_kernel

        total += _tensor_quad(log_f, block, uj, phi, rtol)
    return MarginalScore(float(total), "quadrature", np.empty(0), {})


def _tensor_quad(log_f, block, uj, phi, rtol):
    """Adaptive tensor Gauss-Legendre over an eigenbox centered at the
    likelihood mean; the box is wide enough that the polynomial penalty
    cannot push mass past it."""
    n_cols = block.shape[0]
    a_inv = np.linalg.inv(block)
    mean = a_inv @ uj
    cov_like = phi * a_inv
    eigvals, eigvecs = np.linalg.eigh(cov_like)
    half_widths = 12.0 * np.sqrt(np.maximum(eigvals, 1e-300))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    panels = 4
    previous = None
    for _ in range(10):
        per_axis = []
        for k in range(n_cols):
            edges = np.linspace(-half_widths[k], half_widths[k], panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
            wts = np.repeat(half, nodes.shape[0]) * np.tile(weights, panels)
            per_axis.append((pts, wts))
        if n_cols == 1:
            pts, wts = per_axis[0]
            bvecs = mean[None, :] + pts[:, None] * eigvecs.T
            logw = np.log(wts)
        else:
            p0, w0 = per_axis[0]
            p1, w1 = per_axis[1]
            grid0, grid1 = np.meshgrid(p0, p1, indexing="ij")
            coords = np.stack([grid0.ravel(), grid1.ravel()], axis=1)
            bvecs = mean[None, :] + coords @ eigvecs.T
            logw = np.log(np.outer(w0, w1).ravel())
        vals = log_f(bvecs) + logw
        estimate = float(logsumexp(vals))
        if previous is not None and abs(estimate - previous) <= rtol:
            return estimate
        previous = estimate
        panels *= 2
    raise ToleranceNotMet("group quadrature failed to stabilize")


def exact_gmom_mc(
    bits,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    n_draws: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> MarginalScore:
    """Product-moment marginal for general gaussian designs by Monte Carlo.

    Writes the marginal as the Normal-kernel marginal times the posterior
    expectation of the penalty product, draws from the exact kernel
    posterior, and averages.  The log-scale standard error is reported.
    Fewer than one draw raises ``ValueError``.
    """
    if family.kind != "gaussian":
        raise ValueError("the Monte Carlo reference expects the gaussian family")
    if prior.kind != "gmom":
        raise ValueError("the Monte Carlo reference expects the product-moment prior")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    if rng is None:
        rng = np.random.default_rng(0)
    n = cache.n
    cols = cache.design.columns_for(bits)
    p = cols.size
    log_kernel, quad = _normal_kernel_marginal(
        cols, cache, family, prior, 2, "kernel marginal"
    )
    if p == 0:
        return MarginalScore(float(log_kernel), "mc", np.empty(0), {"mc_se_log": 0.0})
    xtx, xty = cache.gram.block(cols), cache.zty[cols]
    kernel, _ = cache.block_prior.precision(cols, prior.g, 1.0, 2, xtx)
    m_factor = cholesky(xtx + kernel, NotInvertible, "kernel posterior precision")
    mean = scipy.linalg.cho_solve((m_factor, True), xty)
    shape = scipy.linalg.cho_solve((m_factor, True), np.eye(p))
    shape_chol = np.linalg.cholesky(shape + 1e-14 * np.eye(p))
    normal = rng.standard_normal((n_draws, p))
    if family.phi_known:
        phi_draws = np.full(n_draws, float(family.phi))
    else:
        a, b = prior.phi_prior_required()
        post_a, post_b = a + 0.5 * n, b + 0.5 * quad
        phi_draws = post_b / rng.gamma(post_a, 1.0, size=n_draws)
    draws = mean[None, :] + np.sqrt(phi_draws)[:, None] * (normal @ shape_chol.T)
    # group j's penalty factor is its kernel quadratic form over p_j phi;
    # the kernel is block diagonal, so the forms are sums over its columns
    sizes = cache.design.group_sizes[np.frombuffer(model_key(bits), dtype=bool)]
    forms = np.add.reduceat((draws @ kernel) * draws, np.cumsum(sizes) - sizes, axis=1)
    log_pen = np.log(forms / (sizes * phi_draws[:, None])).sum(axis=1)
    log_mean = float(logsumexp(log_pen) - np.log(n_draws))
    pen = np.exp(log_pen - log_pen.max())
    se_rel = float(np.std(pen) / (np.mean(pen) * np.sqrt(n_draws)))
    return MarginalScore(
        float(log_kernel + log_mean),
        "mc",
        mean,
        {"mc_se_log": se_rel, "n_draws": n_draws},
    )
