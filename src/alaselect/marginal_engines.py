"""Approximate and exact marginal-likelihood engines.

The default engine integrates a quadratic expansion of the log-likelihood
against a Normal coefficient prior in closed form.  Expanded at the
posterior mode this is the Laplace approximation; expanded at zero it gives
a fast score whose per-model cost, once the touched column pairs are
cached, does not grow with the sample size.  Product-moment priors reuse
the Normal-kernel score and multiply in the posterior expectation of the
penalty.  Exact Gaussian formulas, numerical quadrature, and a Monte Carlo
route are provided as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import families as fam
from .data_model import (
    DesignMatrix,
    Gram,
    ModelId,
    SuffStatsCache,
    submodel_stats,
)
from .errors import (
    NoConvergence,
    NotConcave,
    NotConcaveAtExpansion,
    NotInvertible,
    SelectionError,
    ToleranceNotMet,
)
from .numerics import (
    bordered_cholesky, cho_factor_solve, chol_logdet, cholesky, gammaln, logsumexp
)
from .priors import (
    BlockPrior,
    ModelPriorSpec,
    ParamPriorSpec,
    log_invgamma,
    log_model_prior_unnorm,
    log_tau_prior,
    model_key,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MarginalScore:
    """One model's log marginal likelihood with how it was obtained.

    An engine may give, in place of the expansion point, the factor of
    ``bordered_cholesky`` for the curvature H and gradient g at zero; the
    first read of ``expansion`` then solves for the point ``-H^-1 g``, so
    that a point nothing reads is never solved for.
    """

    log_ml: float
    method: str
    _expansion: Optional[np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    _factor: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def expansion(self) -> np.ndarray:
        if self._expansion is None:
            k = self._factor.shape[0] - 1
            upper = self._factor[:k, :k].T
            self._expansion = -np.linalg.solve(upper, self._factor[k, :k])
            self._factor = None
        return self._expansion


@dataclass(frozen=True)
class CurvatureContext:
    """Response-variance inflation for the Hessian at the expansion point."""

    rho_hat: float


def _cache_scalar(cache: SuffStatsCache, key, compute):
    memo = cache.scalar_memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _c_sum(cache: SuffStatsCache, family: fam.FamilySpec, phi: float) -> float:
    """The response-only log-likelihood term ``sum c(y, phi)``, memoized."""
    return _cache_scalar(
        cache, ("c", family.kind, phi), lambda: float(np.sum(family.c(cache.y, phi)))
    )


def _loglik_at_center(cache: SuffStatsCache, family: fam.FamilySpec, phi: float):
    """Log-likelihood with the whole predictor pinned at nu0, memoized."""

    def compute():
        n = cache.n
        b_nu0 = float(family.cumulant(cache.nu0)[0])
        kernel = cache.nu0 * float(np.sum(cache.y)) - n * b_nu0
        return kernel / phi + _c_sum(cache, family, phi)

    return _cache_scalar(cache, ("l0", family.kind, phi), compute)


def _at_zero(
    cache: SuffStatsCache, family: fam.FamilySpec, phi: float, cols, block=None
):
    """Negative log-likelihood, gradient and Hessian at beta = 0, read from
    the cache: ``-l(0)``, ``-(b''(0)/phi) Z'ytilde`` and ``(b''(0)/phi) Z'Z``.
    ``cols`` may be a (B, k) stack of column lists when ``block`` holds
    their (B, k, k) Gram blocks.

    None unless the cache is centered at zero for this family's cumulant.
    """
    if cache.nu0 != 0.0 or not cache.transform_tag.startswith(f"{family.kind}:"):
        return None
    w = cache.bpp_nu0 / phi
    return (
        -_loglik_at_center(cache, family, phi),
        -w * cache.zty[cols],
        w * (cache.gram.block(cols) if block is None else block),
    )


def ala_general(
    loglik0: float,
    grad: np.ndarray,
    hess: np.ndarray,
    prior_precision: np.ndarray,
    theta0: Optional[np.ndarray] = None,
    prior_logdet: Optional[float] = None,
    method: str = "ala-general",
) -> MarginalScore:
    """Closed-form integral of a quadratic log-likelihood expansion against a
    centered Normal prior.

    ``grad`` and ``hess`` are derivatives of the negative log-likelihood at
    ``theta0``.  Exact whenever the log-likelihood is quadratic; at the
    posterior mode it reproduces the Laplace approximation.
    """
    grad = np.asarray(grad, dtype=np.float64)
    d = grad.shape[0]
    if theta0 is None:
        theta0 = np.zeros(d)
    if prior_logdet is None:
        prior_logdet = chol_logdet(
            cholesky(prior_precision, NotInvertible, "prior precision")
        )
    g_joint = grad + prior_precision @ theta0
    factor, shift = cho_factor_solve(hess + prior_precision, g_joint)
    quad = float(g_joint @ shift)
    quad_prior = float(theta0 @ prior_precision @ theta0)
    log_ml = (
        loglik0
        - 0.5 * quad_prior
        + 0.5 * prior_logdet
        - 0.5 * chol_logdet(factor)
        + 0.5 * quad
    )
    return MarginalScore(float(log_ml), method, theta0 - shift, {"quad": quad})


def ala_plugin(
    loglik0: float,
    grad: np.ndarray,
    hess: np.ndarray,
    log_prior: Callable[[np.ndarray], float],
    theta0: Optional[np.ndarray] = None,
    method: str = "ala-plugin",
    what: str = "likelihood curvature",
) -> MarginalScore:
    """Quadratic-expansion score with the prior density evaluated at the
    implied update point.

    Works for any prior density; pays for the generality with an extra
    ``(d/2) log 2 pi - 0.5 log det H`` volume term from the likelihood
    curvature alone.  ``what`` names H in the ``NotConcaveAtExpansion``
    raised when it is not positive definite.
    """
    grad = np.asarray(grad, dtype=np.float64)
    d = grad.shape[0]
    if theta0 is None:
        theta0 = np.zeros(d)
    factor, shift = cho_factor_solve(hess, grad, NotConcaveAtExpansion, what)
    theta_tilde = theta0 - shift
    quad = float(grad @ shift)
    log_ml = (
        loglik0
        + 0.5 * quad
        + log_prior(theta_tilde)
        + 0.5 * d * _LOG_2PI
        - 0.5 * chol_logdet(factor)
    )
    return MarginalScore(float(log_ml), method, theta_tilde, {"quad": quad})


def ala_expfam_known_phi(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    curvature: Optional[CurvatureContext] = None,
    variant: str = "exact-normal",
) -> MarginalScore:
    """Zero-expansion score for known dispersion under the block Zellner prior.

    The default variant integrates the Normal prior in closed form against
    the quadratic expansion.  ``variant="plugin-density"`` instead evaluates
    the prior density at the implied update and keeps only the likelihood
    curvature in the volume term.
    """
    if prior.kind != "gzellner":
        raise ValueError("this engine expects the block Zellner prior")
    if not family.phi_known:
        raise ValueError("dispersion must be known for this engine")
    if variant == "exact-normal":
        return _known_phi_one(model, cache, family, prior, curvature)
    if variant != "plugin-density":
        raise ValueError(f"unknown variant {variant!r}")
    method = "ala" if curvature is None else "ala-curvadj"
    phi = float(family.phi)
    cols = cache.design.columns_for(model.key)
    xtx, xty = cache.gram.block(cols), cache.zty[cols]
    bpp = cache.bpp_nu0
    rho = curvature.rho_hat if curvature is not None else 1.0
    score = ala_plugin(
        _loglik_at_center(cache, family, phi),
        -(bpp / phi) * xty,
        (rho * bpp / phi) * xtx,
        lambda b: cache.block_prior.log_density(b, cols, prior.g, phi, block=xtx),
        method=method,
    )
    score.diagnostics.update(phi=phi, rho_hat=rho, variant=variant)
    return score


def curvature_context(cache: SuffStatsCache, family: fam.FamilySpec) -> CurvatureContext:
    """Ratio of observed response variance to the model-implied variance at
    the intercept-only fit.

    Built on a cache centered at the intercept estimate; the ratio inflates
    the expansion Hessian so overdispersed responses are not overconfident.
    """
    if not family.phi_known:
        raise ValueError("curvature adjustment needs a known dispersion")
    if not cache.transform_tag.endswith(":intercept-mle"):
        raise ValueError("curvature adjustment needs an intercept-centered cache")
    y = cache.y
    n = cache.n
    if n < 2:
        raise ValueError("need at least two observations")
    resid = y - cache.bp_nu0
    rho_hat = float(resid @ resid) / (float(family.phi) * cache.bpp_nu0 * (n - 1))
    return CurvatureContext(rho_hat=rho_hat)


def _unknown_phi_stats(cache: SuffStatsCache, family: fam.FamilySpec) -> dict:
    """Dispersion-profile quantities at the zero expansion, memoized."""

    def compute():
        if cache.nu0 != 0.0:
            raise ValueError("unknown-dispersion scoring expects zero centering")
        y = cache.y
        n = cache.n
        phi0 = fam.phi0_mle(family, y, 0.0)
        b0, _, bpp0 = map(float, family.cumulant(0.0))
        # negative-loglik derivatives in phi at (0, phi0); the score g_phi is
        # zero up to rounding because phi0 solves the profile equation
        g_phi = -n * b0 / phi0**2 - float(np.sum(family.c_dphi(y, phi0)))
        h_pp = 2.0 * n * b0 / phi0**3 - float(np.sum(family.c_dphi2(y, phi0)))
        if not h_pp > 0.0:
            raise NotConcaveAtExpansion("dispersion curvature is not positive")
        return {
            "phi0": phi0,
            "l0": _loglik_at_center(cache, family, phi0),
            "bpp0": bpp0,
            "g_phi": g_phi,
            "h_pp": h_pp,
        }

    return _cache_scalar(cache, ("unknown-phi", family.kind), compute)


def ala_expfam_unknown_phi(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
) -> MarginalScore:
    """Zero-expansion score with the dispersion treated as a parameter.

    Expands the log-likelihood jointly in ``(beta, phi)`` at ``(0, phi0)``
    where phi0 maximizes the null likelihood, then evaluates the coefficient
    prior and the inverse-gamma dispersion prior at the implied update
    (``ala_plugin``).  The null model is the one-parameter case.
    """
    cols = cache.design.columns_for(model.key)
    return _unknown_phi_score(
        cache, family, prior, cols, cache.gram.block(cols), cache.zty[cols]
    )


def _unknown_phi_score(cache, family, prior, cols, xtx, xty, kernel_shift=0):
    """``ala_expfam_unknown_phi`` on the gathered ``cols``, Gram block and
    ``Z'ytilde``, with the prior kernel of shift ``kernel_shift``."""
    a, b = prior.phi_prior_required()
    st = _unknown_phi_stats(cache, family)
    phi0 = st["phi0"]
    p = cols.shape[0]
    factor = st["bpp0"] / phi0
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = factor * xtx
    hess[:p, p] = hess[p, :p] = factor * xty / phi0
    hess[p, p] = st["h_pp"]
    grad = np.zeros(p + 1)
    grad[:p] = -factor * xty
    theta0 = np.zeros(p + 1)
    theta0[p] = phi0

    def log_prior(theta):
        phi = theta[p]
        # the prior precision takes the log of phi
        if not phi > 0.0:
            return -np.inf
        return cache.block_prior.log_density(
            theta[:p], cols, prior.g, phi, kernel_shift, xtx
        ) + log_invgamma(phi, a, b)

    score = ala_plugin(
        st["l0"], grad, hess, log_prior, theta0, "ala", "joint (beta, phi) curvature"
    )
    score.diagnostics.update(phi0=phi0, phi_tilde=float(score.expansion[p]))
    return score


def ala_gmom(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    curvature: Optional[CurvatureContext] = None,
) -> MarginalScore:
    """Zero-expansion score under the block product-moment prior.

    Scores the Normal kernel in closed form, then adds the log posterior
    expectation of the penalty computed from the kernel-posterior moments.
    """
    if prior.kind != "gmom":
        raise ValueError("this engine expects the product-moment prior")
    if family.phi_known:
        return _known_phi_one(model, cache, family, prior, curvature)
    if model.p_gamma == 0:
        return ala_expfam_unknown_phi(model, cache, family, prior)
    if family.kind != "gaussian":
        raise ValueError(
            "unknown dispersion with the product-moment prior is supported "
            "for the gaussian family only"
        )
    if curvature is not None:
        raise ValueError("curvature adjustment applies to known dispersion only")
    a, b = prior.phi_prior_required()
    cols = cache.design.columns_for(model.key)
    xtx, xty = cache.gram.block(cols), cache.zty[cols]
    local = _unknown_phi_score(cache, family, prior, cols, xtx, xty, 2)
    if not np.isfinite(local.log_ml):
        return MarginalScore(local.log_ml, "ala-gmom", local.expansion, local.diagnostics)
    kernel, _ = cache.block_prior.precision(cols, prior.g, 1.0, 2, xtx)
    _, shape = cho_factor_solve(xtx + kernel, np.eye(model.p_gamma))
    mean = shape @ xty
    # X'X is positive definite here: it leads the joint curvature just factored
    quad = float(bordered_cholesky(xtx, xty, NotInvertible, "Gram block")[1])
    rbar = (a + cache.n) / (b + cache.yty - quad)
    moment = shape + rbar * np.outer(mean, mean)
    tilt = float(cache.block_prior.log_penalty(cols, moment, prior.g, xtx))
    diag = dict(local.diagnostics)
    diag.update(tilt=tilt, rbar=rbar)
    return MarginalScore(
        float(local.log_ml + tilt), "ala-gmom", local.expansion, diag
    )


# Upper bound on the B * k * k entries of one stacked solve or one stacked
# Newton run (models padded to the largest k), so that enumerating a large
# space never allocates more than a few tens of megabytes at once.  A
# stacked Newton run's data pass adds at most ``_LA_WORK`` arrays of
# ``_LA_BLOCK`` doubles, whatever n.
_STACK_ENTRIES = 1 << 20


def ala_known_phi_many(
    bits: np.ndarray,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    curvature: Optional[CurvatureContext] = None,
) -> list[MarginalScore]:
    """What ``ala_expfam_known_phi`` (exact Normal integral) or ``ala_gmom``
    returns for each row of the (B, J) ``uint8`` 0/1 matrix ``bits``, in
    order.  The models of one dimension are scored as stacks of at most
    ``_STACK_ENTRIES`` Gram entries (``_known_phi_stack``), each gathered
    from one Gram block over its columns, so the Gram fills the columns
    that scoring the models one at a time fills."""
    if not family.phi_known:
        raise ValueError("dispersion must be known for this engine")
    col_mask = np.asarray(bits, dtype=bool)[:, cache.design.col_group]
    p_gamma = col_mask.sum(axis=1)
    out: list[Optional[MarginalScore]] = [None] * col_mask.shape[0]
    for k in np.unique(p_gamma).tolist():
        members = np.flatnonzero(p_gamma == k)
        step = max(1, _STACK_ENTRIES // max(k * k, 1))
        for lo in range(0, members.shape[0], step):
            rows = members[lo : lo + step]
            mask = col_mask[rows]
            union = np.flatnonzero(mask.any(axis=0))
            block = cache.gram.block(union)
            pos = np.nonzero(mask[:, union])[1].reshape(rows.shape[0], k)
            xtx = block[pos[:, :, None], pos[:, None, :]]
            scores = _known_phi_stack(cache, family, prior, curvature, union[pos], xtx)
            for i, score in zip(rows.tolist(), scores):
                out[i] = score
    return out


def _known_phi_one(model, cache, family, prior, curvature):
    """The known-dispersion zero-expansion score of one model: a stack of
    one, with its Gram block read directly."""
    cols = cache.design.columns_for(model.key)
    xtx = cache.gram.block(cols)
    return _known_phi_stack(cache, family, prior, curvature, cols[None], xtx[None])[0]


def _known_phi_stack(cache, family, prior, curvature, cols, xtx):
    """The one known-dispersion ``ala`` engine: zero-expansion scores of
    the models with (B, k) columns ``cols`` and (B, k, k) Gram blocks
    ``xtx``, under the block Zellner prior, or under the product-moment
    prior with the log posterior expectation of its penalty (the tilt).
    ``log det H`` and ``g' H^-1 g`` come from one stacked bordered Cholesky
    factorization.  The tilt's posterior moments and the expansion come
    from one stacked inverse of the factor; the block Zellner expansion,
    which no score needs, from one triangular solve when it is read.  A
    model's score depends on its own block alone, not on its stack.  Raises
    ``NotConcaveAtExpansion`` when a joint curvature is not positive
    definite and ``NotInvertible`` when a group's Gram block is singular."""
    gmom = prior.kind == "gmom"
    method = ("ala-gmom" if gmom else "ala") + ("" if curvature is None else "-curvadj")
    phi = float(family.phi)
    w = cache.bpp_nu0 / phi
    rho = curvature.rho_hat if curvature is not None else 1.0
    prec, logdet_p0 = cache.block_prior.precision(
        cols, prior.g, phi, 2 if gmom else 0, xtx
    )
    logdet_h, quad, factor = bordered_cholesky(
        (rho * w) * xtx + prec,
        -w * cache.zty[cols],
        NotConcaveAtExpansion,
        "joint curvature",
    )
    k = cols.shape[1]
    l0 = _loglik_at_center(cache, family, phi)
    rows = zip(logdet_p0.tolist(), logdet_h.tolist(), quad.tolist())
    score = [l0 + 0.5 * lp - 0.5 * lh + 0.5 * q for lp, lh, q in rows]
    if gmom:
        # with its corner set to 1, the factor's transpose [[L', L^-1 g],
        # [0, 1]] has the inverse [[L^-T, beta], [0, 1]], beta = -H^-1 g the
        # expansion; its first k rows R give H^-1 + beta beta' = R R'
        factor[:, k, k] = 1.0
        head = np.linalg.inv(factor.transpose(0, 2, 1))[:, :k]
        moment = head @ head.transpose(0, 2, 1) / phi
        tilt = cache.block_prior.log_penalty(cols, moment, prior.g, xtx).tolist()
        return [
            MarginalScore(s + t, method, b, {"tilt": t, "phi": phi, "rho_hat": rho})
            for s, t, b in zip(score, tilt, head[:, :, k])
        ]
    return [
        MarginalScore(s, method, None, {"phi": phi, "rho_hat": rho, "quad": q}, f)
        for s, q, f in zip(score, quad.tolist(), factor)
    ]


def _damped_newton(
    objective,
    theta0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
    positive: tuple[int, ...] = (),
    first=None,
):
    """Minimize a smooth convex objective by Newton steps with halving.

    ``objective(theta)`` returns ``(value, grad, hess)``; ``first`` is that
    triple at ``theta0`` when the caller already has it.  Coordinates in
    ``positive`` are kept strictly positive by the line search.  Returns the
    final ``(theta, value, grad, hess, trace)``; each trace entry counts the
    objective evaluations its line search took.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    value, grad, hess = objective(theta) if first is None else first
    if not np.isfinite(value):
        raise NoConvergence("objective is not finite at the start", trace=[])
    trace = []
    for iteration in range(max_iter):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= tol:
            return theta, value, grad, hess, trace
        step = _newton_direction(grad, hess)
        if 0.5 * float(grad @ step) <= _slack(value):
            return theta, value, grad, hess, trace
        scale = 1.0
        accepted = False
        evaluations = 0
        for _ in range(_LINE_SEARCH_HALVINGS):
            candidate = theta - scale * step
            if any(candidate[i] <= 0.0 for i in positive):
                scale *= 0.5
                continue
            cand_value, cand_grad, cand_hess = objective(candidate)
            evaluations += 1
            cand_norm = float(np.max(np.abs(cand_grad)))
            if _accepts(value, grad_norm, cand_value, cand_norm):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise NoConvergence(
                f"line search stalled at iteration {iteration}", trace=trace
            )
        theta, value, grad, hess = candidate, cand_value, cand_grad, cand_hess
        trace.append(
            {
                "iteration": iteration,
                "objective": float(value),
                "grad_norm": float(np.max(np.abs(grad))),
                "step_scale": scale,
                "evaluations": evaluations,
            }
        )
    if float(np.max(np.abs(grad))) <= tol:
        return theta, value, grad, hess, trace
    raise _gradient_not_met(float(np.max(np.abs(grad))), tol, max_iter, trace)


_LINE_SEARCH_HALVINGS = 60


def _slack(value):
    """Objective change below float resolution at ``value``, elementwise.
    A predicted decrease below it means the point is converged for all
    practical purposes even if the gradient test has not quite triggered;
    a rise within it is a tie."""
    return 1e-13 * (1.0 + np.abs(value))


def _accepts(value, grad_norm, cand_value, cand_grad_norm):
    """The line-search acceptance of the Newton rule, elementwise: the
    candidate is finite and either lowers the objective or ties it within
    the slack with a smaller gradient norm."""
    return np.isfinite(cand_value) & (
        (cand_value < value)
        | ((cand_value <= value + _slack(value)) & (cand_grad_norm < grad_norm))
    )


def _gradient_not_met(grad_norm, tol, max_iter, trace):
    return NoConvergence(
        f"gradient norm {grad_norm:.3e} above {tol:.1e} after {max_iter} iterations",
        trace=trace,
    )


def _newton_diagnostics(trace, grad, start_evaluated: bool) -> dict:
    """Accepted Newton steps, objective evaluations that touched the data
    (the start counts when it was not read from the cache), and the final
    gradient norm."""
    evaluations = int(start_evaluated) + sum(step["evaluations"] for step in trace)
    return {
        "iterations": len(trace),
        "evaluations": evaluations,
        "grad_norm": float(np.max(np.abs(grad))),
    }


def _newton_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    d = grad.shape[0]
    base = max(abs(float(np.trace(hess))) / max(d, 1), 1e-300)
    ridge = 0.0
    for _ in range(12):
        shifted = hess + ridge * np.eye(d) if ridge else hess
        try:
            return cho_factor_solve(shifted, grad, NotConcave)[1]
        except NotConcave:
            ridge = 1e-10 * base if ridge == 0.0 else 100.0 * ridge
    raise NotConcave("objective curvature is not positive definite")


def la_marginal(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    start: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> MarginalScore:
    """Laplace approximation: expand at the joint posterior mode.

    Runs damped Newton on the negative log joint until the gradient drops
    below ``tol``; raises if it fails to, with the iteration trace attached.
    Without ``start`` it begins at zero coefficients, where a zero-centered
    cache supplies the first evaluation without a pass over the data.
    ``la_known_phi_many`` scores many known-dispersion models with the same
    Newton rule in stacks.
    """
    if prior.kind != "gzellner":
        raise ValueError("mode-expansion scoring expects the block Zellner prior")
    if family.phi_known:
        return _la_known_phi(model, cache, family, prior, start, tol, max_iter)
    return _la_unknown_phi(model, cache, family, prior, start, tol, max_iter)


def _la_known_phi(model, cache, family, prior, start, tol, max_iter):
    phi = float(family.phi)
    p = model.p_gamma
    if p == 0:
        return MarginalScore(
            _loglik_at_center(cache, family, phi),
            "la",
            np.empty(0),
            {"iterations": 0, "evaluations": 0},
        )
    cols = cache.design.columns_for(model.key)
    Z = cache.design.values[:, cols]
    y = cache.y
    c_sum = _c_sum(cache, family, phi)
    prec, logdet_p0 = cache.block_prior.precision(cols, prior.g, phi)

    def with_prior(beta, lik):
        value, g, h = lik
        pb = prec @ beta
        return value + 0.5 * float(beta @ pb), g + pb, h + prec

    def objective(beta):
        return with_prior(beta, fam.grad_hess(family, Z, y, beta, phi, c_sum))

    if start is None:
        theta0 = np.zeros(p)
        at_zero = _at_zero(cache, family, phi, cols)
        first = None if at_zero is None else with_prior(theta0, at_zero)
    else:
        theta0, first = np.asarray(start, dtype=np.float64), None
    theta, value, grad, hess, trace = _damped_newton(
        objective, theta0, tol=tol, max_iter=max_iter, first=first
    )
    logdet_h, quad, _ = bordered_cholesky(
        hess, grad, NotConcave, "curvature at the mode"
    )
    log_ml = -value + 0.5 * logdet_p0 - 0.5 * logdet_h + 0.5 * quad
    return MarginalScore(
        float(log_ml), "la", theta, _newton_diagnostics(trace, grad, first is None)
    )


# Doubles in one working array of a stacked evaluation (live models, or the
# union's columns with their pair products, times one block's observations),
# and a bound on the arrays alive at once in one evaluation: the block's
# columns and pair products, predictor, cumulant with two derivatives and
# temporaries, and residual (freed before the next block's are made), and
# the weighted Grams.  Measured (tracemalloc, n = 20 000, logistic/poisson):
# 5.93/3.94 at 255 models on 8 singletons, 9.51/7.51 at 256 of 3 over 21.
_LA_BLOCK = 1 << 15
_LA_WORK = 10


def la_known_phi_many(
    bits: np.ndarray,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> list[MarginalScore]:
    """Laplace scores of many models under a known dispersion.

    ``bits`` is a (B, J) ``uint8`` 0/1 matrix, one model per row.  Returns,
    in order, what ``la_marginal`` returns for each model, up to rounding.
    The models with columns run the rule of ``_damped_newton`` as padded
    stacks (``_la_stack``, ``_la_stacks``); the null model, and each model
    the split leaves alone, go to ``la_marginal``, whose weighted Gram
    costs less formed directly.  Each model takes the iterates,
    evaluations and stopping decisions of the one-model rule.  Raises
    what the one-model rule raises, without its iteration trace, for the
    first model that fails in the run.
    """
    if prior.kind != "gzellner":
        raise ValueError("mode-expansion scoring expects the block Zellner prior")
    if not family.phi_known:
        raise ValueError("dispersion must be known for this engine")
    design = cache.design
    active = np.asarray(bits, dtype=bool)
    col_mask = active[:, design.col_group]
    p_gamma = col_mask.sum(axis=1)
    out: list[Optional[MarginalScore]] = [None] * active.shape[0]
    nulls = [(np.array([i]), None) for i in np.flatnonzero(p_gamma == 0)]
    stacks = _la_stacks(np.flatnonzero(p_gamma), col_mask, p_gamma)
    for rows, union in [*nulls, *stacks]:
        if rows.shape[0] > 1:
            mask = col_mask[rows]
            scores = _la_stack(cache, family, prior, mask, union, tol, max_iter)
        else:
            # the one-model path has working arrays of its own
            model = design.model(active[rows[0]])
            scores = [_la_known_phi(model, cache, family, prior, None, tol, max_iter)]
        for i, score in zip(rows.tolist(), scores):
            out[i] = score
    return out


def _la_stacks(members: np.ndarray, col_mask: np.ndarray, sizes: np.ndarray):
    """Split the models ``members`` into in-order runs of at most
    ``cap = _LA_BLOCK // 128`` models, halving a run while its B K^2 padded
    curvature entries overflow ``_STACK_ENTRIES``, and into single models
    a run whose union of u columns has u + u(u+1)/2 > cap columns and pair
    products (u > 21), which each model of a stack pays for.  So no block
    of a stacked evaluation is shorter than 128 observations.  Yields
    ``(rows, union)``."""
    cap = max(1, _LA_BLOCK // 128)
    lo = 0
    while lo < members.shape[0]:
        rows = members[lo : lo + cap]
        while len(rows) > 1 and len(rows) * sizes[rows].max() ** 2 > _STACK_ENTRIES:
            rows = rows[: len(rows) // 2]
        union = np.flatnonzero(col_mask[rows].any(axis=0))
        if union.shape[0] * (union.shape[0] + 3) // 2 <= cap:
            yield rows, union
        else:
            yield from ((one, None) for one in rows[:, None])
        lo += len(rows)


def _la_stack(cache, family, prior, mask, union, tol, max_iter):
    """Laplace scores of the models whose columns are the rows of the
    (B, p) 0/1 ``mask``, all within ``union``, by one ``_stacked_newton``
    run over the pair products of ``union``.  Each model is padded to the
    largest size K, its own columns first; a padded coordinate has a zero
    data column and a unit prior precision, so it stays at zero and the
    leading block of each Cholesky factor, the Newton step, the gradient
    test and log det H are the unpadded model's."""
    phi = float(family.phi)
    sizes = mask.sum(axis=1)
    m, big, u = mask.shape[0], int(sizes.max()), union.shape[0]
    block = cache.gram.block(union)
    # column u of the stacked objective is the padded coordinates' zero column
    pos = np.full((m, big), u)
    prec, logdet_p0 = np.zeros((m, big, big)), np.empty(m)
    value, grad, hess = np.empty(m), np.zeros((m, big)), np.zeros((m, big, big))
    for k in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == k)
        where = np.nonzero(mask[sel][:, union])[1].reshape(sel.shape[0], k)
        pos[sel, :k] = where
        xtx = block[where[:, :, None], where[:, None, :]]
        cols = union[where]
        prec[sel, :k, :k], logdet_p0[sel] = cache.block_prior.precision(
            cols, prior.g, phi, block=xtx
        )
        prec[sel, k:, k:] = np.eye(big - k)
        at_zero = _at_zero(cache, family, phi, cols, xtx)
        if at_zero is not None:
            value[sel], grad[sel, :k], hess[sel, :k, :k] = at_zero
    first = None if at_zero is None else (value, grad, np.add(hess, prec, out=hess))
    objective = _stacked_objective(cache, family, phi, union, pos, prec)
    theta, value, grad, hess, iterations, evaluations = _stacked_newton(
        objective, np.zeros((m, big)), first, tol, max_iter, sizes
    )
    logdet_h, quad, _ = bordered_cholesky(
        hess, grad, NotConcave, "curvature at the mode"
    )
    log_ml = -value + 0.5 * logdet_p0 - 0.5 * logdet_h + 0.5 * quad
    norms = np.max(np.abs(grad), axis=1).tolist()
    diags = zip(iterations.tolist(), evaluations.tolist(), norms)
    keys = ("iterations", "evaluations", "grad_norm")
    return [
        MarginalScore(lm, "la", mode[:k], dict(zip(keys, diag)))
        for k, lm, mode, diag in zip(sizes.tolist(), log_ml.tolist(), theta, diags)
    ]


def _stacked_objective(cache, family, phi, union, pos, prec):
    """The negative log joint of a stack of models over the design columns
    ``union``: row r uses the columns ``union[pos[r]]`` and the prior
    precision ``prec[r]``, and position ``u = len(union)`` is a padded
    coordinate, which reads a zero column.  Returns
    ``objective(live, theta)``, the value, gradient and Hessian of rows
    ``live`` at coefficients ``theta``, as ``families.grad_hess`` and the
    prior give them for one model.  The data pass runs over blocks of
    observations; each block gathers its rows of the union's columns, and
    the products of columns i <= j (row ``u + pair_of[i, j]``), into one
    buffer made once per evaluation, so that the weighted Grams come from
    one product of the second cumulant derivatives with the pair products.
    A block spans ``_LA_BLOCK // max(m, u + u(u+1)/2)`` observations for m
    live models, so no working array holds more than ``_LA_BLOCK`` doubles.
    """
    n, u = cache.n, union.shape[0]
    pairs = u * (u + 1) // 2
    left, right = np.triu_indices(u)
    # a padded coordinate's pairs are the zero last column of the Grams
    pair_of = np.full((u + 1, u + 1), pairs)
    pair_of[left, right] = pair_of[right, left] = np.arange(pairs)
    values, y = cache.design.values, cache.y
    c_sum = _c_sum(cache, family, phi)

    def objective(live, theta):
        m = live.shape[0]
        at = np.arange(m)[:, None]
        where = pos[live]
        coef = np.zeros((m, u + 1))
        coef[at, where] = theta
        y_eta = np.zeros(m)
        bsum = np.zeros(m)
        ztr = np.zeros((m, u + 1))
        wgram = np.zeros((m, pairs + 1))
        step = max(1, _LA_BLOCK // max(m, u + pairs))
        part = np.empty((u + pairs, step))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, step):
                y_part = y[lo : lo + step]
                x, prods = part[:u, : y_part.shape[0]], part[u:, : y_part.shape[0]]
                x[...] = values[lo : lo + step, union].T
                np.take(x, left, axis=0, out=prods, mode="clip")
                prods *= x[right]
                eta = coef[:, :u] @ x
                b, bp, bpp = family.cumulant(eta)
                y_eta += eta @ y_part
                bsum += np.sum(b, axis=1)
                ztr[:, :u] += (y_part - bp) @ x.T
                wgram[:, :pairs] += bpp @ prods.T
                # freed before the next block's arrays are made
                del eta, b, bp, bpp
            kernel = y_eta - bsum
        p_live = prec[live]
        ptheta = np.einsum("bij,bj->bi", p_live, theta)
        value = -(kernel / phi + c_sum) + 0.5 * np.einsum("bi,bi->b", theta, ptheta)
        grad = -ztr[at, where] / phi + ptheta
        h_lik = wgram[at[:, :, None], pair_of[where[:, :, None], where[:, None, :]]]
        hess = h_lik / phi + p_live
        # an overflowing cumulant gives the value inf with NaN derivatives
        bad = ~np.isfinite(bsum)
        value[bad] = np.inf
        grad[bad] = np.nan
        hess[bad] = np.nan
        return value, grad, hess

    return objective


def _stacked_newton(objective, theta, first, tol, max_iter, sizes):
    """``_damped_newton`` on every row of a stack at once.

    ``objective(live, theta)`` evaluates rows ``live``; ``first`` is the
    evaluation at the start ``theta`` when the caller has it; row r is
    padded past its first ``sizes[r]`` coordinates.  Each row takes the
    iterates, line-search evaluations and stopping decisions the one-row
    rule takes, and leaves the stack when it stops; one evaluation serves
    every row still searching.  Returns the final ``(theta, value, grad,
    hess)`` with each row's accepted steps and its evaluations (the start
    counts when it was evaluated); raises the one-row rule's error,
    without its trace, for the first row that fails.
    """
    m = theta.shape[0]
    everyone = np.arange(m)
    value, grad, hess = objective(everyone, theta) if first is None else first
    if not np.isfinite(value).all():
        raise NoConvergence("objective is not finite at the start", trace=[])
    grad_norm = np.max(np.abs(grad), axis=1)
    iterations = np.zeros(m, dtype=np.intp)
    evaluations = np.full(m, int(first is None))
    tries = np.zeros(m, dtype=np.intp)
    step = np.empty_like(theta)
    scale = np.ones(m)
    searching = np.zeros(m, dtype=bool)
    fresh = everyone
    while True:
        # the stopping tests of the rows at a new point, in the one-row order
        fresh = fresh[~(grad_norm[fresh] <= tol)]
        spent = fresh[iterations[fresh] == max_iter]
        if spent.size:
            raise _gradient_not_met(float(grad_norm[spent[0]]), tol, max_iter, [])
        step[fresh] = _stacked_direction(grad[fresh], hess[fresh], sizes[fresh])
        decrease = 0.5 * np.einsum("bi,bi->b", grad[fresh], step[fresh])
        fresh = fresh[~(decrease <= _slack(value[fresh]))]
        scale[fresh] = 1.0
        tries[fresh] = 0
        searching[fresh] = True
        live = np.flatnonzero(searching)
        if not live.size:
            break
        candidate = theta[live] - scale[live, None] * step[live]
        c_value, c_grad, c_hess = objective(live, candidate)
        c_norm = np.max(np.abs(c_grad), axis=1)
        tries[live] += 1
        ok = _accepts(value[live], grad_norm[live], c_value, c_norm)
        fresh = live[ok]
        theta[fresh] = candidate[ok]
        value[fresh] = c_value[ok]
        grad[fresh] = c_grad[ok]
        hess[fresh] = c_hess[ok]
        grad_norm[fresh] = c_norm[ok]
        iterations[fresh] += 1
        evaluations[fresh] += tries[fresh]
        searching[fresh] = False
        missed = live[~ok]
        scale[missed] *= 0.5
        stalled = missed[tries[missed] == _LINE_SEARCH_HALVINGS]
        if stalled.size:
            raise NoConvergence(
                f"line search stalled at iteration {iterations[stalled[0]]}", trace=[]
            )
    return theta, value, grad, hess, iterations, evaluations


def _stacked_direction(grad: np.ndarray, hess: np.ndarray, sizes) -> np.ndarray:
    """``_newton_direction`` of each row: one stacked Cholesky test and
    solve, or the one-row ridge retries when a row is not positive
    definite, taken on its leading ``sizes[r]`` coordinates and zero on
    the padded rest."""
    try:
        return cho_factor_solve(hess, grad[..., None], NotConcave)[1][..., 0]
    except NotConcave:
        step = np.zeros_like(grad)
        for row, k in enumerate(sizes.tolist()):
            step[row, :k] = _newton_direction(grad[row, :k], hess[row, :k, :k])
        return step


def _la_unknown_phi(model, cache, family, prior, start, tol, max_iter):
    a, b = prior.phi_prior_required()
    p = model.p_gamma
    cols = cache.design.columns_for(model.key)
    Z = cache.design.values[:, cols]
    y = cache.y
    st = _unknown_phi_stats(cache, family)
    # phi-free prior precision and its constants
    prec_bar, logdet_bar = cache.block_prior.precision(cols, prior.g)
    prior_const = 0.5 * p * _LOG_2PI - 0.5 * logdet_bar - a * np.log(b) + gammaln(a)

    def with_prior(theta, lik):
        beta, phi = theta[:p], theta[p]
        value, grad, hess = lik
        pb = prec_bar @ beta
        quad = float(beta @ pb)
        value = (
            value
            + 0.5 * p * np.log(phi)
            + 0.5 * quad / phi
            + (a + 1.0) * np.log(phi)
            + b / phi
            + prior_const
        )
        grad = grad.copy()
        grad[:p] += pb / phi
        grad[p] += 0.5 * p / phi - 0.5 * quad / phi**2 + (a + 1.0) / phi - b / phi**2
        hess = hess.copy()
        hess[:p, :p] += prec_bar / phi
        hess[:p, p] -= pb / phi**2
        hess[p, :p] -= pb / phi**2
        hess[p, p] += -0.5 * p / phi**2 + quad / phi**3 - (a + 1.0) / phi**2 + 2.0 * b / phi**3
        return value, grad, hess

    def objective(theta):
        return with_prior(theta, fam.grad_hess(family, Z, y, theta[:p], theta[p]))

    if start is None:
        theta0 = np.concatenate([np.zeros(p), [st["phi0"]]])
        at_zero = _at_zero(cache, family, st["phi0"], cols)
        first = None
        if at_zero is not None:
            value, g_beta, h_bb = at_zero
            grad = np.append(g_beta, st["g_phi"])
            hess = np.empty((p + 1, p + 1))
            hess[:p, :p] = h_bb
            # Z'(y - b'(0)) / phi0^2, the cross derivative at (0, phi0)
            hess[:p, p] = hess[p, :p] = -g_beta / st["phi0"]
            hess[p, p] = st["h_pp"]
            first = with_prior(theta0, (value, grad, hess))
    else:
        theta0, first = np.asarray(start, dtype=np.float64), None
    theta, value, grad, hess, trace = _damped_newton(
        objective, theta0, tol=tol, max_iter=max_iter, positive=(p,), first=first
    )
    factor = cholesky(hess, NotConcave, "curvature at the mode")
    log_ml = -value + 0.5 * (p + 1) * _LOG_2PI - 0.5 * chol_logdet(factor)
    return MarginalScore(
        float(log_ml), "la", theta, _newton_diagnostics(trace, grad, first is None)
    )


def ala_refined(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
    k: int = 1,
) -> MarginalScore:
    """Zero-expansion score after ``k`` Newton steps on the log-likelihood.

    The expansion point is moved toward the maximum-likelihood estimate
    before applying the closed-form Normal-prior integral; ``k = 0`` is the
    plain zero expansion.  The derivatives at zero come from the cache, so
    ``k`` steps take ``k`` passes over the data.  A non-finite step stops
    the refinement early and is reported in the diagnostics.
    """
    if prior.kind != "gzellner":
        raise ValueError("refined scoring expects the block Zellner prior")
    if not family.phi_known:
        raise ValueError("refined scoring expects a known dispersion")
    if cache.nu0 != 0.0:
        raise ValueError("refined scoring expects zero centering")
    phi = float(family.phi)
    p = model.p_gamma
    if p == 0:
        return MarginalScore(
            _loglik_at_center(cache, family, phi),
            f"ala-refined({k})",
            np.empty(0),
            {"steps_taken": 0},
        )
    cols = cache.design.columns_for(model.key)
    Z = cache.design.values[:, cols]
    y = cache.y
    c_sum = _c_sum(cache, family, phi)
    beta = np.zeros(p)
    lik = _at_zero(cache, family, phi, cols)
    value, grad, hess = (
        lik if lik is not None else fam.grad_hess(family, Z, y, beta, phi, c_sum)
    )
    steps = 0
    note = None
    for _ in range(k):
        try:
            sol = cho_factor_solve(hess, grad)[1]
        except NotConcaveAtExpansion:
            note = "curvature lost during refinement"
            break
        candidate = beta - sol
        if not np.all(np.isfinite(candidate)):
            note = "refinement step diverged"
            break
        beta = candidate
        steps += 1
        value, grad, hess = fam.grad_hess(family, Z, y, beta, phi, c_sum)
    diag = {"steps_taken": steps}
    if note:
        diag["note"] = note
    if not np.isfinite(value):
        return MarginalScore(-np.inf, f"ala-refined({k})", beta, diag)
    prec, logdet_p0 = cache.block_prior.precision(cols, prior.g, phi)
    score = ala_general(
        -value, grad, hess, prec, theta0=beta, prior_logdet=logdet_p0,
        method=f"ala-refined({k})",
    )
    score.diagnostics.update(diag)
    return score


def exact_gaussian_marginal(
    model: ModelId,
    cache: SuffStatsCache,
    family: fam.FamilySpec,
    prior: ParamPriorSpec,
) -> MarginalScore:
    """Exact Gaussian marginal likelihood through the n-dimensional
    observation covariance.

    Marginalizes the coefficients analytically: y is Normal with covariance
    ``phi (I + sum_j (g n / p_j) Z_j A_j^{-1} Z_j')``.  With unknown
    dispersion the inverse-gamma prior integrates to a multivariate-t form.
    Cost grows with n cubed; intended as a reference, not a search engine.
    """
    if family.kind != "gaussian":
        raise ValueError("exact marginal is available for the gaussian family")
    if prior.kind != "gzellner":
        raise ValueError("exact marginal expects the block Zellner prior")
    log_ml, _ = _normal_kernel_marginal(model, cache, family, prior, 0, "marginal")
    return MarginalScore(float(log_ml), "exact-gaussian", np.empty(0), {})


def _normal_kernel_marginal(model, cache, family, prior, shift, what):
    """Log marginal likelihood of a gaussian response whose coefficient
    groups are Normal with covariance ``phi g n / (p_j + shift)`` times the
    inverse Gram block (shift 0 is the block Zellner prior, 2 the kernel of
    the product-moment prior), through the n x n ``what`` covariance, with
    the dispersion known or inverse-gamma; returns it and ``y' C^-1 y``."""
    # The references import scipy where they use it, so that a run of the
    # fast engines loads none.
    import scipy.linalg

    y = cache.y
    n = cache.n
    cov = np.eye(n)
    for j in model.active_groups:
        start, stop = cache.design.groups[j]
        zj = cache.design.values[:, start:stop]
        ainv_zt = np.linalg.solve(zj.T @ zj, zj.T)
        cov += (prior.g * n / (stop - start + shift)) * (zj @ ainv_zt)
    factor = cholesky(cov, NotInvertible, f"{what} covariance")
    half = scipy.linalg.solve_triangular(factor, y, lower=True)
    quad = float(half @ half)
    logdet = chol_logdet(factor)
    if family.phi_known:
        phi = float(family.phi)
        log_ml = -0.5 * n * (_LOG_2PI + np.log(phi)) - 0.5 * logdet - 0.5 * quad / phi
        return log_ml, quad
    a, b = prior.phi_prior_required()
    log_ml = (
        -0.5 * n * _LOG_2PI
        - 0.5 * logdet
        + a * np.log(b)
        - gammaln(a)
        + gammaln(a + 0.5 * n)
        - (a + 0.5 * n) * np.log(b + 0.5 * quad)
    )
    return log_ml, quad


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
    # scipy.spatial and scipy.fft, which no ``select`` run needs.
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
    model: ModelId,
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
    phi = float(family.phi)
    y = cache.y
    n = cache.n
    if model.p_gamma:
        xtx, _ = submodel_stats(cache, model)
        off = np.array(xtx, copy=True)
        offset = 0
        for j in model.active_groups:
            pj = int(cache.design.group_sizes[j])
            off[offset : offset + pj, offset : offset + pj] = 0.0
            offset += pj
        scale = float(np.max(np.abs(np.diag(xtx)))) or 1.0
        if float(np.max(np.abs(off))) > 1e-8 * scale:
            raise ValueError("active groups are not mutually orthogonal")
    base = -0.5 * n * (_LOG_2PI + np.log(phi)) - 0.5 * float(y @ y) / phi
    total = base
    g = prior.g
    for j in model.active_groups:
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
    model: ModelId,
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
    """
    import scipy.linalg

    if family.kind != "gaussian":
        raise ValueError("the Monte Carlo reference expects the gaussian family")
    if prior.kind != "gmom":
        raise ValueError("the Monte Carlo reference expects the product-moment prior")
    if rng is None:
        rng = np.random.default_rng(0)
    n = cache.n
    g = prior.g
    p = model.p_gamma
    log_kernel, quad = _normal_kernel_marginal(
        model, cache, family, prior, 2, "kernel marginal"
    )
    if p == 0:
        return MarginalScore(float(log_kernel), "mc", np.empty(0), {"mc_se_log": 0.0})
    xtx, xty = submodel_stats(cache, model)
    m_prec = np.array(xtx, copy=True)
    offset = 0
    for j in model.active_groups:
        start, stop = cache.design.groups[j]
        pj = stop - start
        sl = slice(offset, offset + pj)
        block = cache.gram.block(np.arange(start, stop))
        m_prec[sl, sl] += ((pj + 2) / (g * n)) * block
        offset += pj
    m_factor = cholesky(m_prec, NotInvertible, "kernel posterior precision")
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
    log_pen = np.zeros(n_draws)
    offset = 0
    for j in model.active_groups:
        start, stop = cache.design.groups[j]
        pj = stop - start
        sl = slice(offset, offset + pj)
        offset += pj
        block = cache.gram.block(np.arange(start, stop))
        coef = (pj + 2) / (n * pj * g)
        quad_j = np.einsum("mi,ij,mj->m", draws[:, sl], block, draws[:, sl])
        log_pen += np.log(coef * quad_j / phi_draws)
    log_mean = float(logsumexp(log_pen) - np.log(n_draws))
    pen = np.exp(log_pen - log_pen.max())
    se_rel = float(np.std(pen) / (np.mean(pen) * np.sqrt(n_draws)))
    return MarginalScore(
        float(log_kernel + log_mean),
        "mc",
        mean,
        {"mc_se_log": se_rel, "n_draws": n_draws},
    )


# ---------------------------------------------------------------------------
# survival scoring


@dataclass
class AftContext:
    """Shared statistics for scoring survival models at ``(0, tau0)``.

    ``tau0`` maximizes the covariate-free likelihood, where the gradient in
    tau vanishes.  The censoring weights are model independent there, so the
    curvature of every sub-model assembles from one weighted Gram; the
    coefficient prior is built on the unweighted one.
    """

    design: DesignMatrix
    data: fam.SurvivalData
    tau0: float
    l0: float
    wgram: Gram
    block_prior: BlockPrior
    ztv: np.ndarray
    ztyw: np.ndarray
    h_tt: float

    @property
    def n(self) -> int:
        return self.design.n


def build_aft_context(design: DesignMatrix, data: fam.SurvivalData) -> AftContext:
    # only survival scoring needs scipy's normal tails
    from scipy.special import log_ndtr

    if data.n != design.n:
        raise ValueError("survival data length does not match the design")
    tau0 = fam.aft_tau0(data)
    obs = data.observed
    y = data.log_time
    yo, yc = y[obs], y[~obs]
    n_o = yo.shape[0]
    weights = np.ones(design.n)
    weights[~obs] = fam.log_ndtr_curvature(-tau0 * yc)
    v = np.empty(design.n)
    v[obs] = tau0 * yo
    v[~obs] = fam.mills_ratio(-tau0 * yc)
    l0 = (
        -0.5 * n_o * _LOG_2PI
        + n_o * np.log(tau0)
        - 0.5 * tau0**2 * float(yo @ yo)
        + float(np.sum(log_ndtr(-tau0 * yc)))
    )
    weighted = design.values * np.sqrt(weights)[:, None]
    return AftContext(
        design=design,
        data=data,
        tau0=tau0,
        l0=float(l0),
        wgram=Gram(weighted),
        block_prior=BlockPrior(design, Gram(design.values)),
        ztv=design.values.T @ v,
        ztyw=design.values.T @ (y * weights),
        h_tt=float(n_o / tau0**2 + yo @ yo + (yc * yc) @ weights[~obs]),
    )


def ala_aft(
    model: ModelId, ctx: AftContext, prior: ParamPriorSpec
) -> MarginalScore:
    """Zero-expansion survival score with the prior density at the update.

    Expands the survival log-likelihood at ``(alpha, tau) = (0, tau0)``; the
    scale prior is not Normal, so the prior density is evaluated at the
    implied update point (``ala_plugin``).  The null model is the
    one-parameter case.
    """
    if prior.kind != "gzellner":
        raise ValueError("survival scoring expects the block Zellner prior")
    a, b = prior.phi_prior_required()
    p = model.p_gamma
    cols = ctx.design.columns_for(model.key)
    hess = np.empty((p + 1, p + 1))
    hess[:p, :p] = ctx.wgram.block(cols)
    hess[:p, p] = hess[p, :p] = -ctx.ztyw[cols]
    hess[p, p] = ctx.h_tt
    grad = np.zeros(p + 1)
    grad[:p] = -ctx.ztv[cols]
    theta0 = np.zeros(p + 1)
    theta0[p] = ctx.tau0

    def log_prior(theta):
        return ctx.block_prior.log_density(
            theta[:p], cols, prior.g
        ) + log_tau_prior(theta[p], a, b)

    score = ala_plugin(
        ctx.l0, grad, hess, log_prior, theta0, "ala", "survival curvature"
    )
    score.diagnostics.update(tau0=ctx.tau0, tau_tilde=float(score.expansion[p]))
    return score


def la_aft(
    model: ModelId,
    ctx: AftContext,
    prior: ParamPriorSpec,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> MarginalScore:
    """Mode-expansion survival score via damped Newton on the log joint."""
    if prior.kind != "gzellner":
        raise ValueError("survival scoring expects the block Zellner prior")
    a, b = prior.phi_prior_required()
    p = model.p_gamma
    cols = ctx.design.columns_for(model.key)
    Z = ctx.design.values[:, cols]
    fam.aft_concavity_check(Z, ctx.data)
    prec, logdet = ctx.block_prior.precision(cols, prior.g)
    prior_const = (
        -a * np.log(b) + gammaln(a) - np.log(2.0) + 0.5 * (p * _LOG_2PI - logdet)
    )

    def objective(theta):
        alpha, tau = theta[:p], theta[p]
        ll, g_ll, h_ll = fam.aft_loglik_grad_hess(Z, ctx.data, alpha, tau)
        value = (
            -ll
            + 0.5 * float(alpha @ prec @ alpha)
            - (2.0 * a - 1.0) * np.log(tau)
            + b * tau * tau
            + prior_const
        )
        grad = -g_ll
        grad[:p] += prec @ alpha
        grad[p] += -(2.0 * a - 1.0) / tau + 2.0 * b * tau
        hess = -h_ll
        hess[:p, :p] += prec
        hess[p, p] += (2.0 * a - 1.0) / tau**2 + 2.0 * b
        return value, grad, hess

    theta0 = np.concatenate([np.zeros(p), [ctx.tau0]])
    theta, value, grad, hess, trace = _damped_newton(
        objective, theta0, tol=tol, max_iter=max_iter, positive=(p,)
    )
    factor = cholesky(hess, NotConcave, "curvature at the mode")
    log_ml = -value + 0.5 * (p + 1) * _LOG_2PI - 0.5 * chol_logdet(factor)
    return MarginalScore(
        float(log_ml), "la", theta, _newton_diagnostics(trace, grad, True)
    )


# ---------------------------------------------------------------------------
# the scorer used by the search routines


def _parse_method(method: str) -> tuple[str, Optional[int]]:
    if method.startswith("ala-refined"):
        inner = method[len("ala-refined") :]
        if inner.startswith("(") and inner.endswith(")"):
            return "ala-refined", int(inner[1:-1])
        if inner == "":
            return "ala-refined", None
        raise ValueError(f"cannot parse method {method!r}")
    return method, None


# Each engine takes the scorer and one ModelId; a batched engine takes the
# scorer and a (B, J) bit matrix.


def _ala_known_phi(s, m):
    return ala_expfam_known_phi(m, s.cache, s.family, s.prior, s.curvature, s.variant)


def _ala_unknown_phi(s, m):
    return ala_expfam_unknown_phi(m, s.cache, s.family, s.prior)


def _ala_gmom(s, m):
    return ala_gmom(m, s.cache, s.family, s.prior, s.curvature)


def _ala_refined(s, m):
    return ala_refined(m, s.cache, s.family, s.prior, k=s.refine_steps)


def _la(s, m):
    return la_marginal(m, s.cache, s.family, s.prior)


def _exact_gaussian(s, m):
    return exact_gaussian_marginal(m, s.cache, s.family, s.prior)


def _ala_aft(s, m):
    return ala_aft(m, s.cache, s.prior)


def _la_aft(s, m):
    return la_aft(m, s.cache, s.prior)


def _ala_many(s, bits):
    return ala_known_phi_many(bits, s.cache, s.family, s.prior, s.curvature)


def _la_many(s, bits):
    return la_known_phi_many(bits, s.cache, s.family, s.prior)


# (statistics, method, prior kind, dispersion known) -> (engine, batched
# engine or None).  The statistics are "expfam" for the exponential families
# other than the gaussian, "gaussian", and "aft" for survival data.
_ENGINES = {
    ("expfam", "ala", "gzellner", True): (_ala_known_phi, _ala_many),
    ("expfam", "ala-curvadj", "gzellner", True): (_ala_known_phi, _ala_many),
    ("expfam", "ala", "gmom", True): (_ala_gmom, _ala_many),
    ("expfam", "ala-curvadj", "gmom", True): (_ala_gmom, _ala_many),
    ("expfam", "ala-refined", "gzellner", True): (_ala_refined, None),
    ("expfam", "la", "gzellner", True): (_la, _la_many),
}
# The gaussian family has every engine of the others, its unknown-dispersion
# form, and two engines that need a quadratic log-likelihood: the conjugate
# closed form, and the product-moment score at the mode, which is the
# zero-expansion score because the expansion is exact.
_ENGINES.update({("gaussian", *key[1:]): entry for key, entry in _ENGINES.items()})
_ENGINES.update(
    {
        ("gaussian", "ala", "gzellner", False): (_ala_unknown_phi, None),
        ("gaussian", "ala", "gmom", False): (_ala_gmom, None),
        ("gaussian", "la", "gzellner", False): (_la, None),
        ("gaussian", "la", "gmom", True): (_ala_gmom, None),
        ("gaussian", "la", "gmom", False): (_ala_gmom, None),
        ("gaussian", "exact-gaussian", "gzellner", True): (_exact_gaussian, None),
        ("gaussian", "exact-gaussian", "gzellner", False): (_exact_gaussian, None),
        ("aft", "ala", "gzellner", False): (_ala_aft, None),
        ("aft", "la", "gzellner", False): (_la_aft, None),
    }
)


def _unsupported(kind: str, method: str, prior_kind: str) -> str:
    """Why no entry of ``_ENGINES`` scores this combination."""
    if kind == "aft":
        if method in ("ala", "la"):
            return "survival scoring expects the block Zellner prior"
        return f"unknown survival method {method!r}"
    if method == "ala-curvadj":
        return "curvature adjustment needs a known dispersion"
    if prior_kind == "gmom":
        if method == "la":
            return (
                "mode expansion with the product-moment prior is supported "
                "for the gaussian family only"
            )
        return f"method {method!r} is unavailable for this prior"
    if method == "exact-gaussian":
        return "exact marginal is available for the gaussian family"
    if method == "ala-refined":
        return "refined scoring expects a known dispersion"
    return f"unknown method {method!r}"


class ModelScorer:
    """Memoizing per-model scorer for regression and survival models.

    ``cache`` holds the per-dataset statistics: a ``SuffStatsCache`` for
    the regression families, or an ``AftContext`` with ``family=None`` for
    survival data (see ``AftScorer``).  The engine is chosen once, here,
    from ``_ENGINES``; a combination that no engine scores, or a model
    prior whose group count or intercept group differs from the design's,
    raises ``ValueError``.  ``log_score`` adds the unnormalized model prior
    to the marginal score, which is what the enumeration and Gibbs routines
    need.
    """

    def __init__(
        self,
        cache: SuffStatsCache | AftContext,
        family: Optional[fam.FamilySpec],
        prior: ParamPriorSpec,
        model_prior: Optional[ModelPriorSpec] = None,
        method: str = "ala",
        refine_steps: int = 1,
        variant: str = "exact-normal",
    ):
        design = cache.design
        if model_prior is not None and (
            (model_prior.n_groups, model_prior.intercept_group)
            != (design.n_groups, design.intercept_group)
        ):
            raise ValueError("the model prior's groups differ from the design's")
        name, parsed_k = _parse_method(method)
        if isinstance(cache, AftContext):
            key = ("aft", name, prior.kind, False)
        else:
            kind = "gaussian" if family.kind == "gaussian" else "expfam"
            key = (kind, name, prior.kind, family.phi_known)
        entry = _ENGINES.get(key)
        if entry is None:
            raise ValueError(_unsupported(*key[:3]))
        self._engine, many = entry
        # the batched kernel integrates the Normal prior exactly
        self._many = many if variant == "exact-normal" else None
        self.cache = cache
        self.family = family
        self.prior = prior
        self.model_prior = model_prior
        self.method = name
        self.refine_steps = parsed_k if parsed_k is not None else refine_steps
        self.variant = variant
        self.curvature: Optional[CurvatureContext] = None
        if name == "ala-curvadj":
            self.curvature = curvature_context(cache, family)
        self._memo: dict[bytes, MarginalScore] = {}

    @property
    def design(self) -> DesignMatrix:
        return self.cache.design

    def marginal(self, bits) -> MarginalScore:
        """The memoized score of one model, given as a key (see
        ``model_key``), a ``ModelId`` or a bit sequence."""
        key = model_key(bits)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = self._engine(self, self.cache.design.model(key))
        return found

    def log_ml(self, bits) -> float:
        return self.marginal(bits).log_ml

    def log_score(self, bits) -> float:
        key = model_key(bits)
        value = self.marginal(key).log_ml
        if self.model_prior is not None:
            value += log_model_prior_unnorm(key, self.model_prior)
        return float(value)

    def score_many(self, models) -> np.ndarray:
        """``[log_score(m) for m in models]`` as an array, filling the memo.

        ``models`` is a (B, J) 0/1 matrix, one model per row, or a sequence
        of models in any form ``log_score`` takes.  Where the engine has a
        batched form, the models not yet memoized are scored in one batch
        straight from their bit matrix: known-dispersion ``ala``/
        ``ala-curvadj`` with the exact Normal integral by stacked
        bordered factorizations (``ala_known_phi_many``, whose stack
        scores a lone model too), and known-dispersion ``la`` by stacked
        Newton runs (``la_known_phi_many``); other methods score one
        model at a time.  Either way every model then passes
        through one ``log_score`` call.  When the batch fails, the models
        are rescored one at a time, so the error comes from the same first
        model as the loop's.
        """
        n_groups = self.design.n_groups
        if isinstance(models, np.ndarray):
            bits = np.ascontiguousarray(models, dtype=bool).view(np.uint8)
            if bits.ndim != 2 or bits.shape[1] != n_groups:
                raise ValueError("bit vector length does not match the group count")
            keys = bits.view(f"V{n_groups}").ravel().tolist()
        else:
            keys = [model_key(m) for m in models]
        if self._many is not None:
            todo = [key for key in dict.fromkeys(keys) if key not in self._memo]
            batch = np.frombuffer(b"".join(todo), dtype=np.uint8)
            intercept = self.design.intercept_group
            # malformed keys, and models without the intercept group, are
            # left to log_score, which raises on the first of them
            if (
                todo
                and all(len(key) == n_groups for key in todo)
                and batch.max() <= 1
                and (intercept is None or batch[intercept::n_groups].all())
            ):
                try:
                    scores = self._many(self, batch.reshape(len(todo), n_groups))
                except (np.linalg.LinAlgError, SelectionError):
                    pass
                else:
                    self._memo.update(zip(todo, scores))
        return np.array([self.log_score(key) for key in keys], dtype=np.float64)

    @property
    def n_scored(self) -> int:
        """Distinct models whose marginal this scorer has computed."""
        return len(self._memo)

    def diagnostic_sum(self, key: str) -> float:
        """Sum of one per-model diagnostic over the models scored so far."""
        return sum(score.diagnostics.get(key, 0) for score in self._memo.values())


def AftScorer(
    ctx: AftContext,
    prior: ParamPriorSpec,
    model_prior: Optional[ModelPriorSpec] = None,
    method: str = "ala",
) -> ModelScorer:
    """``ModelScorer`` for survival models: ``method="ala"`` expands at
    ``(0, tau0)`` (``ala_aft``), ``"la"`` at the posterior mode
    (``la_aft``)."""
    return ModelScorer(ctx, None, prior, model_prior, method)
