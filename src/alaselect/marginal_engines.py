"""Approximate and exact marginal-likelihood engines.

The default engine integrates a quadratic expansion of the log-likelihood
against a Normal coefficient prior in closed form.  Expanded at the
posterior mode this is the Laplace approximation; expanded at zero it gives
a fast score whose per-model cost, read from the cached cross products,
does not grow with the sample size.  Product-moment priors reuse
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
    """One model's log marginal likelihood with how it was obtained: the
    method, the expansion point and the engine's diagnostics.  A scorer
    builds one only when ``ModelScorer.marginal`` asks for it."""

    log_ml: float
    method: str
    expansion: np.ndarray
    diagnostics: dict = field(default_factory=dict)


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


def _at_zero(cache: SuffStatsCache, family: fam.FamilySpec, phi: float, cols):
    """Negative log-likelihood, gradient and Hessian at beta = 0, read from
    the cache: ``-l(0)``, ``-(b''(0)/phi) Z'ytilde`` and ``(b''(0)/phi) Z'Z``.
    ``cols`` may be a (B, k) stack of column lists.

    None unless the cache is centered at zero for this family's cumulant.
    """
    if cache.nu0 != 0.0 or not cache.transform_tag.startswith(f"{family.kind}:"):
        return None
    w = cache.bpp_nu0 / phi
    return (
        -_loglik_at_center(cache, family, phi),
        -w * cache.zty[cols],
        w * cache.gram.block(cols),
    )


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


# Upper bound on the B * k * k entries of one stacked solve or one stacked
# Newton run (models padded to the largest k), so that enumerating a large
# space never allocates more than a few tens of megabytes at once.  A
# stacked Newton run's data pass adds at most ``_LA_WORK`` arrays of
# ``_LA_BLOCK`` doubles, whatever n.
_STACK_ENTRIES = 1 << 20


def _stacked(stack):
    """The row engine of ``stack(scorer, cols, records)``, which scores the
    models whose (B, k) column lists are ``cols``: the rows of a (B, J)
    ``uint8`` 0/1 matrix are split by dimension into stacks of at most
    ``_STACK_ENTRIES`` Gram entries, and each stack's log marginal
    likelihoods, and its ``MarginalScore``s when it builds them (for
    ``records`` or always), are written by row index.  A stack's rows
    depend on their own models alone, so a model scores bitwise the same in
    any batch."""

    def engine(s, bits, records):
        col_mask = bits.view(bool)[:, s.design.col_group]
        if col_mask.shape[0] == 1:
            # a lone model, the miss of a search step
            return stack(s, np.flatnonzero(col_mask[0])[None], records)
        p_gamma = col_mask.sum(axis=1)
        # one pass: the rows by dimension, in order within one, and their columns
        order = np.argsort(p_gamma, kind="stable")
        flat = np.nonzero(col_mask[order])[1]
        log_ml, scores = np.empty(col_mask.shape[0]), None
        first = at = 0
        for k, count in enumerate(np.bincount(p_gamma).tolist()):
            rows, cols = order[first : first + count], flat[at : at + count * k]
            cols, first, at = cols.reshape(count, k), first + count, at + count * k
            step = max(1, _STACK_ENTRIES // max(k * k, 1))
            for lo in range(0, count, step):
                chunk = rows[lo : lo + step]
                log_ml[chunk], made = stack(s, cols[lo : lo + step], records)
                if made:
                    scores = scores or [None] * len(order)
                    for i, score in zip(chunk.tolist(), made):
                        scores[i] = score
        return log_ml, scores

    return engine


def _laplace_finish(value, grad, hess, logdet_p0, exc, what):
    """``-value + log det P0 / 2 - log det H / 2 + g'H^-1 g / 2`` for each
    model of a stack: the integral over the coefficients d of the
    expansion ``value + g'd + d'Hd / 2`` of its negative log joint
    (``value``, ``grad``, ``hess``), whose Normal prior's precision has the
    log determinant ``logdet_p0``; at a mode, the Laplace score.  Returns
    it with ``g'H^-1 g`` and the factor of one stacked
    ``bordered_cholesky``, which raises ``exc`` about ``what`` when an H is
    not positive definite."""
    logdet_h, quad, factor = bordered_cholesky(hess, grad, exc, what)
    return -value + 0.5 * logdet_p0 - 0.5 * logdet_h + 0.5 * quad, quad, factor


def _bordered_inverse(factor):
    """The rows ``R`` of ``_laplace_finish``'s bordered factors that give
    the expansion and second moment of each model's coefficient posterior:
    with its corner set to 1, the factor's transpose ``[[L', L^-1 g],
    [0, 1]]`` has the inverse ``[[L^-T, beta], [0, 1]]``, beta = -H^-1 g;
    its first k rows R, found by one stacked back substitution from the
    last up, hold beta in their last column and give ``H^-1 + beta beta' =
    R R'``.  Overwrites the factor's corner."""
    k = factor.shape[-1] - 1
    factor[:, k, k] = 1.0
    head = np.broadcast_to(np.eye(k + 1), factor.shape).copy()
    for i in range(k - 1, -1, -1):
        head[:, i] -= np.einsum("bl,blc->bc", factor[:, i + 1 :, i], head[:, i + 1 :])
        head[:, i] /= factor[:, i, i, None]
    return head[:, :k]


@_stacked
def _known_phi_ala(s, cols, records):
    """The known-dispersion ``ala`` engine: zero-expansion scores under the
    block Zellner prior, or under the product-moment prior with the log
    posterior expectation of its penalty (the tilt), the likelihood
    curvature scaled by the scorer's curvature adjustment when it has one.
    ``log det H`` and ``g' H^-1 g`` come from one stacked bordered Cholesky
    factorization; the tilt's posterior moments and the expansion
    ``-H^-1 g`` from one stacked back substitution, which the block Zellner
    score runs only for ``records``.  Raises ``NotConcaveAtExpansion`` when
    a joint curvature is not positive definite and ``NotInvertible`` when a
    group's Gram block is singular."""
    cache, prior = s.cache, s.prior
    gmom = prior.kind == "gmom"
    phi = float(s.family.phi)
    w = cache.bpp_nu0 / phi
    rho = s.curvature.rho_hat if s.curvature is not None else 1.0
    xtx = cache.gram.block(cols)
    prec, logdet_p0 = cache.block_prior.precision(
        cols, prior.g, phi, 2 if gmom else 0, xtx
    )
    log_ml, quad, factor = _laplace_finish(
        -_loglik_at_center(cache, s.family, phi),
        -w * cache.zty[cols],
        (rho * w) * xtx + prec,
        logdet_p0,
        NotConcaveAtExpansion,
        "joint curvature",
    )
    if not (gmom or records):
        return log_ml, None
    k = cols.shape[1]
    head = _bordered_inverse(factor)
    name, extra = "quad", quad
    if gmom:
        moment = head @ head.transpose(0, 2, 1) / phi
        extra = cache.block_prior.log_penalty(cols, moment, prior.g, xtx)
        name, log_ml = "tilt", log_ml + extra
    if not records:
        return log_ml, None
    method = "ala-gmom" if gmom else "ala"
    if s.curvature is not None:
        method += "-curvadj"
    rows = zip(log_ml.tolist(), head[:, :, k], extra.tolist())
    return log_ml, [
        MarginalScore(lm, method, beta, {"phi": phi, "rho_hat": rho, name: value})
        for lm, beta, value in rows
    ]


@_stacked
def _scale_plugin(s, cols, records):
    """The zero expansion with the scale as a parameter, the prior density
    evaluated at the implied update (the plug-in score, which takes any
    prior density): the gaussian dispersion phi, expanded at ``(0, phi0)``,
    or the survival scale tau, at ``(0, tau0)``, where the null likelihood
    peaks.  The likelihood curvature bordered by the scale's row is factored
    and solved once per stack; the coefficient prior (block Zellner, or the
    product-moment kernel) and the scale's prior (inverse-gamma phi, or the
    tau it induces) are evaluated at the update, where a scale at or below
    zero scores -inf.  The volume term ``((k+1)/2) log 2 pi - log det H / 2``
    comes from the likelihood curvature alone.  Under the product-moment
    prior a finite score with coefficients adds ``_gmom_tilt``.  The null
    model is the one-parameter case.  Raises ``NotConcaveAtExpansion`` when
    a curvature is not positive definite."""
    m, k = cols.shape
    a, b = s.prior.phi_prior_required()
    shift = 2 if s.prior.kind == "gmom" else 0
    hess = np.empty((m, k + 1, k + 1))
    grad = np.zeros((m, k + 1))
    if isinstance(s.cache, AftContext):
        ctx = s.cache
        l0, scale0, names = ctx.l0, ctx.tau0, ("tau0", "tau_tilde")
        hess[:, :k, :k] = ctx.wgram.block(cols)
        hess[:, :k, k] = hess[:, k, :k] = -ctx.ztyw[cols]
        hess[:, k, k] = ctx.h_tt
        grad[:, :k] = -ctx.ztv[cols]
        # the coefficient prior, free of tau, gathers its unweighted Gram
        what, log_scale, xtx = "survival curvature", log_tau_prior, None
    else:
        st = _unknown_phi_stats(s.cache, s.family)
        l0, scale0, names = st["l0"], st["phi0"], ("phi0", "phi_tilde")
        xtx, xty = s.cache.gram.block(cols), s.cache.zty[cols]
        factor = st["bpp0"] / scale0
        hess[:, :k, :k] = factor * xtx
        hess[:, :k, k] = hess[:, k, :k] = factor * xty / scale0
        hess[:, k, k] = st["h_pp"]
        grad[:, :k] = -factor * xty
        what, log_scale = "joint (beta, phi) curvature", log_invgamma
    chol, step = cho_factor_solve(hess, grad[..., None], NotConcaveAtExpansion, what)
    step = step[..., 0]
    quad = np.einsum("bi,bi->b", grad, step)
    theta = -step
    theta[:, k] += scale0
    scale = theta[:, k]
    # the gaussian coefficient prior scales with phi; a stand-in replaces
    # a phi at or below zero, whose prior density is zero
    phi = 1.0 if xtx is None else np.where(scale > 0.0, scale, 1.0)[:, None]
    log_prior = s.cache.block_prior.log_density(
        theta[:, :k], cols, s.prior.g, phi, shift, xtx
    ) + log_scale(scale, a, b)
    log_ml = (
        l0 + 0.5 * quad + log_prior + 0.5 * (k + 1) * _LOG_2PI - 0.5 * chol_logdet(chol)
    )
    method, tilted = "ala", np.empty(0, dtype=np.intp)
    if shift and k:
        method, tilted = "ala-gmom", np.flatnonzero(np.isfinite(log_ml))
        if tilted.size:
            tilt, rbar = _gmom_tilt(s, cols[tilted], xtx[tilted], xty[tilted])
            log_ml[tilted] += tilt
    if not records:
        return log_ml, None
    rows = zip(log_ml.tolist(), theta, quad.tolist(), scale.tolist())
    scores = [
        MarginalScore(lm, method, th, {"quad": q, names[0]: scale0, names[1]: sc})
        for lm, th, q, sc in rows
    ]
    if tilted.size:
        for r, t, rb in zip(tilted.tolist(), tilt.tolist(), rbar.tolist()):
            scores[r].diagnostics.update(tilt=t, rbar=rb)
    return log_ml, scores


def _gmom_tilt(s, cols, xtx, xty):
    """The log posterior expectation of the product-moment penalty of the
    gaussian family with an unknown dispersion, from the exact moments of
    the kernel posterior, and the posterior mean ``rbar`` of 1/phi they
    use, for a stack of models whose joint curvature is positive
    definite."""
    a, b = s.prior.phi_prior_required()
    m, k = cols.shape
    kernel, _ = s.cache.block_prior.precision(cols, s.prior.g, 1.0, 2, xtx)
    _, shape = cho_factor_solve(xtx + kernel, np.broadcast_to(np.eye(k), (m, k, k)))
    mean = (shape @ xty[..., None])[..., 0]
    # X'X is positive definite here: it leads the joint curvature factored
    quad = bordered_cholesky(xtx, xty, NotInvertible, "Gram block")[1]
    rbar = (a + s.cache.n) / (b + s.cache.yty - quad)
    moment = shape + rbar[:, None, None] * (mean[:, :, None] * mean[:, None, :])
    return s.cache.block_prior.log_penalty(cols, moment, s.prior.g, xtx), rbar


# The Newton rule of every ``la`` engine: a model stops once its largest
# gradient entry is at most ``_NEWTON_TOL``, and fails after
# ``_NEWTON_MAX_ITER`` accepted steps or ``_LINE_SEARCH_HALVINGS`` tries of
# one line search.
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100
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


def _gathered(stack):
    """The ``_stacked`` engine of ``stack(scorer, cols, zs, records)``, which
    evaluates model r of a stack alone, on its gathered design columns
    ``zs[r]``, and returns ``MarginalScore``s when it builds them.
    A stack runs as runs of rows whose columns hold at most ``_LA_BLOCK //
    2`` doubles (one model at least), each gathered once and passed to one
    ``stack`` call: one Newton run and one finish per run.  A run holds
    one model alone once n k > ``_LA_BLOCK // 4`` for k columns (n > 8192
    at k = 1, n > 2048 at k = 4)."""

    def run(s, cols, records):
        values = s.design.values
        step = max(1, _LA_BLOCK // max(2 * values.shape[0] * cols.shape[1], 1))
        if cols.shape[0] <= step:
            return stack(s, cols, [values[:, c] for c in cols], records)
        runs = [cols[lo : lo + step] for lo in range(0, cols.shape[0], step)]
        made = [stack(s, run, [values[:, c] for c in run], records) for run in runs]
        scores = None if made[0][1] is None else [r for _, got in made for r in got]
        return np.concatenate([log_ml for log_ml, _ in made]), scores

    return _stacked(run)


def _triples(triples):
    """The stacked ``(value, grad, hess)`` of one such triple per model; a
    lone model's arrays are viewed as a stack of one."""
    value, grad, hess = zip(*triples)
    if len(value) == 1:
        return np.array(value), grad[0][None], hess[0][None]
    return np.array(value), np.array(grad), np.array(hess)


def _newton_rows(joint, zs, theta, lik=None, positive=None):
    """One ``_stacked_newton`` run on one run of a stack (``_gathered``),
    each model evaluated alone: ``joint(r, zs[r], theta, lik)`` is model
    r's negative log joint with its gradient and Hessian at ``theta``, from
    its columns ``zs[r]`` or its likelihood's triple ``lik``.  ``lik`` is
    the run's likelihood at the start (one value, gradient and Hessian per
    model) when the caller has it; coordinate ``positive`` (the scale) is
    kept positive.  Returns the final ``(theta, value, grad, hess)`` and
    each model's diagnostics: accepted steps, evaluations, gradient norm."""

    def objective(live, theta):
        return _triples(joint(r, zs[r], t) for r, t in zip(live.tolist(), theta))

    if lik is not None:
        value, grad, hess = lik
        rows = enumerate(zip(theta, grad, hess))
        lik = _triples(joint(r, None, t, (value, g, h)) for r, (t, g, h) in rows)
    sizes = np.full(theta.shape[0], theta.shape[1])
    theta, value, grad, hess, its, evals = _stacked_newton(objective, theta, lik, sizes, positive)
    keys, norms = ("iterations", "evaluations", "grad_norm"), np.abs(grad).max(axis=1)
    rows = zip(its.tolist(), evals.tolist(), norms.tolist())
    return theta, value, grad, hess, [dict(zip(keys, row)) for row in rows]


@_gathered
def _la_known_phi(s, cols, zs, records):
    """Laplace scores under a known dispersion and the block Zellner prior:
    each model expanded at its posterior mode, found by the Newton rule on
    its negative log joint from zero coefficients, where a zero-centered
    cache supplies the first evaluation without a pass over the data.  The
    null model scores its likelihood at zero.  Raises ``NoConvergence`` if
    a gradient does not drop below ``_NEWTON_TOL``."""
    cache, family = s.cache, s.family
    phi = float(family.phi)
    m, p = cols.shape
    if p == 0:
        l0 = _loglik_at_center(cache, family, phi)
        return np.full(m, l0), [
            MarginalScore(l0, "la", np.empty(0), {"iterations": 0, "evaluations": 0})
            for _ in range(m)
        ]
    y, c_sum = cache.y, _c_sum(cache, family, phi)
    prec, logdet_p0 = cache.block_prior.precision(cols, s.prior.g, phi)

    def joint(r, z, beta, lik=None):
        value, g, h = fam.grad_hess(family, z, y, beta, phi, c_sum) if lik is None else lik
        prec_r = prec[r]
        pb = prec_r @ beta
        return value + 0.5 * float(beta @ pb), g + pb, h + prec_r

    at_zero = _at_zero(cache, family, phi, cols)
    theta, value, grad, hess, diagnostics = _newton_rows(joint, zs, np.zeros((m, p)), at_zero)
    log_ml, _, _ = _laplace_finish(
        value, grad, hess, logdet_p0, NotConcave, "curvature at the mode"
    )
    rows = zip(log_ml.tolist(), theta, diagnostics)
    return log_ml, [MarginalScore(lm, "la", mode, diag) for lm, mode, diag in rows]


# Doubles in one working array of a stacked evaluation (live models, or a
# row of ones with the union's columns and their pair products, times one
# block's observations), and a bound on the arrays alive at once in one
# evaluation: the block's buffer, predictor, cumulant with two derivatives
# and temporaries, and residual and product (freed before the next block's
# are made), and the block sums.  Measured (tracemalloc, n = 20 000,
# logistic/poisson): 5.93/3.54 at 255 models on 8 singletons, 9.51/7.68 at
# 256 of 3 over 21.
_LA_BLOCK = 1 << 15
_LA_WORK = 10


def la_known_phi_many(s, bits: np.ndarray, records: bool):
    """The known-dispersion ``la`` engine: Laplace scores of the rows of the
    (B, J) ``uint8`` 0/1 matrix ``bits``, as the (B,) log marginal
    likelihoods and the ``MarginalScore``s, which it builds whatever
    ``records`` asks.  The models with columns run ``_stacked_newton`` as
    padded stacks over the pair products of their union (``_la_stack``,
    ``_la_stacks``); the null model, and each model the split leaves alone,
    go in one batch to ``_la_known_phi``, which evaluates each model on its
    own columns.  Each model takes the iterates, evaluations and stopping
    decisions it takes alone, up to rounding, and a batch raises what its
    first failing stack raises.
    """
    col_mask = bits.view(bool)[:, s.design.col_group]
    p_gamma = col_mask.sum(axis=1)
    out: list[Optional[MarginalScore]] = [None] * bits.shape[0]
    alone = [np.flatnonzero(p_gamma == 0)]
    for rows, union in _la_stacks(np.flatnonzero(p_gamma), col_mask, p_gamma):
        if rows.shape[0] > 1:
            scores = _la_stack(s.cache, s.family, s.prior, col_mask[rows], union)
            for i, score in zip(rows.tolist(), scores):
                out[i] = score
        else:
            alone.append(rows)
    alone = np.concatenate(alone)
    if alone.size:
        for i, score in zip(alone.tolist(), _la_known_phi(s, bits[alone], True)[1]):
            out[i] = score
    return np.array([score.log_ml for score in out]), out


def _la_stacks(members: np.ndarray, col_mask: np.ndarray, sizes: np.ndarray):
    """Split the models ``members`` into in-order runs of at most
    ``cap = _LA_BLOCK // 128`` models, halving a run while its B K^2 padded
    curvature entries overflow ``_STACK_ENTRIES``, and into single models
    a run whose union of u columns has 1 + u + u(u+1)/2 > cap block rows
    (ones, columns and pair products, which each model of a stack pays
    for; u > 21, as without the ones).  So no block of a stacked
    evaluation is shorter than 128 observations.  Yields ``(rows,
    union)``."""
    cap = max(1, _LA_BLOCK // 128)
    lo = 0
    while lo < members.shape[0]:
        rows = members[lo : lo + cap]
        while len(rows) > 1 and len(rows) * sizes[rows].max() ** 2 > _STACK_ENTRIES:
            rows = rows[: len(rows) // 2]
        union = np.flatnonzero(col_mask[rows].any(axis=0))
        if 1 + union.shape[0] * (union.shape[0] + 3) // 2 <= cap:
            yield rows, union
        else:
            yield from ((one, None) for one in rows[:, None])
        lo += len(rows)


def _la_stack(cache, family, prior, mask, union):
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
    # column u of the stacked objective is the padded coordinates' zero column
    pos = np.full((m, big), u)
    prec, logdet_p0 = np.zeros((m, big, big)), np.empty(m)
    value, grad, hess = np.empty(m), np.zeros((m, big)), np.zeros((m, big, big))
    for k in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == k)
        where = np.nonzero(mask[sel][:, union])[1].reshape(sel.shape[0], k)
        pos[sel, :k] = where
        cols = union[where]
        prec[sel, :k, :k], logdet_p0[sel] = cache.block_prior.precision(
            cols, prior.g, phi
        )
        prec[sel, k:, k:] = np.eye(big - k)
        at_zero = _at_zero(cache, family, phi, cols)
        if at_zero is not None:
            value[sel], grad[sel, :k], hess[sel, :k, :k] = at_zero
    first = None if at_zero is None else (value, grad, np.add(hess, prec, out=hess))
    objective = _stacked_objective(cache, family, phi, union, pos, prec)
    theta, value, grad, hess, iterations, evaluations = _stacked_newton(
        objective, np.zeros((m, big)), first, sizes
    )
    log_ml, _, _ = _laplace_finish(
        value, grad, hess, logdet_p0, NotConcave, "curvature at the mode"
    )
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
    observations; each block gathers into one buffer, made once per
    evaluation, a row of ones, its rows of the union's columns, and the
    products of columns i <= j (row ``1 + u + pair_of[i, j]``).  A family
    whose cumulant returns one array for b, b' and b'' (poisson) then takes
    the sums of b, the b'x and the weighted Grams from one product per
    block; any other takes a row sum and two products.  Either way the
    gradient sums the residuals ``(b' - y) x``, so that its rounding is
    that of ``families.grad_hess``, not of X'y: the one product is taken
    of b - y, and the sums of y and of y xx' go back into the sums of b
    and the weighted Grams at the end.  The block's x'y is summed into X'y,
    whose product with ``coef`` is y'eta.  A block spans ``_LA_BLOCK //
    max(m, 1 + u + u(u+1)/2)`` observations for m live models, so no
    working array holds more than ``_LA_BLOCK`` doubles.
    """
    n, u = cache.n, union.shape[0]
    pairs = u * (u + 1) // 2
    rows = 1 + u + pairs
    left, right = np.triu_indices(u)
    # column 1 + j of the block sums is column j's, 1 + u + pair a pair's;
    # a padded coordinate reads the zero last column
    col_of = np.append(np.arange(1, u + 1), rows)
    pair_of = np.full((u + 1, u + 1), rows)
    pair_of[left, right] = pair_of[right, left] = np.arange(1 + u, rows)
    values, y = cache.design.values, cache.y
    c_sum = _c_sum(cache, family, phi)

    def objective(live, theta):
        m = live.shape[0]
        at = np.arange(m)[:, None]
        where = pos[live]
        coef = np.zeros((m, u + 1))
        coef[at, where] = theta
        sums = np.zeros((m, rows + 1))
        step = max(1, _LA_BLOCK // max(m, rows))
        part = np.empty((rows, step))
        part[0] = 1.0
        xty = np.zeros(u + 1)
        # y's sums of the ones and pair products, which a product of b - y
        # leaves out of the sums of b and the weighted Grams
        back = np.zeros(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, step):
                block = part[:, : min(step, n - lo)]
                x, prods = block[1 : 1 + u], block[1 + u :]
                x[...] = values[lo : lo + step, union].T
                np.take(x, left, axis=0, out=prods, mode="clip")
                prods *= x[right]
                y_part = y[lo : lo + step]
                y_sums = block @ y_part
                xty[:u] += y_sums[1 : 1 + u]
                eta = coef[:, :u] @ x
                b, bp, bpp = family.cumulant(eta)
                if b is bp is bpp:
                    b -= y_part
                    sums[:, :rows] += b @ block.T
                    back += y_sums
                else:
                    sums[:, 0] += np.sum(b, axis=1)
                    sums[:, 1 : 1 + u] += (bp - y_part) @ x.T
                    sums[:, 1 + u : rows] += bpp @ prods.T
                # freed before the next block's arrays are made
                del eta, b, bp, bpp
            back[1 : 1 + u] = 0.0
            sums[:, :rows] += back
            kernel = coef @ xty - sums[:, 0]
        p_live = prec[live]
        ptheta = np.einsum("bij,bj->bi", p_live, theta)
        value = -(kernel / phi + c_sum) + 0.5 * np.einsum("bi,bi->b", theta, ptheta)
        grad = sums[at, col_of[where]] / phi + ptheta
        h_lik = sums[at[:, :, None], pair_of[where[:, :, None], where[:, None, :]]]
        hess = h_lik / phi + p_live
        # an overflowing cumulant gives the value inf with NaN derivatives
        bad = ~np.isfinite(sums[:, 0])
        value[bad] = np.inf
        grad[bad] = np.nan
        hess[bad] = np.nan
        return value, grad, hess

    return objective


def _stacked_newton(objective, theta, first, sizes, positive=None):
    """Minimize a smooth convex objective on every row of a stack by Newton
    steps with halving; the one Newton driver of the ``la`` engines.

    ``objective(live, theta)`` returns the value, gradient and Hessian of
    rows ``live`` at coefficients ``theta``; ``first`` is that triple for
    every row at the start ``theta`` when the caller has it; row r is
    padded past its first ``sizes[r]`` coordinates.  A row stops at a point
    whose gradient norm is at most ``_NEWTON_TOL`` or whose predicted
    decrease is within the ``_slack``; otherwise it tries the full Newton
    step and halves it until ``_accepts`` takes the candidate.  A trial
    step that leaves column ``positive`` (when given) non-positive is
    halved without an evaluation, and still counts as a try.  One
    evaluation serves every row still searching.  Returns the final
    ``(theta, value, grad, hess)`` with each row's accepted steps and its
    evaluations (the start counts when it was evaluated); raises
    ``NoConvergence`` for the first row that fails.
    """
    m = theta.shape[0]
    everyone = np.arange(m)
    value, grad, hess = objective(everyone, theta) if first is None else first
    if not np.isfinite(value).all():
        raise NoConvergence("objective is not finite at the start")
    grad_norm = np.abs(grad).max(axis=1)
    iterations = np.zeros(m, dtype=np.intp)
    evaluations = np.full(m, int(first is None))
    step = np.empty_like(theta)
    scale = np.ones(m)
    searching = np.zeros(m, dtype=bool)
    fresh = everyone
    while True:
        # the stopping tests of the rows at a new point
        fresh = fresh[~(grad_norm[fresh] <= _NEWTON_TOL)]
        if fresh.size:
            spent = fresh[iterations[fresh] == _NEWTON_MAX_ITER]
            if spent.size:
                raise NoConvergence(
                    f"gradient norm {grad_norm[spent[0]]:.3e} above"
                    f" {_NEWTON_TOL:.1e} after {_NEWTON_MAX_ITER} iterations"
                )
            g_fresh = grad[fresh]
            direction = _stacked_direction(g_fresh, hess[fresh], sizes[fresh])
            step[fresh] = direction
            decrease = 0.5 * np.einsum("bi,bi->b", g_fresh, direction)
            fresh = fresh[~(decrease <= _slack(value[fresh]))]
            scale[fresh] = 1.0
            searching[fresh] = True
        live = searching.nonzero()[0]
        if not live.size:
            break
        candidate = theta[live] - scale[live, None] * step[live]
        if positive is not None:
            inside = ~(candidate[:, positive] <= 0.0)
            live, candidate = live[inside], candidate[inside]
        fresh = live[:0]  # no row moves when every trial left the domain
        if live.size:
            c_value, c_grad, c_hess = objective(live, candidate)
            c_norm = np.abs(c_grad).max(axis=1)
            evaluations[live] += 1
            ok = _accepts(value[live], grad_norm[live], c_value, c_norm)
            if not ok.all():
                moved = (live, candidate, c_value, c_grad, c_hess, c_norm)
                live, candidate, c_value, c_grad, c_hess, c_norm = (a[ok] for a in moved)
            theta[live], value[live], grad[live] = candidate, c_value, c_grad
            hess[live], grad_norm[live] = c_hess, c_norm
            iterations[live] += 1
            searching[live] = False
            fresh = live
        missed = searching.nonzero()[0]
        if missed.size:
            scale[missed] *= 0.5
            # a row's scale is 2^-k after k tries of its line search
            stalled = missed[scale[missed] == 0.5**_LINE_SEARCH_HALVINGS]
            if stalled.size:
                raise NoConvergence(
                    f"line search stalled at iteration {iterations[stalled[0]]}"
                )
    return theta, value, grad, hess, iterations, evaluations


def _stacked_direction(grad: np.ndarray, hess: np.ndarray, sizes) -> np.ndarray:
    """The Newton step ``hess^-1 grad`` of each row: one stacked Cholesky
    test and solve.  When a row is not positive definite, each row is
    solved alone on its leading ``sizes[r]`` coordinates (zero on the
    padded rest): as it is, then with a ridge of 1e-10 times its mean
    diagonal, growing 100-fold per retry, 12 tries in all."""
    try:
        return cho_factor_solve(hess, grad[..., None], NotConcave)[1][..., 0]
    except NotConcave:
        step = np.zeros_like(grad)
        for row, k in enumerate(sizes.tolist()):
            g, h = grad[row, :k], hess[row, :k, :k]
            base = max(abs(float(np.trace(h))) / k, 1e-300)
            ridge = 0.0
            for _ in range(12):
                shifted = h + ridge * np.eye(k) if ridge else h
                try:
                    step[row, :k] = cho_factor_solve(shifted, g, NotConcave)[1]
                    break
                except NotConcave:
                    ridge = 1e-10 * base if ridge == 0.0 else 100.0 * ridge
            else:
                raise NotConcave("objective curvature is not positive definite")
        return step


def _la_with_scale(joint, zs, scale0, lik=None):
    """Laplace scores of a run whose last coordinate is a scale: one
    ``_newton_rows`` run from zero coefficients and ``scale0`` (``lik``
    there when the caller has it), and the expansion at each mode."""
    p = zs[0].shape[1]
    theta = np.zeros((len(zs), p + 1))
    theta[:, p] = scale0
    theta, value, _, hess, diagnostics = _newton_rows(joint, zs, theta, lik, p)
    factor = cholesky(hess, NotConcave, "curvature at the mode")
    log_ml = -value + 0.5 * (p + 1) * _LOG_2PI - 0.5 * chol_logdet(factor)
    rows = zip(log_ml.tolist(), theta, diagnostics)
    return log_ml, [MarginalScore(lm, "la", mode, diag) for lm, mode, diag in rows]


@_gathered
def _la_unknown_phi(s, cols, zs, records):
    """Laplace scores in ``(beta, phi)`` for the gaussian dispersion phi,
    under the block Zellner and inverse-gamma priors, from ``(0, phi0)``,
    where a zero-centered cache supplies the first evaluation."""
    a, b = s.prior.phi_prior_required()
    m, p = cols.shape
    # the phi-free coefficient prior's precision and its constants
    prec, logdet = s.cache.block_prior.precision(cols, s.prior.g)
    const = 0.5 * p * _LOG_2PI - 0.5 * logdet - a * np.log(b) + gammaln(a)
    st, y = _unknown_phi_stats(s.cache, s.family), s.cache.y
    phi0, lik = st["phi0"], _at_zero(s.cache, s.family, st["phi0"], cols)
    if lik is not None:
        value, g_beta, h_bb = lik
        hess = np.empty((m, p + 1, p + 1))
        hess[:, :p, :p] = h_bb
        # Z'(y - b'(0)) / phi0^2, the cross derivative at (0, phi0)
        hess[:, :p, p] = hess[:, p, :p] = -g_beta / phi0
        hess[:, p, p] = st["h_pp"]
        grad = np.empty((m, p + 1))
        grad[:, :p], grad[:, p] = g_beta, st["g_phi"]
        lik = value, grad, hess

    def joint(r, z, theta, lik=None):
        beta, phi = theta[:p], theta[p]
        if lik is None:
            lik = fam.grad_hess(s.family, z, y, beta, phi)
        prec_r = prec[r]
        pb = prec_r @ beta
        quad = float(beta @ pb)
        value = lik[0] + 0.5 * p * np.log(phi) + 0.5 * quad / phi
        value = value + (a + 1.0) * np.log(phi) + b / phi + const[r]
        grad, hess = lik[1].copy(), lik[2].copy()
        grad[:p] += pb / phi
        grad[p] += 0.5 * p / phi - 0.5 * quad / phi**2 + (a + 1.0) / phi - b / phi**2
        hess[:p, :p] += prec_r / phi
        hess[:p, p] -= pb / phi**2
        hess[p, :p] -= pb / phi**2
        hess[p, p] += -0.5 * p / phi**2 + quad / phi**3 - (a + 1.0) / phi**2 + 2.0 * b / phi**3
        return value, grad, hess

    return _la_with_scale(joint, zs, phi0, lik)


@_gathered
def _la_aft(s, cols, zs, records):
    """Laplace survival scores in ``(alpha, tau)`` from ``(0, tau0)``, under
    the block Zellner prior and the one phi's induces on tau.  A model whose
    observed events cannot identify its coefficients raises ``NotConcave``."""
    a, b = s.prior.phi_prior_required()
    p = cols.shape[1]
    ctx = s.cache
    for z in zs:
        fam.aft_concavity_check(z, ctx.data)
    prec, logdet = ctx.block_prior.precision(cols, s.prior.g)
    const = -a * np.log(b) + gammaln(a) - np.log(2.0) + 0.5 * (p * _LOG_2PI - logdet)

    def joint(r, z, theta):
        alpha, tau = theta[:p], theta[p]
        ll, g_ll, h_ll = fam.aft_loglik_grad_hess(z, ctx.data, alpha, tau)
        prec_r = prec[r]
        value = -ll + 0.5 * float(alpha @ prec_r @ alpha)
        value = value - (2.0 * a - 1.0) * np.log(tau) + b * tau * tau + const[r]
        grad, hess = -g_ll, -h_ll
        grad[:p] += prec_r @ alpha
        grad[p] += -(2.0 * a - 1.0) / tau + 2.0 * b * tau
        hess[:p, :p] += prec_r
        hess[p, p] += (2.0 * a - 1.0) / tau**2 + 2.0 * b
        return value, grad, hess

    return _la_with_scale(joint, zs, ctx.tau0)


@_gathered
def _ala_refined(s, cols, zs, records):
    """Zero-expansion scores after ``k = s.refine_steps`` plain Newton steps
    on each model's own log-likelihood, the run's models stepping together,
    under a known dispersion and the block Zellner prior: the closed-form
    Normal-prior integral of the log joint's expansion at the point reached
    (``_laplace_finish``, once per run), and for ``records`` the expansion
    that ``_bordered_inverse`` reads from the same factor; ``k = 0`` is the
    plain zero expansion.  The derivatives at zero come from the cache, so
    ``k`` steps take ``k`` passes over the data.  A model whose curvature
    is lost or whose step is not finite stops early, noted in its
    diagnostics; one whose likelihood is not finite at its point scores
    -inf."""
    cache, family, k = s.cache, s.family, s.refine_steps
    if cache.nu0 != 0.0:
        raise ValueError("refined scoring expects zero centering")
    phi, (m, p), method = float(family.phi), cols.shape, f"ala-refined({k})"
    if p == 0:
        l0 = _loglik_at_center(cache, family, phi)
        nulls = (MarginalScore(l0, method, np.empty(0), {"steps_taken": 0}) for _ in range(m))
        return np.full(m, l0), list(nulls) if records else None
    y, c_sum = cache.y, _c_sum(cache, family, phi)
    beta, live, steps, notes = np.zeros((m, p)), list(range(m)), [0] * m, [None] * m
    lik = _at_zero(cache, family, phi, cols)
    value, grad, hess = (np.full(m, lik[0]), *lik[1:]) if lik else _triples(
        fam.grad_hess(family, z, y, b, phi, c_sum) for z, b in zip(zs, beta)
    )
    for _ in range(k):
        # a view of the stack while every model moves
        at = slice(None) if len(live) == m else live
        try:
            sol = cho_factor_solve(hess[at], grad[at, :, None])[1][..., 0]
        except NotConcaveAtExpansion:
            # some model lost its curvature: each solves alone
            sol = np.full((len(live), p), np.nan)
            for i, r in enumerate(live):
                try:
                    sol[i] = cho_factor_solve(hess[r], grad[r])[1]
                except NotConcaveAtExpansion:
                    notes[r] = "curvature lost during refinement"
        moved = []
        for r, candidate in zip(live, beta[at] - sol):
            if not np.isfinite(candidate).all():
                notes[r] = notes[r] or "refinement step diverged"
                continue
            beta[r], steps[r] = candidate, steps[r] + 1
            lik = fam.grad_hess(family, zs[r], y, candidate, phi, c_sum)
            value[r], grad[r], hess[r] = lik
            moved.append(r)
        live = moved
        if not live:
            break
    # the models whose likelihood stayed finite, a view when all did, and
    # their negative log joint at the point reached
    log_ml, finite = np.full(m, -np.inf), np.isfinite(value)
    at = slice(None) if finite.all() else finite
    prec, logdet_p0 = cache.block_prior.precision(cols[at], s.prior.g, phi)
    point = beta[at]
    pb = (prec @ point[..., None])[..., 0]
    log_ml[at], quad, factor = _laplace_finish(
        value[at] + 0.5 * np.einsum("bi,bi->b", point, pb),
        grad[at] + pb,
        hess[at] + prec,
        logdet_p0,
        NotConcaveAtExpansion,
        "joint curvature",
    )
    if not records:
        return log_ml, None
    beta[at] = point + _bordered_inverse(factor)[:, :, p]
    quads, scores = iter(quad.tolist()), []
    for lm, b, fit, n, note in zip(log_ml.tolist(), beta, finite.tolist(), steps, notes):
        diag = {"quad": next(quads)} if fit else {}
        diag["steps_taken"] = n
        if note:
            diag["note"] = note
        scores.append(MarginalScore(lm, method, b, diag))
    return log_ml, scores


@_stacked
def _exact_gaussian(s, cols, records):
    """The exact gaussian marginal likelihood under the block Zellner prior,
    from X'X, X'y and y'y of the raw response, so at either centring.
    ``exact_gaussian_marginal`` integrates the coefficients into the n x n
    covariance ``phi C``, ``C = I + Z P^-1 Z'`` with P the prior precision
    at unit dispersion; with ``H = Z'Z + P``, the matrix determinant lemma
    gives ``log det C = log det H - log det P`` and Woodbury's identity
    ``y'C^-1 y = y'y - y'Z H^-1 Z'y``, both from one stacked bordered
    Cholesky factorization.  The dispersion is known or inverse-gamma."""
    cache, n = s.cache, s.cache.n
    xty, yty = _cache_scalar(
        cache, "raw", lambda: (cache.design.values.T @ cache.y, float(cache.y @ cache.y))
    )
    xtx = cache.gram.block(cols)
    prec, logdet_p = cache.block_prior.precision(cols, s.prior.g, 1.0, 0, xtx)
    logdet_h, fit, _ = bordered_cholesky(
        xtx + prec, xty[cols], NotInvertible, "posterior precision"
    )
    log_ml = _gaussian_log_ml(n, logdet_h - logdet_p, yty - fit, s.family, s.prior)
    if not records:
        return log_ml, None
    return log_ml, [
        MarginalScore(lm, "exact-gaussian", np.empty(0), {}) for lm in log_ml.tolist()
    ]


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
    Cost grows with n cubed: the reference of the scorer's closed form
    (``_exact_gaussian``), and what ``alaselect oracle`` runs.
    """
    if family.kind != "gaussian":
        raise ValueError("exact marginal is available for the gaussian family")
    if prior.kind != "gzellner":
        raise ValueError("exact marginal expects the block Zellner prior")
    log_ml, _ = _normal_kernel_marginal(model, cache, family, prior, 0, "marginal")
    return MarginalScore(float(log_ml), "exact-gaussian", np.empty(0), {})


def _normal_kernel_marginal(model, cache, family, prior, shift, what):
    """Log marginal likelihood of a gaussian response whose coefficients
    are Normal with covariance phi times the inverse of the block prior's
    precision (shift 0 is the block Zellner prior, 2 the kernel of the
    product-moment prior), through the n x n ``what`` covariance, with the
    dispersion known or inverse-gamma; returns it and ``y' C^-1 y``."""
    # The references import scipy where they use it, so that a run of the
    # fast engines loads none.
    import scipy.linalg

    y = cache.y
    n = cache.n
    cols = cache.design.columns_for(model.key)
    z = cache.design.values[:, cols]
    prec, _ = cache.block_prior.precision(cols, prior.g, 1.0, shift)
    cov = np.eye(n) + z @ np.linalg.solve(prec, z.T)
    factor = cholesky(cov, NotInvertible, f"{what} covariance")
    half = scipy.linalg.solve_triangular(factor, y, lower=True)
    quad = float(half @ half)
    return _gaussian_log_ml(n, chol_logdet(factor), quad, family, prior), quad


def _gaussian_log_ml(n, logdet, quad, family, prior):
    """The log marginal likelihood of n gaussian observations with
    covariance ``phi C``, from ``log det C`` and ``y'C^-1 y``, the
    dispersion phi known or inverse-gamma."""
    if family.phi_known:
        phi = float(family.phi)
        return -0.5 * n * (_LOG_2PI + np.log(phi)) - 0.5 * logdet - 0.5 * quad / phi
    a, b = prior.phi_prior_required()
    return (
        -0.5 * n * _LOG_2PI - 0.5 * logdet + a * np.log(b) - gammaln(a)
        + gammaln(a + 0.5 * n) - (a + 0.5 * n) * np.log(b + 0.5 * quad)
    )


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
    Fewer than one draw raises ``ValueError``.
    """
    import scipy.linalg

    if family.kind != "gaussian":
        raise ValueError("the Monte Carlo reference expects the gaussian family")
    if prior.kind != "gmom":
        raise ValueError("the Monte Carlo reference expects the product-moment prior")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    if rng is None:
        rng = np.random.default_rng(0)
    n = cache.n
    p = model.p_gamma
    log_kernel, quad = _normal_kernel_marginal(
        model, cache, family, prior, 2, "kernel marginal"
    )
    if p == 0:
        return MarginalScore(float(log_kernel), "mc", np.empty(0), {"mc_se_log": 0.0})
    cols = cache.design.columns_for(model.key)
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
    sizes = cache.design.group_sizes[list(model.active_groups)]
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
    return AftContext(
        design=design,
        data=data,
        tau0=tau0,
        l0=float(l0),
        wgram=Gram(design.values * np.sqrt(weights)[:, None]),
        block_prior=BlockPrior(design, Gram(design.values)),
        ztv=design.values.T @ v,
        ztyw=design.values.T @ (y * weights),
        h_tt=float(n_o / tau0**2 + yo @ yo + (yc * yc) @ weights[~obs]),
    )


# ---------------------------------------------------------------------------
# the scorer used by the search routines


# Each row of ``_ENGINES`` names the one engine that scores its models,
# ``engine(scorer, bits, records)``: it scores the rows of the (B, J)
# ``uint8`` 0/1 matrix ``bits`` and returns their (B,) log marginal
# likelihoods, with their MarginalScores when ``records`` asks for them or
# when it builds them anyway (the ``la`` rows), else None.  A lone model is
# a batch of one.
#
# (statistics, method, prior kind, dispersion known) -> engine.  The
# statistics are "expfam" for the exponential families other than the
# gaussian, "gaussian", and "aft" for survival data.
_ENGINES = {
    ("expfam", "ala", "gzellner", True): _known_phi_ala,
    ("expfam", "ala-curvadj", "gzellner", True): _known_phi_ala,
    ("expfam", "ala", "gmom", True): _known_phi_ala,
    ("expfam", "ala-curvadj", "gmom", True): _known_phi_ala,
    ("expfam", "ala-refined", "gzellner", True): _ala_refined,
    ("expfam", "la", "gzellner", True): la_known_phi_many,
}
# The gaussian family has every engine of the others, its unknown-dispersion
# form, and two engines that need a quadratic log-likelihood: the conjugate
# closed form, and the product-moment score at the mode, which is the
# zero-expansion score because the expansion is exact.
_ENGINES.update({("gaussian", *key[1:]): entry for key, entry in _ENGINES.items()})
_ENGINES.update(
    {
        ("gaussian", "ala", "gzellner", False): _scale_plugin,
        ("gaussian", "ala", "gmom", False): _scale_plugin,
        ("gaussian", "la", "gzellner", False): _la_unknown_phi,
        ("gaussian", "la", "gmom", True): _known_phi_ala,
        ("gaussian", "la", "gmom", False): _scale_plugin,
        ("gaussian", "exact-gaussian", "gzellner", True): _exact_gaussian,
        ("gaussian", "exact-gaussian", "gzellner", False): _exact_gaussian,
        ("aft", "ala", "gzellner", False): _scale_plugin,
        ("aft", "la", "gzellner", False): _la_aft,
    }
)


def _unsupported(kind: str, method: str, prior_kind: str, phi_known: bool) -> str:
    """Why no entry of ``_ENGINES`` scores this combination."""
    if kind == "aft":
        if method in ("ala", "la"):
            return "survival scoring expects the block Zellner prior"
        return f"unknown survival method {method!r}"
    if method == "ala-curvadj":
        return "curvature adjustment needs a known dispersion"
    if kind == "expfam" and not phi_known and method in ("ala", "la"):
        return "an unknown dispersion is supported for the gaussian family only"
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
    from ``_ENGINES``, the one dispatch: each engine scores only the
    combinations whose rows name it, and checks none of them again.  It
    scores a batch of models, and a lone model as a batch of one.  A
    combination that no engine scores, or a model prior whose group count
    or intercept group differs from the design's, raises ``ValueError``.
    ``refine_steps`` is the number of likelihood Newton steps
    ``method="ala-refined"`` takes before its expansion; the other methods
    ignore it, and a negative count raises ``ValueError``.  ``log_score``
    adds the unnormalized model prior to the marginal score, which is what
    the enumeration and Gibbs routines need.
    """

    def __init__(
        self,
        cache: SuffStatsCache | AftContext,
        family: Optional[fam.FamilySpec],
        prior: ParamPriorSpec,
        model_prior: Optional[ModelPriorSpec] = None,
        method: str = "ala",
        refine_steps: int = 1,
    ):
        design = cache.design
        if model_prior is not None and (
            (model_prior.n_groups, model_prior.intercept_group)
            != (design.n_groups, design.intercept_group)
        ):
            raise ValueError("the model prior's groups differ from the design's")
        if refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {refine_steps}")
        if isinstance(cache, AftContext):
            key = ("aft", method, prior.kind, False)
        else:
            kind = "gaussian" if family.kind == "gaussian" else "expfam"
            key = (kind, method, prior.kind, family.phi_known)
        self._engine = _ENGINES.get(key)
        if self._engine is None:
            raise ValueError(_unsupported(*key))
        self.cache = cache
        self.family = family
        self.prior = prior
        self.model_prior = model_prior
        self.method = method
        self.refine_steps = refine_steps
        self.curvature: Optional[CurvatureContext] = None
        if method == "ala-curvadj":
            self.curvature = curvature_context(cache, family)
        self._memo: dict[bytes, float] = {}
        self._scores: dict[bytes, MarginalScore] = {}

    @property
    def design(self) -> DesignMatrix:
        return self.cache.design

    def marginal(self, bits) -> MarginalScore:
        """The score of one model (a key, a ``ModelId`` or bits), memoized;
        built on request by the engine from a batch of one, whose log
        marginal likelihood any batch gives bitwise.  A malformed key or a
        model without the intercept group raises what
        ``DesignMatrix.model`` raises."""
        key = model_key(bits)
        found = self._scores.get(key)
        if found is None:
            self.design.model(key)
            bits = np.frombuffer(key, dtype=np.uint8)[None]
            found = self._scores[key] = self._engine(self, bits, True)[1][0]
            self._memo.setdefault(key, found.log_ml)
        return found

    def log_ml(self, bits) -> float:
        """Memoized; the engine scores a miss as a batch of one."""
        key = model_key(bits)
        value = self._memo.get(key)
        if value is None:
            if len(key) == self.design.n_groups and not key.translate(None, b"\x00\x01"):
                self._fill(np.frombuffer(key, dtype=np.uint8)[None], [key])
            value = self._memo.get(key)
        return self.marginal(key).log_ml if value is None else value

    def log_score(self, bits) -> float:
        """``log_ml`` plus the model prior, each read from its memo first."""
        key = model_key(bits)
        value = self._memo.get(key)
        if value is None:
            value = self.log_ml(key)
        if self.model_prior is not None:
            value += log_model_prior_unnorm(key, self.model_prior)
        return float(value)

    def score_many(self, models) -> np.ndarray:
        """``[log_score(m) for m in models]`` as an array, filling the memos.

        ``models`` is a (B, J) 0/1 matrix, one model per row, or a sequence
        of models in any form ``log_score`` takes.  The rows not yet
        memoized are scored by the engine in one batch straight from the bit
        matrix, and their log marginal likelihoods enter the memo in one
        ``dict.update``, as the prior's masses do.  The ``ala`` rows and
        ``exact-gaussian`` score stacks of one dimension from one stacked
        factorization each, with no ``MarginalScore`` built until
        ``marginal`` asks; the ``la`` rows score each run of a stack by one
        Newton run and keep its ``MarginalScore``s, and ``ala-refined`` by k
        plain steps.
        Each model's one ``log_score`` call is then two memo hits; after a
        failing batch, each scores alone, so the error is the first failing
        model's, as in a loop.
        """
        n_groups = self.design.n_groups
        if isinstance(models, np.ndarray):
            bits = np.ascontiguousarray(models, dtype=bool).view(np.uint8)
            if bits.ndim != 2 or bits.shape[1] != n_groups:
                raise ValueError("bit vector length does not match the group count")
            keys = bits.view(f"V{n_groups}").ravel().tolist()
        else:
            keys = [model_key(m) for m in models]
            joined = np.frombuffer(b"".join(keys), dtype=np.uint8)
            ok = all(len(key) == n_groups for key in keys) and joined.max(initial=0) <= 1
            bits = joined.reshape(len(keys), n_groups) if ok else None
        if bits is not None:  # else a malformed key raises at its row
            self._fill(bits, keys)
            if self.model_prior is not None:
                self.model_prior.remember(bits, keys)
        return np.array([self.log_score(key) for key in keys], dtype=np.float64)

    def _fill(self, bits: np.ndarray, keys: list[bytes]) -> None:
        """Memoize the models of the 0/1 rows ``bits`` (keys ``keys``) not yet
        memoized, each once, by one batch; a model without the intercept
        group or a failing batch is left to ``marginal`` to raise."""
        todo = {key: i for i, key in enumerate(keys) if key not in self._memo}
        intercept = self.design.intercept_group
        if not todo or (intercept is not None and not bits[:, intercept].all()):
            return
        keys = list(todo)
        bits = bits if len(keys) == bits.shape[0] else bits[list(todo.values())]
        try:
            log_ml, scores = self._engine(self, bits, False)
        except (np.linalg.LinAlgError, SelectionError):
            return
        if scores is None:
            self._memo.update(zip(keys, log_ml.tolist()))
        else:
            # one float per model, shared with its record
            self._memo.update((key, score.log_ml) for key, score in zip(keys, scores))
            self._scores.update(zip(keys, scores))

    @property
    def n_scored(self) -> int:
        """Distinct models whose log marginal likelihood this scorer has computed."""
        return len(self._memo)

    def diagnostic_sum(self, key: str) -> float:
        """Sum of one per-model diagnostic over the models scored so far,
        building each score ``marginal`` has not built yet."""
        return sum(self.marginal(m).diagnostics.get(key, 0) for m in list(self._memo))


def AftScorer(
    ctx: AftContext,
    prior: ParamPriorSpec,
    model_prior: Optional[ModelPriorSpec] = None,
    method: str = "ala",
) -> ModelScorer:
    """``ModelScorer`` for survival models: ``method="ala"`` expands at
    ``(0, tau0)`` (``_scale_plugin``), ``"la"`` at the posterior mode
    (``_la_aft``)."""
    return ModelScorer(ctx, None, prior, model_prior, method)
