"""Tests for the marginal-likelihood engines: closed-form expansion scores,
mode-based scores, refinement, non-local tilts, survival scoring, and the
numerical oracles they are checked against."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

import alaselect.families as fam
import alaselect.marginal_engines as me
from alaselect import references
from alaselect.data_model import (
    ConstraintSet,
    DesignMatrix,
    Gram,
    admissible_bits,
    build_cache,
)
from alaselect.errors import (
    InvalidModel,
    NoConvergence,
    NotConcave,
    NotConcaveAtExpansion,
    NotInvertible,
    SelectionError,
)
from alaselect.families import (
    SurvivalData,
    aft_loglik_grad_hess,
    gaussian,
    gaussian_unknown,
    logistic,
    poisson,
)
from alaselect.priors import ModelPriorSpec, ParamPriorSpec, log_model_prior_unnorm
from alaselect import simdesigns
from alaselect.search import enumerate_posterior, gibbs_models

from tests.oracles import (
    ala_general,
    block_zellner_precision,
    conjugate_known_phi_log_ml,
    conjugate_unknown_phi_log_ml,
    dense_known_phi_ala,
    logistic_loglik_np,
    make_design,
    _reference_damped_newton,
    plugin_log_ml,
    reference_la,
    reference_la_aft,
    reference_newton_direction,
    reference_refined_expansion,
    zero_expansion_aft_log_ml,
    zero_expansion_unknown_phi_log_ml,
)


def _marginal(cache, family, prior, bits, method="ala", refine_steps=1):
    """One model's score from a fresh scorer: what the engine that the
    scorer's ``_ENGINES`` row names returns."""
    scorer = me.ModelScorer(cache, family, prior, method=method, refine_steps=refine_steps)
    return scorer.marginal(bits)


def _aft_marginal(ctx, prior, bits, method="ala"):
    """One survival model's score from a fresh scorer."""
    return me.AftScorer(ctx, prior, method=method).marginal(bits)


class TestGeneralBackbone:
    """The closed-form integral of a quadratic expansion against a Normal
    prior, the engines' shared finish (``_laplace_finish``) and the
    reference ``ala_general`` alike, is exact for genuinely quadratic
    objectives."""

    def _quadratic_truth(self, m, a_mat, const, prec):
        """Integral of exp(const - (theta-m)' A (theta-m) / 2) against
        N(0, prec^-1), in closed form via Gaussian convolution."""
        d = m.size
        cov_sum = np.linalg.inv(a_mat) + np.linalg.inv(prec)
        return (
            const
            + 0.5 * d * np.log(2.0 * np.pi)
            - 0.5 * np.linalg.slogdet(a_mat)[1]
            + stats.multivariate_normal.logpdf(m, np.zeros(d), cov_sum)
        )

    @staticmethod
    def _finish(loglik0, grad, hess, prec, theta0):
        """The shared finish of one model expanded at ``theta0``: its
        negative log joint there, with the joint gradient and curvature."""
        pb = prec @ theta0
        log_ml, _, _ = me._laplace_finish(
            np.array([-loglik0 + 0.5 * theta0 @ pb]),
            (grad + pb)[None],
            (hess + prec)[None],
            np.linalg.slogdet(prec)[1],
            NotConcaveAtExpansion,
            "joint curvature",
        )
        return float(log_ml[0])

    def test_exact_for_quadratic_objectives(self, rng):
        d = 3
        raw = rng.normal(size=(d, d))
        a_mat = raw @ raw.T + d * np.eye(d)
        m = rng.normal(size=d)
        prec = np.diag(rng.uniform(0.5, 2.0, size=d))
        const = -1.7
        loglik0 = const - 0.5 * m @ a_mat @ m
        grad0 = -a_mat @ m  # negative-objective gradient at zero
        truth = self._quadratic_truth(m, a_mat, const, prec)
        log_ml, _ = ala_general(loglik0, grad0, a_mat, prec)
        np.testing.assert_allclose(log_ml, truth, atol=1e-10)
        finish = self._finish(loglik0, grad0, a_mat, prec, np.zeros(d))
        np.testing.assert_allclose(finish, truth, atol=1e-10)

    def test_expansion_point_does_not_matter_for_quadratics(self, rng):
        """Expanding the same quadratic objective anywhere gives the same
        integral, so the score is invariant to the expansion point."""
        d = 2
        raw = rng.normal(size=(d, d))
        a_mat = raw @ raw.T + d * np.eye(d)
        m = rng.normal(size=d)
        prec = 0.7 * np.eye(d)
        const = 0.4

        def objective(theta):
            delta = theta - m
            return const - 0.5 * delta @ a_mat @ delta

        at_zero, _ = ala_general(objective(np.zeros(d)), -a_mat @ m, a_mat, prec)
        theta0 = rng.normal(size=d)
        grad = a_mat @ (theta0 - m)
        at_theta0, _ = ala_general(objective(theta0), grad, a_mat, prec, theta0=theta0)
        np.testing.assert_allclose(at_zero, at_theta0, atol=1e-10)
        finish = self._finish(objective(theta0), grad, a_mat, prec, theta0)
        np.testing.assert_allclose(finish, at_zero, atol=1e-10)

    def test_indefinite_curvature_raises(self):
        with pytest.raises(NotConcaveAtExpansion, match="joint curvature"):
            self._finish(0.0, np.zeros(1), np.array([[-1.0]]), np.array([[0.5]]), np.zeros(1))


class TestKnownDispersionExactness:
    """For Gaussian responses with known dispersion, both the expansion
    score and the mode score match the conjugate closed form."""

    def test_engine_matches_conjugate_marginal(self, rng):
        design = make_design(rng, 45, [2, 1, 3], intercept=True)
        beta = np.zeros(design.p)
        beta[1], beta[4] = 0.8, -0.5
        phi, g = 0.6, 1.7
        y = design.values @ beta + np.sqrt(phi) * rng.normal(size=45)
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=g)
        scorer_ala = me.ModelScorer(cache, gaussian(phi), prior, method="ala")
        scorer_la = me.ModelScorer(cache, gaussian(phi), prior, method="la")
        for bits in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1)]:
            reference = conjugate_known_phi_log_ml(design, bits, y, g, phi)
            np.testing.assert_allclose(scorer_ala.log_ml(bits), reference, atol=1e-8)
            np.testing.assert_allclose(scorer_la.log_ml(bits), reference, atol=1e-8)

    def test_builtin_exact_scorer_agrees_with_the_independent_route(self, rng):
        design = make_design(rng, 30, [1, 2])
        y = rng.normal(size=30)
        phi, g = 1.3, 0.9
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=g)
        for bits in [(0, 0), (1, 0), (1, 1)]:
            model = design.model(bits)
            builtin = references.exact_gaussian_marginal(model, cache, gaussian(phi), prior)
            np.testing.assert_allclose(
                builtin.log_ml,
                conjugate_known_phi_log_ml(design, bits, y, g, phi),
                atol=1e-9,
            )

    @pytest.mark.parametrize("family", [gaussian(0.7), gaussian_unknown()], ids=str)
    @pytest.mark.parametrize("center", ["zero", "intercept-mle"])
    def test_exact_scorer_matches_the_n_by_n_oracle(self, rng, family, center):
        """The scorer's closed form, from X'X, X'y and y'y of the raw
        response, is the n x n covariance route on every model, at either
        centring of the cache."""
        design = make_design(rng, 80, [1, 2, 1, 3], intercept=True)
        y = design.values @ rng.normal(scale=0.4, size=design.p) + rng.normal(size=80)
        cache = build_cache(design, y, family, center=center)
        prior = ParamPriorSpec(kind="gzellner", g=1.4, phi_prior=(0.5, 0.7))
        models = admissible_bits(design.n_groups, intercept_group=0)
        scorer = me.ModelScorer(cache, family, prior, method="exact-gaussian")
        oracle = [
            references.exact_gaussian_marginal(design.model(bits), cache, family, prior).log_ml
            for bits in models
        ]
        np.testing.assert_allclose(scorer.score_many(models), oracle, rtol=0, atol=1e-10)

    def test_null_model_is_the_plain_likelihood(self, rng):
        design = make_design(rng, 25, [1])
        y = rng.normal(size=25)
        phi = 0.8
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        score = _marginal(cache, gaussian(phi), prior, (0,))
        np.testing.assert_allclose(
            score.log_ml,
            stats.norm.logpdf(y, scale=np.sqrt(phi)).sum(),
            atol=1e-10,
        )

    def test_bayes_factor_is_score_minus_null(self, rng):
        """The log Bayes factor against the empty model, log_ml(model) -
        log_ml(null), is the exact Gaussian one, and the null score is the
        likelihood at zero."""
        design = make_design(rng, 30, [1, 1])
        y = rng.normal(size=30)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        scorer = me.ModelScorer(cache, gaussian(1.0), prior)
        null = (0, 0)
        np.testing.assert_allclose(
            scorer.log_ml(null), stats.norm.logpdf(y).sum(), atol=1e-10
        )
        for bits in [(1, 0), (0, 1), (1, 1)]:
            bf = scorer.log_ml(bits) - scorer.log_ml(null)
            exact = conjugate_known_phi_log_ml(
                design, bits, y, 1.0, 1.0
            ) - conjugate_known_phi_log_ml(design, null, y, 1.0, 1.0)
            np.testing.assert_allclose(bf, exact, atol=1e-10)


class TestPluginVariant:
    """Evaluating the prior density at the plug-in point instead of
    integrating it shifts the score by about half the log prior-to-
    posterior precision ratio."""

    def test_gap_matches_the_precision_ratio(self, rng):
        n, g, phi = 1000, 1.0, 1.0
        design = make_design(rng, n, [1])
        y = rng.normal(size=n)
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=g)
        exact = me.ModelScorer(cache, gaussian(phi), prior, method="ala")
        w = cache.bpp_nu0 / phi

        def plugin(bits):
            # the known-dispersion expansion at zero, with the prior density
            # evaluated at the update
            cols = design.columns_for(bits)
            xtx = cache.gram.block(cols)
            return plugin_log_ml(
                me._loglik_at_center(cache, gaussian(phi), phi),
                -w * cache.zty[cols],
                w * xtx,
                lambda b: cache.block_prior.log_density(b, cols, g, phi, block=xtx),
                np.zeros(cols.size),
            )

        gap = plugin((1,))[0] - exact.log_ml((1,))
        np.testing.assert_allclose(gap, 0.5 * np.log(1.0 + 1.0 / (g * n)), rtol=0.02)
        # the null model is the formula's d = 0 case: no gap at all
        log_ml, update, quad = plugin((0,))
        assert log_ml == exact.log_ml((0,)) == me._loglik_at_center(
            cache, gaussian(phi), phi
        )
        assert quad == 0.0
        assert update.shape == (0,)


class TestUnknownDispersion:
    """Joint expansion over coefficients and dispersion at the null
    dispersion estimate, checked against scalar algebra."""

    def _moderate_data(self, rng, n=60):
        design = make_design(rng, n, [2, 1, 1], intercept=True)
        beta = np.zeros(design.p)
        beta[1] = 0.35
        y = design.values @ beta + rng.normal(size=n)
        return design, y

    def test_matches_scalar_reference(self, rng):
        design, y = self._moderate_data(rng)
        g, a, b = 1.2, 0.01, 0.01
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=g, phi_prior=(a, b))
        for bits in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]:
            score = _marginal(cache, gaussian_unknown(), prior, bits)
            reference, phi_tilde = zero_expansion_unknown_phi_log_ml(
                design, bits, y, g, a, b
            )
            if np.isfinite(reference):
                np.testing.assert_allclose(score.log_ml, reference, atol=1e-10)
            else:
                assert score.log_ml == -np.inf
            np.testing.assert_allclose(
                score.diagnostics["phi_tilde"], phi_tilde, atol=1e-10
            )

    def test_null_dispersion_estimate_is_recorded(self, rng):
        design, y = self._moderate_data(rng)
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        score = _marginal(cache, gaussian_unknown(), prior, (1, 0, 0, 0))
        np.testing.assert_allclose(score.diagnostics["phi0"], np.mean(y**2), atol=1e-12)

    def _fixed_fit_data(self, rng, n, r_squared):
        """One covariate explaining an exact share of the response sum of
        squares, to steer the plug-in dispersion."""
        z = rng.normal(size=(n, 1))
        z_hat = z[:, 0] / np.linalg.norm(z)
        w = rng.normal(size=n)
        w -= (w @ z_hat) * z_hat
        w /= np.linalg.norm(w)
        y = np.sqrt(r_squared) * z_hat + np.sqrt(1.0 - r_squared) * w
        return DesignMatrix(z, ((0, 1),)), y * 3.0

    def test_negative_plugin_dispersion_zeroes_the_score(self, rng):
        """When the explained share passes one quarter of the total sum of
        squares the plug-in dispersion crosses zero and the model is
        reported as impossible rather than mis-scored."""
        design, y = self._fixed_fit_data(rng, 40, r_squared=0.35)
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        score = _marginal(cache, gaussian_unknown(), prior, (1,))
        assert score.log_ml == -np.inf
        assert score.diagnostics["phi_tilde"] <= 0.0

    def test_null_model_is_the_one_parameter_plugin_score(self, rng):
        """With no coefficients the expansion is in phi alone, at its null
        estimate phi0 = mean(y^2), where the score is l(phi0) + log pi(phi0)
        + log(2 pi) / 2 - log(h) / 2 with h = n / (2 phi0^2)."""
        design, y = self._fixed_fit_data(rng, 40, r_squared=0.35)
        a, b = 0.4, 0.9
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(a, b))
        score = _marginal(cache, gaussian_unknown(), prior, (0,))
        n = y.shape[0]
        phi0 = np.mean(y**2)
        l0 = -0.5 * n * (np.log(2.0 * np.pi * phi0) + 1.0)
        log_prior = stats.invgamma.logpdf(phi0, a, scale=b)
        h = n / (2.0 * phi0**2)
        expected = l0 + log_prior + 0.5 * np.log(2.0 * np.pi) - 0.5 * np.log(h)
        np.testing.assert_allclose(score.log_ml, expected, rtol=1e-13)
        np.testing.assert_allclose(score.expansion, [phi0], rtol=1e-14)
        assert score.method == "ala"
        assert score.diagnostics["phi_tilde"] == score.diagnostics["phi0"]

    def test_overwhelming_fit_breaks_joint_curvature(self, rng):
        """Explaining more than half the sum of squares makes the joint
        expansion indefinite, which must raise instead of returning a
        number."""
        design, y = self._fixed_fit_data(rng, 40, r_squared=0.8)
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        with pytest.raises(NotConcaveAtExpansion, match=r"joint \(beta, phi\) curvature"):
            _marginal(cache, gaussian_unknown(), prior, (1,))

    def test_mode_score_converges_to_the_conjugate_marginal(self, rng):
        """The mode-based score is exact in the coefficients and a Laplace
        approximation in the dispersion only, so its error against the
        conjugate closed form shrinks as the sample grows."""
        g, a, b = 1.0, 0.01, 0.01
        errors = {}
        for n in (120, 480):
            design, y = self._moderate_data(np.random.default_rng(17), n=n)
            cache = build_cache(design, y, gaussian_unknown())
            prior = ParamPriorSpec(kind="gzellner", g=g, phi_prior=(a, b))
            bits = (1, 1, 0, 1)
            la = _marginal(cache, gaussian_unknown(), prior, bits, "la")
            exact = conjugate_unknown_phi_log_ml(design, bits, y, g, a, b)
            errors[n] = abs(la.log_ml - exact)
        assert errors[480] < errors[120]
        assert errors[480] < 0.15

    def test_builtin_exact_scorer_matches_the_independent_route(self, rng):
        design, y = self._moderate_data(rng, n=50)
        g, a, b = 0.8, 0.5, 0.7
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gzellner", g=g, phi_prior=(a, b))
        for bits in [(1, 0, 0, 0), (1, 1, 1, 0)]:
            builtin = references.exact_gaussian_marginal(
                design.model(bits), cache, gaussian_unknown(), prior
            )
            np.testing.assert_allclose(
                builtin.log_ml,
                conjugate_unknown_phi_log_ml(design, bits, y, g, a, b),
                atol=1e-9,
            )


class TestCurvatureAdjustment:
    """Rescaling the expansion Hessian by the observed-to-implied variance
    ratio at the intercept fit."""

    def test_variance_ratio_on_a_balanced_binary_response(self, rng):
        """Two successes and two failures: the empirical variance of the
        response is 1/3 against an implied 1/4, a ratio of four thirds."""
        design = make_design(rng, 4, [1], intercept=True)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        cache = build_cache(design, y, logistic(), center="intercept-mle")
        ctx = me.curvature_context(cache, logistic())
        np.testing.assert_allclose(ctx.rho_hat, 4.0 / 3.0, atol=1e-12)

    def test_adjustment_changes_the_score_when_overdispersed(self, rng):
        n = 200
        design = make_design(rng, n, [1], intercept=True)
        lam = np.exp(0.3 * design.values[:, 1] + 0.7 * rng.normal(size=n))
        y = rng.poisson(lam).astype(np.float64)
        cache = build_cache(design, y, poisson(), center="intercept-mle")
        ctx = me.curvature_context(cache, poisson())
        assert ctx.rho_hat > 1.0
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        plain = _marginal(cache, poisson(), prior, (1, 1))
        adjusted = _marginal(cache, poisson(), prior, (1, 1), "ala-curvadj")
        assert plain.log_ml != adjusted.log_ml
        assert adjusted.method == "ala-curvadj"
        np.testing.assert_allclose(adjusted.diagnostics["rho_hat"], ctx.rho_hat)
        for score, rho in ((plain, 1.0), (adjusted, ctx.rho_hat)):
            want, beta = dense_known_phi_ala(cache, poisson(), prior, (1, 1), rho)
            np.testing.assert_allclose(score.log_ml, want, rtol=1e-13)
            np.testing.assert_allclose(score.expansion, beta, rtol=1e-10)

    def test_needs_an_intercept_centered_cache(self, rng):
        design = make_design(rng, 20, [1], intercept=True)
        y = (rng.random(20) < 0.5).astype(np.float64)
        cache = build_cache(design, y, logistic(), center="zero")
        with pytest.raises(ValueError):
            me.curvature_context(cache, logistic())

    def test_needs_a_known_dispersion(self, rng):
        design = make_design(rng, 20, [1], intercept=True)
        y = rng.normal(size=20)
        cache = build_cache(design, y, gaussian_unknown(), center="zero")
        with pytest.raises(ValueError):
            me.curvature_context(cache, gaussian_unknown())


class TestQuadratureOracle:
    """The one-dimensional adaptive integrator used as a reference."""

    def test_standard_normal_integrates_to_one(self):
        value = references.quadrature_oracle(lambda x: stats.norm.logpdf(x))
        np.testing.assert_allclose(value, 0.0, atol=1e-9)

    def test_gamma_integral_identity(self):
        """The integral of exp(a x - exp(x)) over the line is the gamma
        function at a."""
        for a in (0.7, 2.5, 6.0):
            value = references.quadrature_oracle(lambda x: a * x - np.exp(x), x0=np.log(a))
            np.testing.assert_allclose(value, gammaln(a), atol=1e-8)

    def test_shifted_and_scaled_normal(self):
        mu, sigma = 7.5, 0.2
        value = references.quadrature_oracle(
            lambda x: stats.norm.logpdf(x, loc=mu, scale=sigma)
        )
        np.testing.assert_allclose(value, 0.0, atol=1e-8)


class TestRefinedExpansion:
    """Cheap likelihood-driven updates of the expansion point."""

    def test_zero_steps_is_the_plain_expansion_score(self, rng):
        design = make_design(rng, 50, [1, 1], intercept=True)
        y = (rng.random(50) < 0.4).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        bits = (1, 1, 0)
        plain = _marginal(cache, logistic(), prior, bits)
        refined = _marginal(cache, logistic(), prior, bits, "ala-refined", 0)
        np.testing.assert_allclose(refined.log_ml, plain.log_ml, atol=1e-12)

    def test_any_step_count_is_exact_for_gaussian(self, rng):
        """Quadratic log likelihoods make the expansion score independent
        of the expansion point, so refinement cannot change it."""
        design = make_design(rng, 40, [1, 2])
        y = design.values @ np.array([0.7, 0.0, -0.3]) + rng.normal(size=40)
        phi, g = 1.0, 1.0
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=g)
        bits = (1, 1)
        reference = conjugate_known_phi_log_ml(design, bits, y, g, phi)
        for k in (0, 1, 3):
            refined = _marginal(cache, gaussian(phi), prior, bits, "ala-refined", k)
            np.testing.assert_allclose(refined.log_ml, reference, atol=1e-8)

    def test_one_step_improves_on_the_zero_expansion_for_logistic(self, rng):
        """On one-dimensional logistic data with a unit-variance Normal
        prior, a single update moves the score toward the quadrature truth
        in the vast majority of replicates."""
        n, beta_star = 100, 0.405
        wins = 0
        reps = 50
        for rep in range(reps):
            local = np.random.default_rng(500 + rep)
            z = local.normal(size=(n, 1))
            y = (local.random(n) < 1.0 / (1.0 + np.exp(-beta_star * z[:, 0]))).astype(
                np.float64
            )
            design = DesignMatrix(z, ((0, 1),))
            cache = build_cache(design, y, logistic())
            a = float(cache.gram.block(np.array([0]))[0, 0])
            prior = ParamPriorSpec(kind="gzellner", g=a / n)

            def integrand(b):
                eta = np.outer(z[:, 0], np.atleast_1d(b))
                ll = y @ eta - np.logaddexp(0.0, eta).sum(axis=0)
                return ll + stats.norm.logpdf(np.atleast_1d(b))

            truth = references.quadrature_oracle(integrand)
            model = design.model((1,))
            plain = _marginal(cache, logistic(), prior, model)
            refined = _marginal(cache, logistic(), prior, model, "ala-refined", 1)
            if abs(refined.log_ml - truth) < abs(plain.log_ml - truth):
                wins += 1
        assert wins >= 0.8 * reps

    def test_many_steps_approach_the_mode_score_for_logistic(self, rng):
        design = make_design(rng, 150, [1, 1], intercept=True)
        eta = design.values @ np.array([0.3, 1.0, 0.0])
        y = (rng.random(150) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        bits = (1, 1, 0)
        model = design.model(bits)
        plain = _marginal(cache, logistic(), prior, model)
        la = _marginal(cache, logistic(), prior, model, "la")
        refined = _marginal(cache, logistic(), prior, model, "ala-refined", 8)
        # refinement expands at the maximum-likelihood point, which sits
        # near but not exactly at the posterior mode, so the two scores
        # agree to a small residual rather than exactly
        assert abs(refined.log_ml - la.log_ml) < abs(plain.log_ml - la.log_ml)
        assert abs(refined.log_ml - la.log_ml) < 0.1


class TestNonlocalEngines:
    """Non-local prior scoring and its two oracles."""

    def _orthogonal_design(self, rng, n=40):
        q, _ = np.linalg.qr(rng.normal(size=(n, 5)))
        z = q * np.array([2.0, 1.1, 3.0, 0.7, 1.6])
        return DesignMatrix(z, ((0, 2), (2, 3), (3, 5)))

    def test_matches_per_group_quadrature_on_orthogonal_groups(self, rng):
        """With mutually orthogonal groups the posterior factorizes over
        groups, the tilt identity is exact, and the score equals the
        tensor-quadrature value."""
        design = self._orthogonal_design(rng)
        y = design.values @ np.array([0.5, -0.4, 0.9, 0.0, 0.0]) + rng.normal(size=40)
        phi = 1.0
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gmom", g=1.0)
        for bits in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1)]:
            fast = _marginal(cache, gaussian(phi), prior, bits)
            slow = references.exact_gmom_blockdiag(design.model(bits), cache, gaussian(phi), prior)
            np.testing.assert_allclose(fast.log_ml, slow.log_ml, atol=1e-8)
            dense, _ = dense_known_phi_ala(cache, gaussian(phi), prior, bits)
            np.testing.assert_allclose(fast.log_ml, dense, rtol=1e-13)

    def test_dependent_columns_raise_before_the_unknown_phi_tilt(self, rng):
        """Two identical columns make X'X singular; the joint curvature it
        leads is factored first and raises, so the tilt's Gram solve never
        sees a singular block."""
        z = rng.normal(size=(50, 1))
        design = DesignMatrix.with_singleton_groups(
            np.hstack([z, z, rng.normal(size=(50, 1))])
        )
        y = 0.3 * z[:, 0] + rng.normal(size=50)
        cache = build_cache(design, y, gaussian_unknown())
        prior = ParamPriorSpec(kind="gmom")
        with pytest.raises(NotConcaveAtExpansion, match=r"joint \(beta, phi\)"):
            _marginal(cache, gaussian_unknown(), prior, (1, 1, 1))

    def test_monte_carlo_oracle_confirms_the_quadrature_oracle(self, rng):
        design = self._orthogonal_design(rng)
        y = design.values @ np.array([0.5, -0.4, 0.9, 0.0, 0.0]) + rng.normal(size=40)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gmom", g=1.0)
        bits = (1, 1, 0)
        slow = references.exact_gmom_blockdiag(design.model(bits), cache, gaussian(1.0), prior)
        mc = references.exact_gmom_mc(
            design.model(bits),
            cache,
            gaussian(1.0),
            prior,
            n_draws=200_000,
            rng=np.random.default_rng(99),
        )
        se = mc.diagnostics["mc_se_log"]
        assert abs(mc.log_ml - slow.log_ml) < 5.0 * se + 1e-4

    @pytest.mark.parametrize("n_draws", [0, -5])
    def test_monte_carlo_oracle_needs_a_draw(self, rng, n_draws):
        design = make_design(rng, 30, [1, 1], intercept=True)
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        with pytest.raises(ValueError, match=f"n_draws must be at least 1, got {n_draws}"):
            references.exact_gmom_mc(
                design.model((1, 1, 0)), cache, gaussian(1.0), ParamPriorSpec(kind="gmom"),
                n_draws=n_draws,
            )

    def test_quadrature_oracle_rejects_correlated_groups(self, rng):
        design = make_design(rng, 30, [1, 1])
        # make the two columns strongly correlated
        vals = design.values.copy()
        vals[:, 1] = 0.9 * vals[:, 0] + 0.1 * vals[:, 1]
        design = DesignMatrix(vals, design.groups)
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gmom", g=1.0)
        with pytest.raises(ValueError):
            references.exact_gmom_blockdiag(design.model((1, 1)), cache, gaussian(1.0), prior)

    def test_null_model_has_no_tilt(self, rng):
        design = self._orthogonal_design(rng)
        y = rng.normal(size=40)
        cache = build_cache(design, y, gaussian(1.0))
        gz = ParamPriorSpec(kind="gzellner", g=1.0)
        gm = ParamPriorSpec(kind="gmom", g=1.0)
        bits = (0, 0, 0)
        a = _marginal(cache, gaussian(1.0), gm, bits)
        b = _marginal(cache, gaussian(1.0), gz, bits)
        assert a.diagnostics["tilt"] == 0.0
        for score, prior in ((a, gm), (b, gz)):
            dense, _ = dense_known_phi_ala(cache, gaussian(1.0), prior, bits)
            np.testing.assert_allclose(score.log_ml, dense, rtol=1e-14)

    def test_unknown_dispersion_route_only_for_gaussian(self, rng):
        """Non-Gaussian families with a free dispersion cannot take the
        non-local route and must be rejected, not silently mis-scored: the
        engine table has no row for them."""
        design = make_design(rng, 30, [1])
        y = rng.poisson(1.0, size=30).astype(np.float64)
        cache = build_cache(design, y, poisson())
        prior = ParamPriorSpec(kind="gmom", g=1.0, phi_prior=(0.01, 0.01))
        fake_unknown = dataclasses.replace(poisson(), phi_known=False)
        message = me._unsupported("expfam", "ala", "gmom", False)
        assert message == "an unknown dispersion is supported for the gaussian family only"
        with pytest.raises(ValueError, match=re.escape(message)):
            me.ModelScorer(cache, fake_unknown, prior)

    def test_gaussian_unknown_dispersion_route_is_tight_near_the_null(self, rng):
        """With unknown dispersion the zero expansion is approximate; its
        error against a simulated truth is small when the signal is weak
        and grows with the signal, which is the documented behavior."""
        prior = ParamPriorSpec(kind="gmom", g=1.0, phi_prior=(0.01, 0.01))
        gaps = {}
        for signal in (0.0, 0.4):
            local = np.random.default_rng(11)
            design = make_design(local, 80, [1, 1], intercept=True)
            beta = np.array([0.0, signal, 0.0])
            y = design.values @ beta + local.normal(size=80)
            cache = build_cache(design, y, gaussian_unknown())
            bits = (1, 1, 0)
            score = _marginal(cache, gaussian_unknown(), prior, bits)
            assert np.isfinite(score.log_ml)
            mc = references.exact_gmom_mc(
                design.model(bits),
                cache,
                gaussian_unknown(),
                prior,
                n_draws=200_000,
                rng=np.random.default_rng(4),
            )
            gaps[signal] = abs(score.log_ml - mc.log_ml)
        assert gaps[0.0] < 0.3
        assert gaps[0.0] < gaps[0.4]


def _survival_sample(rng, n=70, p=3, censor_frac=0.45):
    z = rng.normal(size=(n, p))
    alpha = np.zeros(p)
    alpha[0] = 0.7
    log_t = z @ alpha + rng.normal(size=n)
    cutoff = np.quantile(log_t, 1.0 - censor_frac)
    observed = log_t <= cutoff
    data = SurvivalData(np.where(observed, log_t, cutoff), observed)
    return DesignMatrix.with_singleton_groups(z), data


class TestSurvivalEngines:
    """Survival scoring against a longhand assembly from the raw censored
    likelihood derivatives."""

    def test_context_stats_match_raw_derivatives(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        p = design.p
        _, grad, hess = aft_loglik_grad_hess(
            design.values, data, np.zeros(p), ctx.tau0
        )
        # the profile equation zeroes the scale coordinate of the gradient
        np.testing.assert_allclose(grad[p], 0.0, atol=1e-8)
        np.testing.assert_allclose(grad[:p], ctx.ztv, atol=1e-9)
        np.testing.assert_allclose(hess[:p, p], ctx.ztyw, atol=1e-9)
        np.testing.assert_allclose(hess[p, p], -ctx.h_tt, atol=1e-9)
        cols = np.arange(p)
        np.testing.assert_allclose(
            -(ctx.wgram.block(cols)), hess[:p, :p], atol=1e-9
        )

    def test_expansion_score_matches_longhand_assembly(self, rng):
        """Assembling the plug-in score directly from the raw derivative
        routines and prior densities reproduces the engine value."""
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        g, (a, b) = 1.3, (0.8, 0.6)
        prior = ParamPriorSpec(kind="gzellner", g=g, phi_prior=(a, b))
        for bits in admissible_bits(3):
            engine = _aft_marginal(ctx, prior, bits)
            longhand, tau_tilde = zero_expansion_aft_log_ml(
                design, data, bits, ctx.tau0, g, a, b
            )
            np.testing.assert_allclose(engine.log_ml, longhand, atol=1e-9)
            np.testing.assert_allclose(
                engine.diagnostics["tau_tilde"], tau_tilde, atol=1e-9
            )
            assert engine.expansion[-1] == engine.diagnostics["tau_tilde"]

    def test_null_model_is_the_one_parameter_plugin_score(self, rng):
        """With no coefficients the expansion is in tau alone, at tau0, where
        the gradient vanishes: the score is l0 + log pi(tau0) + log(2 pi) / 2
        - log(h_tt) / 2."""
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        a, b = 0.8, 0.6
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(a, b))
        score = _aft_marginal(ctx, prior, (0, 0, 0))
        tau0 = ctx.tau0
        # the density of tau = phi^(-1/2) for phi inverse-gamma(a, b)
        log_prior = (
            np.log(2.0)
            + a * np.log(b)
            - gammaln(a)
            + (2.0 * a - 1.0) * np.log(tau0)
            - b * tau0**2
        )
        expected = (
            ctx.l0 + log_prior + 0.5 * np.log(2.0 * np.pi) - 0.5 * np.log(ctx.h_tt)
        )
        np.testing.assert_allclose(score.log_ml, expected, rtol=1e-13)
        np.testing.assert_array_equal(score.expansion, [tau0])
        assert score.method == "ala"
        assert score.diagnostics["tau_tilde"] == score.diagnostics["tau0"]

    def test_mode_score_sits_at_a_stationary_point(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.8, 0.6))
        score = _aft_marginal(ctx, prior, (1, 1, 0), "la")
        # convergence is declared on the objective decrement, so the
        # gradient is small but not driven to machine precision
        assert score.diagnostics["grad_norm"] < 1e-4
        assert np.isfinite(score.log_ml)

    def test_mode_and_expansion_scores_are_close_on_easy_data(self, rng):
        design, data = _survival_sample(rng, n=150, censor_frac=0.25)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        for bits in [(1, 0, 0), (1, 1, 1)]:
            a = _aft_marginal(ctx, prior, bits)
            b = _aft_marginal(ctx, prior, bits, "la")
            assert abs(a.log_ml - b.log_ml) < 2.0

    def test_null_model_scores_are_finite(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        a = _aft_marginal(ctx, prior, (0, 0, 0))
        b = _aft_marginal(ctx, prior, (0, 0, 0), "la")
        assert np.isfinite(a.log_ml) and np.isfinite(b.log_ml)
        assert abs(a.log_ml - b.log_ml) < 1.0


class TestScorers:
    """The memoizing front ends used by the search routines."""

    def test_scores_are_memoized(self, rng):
        design = make_design(rng, 30, [1, 1])
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        scorer = me.ModelScorer(cache, gaussian(1.0), prior)
        first = scorer.marginal((1, 0))
        second = scorer.marginal((1, 0))
        assert first is second

    def test_model_identifier_and_bits_share_an_entry(self, rng):
        design = make_design(rng, 30, [1, 1])
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        scorer = me.ModelScorer(cache, gaussian(1.0), prior)
        assert scorer.marginal(design.model((1, 0))) is scorer.marginal((1, 0))

    def test_log_score_adds_the_model_prior(self, rng):
        design = make_design(rng, 30, [1, 1])
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        model_prior = ModelPriorSpec(n_groups=2, p_total=2, c_exponent=1.0)
        scorer = me.ModelScorer(cache, gaussian(1.0), prior, model_prior=model_prior)
        bits = (1, 1)
        np.testing.assert_allclose(
            scorer.log_score(bits),
            scorer.log_ml(bits) + log_model_prior_unnorm(bits, model_prior),
            atol=1e-12,
        )

    def test_log_score_accepts_a_model_identifier(self, rng):
        """A checked key and its bit tuple get the same score, model prior
        included, from both scorers."""
        design = make_design(rng, 30, [1, 1])
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        model_prior = ModelPriorSpec(n_groups=2, p_total=2, c_exponent=1.0)
        scorer = me.ModelScorer(cache, gaussian(1.0), prior, model_prior=model_prior)
        assert scorer.log_score(design.model((1, 0))) == scorer.log_score((1, 0))

        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        model_prior = ModelPriorSpec(n_groups=3, p_total=3, c_exponent=1.0)
        scorer = me.AftScorer(ctx, prior, model_prior)
        model = design.model((1, 0, 1))
        assert scorer.log_score(model) == scorer.log_score((1, 0, 1))
        np.testing.assert_allclose(
            scorer.log_score(model),
            scorer.log_ml(model) + log_model_prior_unnorm((1, 0, 1), model_prior),
            atol=1e-12,
        )

    def test_unknown_method_is_rejected(self, rng):
        design = make_design(rng, 10, [1])
        cache = build_cache(design, rng.normal(size=10), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        with pytest.raises(ValueError):
            scorer = me.ModelScorer(cache, gaussian(1.0), prior, method="bogus")
            scorer.log_ml((1,))

    def test_model_prior_must_match_the_design(self, rng):
        """A model prior that counts the groups or the intercept differently
        from the design would score every model with a wrong prior."""
        design = make_design(rng, 30, [1, 1], intercept=True)
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec()
        for wrong in (
            ModelPriorSpec(n_groups=3, p_total=3),
            ModelPriorSpec(n_groups=2, p_total=3, intercept_group=0),
        ):
            with pytest.raises(ValueError, match="model prior"):
                me.ModelScorer(cache, gaussian(1.0), prior, wrong)
        right = ModelPriorSpec(n_groups=3, p_total=3, intercept_group=0)
        me.ModelScorer(cache, gaussian(1.0), prior, right)
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        with pytest.raises(ValueError, match="model prior"):
            me.AftScorer(ctx, prior, ModelPriorSpec(n_groups=2, p_total=3))

    @pytest.mark.parametrize(
        "family, kind, method, message",
        [
            (logistic(), "gmom", "la", "gaussian family only"),
            (gaussian(1.0), "gmom", "ala-refined", "unavailable for this prior"),
            (logistic(), "gzellner", "exact-gaussian", "gaussian family"),
            (gaussian_unknown(), "gzellner", "ala-refined", "known dispersion"),
            (gaussian_unknown(), "gzellner", "ala-curvadj", "known dispersion"),
            (None, "gmom", "ala", "block Zellner prior"),
            (None, "gzellner", "ala-refined", "unknown survival method"),
        ],
    )
    def test_unsupported_combinations_fail_at_construction(
        self, rng, family, kind, method, message
    ):
        prior = ParamPriorSpec(kind=kind)
        if family is None:
            design, data = _survival_sample(rng)
            stats = me.build_aft_context(design, data)
        else:
            design = make_design(rng, 40, [1, 1])
            y = (rng.random(40) < 0.5).astype(np.float64)
            stats = build_cache(design, y, family, center="intercept-mle")
        with pytest.raises(ValueError, match=message):
            me.ModelScorer(stats, family, prior, method=method)

    def test_a_negative_refine_step_count_fails_at_construction(self, rng):
        """No step count below zero means anything; zero steps is the
        zero expansion."""
        design = make_design(rng, 40, [1], intercept=True)
        y = (rng.random(40) < 0.5).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        with pytest.raises(ValueError, match="refine_steps"):
            me.ModelScorer(cache, logistic(), prior, method="ala-refined", refine_steps=-3)
        me.ModelScorer(cache, logistic(), prior, method="ala-refined", refine_steps=0)

    def test_refined_method_string_carries_the_step_count(self, rng):
        design = make_design(rng, 40, [1], intercept=True)
        y = (rng.random(40) < 0.5).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        scorer = me.ModelScorer(
            cache, logistic(), prior, method="ala-refined", refine_steps=2
        )
        score = scorer.marginal((1, 1))
        assert score.method == "ala-refined(2)"
        assert score.diagnostics["steps_taken"] == 2
        beta, loglik, grad, hess = reference_refined_expansion(
            design, (1, 1), y, logistic(), 2
        )
        prec, logdet = block_zellner_precision(design, (1, 1), 1.0)
        reference, _ = ala_general(
            loglik, grad, hess, prec, theta0=beta, prior_logdet=logdet
        )
        np.testing.assert_allclose(score.log_ml, reference, rtol=1e-10)

    def test_survival_scorer_memoizes_and_scores(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        scorer = me.AftScorer(ctx, prior)
        assert scorer.marginal((1, 0, 0)) is scorer.marginal((1, 0, 0))
        direct, _ = zero_expansion_aft_log_ml(
            design, data, (1, 0, 0), ctx.tau0, 1.0, 0.01, 0.01
        )
        np.testing.assert_allclose(scorer.log_ml((1, 0, 0)), direct, atol=1e-9)


_FAMILIES = {"logistic": logistic, "poisson": poisson, "gaussian": gaussian}


def _glm_response(rng, family, eta):
    if family == "logistic":
        return (rng.random(eta.shape[0]) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if family == "poisson":
        return rng.poisson(np.exp(eta)).astype(float)
    return eta + rng.normal(size=eta.shape[0])


@st.composite
def _batch_cases(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    intercept = draw(st.booleans())
    n_groups = len(sizes) + intercept
    free = list(range(int(intercept), n_groups))
    pairs = [(c, p) for c in free for p in free if p < c]
    requires = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "sizes": sizes,
        "intercept": intercept,
        "max_groups": draw(st.integers(1 + intercept, n_groups)),
        "requires": requires,
        "family": draw(st.sampled_from(sorted(_FAMILIES))),
        "kind": draw(st.sampled_from(["gzellner", "gmom"])),
        "method": draw(st.sampled_from(["ala", "ala-curvadj"])),
        "picks": draw(st.lists(st.integers(0, 10**6), max_size=40)),
        "warm": draw(st.integers(0, 3)),
    }


class TestScoreMany:
    """Batched scoring returns the dense per-model reference's scores and
    leaves the memo and the Gram store where the per-model loop leaves
    them."""

    def _pair(self, case):
        rng = np.random.default_rng(case["seed"])
        n = 60
        design = make_design(rng, n, case["sizes"], intercept=case["intercept"])
        beta = rng.normal(scale=0.3, size=design.p)
        y = _glm_response(rng, case["family"], design.values @ beta)
        family = _FAMILIES[case["family"]]()
        center = "intercept-mle" if case["method"] == "ala-curvadj" else "zero"
        prior = ParamPriorSpec(kind=case["kind"], g=1.0)
        model_prior = ModelPriorSpec(
            n_groups=design.n_groups,
            p_total=design.p,
            constraints=ConstraintSet(case["max_groups"], tuple(case["requires"])),
            intercept_group=design.intercept_group,
        )
        scorers = [
            me.ModelScorer(
                build_cache(design, y, family, center=center),
                family,
                prior,
                model_prior,
                method=case["method"],
            )
            for _ in range(2)
        ]
        admissible = list(
            admissible_bits(
                design.n_groups, model_prior.constraints, design.intercept_group
            )
        )
        models = [admissible[i % len(admissible)] for i in case["picks"]]
        return scorers, admissible[: case["warm"]] + models

    @settings(max_examples=60, deadline=None)
    @given(_batch_cases())
    def test_batch_matches_the_per_model_loop(self, case):
        (loop, batch), models = self._pair(case)
        warm = models[: case["warm"]]
        for scorer in (loop, batch):
            for bits in warm:
                scorer.log_score(bits)
        for bits in models:
            loop.log_score(bits)
        batched = batch.score_many(models)
        assert batched.shape == (len(models),)
        assert batch.cache.gram.dot_count == loop.cache.gram.dot_count
        assert batch.n_scored == loop.n_scored
        rho = batch.curvature.rho_hat if batch.curvature is not None else 1.0
        for bits, value in zip(models, batched):
            assert batch.log_score(bits) == value
            got = batch.marginal(bits)
            want, beta = dense_known_phi_ala(
                batch.cache, batch.family, batch.prior, bits, rho
            )
            np.testing.assert_allclose(got.log_ml, want, rtol=1e-10, atol=0)
            np.testing.assert_allclose(got.expansion, beta, rtol=1e-8, atol=1e-10)
            assert got.method == loop.marginal(bits).method
            assert got.diagnostics.keys() == loop.marginal(bits).diagnostics.keys()

    @pytest.mark.parametrize("kind", ["gzellner", "gmom"])
    @pytest.mark.parametrize("method", ["ala", "ala-curvadj"])
    def test_a_score_does_not_depend_on_its_batch(self, rng, kind, method):
        """A model's score is bitwise the same scored alone, in a batch, or
        in a reordered batch, each on a cache of its own."""
        design = make_design(rng, 80, [1, 2, 1, 3, 1, 2], intercept=True)
        eta = design.values @ rng.normal(scale=0.3, size=design.p)
        y = _glm_response(rng, "logistic", eta)
        center = "intercept-mle" if method == "ala-curvadj" else "zero"
        prior = ParamPriorSpec(kind=kind, g=1.0)
        models = admissible_bits(design.n_groups, intercept_group=0)
        order = rng.permutation(models.shape[0])
        scorers = [
            me.ModelScorer(
                build_cache(design, y, logistic(), center=center),
                logistic(),
                prior,
                method=method,
            )
            for _ in range(3)
        ]
        for row in models:
            scorers[0].log_score(row)
        alone = [scorers[0].marginal(row) for row in models]
        scorers[1].score_many(models)
        scorers[2].score_many(models[order])
        for row, one in zip(models, alone):
            for scorer in scorers[1:]:
                other = scorer.marginal(row)
                assert other.log_ml == one.log_ml
                np.testing.assert_array_equal(other.expansion, one.expansion)
                assert other.diagnostics == one.diagnostics

    @pytest.mark.parametrize(
        "family, kind, method",
        [
            ("logistic", "gzellner", "ala"),
            ("logistic", "gzellner", "ala-curvadj"),
            ("logistic", "gmom", "ala"),
            ("logistic", "gmom", "ala-curvadj"),
            ("gaussian", "gmom", "la"),
        ],
    )
    def test_a_known_dispersion_ala_batch_builds_no_score_until_asked(
        self, rng, monkeypatch, family, kind, method
    ):
        """A known-dispersion ``ala`` batch memoizes its log marginal
        likelihoods from the stack's arrays and builds no ``MarginalScore``;
        ``marginal`` afterwards gives, bitwise, the log marginal likelihood,
        method, expansion and diagnostics of the model scored alone."""
        design = make_design(rng, 80, [1, 2, 1, 3, 1], intercept=True)
        eta = design.values @ rng.normal(scale=0.3, size=design.p)
        y = _glm_response(rng, family, eta)
        center = "intercept-mle" if method == "ala-curvadj" else "zero"
        prior = ParamPriorSpec(kind=kind, g=1.0)
        scorers = [
            me.ModelScorer(
                build_cache(design, y, _FAMILIES[family](), center=center),
                _FAMILIES[family](),
                prior,
                method=method,
            )
            for _ in range(2)
        ]
        batch, alone = scorers
        models = admissible_bits(design.n_groups, intercept_group=0)
        built = []

        class Counted(me.MarginalScore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(me, "MarginalScore", Counted)
        scores = batch.score_many(models)
        assert built == []
        assert batch.n_scored == len(models)
        for row, value in zip(models, scores):
            got, want = batch.marginal(row), alone.marginal(row)
            assert value == got.log_ml == want.log_ml == alone.log_score(row)
            assert got.method == want.method
            np.testing.assert_array_equal(got.expansion, want.expansion)
            assert got.expansion.shape == design.columns_for(row).shape
            assert got.diagnostics == want.diagnostics
        assert len(built) == 2 * len(models)

    def test_a_score_does_not_depend_on_the_gram_read_order(self):
        """Every Gram entry has one rounding: two stores of one matrix give
        bitwise-equal blocks whatever was read first, and a Poisson ``la``
        score on a fresh cache equals the score on a cache whose blocks
        were read before it, column 0 and then all, or one column at a
        time."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10_000, 50))
        first, second = Gram(x), Gram(x)
        first.block(np.array([0]))
        np.testing.assert_array_equal(
            first.block(np.arange(50)), second.block(np.arange(50))
        )
        design = DesignMatrix.with_singleton_groups(x)
        beta = np.zeros(50)
        beta[:5] = 0.05
        y = _glm_response(rng, "poisson", x @ beta)
        models = np.zeros((20, 50), dtype=np.uint8)
        for row in models:
            row[rng.choice(50, size=5, replace=False)] = 1
        prior = ParamPriorSpec(kind="gzellner", g=1.0)

        def la_scores(reads):
            cache = build_cache(design, y, poisson())
            for cols in reads:
                cache.gram.block(np.array(cols))
            return me.ModelScorer(cache, poisson(), prior, method="la").score_many(models)

        fresh = la_scores([])
        for reads in ([[0], range(50)], [[j] for j in rng.permutation(50)]):
            np.testing.assert_array_equal(la_scores(reads), fresh)

    def test_single_group_enumeration_touches_no_cross_group_pair(self, rng):
        design = make_design(rng, 50, [1, 2, 3])
        y = rng.normal(size=50)
        models = admissible_bits(3, ConstraintSet(max_groups=1))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        loop = me.ModelScorer(build_cache(design, y, gaussian(1.0)), gaussian(1.0), prior)
        batch = me.ModelScorer(build_cache(design, y, gaussian(1.0)), gaussian(1.0), prior)
        looped = [loop.log_score(bits) for bits in models]
        np.testing.assert_allclose(batch.score_many(models), looped, rtol=1e-10)

    def test_singular_group_raises_the_loops_error(self, rng):
        # a group of two identical +-1 columns has the exactly singular
        # Gram block [[n, n], [n, n]]
        n = 64
        twin = rng.choice([-1.0, 1.0], size=(n, 1))
        design = DesignMatrix(
            np.hstack([rng.normal(size=(n, 1)), twin, twin]), ((0, 1), (1, 3))
        )
        y = rng.normal(size=n)
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        models = [(1, 0), (0, 1), (1, 1)]
        loop = me.ModelScorer(build_cache(design, y, gaussian(1.0)), gaussian(1.0), prior)
        batch = me.ModelScorer(build_cache(design, y, gaussian(1.0)), gaussian(1.0), prior)
        with pytest.raises(NotInvertible) as looped:
            for bits in models:
                loop.log_score(bits)
        with pytest.raises(NotInvertible) as batched:
            batch.score_many(models)
        assert str(batched.value) == str(looped.value)
        assert batch.n_scored == loop.n_scored == 1

    @pytest.mark.parametrize(
        "models, error, message",
        [
            ([(1, 1, 0), (0, 1, 0)], InvalidModel, "intercept group must be active"),
            (np.array([[1, 1, 0], [0, 1, 0]]), InvalidModel, "intercept group"),
            ([b"\x01\x01\x00", b"\x01\x02\x00"], ValueError, "one 0/1 byte"),
            ([(1, 1, 0), (1, 0)], ValueError, "length does not match"),
            (np.ones((2, 4)), ValueError, "length does not match"),
        ],
    )
    def test_invalid_models_raise_the_loops_error(self, rng, models, error, message):
        """A batch holding a model without the intercept group, a key with
        a byte other than 0/1 or the wrong length raises what scoring the
        models one at a time raises, and memoizes no invalid model."""
        design = make_design(rng, 40, [1, 1], intercept=True)
        cache = build_cache(design, rng.normal(size=40), gaussian(1.0))
        scorer = me.ModelScorer(cache, gaussian(1.0), ParamPriorSpec())
        with pytest.raises(error, match=message):
            scorer.score_many(models)
        assert scorer.n_scored <= 1

    @pytest.mark.parametrize(
        "method, family",
        [
            # known-dispersion la is batched (TestNewtonParity)
            ("la", gaussian_unknown()),
            ("ala-refined", logistic()),
            ("ala", gaussian_unknown()),
            ("exact-gaussian", gaussian(1.0)),
        ],
    )
    def test_other_methods_return_exactly_the_loops_values(self, rng, method, family):
        design = make_design(rng, 50, [1, 2, 1])
        eta = design.values @ np.array([0.6, 0.0, -0.4, 0.3])
        kind = "logistic" if family.kind == "logistic" else "gaussian"
        y = _glm_response(rng, kind, eta)
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        models = [*admissible_bits(3), (1, 1, 0)]
        scorers = [
            me.ModelScorer(cache, family, prior, method=method, refine_steps=2)
            for _ in range(2)
        ]
        looped = [scorers[0].log_score(bits) for bits in models]
        np.testing.assert_array_equal(scorers[1].score_many(models), looped)

    def test_survival_scorer_returns_exactly_the_loops_values(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        models = admissible_bits(3)
        for method in ("ala", "la"):
            loop, batch = (me.AftScorer(ctx, prior, method=method) for _ in range(2))
            looped = [loop.log_score(bits) for bits in models]
            np.testing.assert_array_equal(batch.score_many(models), looped)
            assert batch.n_scored == len(models)

    def test_a_failing_stack_raises_the_loops_error(self):
        """On ``gmom_accuracy(n=500)``, seed 0, 320 of the 1024
        gaussian-unknown ``ala`` models have an indefinite joint curvature:
        a batch raises the error of the loop's first failing model, with its
        message, and memoizes the models the loop scored before it."""
        sim = simdesigns.gmom_accuracy(np.random.default_rng(0), 500)
        cache = build_cache(sim.design, sim.response, gaussian_unknown())
        models = admissible_bits(sim.design.n_groups)
        loop, batch, alone = (
            me.ModelScorer(cache, gaussian_unknown(), ParamPriorSpec()) for _ in range(3)
        )
        failing = 0
        for row in models:
            try:
                alone.log_score(row)
            except NotConcaveAtExpansion:
                failing += 1
        assert (failing, len(models)) == (320, 1024)
        with pytest.raises(SelectionError) as looped:
            for row in models:
                loop.log_score(row)
        with pytest.raises(SelectionError) as batched:
            batch.score_many(models)
        assert type(batched.value) is type(looped.value) is NotConcaveAtExpansion
        assert str(batched.value) == str(looped.value)
        assert batch.n_scored == loop.n_scored > 0

    def test_a_survival_update_at_a_negative_scale_scores_minus_infinity(self):
        """One observed failure far before the censoring time, and a
        covariate that sets it apart, move the update's tau below zero: the
        model and its supersets score -inf in a batch as in a loop, and the
        record names the update."""
        rng = np.random.default_rng(0)
        lead = np.append(-2.2, -0.45 + 0.2 * rng.normal(size=40))
        z = np.column_stack([rng.normal(size=41), lead])
        observed = np.arange(41) == 0
        data = SurvivalData(np.append(-2.8, np.full(40, -0.09)), observed)
        ctx = me.build_aft_context(DesignMatrix.with_singleton_groups(z), data)
        prior = ParamPriorSpec()
        models = admissible_bits(2)
        loop, batch = (me.AftScorer(ctx, prior) for _ in range(2))
        looped = [loop.log_score(bits) for bits in models]
        np.testing.assert_array_equal(batch.score_many(models), looped)
        assert batch.n_scored == loop.n_scored == 4
        assert np.isneginf(looped).tolist() == [False, True, False, True]
        for bits in models[1::2]:
            score = batch.marginal(bits)
            assert score.log_ml == -np.inf
            assert score.diagnostics["tau_tilde"] <= 0.0 < score.diagnostics["tau0"]
            want, tau_tilde = zero_expansion_aft_log_ml(
                ctx.design, data, bits, ctx.tau0, 1.0, *prior.phi_prior
            )
            assert want == -np.inf
            np.testing.assert_allclose(score.diagnostics["tau_tilde"], tau_tilde, rtol=1e-10)


class TestScalingBehavior:
    """Per-model scoring cost must not grow with the sample size once the
    cross products are cached."""

    def test_score_depends_on_data_only_through_the_cached_statistics(self, rng):
        """Two data sets with identical sufficient statistics get identical
        scores, demonstrating that the engine reads nothing else."""
        design = make_design(rng, 64, [1, 1])
        y = rng.normal(size=64)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        bits = (1, 1)
        score = _marginal(cache, gaussian(1.0), prior, bits)

        # rotate the raw data by an orthogonal matrix: Z'Z, Z'y, y'y survive
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        design_rot = DesignMatrix(q @ design.values, design.groups)
        cache_rot = build_cache(design_rot, q @ y, gaussian(1.0))
        score_rot = _marginal(cache_rot, gaussian(1.0), prior, bits)
        np.testing.assert_allclose(score.log_ml, score_rot.log_ml, atol=1e-8)


_PARITY_FAMILIES = {
    "poisson": poisson,
    "logistic": logistic,
    "gaussian": lambda: gaussian(0.7),
    "gaussian-unknown": gaussian_unknown,
}
_PARITY_CASES = [
    (name, center)
    for name in _PARITY_FAMILIES
    for center in ("zero", "intercept-mle")
    # the unknown-dispersion engines expand at zero only
    if not (name == "gaussian-unknown" and center == "intercept-mle")
]


_KNOWN_PHI = ("poisson", "logistic", "gaussian")


def _parity_data(name, seed=31, n=300, sizes=(2, 1, 3, 1)):
    """A grouped design with an intercept group and a response with a few
    moderate effects."""
    rng = np.random.default_rng(seed)
    design = make_design(rng, n, list(sizes), intercept=True)
    beta = np.zeros(design.p)
    beta[[0, 1, 3, 5]] = [0.2, 0.35, -0.3, 0.25]
    eta = design.values @ beta
    kind = "gaussian" if name.startswith("gaussian") else name
    return design, _glm_response(rng, kind, eta)


_PARITY_MODELS = [(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 1, 0), (1, 1, 1, 1, 1)]


class TestNewtonParity:
    """The Laplace engine reads its first Newton evaluation from the cache
    and fuses each later one into one pass; it must take the iterates of
    the plain objective with separate likelihood and derivative calls."""

    @pytest.mark.parametrize("name,center", _PARITY_CASES)
    def test_la_matches_the_reference_newton(self, name, center):
        design, y = _parity_data(name)
        family = _PARITY_FAMILIES[name]()
        cache = build_cache(design, y, family, center=center)
        phi_prior = None if family.phi_known else (0.5, 0.7)
        prior = ParamPriorSpec(kind="gzellner", g=1.3, phi_prior=phi_prior)
        for bits in _PARITY_MODELS:
            score = _marginal(cache, family, prior, bits, "la")
            log_ml, mode, iterations, _ = reference_la(
                design, bits, y, family, 1.3, phi_prior
            )
            np.testing.assert_allclose(score.log_ml, log_ml, rtol=1e-10)
            assert score.diagnostics["iterations"] == iterations
            np.testing.assert_allclose(score.expansion, mode, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("name", ["poisson", "logistic", "gaussian"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_refined_matches_the_general_expansion(self, name, k):
        design, y = _parity_data(name)
        family = _PARITY_FAMILIES[name]()
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        for bits in _PARITY_MODELS:
            beta, loglik, grad, hess = reference_refined_expansion(
                design, bits, y, family, k
            )
            prec, logdet = block_zellner_precision(design, bits, 1.3)
            phi = float(family.phi)
            reference, expansion = ala_general(
                loglik, grad, hess, prec / phi, theta0=beta,
                prior_logdet=logdet - beta.size * np.log(phi),
            )
            score = _marginal(cache, family, prior, bits, "ala-refined", k)
            np.testing.assert_allclose(score.log_ml, reference, rtol=1e-10)
            np.testing.assert_allclose(score.expansion, expansion, atol=1e-8)
            assert score.diagnostics["steps_taken"] == k

    @pytest.mark.parametrize(
        "name,center,sizes",
        [
            (name, center, (2, 1, 3, 1))
            for name, center in _PARITY_CASES
            if name in _KNOWN_PHI
        ]
        + [("poisson", "zero", (3, 2, 2, 1, 1))],
    )
    def test_batched_la_matches_the_one_model_engine(self, name, center, sizes):
        """``score_many`` under ``la`` runs the models of every size as one
        stacked Newton; each keeps the one-model iterates, evaluations and
        score, and a batch of one model is the one-model engine exactly."""
        design, y = _parity_data(name, sizes=sizes)
        family = _PARITY_FAMILIES[name]()
        cache = build_cache(design, y, family, center=center)
        # a Gram entry's rounding depends on the fill that computed it
        cache.gram.block(np.arange(design.p))
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(design.n_groups, intercept_group=0)
        single = [
            _marginal(cache, family, prior, row, "la") for row in bits
        ]
        scorer = me.ModelScorer(cache, family, prior, method="la")
        scores = scorer.score_many(bits)
        for row, value, one in zip(bits, scores, single):
            got = scorer.marginal(row)
            np.testing.assert_allclose(value, one.log_ml, rtol=1e-10)
            assert got.diagnostics["iterations"] == one.diagnostics["iterations"]
            assert got.diagnostics["evaluations"] == one.diagnostics["evaluations"]
            # equal up to the order of the n-term sums, which depends on
            # how many models share a product
            np.testing.assert_allclose(
                got.diagnostics["grad_norm"],
                one.diagnostics["grad_norm"],
                rtol=0,
                atol=1e-12,
            )
        for row, one in zip(bits, single):
            alone = me.ModelScorer(cache, family, prior, method="la")
            assert alone.score_many([row])[0] == one.log_ml
            got = alone.marginal(row)
            assert got.diagnostics == one.diagnostics
            np.testing.assert_array_equal(got.expansion, one.expansion)
        for row, one in zip(bits, single):
            log_ml, mode, iterations, evaluations = reference_la(
                design, row, y, family, 1.3
            )
            np.testing.assert_allclose(one.log_ml, log_ml, rtol=1e-10)
            assert one.diagnostics["iterations"] == iterations
            # the reference evaluates its start from the data; a zero
            # centered cache supplies it
            assert one.diagnostics["evaluations"] == evaluations - (center == "zero")
            np.testing.assert_allclose(one.expansion, mode, atol=1e-8)

    def test_models_of_sizes_one_to_eight_run_as_one_stacked_newton_run(
        self, monkeypatch
    ):
        """The 128 models of 1 to 8 columns over an 8-column union run as
        one ``_stacked_newton`` run, and each model keeps the iterates,
        evaluations and score of ``_la_known_phi``."""
        design, y = _parity_data("logistic")
        family = logistic()
        cache = build_cache(design, y, family)
        cache.gram.block(np.arange(design.p))
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(design.n_groups, intercept_group=0)
        col_mask = bits.astype(bool)[:, design.col_group]
        p_gamma = col_mask.sum(axis=1)
        assert np.unique(p_gamma).tolist() == list(range(1, 9))
        stacks = list(me._la_stacks(np.arange(len(bits)), col_mask, p_gamma))
        assert [rows.tolist() for rows, _ in stacks] == [list(range(len(bits)))]
        runs = []
        stacked_newton = me._stacked_newton

        def recording(objective, theta, *args):
            runs.append(theta.shape)
            return stacked_newton(objective, theta, *args)

        monkeypatch.setattr(me, "_stacked_newton", recording)
        scorer = me.ModelScorer(cache, family, prior, method="la")
        scores = scorer.score_many(bits)
        assert runs == [(len(bits), 8)]
        for row, value in zip(bits, scores):
            one = _marginal(cache, family, prior, row, "la")
            got = scorer.marginal(row).diagnostics
            np.testing.assert_allclose(value, one.log_ml, rtol=1e-10)
            assert got["iterations"] == one.diagnostics["iterations"]
            assert got["evaluations"] == one.diagnostics["evaluations"]
            np.testing.assert_allclose(
                got["grad_norm"], one.diagnostics["grad_norm"], rtol=0, atol=1e-12
            )

    def test_a_batch_over_the_model_cap_splits_into_in_order_runs(
        self, monkeypatch
    ):
        """The 511 models with columns over 9 singleton groups run as
        in-order stacks of at most ``_LA_BLOCK // 128`` (256) models,
        each model with its one-model iterates, evaluations and score."""
        rng = np.random.default_rng(6)
        design = DesignMatrix.with_singleton_groups(rng.normal(size=(120, 9)))
        y = _glm_response(rng, "poisson", 0.2 * design.values[:, :3].sum(axis=1))
        family = poisson()
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(9)
        col_mask = bits.astype(bool)
        p_gamma = col_mask.sum(axis=1)
        members = np.flatnonzero(p_gamma)
        cap = me._LA_BLOCK // 128
        assert members.size > cap
        stacks = list(me._la_stacks(members, col_mask, p_gamma))
        assert [rows.size for rows, _ in stacks] == [cap, members.size - cap]
        order = np.concatenate([rows for rows, _ in stacks])
        assert order.tolist() == members.tolist()
        runs = []
        stacked_newton = me._stacked_newton

        def recording(objective, theta, *args):
            runs.append(theta.shape[0])
            return stacked_newton(objective, theta, *args)

        monkeypatch.setattr(me, "_stacked_newton", recording)
        la = me.ModelScorer(cache, family, prior, method="la")
        _, scores = me.la_known_phi_many(la, bits, False)
        assert runs == [rows.size for rows, _ in stacks]
        for row, got in zip(bits, scores):
            one = _marginal(cache, family, prior, row, "la")
            np.testing.assert_allclose(got.log_ml, one.log_ml, rtol=1e-10)
            assert got.diagnostics["iterations"] == one.diagnostics["iterations"]
            assert got.diagnostics["evaluations"] == one.diagnostics["evaluations"]

    def test_a_union_too_wide_for_its_pair_products_runs_its_models_alone(
        self, monkeypatch
    ):
        """A run whose union has more than ``_LA_BLOCK // 128`` columns and
        pair products (22 columns: 22 + 253) scores each model alone with
        ``_la_known_phi``, never as a ``_la_stack``, and never
        holds the weighted Grams of the union's pairs; the same models
        without column 21 (a 21-column union: 21 + 231) run as one stack."""
        rng = np.random.default_rng(8)
        design = DesignMatrix.with_singleton_groups(rng.normal(size=(200, 22)))
        y = _glm_response(rng, "poisson", 0.2 * design.values[:, :3].sum(axis=1))
        family = poisson()
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = np.zeros((128, 22), dtype=np.uint8)
        for r in range(128):
            bits[r, [r % 22, (r + 1) % 22, (r + 5) % 22]] = 1
        narrow = bits[bits[:, 21] == 0]
        stacks = {}
        for name, batch in [("wide", bits), ("narrow", narrow)]:
            col_mask = batch.astype(bool)
            p_gamma = col_mask.sum(axis=1)
            members = np.arange(len(batch))
            stacks[name] = list(me._la_stacks(members, col_mask, p_gamma))
        assert [rows.tolist() for rows, _ in stacks["wide"]] == [
            [i] for i in range(len(bits))
        ]
        [(rows, union)] = stacks["narrow"]
        assert rows.tolist() == list(range(len(narrow)))
        assert union.tolist() == list(range(21))
        runs = []
        la_stack = me._la_stack

        def recording(cache, family, prior, mask, union):
            runs.append(mask.shape[0])
            return la_stack(cache, family, prior, mask, union)

        monkeypatch.setattr(me, "_la_stack", recording)
        single = [
            _marginal(cache, family, prior, row, "la") for row in bits
        ]
        la = me.ModelScorer(cache, family, prior, method="la")
        tracemalloc.start()
        try:
            _, scores = me.la_known_phi_many(la, bits, False)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs == []
        # one stack's weighted Grams would hold 128 x (253 + 1) doubles
        assert peak - current < 8 * len(bits) * 254
        for got, one in zip(scores, single):
            assert got.log_ml == one.log_ml
            assert got.diagnostics == one.diagnostics
        _, scores = me.la_known_phi_many(la, narrow, False)
        assert runs == [len(narrow)]
        for row, got in zip(narrow, scores):
            one = _marginal(cache, family, prior, row, "la")
            np.testing.assert_allclose(got.log_ml, one.log_ml, rtol=1e-10)
            assert got.diagnostics["iterations"] == one.diagnostics["iterations"]
            assert got.diagnostics["evaluations"] == one.diagnostics["evaluations"]

    @pytest.mark.parametrize("name", ["poisson", "logistic"])
    def test_models_of_every_size_share_one_padded_stack(self, name, monkeypatch):
        """Models of 1 to 4 columns run as one stack padded to 4 columns:
        each keeps its one-model iterates, evaluations and score, and its
        padded coordinates stay exactly zero with a zero gradient."""
        rng = np.random.default_rng(9)
        design = make_design(rng, 300, [1, 1, 1], intercept=True)
        y = _glm_response(rng, name, design.values @ [0.2, 0.35, -0.3, 0.0])
        family, passes = _counting_passes(_PARITY_FAMILIES[name]())
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(design.n_groups, intercept_group=0)
        sizes = bits.sum(axis=1)
        assert sizes.tolist() == [1, 2, 2, 3, 2, 3, 3, 4]
        single = [
            _marginal(cache, family, prior, row, "la") for row in bits
        ]
        runs = []
        stacked_newton = me._stacked_newton

        def recording(*args):
            runs.append(stacked_newton(*args))
            return runs[-1]

        monkeypatch.setattr(me, "_stacked_newton", recording)
        del passes[:]
        scorer = me.ModelScorer(cache, family, prior, method="la")
        scores = scorer.score_many(bits)
        assert len(runs) == 1
        theta, _, grad, _, iterations, evaluations = runs[0]
        assert theta.shape == (len(bits), 4)
        for r, (row, value, one) in enumerate(zip(bits, scores, single)):
            k = sizes[r]
            np.testing.assert_allclose(value, one.log_ml, rtol=1e-10)
            assert iterations[r] == one.diagnostics["iterations"]
            assert evaluations[r] == one.diagnostics["evaluations"]
            assert scorer.marginal(row).expansion.shape == (k,)
            assert (theta[r, k:] == 0.0).all()
            assert (grad[r, k:] == 0.0).all()
        assert len(passes) == max(evaluations)

    def test_a_stack_too_big_for_its_padded_curvatures_splits(self, monkeypatch):
        """Without room for the (B, K, K) curvatures of the whole batch, the
        batch is halved into stacks whose curvatures fit; each model keeps
        its one-model iterates, evaluations and score."""
        rng = np.random.default_rng(5)
        design = make_design(rng, 60, [1] * 7, intercept=True)
        y = _glm_response(rng, "poisson", 0.3 * design.values[:, 1])
        family, passes = _counting_passes(poisson())
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(design.n_groups, intercept_group=0)
        col_mask = bits.astype(bool)[:, design.col_group]
        p_gamma = col_mask.sum(axis=1)
        monkeypatch.setattr(me, "_STACK_ENTRIES", 4096)
        assert len(bits) * 8 * 8 > me._STACK_ENTRIES
        stacks = list(me._la_stacks(np.arange(len(bits)), col_mask, p_gamma))
        assert len(stacks) > 1
        order = np.concatenate([rows for rows, _ in stacks])
        assert order.tolist() == list(range(len(bits)))
        for rows, _ in stacks:
            assert rows.size * p_gamma[rows].max() ** 2 <= me._STACK_ENTRIES
        single = [
            _marginal(cache, family, prior, row, "la") for row in bits
        ]
        runs = []
        stacked_newton = me._stacked_newton

        def recording(objective, theta, *args):
            runs.append(theta.shape)
            return stacked_newton(objective, theta, *args)

        monkeypatch.setattr(me, "_stacked_newton", recording)
        del passes[:]
        scorer = me.ModelScorer(cache, family, prior, method="la")
        scores = scorer.score_many(bits)
        assert runs == [
            (rows.size, p_gamma[rows].max()) for rows, _ in stacks if rows.size > 1
        ]
        for row, value, one in zip(bits, scores, single):
            got = scorer.marginal(row).diagnostics
            np.testing.assert_allclose(value, one.log_ml, rtol=1e-10)
            assert got["iterations"] == one.diagnostics["iterations"]
            assert got["evaluations"] == one.diagnostics["evaluations"]
        evaluations = sum(one.diagnostics["evaluations"] for one in single)
        assert sum(passes) == evaluations * design.n

    @pytest.mark.parametrize("failure", ["start", "stall"])
    def test_a_failing_model_raises_the_loops_error(self, failure, monkeypatch):
        """A batch holding a model whose start is not finite, or whose line
        search stalls, raises what scoring the models one at a time raises,
        from the same first model, and memoizes the same models."""
        design, y = _parity_data("poisson")
        family = poisson()
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = admissible_bits(design.n_groups, intercept_group=0)
        if failure == "start":
            # a negative count has likelihood zero
            y = y.copy()
            y[7] = -1.0
        else:
            # a model stalls once its objective falls below the cut, which
            # the models with the largest gains reach
            cache = build_cache(design, y, family)
            start = -me._loglik_at_center(cache, family, 1.0)
            gains = []
            for row in bits:
                mode = _marginal(cache, family, prior, row, "la").expansion
                cols = design.columns_for(row)
                prec, _ = block_zellner_precision(design, row, 1.3)
                value = -fam.loglik(family, design.values[:, cols] @ mode, y)
                gains.append(start - value - 0.5 * mode @ prec @ mode)
            cut = start - np.median(gains)
            accepts = me._accepts

            def capped(value, grad_norm, cand_value, cand_grad_norm):
                return accepts(value, grad_norm, cand_value, cand_grad_norm) & (
                    value >= cut
                )

            monkeypatch.setattr(me, "_accepts", capped)
        loop, batch = (
            me.ModelScorer(build_cache(design, y, family), family, prior, method="la")
            for _ in range(2)
        )
        with pytest.raises(SelectionError) as looped:
            for row in bits:
                loop.log_score(row)
        with pytest.raises(SelectionError) as batched:
            batch.score_many(bits)
        assert type(batched.value) is type(looped.value) is NoConvergence
        assert str(batched.value) == str(looped.value)
        assert batch.n_scored == loop.n_scored
        if failure == "start":
            assert "not finite at the start" in str(looped.value)
            assert loop.n_scored == 0
        else:
            assert "stalled" in str(looped.value)
            assert 0 < loop.n_scored < len(bits) - 1

    def test_stacked_rule_takes_the_one_row_iterates(self):
        """Each row of ``_stacked_newton`` follows the reference Newton on
        its own objective: a full step that overshoots and is halved, a
        value that ties within the slack while the gradient shrinks, and a
        quadratic."""

        def overshoot(theta):
            u = 3.0 * (theta - 1.0)
            value = float(np.sum(np.logaddexp(u, -u)))
            return value, 3.0 * np.tanh(u), np.diag(9.0 / np.cosh(u) ** 2)

        def tie(theta):
            return 1e6, 1e-6 * (theta - 1.0), 1e-6 * np.eye(1)

        def quadratic(theta):
            d = theta - 0.5
            return float(2.0 * d @ d), 4.0 * d, 4.0 * np.eye(1)

        rows = [overshoot, tie, quadratic]

        def stacked(live, theta):
            values, grads, hesses = zip(*(rows[r](t) for r, t in zip(live, theta)))
            return np.array(values), np.array(grads), np.array(hesses)

        theta, value, grad, hess, iterations, evaluations = me._stacked_newton(
            stacked, np.zeros((3, 1)), None, np.ones(3, dtype=int)
        )
        for r, objective in enumerate(rows):
            # the reference evaluates its start, as the stack does here
            one = _reference_damped_newton(objective, np.zeros(1))
            np.testing.assert_array_equal(theta[r], one[0])
            assert value[r] == one[1]
            assert iterations[r] == one[4]
            assert evaluations[r] == one[5]
        assert evaluations[0] > iterations[0] + 1
        assert iterations[1] == 1

    def test_a_step_out_of_the_domain_is_halved_unevaluated(self):
        """In a one-row stack whose column 1 must stay positive, the full
        Newton step from t = 10 on ``0.5 (b - 1)^2 + t - log t`` lands at
        t = -80; it is halved four times without an evaluation, to 4.375,
        and the row takes the reference Newton's iterates and evaluations.
        Halvings out of the domain count toward the 60 tries: a row whose
        every try leaves it stalls with only its start evaluated."""

        def objective(theta):
            b, t = theta
            assert t > 0.0
            value = 0.5 * (b - 1.0) ** 2 + t - np.log(t)
            return value, np.array([b - 1.0, 1.0 - 1.0 / t]), np.diag([1.0, t**-2])

        calls = []

        def one_row(objective):
            def stacked(live, theta):
                calls.append(theta[0].copy())
                value, grad, hess = objective(theta[0])
                return np.array([value]), grad[None], hess[None]

            return stacked

        start = np.array([0.0, 10.0])
        theta, value, _, _, iterations, evaluations = me._stacked_newton(
            one_row(objective), start[None].copy(), None, np.array([2]), positive=1
        )
        assert calls[1][1] == 10.0 - 90.0 / 16.0
        want = _reference_damped_newton(objective, start, positive=(1,))
        np.testing.assert_array_equal(theta[0], want[0])
        assert value[0] == want[1]
        assert iterations[0] == want[4]
        assert evaluations[0] == want[5] == len(calls)

        # the step in t is about 1e10, and its 60 tries reach 1e10 / 2^59 =
        # 1.7e-8: from t = 1.3e-8 all 60 leave the domain (a 61st would not);
        # from t = 2.5e-8 the 60th is the first inside, and is taken
        def steep(theta):
            t = theta[0]
            assert t > 0.0
            return t + 5e-11 * t * t, np.array([1.0 + 1e-10 * t]), np.array([[1e-10]])

        for t, iteration in [(1.3e-8, 0), (2.5e-8, 1)]:
            calls.clear()
            with pytest.raises(
                NoConvergence, match=f"line search stalled at iteration {iteration}"
            ):
                me._stacked_newton(
                    one_row(steep), np.array([[t]]), None, np.array([1]), positive=0
                )
            assert len(calls) == 1 + iteration
            with pytest.raises(AssertionError, match="reference line search stalled"):
                _reference_damped_newton(steep, np.array([t]), positive=(0,))

    def test_a_model_over_the_iteration_cap_raises_alone_and_in_a_batch(
        self, monkeypatch
    ):
        """With ``_NEWTON_MAX_ITER`` at 1, a model that needs a second
        Newton step raises the same ``NoConvergence`` alone and in a
        batch.  The cap counts accepted steps: a model that meets the
        tolerance at its fifth step scores under a cap of 5, not of 4."""
        design, y = _parity_data("poisson")
        family = poisson()
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        bits = (1, 1, 1, 1, 1)
        assert _marginal(cache, family, prior, bits, "la").diagnostics[
            "iterations"
        ] > 1
        monkeypatch.setattr(me, "_NEWTON_MAX_ITER", 1)
        pattern = r"gradient norm \S+ above 1\.0e-08 after 1 iterations"
        with pytest.raises(NoConvergence, match=pattern) as alone:
            _marginal(cache, family, prior, bits, "la")
        with pytest.raises(NoConvergence, match=pattern) as batched:
            me.la_known_phi_many(
                me.ModelScorer(cache, family, prior, method="la"),
                np.array([bits, (1, 1, 0, 1, 0)], dtype=np.uint8),
                False,
            )
        assert str(batched.value) == str(alone.value)
        converging = design.model((1, 1, 0, 0, 0))
        monkeypatch.setattr(me, "_NEWTON_MAX_ITER", 5)
        score = _marginal(cache, family, prior, converging, "la")
        assert score.diagnostics["iterations"] == 5
        assert score.diagnostics["grad_norm"] <= me._NEWTON_TOL
        monkeypatch.setattr(me, "_NEWTON_MAX_ITER", 4)
        with pytest.raises(NoConvergence, match="after 4 iterations"):
            _marginal(cache, family, prior, converging, "la")

    def test_stacked_direction_takes_the_ridge_retries_row_by_row(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        definite = a @ a.T + 3.0 * np.eye(3)
        # rank one: the Cholesky factorization fails and a ridge repairs it
        singular = np.ones((3, 3))
        grad = rng.normal(size=(2, 3))
        hess = np.stack([definite, singular])
        step = me._stacked_direction(grad, hess, np.array([3, 3]))
        for g, h, s in zip(grad, hess, step):
            np.testing.assert_array_equal(s, reference_newton_direction(g, h))
        # a row padded past its size takes the ridge of its own block, whose
        # mean diagonal (2) is not the padded matrix's (1.6)
        padded_grad = np.zeros((2, 5))
        padded_grad[:, :3] = grad
        padded_hess = np.tile(np.eye(5), (2, 1, 1))
        padded_hess[:, :3, :3] = [definite, 2.0 * singular]
        step = me._stacked_direction(padded_grad, padded_hess, np.array([3, 3]))
        for g, h, s in zip(grad, [definite, 2.0 * singular], step):
            np.testing.assert_array_equal(s[:3], reference_newton_direction(g, h))
            assert (s[3:] == 0.0).all()
        # the ridges grow to 1e12 times the mean diagonal, here 1/3
        hopeless = np.diag([1e20, -1e20, 1.0])
        with pytest.raises(NotConcave, match="curvature is not positive definite"):
            me._stacked_direction(
                grad, np.stack([definite, hopeless]), np.array([3, 3])
            )

    @pytest.mark.parametrize("name", ["poisson", "logistic"])
    def test_stacked_working_memory_stays_within_the_bound(self, name, monkeypatch):
        """Peak memory of a stacked ``la`` batch beyond what it returns.
        The columns of 8 singleton groups with their pair products would
        take 880 000 doubles at n = 20 000 and 1 760 000 at n = 40 000; the
        data pass gathers them one block of observations at a time, so the
        batch runs as one stack at both sizes, with the same peak."""
        runs = []
        la_stack = me._la_stack

        def recording(cache, family, prior, mask, union):
            runs.append(mask.shape[0])
            return la_stack(cache, family, prior, mask, union)

        monkeypatch.setattr(me, "_la_stack", recording)
        peaks = []
        for n in (20_000, 40_000):
            rng = np.random.default_rng(12)
            design = DesignMatrix.with_singleton_groups(rng.normal(size=(n, 8)))
            y = _glm_response(rng, name, 0.1 * design.values.sum(axis=1))
            family = _PARITY_FAMILIES[name]()
            prior = ParamPriorSpec(kind="gzellner", g=1.0)
            cache = build_cache(design, y, family)
            bits = admissible_bits(8)
            # the Gram fill and the cached response terms are not working arrays
            me.ModelScorer(cache, family, prior).score_many(bits)
            _marginal(cache, family, prior, bits[1], "la")
            # the same batch, untraced, on a throwaway scorer: the traced run
            # then finds the allocations a run keeps for reuse (Python's
            # float free list, numpy's small-buffer cache) as a run leaves
            # them, whatever ran before in the process
            me.ModelScorer(cache, family, prior, method="la").score_many(bits)
            runs.clear()
            scorer = me.ModelScorer(cache, family, prior, method="la")
            tracemalloc.start()
            try:
                scorer.score_many(bits)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - current)
            assert scorer.n_scored == len(bits)
            assert runs == [len(bits) - 1]
        assert max(peaks) <= 8 * me._STACK_ENTRIES
        # equal up to a few small Python objects; one n-length array of
        # doubles would add 160 000 bytes
        assert abs(peaks[1] - peaks[0]) <= 1024

    @pytest.mark.parametrize("name", ["poisson", "logistic"])
    @pytest.mark.parametrize("m, u", [(4, 3), (256, 21)])
    def test_a_stacked_evaluation_holds_at_most_la_work_arrays(self, name, m, u):
        """Peak memory of one evaluation over blocks of observations, in
        working arrays of one block: a block's predictor and cumulant are
        freed before the next block's are made.  At 256 models of 3
        columns over 21 (the widest union a stack takes), the block's 252
        columns and pair products set its length, and the weighted Grams
        take almost two arrays."""
        rng = np.random.default_rng(12)
        n = 20_000
        design = DesignMatrix.with_singleton_groups(rng.normal(size=(n, u)))
        y = _glm_response(rng, name, 0.1 * design.values[:, :3].sum(axis=1))
        family = _PARITY_FAMILIES[name]()
        cache = build_cache(design, y, family)
        k = min(u, 3)
        pos = np.array([rng.choice(u, k, replace=False) for _ in range(m)])
        objective = me._stacked_objective(
            cache, family, 1.0, np.arange(u), pos, np.tile(np.eye(k), (m, 1, 1))
        )
        theta = 0.1 * rng.normal(size=(m, k))
        objective(np.arange(m), theta)
        tracemalloc.start()
        try:
            objective(np.arange(m), theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= me._LA_WORK * 8 * me._LA_BLOCK

    @staticmethod
    def _objective_case(name):
        """A stack of five models over the columns 1, 2, 4, 5 of a
        six-column design, padded to 3: two full rows, two rows with padded
        coordinates, and, where the family's cumulant can overflow at a
        finite predictor, a row whose does.  Returns the cache, the family,
        the stack's arguments and coefficients, and each row's columns."""
        rng = np.random.default_rng(14)
        design = DesignMatrix.with_singleton_groups(rng.normal(size=(500, 6)))
        eta = 0.3 * design.values[:, 1] - 0.2 * design.values[:, 4]
        y = _glm_response(rng, name, eta)
        family = _PARITY_FAMILIES[name]()
        cache = build_cache(design, y, family)
        union = np.array([1, 2, 4, 5])
        pos = np.array([[0, 1, 2], [3, 2, 0], [1, 4, 4], [2, 4, 4], [0, 3, 4]])
        sizes = (pos < 4).sum(axis=1)
        theta = np.where(pos < 4, 0.2 * rng.normal(size=pos.shape), 0.0)
        overflow = {"poisson": 800.0, "gaussian": 1e200}.get(name)
        if overflow is not None:
            theta[4, :2] = overflow
        prec = np.tile(np.eye(3), (5, 1, 1))
        for r, k in enumerate(sizes):
            a = rng.normal(size=(k, k))
            prec[r, :k, :k] = a @ a.T + k * np.eye(k)
        cols = [union[pos[r, :k]] for r, k in enumerate(sizes)]
        return cache, family, (union, pos, prec), theta, cols

    @pytest.mark.parametrize("name", _KNOWN_PHI)
    def test_each_row_of_the_stacked_objective_is_its_models_joint(
        self, name, monkeypatch
    ):
        """Each row of ``_stacked_objective`` is ``families.grad_hess`` on
        that row's columns plus its prior, with zero gradient and the
        prior's unit curvature on the padded coordinates; a row whose
        cumulant overflows has value inf with NaN derivatives."""
        cache, family, args, theta, cols = self._objective_case(name)
        # blocks of 17 observations, the last one of 7
        monkeypatch.setattr(me, "_LA_BLOCK", 256)
        phi = float(family.phi)
        objective = me._stacked_objective(cache, family, phi, *args)
        value, grad, hess = objective(np.arange(len(cols)), theta)
        prec = args[2]
        overflowed = 0
        for r, c in enumerate(cols):
            k = c.shape[0]
            z = cache.design.values[:, c]
            lik = fam.grad_hess(family, z, cache.y, theta[r, :k], phi)
            if not np.isfinite(lik[0]):
                overflowed += 1
                assert value[r] == np.inf
                assert np.isnan(grad[r]).all() and np.isnan(hess[r]).all()
                continue
            want_grad, want_hess = prec[r] @ theta[r], prec[r].copy()
            want_grad[:k] += lik[1]
            want_hess[:k, :k] += lik[2]
            want_value = lik[0] + 0.5 * theta[r] @ prec[r] @ theta[r]
            np.testing.assert_allclose(value[r], want_value, rtol=1e-12)
            np.testing.assert_allclose(grad[r], want_grad, rtol=1e-12, atol=0)
            np.testing.assert_allclose(hess[r], want_hess, rtol=1e-12, atol=0)
            assert (grad[r, k:] == 0.0).all()
        assert overflowed == (name != "logistic")

    def test_a_shared_cumulant_array_and_copies_give_the_same_objective(
        self, monkeypatch
    ):
        """Poisson's cumulant returns one array for b, b' and b'', which
        the stacked pass reads through one product per block; the same
        family returning copies takes a row sum and two products instead,
        and gives the same value, gradient and Hessian, overflow
        included."""
        cache, family, args, theta, cols = self._objective_case("poisson")
        monkeypatch.setattr(me, "_LA_BLOCK", 256)
        live = np.arange(len(cols))
        shared = me._stacked_objective(cache, family, 1.0, *args)(live, theta)
        split = me._stacked_objective(cache, _apart(family), 1.0, *args)(live, theta)
        for one, three in zip(shared, split):
            np.testing.assert_allclose(one, three, rtol=1e-13, atol=0)
        assert shared[0][-1] == np.inf and np.isnan(split[1][-1]).all()

    @pytest.mark.parametrize("products", ["one", "three"])
    def test_stacked_gradients_round_like_residual_sums(self, products):
        """With counts near 50 at n = 200 000, X'y and the sums of b'x are
        each about 1e7, while the gradient is a sum of residuals.  The
        stacked pass sums ``(b' - y) x``, so its gradient stays within
        eps sum |(y - b') x| of the exact sum (about 0.1 of it here).  X'y
        less the whole sums of b'x missed that 8- to 25-fold, and taking
        each block's x'y from its sums of b'x up to 1.9-fold.  Both the
        one-product and the three-product pass are checked."""
        rng = np.random.default_rng(1)
        n = 200_000
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        beta = np.array([np.log(50.0), 0.1, -0.05, 0.02])
        y = rng.poisson(np.exp(x @ beta)).astype(float)
        theta = beta + 1e-3 * rng.normal(size=(4, 4))
        family = poisson() if products == "one" else _apart(poisson())
        cache = build_cache(DesignMatrix.with_singleton_groups(x), y, family)
        pos = np.tile(np.arange(4), (4, 1))
        objective = me._stacked_objective(
            cache, family, 1.0, np.arange(4), pos, np.zeros((4, 4, 4))
        )
        grad = objective(np.arange(4), theta)[1]
        for row, got in zip(theta, grad):
            resid = y - np.exp(x @ row)
            exact = [-math.fsum(resid * x[:, j]) for j in range(4)]
            bound = np.finfo(float).eps * (np.abs(resid) @ np.abs(x))
            assert (np.abs(got - exact) <= bound).all()


def _apart(family):
    """``family`` with its cumulant returning copies of b' and b'', so that a
    stacked ``la`` pass takes the row sum and two products even when the
    three derivatives are one array."""

    def copies(u):
        b, bp, bpp = family.cumulant(u)
        return b, bp.copy(), bpp.copy()

    return dataclasses.replace(family, cumulant=copies)


def _counting_passes(family):
    """``family`` with its cumulant wrapped by a counter of the values it
    is evaluated at; ``n`` of them make one model's pass over the data."""
    sizes = []

    def cumulant(u):
        if np.ndim(u):
            sizes.append(np.size(u))
        return family.cumulant(u)

    return dataclasses.replace(family, cumulant=cumulant), sizes


def _counting_c(family):
    """``family`` with its response-only term ``c`` wrapped by a counter."""
    calls = []

    def c(y, phi):
        calls.append(1)
        return family.c(y, phi)

    return dataclasses.replace(family, c=c), calls


class TestNewtonCost:
    """What each Laplace score costs in passes over the data."""

    @pytest.mark.parametrize("name", ["poisson", "logistic", "gaussian"])
    def test_each_evaluation_is_one_pass_and_the_start_is_free(self, name):
        design, y = _parity_data(name)
        n = design.n
        family, c_calls = _counting_c(_PARITY_FAMILIES[name]())
        family, passes = _counting_passes(family)
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.3)
        screen = me.ModelScorer(cache, family, prior)
        la = me.ModelScorer(cache, family, prior, method="la")
        models = admissible_bits(5, intercept_group=0)
        screen.score_many(models)
        assert not passes
        for bits in models:
            before = sum(passes)
            score = la.marginal(bits)
            diag = score.diagnostics
            # moderate effects: every full Newton step is accepted
            assert diag["evaluations"] == diag["iterations"]
            assert sum(passes) - before == diag["iterations"] * n
        # the response-only term is computed once for the cache
        assert len(c_calls) == 1
        assert la.diagnostic_sum("evaluations") * n == sum(passes) > 0
        # a batch makes the same evaluations, and the models of one size
        # share each pass over the data
        del passes[:]
        batch = me.ModelScorer(cache, family, prior, method="la")
        batch.score_many(models)
        assert batch.diagnostic_sum("evaluations") == la.diagnostic_sum("evaluations")
        assert sum(passes) == batch.diagnostic_sum("evaluations") * n
        # models of every size share one stack: one stacked evaluation per
        # evaluation of the batch's slowest model
        evals = [batch.marginal(bits).diagnostics["evaluations"] for bits in models]
        assert len(passes) == max(evals)

    def test_rejected_first_step_still_converges_to_the_reference(self):
        """A strong Poisson effect sends the first full step from zero far
        past the mode, where the cumulant overflows; halving recovers."""
        rng = np.random.default_rng(8)
        n = 200
        design = make_design(rng, n, [1, 1], intercept=True)
        y = rng.poisson(np.exp(2.5 * design.values[:, 1])).astype(float)
        family, passes = _counting_passes(poisson())
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        bits = (1, 1, 0)
        score = _marginal(cache, family, prior, bits, "la")
        diag = score.diagnostics
        assert diag["evaluations"] > diag["iterations"]
        assert sum(passes) == diag["evaluations"] * n
        log_ml, mode, iterations, evaluations = reference_la(
            design, bits, y, family, 1.0
        )
        np.testing.assert_allclose(score.log_ml, log_ml, rtol=1e-10)
        assert diag["iterations"] == iterations
        # the reference also evaluates the start from the data
        assert diag["evaluations"] == evaluations - 1
        np.testing.assert_allclose(score.expansion, mode, atol=1e-8)
        # the batch halves the same steps
        batch = me.ModelScorer(cache, family, prior, method="la")
        batch.score_many([bits, (1, 0, 1)])
        stacked = batch.marginal(bits).diagnostics
        assert stacked["iterations"] == diag["iterations"]
        assert stacked["evaluations"] == diag["evaluations"]
        np.testing.assert_allclose(stacked["grad_norm"], diag["grad_norm"], atol=1e-12)


class TestBenchmarkHooks:
    """The names the benchmark's tracer and workloads use: the Gram fill
    counters of both contexts and the two scorers' constructors."""

    def test_regression_gram_is_computed_by_the_data_pass(self, rng):
        """``build_cache`` computes all p * p entries of X'X; no block read,
        score or search computes another."""
        design = make_design(rng, 40, [1, 2, 1])
        family = gaussian(1.0)
        cache = build_cache(design, rng.normal(size=40), family)
        prior = ParamPriorSpec()
        model_prior = ModelPriorSpec(n_groups=3, p_total=4)
        scorer = me.ModelScorer(cache, family, prior, model_prior, method="ala")
        assert cache.gram.dot_count == 4 * 4
        block = cache.gram.block(np.arange(4))
        np.testing.assert_allclose(
            block, design.values.T @ design.values, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_array_equal(block, block.T)
        scorer.log_score((1, 0, 0))
        models = admissible_bits(3)
        scorer.score_many(models)
        for method in ("ala", "la"):
            warmed = me.ModelScorer(cache, family, prior, model_prior, method=method)
            for bits in models:
                warmed.log_score(bits)
            warmed.score_many(models)
            enumerate_posterior(warmed)
            gibbs_models(warmed, n_scans=5, seed=1)
        assert cache.gram.dot_count == 4 * 4
        # one store, shared by the cache's block prior
        assert cache.block_prior.gram is cache.gram

    def test_bit_matrix_scoring_makes_one_log_score_call_per_row(
        self, rng, monkeypatch
    ):
        """The benchmark counts ``ala`` misses from the spans of
        ``ModelScorer.log_score`` and times the model prior where
        ``marginal_engines`` calls ``log_model_prior_unnorm``: a batch
        scored from a bit matrix still makes one ``log_score`` call per
        row, repeated rows included, and each reaches that module global."""
        design = make_design(rng, 40, [1, 2, 1])
        family = gaussian(1.0)
        cache = build_cache(design, rng.normal(size=40), family)
        model_prior = ModelPriorSpec(n_groups=3, p_total=4)
        scorer = me.ModelScorer(cache, family, ParamPriorSpec(), model_prior)
        assert "log_score" in me.ModelScorer.__dict__
        calls = []
        log_score = me.ModelScorer.log_score
        prior = me.log_model_prior_unnorm

        def traced_log_score(self, bits):
            calls.append([bytes(bits), 0])
            return log_score(self, bits)

        def traced_prior(bits, spec):
            calls[-1][1] += 1
            return prior(bits, spec)

        monkeypatch.setattr(me.ModelScorer, "log_score", traced_log_score)
        monkeypatch.setattr(me, "log_model_prior_unnorm", traced_prior)
        bits = admissible_bits(3)
        bits = np.concatenate([bits, bits[:2]])
        scores = scorer.score_many(bits)
        assert calls == [[row.tobytes(), 1] for row in bits]
        reference = me.ModelScorer(cache, family, ParamPriorSpec(), model_prior)
        looped = [log_score(reference, tuple(row)) for row in bits.tolist()]
        np.testing.assert_allclose(scores, looped, rtol=1e-12, atol=0)

    def test_survival_gram_is_computed_by_the_context(self, rng):
        """``build_aft_context`` computes all p * p entries of the weighted
        Gram; no score or search computes another."""
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec()
        model_prior = ModelPriorSpec(n_groups=3, p_total=3)
        scorer = me.AftScorer(ctx, prior, model_prior)
        assert ctx.wgram.dot_count == 3 * 3
        scorer.log_score((0, 1, 0))
        models = admissible_bits(3)
        scorer.score_many(models)
        me.AftScorer(ctx, prior, model_prior).score_many(models)
        gibbs_models(scorer, n_scans=5, seed=1)
        assert ctx.wgram.dot_count == 3 * 3
        assert ctx.block_prior.gram.dot_count == 3 * 3

    def test_survival_scorer_is_one_traced_model_scorer(self, rng):
        """The tracer wraps ``log_score`` where a scorer class defines it:
        a survival scorer is a ``ModelScorer``, so one call makes one span,
        named after its method."""
        from bench import tracing

        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        scorer = me.AftScorer(ctx, ParamPriorSpec(), method="la")
        assert isinstance(scorer, me.ModelScorer)
        assert "log_score" in me.ModelScorer.__dict__
        tracer = tracing.Tracer()
        with tracer.operation(0):
            scorer.log_score((1, 0, 1))
        spans = [tracer.names[k] for k in tracer.name]
        assert [name for name in spans if name.endswith(".log_score")] == [
            "marginal_engines.la.log_score"
        ]


def _engine_stats(kind, phi_known, method, seed=5):
    """Statistics and family for one key of the engine table."""
    rng = np.random.default_rng(seed)
    if kind == "aft":
        design, data = _survival_sample(rng)
        return me.build_aft_context(design, data), None
    design = make_design(rng, 60, [1, 2, 1], intercept=True)
    eta = design.values @ np.array([0.2, 0.6, 0.0, -0.3, 0.4])
    if kind == "gaussian":
        family = gaussian(1.0) if phi_known else gaussian_unknown()
        y = eta + rng.normal(size=60)
    else:
        family = logistic()
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
    center = "intercept-mle" if method == "ala-curvadj" else "zero"
    return build_cache(design, y, family, center=center), family


def _engine_reference(key, scorer, bits):
    """``(log_ml, method, rtol, expansion)`` that a table row's engine must
    give one model, from a reference of ``tests/oracles.py`` (``expansion``
    None where it gives none)."""
    kind, method, prior_kind, phi_known = key
    stats, family, prior = scorer.cache, scorer.family, scorer.prior
    design = stats.design
    if kind == "aft":
        a, b = prior.phi_prior
        if method == "la":
            want, mode, _, _ = reference_la_aft(design, stats.data, bits, prior.g, a, b)
            return want, "la", 1e-10, mode
        want, _ = zero_expansion_aft_log_ml(
            design, stats.data, bits, stats.tau0, prior.g, a, b
        )
        return want, "ala", 1e-12, None
    if method == "exact-gaussian":
        want = references.exact_gaussian_marginal(design.model(bits), stats, family, prior)
        return want.log_ml, "exact-gaussian", 1e-12, None
    if method == "ala-refined":
        k = scorer.refine_steps
        beta, loglik, grad, hess = reference_refined_expansion(
            design, bits, stats.y, family, k
        )
        prec, logdet = block_zellner_precision(design, bits, prior.g)
        phi = float(family.phi)
        want, expansion = ala_general(
            loglik, grad, hess, prec / phi, theta0=beta,
            prior_logdet=logdet - beta.size * np.log(phi),
        )
        return want, f"ala-refined({k})", 1e-10, expansion
    if method == "la" and prior_kind == "gzellner":
        want, mode, _, _ = reference_la(
            design, bits, stats.y, family, prior.g, prior.phi_prior
        )
        return want, "la", 1e-10, mode
    if phi_known:
        rho = scorer.curvature.rho_hat if scorer.curvature is not None else 1.0
        want, beta = dense_known_phi_ala(stats, family, prior, bits, rho)
        name = "ala-gmom" if prior_kind == "gmom" else "ala"
        suffix = "-curvadj" if method == "ala-curvadj" else ""
        return want, name + suffix, 1e-13, beta
    a, b = prior.phi_prior
    want, _ = zero_expansion_unknown_phi_log_ml(
        design, bits, stats.y, prior.g, a, b, prior_kind
    )
    name = "ala-gmom" if prior_kind == "gmom" and design.columns_for(bits).size else "ala"
    return want, name, 1e-12, None


class TestEngineTable:
    """Every row of the scorer's engine table scores each model as its
    reference does, and a batch exactly as the loop of its models does."""

    @pytest.mark.parametrize("key", sorted(me._ENGINES), ids=str)
    def test_scorer_returns_the_reference_value(self, key):
        kind, method, prior_kind, phi_known = key
        stats, family = _engine_stats(kind, phi_known, method)
        prior = ParamPriorSpec(kind=prior_kind)
        scorer = me.ModelScorer(stats, family, prior, method=method)
        assert scorer.method == method
        design = stats.design
        for bits in admissible_bits(design.n_groups, None, design.intercept_group):
            got = scorer.marginal(bits)
            want, name, rtol, expansion = _engine_reference(key, scorer, bits)
            np.testing.assert_allclose(got.log_ml, want, rtol=rtol, atol=0)
            assert got.method == name
            if expansion is not None:
                np.testing.assert_allclose(got.expansion, expansion, rtol=1e-10, atol=1e-8)

    @pytest.mark.parametrize("key", sorted(me._ENGINES), ids=str)
    def test_a_batch_scores_as_the_loop(self, key):
        """``score_many`` returns a loop of ``log_score``'s values bitwise
        (known-dispersion ``la`` within 1e-10: its stacked Newton sums the
        data pass in another order), and ``marginal`` then gives each
        batch value bitwise, with the loop's expansion and diagnostics."""
        kind, method, prior_kind, phi_known = key
        stats, family = _engine_stats(kind, phi_known, method)
        prior = ParamPriorSpec(kind=prior_kind)
        loop, batch = (
            me.ModelScorer(stats, family, prior, method=method) for _ in range(2)
        )
        design = stats.design
        models = admissible_bits(design.n_groups, None, design.intercept_group)
        looped = [loop.log_score(bits) for bits in models]
        batched = batch.score_many(models)
        pair_products = method == "la" and phi_known and prior_kind == "gzellner"
        if pair_products:
            np.testing.assert_allclose(batched, looped, rtol=1e-10, atol=0)
        else:
            np.testing.assert_array_equal(batched, looped)
        assert batch.n_scored == loop.n_scored == len(models)
        for bits, value in zip(models, batched):
            got, want = batch.marginal(bits), loop.marginal(bits)
            assert got.log_ml == value
            assert got.method == want.method
            assert got.diagnostics.keys() == want.diagnostics.keys()
            if not pair_products:
                np.testing.assert_array_equal(got.expansion, want.expansion)
                assert got.diagnostics == want.diagnostics
                continue
            np.testing.assert_allclose(got.expansion, want.expansion, rtol=0, atol=1e-10)
            for name, entry in want.diagnostics.items():
                if name == "grad_norm":
                    np.testing.assert_allclose(got.diagnostics[name], entry, atol=1e-12)
                else:
                    assert got.diagnostics[name] == entry

    def test_a_failing_model_in_a_stack_raises_as_the_loop(self, monkeypatch):
        """A stack with one failing model raises the class and message that
        the loop of ``log_score`` raises, with the loop's ``n_scored``:
        a survival model whose observed events cannot identify a column
        (``NotConcave`` from the concavity check), and a gaussian model
        whose Newton run needs more iterations than the cap
        (``NoConvergence``)."""
        rng = np.random.default_rng(11)
        design, data = _survival_sample(rng, n=80, p=4)
        values = design.values.copy()
        values[data.observed, 3] = 0.0
        design = DesignMatrix(values, design.groups)
        aft = me.build_aft_context(design, data), None, "la"
        stats, family = _engine_stats("gaussian", False, "la")
        models = admissible_bits(stats.design.n_groups, None, 0)
        iterations = [
            me.ModelScorer(stats, family, ParamPriorSpec(), method="la")
            .marginal(bits).diagnostics["iterations"]
            for bits in models
        ]
        cap = iterations[0]
        assert max(iterations) > cap
        for stats, family, method in [aft, (stats, family, "la")]:
            if family is not None:
                monkeypatch.setattr(me, "_NEWTON_MAX_ITER", cap)
            design = stats.design
            models = admissible_bits(design.n_groups, None, design.intercept_group)
            loop, batch = (
                me.ModelScorer(stats, family, ParamPriorSpec(), method=method)
                for _ in range(2)
            )
            with pytest.raises(SelectionError) as looped:
                for bits in models:
                    loop.log_score(bits)
            with pytest.raises(SelectionError) as batched:
                batch.score_many(models)
            assert type(batched.value) is type(looped.value)
            assert str(batched.value) == str(looped.value)
            assert 0 < batch.n_scored == loop.n_scored < len(models)

    def test_a_refined_row_that_loses_curvature_leaves_the_others_alone(self):
        """In a refined stack, a model whose likelihood curvature is
        singular (two copies of one column) stops with its note, and the
        other models of its size take their steps bitwise as alone."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 3))
        values = np.column_stack([np.ones(80), x, x[:, 2]])
        design = DesignMatrix(values, tuple((j, j + 1) for j in range(5)))
        eta = 0.5 * x[:, 0] - 0.4 * x[:, 2]
        y = (rng.random(80) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec()
        models = admissible_bits(5, None, 0)
        batch = me.ModelScorer(
            cache, logistic(), prior, method="ala-refined", refine_steps=3
        )
        batched = batch.score_many(models)
        lost = 0
        for bits, value in zip(models, batched):
            got = batch.marginal(bits)
            alone = _marginal(cache, logistic(), prior, bits, "ala-refined", 3)
            assert value == got.log_ml == alone.log_ml
            np.testing.assert_array_equal(got.expansion, alone.expansion)
            assert got.diagnostics == alone.diagnostics
            if bits[3] and bits[4]:
                lost += 1
                assert got.diagnostics["steps_taken"] == 0
                assert got.diagnostics["note"] == "curvature lost during refinement"
                assert np.isfinite(value)
            else:
                assert got.diagnostics["steps_taken"] == 3
                assert "note" not in got.diagnostics
        assert lost == 4

    def test_a_refined_model_whose_likelihood_overflows_scores_minus_infinity(self):
        """A count of 5000 on a row where two covariates lie far out makes a
        refined step's poisson likelihood overflow for every model with
        either of them: such a model scores -inf with no integral, in a
        stack or alone, also in a stack where every model overflows, and
        the finite models of its stacks score bitwise as alone."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 3))
        x[0] = (40.0, -30.0, 0.5)
        y = rng.poisson(np.exp(0.2 * x[:, 0].clip(-2.0, 2.0))).astype(np.float64)
        y[0] = 5e3
        values = np.column_stack([np.ones(60), x])
        design = DesignMatrix(values, tuple((j, j + 1) for j in range(4)))
        cache = build_cache(design, y, poisson())
        prior = ParamPriorSpec()
        models = admissible_bits(4, None, 0)
        batch = me.ModelScorer(cache, poisson(), prior, method="ala-refined", refine_steps=2)
        batched = batch.score_many(models)
        for bits, value in zip(models, batched):
            got = batch.marginal(bits)
            alone = _marginal(cache, poisson(), prior, bits, "ala-refined", 2)
            assert value == got.log_ml == alone.log_ml
            np.testing.assert_array_equal(got.expansion, alone.expansion)
            assert got.diagnostics == alone.diagnostics
            assert ("quad" in got.diagnostics) == bool(np.isfinite(value))
        assert np.isneginf(batched).tolist() == [bool(b[1] or b[2]) for b in models]

    @pytest.mark.parametrize("name", ["logistic", "poisson"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_refined_stacks_match_the_reference_alone_and_batched(self, name, k):
        """``ala-refined`` finishes every stack through the shared finish:
        batched and alone, each model's score, expansion and diagnostics
        are bitwise equal, and each finite score is the reference
        ``ala_general`` at the reference point after the steps it took.
        The stacks hold models whose likelihood curvature is singular (two
        copies of one column), which stop with their note while the others
        take all k steps, and under poisson models whose likelihood
        overflows on a far-out row after the first step, which stop there
        with their note and score -inf."""
        rng = np.random.default_rng(14)
        n = 80
        x = rng.normal(size=(n, 3))
        x[0] = (40.0, -30.0, 0.5)
        values = np.column_stack([np.ones(n), x, x[:, 2]])
        design = DesignMatrix(values, tuple((j, j + 1) for j in range(5)))
        if name == "poisson":
            family = poisson()
            y = rng.poisson(np.exp(0.2 * x[:, 0].clip(-2.0, 2.0))).astype(np.float64)
            y[0] = 5e3
        else:
            family = logistic()
            eta = 0.5 * x[:, 0].clip(-2.0, 2.0) - 0.4 * x[:, 2]
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(g=1.3)
        models = admissible_bits(5, None, 0)
        batch = me.ModelScorer(cache, family, prior, method="ala-refined", refine_steps=k)
        batched = batch.score_many(models)
        notes = overflows = 0
        for bits, value in zip(models, batched):
            got = batch.marginal(bits)
            alone = _marginal(cache, family, prior, bits, "ala-refined", k)
            assert value == got.log_ml == alone.log_ml
            np.testing.assert_array_equal(got.expansion, alone.expansion)
            assert got.diagnostics == alone.diagnostics
            steps, note = got.diagnostics["steps_taken"], got.diagnostics.get("note")
            if not np.isfinite(value):
                overflows += 1
                assert name == "poisson" and k and (bits[1] or bits[2])
                assert value == -np.inf and "quad" not in got.diagnostics
                assert steps == 1
                assert note == "likelihood overflowed during refinement"
                continue
            if note is not None:
                notes += 1
                assert note == "curvature lost during refinement"
                assert k and bits[3] and bits[4] and steps == 0
            else:
                assert steps == k
            beta, loglik, grad, hess = reference_refined_expansion(
                design, bits, y, family, steps
            )
            prec, logdet = block_zellner_precision(design, bits, 1.3)
            want, expansion = ala_general(
                loglik, grad, hess, prec, theta0=beta, prior_logdet=logdet
            )
            np.testing.assert_allclose(value, want, rtol=1e-10)
            np.testing.assert_allclose(got.expansion, expansion, rtol=1e-10, atol=1e-8)
        assert (notes > 0) == (k > 0)
        assert (overflows > 0) == (k > 0 and name == "poisson")
