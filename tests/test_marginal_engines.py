"""Tests for the marginal-likelihood engines: closed-form expansion scores,
mode-based scores, refinement, non-local tilts, survival scoring, and the
numerical oracles they are checked against."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

import alaselect.families as fam
import alaselect.marginal_engines as me
from alaselect.data_model import (
    ConstraintSet,
    DesignMatrix,
    admissible_bits,
    build_cache,
    enumerate_models,
    submodel_stats,
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

from tests.oracles import (
    block_zellner_precision,
    conjugate_known_phi_log_ml,
    conjugate_unknown_phi_log_ml,
    dense_known_phi_ala,
    logistic_loglik_np,
    make_design,
    reference_la,
    reference_refined_expansion,
    zero_expansion_unknown_phi_log_ml,
)


class TestGeneralBackbone:
    """The closed-form integral of a quadratic expansion against a Normal
    prior is exact for genuinely quadratic objectives."""

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

    def test_exact_for_quadratic_objectives(self, rng):
        d = 3
        raw = rng.normal(size=(d, d))
        a_mat = raw @ raw.T + d * np.eye(d)
        m = rng.normal(size=d)
        prec = np.diag(rng.uniform(0.5, 2.0, size=d))
        const = -1.7
        loglik0 = const - 0.5 * m @ a_mat @ m
        grad0 = -a_mat @ m  # negative-objective gradient at zero
        score = me.ala_general(loglik0, grad0, a_mat, prec)
        np.testing.assert_allclose(
            score.log_ml, self._quadratic_truth(m, a_mat, const, prec), atol=1e-10
        )

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

        at_zero = me.ala_general(objective(np.zeros(d)), -a_mat @ m, a_mat, prec)
        theta0 = rng.normal(size=d)
        at_theta0 = me.ala_general(
            objective(theta0), a_mat @ (theta0 - m), a_mat, prec, theta0=theta0
        )
        np.testing.assert_allclose(at_zero.log_ml, at_theta0.log_ml, atol=1e-10)

    def test_indefinite_curvature_raises(self):
        with pytest.raises(NotConcaveAtExpansion):
            me.ala_general(0.0, np.zeros(1), np.array([[-1.0]]), np.array([[0.5]]))


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
            builtin = me.exact_gaussian_marginal(model, cache, gaussian(phi), prior)
            np.testing.assert_allclose(
                builtin.log_ml,
                conjugate_known_phi_log_ml(design, bits, y, g, phi),
                atol=1e-9,
            )

    def test_null_model_is_the_plain_likelihood(self, rng):
        design = make_design(rng, 25, [1])
        y = rng.normal(size=25)
        phi = 0.8
        cache = build_cache(design, y, gaussian(phi))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        score = me.ala_expfam_known_phi(design.model((0,)), cache, gaussian(phi), prior)
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
        n, g = 1000, 1.0
        design = make_design(rng, n, [1])
        y = rng.normal(size=n)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=g)
        exact = me.ModelScorer(cache, gaussian(1.0), prior, method="ala")
        plugin = me.ModelScorer(
            cache, gaussian(1.0), prior, method="ala", variant="plugin-density"
        )
        gap = plugin.log_ml((1,)) - exact.log_ml((1,))
        np.testing.assert_allclose(gap, 0.5 * np.log(1.0 + 1.0 / (g * n)), rtol=0.02)
        # the null model is the formula's d = 0 case: no gap at all
        null = plugin.marginal((0,))
        assert null.log_ml == exact.log_ml((0,)) == me._loglik_at_center(
            cache, gaussian(1.0), 1.0
        )
        assert null.diagnostics == {
            "quad": 0.0, "phi": 1.0, "rho_hat": 1.0, "variant": "plugin-density"
        }
        assert null.expansion.shape == (0,)

    def test_unknown_variant_name_rejected(self, rng):
        design = make_design(rng, 10, [1])
        cache = build_cache(design, rng.normal(size=10), gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        with pytest.raises(ValueError):
            me.ala_expfam_known_phi(
                design.model((1,)), cache, gaussian(1.0), prior, variant="bogus"
            )


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
            score = me.ala_expfam_unknown_phi(
                design.model(bits), cache, gaussian_unknown(), prior
            )
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
        score = me.ala_expfam_unknown_phi(
            design.model((1, 0, 0, 0)), cache, gaussian_unknown(), prior
        )
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
        score = me.ala_expfam_unknown_phi(
            design.model((1,)), cache, gaussian_unknown(), prior
        )
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
        score = me.ala_expfam_unknown_phi(
            design.model((0,)), cache, gaussian_unknown(), prior
        )
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
        with pytest.raises(NotConcaveAtExpansion):
            me.ala_expfam_unknown_phi(
                design.model((1,)), cache, gaussian_unknown(), prior
            )

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
            la = me.la_marginal(design.model(bits), cache, gaussian_unknown(), prior)
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
            builtin = me.exact_gaussian_marginal(
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
        plain = me.ala_expfam_known_phi(design.model((1, 1)), cache, poisson(), prior)
        adjusted = me.ala_expfam_known_phi(
            design.model((1, 1)), cache, poisson(), prior, curvature=ctx
        )
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
        value = me.quadrature_oracle(lambda x: stats.norm.logpdf(x))
        np.testing.assert_allclose(value, 0.0, atol=1e-9)

    def test_gamma_integral_identity(self):
        """The integral of exp(a x - exp(x)) over the line is the gamma
        function at a."""
        for a in (0.7, 2.5, 6.0):
            value = me.quadrature_oracle(lambda x: a * x - np.exp(x), x0=np.log(a))
            np.testing.assert_allclose(value, gammaln(a), atol=1e-8)

    def test_shifted_and_scaled_normal(self):
        mu, sigma = 7.5, 0.2
        value = me.quadrature_oracle(
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
        plain = me.ala_expfam_known_phi(design.model(bits), cache, logistic(), prior)
        refined = me.ala_refined(design.model(bits), cache, logistic(), prior, k=0)
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
            refined = me.ala_refined(design.model(bits), cache, gaussian(phi), prior, k=k)
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

            truth = me.quadrature_oracle(integrand)
            model = design.model((1,))
            plain = me.ala_expfam_known_phi(model, cache, logistic(), prior)
            refined = me.ala_refined(model, cache, logistic(), prior, k=1)
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
        plain = me.ala_expfam_known_phi(model, cache, logistic(), prior)
        la = me.la_marginal(model, cache, logistic(), prior)
        refined = me.ala_refined(model, cache, logistic(), prior, k=8)
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
            fast = me.ala_gmom(design.model(bits), cache, gaussian(phi), prior)
            slow = me.exact_gmom_blockdiag(design.model(bits), cache, gaussian(phi), prior)
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
            me.ala_gmom(design.model((1, 1, 1)), cache, gaussian_unknown(), prior)

    def test_monte_carlo_oracle_confirms_the_quadrature_oracle(self, rng):
        design = self._orthogonal_design(rng)
        y = design.values @ np.array([0.5, -0.4, 0.9, 0.0, 0.0]) + rng.normal(size=40)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gmom", g=1.0)
        bits = (1, 1, 0)
        slow = me.exact_gmom_blockdiag(design.model(bits), cache, gaussian(1.0), prior)
        mc = me.exact_gmom_mc(
            design.model(bits),
            cache,
            gaussian(1.0),
            prior,
            n_draws=200_000,
            rng=np.random.default_rng(99),
        )
        se = mc.diagnostics["mc_se_log"]
        assert abs(mc.log_ml - slow.log_ml) < 5.0 * se + 1e-4

    def test_quadrature_oracle_rejects_correlated_groups(self, rng):
        design = make_design(rng, 30, [1, 1])
        # make the two columns strongly correlated
        vals = design.values.copy()
        vals[:, 1] = 0.9 * vals[:, 0] + 0.1 * vals[:, 1]
        design = DesignMatrix(vals, design.groups)
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        prior = ParamPriorSpec(kind="gmom", g=1.0)
        with pytest.raises(ValueError):
            me.exact_gmom_blockdiag(design.model((1, 1)), cache, gaussian(1.0), prior)

    def test_null_model_has_no_tilt(self, rng):
        design = self._orthogonal_design(rng)
        y = rng.normal(size=40)
        cache = build_cache(design, y, gaussian(1.0))
        gz = ParamPriorSpec(kind="gzellner", g=1.0)
        gm = ParamPriorSpec(kind="gmom", g=1.0)
        bits = (0, 0, 0)
        a = me.ala_gmom(design.model(bits), cache, gaussian(1.0), gm)
        b = me.ala_expfam_known_phi(design.model(bits), cache, gaussian(1.0), gz)
        assert a.diagnostics["tilt"] == 0.0
        for score, prior in ((a, gm), (b, gz)):
            dense, _ = dense_known_phi_ala(cache, gaussian(1.0), prior, bits)
            np.testing.assert_allclose(score.log_ml, dense, rtol=1e-14)

    def test_unknown_dispersion_route_only_for_gaussian(self, rng):
        """Non-Gaussian families with a free dispersion cannot take the
        non-local route and must be rejected, not silently mis-scored."""
        design = make_design(rng, 30, [1])
        y = rng.poisson(1.0, size=30).astype(np.float64)
        cache = build_cache(design, y, poisson())
        prior = ParamPriorSpec(kind="gmom", g=1.0, phi_prior=(0.01, 0.01))
        fake_unknown = dataclasses.replace(poisson(), phi_known=False)
        with pytest.raises(ValueError):
            me.ala_gmom(design.model((1,)), cache, fake_unknown, prior)

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
            score = me.ala_gmom(design.model(bits), cache, gaussian_unknown(), prior)
            assert np.isfinite(score.log_ml)
            mc = me.exact_gmom_mc(
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
        bits = (1, 0, 1)
        model = design.model(bits)
        engine = me.ala_aft(model, ctx, prior)

        cols = design.columns_for(bits)
        z = design.values[:, cols]
        p = cols.size
        ll0, grad, hess = aft_loglik_grad_hess(z, data, np.zeros(p), ctx.tau0)
        h_neg = -hess
        g_neg = -grad
        theta0 = np.concatenate([np.zeros(p), [ctx.tau0]])
        step = np.linalg.solve(h_neg, g_neg)
        theta_tilde = theta0 - step
        quad = g_neg @ np.linalg.solve(h_neg, g_neg)
        log_prior = 0.0
        at = 0
        for j in model.active_groups:
            zj = design.values[:, design.groups[j][0] : design.groups[j][1]]
            pj = zj.shape[1]
            cov = design.n * g / pj * np.linalg.inv(zj.T @ zj)
            log_prior += stats.multivariate_normal.logpdf(
                theta_tilde[at : at + pj], np.zeros(pj), cov
            )
            at += pj
        tau_tilde = theta_tilde[-1]
        log_prior += (
            np.log(2.0)
            + a * np.log(b)
            - gammaln(a)
            + (2.0 * a - 1.0) * np.log(tau_tilde)
            - b * tau_tilde**2
        )
        sign, logdet = np.linalg.slogdet(h_neg)
        longhand = (
            ll0
            + 0.5 * quad
            + log_prior
            + 0.5 * (p + 1) * np.log(2.0 * np.pi)
            - 0.5 * logdet
        )
        np.testing.assert_allclose(engine.log_ml, longhand, atol=1e-9)
        np.testing.assert_allclose(engine.diagnostics["tau_tilde"], tau_tilde, atol=1e-9)

    def test_null_model_is_the_one_parameter_plugin_score(self, rng):
        """With no coefficients the expansion is in tau alone, at tau0, where
        the gradient vanishes: the score is l0 + log pi(tau0) + log(2 pi) / 2
        - log(h_tt) / 2."""
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        a, b = 0.8, 0.6
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(a, b))
        score = me.ala_aft(design.model((0, 0, 0)), ctx, prior)
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
        score = me.la_aft(design.model((1, 1, 0)), ctx, prior)
        # convergence is declared on the objective decrement, so the
        # gradient is small but not driven to machine precision
        assert score.diagnostics["grad_norm"] < 1e-4
        assert np.isfinite(score.log_ml)

    def test_mode_and_expansion_scores_are_close_on_easy_data(self, rng):
        design, data = _survival_sample(rng, n=150, censor_frac=0.25)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        for bits in [(1, 0, 0), (1, 1, 1)]:
            a = me.ala_aft(design.model(bits), ctx, prior)
            b = me.la_aft(design.model(bits), ctx, prior)
            assert abs(a.log_ml - b.log_ml) < 2.0

    def test_null_model_scores_are_finite(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        a = me.ala_aft(design.model((0, 0, 0)), ctx, prior)
        b = me.la_aft(design.model((0, 0, 0)), ctx, prior)
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
        """A ``ModelId`` and its bit tuple get the same score, model prior
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

    def test_refined_method_string_carries_the_step_count(self, rng):
        design = make_design(rng, 40, [1], intercept=True)
        y = (rng.random(40) < 0.5).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        scorer = me.ModelScorer(
            cache, logistic(), prior, method="ala-refined", refine_steps=2
        )
        direct = me.ala_refined(design.model((1, 1)), cache, logistic(), prior, k=2)
        np.testing.assert_allclose(
            scorer.log_ml((1, 1)), direct.log_ml, atol=1e-12
        )

    def test_survival_scorer_memoizes_and_scores(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        scorer = me.AftScorer(ctx, prior)
        assert scorer.marginal((1, 0, 0)) is scorer.marginal((1, 0, 0))
        direct = me.ala_aft(design.model((1, 0, 0)), ctx, prior)
        np.testing.assert_allclose(scorer.log_ml((1, 0, 0)), direct.log_ml, atol=1e-12)


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
        admissible = [
            m.bits
            for m in enumerate_models(
                design.n_groups,
                model_prior.constraints,
                sizes=design.group_sizes,
                intercept_group=design.intercept_group,
            )
        ]
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
        """Once the Gram is filled, a model's score is bitwise the same
        scored alone, in a batch, or in a reordered batch."""
        design = make_design(rng, 80, [1, 2, 1, 3, 1, 2], intercept=True)
        eta = design.values @ rng.normal(scale=0.3, size=design.p)
        y = _glm_response(rng, "logistic", eta)
        center = "intercept-mle" if method == "ala-curvadj" else "zero"
        cache = build_cache(design, y, logistic(), center=center)
        cache.gram.block(np.arange(design.p))
        prior = ParamPriorSpec(kind=kind, g=1.0)
        models = admissible_bits(design.n_groups, intercept_group=0)
        order = rng.permutation(models.shape[0])
        scorers = [
            me.ModelScorer(cache, logistic(), prior, method=method) for _ in range(3)
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

    def test_single_group_enumeration_touches_no_cross_group_pair(self, rng):
        design = make_design(rng, 50, [1, 2, 3])
        y = rng.normal(size=50)
        models = [
            m.bits
            for m in enumerate_models(
                3, ConstraintSet(max_groups=1), sizes=design.group_sizes
            )
        ]
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
        "method, family, variant",
        [
            # known-dispersion la is batched (TestNewtonParity)
            ("la", gaussian_unknown(), "exact-normal"),
            ("ala-refined(2)", logistic(), "exact-normal"),
            ("ala", logistic(), "plugin-density"),
            ("ala", gaussian_unknown(), "exact-normal"),
            ("exact-gaussian", gaussian(1.0), "exact-normal"),
        ],
    )
    def test_other_methods_return_exactly_the_loops_values(
        self, rng, method, family, variant
    ):
        design = make_design(rng, 50, [1, 2, 1])
        eta = design.values @ np.array([0.6, 0.0, -0.4, 0.3])
        kind = "logistic" if family.kind == "logistic" else "gaussian"
        y = _glm_response(rng, kind, eta)
        cache = build_cache(design, y, family)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        models = [m.bits for m in enumerate_models(3)] + [(1, 1, 0)]
        scorers = [
            me.ModelScorer(cache, family, prior, method=method, variant=variant)
            for _ in range(2)
        ]
        looped = [scorers[0].log_score(bits) for bits in models]
        np.testing.assert_array_equal(scorers[1].score_many(models), looped)

    def test_survival_scorer_returns_exactly_the_loops_values(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        models = [m.bits for m in enumerate_models(3)]
        for method in ("ala", "la"):
            loop, batch = (me.AftScorer(ctx, prior, method=method) for _ in range(2))
            looped = [loop.log_score(bits) for bits in models]
            np.testing.assert_array_equal(batch.score_many(models), looped)
            assert batch.n_scored == len(models)


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
        score = me.ala_expfam_known_phi(design.model(bits), cache, gaussian(1.0), prior)

        # rotate the raw data by an orthogonal matrix: Z'Z, Z'y, y'y survive
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        design_rot = DesignMatrix(q @ design.values, design.groups)
        cache_rot = build_cache(design_rot, q @ y, gaussian(1.0))
        score_rot = me.ala_expfam_known_phi(
            design_rot.model(bits), cache_rot, gaussian(1.0), prior
        )
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
            score = me.la_marginal(design.model(bits), cache, family, prior)
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
            reference = me.ala_general(
                loglik, grad, hess, prec / phi, theta0=beta,
                prior_logdet=logdet - beta.size * np.log(phi),
            )
            score = me.ala_refined(design.model(bits), cache, family, prior, k=k)
            np.testing.assert_allclose(score.log_ml, reference.log_ml, rtol=1e-10)
            np.testing.assert_allclose(score.expansion, reference.expansion, atol=1e-8)
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
            me.la_marginal(design.model(row), cache, family, prior) for row in bits
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
        evaluations and score of ``la_marginal``."""
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
            one = me.la_marginal(design.model(row), cache, family, prior)
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
        scores = me.la_known_phi_many(bits, cache, family, prior)
        assert runs == [rows.size for rows, _ in stacks]
        for row, got in zip(bits, scores):
            one = me.la_marginal(design.model(row), cache, family, prior)
            np.testing.assert_allclose(got.log_ml, one.log_ml, rtol=1e-10)
            assert got.diagnostics["iterations"] == one.diagnostics["iterations"]
            assert got.diagnostics["evaluations"] == one.diagnostics["evaluations"]

    def test_a_union_too_wide_for_its_pair_products_runs_its_models_alone(
        self, monkeypatch
    ):
        """A run whose union has more than ``_LA_BLOCK // 128`` columns and
        pair products (22 columns: 22 + 253) scores each model alone with
        ``la_marginal`` and never holds the weighted Grams of the union's
        pairs; the same models without column 21 (a 21-column union: 21 +
        231) run as one stack."""
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
        stacked_newton = me._stacked_newton

        def recording(objective, theta, *args):
            runs.append(theta.shape[0])
            return stacked_newton(objective, theta, *args)

        monkeypatch.setattr(me, "_stacked_newton", recording)
        single = [
            me.la_marginal(design.model(row), cache, family, prior) for row in bits
        ]
        tracemalloc.start()
        try:
            scores = me.la_known_phi_many(bits, cache, family, prior)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs == []
        # one stack's weighted Grams would hold 128 x (253 + 1) doubles
        assert peak - current < 8 * len(bits) * 254
        for got, one in zip(scores, single):
            assert got.log_ml == one.log_ml
            assert got.diagnostics == one.diagnostics
        scores = me.la_known_phi_many(narrow, cache, family, prior)
        assert runs == [len(narrow)]
        for row, got in zip(narrow, scores):
            one = me.la_marginal(design.model(row), cache, family, prior)
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
            me.la_marginal(design.model(row), cache, family, prior) for row in bits
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
            me.la_marginal(design.model(row), cache, family, prior) for row in bits
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
                mode = me.la_marginal(design.model(row), cache, family, prior).expansion
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
        """Each row of ``_stacked_newton`` follows ``_damped_newton`` on its
        own objective: a full step that overshoots and is halved, a value
        that ties within the slack while the gradient shrinks, and a
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
            stacked, np.zeros((3, 1)), None, 1e-8, 100, np.ones(3, dtype=int)
        )
        for r, objective in enumerate(rows):
            one = me._damped_newton(objective, np.zeros(1))
            diag = me._newton_diagnostics(one[4], one[2], True)
            np.testing.assert_array_equal(theta[r], one[0])
            assert value[r] == one[1]
            assert iterations[r] == diag["iterations"]
            assert evaluations[r] == diag["evaluations"]
        assert evaluations[0] > iterations[0]
        assert iterations[1] == 1

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
            np.testing.assert_array_equal(s, me._newton_direction(g, h))
        # a row padded past its size takes the ridge of its own block, whose
        # mean diagonal (2) is not the padded matrix's (1.6)
        padded_grad = np.zeros((2, 5))
        padded_grad[:, :3] = grad
        padded_hess = np.tile(np.eye(5), (2, 1, 1))
        padded_hess[:, :3, :3] = [definite, 2.0 * singular]
        step = me._stacked_direction(padded_grad, padded_hess, np.array([3, 3]))
        for g, h, s in zip(grad, [definite, 2.0 * singular], step):
            np.testing.assert_array_equal(s[:3], me._newton_direction(g, h))
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
        stacked_newton = me._stacked_newton

        def recording(objective, theta, *args):
            runs.append(theta.shape[0])
            return stacked_newton(objective, theta, *args)

        monkeypatch.setattr(me, "_stacked_newton", recording)
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
            me.la_marginal(design.model(bits[1]), cache, family, prior)
            scorer = me.ModelScorer(cache, family, prior, method="la")
            tracemalloc.start()
            try:
                scorer.score_many(bits)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - current)
            assert scorer.n_scored == len(bits)
        assert runs == [len(bits) - 1] * 2
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
        models = [m.bits for m in enumerate_models(5, intercept_group=0)]
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
        score = me.la_marginal(design.model(bits), cache, family, prior)
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
        # a given start is evaluated from the data, and lands on the same mode
        for start in (mode, 0.5 * mode):
            del passes[:]
            again = me.la_marginal(design.model(bits), cache, family, prior, start=start)
            np.testing.assert_allclose(again.log_ml, log_ml, rtol=1e-10)
            np.testing.assert_allclose(again.expansion, mode, atol=1e-8)
            assert sum(passes) == again.diagnostics["evaluations"] * n >= n


class TestBenchmarkHooks:
    """The names the benchmark's tracer and workloads use: the Gram fill
    counters of both contexts and the two scorers' constructors."""

    def test_regression_gram_counts_first_touch_fills(self, rng):
        design = make_design(rng, 40, [1, 2, 1])
        family = gaussian(1.0)
        cache = build_cache(design, rng.normal(size=40), family)
        prior = ParamPriorSpec()
        model_prior = ModelPriorSpec(n_groups=3, p_total=4)
        scorer = me.ModelScorer(cache, family, prior, model_prior, method="ala")
        assert cache.gram.dot_count == 0
        scorer.log_score((1, 0, 0))
        # one column of p = 4 entries
        assert cache.gram.dot_count == 4
        models = [m.bits for m in enumerate_models(3)]
        scorer.score_many(models)
        assert cache.gram.dot_count == 4 * 4
        for method in ("ala", "la"):
            warmed = me.ModelScorer(cache, family, prior, model_prior, method=method)
            for bits in models:
                warmed.log_score(bits)
            warmed.score_many(models)
        assert cache.gram.dot_count == 4 * 4

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

    def test_survival_gram_counts_first_touch_fills(self, rng):
        design, data = _survival_sample(rng)
        ctx = me.build_aft_context(design, data)
        prior = ParamPriorSpec()
        model_prior = ModelPriorSpec(n_groups=3, p_total=3)
        scorer = me.AftScorer(ctx, prior, model_prior)
        assert ctx.wgram.dot_count == 0
        scorer.log_score((0, 1, 0))
        assert ctx.wgram.dot_count == 3
        models = [m.bits for m in enumerate_models(3)]
        scorer.score_many(models)
        assert ctx.wgram.dot_count == 3 * 3
        me.AftScorer(ctx, prior, model_prior).score_many(models)
        assert ctx.wgram.dot_count == 3 * 3

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


def _engine_reference(key, model, stats, family, prior):
    """What the engine function a table entry stands for returns."""
    kind, method, prior_kind, _ = key
    if kind == "aft":
        engine = me.ala_aft if method == "ala" else me.la_aft
        return engine(model, stats, prior)
    if prior_kind == "gmom":
        # the mode expansion of the gaussian family is its zero expansion
        return me.ala_gmom(model, stats, family, prior)
    if method == "ala":
        return me.ala_expfam_unknown_phi(model, stats, family, prior)
    engines = {
        "ala-refined": me.ala_refined,
        "la": me.la_marginal,
        "exact-gaussian": me.exact_gaussian_marginal,
    }
    return engines[method](model, stats, family, prior)


def _known_phi_ala(key):
    """Whether a table entry is scored by the known-dispersion ``ala``
    engine, which the mode expansion of the gaussian family under the
    product-moment prior shares."""
    kind, method, prior_kind, phi_known = key
    return (
        kind != "aft"
        and phi_known
        and (method in ("ala", "ala-curvadj") or prior_kind == "gmom")
    )


class TestEngineTable:
    """Every entry of the scorer's engine table scores each model exactly as
    the engine function it stands for; the entries of the known-dispersion
    ``ala`` engine score it as the dense per-model reference does."""

    @pytest.mark.parametrize("key", sorted(me._ENGINES), ids=str)
    def test_scorer_returns_the_engine_value(self, key):
        kind, method, prior_kind, phi_known = key
        stats, family = _engine_stats(kind, phi_known, method)
        prior = ParamPriorSpec(kind=prior_kind)
        scorer = me.ModelScorer(stats, family, prior, method=method)
        assert scorer.method == method
        design = stats.design
        for model in enumerate_models(
            design.n_groups,
            sizes=design.group_sizes,
            intercept_group=design.intercept_group,
        ):
            got = scorer.marginal(model)
            if _known_phi_ala(key):
                rho = 1.0
                if method == "ala-curvadj":
                    rho = me.curvature_context(stats, family).rho_hat
                want, beta = dense_known_phi_ala(stats, family, prior, model.bits, rho)
                np.testing.assert_allclose(got.log_ml, want, rtol=1e-13)
                np.testing.assert_allclose(got.expansion, beta, rtol=1e-10, atol=1e-14)
                name = "ala-gmom" if prior_kind == "gmom" else "ala"
                suffix = "-curvadj" if method == "ala-curvadj" else ""
                assert got.method == name + suffix
                continue
            want = _engine_reference(key, model, stats, family, prior)
            assert got.log_ml == want.log_ml
            assert got.method == want.method
            np.testing.assert_array_equal(got.expansion, want.expansion)
