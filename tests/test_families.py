"""Tests for likelihood families: log likelihoods, derivatives, dispersion
estimates, and the censored-Gaussian survival pieces."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, gammaln, log_ndtr

from alaselect.errors import DegenerateResponse, NotConcave
from alaselect.families import (
    SurvivalData,
    aft_concavity_check,
    aft_loglik_grad_hess,
    aft_tau0,
    gaussian,
    gaussian_unknown,
    grad_hess,
    log_ndtr_curvature,
    loglik,
    logistic,
    mills_ratio,
    phi0_mle,
    poisson,
)

from tests.oracles import (
    aft_loglik_np,
    fd_grad,
    fd_hess,
    gaussian_loglik_np,
    logistic_loglik_np,
    max_rel_err,
    poisson_loglik_np,
)


class TestLoglikAnchors:
    """Hand-computed log-likelihood values at simple points."""

    def test_logistic_at_zero_is_minus_n_log_two(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        eta = np.zeros(5)
        np.testing.assert_allclose(
            loglik(logistic(), eta, y), -5.0 * np.log(2.0), atol=1e-12
        )

    def test_poisson_counts_at_zero_rate_one(self):
        y = np.array([2.0, 0.0])
        eta = np.zeros(2)
        # each unit rate contributes -1; the count of two adds -log(2!)
        np.testing.assert_allclose(
            loglik(poisson(), eta, y), -2.0 - np.log(2.0), atol=1e-12
        )

    def test_gaussian_standard_values(self):
        y = np.array([1.0, -1.0])
        np.testing.assert_allclose(
            loglik(gaussian(1.0), np.zeros(2), y),
            -1.0 - np.log(2.0 * np.pi),
            atol=1e-12,
        )

    def test_gaussian_matches_scipy_for_any_dispersion(self, rng):
        y = rng.normal(size=9)
        eta = rng.normal(size=9)
        phi = 0.37
        np.testing.assert_allclose(
            loglik(gaussian(phi), eta, y),
            stats.norm.logpdf(y, loc=eta, scale=np.sqrt(phi)).sum(),
            atol=1e-10,
        )

    def test_overflowing_predictor_returns_minus_inf(self):
        assert loglik(poisson(), np.array([800.0]), np.array([1.0])) == -np.inf


class TestGradHess:
    """Analytic derivatives agree with central finite differences of the
    matching from-scratch log likelihoods."""

    def test_logistic_derivatives(self, rng):
        z = rng.normal(size=(25, 3))
        y = (rng.random(25) < 0.4).astype(np.float64)
        beta = rng.normal(size=3) * 0.5
        _, g, h = grad_hess(logistic(), z, y, beta)
        # returned derivatives are of the negative log likelihood
        fd_g = fd_grad(lambda b: -logistic_loglik_np(z, y, b), beta)
        fd_h = fd_hess(lambda b: -logistic_loglik_np(z, y, b), beta)
        assert max_rel_err(g, fd_g) < 1e-6
        assert max_rel_err(h, fd_h) < 1e-5

    def test_poisson_derivatives(self, rng):
        z = rng.normal(size=(25, 2))
        y = rng.poisson(1.5, size=25).astype(np.float64)
        beta = np.array([0.2, -0.4])
        _, g, h = grad_hess(poisson(), z, y, beta)
        fd_g = fd_grad(lambda b: -poisson_loglik_np(z, y, b), beta)
        fd_h = fd_hess(lambda b: -poisson_loglik_np(z, y, b), beta)
        assert max_rel_err(g, fd_g) < 1e-6
        assert max_rel_err(h, fd_h) < 1e-5

    def test_gaussian_joint_dispersion_derivatives(self, rng):
        """For unknown dispersion the derivative vector stacks the
        coefficient block and the dispersion coordinate last."""
        z = rng.normal(size=(30, 2))
        y = z @ np.array([0.5, -0.3]) + rng.normal(size=30)
        beta = np.array([0.3, 0.1])
        phi = 0.9
        _, g, h = grad_hess(gaussian_unknown(), z, y, beta, phi=phi)

        def negll(theta):
            return -gaussian_loglik_np(z, y, theta[:2], theta[2])

        theta = np.array([beta[0], beta[1], phi])
        assert max_rel_err(g, fd_grad(negll, theta, h=1e-6)) < 1e-6
        assert max_rel_err(h, fd_hess(negll, theta)) < 1e-5

    def test_zero_coefficient_reduction(self, rng):
        """At the expansion point the gradient is the scaled shifted-response
        cross product and the hessian is the scaled Gram matrix."""
        z = rng.normal(size=(40, 3))
        y = rng.poisson(1.0, size=40).astype(np.float64)
        _, g, h = grad_hess(poisson(), z, y, np.zeros(3))
        # canonical Poisson at zero: mean 1, variance 1
        np.testing.assert_allclose(g, -z.T @ (y - 1.0), atol=1e-10)
        np.testing.assert_allclose(h, z.T @ z, atol=1e-10)


    def test_value_is_the_negative_loglik(self, rng):
        """The value comes from the same pass as the derivatives; a given
        ``c_sum`` replaces the response-only term."""
        z = rng.normal(size=(30, 2))
        beta = np.array([0.3, -0.2])
        y_counts = rng.poisson(1.2, size=30).astype(np.float64)
        cases = [
            (logistic(), (rng.random(30) < 0.4).astype(np.float64), None),
            (poisson(), y_counts, None),
            (gaussian(0.8), rng.normal(size=30), None),
            (gaussian_unknown(), rng.normal(size=30), 1.3),
        ]
        for family, y, phi in cases:
            value, _, _ = grad_hess(family, z, y, beta, phi)
            ll = loglik(family, z @ beta, y, phi)
            np.testing.assert_allclose(value, -ll, rtol=1e-13)
        value, _, _ = grad_hess(poisson(), z, y_counts, beta, c_sum=0.0)
        c_sum = -gammaln(y_counts + 1.0).sum()
        np.testing.assert_allclose(
            value, -loglik(poisson(), z @ beta, y_counts) + c_sum, rtol=1e-13
        )

    def test_overflowing_predictor_gives_inf_and_nan_derivatives(self):
        value, g, h = grad_hess(
            poisson(), np.array([[800.0]]), np.array([1.0]), np.array([1.0])
        )
        assert value == np.inf
        assert np.isnan(g).all() and np.isnan(h).all()

    def test_a_cumulant_returns_one_array_only_for_equal_derivatives(self):
        """Poisson's b, b' and b'' are all e^u: its cumulant returns one
        array three times, which the stacked ``la`` pass reads as leave to
        take their sums from one product.  Logistic and gaussian return
        three distinct arrays."""
        u = np.array([-1.0, 0.0, 2.0])
        b, bp, bpp = poisson().cumulant(u)
        assert b is bp is bpp
        for family in (logistic(), gaussian(0.7)):
            b, bp, bpp = family.cumulant(u)
            assert b is not bp and bp is not bpp and b is not bpp

    def test_logistic_cumulant_is_stable_in_both_tails(self):
        u = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
        b, bp, bpp = logistic().cumulant(u)
        np.testing.assert_allclose(b, np.logaddexp(0.0, u), rtol=1e-15)
        np.testing.assert_allclose(bp, expit(u), rtol=1e-15)
        np.testing.assert_allclose(bpp, expit(u) * expit(-u), rtol=1e-15)

    def test_logistic_cumulant_in_place_keeps_the_bits(self, rng):
        """The in-place cumulant returns the bits of the plain formulas on
        finite and infinite input, and NaN for NaN, with at most four
        arrays of the argument's size alive at once (one byte mask more)."""

        def plain(u):
            e = np.exp(-np.abs(u))
            inv = 1.0 / (1.0 + e)
            return (
                np.maximum(u, 0.0) + np.log1p(e),
                np.where(u >= 0.0, inv, e * inv),
                e * inv * inv,
            )

        special = [-np.inf, np.inf, 0.0, -0.0, 1e-300, -745.0, 745.0, -800.0, 40.0]
        for u in [
            rng.normal(scale=30.0, size=(8, 500)),
            np.array(special),
            rng.normal(size=(6, 12))[:, ::3],
            np.array(-1.5),
            2.0,
        ]:
            for got, want in zip(logistic().cumulant(u), plain(u)):
                assert np.shape(got) == np.shape(want)
                np.testing.assert_array_equal(
                    np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64)
                )
        assert all(np.isnan(v).all() for v in logistic().cumulant(np.full(3, np.nan)))
        u = rng.normal(size=(8, 20_000))
        tracemalloc.start()
        try:
            logistic().cumulant(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.2 * u.nbytes


class TestDispersionEstimate:
    """The null dispersion estimate solves the profile equation."""

    def test_gaussian_is_mean_square(self, rng):
        y = rng.normal(size=50) * 1.7
        np.testing.assert_allclose(
            phi0_mle(gaussian_unknown(), y), np.mean(y**2), atol=1e-12
        )

    def test_gaussian_with_offset_center(self, rng):
        y = rng.normal(size=50) + 2.0
        nu0 = y.mean()
        np.testing.assert_allclose(
            phi0_mle(gaussian_unknown(), y, nu0=nu0), np.mean((y - nu0) ** 2), atol=1e-12
        )

    def test_an_unknown_dispersion_of_another_family_is_refused(self, rng):
        """Only the gaussian dispersion may be unknown, as the scorers
        require."""
        family = dataclasses.replace(poisson(), phi_known=False, phi=None)
        with pytest.raises(ValueError, match="gaussian family only"):
            phi0_mle(family, rng.poisson(2.0, size=20).astype(np.float64))


class TestMillsRatio:
    """The normal hazard ratio used by censored likelihood derivatives."""

    def test_matches_scipy_in_the_moderate_range(self):
        t = np.linspace(-30.0, 5.0, 201)
        reference = np.exp(stats.norm.logpdf(t) - log_ndtr(t))
        np.testing.assert_allclose(mills_ratio(t), reference, rtol=1e-10)

    def test_decreasing_and_finite_far_into_the_tail(self):
        """Finite and non-increasing over a wide range; strictly decreasing
        wherever the value has not underflowed to zero."""
        t = np.linspace(-40.0, 40.0, 401)
        r = mills_ratio(t)
        assert np.all(np.isfinite(r))
        assert np.all(np.diff(r) <= 0)
        positive = r > 0
        assert np.all(np.diff(r[positive]) < 0)

    def test_deep_tail_asymptote(self):
        """For very negative t the ratio approaches -t from above."""
        r = float(mills_ratio(np.array([-40.0]))[0])
        assert 40.0 < r < 40.1

    def test_curvature_lies_in_the_unit_interval(self):
        t = np.linspace(-40.0, 40.0, 401)
        c = log_ndtr_curvature(t)
        assert np.all(c > 0.0)
        assert np.all(c <= 1.0)

    def test_curvature_is_the_second_derivative(self):
        """Negative second derivative of the log normal CDF by central
        differences."""
        for t0 in (-8.0, -2.0, 0.0, 1.5, 4.0):
            h = 1e-5
            fd = -(log_ndtr(t0 + h) - 2.0 * log_ndtr(t0) + log_ndtr(t0 - h)) / h**2
            np.testing.assert_allclose(
                float(log_ndtr_curvature(np.array([t0]))[0]), fd, rtol=1e-4
            )


def _simulate_survival(rng, n, p, censor_quantile=0.7):
    """Log-normal survival times with censoring at a time quantile, so the
    censored fraction is controlled exactly."""
    z = rng.normal(size=(n, p))
    alpha = np.zeros(p)
    alpha[0] = 0.8
    log_t = z @ alpha + rng.normal(size=n)
    cutoff = np.quantile(log_t, 1.0 - censor_quantile)
    observed = log_t <= cutoff
    log_time = np.where(observed, log_t, cutoff)
    return z, SurvivalData(log_time, observed)


class TestSurvivalLikelihood:
    """Censored Gaussian likelihood on the accelerated-failure scale."""

    def test_matches_scratch_likelihood(self, rng):
        z, data = _simulate_survival(rng, 40, 2)
        alpha = np.array([0.4, -0.1])
        tau = 1.3
        ll, _, _ = aft_loglik_grad_hess(z, data, alpha, tau)
        np.testing.assert_allclose(
            ll, aft_loglik_np(z, data.log_time, data.observed, alpha, tau), atol=1e-10
        )

    def test_derivatives_match_finite_differences(self, rng):
        z, data = _simulate_survival(rng, 60, 3)
        alpha = np.array([0.3, -0.2, 0.1])
        tau = 0.9
        _, g, h = aft_loglik_grad_hess(z, data, alpha, tau)

        def ll(theta):
            return aft_loglik_np(z, data.log_time, data.observed, theta[:3], theta[3])

        theta = np.concatenate([alpha, [tau]])
        assert max_rel_err(g, fd_grad(ll, theta, h=1e-6)) < 1e-6
        assert max_rel_err(h, fd_hess(ll, theta)) < 1e-5

    def test_heavily_censored_derivatives(self, rng):
        """The same agreement holds when seventy percent of the sample is
        censored, which exercises the hazard-ratio branch."""
        z, data = _simulate_survival(rng, 80, 2, censor_quantile=0.7)
        assert 0.6 < 1.0 - data.n_obs / data.n < 0.8
        alpha = np.array([0.2, 0.4])
        tau = 1.1
        _, g, h = aft_loglik_grad_hess(z, data, alpha, tau)

        def ll(theta):
            return aft_loglik_np(z, data.log_time, data.observed, theta[:2], theta[2])

        theta = np.concatenate([alpha, [tau]])
        assert max_rel_err(g, fd_grad(ll, theta, h=1e-6)) < 1e-6
        assert max_rel_err(h, fd_hess(ll, theta)) < 1e-5

    def test_scale_root_solves_the_profile_equation(self, rng):
        """The baseline inverse-scale zeroes the derivative of the null
        log likelihood in the scale parameter."""
        _, data = _simulate_survival(rng, 50, 2, censor_quantile=0.4)
        tau0 = aft_tau0(data)
        obs = data.observed
        yo = data.log_time[obs]
        yc = data.log_time[~obs]
        score = (
            obs.sum() / tau0
            - tau0 * np.sum(yo**2)
            - np.sum(yc * mills_ratio(-tau0 * yc))
        )
        np.testing.assert_allclose(score, 0.0, atol=1e-8)

    def test_all_censored_sample_is_degenerate(self):
        data = SurvivalData(np.array([0.5, 0.2, 0.1]), np.array([0, 0, 0]))
        with pytest.raises(DegenerateResponse):
            aft_tau0(data)

    def test_concavity_check_needs_enough_observed_rows(self, rng):
        z = rng.normal(size=(6, 3))
        data = SurvivalData(rng.normal(size=6), np.array([1, 1, 0, 0, 0, 0]))
        with pytest.raises(NotConcave):
            aft_concavity_check(z, data)

    def test_survival_data_validates_lengths(self):
        with pytest.raises(ValueError):
            SurvivalData(np.zeros(3), np.array([1, 0]))
