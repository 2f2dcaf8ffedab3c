"""The numpy-only special functions and Cholesky solves against scipy, and
the error each engine raises for a matrix that is not positive definite."""

import numpy as np
import pytest
import scipy.special

from alaselect import marginal_engines as me
from alaselect.data_model import DesignMatrix, build_cache
from alaselect.errors import NotConcave, NotConcaveAtExpansion, NotInvertible
from alaselect.numerics import (
    bordered_cholesky,
    cho_factor_solve,
    chol_logdet,
    cholesky,
    gammaln,
    logit,
    logsumexp,
)
from alaselect.families import logistic
from alaselect.priors import ParamPriorSpec

from tests.oracles import reference_newton_direction

# an indefinite symmetric matrix (eigenvalues 4 and -2; 5 and -1 plus I)
_INDEFINITE = np.array([[1.0, 3.0], [3.0, 1.0]])


class TestGammaln:
    def test_integers_up_to_1e5(self):
        x = np.arange(1.0, 100_001.0)
        np.testing.assert_allclose(gammaln(x), scipy.special.gammaln(x), rtol=2e-15)

    def test_reals_of_either_sign_and_any_shape(self, rng):
        x = rng.uniform(-50.0, 300.0, size=(40, 25))
        x[0, :5] = [0.5, 1e-300, 1e5 + 0.25, 171.5, 1e300]
        out = gammaln(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(
            out, scipy.special.gammaln(x), rtol=4e-15, atol=4e-15
        )

    def test_poles_are_plus_infinity(self):
        poles = np.array([0.0, -0.0, -1.0, -2.0, -170.0, -1e5])
        assert np.all(gammaln(poles) == np.inf)
        assert np.all(scipy.special.gammaln(poles) == np.inf)
        for pole in poles.tolist():
            assert gammaln(pole) == np.inf

    def test_scalars_give_a_numpy_scalar(self):
        assert isinstance(gammaln(3.5), np.float64)
        assert isinstance(gammaln(np.float64(3.5)), np.float64)
        assert gammaln(3) == gammaln(3.0) == pytest.approx(np.log(2.0), rel=1e-15)
        assert np.isnan(gammaln(np.nan))


class TestLogsumexp:
    @pytest.mark.parametrize(
        "values",
        [
            [-np.inf, -np.inf, -np.inf],
            [1.0, np.inf, -np.inf],
            [1.0, np.nan, -np.inf],
            [np.inf, np.nan],
            [],
        ],
    )
    def test_infinities_nan_and_empty_as_scipy(self, values):
        a = np.array(values, dtype=np.float64)
        np.testing.assert_array_equal(logsumexp(a), scipy.special.logsumexp(a))

    def test_large_spreads_and_ties(self, rng):
        for scale in (1e-6, 1.0, 1e3, 1e6, 1e300):
            a = scale * rng.normal(size=500)
            a[[3, 70]] = a.max()
            a[5] = -np.inf
            np.testing.assert_allclose(
                logsumexp(a), scipy.special.logsumexp(a), rtol=1e-15, atol=0.0
            )

    def test_sum_of_many_equal_terms(self):
        a = np.full(1000, -745.0)
        assert logsumexp(a) == pytest.approx(np.log(1000.0) - 745.0, rel=1e-15)


def test_logit_gives_the_bits_of_scipy():
    p = np.concatenate(
        [np.linspace(0.0, 1.0, 4001), [0.3, 0.65, 5e-324, -0.0, -0.5, 1.5, np.nan]]
    )
    ours = np.array([logit(v) for v in p.tolist()])
    np.testing.assert_array_equal(ours, scipy.special.logit(p))


class TestCholesky:
    def test_solve_and_log_determinant(self, rng):
        x = rng.normal(size=(30, 5))
        a = x.T @ x
        rhs = rng.normal(size=(5, 2))
        factor, sol = cho_factor_solve(a, rhs)
        np.testing.assert_allclose(factor @ factor.T, a, rtol=1e-12)
        np.testing.assert_allclose(sol, np.linalg.solve(a, rhs), rtol=1e-12)
        np.testing.assert_allclose(chol_logdet(factor), np.linalg.slogdet(a)[1])

    def test_stacked_and_empty_log_determinants(self, rng):
        x = rng.normal(size=(4, 20, 3))
        a = np.einsum("bni,bnj->bij", x, x)
        factor = cholesky(a, NotInvertible, "Gram block")
        np.testing.assert_allclose(chol_logdet(factor), np.linalg.slogdet(a)[1], rtol=1e-12)
        assert chol_logdet(np.empty((0, 0))) == 0.0

    def test_each_engine_raises_its_own_error(self, rng):
        """A joint curvature that is not positive definite raises
        ``NotConcaveAtExpansion`` from the shared finish of the ``ala`` and
        ``ala-refined`` engines; a singular group Gram block raises
        ``NotInvertible`` from the block prior; a mode's curvature raises
        ``NotConcave``."""
        x = rng.normal(size=(30, 2))
        values = np.column_stack([np.ones(30), x, x[:, 1]])
        design = DesignMatrix(values, ((0, 1), (1, 2), (2, 4)))
        y = (rng.random(30) < 0.5).astype(np.float64)
        cache = build_cache(design, y, logistic())
        refined = me.ModelScorer(
            cache, logistic(), ParamPriorSpec(), method="ala-refined", refine_steps=0
        )
        with pytest.raises(NotInvertible, match="group 2 Gram block"):
            refined.marginal((1, 0, 1))
        # a likelihood curvature at zero of the wrong sign
        cache.bpp_nu0 = -50.0
        for method in ("ala", "ala-refined"):
            scorer = me.ModelScorer(cache, logistic(), ParamPriorSpec(), method=method)
            with pytest.raises(NotConcaveAtExpansion, match="joint curvature"):
                scorer.marginal((1, 1, 0))
        with pytest.raises(NotConcave, match="curvature at the mode"):
            bordered_cholesky(
                np.stack([np.eye(2), _INDEFINITE]),
                np.ones((2, 2)),
                NotConcave,
                "curvature at the mode",
            )

    def test_a_singular_matrix_with_a_rounded_factor_raises_the_callers_error(self):
        # the factor of [[2, 2], [2, 2]] ends on a rounding-sized pivot
        singular = np.full((2, 2), 2.0)
        with pytest.raises(NotConcave, match="objective curvature"):
            cho_factor_solve(singular, np.ones(2), NotConcave, "objective curvature")
        # so the stacked Newton direction takes the one-row ridge retries
        np.testing.assert_array_equal(
            me._stacked_direction(np.ones((1, 2)), singular[None], np.array([2])),
            reference_newton_direction(np.ones(2), singular)[None],
        )


def _spd_stack(rng, b, k):
    """A (b, k, k) stack of symmetric positive definite matrices with
    condition numbers spread over [1, 1e10] and scales over 1e-3..1e3, a
    (b, k) stack of vectors with g' H^-1 g spread over [1e-2, 1e8], and
    the condition numbers."""
    q, _ = np.linalg.qr(rng.normal(size=(b, k, k)))
    cond = 10.0 ** rng.uniform(0.0, 10.0, size=b)
    cond[0] = 1e10
    eig = cond[:, None] ** -np.linspace(0.0, 1.0, k)
    eig *= 10.0 ** rng.uniform(-3.0, 3.0, size=(b, 1))
    h = np.einsum("bij,bj,bkj->bik", q, eig, q)
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    g = rng.normal(size=(b, k))
    quad = np.einsum("bi,bi->b", g, np.linalg.solve(h, g[..., None])[..., 0])
    target = 10.0 ** rng.uniform(-2.0, 8.0, size=b)
    target[0] = 1e8
    return h, g * np.sqrt(target / quad)[:, None], cond


class TestBorderedCholesky:
    """``log det H`` and ``g' H^-1 g`` from one Cholesky factor of the
    bordered matrix, against ``np.linalg.slogdet`` and
    ``np.linalg.solve``."""

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_matches_slogdet_and_solve_up_to_the_conditioning(self, rng, k):
        # both routes lose about eps * cond(H) to the rounding of H itself
        h, g, cond = _spd_stack(rng, 50, k)
        logdet, quad, factor = bordered_cholesky(h, g, NotConcave, "curvature")
        eps = np.finfo(np.float64).eps
        want_logdet = np.linalg.slogdet(h)[1]
        want_quad = np.einsum("bi,bi->b", g, np.linalg.solve(h, g[..., None])[..., 0])
        assert np.all(np.abs(logdet - want_logdet) <= 1e3 * eps * cond)
        assert np.all(np.abs(quad - want_quad) <= 1e2 * eps * cond * want_quad)
        assert quad.max() > 0.9e8
        # the leading block is the factor of H
        lead = factor[:, :k, :k]
        np.testing.assert_allclose(lead @ np.swapaxes(lead, 1, 2), h, rtol=1e-12)

    def test_one_matrix_is_a_stack_of_one(self, rng):
        h, g, _ = _spd_stack(rng, 3, 4)
        stacked = bordered_cholesky(h, g, NotConcave, "curvature")
        for i in range(3):
            alone = bordered_cholesky(h[i], g[i], NotConcave, "curvature")
            assert alone[0] == stacked[0][i] and alone[1] == stacked[1][i]
            np.testing.assert_array_equal(alone[2], stacked[2][i])

    def test_empty_and_one_by_one(self):
        logdet, quad, factor = bordered_cholesky(
            np.empty((3, 0, 0)), np.empty((3, 0)), NotConcave, "curvature"
        )
        np.testing.assert_array_equal(logdet, np.zeros(3))
        np.testing.assert_array_equal(quad, np.zeros(3))
        assert factor.shape == (3, 1, 1)
        logdet, quad, _ = bordered_cholesky(
            np.array([[4.0]]), np.array([3.0]), NotConcave, "curvature"
        )
        assert logdet == pytest.approx(np.log(4.0), rel=1e-15)
        assert quad == pytest.approx(9.0 / 4.0, rel=1e-15)

    @pytest.mark.parametrize(
        "exc, what", [(NotConcave, "curvature at the mode"), (NotInvertible, "Gram")]
    )
    def test_a_stack_that_is_not_positive_definite_raises_the_callers_error(
        self, rng, exc, what
    ):
        h, g, _ = _spd_stack(rng, 4, 2)
        h[2] = _INDEFINITE
        with pytest.raises(exc, match=f"{what} is not positive definite") as raised:
            bordered_cholesky(h, g, exc, what)
        assert type(raised.value) is exc
        # a huge g' H^-1 g is no failure: the border's corner is +inf
        huge = bordered_cholesky(np.eye(2)[None], np.full((1, 2), 1e150), exc, what)
        assert huge[1][0] == pytest.approx(2e300, rel=1e-14)

