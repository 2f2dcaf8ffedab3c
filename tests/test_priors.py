"""Tests for coefficient priors, dispersion priors, and model-space priors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import comb, gammaln, logsumexp

from alaselect.data_model import (
    ConstraintSet,
    DesignMatrix,
    Gram,
    admissible_bits,
    build_cache,
)
from alaselect.errors import InvalidModel, NotInvertible
from alaselect.families import gaussian, logistic
from alaselect.marginal_engines import ModelScorer
from alaselect.priors import (
    BlockPrior,
    ModelPriorSpec,
    ParamPriorSpec,
    log_invgamma,
    log_model_prior_unnorm,
    log_tau_prior,
)

from tests.oracles import (
    active_prior_cov,
    block_zellner_precision,
    gzellner_logpdf,
    log_gmom,
    log_gzellner,
    make_design,
)


@st.composite
def _prior_cases(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    intercept = draw(st.booleans())
    n_groups = len(sizes) + intercept
    bits = [1] * intercept + draw(
        st.lists(st.integers(0, 1), min_size=len(sizes), max_size=len(sizes))
    )
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "sizes": sizes,
        "intercept": intercept,
        "bits": tuple(bits[:n_groups]),
        "g": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "phi": draw(st.sampled_from([0.7, 1.0, 2.0])),
        "shift": draw(st.sampled_from([0, 2])),
    }


class TestBlockPrior:
    """One block-diagonal Normal prior per design: the dense precision, its
    log determinant and its density against independent references."""

    @settings(max_examples=60, deadline=None)
    @given(_prior_cases())
    def test_matches_the_references(self, case):
        rng = np.random.default_rng(case["seed"])
        design = make_design(rng, 25, case["sizes"], intercept=case["intercept"])
        prior = BlockPrior(design, Gram(design.values))
        bits, g, phi, shift = case["bits"], case["g"], case["phi"], case["shift"]
        cols = design.columns_for(bits)
        prec, logdet = prior.precision(cols, g, phi, shift)
        ref, ref_logdet = block_zellner_precision(design, bits, g, shift)
        ref = ref / phi
        ref_logdet -= cols.size * np.log(phi)
        np.testing.assert_allclose(prec, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(prec, prec.T)
        np.testing.assert_allclose(logdet, ref_logdet, rtol=1e-10, atol=1e-10)
        beta = rng.normal(size=cols.size)
        expected = (
            stats.multivariate_normal.logpdf(beta, cov=np.linalg.inv(ref))
            if cols.size
            else 0.0
        )
        np.testing.assert_allclose(
            prior.log_density(beta, cols, g, phi, shift), expected, rtol=1e-9, atol=1e-9
        )

    def test_a_stack_of_models_matches_each_model(self, rng):
        # two models of five columns, with three and four groups
        design = make_design(rng, 30, [2, 1, 1, 2], intercept=True)
        prior = BlockPrior(design, Gram(design.values))
        models = [(1, 1, 0, 0, 1), (1, 0, 1, 1, 1)]
        stack = np.array([design.columns_for(bits) for bits in models])
        blocks = np.array([prior.gram.block(cols) for cols in stack])
        moment = rng.normal(size=(2, 5, 5))
        moment = moment @ moment.transpose(0, 2, 1)
        prec, logdet = prior.precision(stack, 1.5, 0.8, 2, blocks)
        penalty = prior.log_penalty(stack, moment, 1.5, blocks)
        for r, cols in enumerate(stack):
            one, one_logdet = prior.precision(cols, 1.5, 0.8, 2)
            np.testing.assert_array_equal(prec[r], one)
            assert logdet[r] == one_logdet
            assert penalty[r] == prior.log_penalty(cols, moment[r], 1.5)

    def test_log_penalty_is_the_per_group_trace(self, rng):
        design = make_design(rng, 30, [2, 3])
        prior = BlockPrior(design, Gram(design.values))
        moment = rng.normal(size=(5, 5))
        moment = moment @ moment.T
        expected = 0.0
        for (start, stop), pj in zip(design.groups, design.group_sizes):
            z = design.values[:, start:stop]
            trace = np.trace(z.T @ z @ moment[start:stop, start:stop])
            expected += np.log((pj + 2) / (30 * pj * 1.2) * trace)
        np.testing.assert_allclose(
            prior.log_penalty(np.arange(5), moment, 1.2), expected, rtol=1e-12
        )

    def test_duplicated_columns_are_singular_at_every_scale(self):
        """Two copies of one column make the group singular, whatever n:
        the relative pivot test rejects all 200 draws, where an exact
        factorization accepts some whose rounding leaves a tiny positive
        pivot."""
        accepted = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 3000))
            col = rng.normal(size=(n, 1))
            design = DesignMatrix(np.hstack([col, col]), ((0, 2),))
            prior = BlockPrior(design, Gram(design.values))
            try:
                prior.precision(np.array([0, 1]), 1.0)
            except NotInvertible:
                continue
            accepted += 1
        assert accepted == 0

    def test_nearly_collinear_columns_are_accepted(self, rng):
        """Columns with R^2 = 1 - 1e-6 leave a relative pivot of 1e-6, well
        above the 1e-10 cut."""
        n = 500
        a = rng.normal(size=n)
        noise = rng.normal(size=n)
        noise -= a * (a @ noise) / (a @ a)
        r2 = 1.0 - 1e-6
        b = np.sqrt(r2) * a / np.linalg.norm(a) + np.sqrt(1 - r2) * noise / np.linalg.norm(
            noise
        )
        design = DesignMatrix(np.column_stack([a, b]), ((0, 2),))
        prior = BlockPrior(design, Gram(design.values))
        _, logdet = prior.precision(np.array([0, 1]), 1.0)
        z = design.values
        np.testing.assert_allclose(
            logdet, 2 * np.log(2 / n) + np.linalg.slogdet(z.T @ z)[1], rtol=1e-8
        )


def _group_errors(design, gram):
    """The error of factorizing each group's Gram block alone, one entry
    per group, None for a group that factorizes."""
    errors = []
    for j, (start, stop) in enumerate(design.groups):
        block = gram.block(np.arange(start, stop))
        try:
            factor = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            errors.append(f"group {j} Gram block is not positive definite")
            continue
        singular = np.any(np.diag(factor) ** 2 < 1e-10 * np.diag(block))
        errors.append(f"group {j} Gram block is singular" if singular else None)
    return errors


def _with_columns(rng, n, groups):
    """A design of the given groups, each a list of column kinds: "x" a
    fresh Gaussian column, "copy" a copy of the group's previous column,
    "zero" a column of zeros."""
    cols, bounds = [], []
    for kinds in groups:
        start = len(cols)
        for kind in kinds:
            if kind == "x":
                cols.append(rng.normal(size=n))
            else:
                cols.append(cols[-1].copy() if kind == "copy" else np.zeros(n))
        bounds.append((start, len(cols)))
    return DesignMatrix(np.column_stack(cols), tuple(bounds))


class TestGroupFactorizations:
    """``log det A_j`` comes from one stacked Cholesky per group size; every
    share and every error is the one a group-by-group pass gives."""

    def test_stacked_shares_equal_each_groups_own(self, rng):
        # sizes past 8 reach the pairwise branch of numpy's sums
        design = make_design(rng, 60, [1, 2, 3, 2, 1, 3, 9, 12, 9], intercept=True)
        gram = Gram(design.values)
        stacked = BlockPrior(design, gram)
        stacked.precision(np.arange(design.p), 1.0)
        alone = BlockPrior(design, gram)
        for j, (start, stop) in enumerate(design.groups):
            alone.precision(np.arange(start, stop), 1.0)
            block = gram.block(np.arange(start, stop))
            pivots = np.diag(np.linalg.cholesky(block)) ** 2
            share = float(np.sum(np.log(pivots))) / (stop - start)
            assert stacked._logdet_share[j] == share
            assert alone._logdet_share[j] == share

    @pytest.mark.parametrize(
        "groups, first",
        [
            # a non-definite group in the size-2 stack, a singular one of size 3
            ([["x", "x"], ["x", "zero"], ["x"], ["x", "x", "copy"]], 1),
            # the size-1 stack, factorized first, fails after group 0 does
            ([["x", "x", "copy"], ["zero"], ["x", "x"]], 0),
            # two failing groups in one stack
            ([["x"], ["x", "copy"], ["x", "x"], ["zero", "x"]], 1),
        ],
    )
    def test_the_first_failing_group_names_the_error(self, rng, groups, first):
        design = _with_columns(rng, 40, groups)
        gram = Gram(design.values)
        errors = _group_errors(design, gram)
        expected = next(error for error in errors if error is not None)
        assert expected.startswith(f"group {first} ")
        prior = BlockPrior(design, gram)
        for _ in range(2):
            with pytest.raises(NotInvertible, match=f"^{expected}$"):
                prior.precision(np.arange(design.p), 1.0)
        # each group alone scores, or raises its own error
        for (start, stop), error in zip(design.groups, errors):
            cols = np.arange(start, stop)
            if error is None:
                assert np.isfinite(prior.precision(cols, 1.0)[1])
            else:
                with pytest.raises(NotInvertible, match=f"^{error}$"):
                    prior.precision(cols, 1.0)

    def test_a_singular_group_no_model_reads_raises_nothing(self, rng):
        design = _with_columns(rng, 80, [["x"], ["x", "x"], ["x", "copy"], ["x"]])
        y = (rng.random(80) < 0.5).astype(float)
        cache = build_cache(design, y, logistic())
        scorer = ModelScorer(cache, logistic(), ParamPriorSpec())
        bits = admissible_bits(4, among=[0, 1, 3])
        scores = scorer.score_many(bits)
        assert np.all(np.isfinite(scores))
        assert np.isnan(cache.block_prior._logdet_share[2])
        with pytest.raises(NotInvertible, match="^group 2 Gram block is "):
            scorer.log_score((0, 0, 1, 0))


class TestGroupNormalPrior:
    """The block Normal prior scaled by each group's own Gram block."""

    def test_matches_multivariate_normal_density(self, rng):
        design = make_design(rng, 20, [2, 1, 3])
        cache = build_cache(design, rng.normal(size=20), gaussian())
        bits = (1, 0, 1)
        beta = rng.normal(size=5)
        for g, phi in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)]:
            np.testing.assert_allclose(
                log_gzellner(beta, design.model(bits), cache, g, phi),
                gzellner_logpdf(design, bits, beta, g, phi),
                atol=1e-10,
            )

    def test_empty_model_has_zero_log_density(self, rng):
        design = make_design(rng, 10, [1, 1])
        cache = build_cache(design, rng.normal(size=10), gaussian())
        assert log_gzellner(np.zeros(0), design.model((0, 0)), cache, g=1.0) == 0.0

    def test_normalizes_to_one_by_importance_sampling(self, rng):
        """Averaging density ratios under an inflated proposal integrates
        the prior to one."""
        design = make_design(rng, 15, [2, 1])
        cache = build_cache(design, rng.normal(size=15), gaussian())
        bits = (1, 1)
        model = design.model(bits)
        cov = active_prior_cov(design, bits, g=1.0, phi=1.0)
        proposal_cov = 2.0 * cov
        draws = rng.multivariate_normal(np.zeros(3), proposal_cov, size=200_000)
        log_q = stats.multivariate_normal.logpdf(draws, np.zeros(3), proposal_cov)
        log_p = np.array(
            [log_gzellner(b, model, cache, g=1.0, phi=1.0) for b in draws[:50_000]]
        )
        estimate = np.mean(np.exp(log_p - log_q[:50_000]))
        np.testing.assert_allclose(estimate, 1.0, atol=0.02)

    def test_invariant_under_group_reparameterization(self, rng):
        """Linearly transforming a group's columns transforms the density
        with exactly the Jacobian of the coefficient change."""
        n = 25
        block = rng.normal(size=(n, 2))
        t_mat = np.array([[1.5, 0.3], [-0.2, 0.8]])
        d1 = DesignMatrix(block, ((0, 2),))
        d2 = DesignMatrix(block @ t_mat, ((0, 2),))
        y = rng.normal(size=n)
        c1 = build_cache(d1, y, gaussian())
        c2 = build_cache(d2, y, gaussian())
        beta = rng.normal(size=2)
        lhs = log_gzellner(
            np.linalg.solve(t_mat, beta), d2.model((1,)), c2, g=1.0
        ) + np.log(abs(np.linalg.det(np.linalg.inv(t_mat))))
        rhs = log_gzellner(beta, d1.model((1,)), c1, g=1.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestNonlocalPrior:
    """Normal kernel times a quadratic penalty that vanishes at zero."""

    def test_singleton_formula(self, rng):
        """One covariate: a Normal with a third of the usual variance times
        the normalized squared coefficient."""
        design = make_design(rng, 12, [1])
        cache = build_cache(design, rng.normal(size=12), gaussian())
        a = float(cache.gram.block(np.array([0]))[0, 0])
        n = design.n
        g, phi = 1.4, 0.8
        for beta in (0.3, -1.2, 2.5):
            var = phi * g * n / (3.0 * a)
            expected = stats.norm.logpdf(beta, scale=np.sqrt(var)) + np.log(
                3.0 * a * beta**2 / (n * g * phi)
            )
            np.testing.assert_allclose(
                log_gmom(np.array([beta]), design.model((1,)), cache, g, phi),
                expected,
                atol=1e-10,
            )

    def test_vanishes_at_zero(self, rng):
        design = make_design(rng, 12, [1])
        cache = build_cache(design, rng.normal(size=12), gaussian())
        assert log_gmom(np.zeros(1), design.model((1,)), cache, g=1.0) == -np.inf

    def test_normalizes_to_one_by_monte_carlo(self, rng):
        """Sampling the Normal kernel and averaging the penalty gives one,
        because the penalty is the kernel expectation of the quadratic."""
        design = make_design(rng, 18, [2])
        cache = build_cache(design, rng.normal(size=18), gaussian())
        model = design.model((1,))
        g = 1.0
        a_block = cache.gram.block(np.array([0, 1]))
        kernel_cov = design.n * g / 4.0 * np.linalg.inv(a_block)
        draws = rng.multivariate_normal(np.zeros(2), kernel_cov, size=400_000)
        penalty = 4.0 / (design.n * 2.0 * g) * np.einsum(
            "ni,ij,nj->n", draws, a_block, draws
        )
        np.testing.assert_allclose(np.mean(penalty), 1.0, atol=0.02)
        # spot check that the density is kernel times that penalty
        b = draws[0]
        kernel_logpdf = stats.multivariate_normal.logpdf(b, np.zeros(2), kernel_cov)
        np.testing.assert_allclose(
            log_gmom(b, model, cache, g),
            kernel_logpdf + np.log(penalty[0]),
            atol=1e-10,
        )


class TestDispersionPriors:
    """Inverse-gamma dispersion and the induced inverse-scale density."""

    def test_invgamma_matches_scipy(self):
        for x, a, b in [(0.5, 0.01, 0.01), (2.0, 1.5, 0.7), (0.1, 3.0, 2.0)]:
            np.testing.assert_allclose(
                log_invgamma(x, a, b),
                stats.invgamma.logpdf(x, a, scale=b),
                atol=1e-12,
            )

    def test_inverse_scale_density_is_the_change_of_variables(self):
        """The inverse-scale prior is the dispersion prior pushed through
        tau = dispersion**(-1/2)."""
        a, b = 1.2, 0.4
        for tau in (0.3, 1.0, 2.7):
            phi = tau**-2
            jacobian = np.log(2.0 * tau**-3)
            np.testing.assert_allclose(
                log_tau_prior(tau, a, b),
                log_invgamma(phi, a, b) + jacobian,
                atol=1e-12,
            )

    def test_inverse_scale_density_integrates_to_one(self):
        a, b = 2.0, 1.5
        total, err = integrate.quad(lambda t: np.exp(log_tau_prior(t, a, b)), 0, np.inf)
        np.testing.assert_allclose(total, 1.0, atol=1e-8)


class TestModelPrior:
    """Size-based model priors with optional complexity penalty."""

    def test_uniform_sizes_give_inverse_binomial_masses(self):
        spec = ModelPriorSpec(n_groups=3, p_total=3, c_exponent=0.0)
        for bits, k in [((0, 0, 0), 0), ((1, 0, 0), 1), ((1, 1, 0), 2), ((1, 1, 1), 3)]:
            np.testing.assert_allclose(
                log_model_prior_unnorm(bits, spec), -np.log(comb(3, k)), atol=1e-12
            )

    def test_single_flip_ratio_is_minus_log_two_for_two_groups(self):
        spec = ModelPriorSpec(n_groups=2, p_total=2, c_exponent=0.0)
        ratio = log_model_prior_unnorm((1, 0), spec) - log_model_prior_unnorm(
            (0, 0), spec
        )
        np.testing.assert_allclose(ratio, -np.log(2.0), atol=1e-12)

    def test_complexity_exponent_penalizes_size(self):
        spec = ModelPriorSpec(n_groups=4, p_total=4, c_exponent=1.0)
        for bits in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]:
            k = sum(bits)
            np.testing.assert_allclose(
                log_model_prior_unnorm(bits, spec),
                -k * np.log(4.0) - np.log(comb(4, k)),
                atol=1e-12,
            )

    def test_normalized_masses_sum_to_one_over_the_space(self):
        spec = ModelPriorSpec(n_groups=4, p_total=4, c_exponent=1.0)
        logs = [
            log_model_prior_unnorm(tuple((m >> i) & 1 for i in range(4)), spec)
            for m in range(16)
        ]
        total = logsumexp(logs)
        probs = np.exp(np.array(logs) - total)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        # sizes are uniform when the complexity exponent matches zero
        spec0 = ModelPriorSpec(n_groups=4, p_total=4, c_exponent=0.0)
        logs0 = np.array(
            [
                log_model_prior_unnorm(tuple((m >> i) & 1 for i in range(4)), spec0)
                for m in range(16)
            ]
        )
        probs0 = np.exp(logs0 - logsumexp(logs0))
        by_size = np.zeros(5)
        for m in range(16):
            by_size[bin(m).count("1")] += probs0[m]
        np.testing.assert_allclose(by_size, 0.2, atol=1e-12)

    def test_intercept_group_does_not_count_toward_size(self):
        spec = ModelPriorSpec(n_groups=3, p_total=3, c_exponent=0.0, intercept_group=0)
        assert spec.free_size((1, 1, 0)) == 1
        np.testing.assert_allclose(
            log_model_prior_unnorm((1, 1, 0), spec), -np.log(comb(2, 1)), atol=1e-12
        )

    def test_ratio_is_the_difference_of_masses(self):
        """The prior odds of adding one group to a size-k model, a
        difference of unnormalized masses, are -c log p - log((J-k)/(k+1))."""
        spec = ModelPriorSpec(n_groups=5, p_total=5, c_exponent=0.5)
        new, old = (1, 1, 0, 1, 0), (1, 0, 0, 1, 0)
        np.testing.assert_allclose(
            log_model_prior_unnorm(new, spec) - log_model_prior_unnorm(old, spec),
            -0.5 * np.log(5.0) - np.log(3.0 / 3.0),
            atol=1e-12,
        )
        # with a forced intercept the odds use the free counts only
        spec = ModelPriorSpec(n_groups=5, p_total=5, c_exponent=0.5, intercept_group=0)
        np.testing.assert_allclose(
            log_model_prior_unnorm(new, spec) - log_model_prior_unnorm(old, spec),
            -0.5 * np.log(5.0) - np.log(3.0 / 2.0),
            atol=1e-12,
        )

    def test_constraint_violation_is_rejected(self):
        spec = ModelPriorSpec(
            n_groups=3,
            p_total=3,
            constraints=ConstraintSet(3, ((1, 0),)),
        )
        with pytest.raises(InvalidModel):
            spec.check((0, 1, 0))
        spec.check((1, 1, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        n_groups=st.integers(1, 8),
        p_extra=st.integers(0, 5),
        c=st.sampled_from([0.0, 0.5, 1.0]),
        intercept=st.booleans(),
        data=st.data(),
    )
    def test_size_table_matches_the_closed_form(
        self, n_groups, p_extra, c, intercept, data
    ):
        """``log_mass[k]`` and the mass of a model of free size k equal
        ``-c k log p - log C(J, k)`` over the J free groups."""
        p_total = n_groups + p_extra
        spec = ModelPriorSpec(
            n_groups=n_groups,
            p_total=p_total,
            c_exponent=c,
            intercept_group=0 if intercept else None,
        )
        j = n_groups - intercept
        k = np.arange(j + 1)
        closed = -c * k * np.log(p_total) - (
            gammaln(j + 1.0) - gammaln(k + 1.0) - gammaln(j - k + 1.0)
        )
        np.testing.assert_allclose(spec.log_mass, closed, rtol=1e-13, atol=1e-13)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=n_groups, max_size=n_groups)
        )
        if intercept:
            bits[0] = 1
        free = sum(bits) - intercept
        for form in (tuple(bits), bytes(bits), np.array(bits)):
            assert spec.free_size(form) == free
            np.testing.assert_allclose(
                log_model_prior_unnorm(form, spec), closed[free], rtol=1e-13, atol=1e-13
            )

    def test_invalid_model_message_is_the_same_for_every_key_form(self, rng):
        """A tuple, a ``ModelId`` and a ``bytes`` key of one invalid model
        raise the same ``InvalidModel`` message, from the prior alone and
        from a scorer's ``log_score``."""
        design = make_design(rng, 30, [1, 1, 1], intercept=True)
        cache = build_cache(design, rng.normal(size=30), gaussian(1.0))
        spec = ModelPriorSpec(
            n_groups=4,
            p_total=design.p,
            constraints=ConstraintSet(4, ((2, 1),)),
            intercept_group=0,
        )
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(), spec)
        bad = (1, 0, 1, 0)
        for form in (bad, design.model(bad), bytes(bad)):
            with pytest.raises(InvalidModel, match="^model 1010 violates constraints$"):
                log_model_prior_unnorm(form, spec)
            with pytest.raises(InvalidModel, match="^model 1010 violates constraints$"):
                scorer.log_score(form)
        for form in ((0, 1, 0, 0), b"\x00\x01\x00\x00"):
            with pytest.raises(InvalidModel, match="^intercept group must stay"):
                log_model_prior_unnorm(form, spec)
        for form in ((1, 1, 0), b"\x01\x01\x00"):
            with pytest.raises(
                InvalidModel, match="^bit vector length does not match the group count$"
            ):
                log_model_prior_unnorm(form, spec)

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_a_batch_memoizes_each_admissible_models_mass(self, c):
        """``remember`` stores, for each admissible row, bitwise the mass
        one key's lookup gives, and leaves every other row to that lookup,
        which raises its own message: an inactive intercept group, a size
        past the cap (the intercept counted) or an unmet ``requires``
        pair."""
        constraints = ConstraintSet(4, ((2, 1), (5, 3), (5, 4)))
        kwargs = dict(
            n_groups=6, p_total=9, c_exponent=c, constraints=constraints,
            intercept_group=0,
        )
        spec = ModelPriorSpec(**kwargs)
        bits = np.array(
            [[(m >> (5 - j)) & 1 for j in range(6)] for m in range(64)], dtype=np.uint8
        )
        keys = [row.tobytes() for row in bits]
        spec.remember(bits, keys)
        admitted = 0
        for key in keys:
            alone = ModelPriorSpec(**kwargs)
            try:
                mass = log_model_prior_unnorm(key, alone)
            except InvalidModel as err:
                assert key not in spec._seen
                with pytest.raises(InvalidModel, match=f"^{err}$"):
                    log_model_prior_unnorm(key, spec)
                continue
            admitted += 1
            assert spec._seen[key] == mass
            assert log_model_prior_unnorm(key, spec) == mass
        # the rows admissible_bits enumerates, and no others
        assert admitted == len(spec._seen) == len(admissible_bits(6, constraints, 0))

    def test_an_inadmissible_row_of_a_batch_raises_its_own_message(self, rng):
        """A batch scored from a bit matrix raises, at a row the constraints
        reject, the message that row's own ``log_score`` raises."""
        design = make_design(rng, 30, [1, 1, 1, 1], intercept=True)
        family = gaussian(1.0)
        cache = build_cache(design, rng.normal(size=30), family)
        spec = ModelPriorSpec(
            n_groups=5,
            p_total=design.p,
            constraints=ConstraintSet(3, ((2, 1),)),
            intercept_group=0,
        )
        good = admissible_bits(5, spec.constraints, 0)
        for bad, message in [
            ((1, 0, 1, 0, 0), "model 10100 violates constraints"),
            ((1, 1, 1, 1, 0), "model 11110 violates constraints"),
            ((0, 1, 0, 0, 0), "intercept group must be active in every model"),
        ]:
            alone = ModelScorer(cache, family, ParamPriorSpec(), spec)
            with pytest.raises(InvalidModel, match=f"^{message}$"):
                alone.log_score(bad)
            batch = np.insert(good, 3, bad, axis=0)
            scorer = ModelScorer(cache, family, ParamPriorSpec(), spec)
            with pytest.raises(InvalidModel, match=f"^{message}$"):
                scorer.score_many(batch)

    def test_param_prior_requires_dispersion_parameters_when_asked(self):
        prior = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=(0.01, 0.01))
        assert prior.phi_prior_required() == (0.01, 0.01)
        bad = ParamPriorSpec(kind="gzellner", g=1.0, phi_prior=None)
        with pytest.raises(ValueError):
            bad.phi_prior_required()
