"""Tests for posterior enumeration, Gibbs exploration, importance
reweighting, and two-stage screening."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from alaselect import cli
from alaselect.data_model import ConstraintSet, DesignMatrix, build_cache
from alaselect.errors import RefuseEnumeration
from alaselect.families import gaussian, logistic
from alaselect.marginal_engines import ModelScorer
from alaselect.priors import ModelPriorSpec, ParamPriorSpec, model_key
from alaselect.search import (
    PosteriorSummary,
    enumerate_posterior,
    gibbs_models,
    importance_reweight,
    screen_then_refine,
)

from tests.oracles import (
    conjugate_known_phi_log_ml,
    make_design,
    model_spaces,
    reference_models,
    total_variation,
)


class _FakeScorer:
    """A scorer over a fixed table of log scores, for search-only tests."""

    def __init__(self, design, table, constraints=None):
        self.design = design
        self.table = {model_key(bits): score for bits, score in table.items()}
        self.model_prior = None
        self.constraints = constraints

    def log_score(self, bits):
        return self.table[model_key(bits)]

    def score_many(self, models):
        return np.array([self.log_score(m) for m in models])


def _gaussian_scorer(rng, n=40, n_groups=4, seed_beta=None, method="ala"):
    design = make_design(rng, n, [1] * n_groups)
    beta = np.zeros(n_groups) if seed_beta is None else np.asarray(seed_beta)
    y = design.values @ beta + rng.normal(size=n)
    cache = build_cache(design, y, gaussian(1.0))
    prior = ParamPriorSpec(kind="gzellner", g=1.0)
    return design, y, ModelScorer(cache, gaussian(1.0), prior, method=method)


class TestEnumeratePosterior:
    """Exact normalization over an enumerated model space."""

    def test_probabilities_match_the_conjugate_oracle(self, rng):
        """Normalizing independently computed closed-form marginals gives
        the same posterior as the library enumeration."""
        design, y, scorer = _gaussian_scorer(rng, seed_beta=[0.8, 0.0, 0.0, -0.5])
        summary = enumerate_posterior(scorer)
        reference = np.array(
            [
                conjugate_known_phi_log_ml(design, bits, y, 1.0, 1.0)
                for bits in summary.bits
            ]
        )
        ref_probs = np.exp(reference - logsumexp(reference))
        np.testing.assert_allclose(summary.probabilities, ref_probs, atol=1e-8)

    def test_inclusion_sums_model_probabilities(self, rng):
        _, _, scorer = _gaussian_scorer(rng)
        summary = enumerate_posterior(scorer)
        for j in range(4):
            direct = sum(
                p for bits, p in zip(summary.bits, summary.probabilities) if bits[j]
            )
            np.testing.assert_allclose(summary.inclusion[j], direct, atol=1e-12)

    def test_duplicate_columns_share_probability_equally(self, rng):
        """Two identical single-column groups are exchangeable, so the
        single-group models get identical posterior mass."""
        col = rng.normal(size=(30, 1))
        design = DesignMatrix(np.hstack([col, col]), ((0, 1), (1, 2)))
        y = 0.6 * col[:, 0] + rng.normal(size=30)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        summary = enumerate_posterior(scorer)
        mass = dict(summary.top(4))
        np.testing.assert_allclose(
            mass[model_key((1, 0))], mass[model_key((0, 1))], atol=1e-12
        )
        np.testing.assert_allclose(
            summary.inclusion[0], summary.inclusion[1], atol=1e-12
        )

    def test_forced_group_only_space_has_one_model(self, rng):
        design = make_design(rng, 20, [], intercept=True)
        y = rng.normal(size=20)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        summary = enumerate_posterior(scorer)
        assert summary.bits.tolist() == [[1]]
        np.testing.assert_allclose(summary.probabilities, [1.0], atol=0)

    def test_constraints_shrink_the_enumerated_space(self, rng):
        _, _, scorer = _gaussian_scorer(rng)
        constraints = ConstraintSet(4, ((1, 0),))
        summary = enumerate_posterior(scorer, constraints=constraints)
        assert all(constraints.satisfied_by(b) for b in summary.bits)
        assert summary.bits.shape == (12, 4)

    def test_model_prior_reweights_the_posterior(self, rng):
        design, y, _ = _gaussian_scorer(rng)
        cache = build_cache(design, y, gaussian(1.0))
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        flat = ModelScorer(cache, gaussian(1.0), prior)
        sized = ModelScorer(
            cache,
            gaussian(1.0),
            prior,
            model_prior=ModelPriorSpec(n_groups=4, p_total=4, c_exponent=1.0),
        )
        a = enumerate_posterior(flat)
        b = enumerate_posterior(sized)
        assert not np.allclose(a.probabilities, b.probabilities)

    def test_refuses_oversized_spaces(self, rng):
        design = make_design(rng, 10, [1] * 4)
        cache = build_cache(design, rng.normal(size=10), gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        with pytest.raises(RefuseEnumeration):
            enumerate_posterior(scorer, limit=3)

    @settings(max_examples=20, deadline=None)
    @given(
        scores=st.lists(
            st.floats(min_value=-30.0, max_value=5.0), min_size=8, max_size=8
        )
    )
    def test_inclusion_identity_for_arbitrary_score_tables(self, scores):
        """For any finite score table, group inclusion equals the bitwise
        probability-weighted sum."""
        design = DesignMatrix.with_singleton_groups(np.eye(5)[:, :3])
        table = {}
        idx = 0
        for m in range(8):
            bits = tuple((m >> (2 - i)) & 1 for i in range(3))
            table[bits] = scores[idx]
            idx += 1
        summary = enumerate_posterior(_FakeScorer(design, table))
        bits_mat = summary.bits.astype(float)
        np.testing.assert_allclose(
            summary.inclusion, bits_mat.T @ summary.probabilities, atol=1e-12
        )


class TestGibbs:
    """Systematic-scan sampling over inclusion bits."""

    def test_same_seed_reproduces_everything(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.5, 0.0, -0.4, 0.0])
        a = gibbs_models(scorer, n_scans=300, seed=11)
        b = gibbs_models(scorer, n_scans=300, seed=11)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_allclose(a.inclusion, b.inclusion, atol=0)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_different_seeds_differ(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.5, 0.0, -0.4, 0.0])
        a = gibbs_models(scorer, n_scans=300, seed=11)
        b = gibbs_models(scorer, n_scans=300, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_single_group_conditional_is_exact(self, rng):
        """With one free group the conditional on-probability equals the
        two-model posterior, so the averaged inclusion matches it exactly
        after any number of scans."""
        design = make_design(rng, 50, [1])
        y = 0.4 * design.values[:, 0] + rng.normal(size=50)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        exact = enumerate_posterior(scorer)
        chain = gibbs_models(scorer, n_scans=50, seed=3)
        np.testing.assert_allclose(chain.inclusion[0], exact.inclusion[0], atol=1e-12)

    def test_visit_frequencies_approach_the_posterior(self, rng):
        design, y, scorer = _gaussian_scorer(
        rng, n=120, seed_beta=[1.0, 0.0, 0.0, -0.8]
        )
        exact = enumerate_posterior(scorer)
        chain = gibbs_models(scorer, n_scans=4000, seed=7)
        counts = {}
        for row in chain.samples:
            key = tuple(int(b) for b in row)
            counts[key] = counts.get(key, 0) + 1
        total = sum(counts.values())
        tv = total_variation(
            list(counts), np.array([c / total for c in counts.values()]),
            exact.bits, exact.probabilities,
        )
        assert tv < 0.08

    def test_burn_in_is_removed_from_samples(self, rng):
        _, _, scorer = _gaussian_scorer(rng)
        chain = gibbs_models(scorer, n_scans=50, seed=0, burn_frac=0.2)
        assert chain.samples.shape == (40, 4)
        assert chain.samples.dtype == np.uint8
        assert chain.diagnostics["burn_scans"] == 10

    def test_size_cap_is_never_violated(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.8, 0.8, 0.8, 0.8])
        constraints = ConstraintSet(2)
        chain = gibbs_models(scorer, n_scans=400, seed=5, constraints=constraints, debug=True)
        assert chain.samples.sum(axis=1).max() <= 2
        assert chain.diagnostics["constraint_violations"] == 0

    def test_children_never_appear_without_parents(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.0, 0.9, 0.0, 0.0])
        constraints = ConstraintSet(4, ((1, 0), (2, 1)))
        chain = gibbs_models(scorer, n_scans=400, seed=5, constraints=constraints, debug=True)
        for row in chain.samples:
            assert constraints.satisfied_by(tuple(int(b) for b in row))
        assert chain.diagnostics["constraint_violations"] == 0

    def test_invalid_start_is_rejected(self, rng):
        _, _, scorer = _gaussian_scorer(rng)
        constraints = ConstraintSet(4, ((1, 0),))
        with pytest.raises(ValueError):
            gibbs_models(
                scorer, n_scans=10, constraints=constraints, init=(0, 1, 0, 0)
            )

    def test_intercept_group_stays_active_in_every_sample(self, rng):
        design = make_design(rng, 60, [1, 1], intercept=True)
        y = design.values @ np.array([0.2, 0.7, 0.0]) + rng.normal(size=60)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        chain = gibbs_models(scorer, n_scans=200, seed=1)
        assert np.all(chain.samples[:, 0] == 1)
        np.testing.assert_allclose(chain.inclusion[0], 1.0, atol=0)


class TestImportanceReweight:
    """Reweighting sampled models to the restricted exact posterior."""

    def test_same_scorer_gives_flat_weights(self, rng):
        """When the target and the proposal are the same scorer, every draw
        has weight one and the effective sample size is the draw count."""
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.7, 0.0, 0.0, 0.0])
        chain = gibbs_models(scorer, n_scans=200, seed=2)
        report = importance_reweight(scorer, chain.samples, proposal_scorer=scorer)
        assert report.n_draws == chain.samples.shape[0]
        np.testing.assert_allclose(report.weights, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.ess, report.n_draws, atol=1e-9)
        assert not report.degenerate

    def test_weights_have_unit_mean_for_any_target(self, rng):
        design, y, proposal = _gaussian_scorer(rng, seed_beta=[0.7, 0.0, 0.0, -0.4])
        cache = build_cache(design, y, gaussian(1.0))
        target = ModelScorer(
            cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=5.0)
        )
        chain = gibbs_models(proposal, n_scans=300, seed=9)
        report = importance_reweight(target, chain.samples)
        np.testing.assert_allclose(report.weights.mean(), 1.0, atol=1e-12)
        assert 0.0 < report.ess <= report.n_draws + 1e-9

    def test_restricted_probabilities_are_renormalized_scores(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.7, 0.0, 0.0, 0.0])
        chain = gibbs_models(scorer, n_scans=150, seed=4)
        report = importance_reweight(scorer, chain.samples)
        logs = np.array([scorer.log_score(m) for m in report.bits])
        np.testing.assert_allclose(
            report.probabilities, np.exp(logs - logsumexp(logs)), atol=1e-12
        )
        np.testing.assert_allclose(report.probabilities.sum(), 1.0, atol=1e-12)

    def test_single_dominant_model_flags_degeneracy(self, rng):
        """When one rarely drawn model holds almost all posterior mass, a
        single draw carries most of the weight and the flag trips."""
        design = make_design(rng, 8, [1, 1])
        table = {
            (0, 0): 0.0,
            (0, 1): -1.0,
            (1, 0): -2.0,
            (1, 1): 40.0,
        }
        scorer = _FakeScorer(design, table)
        samples = np.array([[0, 0]] * 60 + [[0, 1]] * 30 + [[1, 0]] * 9 + [[1, 1]] * 1)
        report = importance_reweight(scorer, samples)
        assert report.degenerate
        assert report.max_weight > 50.0
        assert report.ess < 0.1 * report.n_draws

    def test_empty_sample_is_rejected(self, rng):
        _, _, scorer = _gaussian_scorer(rng)
        with pytest.raises(ValueError):
            importance_reweight(scorer, np.empty((0, 4)))


class TestScreenThenRefine:
    """Cheap screening before an expensive rescoring pass."""

    def test_zero_threshold_reduces_to_plain_enumeration(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.6, 0.0, -0.5, 0.0])
        direct = enumerate_posterior(scorer)
        staged = screen_then_refine(scorer, scorer, threshold=0.0)
        np.testing.assert_allclose(
            staged.probabilities, direct.probabilities, atol=1e-12
        )
        np.testing.assert_allclose(staged.inclusion, direct.inclusion, atol=1e-12)

    def test_dropped_groups_report_zero_inclusion(self, rng):
        _, _, scorer = _gaussian_scorer(
            rng, n=150, seed_beta=[1.5, 0.0, 0.0, 0.0]
        )
        staged = screen_then_refine(scorer, scorer, threshold=0.5)
        kept = staged.diagnostics["kept_groups"]
        assert 0 in kept
        for j in range(4):
            if j not in kept:
                np.testing.assert_allclose(staged.inclusion[j], 0.0, atol=0)

    def test_two_stage_scores_come_from_the_refine_scorer(self, rng):
        """The survivors are rescored by the second scorer, so with two
        different methods the staged posterior matches enumeration under
        the second method restricted to the kept groups."""
        design = make_design(rng, 100, [1, 1, 1], intercept=True)
        eta = design.values @ np.array([0.2, 1.2, 0.0, 0.0])
        y = (rng.random(100) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        cache = build_cache(design, y, logistic())
        prior = ParamPriorSpec(kind="gzellner", g=1.0)
        cheap = ModelScorer(cache, logistic(), prior, method="ala")
        precise = ModelScorer(cache, logistic(), prior, method="la")
        staged = screen_then_refine(cheap, precise, threshold=0.3)
        for bits, log_score in zip(staged.bits, staged.log_scores):
            np.testing.assert_allclose(log_score, precise.log_score(bits), atol=1e-12)

    def test_parents_of_survivors_are_pulled_back_in(self, rng):
        """A kept child forces its screened-out parent back into the
        refined space so the constraint stays satisfiable."""
        design = make_design(rng, 120, [1, 1, 1])
        # only group 1 carries signal; group 0 is its parent
        y = 1.2 * design.values[:, 1] + rng.normal(size=120)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        constraints = ConstraintSet(3, ((1, 0),))
        staged = screen_then_refine(
            scorer, scorer, threshold=0.5, constraints=constraints
        )
        kept = staged.diagnostics["kept_groups"]
        if 1 in kept:
            assert 0 in kept
        assert all(constraints.satisfied_by(b) for b in staged.bits)

    def test_warns_when_everything_is_screened_out(self, rng):
        design = make_design(rng, 80, [1, 1], intercept=True)
        y = rng.normal(size=80)
        cache = build_cache(design, y, gaussian(1.0))
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(kind="gzellner", g=1.0))
        with pytest.warns(UserWarning, match="screening removed every candidate"):
            staged = screen_then_refine(scorer, scorer, threshold=1.01)
        assert staged.bits.tolist() == [[1, 0, 0]]
        np.testing.assert_allclose(staged.probabilities, [1.0], atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        space=model_spaces(),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.floats(0.0, 1.0),
    )
    def test_kept_subset_space_matches_a_plain_loop(self, space, seed, threshold):
        """The refined space is every admissible model over the kept
        groups, in the order of a plain loop over their masks."""
        n_groups, constraints, intercept = space
        assume(reference_models(n_groups, constraints, intercept))
        everything = reference_models(n_groups, None, None)
        scores = np.random.default_rng(seed).normal(scale=3.0, size=len(everything))
        design = SimpleNamespace(n_groups=n_groups, intercept_group=intercept)
        scorer = _FakeScorer(design, dict(zip(everything, scores)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            staged = screen_then_refine(scorer, scorer, threshold, constraints)
        kept = staged.diagnostics["kept_groups"]
        expected = reference_models(n_groups, constraints, intercept, kept)
        assert staged.bits.dtype == np.uint8
        assert [tuple(row) for row in staged.bits.tolist()] == expected

    def test_summary_top_orders_by_probability(self, rng):
        _, _, scorer = _gaussian_scorer(rng, seed_beta=[0.9, 0.0, 0.0, 0.0])
        summary = enumerate_posterior(scorer)
        top = summary.top(3)
        probs = [p for _, p in top]
        assert probs == sorted(probs, reverse=True)
        assert top[0][1] == summary.probabilities.max()
        assert probs == sorted(summary.probabilities.tolist(), reverse=True)[:3]
        mass = {row.tobytes(): p for row, p in zip(summary.bits, summary.probabilities)}
        for key, prob in top:
            assert type(key) is bytes and len(key) == 4
            assert mass[key] == prob

    def test_a_positional_summary_of_bit_tuples_is_written_as_its_matrix(
        self, tmp_path
    ):
        """A summary built positionally from a list of bit tuples holds
        them as a (B, J) ``uint8`` matrix, which the CLI writes out."""
        models = [(1, 0, 1), (0, 1, 1)]
        scores = np.array([-1.0, -2.0])
        probs = np.exp(scores - logsumexp(scores))
        inclusion = np.asarray(models, dtype=float).T @ probs
        summary = PosteriorSummary(models, scores, probs, inclusion)
        assert summary.bits.dtype == np.uint8
        assert summary.bits.tolist() == [[1, 0, 1], [0, 1, 1]]
        cli._write_summary_files(tmp_path, summary, {})
        rows = (tmp_path / "models.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in rows] == ["model", "101", "011"]


class TestOneCopyOfTheConstraints:
    """A search given constraints that differ from those of the scorer's
    model prior refuses to start; an equal copy, or None on either side,
    runs."""

    def test_differing_copies_raise_before_any_scoring(self, rng):
        design = make_design(rng, 60, [1, 1, 1, 1])
        y = design.values @ np.array([0.8, 0.6, 0.0, 0.0]) + rng.normal(size=60)
        cache = build_cache(design, y, gaussian(1.0))
        held = ConstraintSet(2, ((1, 0),))
        model_prior = ModelPriorSpec(n_groups=4, p_total=4, constraints=held)
        scorer = ModelScorer(cache, gaussian(1.0), ParamPriorSpec(), model_prior)
        plain = ModelScorer(cache, gaussian(1.0), ParamPriorSpec())
        runs = [
            lambda c: enumerate_posterior(scorer, c),
            lambda c: gibbs_models(scorer, n_scans=5, constraints=c),
            lambda c: screen_then_refine(scorer, scorer, 0.5, c),
            lambda c: screen_then_refine(plain, scorer, 0.5, c),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="differ from the scorer's"):
                run(ConstraintSet(3, ((1, 0),)))
            for same in (held, ConstraintSet(2, ((1, 0),)), None):
                run(same)
        enumerate_posterior(plain, ConstraintSet(3, ((1, 0),)))


class TestBatchedScoringInSearch:
    """The search routines score known model lists with ``score_many``;
    their scores equal a fresh per-model scorer's."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_groups=st.integers(2, 5),
        requires=st.lists(
            st.sampled_from([(2, 1), (3, 1), (4, 2), (4, 3)]), max_size=2
        ),
        kind=st.sampled_from(["gzellner", "gmom"]),
    )
    def test_scores_match_a_fresh_per_model_scorer(
        self, seed, max_groups, requires, kind
    ):
        rng = np.random.default_rng(seed)
        design = make_design(rng, 80, [1, 2, 1, 1], intercept=True)
        eta = design.values @ rng.normal(scale=0.4, size=design.p)
        y = (rng.random(80) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        constraints = ConstraintSet(max_groups, tuple(requires))
        model_prior = ModelPriorSpec(
            n_groups=5, p_total=design.p, constraints=constraints, intercept_group=0
        )
        prior = ParamPriorSpec(kind=kind, g=1.0)

        def fresh():
            cache = build_cache(design, y, logistic())
            return ModelScorer(cache, logistic(), prior, model_prior)

        scorer, reference = fresh(), fresh()
        summary = enumerate_posterior(scorer)
        looped = [reference.log_score(m) for m in summary.bits]
        np.testing.assert_allclose(summary.log_scores, looped, rtol=1e-10, atol=0)
        assert scorer.cache.gram.dot_count == reference.cache.gram.dot_count

        sampled = gibbs_models(fresh(), n_scans=30, seed=seed % 1000)
        looped = [reference.log_score(m) for m in sampled.bits]
        np.testing.assert_allclose(sampled.log_scores, looped, rtol=1e-10, atol=0)

        staged = screen_then_refine(fresh(), fresh(), threshold=0.0)
        looped = [reference.log_score(m) for m in staged.bits]
        np.testing.assert_allclose(staged.log_scores, looped, rtol=1e-10, atol=0)

        report = importance_reweight(fresh(), sampled.samples, proposal_scorer=fresh())
        looped = np.array([reference.log_score(m) for m in report.bits])
        np.testing.assert_allclose(
            report.probabilities, np.exp(looped - logsumexp(looped)), rtol=1e-9
        )
