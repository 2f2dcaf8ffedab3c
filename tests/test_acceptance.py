"""Acceptance checklist: twelve end-to-end guarantees, one test each.

Every test prints the quantities it asserts, so a verbose run documents
the margins next to each pass/fail line.  All randomness is self-seeded;
the whole file is deterministic.
"""

import time

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from alaselect import families as fam
from alaselect import marginal_engines as engines
from alaselect import simdesigns
from alaselect.data_model import (
    ConstraintSet,
    DesignMatrix,
    admissible_bits,
    build_cache,
)
from alaselect.priors import ModelPriorSpec, ParamPriorSpec, model_key
from alaselect.search import (
    enumerate_posterior,
    gibbs_models,
    importance_reweight,
)

from tests.oracles import (
    conjugate_known_phi_log_ml,
    fd_grad,
    fd_hess,
    make_design,
    max_rel_err,
)


def _singleton_design(values):
    p = values.shape[1]
    return DesignMatrix(values, [(j, j + 1) for j in range(p)])


def test_c01_gaussian_scores_match_the_conjugate_oracle():
    """One hundred random known-dispersion Gaussian instances: the
    zero-expansion score and the mode-expansion score both equal the
    conjugate marginal to 1e-8 on the log scale, within ten seconds."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_ala = worst_la = 0.0
    for _ in range(100):
        n = int(rng.integers(25, 201))
        sizes = []
        while True:
            nxt = int(rng.integers(1, 4))
            if sum(sizes) + nxt > 8:
                break
            sizes.append(nxt)
        design = make_design(rng, n, sizes)
        phi = float(rng.uniform(0.3, 3.0))
        g = float(rng.uniform(0.5, 3.0))
        beta = rng.normal(scale=0.5, size=design.p)
        y = design.values @ beta + rng.normal(size=n) * np.sqrt(phi)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=len(sizes)))
        cache = build_cache(design, y, fam.gaussian(phi), center="zero")
        prior = ParamPriorSpec(kind="gzellner", g=g)
        ala = engines.ModelScorer(cache, fam.gaussian(phi), prior).log_ml(bits)
        la = engines.ModelScorer(
            cache, fam.gaussian(phi), prior, method="la"
        ).log_ml(bits)
        exact = conjugate_known_phi_log_ml(design, bits, y, g=g, phi=phi)
        worst_ala = max(worst_ala, abs(ala - exact))
        worst_la = max(worst_la, abs(la - exact))
    elapsed = time.perf_counter() - t0
    print(
        "c01: worst |ala-exact| %.2e, worst |la-exact| %.2e, %.1f s"
        % (worst_ala, worst_la, elapsed)
    )
    assert worst_ala <= 1e-8
    assert worst_la <= 1e-8
    assert elapsed < 10.0


def test_c02_blockdiagonal_nonlocal_scores_match_per_group_quadrature():
    """Fifty Gaussian instances whose group blocks are mutually orthogonal
    (groups of one or two columns): the product-moment score matches the
    per-group adaptive quadrature value to 1e-6 relative accuracy."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(40, 140))
        sizes = [int(rng.integers(1, 3)) for _ in range(3)]
        p = sum(sizes)
        q, _ = np.linalg.qr(rng.normal(size=(n, p)))
        cols = np.empty_like(q)
        groups, start = [], 0
        for pj in sizes:
            sl = slice(start, start + pj)
            mix = rng.normal(size=(pj, pj)) + 2.0 * np.eye(pj)
            cols[:, sl] = q[:, sl] @ mix * float(rng.uniform(0.7, 4.0))
            groups.append((start, start + pj))
            start += pj
        design = DesignMatrix(cols, groups)
        phi = float(rng.uniform(0.4, 2.0))
        g = float(rng.uniform(0.6, 2.5))
        beta = rng.normal(scale=0.6, size=p)
        y = cols @ beta + rng.normal(size=n) * np.sqrt(phi)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=3))
        if sum(bits) == 0:
            bits = (1, 0, 0)
        cache = build_cache(design, y, fam.gaussian(phi), center="zero")
        prior = ParamPriorSpec(kind="gmom", g=g)
        ala = engines.ModelScorer(cache, fam.gaussian(phi), prior).log_ml(bits)
        quad = engines.exact_gmom_blockdiag(
            design.model(bits), cache, fam.gaussian(phi), prior
        ).log_ml
        worst = max(worst, abs(ala - quad) / max(1.0, abs(quad)))
    print("c02: worst relative gap %.2e" % worst)
    assert worst <= 1e-6


def test_c03_quadratic_form_expectations_match_monte_carlo():
    """Twenty random configurations of the scaled-quadratic-form identity:
    the fixed-dispersion closed form and its inverse-gamma mixture both
    match a million-draw simulation within one percent."""
    rng = np.random.default_rng(303)
    n_draws = 1_000_000
    worst_fixed = worst_mixed = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        w = rng.normal(size=(dim, dim))
        a_mat = w @ w.T / dim + 0.3 * np.eye(dim)
        v = rng.normal(size=(dim, dim))
        s_mat = v @ v.T / dim + 0.3 * np.eye(dim)
        m = rng.normal(size=dim)
        a = float(rng.uniform(2.5, 6.0))
        b = float(rng.uniform(1.0, 4.0))
        chol = np.linalg.cholesky(s_mat)
        z = rng.normal(size=(n_draws, dim))

        phi0 = b / a
        xi = m + np.sqrt(phi0) * (z @ chol.T)
        mc_fixed = float(
            np.mean(np.einsum("ij,jk,ik->i", xi, a_mat, xi)) / phi0
        )
        closed_fixed = float(np.trace(a_mat @ s_mat) + m @ a_mat @ m / phi0)
        worst_fixed = max(
            worst_fixed, abs(mc_fixed - closed_fixed) / abs(closed_fixed)
        )

        inv_phi = rng.gamma(a, 1.0 / b, size=n_draws)
        scale = np.sqrt(1.0 / inv_phi)
        xi = m + scale[:, None] * (z @ chol.T)
        vals = np.einsum("ij,jk,ik->i", xi, a_mat, xi) * inv_phi
        mc_mixed = float(np.mean(vals))
        closed_mixed = float(np.trace(a_mat @ s_mat) + (a / b) * (m @ a_mat @ m))
        worst_mixed = max(
            worst_mixed, abs(mc_mixed - closed_mixed) / abs(closed_mixed)
        )
    print(
        "c03: worst relative error fixed %.4f, mixture %.4f"
        % (worst_fixed, worst_mixed)
    )
    assert worst_fixed <= 0.01
    assert worst_mixed <= 0.01


def test_c04_derivatives_match_central_finite_differences():
    """Twenty random evaluation points per likelihood family, plus a
    seventy-percent-censored survival set: analytic gradients and hessians
    agree with central finite differences to 1e-5."""
    rng = np.random.default_rng(404)
    n, p = 40, 3
    z = rng.normal(size=(n, p))
    report = {}

    y_binary = rng.integers(0, 2, size=n).astype(float)
    y_counts = rng.poisson(1.2, size=n).astype(float)
    y_cont = z @ np.array([0.4, -0.2, 0.1]) + rng.normal(size=n)
    known = [
        ("logistic", fam.logistic(), y_binary, None),
        ("poisson", fam.poisson(), y_counts, None),
        ("gaussian", fam.gaussian(0.8), y_cont, 0.8),
    ]
    for name, family, y, phi in known:
        worst = 0.0
        for _ in range(20):
            beta = rng.normal(scale=0.4, size=p)

            def f(b):
                return fam.loglik(family, z @ b, y, phi)

            _, grad, hess = fam.grad_hess(family, z, y, beta, phi)
            worst = max(worst, max_rel_err(fd_grad(f, beta), -grad))
            worst = max(worst, max_rel_err(fd_hess(f, beta), -hess))
        report[name] = worst

    family = fam.gaussian_unknown()
    worst = 0.0
    for _ in range(20):
        theta = np.append(rng.normal(scale=0.4, size=p), rng.uniform(0.6, 2.0))

        def f(t):
            return fam.loglik(family, z @ t[:p], y_cont, t[p])

        _, grad, hess = fam.grad_hess(family, z, y_cont, theta[:p], theta[p])
        worst = max(worst, max_rel_err(fd_grad(f, theta), -grad))
        worst = max(worst, max_rel_err(fd_hess(f, theta), -hess))
    report["gaussian-unknown"] = worst

    log_t = z @ np.array([0.7, -0.5, 0.3]) + rng.normal(size=n)
    cutoff = np.quantile(log_t, 0.3)
    observed = (log_t <= cutoff).astype(int)
    data = fam.SurvivalData(np.minimum(log_t, cutoff), observed)
    assert np.mean(1 - observed) == 0.7
    worst = 0.0
    for _ in range(20):
        theta = np.append(rng.normal(scale=0.3, size=p), rng.uniform(0.7, 1.8))

        def f(t):
            return fam.aft_loglik_grad_hess(z, data, t[:p], t[p])[0]

        _, grad, hess = fam.aft_loglik_grad_hess(z, data, theta[:p], theta[p])
        worst = max(worst, max_rel_err(fd_grad(f, theta), grad))
        worst = max(worst, max_rel_err(fd_hess(f, theta), hess))
    report["survival(70% censored)"] = worst

    print(
        "c04: worst relative errors "
        + ", ".join("%s %.1e" % (k, v) for k, v in report.items())
    )
    assert max(report.values()) <= 1e-5


def test_c05_single_coefficient_logistic_pattern_against_quadrature():
    """A single logistic coefficient under a standard Normal prior: the
    mode-expansion score stays within five percent of the quadrature value
    in both settings, and the zero-expansion score underestimates the
    stronger-signal setting in at least ninety percent of replicates."""

    def scores(rng, n, beta_star):
        z = rng.normal(size=(n, 1))
        y = (rng.random(n) < expit(beta_star * z[:, 0])).astype(float)
        design = DesignMatrix(z, [(0, 1)])
        cache = build_cache(design, y, fam.logistic(), center="zero")
        a = float(z[:, 0] @ z[:, 0])
        prior = ParamPriorSpec(kind="gzellner", g=a / n)
        ala = engines.ModelScorer(cache, fam.logistic(), prior).log_ml((1,))
        la = engines.ModelScorer(
            cache, fam.logistic(), prior, method="la"
        ).log_ml((1,))

        def log_integrand(b):
            eta = z[:, 0][None, :] * b[:, None]
            ll = (y[None, :] * eta - np.logaddexp(0.0, eta)).sum(axis=1)
            return ll + norm.logpdf(b)

        return ala, la, engines.quadrature_oracle(log_integrand, x0=0.0)

    worst_la = 0.0
    under = 0
    for n, beta_star in ((100, 0.405), (200, 1.099)):
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            ala, la, quad = scores(rng, n, beta_star)
            worst_la = max(worst_la, abs(la - quad) / abs(quad))
            if n == 200:
                under += ala < quad
    print(
        "c05: worst relative mode-score gap %.2e, underestimation %d/50"
        % (worst_la, under)
    )
    assert worst_la <= 0.05
    assert under >= 45


def test_c06_logistic_inclusion_trend_sharpens_with_sample_size():
    """Ten correlated logistic covariates with two active: the mean
    zero-expansion inclusion of the active pair rises with sample size and
    clears 0.9 at five thousand observations, while the inactive mean
    stays at or below 0.1, all inside five minutes."""
    t0 = time.perf_counter()
    means = {}
    for n in (100, 1000, 5000):
        act, inact = [], []
        for rep in range(50):
            rng = np.random.default_rng(7000 + rep)
            sim = simdesigns.logistic_trend(rng, n)
            cache = build_cache(
                sim.design, sim.response, fam.logistic(), center="zero"
            )
            scorer = engines.ModelScorer(
                cache,
                fam.logistic(),
                ParamPriorSpec(),
                ModelPriorSpec(n_groups=10, p_total=10),
            )
            summary = enumerate_posterior(scorer)
            active = np.array(sim.active_groups)
            inactive = np.setdiff1d(np.arange(10), active)
            act.append(summary.inclusion[active].mean())
            inact.append(summary.inclusion[inactive].mean())
        means[n] = (float(np.mean(act)), float(np.mean(inact)))
    elapsed = time.perf_counter() - t0
    print(
        "c06: active "
        + " ".join("%d:%.3f" % (n, means[n][0]) for n in means)
        + ", inactive "
        + " ".join("%d:%.3f" % (n, means[n][1]) for n in means)
        + ", %.0f s" % elapsed
    )
    assert means[100][0] < means[1000][0] < means[5000][0]
    assert means[5000][0] > 0.9
    assert means[5000][1] <= 0.1
    assert elapsed < 300.0


def test_c07_curvature_adjustment_suppresses_false_poisson_inclusions():
    """Poisson data with two active covariates out of ten: the plain
    zero-expansion score admits strictly more of the inactive covariates
    than the curvature-adjusted score at five hundred observations."""
    plain_vals, adj_vals = [], []
    for rep in range(50):
        rng = np.random.default_rng(8200 + rep)
        sim = simdesigns.poisson_trend(rng, 500)
        family = fam.poisson()
        model_prior = ModelPriorSpec(n_groups=10, p_total=10)
        cache = build_cache(sim.design, sim.response, family, center="zero")
        plain = enumerate_posterior(
            engines.ModelScorer(cache, family, ParamPriorSpec(), model_prior)
        )
        cache_adj = build_cache(
            sim.design,
            sim.response,
            family,
            center="intercept-mle",
            gram=cache.gram,
        )
        adjusted = enumerate_posterior(
            engines.ModelScorer(
                cache_adj,
                family,
                ParamPriorSpec(),
                model_prior,
                method="ala-curvadj",
            )
        )
        inactive = np.setdiff1d(np.arange(10), np.array(sim.active_groups))
        plain_vals.append(plain.inclusion[inactive].mean())
        adj_vals.append(adjusted.inclusion[inactive].mean())
    plain_mean = float(np.mean(plain_vals))
    adj_mean = float(np.mean(adj_vals))
    print("c07: inactive inclusion plain %.4f vs adjusted %.4f" % (plain_mean, adj_mean))
    assert plain_mean > adj_mean


def _c08_models():
    rng = np.random.default_rng(0)
    return list(
        dict.fromkeys(
            tuple(int(b) for b in rng.integers(0, 2, size=10))
            for _ in range(400)
        )
    )


def _c08_scorer(cache):
    return engines.ModelScorer(
        cache, fam.logistic(), ParamPriorSpec(), ModelPriorSpec(n_groups=10, p_total=10)
    )


def _c08_warmed_cache(n, models):
    """A logistic-trend cache whose Gram entries for ``models`` are filled."""
    sim = simdesigns.logistic_trend(np.random.default_rng(42), n)
    cache = build_cache(sim.design, sim.response, fam.logistic(), center="zero")
    warm = _c08_scorer(cache)
    for bits in models:
        warm.log_ml(bits)
    return cache


def test_c08_per_model_scoring_time_is_flat_in_sample_size():
    """With warmed caches the per-model scoring time at fifty thousand
    rows stays within twenty percent of the time at five thousand rows;
    building and warming the caches is excluded from the timing.  Each
    model is scored at both sizes back to back, in alternating order, so a
    change of processor speed during the test reaches both sizes alike;
    the ratio is the median over eleven rounds of fresh scorers."""
    models = _c08_models()
    caches = [_c08_warmed_cache(n, models) for n in (5_000, 50_000)]
    ratios = []
    for _ in range(11):
        scorers = [_c08_scorer(cache) for cache in caches]
        spent = [0.0, 0.0]
        for i, bits in enumerate(models):
            for side in (i % 2, 1 - i % 2):
                t0 = time.perf_counter()
                scorers[side].log_ml(bits)
                spent[side] += time.perf_counter() - t0
        ratios.append(spent[1] / spent[0])
    ratio = float(np.median(ratios))
    print(
        "c08: per-round ratios %.3f..%.3f, median %.3f"
        % (min(ratios), max(ratios), ratio)
    )
    assert 0.8 <= ratio <= 1.2


def test_c08_warmed_scoring_takes_no_new_dot_products():
    """The deterministic side of c08: once the touched column pairs are
    cached, scoring the same models again, one at a time or as a batch,
    computes no new cross product, so no scoring step reads the n rows."""
    models = _c08_models()
    cache = _c08_warmed_cache(5_000, models)
    filled = cache.gram.dot_count
    one_at_a_time = _c08_scorer(cache)
    looped = [one_at_a_time.log_score(bits) for bits in models]
    assert cache.gram.dot_count == filled
    batched = _c08_scorer(cache).score_many(models)
    assert cache.gram.dot_count == filled
    print("c08: %d cross products filled while warming" % filled)
    np.testing.assert_allclose(batched, looped, rtol=1e-10, atol=0)


def _c08_wide_scorers(widths):
    """Fresh-scorer factories over singleton logistic designs of each width
    that share their first ten columns, with the Gram entries those
    columns need already filled."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, max(widths)))
    y = (rng.random(200) < expit(x[:, :3].sum(axis=1))).astype(float)
    makers = []
    for j in widths:
        cache = build_cache(_singleton_design(x[:, :j]), y, fam.logistic())
        model_prior = ModelPriorSpec(n_groups=j, p_total=j)
        makers.append(
            lambda cache=cache, model_prior=model_prior: engines.ModelScorer(
                cache, fam.logistic(), ParamPriorSpec(), model_prior
            )
        )
        cache.gram.block(np.arange(10))
    return makers


def test_c08_per_model_bookkeeping_is_computed_once(monkeypatch):
    """The deterministic side of the flat-in-J check: a design's group
    sizes and a model prior's table of log masses by size are built once,
    not per model, and a model's prior mass is checked and counted the
    first time it is seen only, whatever form it is given in."""
    design = _singleton_design(np.eye(12, 4000))
    assert design.group_sizes is design.group_sizes
    spec = ModelPriorSpec(n_groups=4000, p_total=4000)
    assert spec.log_mass.shape == (4001,)
    table = spec.log_mass
    counted = []
    free_size = ModelPriorSpec.free_size

    def counting_free_size(self, bits):
        counted.append(bits)
        return free_size(self, bits)

    monkeypatch.setattr(ModelPriorSpec, "free_size", counting_free_size)
    bits = [1, 0, 1] + [0] * 3997
    masses = [
        engines.log_model_prior_unnorm(form, spec)
        for form in (bytes(bits), tuple(bits), np.array(bits), bytes(bits))
    ]
    assert masses == [table[2]] * 4
    assert len(counted) == 1
    assert spec.log_mass is table


def test_c08_per_model_scoring_time_is_flat_in_the_group_count():
    """With the Gram filled, a first ``log_score`` call (a miss, on a
    fresh scorer) and a repeated one (a memo hit) cost at most three times
    as much at four thousand groups as at ten, for the same models over
    the same ten columns, each passed as its native ``bytes`` key.  Sides
    alternate model by model; the ratio is the median over fifteen rounds
    of fresh scorers."""
    widths = (10, 4000)
    makers = _c08_wide_scorers(widths)
    rng = np.random.default_rng(9)
    models = [
        rng.choice(10, size=rng.integers(1, 7), replace=False) for _ in range(40)
    ]
    keys = []
    for j in widths:
        rows = np.zeros((len(models), j), dtype=np.uint8)
        for row, active in zip(rows, models):
            row[active] = 1
        keys.append([row.tobytes() for row in rows])
    miss_ratios, hit_ratios = [], []
    for r in range(15):
        scorers = [make() for make in makers]
        miss, hit = [0.0, 0.0], [0.0, 0.0]
        for i in range(len(models)):
            for side in ((r + i) % 2, 1 - (r + i) % 2):
                key = keys[side][i]
                t0 = time.perf_counter()
                scorers[side].log_score(key)
                t1 = time.perf_counter()
                scorers[side].log_score(key)
                t2 = time.perf_counter()
                miss[side] += t1 - t0
                hit[side] += t2 - t1
        miss_ratios.append(miss[1] / miss[0])
        hit_ratios.append(hit[1] / hit[0])
    miss_ratio = float(np.median(miss_ratios))
    hit_ratio = float(np.median(hit_ratios))
    print(
        "c08: J=4000 over J=10, median miss ratio %.3f, hit ratio %.3f"
        % (miss_ratio, hit_ratio)
    )
    assert miss_ratio <= 3.0
    assert hit_ratio <= 3.0


def test_c09_gibbs_frequencies_match_the_enumerated_posterior():
    """A twelve-group logistic instance small enough to enumerate, after
    ten thousand scans.  The total variation, at most 0.05, is taken
    between the enumerated posterior and the exact posterior renormalised
    on the support the chain visited (``sampled.probabilities``), not the
    chain's visit frequencies (c13 checks those, on a constrained
    instance): it bounds the posterior mass the chain never reached.  The conditional inclusion averages sit
    within 0.02 of the enumerated inclusions."""
    rng = np.random.default_rng(31)
    n, p = 400, 12
    corr = 0.5 * np.eye(p) + 0.5 * np.ones((p, p))
    z = rng.normal(size=(n, p)) @ np.linalg.cholesky(corr).T
    beta = np.zeros(p)
    beta[:3] = (1.0, 0.7, -0.5)
    y = (rng.random(n) < expit(z @ beta)).astype(float)
    cache = build_cache(_singleton_design(z), y, fam.logistic(), center="zero")
    scorer = engines.ModelScorer(
        cache,
        fam.logistic(),
        ParamPriorSpec(),
        ModelPriorSpec(n_groups=p, p_total=p),
    )
    enumerated = enumerate_posterior(scorer)
    sampled = gibbs_models(scorer, n_scans=10_000, seed=3)
    enum_probs = dict(zip(map(model_key, enumerated.bits), enumerated.probabilities))
    restricted = dict(zip(map(model_key, sampled.bits), sampled.probabilities))
    keys = set(enum_probs) | set(restricted)
    tv = 0.5 * sum(abs(enum_probs.get(k, 0.0) - restricted.get(k, 0.0)) for k in keys)
    incl_gap = float(np.max(np.abs(sampled.inclusion - enumerated.inclusion)))
    print("c09: total variation %.4f, worst inclusion gap %.4f" % (tv, incl_gap))
    assert tv <= 0.05
    assert incl_gap <= 0.02


def test_c10_dependency_chain_is_never_violated_across_many_scans():
    """One hundred thousand scans under a three-level dependency chain:
    the per-scan debug assertion counts zero violations, and no stored
    sample breaks the chain either."""
    rng = np.random.default_rng(11)
    n, p = 100, 6
    z = rng.normal(size=(n, p))
    y = (rng.random(n) < expit(z @ np.array([0.8, 0.5, 0.3, 0, 0, 0]))).astype(
        float
    )
    constraints = ConstraintSet(p, [(1, 0), (2, 1)])
    cache = build_cache(_singleton_design(z), y, fam.logistic(), center="zero")
    scorer = engines.ModelScorer(
        cache,
        fam.logistic(),
        ParamPriorSpec(),
        ModelPriorSpec(n_groups=p, p_total=p, constraints=constraints),
    )
    summary = gibbs_models(
        scorer, n_scans=100_000, seed=9, constraints=constraints, debug=True
    )
    violations = summary.diagnostics["constraint_violations"]
    samples = summary.samples
    stored_bad = int(
        np.sum((samples[:, 1] > samples[:, 0]) | (samples[:, 2] > samples[:, 1]))
    )
    print(
        "c10: debug violations %d, offending stored samples %d"
        % (violations, stored_bad)
    )
    assert violations == 0
    assert stored_bad == 0


def _logistic_intercept_is(rng, n=1000):
    """Logistic design with a large intercept and two weak signals.

    Column 0 is a constant-one column treated as an ordinary group (not
    forced), which makes the restricted posterior concentrate on few models
    and stresses the reweighting diagnostics.
    """
    p = 10
    x = np.empty((n, p))
    x[:, 0] = 1.0
    x[:, 1:] = simdesigns.equicorr_draw(rng, n, p - 1)
    beta = np.zeros(p)
    beta[0], beta[-2], beta[-1] = 2.0, 0.5, 1.0
    y = (rng.random(n) < expit(x @ beta)).astype(np.float64)
    return simdesigns.SimulatedData(
        design=DesignMatrix.with_singleton_groups(x),
        response=y,
        active_groups=(0, p - 2, p - 1),
    )


def _poisson_quadratic_is(rng, n=1000):
    """Poisson design with five covariates, their squares, and a forced
    intercept column; the truth touches only two linear terms."""
    base = simdesigns.equicorr_draw(rng, n, 5)
    x = np.hstack([base, base**2, np.ones((n, 1))])
    beta = np.zeros(11)
    beta[3], beta[4] = 0.5, 1.0
    y = rng.poisson(np.exp(x @ beta)).astype(np.float64)
    return simdesigns.SimulatedData(
        design=DesignMatrix.with_singleton_groups(x, intercept_group=10),
        response=y,
        active_groups=(3, 4),
    )


def _mixture_screen(rng, n, p=8):
    """Bernoulli responses from an equal mixture of two logistic models whose
    supports both lie in the first two covariates."""
    x = simdesigns.equicorr_draw(rng, n, p)
    b1 = np.zeros(p)
    b2 = np.zeros(p)
    b1[0], b1[1] = 1.0, 0.5
    b2[0], b2[1] = -0.5, 1.0
    prob = 0.5 * expit(x @ b1) + 0.5 * expit(x @ b2)
    y = (rng.random(n) < prob).astype(np.float64)
    return simdesigns.SimulatedData(
        design=DesignMatrix.with_singleton_groups(x),
        response=y,
        active_groups=(0, 1),
    )


def test_c11_reweighting_diagnostics_separate_the_two_designs():
    """Reweighting zero-expansion results to the mode-expansion posterior:
    the logistic design keeps an effective sample size above ten percent
    of the draws in at least eight of ten replicates, while the Poisson
    quadratic design trips the degeneracy flag, evaluated across the full
    model space, in at least eight of ten."""
    healthy = 0
    for rep in range(10):
        seed = 9100 + rep
        rng = np.random.default_rng(seed)
        sim = _logistic_intercept_is(rng, 1000)
        cache = build_cache(sim.design, sim.response, fam.logistic(), center="zero")
        model_prior = ModelPriorSpec(
            n_groups=sim.design.n_groups,
            p_total=sim.design.p,
            constraints=sim.constraints,
            intercept_group=sim.design.intercept_group,
        )
        ala = engines.ModelScorer(cache, fam.logistic(), ParamPriorSpec(), model_prior)
        chain = gibbs_models(
            ala, n_scans=500, seed=seed, constraints=sim.constraints
        )
        la = engines.ModelScorer(
            cache, fam.logistic(), ParamPriorSpec(), model_prior, method="la"
        )
        report = importance_reweight(la, chain.samples, proposal_scorer=ala)
        healthy += report.ess > 0.1 * report.n_draws

    degenerate = 0
    for rep in range(10):
        rng = np.random.default_rng(9400 + rep)
        sim = _poisson_quadratic_is(rng, 1000)
        cache = build_cache(sim.design, sim.response, fam.poisson(), center="zero")
        model_prior = ModelPriorSpec(
            n_groups=sim.design.n_groups,
            p_total=sim.design.p,
            constraints=sim.constraints,
            intercept_group=sim.design.intercept_group,
        )
        ala = engines.ModelScorer(cache, fam.poisson(), ParamPriorSpec(), model_prior)
        la = engines.ModelScorer(
            cache, fam.poisson(), ParamPriorSpec(), model_prior, method="la"
        )
        support = admissible_bits(
            sim.design.n_groups, sim.constraints, sim.design.intercept_group
        )
        report = importance_reweight(la, support, proposal_scorer=ala)
        degenerate += report.degenerate
    print(
        "c11: healthy logistic replicates %d/10, degenerate Poisson replicates %d/10"
        % (healthy, degenerate)
    )
    assert healthy >= 8
    assert degenerate >= 8


def test_c12_mixture_response_keeps_out_of_support_inclusions_low():
    """Binary responses generated from a two-component mixture whose
    components share the same two covariates: averaged over replicates at
    five thousand observations, the inclusion of covariates outside that
    support stays at or below 0.1."""
    vals = []
    for rep in range(50):
        rng = np.random.default_rng(12000 + rep)
        sim = _mixture_screen(rng, 5000)
        cache = build_cache(sim.design, sim.response, fam.logistic(), center="zero")
        scorer = engines.ModelScorer(
            cache,
            fam.logistic(),
            ParamPriorSpec(),
            ModelPriorSpec(n_groups=8, p_total=8),
        )
        summary = enumerate_posterior(scorer)
        outside = np.setdiff1d(np.arange(8), np.array(sim.active_groups))
        vals.append(summary.inclusion[outside].mean())
    mean_outside = float(np.mean(vals))
    print("c12: mean out-of-support inclusion %.4f" % mean_outside)
    assert mean_outside <= 0.1


def test_c13_constrained_gibbs_matches_the_enumerated_posterior():
    """Four gaussian groups, group 1 requiring group 0, with the parent's
    enumerated inclusion between 0.2 and 0.9: the sampled model frequencies
    (counted from the chain itself) sit within 0.05 total variation of the
    enumerated posterior, and the conditional inclusion averages within
    0.02 of the enumerated inclusions.  A sampler that switches a parent off
    together with its dependents, but never back on together, leaves the
    parent's inclusion near 0.43 against 0.85 here."""
    rng = np.random.default_rng(1)
    n, p = 300, 4
    z = rng.normal(size=(n, p))
    y = z @ np.array([0.08, 0.25, 0.0, 0.15]) + rng.normal(size=n)
    constraints = ConstraintSet(p, [(1, 0)])
    cache = build_cache(_singleton_design(z), y, fam.gaussian(1.0))
    scorer = engines.ModelScorer(
        cache,
        fam.gaussian(1.0),
        ParamPriorSpec(),
        ModelPriorSpec(n_groups=p, p_total=p, constraints=constraints),
    )
    enumerated = enumerate_posterior(scorer)
    assert 0.2 < enumerated.inclusion[0] < 0.9
    sampled = gibbs_models(scorer, n_scans=20_000, seed=4, constraints=constraints)
    enum_probs = dict(zip(map(model_key, enumerated.bits), enumerated.probabilities))
    keys, counts = np.unique(sampled.samples, axis=0, return_counts=True)
    freqs = {model_key(key): c / counts.sum() for key, c in zip(keys, counts)}
    tv = 0.5 * sum(
        abs(enum_probs.get(k, 0.0) - freqs.get(k, 0.0))
        for k in set(enum_probs) | set(freqs)
    )
    incl_gap = float(np.max(np.abs(sampled.inclusion - enumerated.inclusion)))
    print("c13: total variation %.4f, worst inclusion gap %.4f" % (tv, incl_gap))
    assert tv <= 0.05
    assert incl_gap <= 0.02
