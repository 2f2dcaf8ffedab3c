"""Synthetic-data generators, and the table of ``simstudy`` designs.

Covariates are multivariate Normal with pairwise correlation 0.5 unless
noted.  Each generator returns the raw design, the response, and the
index set of truly active groups so harness code can compute inclusion
summaries without re-deriving the truth.  ``DESIGNS`` holds one
``SimDesign`` row per ``simstudy`` design, which ``cli.run_simstudy`` runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import families as fam
from .data_model import ConstraintSet, DesignMatrix
from .families import SurvivalData
from .priors import ParamPriorSpec, model_key


@dataclass
class SimulatedData:
    design: DesignMatrix
    response: object
    active_groups: tuple[int, ...]
    constraints: Optional[ConstraintSet] = None


def equicorr_draw(rng: np.random.Generator, n: int, p: int, rho: float = 0.5):
    """n draws from N(0, Sigma) with unit variances and constant correlation."""
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, p)) @ chol.T


def _trend(rng: np.random.Generator, n: int, p: int, draw) -> SimulatedData:
    """Two active covariates (0.5 and 1) at the end of a correlated block;
    ``draw(eta)`` draws the response from the linear predictor."""
    x = equicorr_draw(rng, n, p)
    beta = np.zeros(p)
    beta[-2], beta[-1] = 0.5, 1.0
    y = draw(x @ beta).astype(np.float64)
    return SimulatedData(DesignMatrix.with_singleton_groups(x), y, (p - 2, p - 1))


def logistic_trend(rng: np.random.Generator, n: int, p: int = 10) -> SimulatedData:
    """The trend design with a logistic response."""
    # scipy.special is imported by each generator that uses it, so that
    # importing the package loads no scipy
    from scipy.special import expit

    return _trend(rng, n, p, lambda eta: rng.random(n) < expit(eta))


def poisson_trend(rng: np.random.Generator, n: int, p: int = 10) -> SimulatedData:
    """The trend design with a Poisson response."""
    return _trend(rng, n, p, lambda eta: rng.poisson(np.exp(eta)))


def gmom_accuracy(rng: np.random.Generator, n: int = 50, p: int = 10) -> SimulatedData:
    """Gaussian data with four active coefficients for accuracy studies."""
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:4] = (0.4, 0.6, 1.2, 0.8)
    y = x @ beta + rng.standard_normal(n)
    return SimulatedData(
        design=DesignMatrix.with_singleton_groups(x),
        response=y,
        active_groups=(0, 1, 2, 3),
    )


def nested_models(p: int):
    """Bit vectors for the nested sets {0}, {0,1}, ..., {0,...,p-1}."""
    out = []
    for k in range(1, p + 1):
        bits = [1] * k + [0] * (p - k)
        out.append(tuple(bits))
    return out


def aft_scenario(
    rng: np.random.Generator, n: int, scenario: int, n_covariates: int = 10
) -> tuple[np.ndarray, SurvivalData, dict]:
    """Censored survival data with one linear and one nonlinear effect.

    Scenario 1 is an accelerated-failure model with Normal errors and a
    fixed log-censoring time of 0.5.  Scenario 2 is a proportional-hazards
    model with a log-Normal baseline and log-censoring time 0.55, so the
    fitted accelerated-failure model is misspecified.  The realized
    censoring fraction is returned in the meta dictionary.
    """
    from scipy.special import ndtri

    x = equicorr_draw(rng, n, n_covariates)
    nonlin = np.log(np.abs(x[:, 1]))
    if scenario == 1:
        log_t = x[:, 0] + 0.5 * nonlin + 0.5 * rng.standard_normal(n)
        censor = 0.5
    elif scenario == 2:
        lp = 0.75 * x[:, 0] - 1.25 * nonlin
        u = rng.random(n)
        log_t = 0.5 * ndtri(1.0 - u ** np.exp(-lp))
        censor = 0.55
    else:
        raise ValueError("scenario must be 1 or 2")
    observed = log_t <= censor
    data = SurvivalData(log_time=np.minimum(log_t, censor), observed=observed)
    meta = {
        "censoring_rate": 1.0 - float(np.mean(observed)),
        "scenario": scenario,
    }
    return x, data, meta


def spline_deviation(x: np.ndarray, dim: int = 5) -> np.ndarray:
    """Nonlinear-deviation basis for one covariate.

    Builds a cubic B-spline basis with interior knots at equispaced
    quantiles, removes the span of the constant and the covariate itself,
    and keeps the leading ``dim`` left singular vectors.  The returned block
    is orthogonal to both removed directions.
    """
    # Imported here, its one use: scipy.interpolate pulls in scipy.sparse,
    # scipy.spatial and scipy.fft, which no ``select`` run needs.
    from scipy.interpolate import BSpline

    x = np.asarray(x, dtype=np.float64)
    n_basis = dim + 2
    degree = 3
    anchors = np.quantile(x, np.linspace(0.0, 1.0, n_basis - degree + 1))
    anchors = np.unique(anchors)
    if anchors.shape[0] < 2:
        raise ValueError("covariate has no spread; cannot build a spline basis")
    knots = np.r_[
        [anchors[0]] * degree, anchors, [anchors[-1]] * degree
    ]
    basis = BSpline.design_matrix(x, knots, degree).toarray()
    linear = np.column_stack([np.ones_like(x), x])
    q, _ = np.linalg.qr(linear)
    basis -= q @ (q.T @ basis)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    keep = min(dim, int(np.sum(s > s[0] * 1e-10)))
    if keep < dim:
        raise ValueError(
            f"deviation basis has rank {keep}; need {dim} (ties in the covariate?)"
        )
    return u[:, :dim]


def expand_spline_design(
    x_raw: np.ndarray, dim: int = 5, max_groups: Optional[int] = None
) -> tuple[DesignMatrix, ConstraintSet]:
    """Linear singleton groups plus one deviation group per covariate.

    Group j is covariate j's linear column; group p + j its deviation block,
    which requires the linear group to be active.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    n, p = x_raw.shape
    blocks = [spline_deviation(x_raw[:, j], dim) for j in range(p)]
    values = np.hstack([x_raw] + blocks)
    groups = [(j, j + 1) for j in range(p)]
    groups += [(p + j * dim, p + (j + 1) * dim) for j in range(p)]
    requires = tuple((p + j, j) for j in range(p))
    constraints = ConstraintSet(
        max_groups=max_groups if max_groups is not None else 2 * p,
        requires=requires,
    )
    return DesignMatrix(values, tuple(groups)), constraints


def aft_spline(rng: np.random.Generator, n: int, scenario: int) -> SimulatedData:
    """``aft_scenario``'s data expanded by ``expand_spline_design``.  The
    active groups are 0 (covariate 0's linear effect) and p + 1 (covariate
    1's deviation block, which requires its linear group 1)."""
    x, data, _ = aft_scenario(rng, n, scenario)
    design, constraints = expand_spline_design(x)
    return SimulatedData(design, data, (0, x.shape[1] + 1), constraints)


def _inclusion_metrics(rep: int, sim: SimulatedData, runs, options) -> list[dict]:
    """Mean inclusion of the active and of the inactive groups under each
    method (suffixes "" and "_adj"), and whether the first method's most
    probable model is the true one."""
    active = np.isin(np.arange(sim.design.n_groups), sim.active_groups)
    (_, summary, seconds), *_ = runs
    top = summary.top(1)[0][0]
    row = {"correct_top": float(top == model_key(active)), "seconds_per_model": seconds}
    for suffix, (_, found, _) in zip(("", "_adj"), runs):
        row["incl_active" + suffix] = float(np.mean(found.inclusion[active]))
        row["incl_inactive" + suffix] = float(np.mean(found.inclusion[~active]))
    return [row]


def _oracle_errors(rep: int, sim: SimulatedData, runs, options) -> list[dict]:
    """Each nested model's ``ala`` and ``la`` score less its Monte Carlo
    reference of ``options.mc_draws`` draws from ``default_rng(10_000 + rep)``."""
    from . import references  # the slow references load for this design only

    (scorer, ala, seconds), (_, la, _) = runs
    design, rows = sim.design, []
    for k, bits in enumerate(nested_models(design.n_groups)):
        key = design.model(bits)
        exact = references.exact_gmom_mc(
            key, scorer.cache, scorer.family, scorer.prior, n_draws=options.mc_draws,
            rng=np.random.default_rng(10_000 + rep),
        ).log_ml
        rows.append({
            "model_size": design.columns_for(key).size,
            "err_ala": ala[k] - exact,
            "err_la": la[k] - exact,
            "seconds_per_model": seconds[k],
        })
    return rows


def _spline_metrics(rep: int, sim: SimulatedData, runs, options) -> list[dict]:
    """The censoring rate, the inclusion of the two active groups, and the
    largest inclusion of any other group but the spline block's parent, 1."""
    [(_, summary, seconds)] = runs
    incl = summary.inclusion
    linear, spline = sim.active_groups
    others = [j for j in range(incl.shape[0]) if j not in (linear, 1, spline)]
    return [{
        "censoring_rate": 1.0 - float(np.mean(sim.response.observed)),
        "incl_linear_x1": float(incl[linear]),
        "incl_spline_x2": float(incl[spline]),
        "max_inactive_incl": float(np.max(incl[others])),
        "seconds_per_model": seconds,
    }]


@dataclass(frozen=True)
class SimDesign:
    """One ``simstudy`` design: ``simulate(rng, n)`` draws a replicate's
    data, which ``family`` (None for survival data) and ``prior`` score by
    each ``(method, centre)`` of ``methods`` through ``search``
    ("enumerate", "gibbs", or "nested": each of ``nested_models`` alone).
    ``metrics(rep, sim, runs, options)`` makes replicate ``rep``'s rows from
    one (scorer, found, seconds per model) triple per method: the cells of
    ``index`` but "replicate", which the driver adds, and of ``columns``,
    which ``summary.csv`` averages."""

    simulate: Callable[[np.random.Generator, int], SimulatedData]
    family: Optional[fam.FamilySpec]
    methods: tuple[tuple[str, str], ...]
    search: str
    columns: tuple[str, ...]
    metrics: Callable[..., list[dict]]
    prior: ParamPriorSpec = ParamPriorSpec()
    index: tuple[str, ...] = ("replicate",)


_ALA = (("ala", "zero"),)
_TREND = ("incl_active", "incl_inactive", "correct_top", "seconds_per_model")
_SPLINE = ("censoring_rate", "incl_linear_x1", "incl_spline_x2", "max_inactive_incl",
           "seconds_per_model")
DESIGNS = {
    "logistic-trend": SimDesign(
        logistic_trend, fam.logistic(), _ALA, "enumerate", _TREND, _inclusion_metrics
    ),
    "poisson-trend": SimDesign(
        poisson_trend, fam.poisson(), _ALA + (("ala-curvadj", "intercept-mle"),),
        "enumerate", _TREND + ("incl_active_adj", "incl_inactive_adj"),
        _inclusion_metrics,
    ),
    "gmom-accuracy": SimDesign(
        gmom_accuracy, fam.gaussian(1.0), _ALA + (("la", "zero"),), "nested",
        ("err_ala", "err_la", "seconds_per_model"), _oracle_errors,
        prior=ParamPriorSpec(kind="gmom"), index=("replicate", "model_size"),
    ),
    **{
        f"aft-scenario{k}": SimDesign(
            functools.partial(aft_spline, scenario=k), None, _ALA, "gibbs", _SPLINE,
            _spline_metrics,
        )
        for k in (1, 2)
    },
}
