"""Synthetic-data generators for the simulation harness and the test suite.

Covariates are multivariate Normal with pairwise correlation 0.5 unless
noted.  Each generator returns the raw design, the response, and the
index set of truly active groups so harness code can compute inclusion
summaries without re-deriving the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import ConstraintSet, DesignMatrix
from .families import SurvivalData


@dataclass
class SimulatedData:
    design: DesignMatrix
    response: object
    active_groups: tuple[int, ...]
    constraints: Optional[ConstraintSet] = None
    meta: dict = None


def equicorr_draw(rng: np.random.Generator, n: int, p: int, rho: float = 0.5):
    """n draws from N(0, Sigma) with unit variances and constant correlation."""
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, p)) @ chol.T


def logistic_trend(rng: np.random.Generator, n: int, p: int = 10) -> SimulatedData:
    """Two active covariates (0.5 and 1) at the end of a correlated block."""
    # scipy.special is imported by each generator that uses it, so that
    # importing the package loads no scipy
    from scipy.special import expit

    x = equicorr_draw(rng, n, p)
    beta = np.zeros(p)
    beta[-2], beta[-1] = 0.5, 1.0
    y = (rng.random(n) < expit(x @ beta)).astype(np.float64)
    return SimulatedData(
        design=DesignMatrix.with_singleton_groups(x),
        response=y,
        active_groups=(p - 2, p - 1),
    )


def poisson_trend(rng: np.random.Generator, n: int, p: int = 10) -> SimulatedData:
    """Poisson counterpart of the logistic trend design."""
    x = equicorr_draw(rng, n, p)
    beta = np.zeros(p)
    beta[-2], beta[-1] = 0.5, 1.0
    y = rng.poisson(np.exp(x @ beta)).astype(np.float64)
    return SimulatedData(
        design=DesignMatrix.with_singleton_groups(x),
        response=y,
        active_groups=(p - 2, p - 1),
    )


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
        meta={"beta": beta},
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
