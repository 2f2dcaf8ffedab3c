"""Coefficient priors (block Zellner and block product-moment) and the
complexity prior over models.

Both coefficient priors are block diagonal across active groups and scale
each block by the group's Gram matrix, so a group's prior mass is invariant
to invertible linear reparameterizations of its columns.  The product-moment
variant multiplies the Normal kernel by a quadratic penalty that vanishes at
zero, which removes prior mass from near-null coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .data_model import ConstraintSet, ModelId, SuffStatsCache
from .errors import InvalidModel

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ParamPriorSpec:
    """Coefficient prior choice with its scale and dispersion hyperprior.

    ``g`` is the unit-information scale multiplier.  ``phi_prior`` holds the
    inverse-gamma shape and rate used when the dispersion is unknown.
    """

    kind: str = "gzellner"
    g: float = 1.0
    phi_prior: Optional[tuple[float, float]] = (0.01, 0.01)

    def __post_init__(self):
        if self.kind not in ("gzellner", "gmom"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not self.g > 0.0:
            raise ValueError("g must be positive")
        if self.phi_prior is not None:
            a, b = self.phi_prior
            if not (a > 0.0 and b > 0.0):
                raise ValueError("phi_prior parameters must be positive")
            object.__setattr__(self, "phi_prior", (float(a), float(b)))

    def phi_prior_required(self) -> tuple[float, float]:
        if self.phi_prior is None:
            raise ValueError(
                "unknown dispersion requires an inverse-gamma phi_prior"
            )
        return self.phi_prior


def log_gzellner(
    beta: np.ndarray,
    model: ModelId,
    cache: SuffStatsCache,
    g: float,
    phi: float = 1.0,
) -> float:
    """Log density of the block Zellner prior at ``beta``.

    Active block j is Normal with covariance ``phi g n / p_j`` times the
    inverse Gram block.  ``beta`` concatenates the active groups in order.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (model.p_gamma,):
        raise ValueError("beta length does not match the active columns")
    n = cache.n
    total = 0.0
    offset = 0
    for j in model.active_groups:
        pj = cache.design.group_size(j)
        bj = beta[offset : offset + pj]
        offset += pj
        quad = _gram_quad(cache, j, bj)
        scale = phi * g * n / pj
        total += -0.5 * (
            pj * _LOG_2PI
            + pj * np.log(scale)
            - cache.group_logdet(j)
            + quad / scale
        )
    return float(total)


def log_gmom(
    beta: np.ndarray,
    model: ModelId,
    cache: SuffStatsCache,
    g: float,
    phi: float = 1.0,
) -> float:
    """Log density of the block product-moment prior at ``beta``.

    Each active block multiplies a Normal kernel with covariance
    ``phi g n / (p_j + 2)`` times the inverse Gram block by the penalty
    ``beta_j' A_j beta_j (p_j + 2) / (n p_j g phi)``.  The density is exactly
    zero (log density -inf) whenever any active block is zero.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (model.p_gamma,):
        raise ValueError("beta length does not match the active columns")
    n = cache.n
    total = 0.0
    offset = 0
    for j in model.active_groups:
        pj = cache.design.group_size(j)
        bj = beta[offset : offset + pj]
        offset += pj
        quad = _gram_quad(cache, j, bj)
        scale = phi * g * n / (pj + 2)
        penalty = quad * (pj + 2) / (n * pj * g * phi)
        if penalty <= 0.0:
            return -np.inf
        total += np.log(penalty) - 0.5 * (
            pj * _LOG_2PI
            + pj * np.log(scale)
            - cache.group_logdet(j)
            + quad / scale
        )
    return float(total)


def _gram_quad(cache: SuffStatsCache, j: int, bj: np.ndarray) -> float:
    # b' A_j b through the memoized Cholesky factor of the Gram block
    half = cache.group_chol(j).T @ bj
    return float(half @ half)


def log_invgamma(x: float, a: float, b: float) -> float:
    if not x > 0.0:
        return -np.inf
    return a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(x) - b / x


def log_tau_prior(tau: float, a: float, b: float) -> float:
    """Log density of ``tau = phi**-0.5`` when phi is inverse-gamma(a, b)."""
    if not tau > 0.0:
        return -np.inf
    return (
        np.log(2.0)
        + a * np.log(b)
        - gammaln(a)
        + (2.0 * a - 1.0) * np.log(tau)
        - b * tau * tau
    )


@dataclass(frozen=True)
class ModelPriorSpec:
    """Complexity prior over group-inclusion vectors.

    Up to normalization, ``log p(gamma) = -c k log(p_total) - log C(J, k)``
    where k counts active free groups and J counts all free groups.  A
    forced intercept group is excluded from both counts.  ``c = 0`` recovers
    the uniform-on-size (beta-binomial 1, 1) prior.
    """

    n_groups: int
    p_total: int
    c_exponent: float = 0.0
    constraints: Optional[ConstraintSet] = None
    intercept_group: Optional[int] = None

    def __post_init__(self):
        if self.c_exponent < 0.0:
            raise ValueError("c_exponent must be nonnegative")
        if self.p_total < 1 or self.n_groups < 1:
            raise ValueError("need at least one group and one column")

    @property
    def n_free(self) -> int:
        return self.n_groups - (1 if self.intercept_group is not None else 0)

    def free_size(self, bits) -> int:
        k = sum(bits)
        if self.intercept_group is not None and bits[self.intercept_group]:
            k -= 1
        return k

    def check(self, bits) -> None:
        if len(bits) != self.n_groups:
            raise InvalidModel("bit vector length does not match the group count")
        if self.intercept_group is not None and not bits[self.intercept_group]:
            raise InvalidModel("intercept group must stay active")
        if self.constraints is not None and not self.constraints.satisfied_by(bits):
            raise InvalidModel(f"model {''.join(map(str, bits))} violates constraints")


def log_model_prior_unnorm(bits, spec: ModelPriorSpec) -> float:
    """Unnormalized log prior mass of one model; raises on invalid models."""
    spec.check(bits)
    k = spec.free_size(bits)
    j = spec.n_free
    log_choose = gammaln(j + 1.0) - gammaln(k + 1.0) - gammaln(j - k + 1.0)
    return -spec.c_exponent * k * np.log(spec.p_total) - log_choose
