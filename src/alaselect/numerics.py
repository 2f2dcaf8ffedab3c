"""Special functions and Cholesky factorizations on numpy and ``math`` alone.

The regression families, the priors, the searches and the fast engines
take their log-gamma, log-sum-exp, logit, positive-definite solves and
log-determinants from here, so that a regression run loads no scipy.  Each
special function gives what its scipy counterpart gives on the inputs the
package passes, up to rounding, including at infinities, NaN and poles.

A score that needs only ``log det H`` and ``g' H^-1 g`` takes them from one
Cholesky factorization of the bordered matrix ``[[H, g], [g', inf]]``
(``bordered_cholesky``), for one matrix or a stack: the Laplace finish of
every ``ala``, ``ala-refined`` and known-dispersion ``la`` score, which
also reads its expansion from that factor.  ``cho_factor_solve`` is for the
callers that use the solution itself: the Newton directions and the
refined expansion's plain steps move by it, the scale-bordered plug-in
stack moves to the update it gives, and that stack's product-moment tilt
takes its kernel moments from it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotConcaveAtExpansion


def _lgamma(x: float) -> float:
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        # the poles 0, -1, -2, ... and arguments past the float range
        return math.inf


def gammaln(x):
    """``log |Gamma(x)|`` elementwise; +inf at 0 and the negative integers,
    as ``scipy.special.gammaln``.  Arrays are evaluated once per distinct
    value, so integer-valued inputs such as counts cost little."""
    if np.ndim(x) == 0:
        return np.float64(_lgamma(float(x)))
    x = np.asarray(x, dtype=np.float64)
    values, inverse = np.unique(x, return_inverse=True)
    table = np.array([_lgamma(v) for v in values.tolist()])
    return table[inverse].reshape(x.shape)


def logsumexp(a) -> np.float64:
    """``log(sum(exp(a)))`` over all of ``a``, by the steps of
    ``scipy.special.logsumexp``: the terms at the maximum are counted, not
    exponentiated, and the rest enter through ``log1p``.  All -inf gives
    -inf, any +inf gives +inf, any NaN gives NaN, and empty input -inf."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return np.float64(-np.inf)
    top = np.max(a)
    if not np.isfinite(top):
        return top
    at_top = a == top
    count = np.count_nonzero(at_top)
    terms = np.exp(a - top)
    terms[at_top] = 0.0
    return np.log1p(np.sum(terms) / count) + np.log(count) + top


def logit(p: float) -> float:
    """``log(p / (1 - p))``, through ``log1p`` near one half, with the bits
    of ``scipy.special.logit``: -inf at 0, +inf at 1 and NaN outside
    [0, 1]."""
    if not 0.0 < p < 1.0:
        return {0.0: -math.inf, 1.0: math.inf}.get(p, math.nan)
    if p < 0.3 or p > 0.65:
        return math.log(p / (1.0 - p))
    s = 2.0 * (p - 0.5)
    return math.log1p(s) - math.log1p(-s)


def cholesky(matrix: np.ndarray, exc, what: str):
    """Lower Cholesky factor of ``matrix`` (or of each matrix of a stack);
    raises ``exc`` when one is not positive definite."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as err:
        raise exc(f"{what} is not positive definite") from err


def cho_factor_solve(
    matrix: np.ndarray, rhs: np.ndarray, exc=NotConcaveAtExpansion, what="joint curvature"
):
    """Lower Cholesky factor of ``matrix`` and ``matrix^{-1} rhs`` (or of
    each matrix of a stack); raises ``exc`` when ``matrix`` is not positive
    definite.  The factorization tests definiteness and gives the
    log-determinant; the solve goes through ``numpy.linalg.solve``, which
    also rejects a singular matrix whose rounded factor has a tiny positive
    pivot.  Its callers use the solution itself: the Newton directions, the
    refined expansion's steps (``_ala_refined``), and the scale-bordered
    plug-in stack (``_scale_plugin``) with its product-moment kernel
    moments (``_gmom_tilt``)."""
    try:
        return np.linalg.cholesky(matrix), np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:
        raise exc(f"{what} is not positive definite") from err


def bordered_cholesky(matrix: np.ndarray, vector: np.ndarray, exc, what: str):
    """``(log det H, g' H^-1 g, factor)`` for ``H = matrix`` and
    ``g = vector`` (or each pair of a stack), from one Cholesky factor of
    the bordered (k+1) x (k+1) matrix ``[[H, g], [g', c]]``.

    The factor's leading k x k block is the factor ``L`` of ``H``, so
    ``log det H`` is twice the sum of the logs of its first k pivots; its
    last row holds ``L^-1 g``, whose squared norm is ``g' H^-1 g``.  The
    corner ``c`` is +inf, so the last pivot is +inf and the border itself
    cannot fail.  Raises ``exc`` when ``H`` is not positive definite.
    """
    k = matrix.shape[-1]
    bordered = np.empty(matrix.shape[:-2] + (k + 1, k + 1))
    bordered[..., :k, :k] = matrix
    bordered[..., :k, k] = bordered[..., k, :k] = vector
    bordered[..., k, k] = np.inf
    factor = cholesky(bordered, exc, what)
    half = factor[..., k, :k]
    return chol_logdet(factor[..., :k, :k]), (half * half).sum(axis=-1), factor


def chol_logdet(factor: np.ndarray):
    """``log det`` of the matrix whose lower Cholesky factor is ``factor``,
    ``2 sum log diag``; one value per factor of a stack, 0 for a 0 x 0
    factor."""
    return 2.0 * np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum(axis=-1)
