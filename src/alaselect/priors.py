"""Coefficient priors (block Zellner and block product-moment) and the
complexity prior over models.

Both coefficient priors are block diagonal across active groups and scale
each block by the group's Gram matrix, so a group's prior mass is invariant
to invertible linear reparameterizations of its columns.  The product-moment
variant multiplies the Normal kernel by a quadratic penalty that vanishes at
zero, which removes prior mass from near-null coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidModel, NotInvertible
from .numerics import cholesky, gammaln

if TYPE_CHECKING:
    from .data_model import ConstraintSet, DesignMatrix, Gram

_LOG_2PI = float(np.log(2.0 * np.pi))
# maps a model key's 0/1 bytes to the characters "0"/"1"
KEY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def model_key(bits) -> bytes:
    """The one representation of a model: one 0/1 byte per group.

    Takes a key (returned as is) or any sequence or array of bits, nonzero
    meaning active.  Keys are hashed, compared and counted in C, so their
    bookkeeping does not loop over the groups in Python.
    """
    if type(bits) is bytes:
        return bits
    return np.asarray(bits, dtype=bool).tobytes()


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


class BlockPrior:
    """Block-diagonal Normal prior over the coefficient groups of a model.

    Group j has precision ``c_j A_j``, with ``A_j`` the group's Gram block
    and ``c_j = (p_j + shift) / (g n phi)``: shift 0 is the block Zellner
    prior and shift 2 the product-moment kernel.  Methods take the model's
    columns ``cols`` (whole groups in group order, as
    ``DesignMatrix.columns_for`` gives them), or a (B, k) stack of such
    column lists, and optionally the Gram block over them when the caller
    has already gathered it.  ``log det A_j`` is computed once per group,
    by one Cholesky per group size; linearly dependent columns raise
    ``NotInvertible``, naming the first such group in ascending order.
    """

    def __init__(self, design: DesignMatrix, gram: Gram):
        self.design = design
        self.gram = gram
        self.sizes = design.group_sizes
        # log det A_j / p_j, so that summing over a group's columns gives
        # log det A_j; NaN until the group is first factorized
        self._logdet_share = np.full(design.n_groups, np.nan)

    def precision(self, cols, g, phi=1.0, shift=0, block=None):
        """Dense precision over ``cols`` and its log determinant
        ``sum_j p_j log c_j + log det A_j``."""
        groups = self.design.col_group[cols]
        if block is None:
            block = self.gram.block(cols)
        sizes = self.sizes[groups]
        coef = (sizes + shift) / (g * self.design.n * phi)
        same = groups[..., :, None] == groups[..., None, :]
        prec = block * same * coef[..., :, None]
        logdet = (np.log(coef) + self._logdet_shares(groups)).sum(axis=-1)
        return prec, logdet

    def log_density(self, beta, cols, g, phi=1.0, shift=0, block=None):
        """Log density at ``beta``, one coefficient per column of ``cols``;
        for a stack, one value per model, and ``phi`` may hold one
        dispersion per model as a (B, 1) array."""
        prec, logdet = self.precision(cols, g, phi, shift, block)
        quad = np.einsum("...i,...ij,...j->...", beta, prec, beta)
        return -0.5 * (cols.shape[-1] * _LOG_2PI - logdet + quad)

    def log_penalty(self, cols, moment, g, block=None):
        """``sum_j log((p_j + 2) / (n p_j g) tr(A_j M_jj))`` for a second
        moment ``M`` over ``cols`` (dispersion folded in): the log
        product-moment penalty at ``beta`` for ``M = beta beta' / phi``, and
        its posterior expectation for the posterior second moment.  A group
        whose value is not positive makes it -inf.
        """
        groups = self.design.col_group[cols]
        if block is None:
            block = self.gram.block(cols)
        same = groups[..., :, None] == groups[..., None, :]
        per_col = np.sum(block * same * moment, axis=-1)
        # every column of group j carries tr(A_j M_jj) and 1/p_j of its log
        value = np.einsum("...ij,...j->...i", same, per_col)
        sizes = self.sizes[groups]
        value *= (sizes + 2) / (g * self.design.n * sizes)
        with np.errstate(divide="ignore"):
            logs = np.log(np.where(value > 0.0, value, 0.0))
        return np.sum(logs / sizes, axis=-1)

    def _logdet_shares(self, groups: np.ndarray) -> np.ndarray:
        """``log det A_j / p_j`` for each entry of ``groups``, factorizing the
        groups on first use, one stack per group size.  A squared pivot
        below 1e-10 of its diagonal entry makes the block singular: exactly
        dependent columns leave one of order 1e-16 after rounding."""
        shares = self._logdet_share[groups]
        if not np.isnan(shares).any():
            return shares
        todo = np.unique(groups[np.isnan(shares)])
        for p in np.unique(self.sizes[todo]).tolist():
            members = todo[self.sizes[todo] == p]
            cols = np.flatnonzero(np.isin(self.design.col_group, members))
            blocks = self.gram.block(cols.reshape(-1, p))
            try:
                pivots = np.diagonal(np.linalg.cholesky(blocks), 0, 1, 2) ** 2
            except np.linalg.LinAlgError:
                continue
            fine = np.all(pivots >= 1e-10 * np.diagonal(blocks, 0, 1, 2), axis=1)
            self._logdet_share[members[fine]] = np.log(pivots[fine]).sum(axis=1) / p
        for j in todo[np.isnan(self._logdet_share[todo])].tolist():
            # a stack failed: the first failing group names the error
            block = self.gram.block(np.flatnonzero(self.design.col_group == j))
            factor = cholesky(block, NotInvertible, f"group {j} Gram block")
            if np.any(np.diag(factor) ** 2 < 1e-10 * np.diag(block)):
                raise NotInvertible(f"group {j} Gram block is singular")
        return self._logdet_share[groups]


def log_invgamma(x, a: float, b: float):
    """Log density of the inverse-gamma(a, b) at ``x``, elementwise; -inf
    at or below zero."""
    inside = np.asarray(x) > 0.0
    x = np.where(inside, x, 1.0)
    value = a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(x) - b / x
    return np.where(inside, value, -np.inf)[()]


def log_tau_prior(tau, a: float, b: float):
    """Log density of ``tau = phi**-0.5`` when phi is inverse-gamma(a, b),
    elementwise; -inf at or below zero."""
    inside = np.asarray(tau) > 0.0
    tau = np.where(inside, tau, 1.0)
    value = (
        np.log(2.0)
        + a * np.log(b)
        - gammaln(a)
        + (2.0 * a - 1.0) * np.log(tau)
        - b * tau * tau
    )
    return np.where(inside, value, -np.inf)[()]


def admissible(bits: np.ndarray, constraints, intercept_group) -> np.ndarray:
    """Which rows of a (B, J) 0/1 ``uint8`` matrix hold the intercept group,
    at most ``max_groups`` groups (the intercept counted) and each ``requires`` pair."""
    ok = np.ones(bits.shape[0], dtype=bool)
    if intercept_group is not None:
        ok &= bits[:, intercept_group] == 1
    if constraints is not None:
        child, parent = constraints._pairs
        ok &= np.count_nonzero(bits, axis=1) <= constraints.max_groups
        ok &= np.all(bits[:, child] <= bits[:, parent], axis=1)
    return ok


@dataclass(frozen=True)
class ModelPriorSpec:
    """Complexity prior over group-inclusion vectors.

    Up to normalization, ``log p(gamma) = -c k log(p_total) - log C(J, k)``
    where k counts active free groups and J counts all free groups.  A
    forced intercept group is excluded from both counts.  ``c = 0`` recovers
    the uniform-on-size (beta-binomial 1, 1) prior.  The mass depends on k
    alone, so ``log_mass[k]`` holds it for every k, computed once; a model
    costs one count of its key, plus the checks of ``check``, the first
    time it is seen, and one lookup of its key after that.  ``remember``
    memoizes a batch's admissible models at once, from one row sum.
    """

    n_groups: int
    p_total: int
    c_exponent: float = 0.0
    constraints: Optional[ConstraintSet] = None
    intercept_group: Optional[int] = None
    log_mass: np.ndarray = field(init=False, repr=False, compare=False)
    _seen: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.c_exponent < 0.0:
            raise ValueError("c_exponent must be nonnegative")
        if self.p_total < 1 or self.n_groups < 1:
            raise ValueError("need at least one group and one column")
        j = self.n_free
        k = np.arange(j + 1)
        log_choose = gammaln(j + 1.0) - gammaln(k + 1.0) - gammaln(j - k + 1.0)
        table = -self.c_exponent * k * np.log(self.p_total) - log_choose
        object.__setattr__(self, "log_mass", table)

    @property
    def n_free(self) -> int:
        return self.n_groups - (1 if self.intercept_group is not None else 0)

    def free_size(self, bits) -> int:
        key = model_key(bits)
        k = key.count(1)
        if self.intercept_group is not None and key[self.intercept_group]:
            k -= 1
        return k

    def check(self, bits) -> None:
        key = model_key(bits)
        if len(key) != self.n_groups:
            raise InvalidModel("bit vector length does not match the group count")
        if self.intercept_group is not None and not key[self.intercept_group]:
            raise InvalidModel("intercept group must stay active")
        if self.constraints is not None and not self.constraints.satisfied_by(key):
            raise InvalidModel(
                f"model {key.translate(KEY_DIGITS).decode()} violates constraints"
            )

    def remember(self, bits: np.ndarray, keys: list) -> None:
        """Memoize the masses of the admissible rows of a (B, J) 0/1 matrix,
        whose keys are ``keys``; the other rows are left to raise."""
        ok = admissible(bits, self.constraints, self.intercept_group)
        free = np.count_nonzero(bits, axis=1) - (self.intercept_group is not None)
        masses = self.log_mass[free[ok]].tolist()
        self._seen.update(zip(compress(keys, ok.tolist()), masses))


def log_model_prior_unnorm(bits, spec: ModelPriorSpec) -> float:
    """Unnormalized log prior mass of one model; raises on invalid models.
    ``spec`` remembers the mass of each valid model by its key."""
    key = model_key(bits)
    mass = spec._seen.get(key)
    if mass is None:
        spec.check(key)
        mass = spec._seen[key] = spec.log_mass[spec.free_size(key)]
    return mass
