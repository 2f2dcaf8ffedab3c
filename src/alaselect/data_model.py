"""Grouped design matrices, model identifiers, constraint sets, and the
shared sufficient-statistics cache.

The cache stores the shifted response cross-products ``Z^T ytilde`` and a
dense ``Z^T Z`` whose columns are computed the first time any model touches
them and then served from memory, so the per-model cost of assembling
sub-model statistics does not grow with the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
import scipy.linalg.lapack

from .errors import DegenerateResponse, InvalidModel, NotInvertible, RefuseEnumeration
from .priors import BlockPrior

ENUMERATION_LIMIT = 25


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p covariate matrix partitioned into J column groups.

    ``groups`` is a sequence of half-open column ranges ``(start, stop)``
    that must partition ``[0, p)`` exactly.  ``intercept_group`` names a
    group that is forced into every model.  ``col_group`` holds the group of
    each column.
    """

    values: np.ndarray
    groups: tuple[tuple[int, int], ...]
    intercept_group: Optional[int] = None
    col_group: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if vals.shape[0] < 1:
            raise ValueError("need at least one observation")
        object.__setattr__(self, "values", vals)
        groups = tuple((int(a), int(b)) for a, b in self.groups)
        object.__setattr__(self, "groups", groups)
        cursor = 0
        for start, stop in groups:
            if start != cursor or stop <= start:
                raise ValueError("groups must partition the columns in order")
            cursor = stop
        if cursor != vals.shape[1]:
            raise ValueError("groups do not cover all columns")
        if self.intercept_group is not None and not (
            0 <= self.intercept_group < len(groups)
        ):
            raise ValueError("intercept_group out of range")
        sizes = [stop - start for start, stop in groups]
        object.__setattr__(
            self, "col_group", np.repeat(np.arange(len(groups)), sizes)
        )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.groups)

    def group_size(self, j: int) -> int:
        start, stop = self.groups[j]
        return stop - start

    def columns_for(self, bits: Sequence[int]) -> np.ndarray:
        """Column indices of the active groups, in group order."""
        return np.flatnonzero(np.asarray(bits, dtype=bool)[self.col_group])

    def model(self, bits: Sequence[int]) -> "ModelId":
        return make_model(bits, self.group_sizes, self.intercept_group)

    @staticmethod
    def with_singleton_groups(
        values: np.ndarray, intercept_group: Optional[int] = None
    ) -> "DesignMatrix":
        values = np.asarray(values, dtype=np.float64)
        groups = tuple((j, j + 1) for j in range(values.shape[1]))
        return DesignMatrix(values, groups, intercept_group)


@dataclass(frozen=True)
class ModelId:
    """Bit vector over the J groups, plus cached size and dimension."""

    bits: tuple[int, ...]
    size: int
    p_gamma: int

    @property
    def active_groups(self) -> tuple[int, ...]:
        return tuple(j for j, on in enumerate(self.bits) if on)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def make_model(
    bits: Sequence[int],
    group_sizes: Sequence[int],
    intercept_group: Optional[int] = None,
) -> ModelId:
    bits = tuple(1 if b else 0 for b in bits)
    if len(bits) != len(group_sizes):
        raise ValueError("bit vector length does not match the group count")
    if intercept_group is not None and not bits[intercept_group]:
        raise InvalidModel("intercept group must be active in every model")
    size = sum(bits)
    p_gamma = sum(s for b, s in zip(bits, group_sizes) if b)
    return ModelId(bits=bits, size=size, p_gamma=p_gamma)


@dataclass(frozen=True)
class ConstraintSet:
    """Model-space constraints: a size cap and 'child requires parent' pairs.

    ``requires`` entries ``(j, l)`` mean group j may be active only when
    group l is active.  The implied dependency graph must be acyclic.
    """

    max_groups: int
    requires: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "requires", tuple((int(a), int(b)) for a, b in self.requires)
        )
        cycle = _find_cycle(self.requires)
        if cycle is not None:
            raise ValueError(f"constraint cycle: {' -> '.join(map(str, cycle))}")

    def satisfied_by(self, bits: Sequence[int]) -> bool:
        if sum(bits) > self.max_groups:
            return False
        for child, parent in self.requires:
            if bits[child] and not bits[parent]:
                return False
        return True


def _find_cycle(requires) -> Optional[list[int]]:
    # DFS over the child -> parent edges; returns one cycle if present.
    adjacency: dict[int, list[int]] = {}
    for child, parent in requires:
        adjacency.setdefault(child, []).append(parent)
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    parent_chain: list[int] = []

    def visit(node: int) -> Optional[list[int]]:
        color[node] = GREY
        parent_chain.append(node)
        for nxt in adjacency.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GREY:
                start = parent_chain.index(nxt)
                return parent_chain[start:] + [nxt]
            if state == WHITE:
                found = visit(nxt)
                if found:
                    return found
        parent_chain.pop()
        color[node] = BLACK
        return None

    for start in list(adjacency):
        if color.get(start, WHITE) == WHITE:
            found = visit(start)
            if found:
                return found
    return None


def no_constraints(j: int) -> ConstraintSet:
    return ConstraintSet(max_groups=j)


class Gram:
    """Dense cross-product matrix ``X'X`` of a design's columns, filled one
    column at a time on first touch.

    The first read of a column fills that column and its row with
    ``X' X[:, c]``, keeping the entries that an earlier fill computed, so
    every entry is computed once, never changes afterwards, and
    ``block(cols)`` is an exactly symmetric gather.  ``dot_count`` counts
    the entries computed, p per column filled.  The array takes p * p * 8
    bytes (800 B at p = 10, 320 KB at p = 200, 3.2 GB at p = 20000); that is
    the limit on p, as there is no second store.
    """

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix
        p = matrix.shape[1]
        self._dense = np.zeros((p, p))
        self._filled = np.zeros(p, dtype=bool)
        self.dot_count = 0

    def block(self, cols: np.ndarray) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        if not self._filled[cols].all():
            new = np.unique(cols[~self._filled[cols]])
            fresh = self._matrix.T @ self._matrix[:, new]
            fresh[self._filled] = self._dense[np.ix_(self._filled, new)]
            inner = fresh[new]
            fresh[new] = 0.5 * (inner + inner.T)
            self._dense[:, new] = fresh
            self._dense[new] = fresh.T
            self._filled[new] = True
            self.dot_count += fresh.size
        return self._dense[cols[:, None], cols]


@dataclass
class SuffStatsCache:
    """Shared per-dataset statistics for scoring many models.

    Holds the shifted response ``ytilde = (y - b'(nu0)) / b''(nu0)``, its
    cross products with the design columns, the Gram matrix and the block
    prior built on it.  ``transform_tag`` identifies the shift/scale so
    distinct centerings do not mix.
    """

    design: DesignMatrix
    y: np.ndarray
    ytilde: np.ndarray
    zty: np.ndarray
    yty: float
    transform_tag: str
    nu0: float
    bp_nu0: float
    bpp_nu0: float
    gram: Gram
    block_prior: BlockPrior = field(init=False)
    scalar_memo: dict = field(default_factory=dict)

    def __post_init__(self):
        self.block_prior = BlockPrior(self.design, self.gram)

    @property
    def n(self) -> int:
        return self.design.n


def build_cache(
    design: DesignMatrix,
    y: np.ndarray,
    family,
    center: str = "zero",
    gram: Optional[Gram] = None,
) -> SuffStatsCache:
    """Build the sufficient-statistics cache for one response transform.

    ``center`` selects the expansion predictor: "zero" uses nu0 = 0,
    "intercept-mle" uses nu0 = h(ybar).  Passing an existing ``gram`` shares
    the column cross products between transforms (they do not depend on the
    response).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (design.n,):
        raise ValueError("response length does not match the design")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite entries")
    if center == "zero":
        nu0 = 0.0
    elif center == "intercept-mle":
        ybar = float(np.mean(y))
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                nu0 = float(family.link(ybar))
        except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
            raise DegenerateResponse(
                f"link undefined at ybar={ybar!r}"
            ) from exc
        if not np.isfinite(nu0):
            raise DegenerateResponse(f"link diverges at ybar={ybar!r}")
    else:
        raise ValueError(f"unknown center {center!r}")
    _, bp, bpp = map(float, family.cumulant(nu0))
    if not bpp > 0.0:
        raise DegenerateResponse(
            "b''(nu0) vanished; the response carries no variation at the "
            "expansion point"
        )
    ytilde = (y - bp) / bpp
    zty = design.values.T @ ytilde
    yty = float(ytilde @ ytilde)
    if gram is None:
        gram = Gram(design.values)
    return SuffStatsCache(
        design=design,
        y=y,
        ytilde=ytilde,
        zty=zty,
        yty=yty,
        transform_tag=f"{family.kind}:{center}",
        nu0=nu0,
        bp_nu0=bp,
        bpp_nu0=bpp,
        gram=gram,
    )


def submodel_stats(cache: SuffStatsCache, model: ModelId):
    """Dense ``(Z_g^T Z_g, Z_g^T ytilde)`` for the active columns of one model.

    Untouched Gram entries are computed and memoized during assembly.
    """
    cols = cache.design.columns_for(model.bits)
    xtx = cache.gram.block(cols)
    xty = cache.zty[cols]
    return xtx, xty


@dataclass
class LsSolution:
    """Least-squares solve against a Gram block.

    ``chol`` is the lower-triangular Cholesky factor of (possibly jittered)
    ``xtx``; it is reused for determinants and posterior covariances.
    """

    beta: np.ndarray
    quad: float
    chol: np.ndarray
    jittered: bool = False

    @property
    def logdet(self) -> float:
        if self.chol.shape[0] == 0:
            return 0.0
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def ls_solve(xtx: np.ndarray, xty: np.ndarray, jitter: bool = False) -> LsSolution:
    """Solve the normal equations via Cholesky.

    Returns the solution, the quadratic form ``xty^T beta``, and the factor.
    With ``jitter=True`` a failed factorization is retried once after adding
    a ridge of 1e-10 * trace / p to the diagonal; the result is flagged.
    """
    xtx = np.asarray(xtx, dtype=np.float64)
    xty = np.asarray(xty, dtype=np.float64)
    k = xtx.shape[0]
    if k == 0:
        return LsSolution(beta=np.empty(0), quad=0.0, chol=np.empty((0, 0)))
    jittered = False
    factor, info = scipy.linalg.lapack.dpotrf(xtx, lower=1)
    if info:
        if not jitter:
            raise NotInvertible("Gram block is not positive definite")
        ridge = 1e-10 * float(np.trace(xtx)) / k
        factor, info = scipy.linalg.lapack.dpotrf(xtx + ridge * np.eye(k), lower=1)
        if info:
            raise NotInvertible("Gram block is not positive definite even after jitter")
        jittered = True
    beta = scipy.linalg.lapack.dpotrs(factor, xty, lower=1)[0]
    quad = float(xty @ beta)
    return LsSolution(beta=beta, quad=quad, chol=factor, jittered=jittered)


def enumerate_models(
    j: int,
    constraints: Optional[ConstraintSet] = None,
    *,
    sizes: Optional[Sequence[int]] = None,
    intercept_group: Optional[int] = None,
    limit: int = ENUMERATION_LIMIT,
) -> Iterator[ModelId]:
    """Yield every constraint-satisfying model in lexicographic bit order."""
    if j > limit:
        raise RefuseEnumeration(
            f"2^{j} models exceed the enumeration limit (2^{limit}); "
            "use Gibbs search instead"
        )
    if constraints is None:
        constraints = no_constraints(j)
    if sizes is None:
        sizes = (1,) * j
    for mask in range(1 << j):
        bits = tuple((mask >> (j - 1 - k)) & 1 for k in range(j))
        if intercept_group is not None and not bits[intercept_group]:
            continue
        if not constraints.satisfied_by(bits):
            continue
        yield make_model(bits, sizes, intercept_group)
