"""Grouped design matrices, model keys, constraint sets, and the
shared sufficient-statistics cache.

The cache stores the shifted response cross-products ``Z^T ytilde`` and a
dense ``Z^T Z``, both computed in ``build_cache``'s one pass over the data,
so the per-model cost of assembling sub-model statistics does not grow with
the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateResponse, InvalidModel, RefuseEnumeration
from .priors import BlockPrior, admissible, model_key

ENUMERATION_LIMIT = 25
# masks expanded into bits per pass of ``admissible_bits``, so that a large
# space under a tight size cap never holds every candidate at once
_MASK_CHUNK = 1 << 16


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p covariate matrix partitioned into J column groups.

    ``groups`` is a sequence of half-open column ranges ``(start, stop)``
    that must partition ``[0, p)`` exactly.  ``intercept_group`` names a
    group that is forced into every model.  ``group_sizes`` holds the
    column count of each group and ``col_group`` the group of each column.
    """

    values: np.ndarray
    groups: tuple[tuple[int, int], ...]
    intercept_group: Optional[int] = None
    group_sizes: np.ndarray = field(init=False, repr=False, compare=False)
    col_group: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if vals.shape[0] < 1:
            raise ValueError("need at least one observation")
        # a finite sum has finite terms and takes no n x p temporary; an
        # overflowing sum is checked entry by entry
        with np.errstate(over="ignore", invalid="ignore"):
            total = vals.sum()
        if not np.isfinite(total) and not np.isfinite(vals).all():
            raise ValueError("design matrix contains non-finite entries")
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
        sizes = np.array([stop - start for start, stop in groups], dtype=np.intp)
        object.__setattr__(self, "group_sizes", sizes)
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

    def columns_for(self, bits) -> np.ndarray:
        """Column indices of the active groups, in group order."""
        view = np.frombuffer(model_key(bits), dtype=np.uint8)
        return np.flatnonzero(view[self.col_group])

    def model(self, bits) -> bytes:
        """The checked key of a key or bit vector; raises ``ValueError`` for a
        key of the wrong length or with a byte other than 0/1, and
        ``InvalidModel`` when the intercept group is inactive."""
        key = model_key(bits)
        if len(key) != self.n_groups:
            raise ValueError("bit vector length does not match the group count")
        if key.translate(None, b"\x00\x01"):
            raise ValueError("a model key holds one 0/1 byte per group")
        if self.intercept_group is not None and not key[self.intercept_group]:
            raise InvalidModel("intercept group must be active in every model")
        return key

    @staticmethod
    def with_singleton_groups(
        values: np.ndarray, intercept_group: Optional[int] = None
    ) -> "DesignMatrix":
        values = np.asarray(values, dtype=np.float64)
        groups = tuple((j, j + 1) for j in range(values.shape[1]))
        return DesignMatrix(values, groups, intercept_group)


@dataclass(frozen=True)
class ConstraintSet:
    """Model-space constraints: a size cap and 'child requires parent' pairs.

    ``requires`` entries ``(j, l)`` mean group j may be active only when
    group l is active.  The implied dependency graph must be acyclic.
    """

    max_groups: int
    requires: tuple[tuple[int, int], ...] = ()
    _pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_groups < 0:
            raise ValueError(f"max_groups must be >= 0, got {self.max_groups}")
        object.__setattr__(
            self, "requires", tuple((int(a), int(b)) for a, b in self.requires)
        )
        cycle = _find_cycle(self.requires)
        if cycle is not None:
            raise ValueError(f"constraint cycle: {' -> '.join(map(str, cycle))}")
        # child indices in row 0, parent indices in row 1
        pairs = np.array(self.requires, dtype=np.intp).reshape(-1, 2).T
        object.__setattr__(self, "_pairs", pairs)

    def satisfied_by(self, bits) -> bool:
        """Whether one model (a key or bit vector) meets the constraints:
        one count of its key plus one gather per ``requires`` pair."""
        key = model_key(bits)
        if key.count(1) > self.max_groups:
            return False
        if not self.requires:
            return True
        view = np.frombuffer(key, dtype=np.uint8)
        return not np.count_nonzero(view[self._pairs[0]] > view[self._pairs[1]])


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


class Gram:
    """Dense cross-product matrix ``X'X`` of a design's columns, computed
    once, as one product, when the ``Gram`` is built.

    numpy runs ``X.T @ X`` as one symmetric rank-k update, so the store is
    exactly symmetric and every entry has one rounding, whatever order
    models read it in.  ``block(cols)`` gathers the block over one column
    list, or over each row of a (B, k) stack of them.  ``dot_count`` is the
    number of entries computed, p * p.  The array takes p * p * 8 bytes
    (800 B at p = 10, 320 KB at p = 200, 3.2 GB at p = 20000); that is the
    limit on p, as there is no second store.
    """

    def __init__(self, matrix: np.ndarray):
        # a strided view would take numpy's loop without BLAS, whose two
        # triangles can round differently
        matrix = np.ascontiguousarray(matrix)
        self._dense = matrix.T @ matrix
        self.dot_count = self._dense.size

    def block(self, cols) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.intp)
        return self._dense[cols[..., :, None], cols[..., None, :]]


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
) -> SuffStatsCache:
    """Build the sufficient-statistics cache for one response transform.

    ``center`` selects the expansion predictor: "zero" uses nu0 = 0,
    "intercept-mle" uses nu0 = h(ybar).
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
        gram=Gram(design.values),
    )


def admissible_bits(
    n_groups: int,
    constraints: Optional[ConstraintSet] = None,
    intercept_group: Optional[int] = None,
    *,
    among: Optional[Sequence[int]] = None,
    limit: int = ENUMERATION_LIMIT,
) -> np.ndarray:
    """Every constraint-satisfying model as one row of a (B, n_groups)
    ``uint8`` 0/1 matrix, in lexicographic bit order (group 0 is the most
    significant bit).

    ``among`` lists the groups that vary, in order (default: all); the
    other groups stay inactive.  Raises ``RefuseEnumeration`` when more
    than ``limit`` groups vary.
    """
    among = np.arange(n_groups) if among is None else np.asarray(among, dtype=np.intp)
    width = among.shape[0]
    if width > limit:
        raise RefuseEnumeration(
            f"2^{width} models exceed the enumeration limit (2^{limit}); "
            "use Gibbs search instead"
        )
    shifts = np.arange(width - 1, -1, -1)
    chunks = []
    for start in range(0, 1 << width, _MASK_CHUNK):
        masks = np.arange(start, min(start + _MASK_CHUNK, 1 << width))
        bits = np.zeros((masks.shape[0], n_groups), dtype=np.uint8)
        bits[:, among] = (masks[:, None] >> shifts) & 1
        chunks.append(bits[admissible(bits, constraints, intercept_group)])
    return np.concatenate(chunks)

