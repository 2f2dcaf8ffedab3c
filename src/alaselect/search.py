"""Model-space exploration.

Small spaces are enumerated and normalized exactly.  Larger spaces are
explored by a systematic-scan Gibbs sampler over group-inclusion bits that
respects dependency constraints and size caps by construction.  Sampled
supports can be reweighted to the exact restricted posterior, and a cheap
screening pass can shrink the space before a more expensive engine runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data_model import ENUMERATION_LIMIT, ConstraintSet, admissible_bits
from .numerics import logsumexp
from .priors import model_key


@dataclass
class PosteriorSummary:
    """Posterior over a model support plus per-group inclusion estimates.

    ``bits`` holds the support as a (B, J) ``uint8`` 0/1 matrix, one model
    per row; any rectangular 0/1 sequence given is stored as one.
    ``inclusion`` holds the primary estimate (conditional averages when the
    support was sampled); ``inclusion_raw`` the plain sampling frequencies,
    when available.
    """

    bits: np.ndarray
    log_scores: np.ndarray
    probabilities: np.ndarray
    inclusion: np.ndarray
    inclusion_raw: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)

    def top(self, k: int = 10) -> list[tuple[bytes, float]]:
        """The ``k`` most probable models as ``(model_key, probability)``
        pairs, in descending probability."""
        order = np.argsort(-self.probabilities)[:k]
        return [(self.bits[i].tobytes(), float(self.probabilities[i])) for i in order]


@dataclass
class ImportanceReport:
    """Reweighting of a sampled support to the exact restricted posterior.

    ``bits`` holds the distinct sampled models as a (B, J) ``uint8`` 0/1
    matrix; ``probabilities`` and ``frequencies`` hold each row's target
    probability and draw frequency.  ``weights`` are per-draw ratios of
    target to proposal probability, both renormalized over the sampled
    support.  ``ess`` is the effective sample size implied by their spread
    across draws; ``degenerate`` flags a single model carrying more than
    half of the total model weight.
    """

    bits: np.ndarray
    probabilities: np.ndarray
    frequencies: np.ndarray
    inclusion: np.ndarray
    weights: np.ndarray
    ess: float
    n_draws: int
    max_weight: float
    degenerate: bool


def _normalize(log_scores: np.ndarray) -> np.ndarray:
    total = logsumexp(log_scores)
    if not np.isfinite(total):
        raise ValueError("every model in the support scored -inf")
    return np.exp(log_scores - total)


def _inclusion_from(bits: np.ndarray, probs: np.ndarray) -> np.ndarray:
    # probabilities sum to 1 only up to rounding: clip the ulps above 1
    return np.minimum(bits.astype(np.float64).T @ probs, 1.0)


def _distinct_rows(samples: np.ndarray):
    """The distinct rows of a 0/1 draw matrix, sorted, as a ``uint8``
    matrix, with each draw's row index and each row's count; rows are
    compared and counted as one byte string each."""
    draws = np.ascontiguousarray(samples, dtype=bool).view(np.uint8)
    rows, inverse, counts = np.unique(
        draws.view(f"V{draws.shape[1]}").ravel(),
        return_inverse=True,
        return_counts=True,
    )
    return rows.view(np.uint8).reshape(-1, draws.shape[1]), inverse, counts


def _resolve_constraints(scorer, constraints: Optional[ConstraintSet]):
    """The constraints a search runs under: the argument, else the scorer's
    model prior's.  Two copies that differ raise ``ValueError``, as the
    prior would otherwise reject a model of the search midway."""
    model_prior = getattr(scorer, "model_prior", None)
    held = model_prior.constraints if model_prior is not None else None
    if constraints is None:
        return held
    if held is not None and held != constraints:
        raise ValueError("constraints differ from the scorer's model prior constraints")
    return constraints


def enumerate_posterior(
    scorer,
    constraints: Optional[ConstraintSet] = None,
    limit: int = ENUMERATION_LIMIT,
) -> PosteriorSummary:
    """Score every admissible model and normalize exactly; raises
    ``ValueError`` when no model is admissible."""
    design = scorer.design
    constraints = _resolve_constraints(scorer, constraints)
    bits = admissible_bits(
        design.n_groups, constraints, design.intercept_group, limit=limit
    )
    if not bits.shape[0]:
        raise ValueError("no model is admissible under the constraints")
    log_scores = scorer.score_many(bits)
    probs = _normalize(log_scores)
    return PosteriorSummary(
        bits=bits,
        log_scores=log_scores,
        probabilities=probs,
        inclusion=_inclusion_from(bits, probs),
        diagnostics={"n_models": bits.shape[0]},
    )


def gibbs_models(
    scorer,
    n_scans: int,
    seed: int = 0,
    constraints: Optional[ConstraintSet] = None,
    init: Optional[Sequence[int]] = None,
    burn_frac: float = 0.1,
) -> PosteriorSummary:
    """Systematic-scan Gibbs over group-inclusion bits.

    Each scan visits every free group once and draws it from its exact full
    conditional.  A group whose parents are inactive, or whose activation
    would exceed the size cap, has conditional on-probability zero; a group
    with an active direct dependent has conditional on-probability one, so
    no state violates a constraint.  Inclusion estimates average the
    conditional on-probability over post-burn-in scans; raw sampling
    frequencies are kept alongside.
    """
    design = scorer.design
    j_groups = design.n_groups
    constraints = _resolve_constraints(scorer, constraints)
    max_groups = constraints.max_groups if constraints is not None else j_groups
    requires = constraints.requires if constraints is not None else ()
    parents = {j: [] for j in range(j_groups)}
    children = {j: [] for j in range(j_groups)}
    for child, parent in requires:
        parents[child].append(parent)
        children[parent].append(child)
    intercept = design.intercept_group
    # the state is one key, edited in place, and its active-group count
    state = bytearray(j_groups if init is None else model_key(init))
    if init is None and intercept is not None:
        state[intercept] = 1
    if constraints is not None and not constraints.satisfied_by(bytes(state)):
        if init is None and state.count(1) > max_groups:
            # the default start is the smallest model, so the cap admits none
            raise ValueError("no model is admissible under the constraints")
        raise ValueError("initial model violates the constraints")
    active = state.count(1)
    rng = np.random.Generator(np.random.Philox(seed))
    burn = int(np.ceil(burn_frac * n_scans))
    rb_sums = np.zeros(j_groups)
    raw_sums = np.zeros(j_groups)
    kept = 0
    samples = np.empty((max(n_scans - burn, 0), j_groups), dtype=np.uint8)
    for scan in range(n_scans):
        keep = scan >= burn
        for j in range(j_groups):
            if j == intercept:
                if keep:
                    rb_sums[j] += 1.0
                continue
            was_on = state[j]
            if was_on:
                if any(state[child] for child in children[j]):
                    # switching off would orphan a dependent; the conditional is one
                    if keep:
                        rb_sums[j] += 1.0
                    continue
            elif any(not state[parent] for parent in parents[j]) or (
                active >= max_groups
            ):
                # activation is inadmissible; the conditional is zero
                continue
            state[j] = 1
            state_on = bytes(state)
            state[j] = 0
            state_off = bytes(state)
            delta = scorer.log_score(state_off) - scorer.log_score(state_on)
            p_on = 1.0 / (1.0 + np.exp(min(delta, 700.0)))
            on = int(rng.random() < p_on)
            state[j] = on
            active += on - was_on
            if keep:
                rb_sums[j] += p_on
        if keep:
            samples[kept] = np.frombuffer(state, dtype=np.uint8)
            raw_sums += samples[kept]
            kept += 1
    if kept == 0:
        raise ValueError("no post-burn-in scans; increase n_scans")
    bits, _, _ = _distinct_rows(samples)
    log_scores = scorer.score_many(bits)
    probs = _normalize(log_scores)
    return PosteriorSummary(
        bits=bits,
        log_scores=log_scores,
        probabilities=probs,
        inclusion=rb_sums / kept,
        inclusion_raw=raw_sums / kept,
        samples=samples,
        diagnostics={
            "n_scans": n_scans,
            "burn_scans": burn,
            "seed": seed,
            "n_visited": bits.shape[0],
        },
    )


def importance_reweight(
    scorer, samples: np.ndarray, proposal_scorer=None
) -> ImportanceReport:
    """Reweight sampled models to the exact posterior restricted to their
    support.

    Each distinct sampled model is weighted by its restricted posterior
    probability under ``scorer`` over its probability under the proposal:
    the restricted posterior of ``proposal_scorer`` when given, else the
    empirical draw frequencies.  All diagnostics are computed in log space,
    so near-infinite weight ratios still produce finite effective sample
    sizes and a well-defined degeneracy flag.
    """
    samples = np.asarray(samples)
    n_draws = samples.shape[0]
    if n_draws == 0:
        raise ValueError("need at least one draw")
    bits, draw_rows, counts_arr = _distinct_rows(samples)
    log_scores = scorer.score_many(bits)
    total = logsumexp(log_scores)
    if not np.isfinite(total):
        raise ValueError("every model in the support scored -inf")
    log_target = log_scores - total
    freqs = counts_arr / n_draws
    if proposal_scorer is None:
        log_prop = np.log(freqs)
    else:
        prop_scores = proposal_scorer.score_many(bits)
        log_prop = prop_scores - logsumexp(prop_scores)
    log_w = log_target - log_prop
    log_c = np.log(counts_arr)
    sum_w = logsumexp(log_w + log_c)
    sum_w2 = logsumexp(2.0 * log_w + log_c)
    max_share = float(np.exp(np.max(log_w) - logsumexp(log_w)))
    # Ratios beyond the float range are reported as inf on purpose; the
    # log-space diagnostics above stay finite.
    with np.errstate(over="ignore"):
        weights = np.exp(log_w[draw_rows])
        max_weight = float(np.exp(np.max(log_w)))
    return ImportanceReport(
        bits=bits,
        probabilities=np.exp(log_target),
        frequencies=freqs,
        inclusion=_inclusion_from(bits, np.exp(log_target)),
        weights=weights,
        ess=float(np.exp(2.0 * sum_w - sum_w2)),
        n_draws=n_draws,
        max_weight=max_weight,
        degenerate=max_share > 0.5,
    )


def screen_then_refine(
    screen_scorer,
    refine_scorer,
    threshold: float = 0.5,
    constraints: Optional[ConstraintSet] = None,
    limit: int = ENUMERATION_LIMIT,
) -> PosteriorSummary:
    """Two-stage selection: enumerate with a cheap scorer, drop groups whose
    inclusion falls below ``threshold``, then re-enumerate the survivors
    with the expensive scorer.

    A surviving child keeps its parents: a parent whose own inclusion fell
    below the threshold is pulled back in (transitively), so every surviving
    group can still enter a model.  Dropped groups are reported with
    inclusion zero.
    """
    design = screen_scorer.design
    constraints = _resolve_constraints(
        refine_scorer, _resolve_constraints(screen_scorer, constraints)
    )
    first = enumerate_posterior(screen_scorer, constraints, limit)
    keep = {
        j
        for j in range(design.n_groups)
        if first.inclusion[j] >= threshold
    }
    if design.intercept_group is not None:
        keep.add(design.intercept_group)
    if constraints is not None:
        # pull in the parents of survivors until no survivor lacks one
        changed = True
        while changed:
            changed = False
            for child, parent in constraints.requires:
                if child in keep and parent not in keep:
                    keep.add(parent)
                    changed = True
    kept = sorted(keep)
    non_intercept = [j for j in kept if j != design.intercept_group]
    if not non_intercept:
        warnings.warn(
            "screening removed every candidate group; "
            "the summary covers the null model only",
            stacklevel=2,
        )
    bits = admissible_bits(
        design.n_groups, constraints, design.intercept_group, among=kept, limit=limit
    )
    log_scores = refine_scorer.score_many(bits)
    probs = _normalize(log_scores)
    return PosteriorSummary(
        bits=bits,
        log_scores=log_scores,
        probabilities=probs,
        inclusion=_inclusion_from(bits, probs),
        diagnostics={
            "kept_groups": tuple(kept),
            "screen_inclusion": first.inclusion,
            "n_models": bits.shape[0],
        },
    )
