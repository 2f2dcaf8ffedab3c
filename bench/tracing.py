"""Spans around the calls ``select`` makes at each module boundary.

The program is not modified: for the length of one traced operation the
public names it calls (``cli.ingest``, ``build_cache``,
``build_aft_context``, the scorers' ``log_score``,
``log_model_prior_unnorm``, ``families.grad_hess``/``loglik`` and the three
search functions) are swapped, where ``select`` looks them up, for wrappers
that record a span.  A span has a name, a start, an end, a parent span and
an operation id; spans stay in flat arrays until the run ends.

A name that no longer exists is skipped and the metrics built on it are
left out of the result, so a refactor of the program never crashes the
benchmark or fails an operation.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from alaselect import cli, families, marginal_engines

HIT, MISS, MISS_NINF = 1, 2, 3
SEARCHES = ("enumerate_posterior", "gibbs_models", "screen_then_refine")
ENGINES = ("ala", "la", "aft")


class Tracer:
    """Span store for one benchmark run; one id per traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("b")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.missing: set[str] = set()
        self.captured: dict[int, dict[str, object]] = {}
        self._seen: dict[int, tuple[object, set]] = {}

    def name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.tag.append(0)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def classify(self, scorer, bits, value) -> int:
        """A miss is the first ``log_score`` call for a key on a scorer."""
        key = getattr(bits, "bits", bits)
        try:
            hash(key)
        except TypeError:
            key = tuple(key)
        _, seen = self._seen.setdefault(id(scorer), (scorer, set()))
        if key in seen:
            return HIT
        seen.add(key)
        return MISS_NINF if isinstance(value, float) and value == -math.inf else MISS

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Record spans for one ``select`` call, rooted at a ``select`` span."""
        self.current_op = op_id
        self.captured[op_id] = {}
        self._seen = {}
        with installed(self):
            root = self.open(self.name_id("select"))
            try:
                yield
            finally:
                self.close(root)
                self.current_op = -1
                self._seen = {}

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span as ``.npz`` arrays plus the table of names."""
        np.savez(path, names=np.asarray(self.names, dtype=str), **self.arrays())


def _timed(tracer: Tracer, name: str, fn, capture=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if capture is not None:
            capture(tracer, result)
        return result

    return wrapper


def _scored(tracer: Tracer, fn, engine: Optional[str]):
    ids: dict[str, int] = {}

    @functools.wraps(fn)
    def wrapper(self, bits, *args, **kwargs):
        name = engine or getattr(self, "method", "unknown")
        name_id = ids.get(name)
        if name_id is None:
            name_id = ids[name] = tracer.name_id(f"marginal_engines.{name}.log_score")
        idx = tracer.open(name_id)
        try:
            value = fn(self, bits, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.tag[idx] = tracer.classify(self, bits, value)
        return value

    return wrapper


def _keep_design(tracer: Tracer, result) -> None:
    if isinstance(result, tuple) and result:
        tracer.captured[tracer.current_op]["design"] = result[0]


def _keep_store(attr: str):
    def keep(tracer: Tracer, result) -> None:
        tracer.captured[tracer.current_op]["gram"] = getattr(result, attr, None)

    return keep


def _targets(tracer: Tracer):
    """(owner, attribute, label, wrapper factory) for every traced boundary."""
    out = [
        (cli, "ingest", "cli.ingest",
         lambda f: _timed(tracer, "cli.ingest", f, _keep_design)),
        (cli, "build_cache", "data_model.build_cache",
         lambda f: _timed(tracer, "data_model.build_cache", f, _keep_store("gram"))),
        (marginal_engines, "build_aft_context", "marginal_engines.build_aft_context",
         lambda f: _timed(tracer, "marginal_engines.build_aft_context", f,
                          _keep_store("wgram"))),
        (marginal_engines, "log_model_prior_unnorm", "priors",
         lambda f: _timed(tracer, "priors.log_model_prior_unnorm", f)),
        (families, "grad_hess", "families.grad_hess",
         lambda f: _timed(tracer, "families.grad_hess", f)),
        (families, "loglik", "families.loglik",
         lambda f: _timed(tracer, "families.loglik", f)),
    ]
    for search in SEARCHES:
        out.append((cli, search, f"search.{search}",
                    lambda f, s=search: _timed(tracer, f"search.{s}", f)))
    for cls, engine in (("ModelScorer", None), ("AftScorer", "aft")):
        owner = getattr(marginal_engines, cls, None)
        if owner is not None:
            out.append((owner, "log_score", f"{cls}.log_score",
                        lambda f, e=engine: _scored(tracer, f, e)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap in the wrappers; restore the original attributes on exit.

    A name missing from its owner is noted in ``tracer.missing`` and left
    alone.
    """
    saved = []
    try:
        for owner, attr, label, wrap in _targets(tracer):
            original = owner.__dict__.get(attr)
            if original is None:
                tracer.missing.add(label)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential within a process, so children never overlap and
    their summed durations are the part of the parent they cover.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0]
    )
    return dur - covered


@dataclass
class OpFacts:
    """What one traced operation's inputs and outputs say about its size."""

    op: int
    n_cells: int
    n_scans: int
    support_size: int
    screen_survivors: int


# What each metric is built on, by longest matching prefix.  Hook labels are
# noted when a wrapped name is missing; "search", "log_score" and
# "dot_count" when an operation produced models without passing through
# them.  A metric whose source is missing is left out of the result.
_SOURCES = {
    "cli.ingest": "cli.ingest",
    "cli.write_s": "search",
    "data_model.build_cache_s": "data_model.build_cache",
    "data_model.gram_entries_filled": "dot_count",
    "marginal_engines.build_aft_context_s": "marginal_engines.build_aft_context",
    "marginal_engines.": "log_score",
    "priors.": "priors",
    "families.grad_hess_s": "families.grad_hess",
    "families.loglik_s": "families.loglik",
    "families.newton_iters_per_model": "families.grad_hess",
    "search.": "search",
    "search.models_scored": "log_score",
    "search.support_size": "",
    "search.screen_survivors": "",
}


def _source(metric: str) -> str:
    best = max((p for p in _SOURCES if metric.startswith(p)), key=len, default="")
    return _SOURCES.get(best, "")


def layer_metrics(tracer: Tracer, facts: list[OpFacts]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced operations.

    A per-operation value is reported as its median over the operations;
    per-call latencies pool the calls of every traced operation.  A layer
    the workload does not reach reads 0.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    ids = {name: k for k, name in enumerate(tracer.names)}
    missing = set(tracer.missing)
    per_op: dict[str, list[float]] = {}
    pooled: dict[str, list[float]] = {}

    for fact in facts:
        in_op = a["op"] == fact.op

        def spans(name):
            k = ids.get(name, -1)
            return np.flatnonzero(in_op & (a["name"] == k))

        v: dict[str, float] = {}
        ingest = dur[spans("cli.ingest")].sum()
        v["cli.ingest_s"] = ingest
        v["cli.ingest_ns_per_cell"] = 1e9 * ingest / fact.n_cells
        v["data_model.build_cache_s"] = dur[spans("data_model.build_cache")].sum()
        v["marginal_engines.build_aft_context_s"] = dur[
            spans("marginal_engines.build_aft_context")
        ].sum()
        captured = tracer.captured.get(fact.op, {})
        filled = getattr(captured.get("gram"), "dot_count", None)
        if filled is None:
            missing.add("dot_count")
        else:
            v["data_model.gram_entries_filled"] = filled

        hits = misses = ninf = 0
        hit_s = 0.0
        engine_misses = {}
        for engine in ENGINES:
            idx = spans(f"marginal_engines.{engine}.log_score")
            tags = a["tag"][idx]
            hit, miss = idx[tags == HIT], idx[tags >= MISS]
            hits += hit.shape[0]
            misses += miss.shape[0]
            ninf += int(np.count_nonzero(tags == MISS_NINF))
            hit_s += dur[hit].sum()
            engine_misses[engine] = miss.shape[0]
            v[f"marginal_engines.{engine}.misses"] = miss.shape[0]
            v[f"marginal_engines.{engine}.miss_s"] = dur[miss].sum()
            pooled.setdefault(f"{engine}.miss_us", []).extend(1e6 * dur[miss])
            pooled.setdefault("hit_us", []).extend(1e6 * dur[hit])
        if hits + misses == 0 and fact.support_size > 0:
            missing.add("log_score")
        v["marginal_engines.hits"] = hits
        v["marginal_engines.hit_s"] = hit_s
        v["marginal_engines.hit_ratio"] = hits / max(hits + misses, 1)
        v["marginal_engines.ninf_scores"] = ninf

        prior = spans("priors.log_model_prior_unnorm")
        v["priors.model_prior_calls"] = prior.shape[0]
        pooled.setdefault("model_prior_us", []).extend(1e6 * dur[prior])

        grad = spans("families.grad_hess")
        v["families.grad_hess_s"] = dur[grad].sum()
        v["families.loglik_s"] = dur[spans("families.loglik")].sum()
        la_misses = engine_misses["la"]
        v["families.newton_iters_per_model"] = (
            grad.shape[0] / la_misses if la_misses else 0.0
        )

        root = spans("select")
        v["trace.select_s"] = dur[root].sum()
        search = np.concatenate([spans(f"search.{s}") for s in SEARCHES])
        if search.shape[0] == 0:
            missing.add("search")
        else:
            v["search.s"] = dur[search].sum()
            v["search.self_s"] = own[search].sum()
            v["search.step_us"] = _step_us(
                own[spans("search.gibbs_models")].sum(), captured.get("design"),
                fact.n_scans,
            )
            v["search.models_scored"] = misses
            v["search.support_size"] = fact.support_size
            v["search.screen_survivors"] = fact.screen_survivors
            v["cli.write_s"] = a["end"][root].max() - a["end"][search].max()
        for key, value in v.items():
            per_op.setdefault(key, []).append(float(value))

    out = {key: (float(np.median(vals)), _unit(key)) for key, vals in per_op.items()}
    def pct(key, q):
        vals = pooled.get(key, [])
        return float(np.percentile(vals, q)) if len(vals) else 0.0, "us"

    for engine in ENGINES:
        for q in (50, 90):
            out[f"marginal_engines.{engine}.miss_us.p{q}"] = pct(f"{engine}.miss_us", q)
    out["marginal_engines.hit_us.p50"] = pct("hit_us", 50)
    out["priors.model_prior_us.p50"] = pct("model_prior_us", 50)
    return {k: val for k, val in out.items() if _source(k) not in missing}


def _step_us(gibbs_self_s: float, design, n_scans: int) -> float:
    """Gibbs self time per single-group update; 0 when no Gibbs ran."""
    n_groups = getattr(design, "n_groups", 0)
    if not (gibbs_self_s and n_groups and n_scans):
        return 0.0
    free = n_groups - (getattr(design, "intercept_group", None) is not None)
    return 1e6 * gibbs_self_s / (n_scans * free)


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_ns_per_cell"):
        return "ns"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
