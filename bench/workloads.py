"""Seeded synthetic inputs for the benchmark workloads, the data pass that
``setup_s`` times, and the checks run on every ``select`` output.

A workload turns a seed into CSV files plus the ``alaselect select``
arguments that read them.  Everything a check needs to know about the truth
(planted groups, constraints, expected model count) travels with the
inputs, so the checks never re-derive it from the program's own output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from alaselect import cli, simdesigns
from alaselect import families as fam
from alaselect import marginal_engines as engines
from alaselect.data_model import build_cache
from alaselect.priors import ModelPriorSpec, ParamPriorSpec

SAMPLED_ROWS = 64
REL_TOL = 1e-9
STRONG_INCLUSION = 0.9


@dataclass
class Inputs:
    """Files on disk plus the truth the output checks compare against."""

    workload: str
    seed: int
    data: str
    groups: str
    family: str
    select_args: list[str]
    constraints: Optional[str] = None
    status: Optional[str] = None
    model_prior_c: float = 0.0
    requires: tuple[tuple[int, int], ...] = ()
    strong: tuple[int, ...] = ()
    must_survive: tuple[int, ...] = ()
    expected_models: Optional[int] = None
    n_cells: int = 0
    n_scans: int = 0

    def argv(self, out_dir: str) -> list[str]:
        """``alaselect`` command line for one ``select`` operation."""
        argv = [
            "select",
            "--data", self.data,
            "--groups", self.groups,
            "--response", "y",
            "--family", self.family,
            "--seed", str(self.seed),
            "--out", out_dir,
        ]
        if self.status is not None:
            argv += ["--status", self.status]
        if self.constraints is not None:
            argv += ["--constraints", self.constraints]
        if self.model_prior_c:
            argv += ["--model-prior-c", repr(self.model_prior_c)]
        return argv + self.select_args

    @property
    def screened(self) -> bool:
        return "--screen-threshold" in self.select_args


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    table = np.column_stack(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, table, fmt="%.17g", delimiter=",")


def _write_rows(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _singleton_inputs(
    name: str,
    seed: int,
    work: Path,
    x: np.ndarray,
    y: np.ndarray,
    family: str,
    select_args: list[str],
    **truth,
) -> Inputs:
    n, p = x.shape
    names = [f"x{j}" for j in range(p)]
    data = work / "data.csv"
    groups = work / "groups.csv"
    _write_csv(data, ["y"] + names, [y] + [x[:, j] for j in range(p)])
    _write_rows(groups, ["column", "group"], [(c, j) for j, c in enumerate(names)])
    return Inputs(
        workload=name,
        seed=seed,
        data=str(data),
        groups=str(groups),
        family=family,
        select_args=select_args,
        n_cells=n * (p + 1),
        **truth,
    )


def _planted(rng: np.random.Generator, p: int, sizes) -> tuple[np.ndarray, tuple]:
    """Coefficients with ``sizes`` at random positions and random signs."""
    where = np.sort(rng.choice(p, size=len(sizes), replace=False))
    beta = np.zeros(p)
    beta[where] = np.asarray(sizes) * rng.choice([-1.0, 1.0], size=len(sizes))
    return beta, tuple(int(j) for j in where)


def _logistic(rng, n, p, rho, sizes):
    x = simdesigns.equicorr_draw(rng, n, p, rho)
    beta, where = _planted(rng, p, sizes)
    eta = x @ beta
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
    return x, y, where


# The two workloads in BENCHMARK.json are sized so that one operation takes
# about a second or less: an operation that short mostly falls within one
# speed level of the processor, which the upper percentile that run.py
# reports needs (see bench/README.md).  gibbs-wide and aft-spline keep
# their longer operations and run only through --workload.


def enum_logistic(seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    x, y, where = _logistic(rng, 1000, 10, 0.5, (1.0, 0.9, 0.8))
    return _singleton_inputs(
        "enum-logistic", seed, work, x, y, "logistic",
        ["--search", "enumerate"],
        strong=where,
        expected_models=2**10,
    )


GIBBS_WIDE_SCANS = 800


def gibbs_wide(seed: int, work: Path) -> Inputs:
    """The complexity prior (c = 1) concentrates the posterior on a few
    models, so after the first scan nearly every scorer call is a memo hit
    and the run measures the per-step bookkeeping.  With a planted 0.6 the
    posterior inclusion of that group fell to 0.68 on 1 seed in 40, below
    the 0.9 the output check asks of a planted effect, so the weakest
    planted effect is 0.8: inclusion 1.0 on each of 120 seeds."""
    rng = np.random.default_rng([seed, 2])
    x, y, where = _logistic(rng, 2000, 200, 0.3, (1.0, 0.9, 0.8, 0.8))
    return _singleton_inputs(
        "gibbs-wide", seed, work, x, y, "logistic",
        ["--search", "gibbs", "--n-scans", str(GIBBS_WIDE_SCANS)],
        model_prior_c=1.0,
        strong=where,
        n_scans=GIBBS_WIDE_SCANS,
    )


SCREEN_THRESHOLD = 0.9


def screen_la(seed: int, work: Path) -> Inputs:
    """Each planted effect (0.14 at n = 10 000) is about ten standard errors
    from zero, so all eight survive screening: on each of 30 seeds tried,
    where 0.11 at n = 5000 lost one on 1 seed in 30.  The signs alternate
    instead of being drawn: they set the spread of the linear predictor and
    with it the Newton steps per ``la`` model, which ranged 4.7-6.2 grad_hess
    calls over 10 seeds with drawn signs and 4.6-4.8 over 30 with these."""
    rng = np.random.default_rng([seed, 4])
    n, p = 10_000, 10
    x = simdesigns.equicorr_draw(rng, n, p, 0.5)
    beta, where = _planted(rng, p, (0.14,) * 8)
    beta[list(where)] = 0.14 * np.array([1.0, -1.0] * 4)
    y = rng.poisson(np.exp(x @ beta)).astype(np.float64)
    return _singleton_inputs(
        "screen-la", seed, work, x, y, "poisson",
        ["--search", "enumerate", "--screen-threshold", str(SCREEN_THRESHOLD)],
        must_survive=where,
    )


AFT_SCANS = 8000


def aft_spline(seed: int, work: Path) -> Inputs:
    """Scenario 2 of ``simdesigns.aft_scenario`` through the spline expansion.

    The truth is linear in covariate 0 and nonlinear in covariate 1.  The
    strong groups are 1 (linear x1, the parent) and p + 1 (the deviation
    block of x1).  Group 0 is planted but not strong at n = 200: its exact
    (enumerated) inclusion is 0.89 at seed 14.
    """
    rng = np.random.default_rng([seed, 3])
    x_raw, surv, _ = simdesigns.aft_scenario(rng, 200, 2)
    design, constraints = simdesigns.expand_spline_design(x_raw)
    values = design.values
    n, n_cols = values.shape
    names = [f"c{k}" for k in range(n_cols)]
    data = work / "data.csv"
    groups = work / "groups.csv"
    cons = work / "constraints.csv"
    _write_csv(
        data,
        ["y", "status"] + names,
        [surv.log_time, surv.observed.astype(np.float64)]
        + [values[:, k] for k in range(n_cols)],
    )
    group_rows = []
    for j, (start, stop) in enumerate(design.groups):
        group_rows += [(names[k], j) for k in range(start, stop)]
    _write_rows(groups, ["column", "group"], group_rows)
    _write_rows(cons, ["child", "parent"], list(constraints.requires))
    p = x_raw.shape[1]
    return Inputs(
        workload="aft-spline",
        seed=seed,
        data=str(data),
        groups=str(groups),
        family="aft",
        status="status",
        constraints=str(cons),
        select_args=["--search", "gibbs", "--n-scans", str(AFT_SCANS)],
        requires=constraints.requires,
        strong=(1, p + 1),
        n_cells=n * (n_cols + 2),
        n_scans=AFT_SCANS,
    )


WORKLOADS: dict[str, Callable[[int, Path], Inputs]] = {
    "enum-logistic": enum_logistic,
    "gibbs-wide": gibbs_wide,
    "aft-spline": aft_spline,
    "screen-la": screen_la,
}


def data_pass(inp: Inputs) -> Callable[[], object]:
    """The one-time work ``select`` does before scoring any model.

    Runs ``cli.ingest``, then ``build_cache`` (``build_aft_context`` for
    survival data), then constructs the scorers ``select`` would construct.
    Returns a factory for a fresh scorer of the engine whose scores
    ``models.csv`` reports; the output checks use it as the reference.
    """
    design, response, constraints = cli.ingest(
        inp.data,
        inp.groups,
        "y",
        status=inp.status,
        constraints_path=inp.constraints,
    )
    prior = ParamPriorSpec()
    model_prior = ModelPriorSpec(
        n_groups=design.n_groups,
        p_total=design.p,
        c_exponent=inp.model_prior_c,
        constraints=constraints,
        intercept_group=design.intercept_group,
    )
    if inp.family == "aft":
        ctx = engines.build_aft_context(design, response)

        def fresh():
            return engines.AftScorer(ctx, prior, model_prior)

    else:
        family = fam.logistic() if inp.family == "logistic" else fam.poisson()
        cache = build_cache(design, response, family, center="zero")
        method = "la" if inp.screened else "ala"

        def fresh():
            return engines.ModelScorer(cache, family, prior, model_prior, method=method)

        if inp.screened:
            # the screening scorer; models.csv reports the refining one
            engines.ModelScorer(cache, family, prior, model_prior)
    fresh()
    return fresh


def _read_models(path: Path) -> tuple[list[tuple[int, ...]], list[float], list[float]]:
    models, scores, probs = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["model", "log_score", "probability"]:
            raise ValueError("models.csv has an unexpected header")
        for row in reader:
            models.append(tuple(int(c) for c in row[0]))
            scores.append(float(row[1]))
            probs.append(float(row[2]))
    return models, scores, probs


def _read_inclusion(path: Path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["inclusion"]) for r in rows]


def _close(value: float, reference: float) -> bool:
    if math.isinf(value) or math.isinf(reference):
        return value == reference
    return abs(value - reference) <= REL_TOL * abs(reference)


def sample_rows(n_rows: int, seed: int) -> np.ndarray:
    """The fixed sample of ``models.csv`` rows whose scores are recomputed."""
    rng = np.random.default_rng([seed, 99])
    return np.sort(rng.choice(n_rows, size=min(SAMPLED_ROWS, n_rows), replace=False))


def _active_groups(models) -> set[int]:
    return {j for m in models for j, b in enumerate(m) if b}


def support_facts(out_dir: Path) -> tuple[int, int]:
    """Rows of ``models.csv``, and the groups active in at least one row."""
    models, _, _ = _read_models(out_dir / "models.csv")
    return len(models), len(_active_groups(models))


def check_outputs(inp: Inputs, out_dir: Path, fresh_scorer) -> list[str]:
    """Every failed output check of one ``select`` operation, as messages."""
    failures = []
    models, scores, probs = _read_models(out_dir / "models.csv")
    inclusion = _read_inclusion(out_dir / "inclusion.csv")
    if not models:
        return ["models.csv has no rows"]
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        failures.append(f"probabilities sum to {total!r}")
    scorer = fresh_scorer()
    for i in sample_rows(len(models), inp.seed):
        reference = scorer.log_score(models[i])
        if not _close(scores[i], reference):
            failures.append(
                f"row {i}: log_score {scores[i]!r} against fresh {reference!r}"
            )
            break
    if inp.expected_models is not None and not (
        len(models) == len(set(models)) == inp.expected_models
    ):
        failures.append(
            f"{len(models)} rows and {len(set(models))} distinct models, "
            f"expected {inp.expected_models}"
        )
    for child, parent in inp.requires:
        bad = sum(1 for m in models if m[child] and not m[parent])
        if bad:
            failures.append(f"{bad} models have group {child} without {parent}")
    for j in inp.strong:
        if not inclusion[j] >= STRONG_INCLUSION:
            failures.append(f"planted group {j} has inclusion {inclusion[j]!r}")
    if inp.must_survive:
        lost = sorted(set(inp.must_survive) - _active_groups(models))
        if lost:
            failures.append(f"planted groups {lost} did not survive screening")
    return failures
