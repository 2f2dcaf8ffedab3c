"""Command-line front end: data ingestion, selection runs, basis expansion,
simulation studies, and reference oracles.

Outputs are CSV tables plus a meta.json recording the seed, a hash of the
configuration, and the library version, so runs can be reproduced and
diffed byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import itertools
import json
import sys
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import families as fam
from . import marginal_engines as engines
from . import simdesigns
from .data_model import ConstraintSet, DesignMatrix, build_cache
from .errors import (
    DegenerateResponse,
    InvalidModel,
    NoConvergence,
    NotConcave,
    NotConcaveAtExpansion,
    NotInvertible,
    RefuseEnumeration,
    SelectionError,
    ToleranceNotMet,
)
from .priors import ModelPriorSpec, ParamPriorSpec
from .search import (
    enumerate_posterior,
    gibbs_models,
    screen_then_refine,
)

_EXIT_CODES = [
    (InvalidModel, 3),
    (NotInvertible, 4),
    (RefuseEnumeration, 5),
    (NotConcaveAtExpansion, 6),
    (NotConcave, 6),
    (NoConvergence, 7),
    (DegenerateResponse, 8),
    (ToleranceNotMet, 9),
]


class ParseError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _read_table(path: str) -> tuple[list[str], list[list[str]], list[int]]:
    """The header, the data rows and the 1-based line number of each data
    row of a CSV file; blank lines are skipped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    # line numbers as one list, not one tuple per row: a large table's
    # tuples would cost more memory than its converted values
    lines = [i + 1 for i, row in enumerate(rows) if row]
    if not lines:
        raise ParseError(f"{path}: empty file")
    rows = [row for row in rows if row]
    header, rows, lines = rows[0], rows[1:], lines[1:]
    width = len(header)
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise ParseError(
                f"{path}:{line}: expected {width} cells, found {len(row)}"
            )
    return [h.strip() for h in header], rows, lines


def _loadtxt_table(path: str) -> Optional[tuple[list[str], np.ndarray]]:
    """The header of a CSV file and its data rows as an (n, len(header))
    float array, parsed by ``np.loadtxt``'s C reader; None when loadtxt
    rejects the file or reads another shape.  The caller then reads the
    file with ``_read_table`` and ``_numeric_table``, which raise
    ``ParseError`` at the first bad line or cell and accept what ``float``
    accepts but loadtxt does not (``1_0``)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if not header:
                return None
            with warnings.catch_warnings():
                # a file without data rows is left to the csv reader
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(
                    fh, np.float64, delimiter=",", comments=None, quotechar='"', ndmin=2
                )
    except (OSError, ValueError, csv.Error):
        return None
    if table.shape[0] == 0 or table.shape[1] != len(header):
        return None
    return [h.strip() for h in header], table


def _numeric_table(
    path: str, header: list[str], rows: list[list[str]], lines: list[int]
) -> np.ndarray:
    """The cells of ``rows`` as an (n, len(header)) float array.

    The cells are converted in one numpy pass, which parses a string as
    ``float`` does.  When it fails, the first cell ``float`` rejects raises
    ``ParseError`` with its line and column.
    """
    cells = itertools.chain.from_iterable(rows)
    try:
        table = np.fromiter(cells, np.float64, count=len(rows) * len(header))
    except ValueError:
        for line, row in zip(lines, rows):
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError as exc:
                    raise ParseError(
                        f"{path}:{line}: column {name!r} has non-numeric value "
                        f"{cell!r}"
                    ) from exc
        raise
    return table.reshape(len(rows), len(header))


def ingest(
    data_path: str,
    groups_path: str,
    response: str,
    status: Optional[str] = None,
    constraints_path: Optional[str] = None,
    intercept_group: Optional[int] = None,
    max_groups: Optional[int] = None,
    standardize: bool = False,
):
    """Read data, group map, and constraints into the engine types.

    Covariate columns are reordered by group id.  Returns the design, the
    response (a survival pair when ``status`` is given), and the constraint
    set (None when no file and no cap was supplied).
    """
    parsed = _loadtxt_table(data_path)
    if parsed is None:
        header, rows, lines = _read_table(data_path)
    else:
        header, table = parsed
    if response not in header:
        raise ParseError(f"{data_path}: response column {response!r} not found")
    if status is not None and status not in header:
        raise ParseError(f"{data_path}: status column {status!r} not found")
    g_header, g_rows, g_lines = _read_table(groups_path)
    if [h.lower() for h in g_header[:2]] != ["column", "group"]:
        raise ParseError(f"{groups_path}: header must be 'column,group'")
    group_of: dict[str, int] = {}
    for line, row in zip(g_lines, g_rows):
        name = row[0].strip()
        if name in group_of:
            raise ParseError(f"{groups_path}:{line}: column {name!r} listed twice")
        if name not in header:
            raise ParseError(
                f"{groups_path}:{line}: column {name!r} not present in the data"
            )
        if name in (response, status):
            raise ParseError(
                f"{groups_path}:{line}: column {name!r} is the response/status"
            )
        try:
            group_of[name] = int(row[1])
        except ValueError as exc:
            raise ParseError(
                f"{groups_path}:{line}: group id {row[1]!r} is not an integer"
            ) from exc
    missing = [
        c for c in header if c not in (response, status) and c not in group_of
    ]
    if missing:
        raise ParseError(
            f"{groups_path}: data columns without a group: {', '.join(missing)}"
        )
    group_ids = sorted(set(group_of.values()))
    id_to_pos = {gid: k for k, gid in enumerate(group_ids)}
    ordered = sorted(
        group_of, key=lambda name: (id_to_pos[group_of[name]], header.index(name))
    )
    if parsed is None:
        table = _numeric_table(data_path, header, rows, lines)
        # the cells' strings take ten times the memory of the table
        del rows, lines
    y = table[:, header.index(response)].copy()
    values = table.take([header.index(name) for name in ordered], axis=1)
    ev = table[:, header.index(status)] != 0.0 if status is not None else None
    if standardize:
        sd = values.std(axis=0, ddof=0)
        mean = values.mean(axis=0)
        keep = sd > 0
        values[:, keep] = (values[:, keep] - mean[keep]) / sd[keep]
    groups = []
    start = 0
    for gid in group_ids:
        size = sum(1 for name in ordered if group_of[name] == gid)
        groups.append((start, start + size))
        start += size
    ig_pos = None
    if intercept_group is not None:
        if intercept_group not in id_to_pos:
            raise ParseError(f"intercept group {intercept_group} not in the group map")
        ig_pos = id_to_pos[intercept_group]
    design = DesignMatrix(values, tuple(groups), intercept_group=ig_pos)
    constraints = None
    if constraints_path is not None or max_groups is not None:
        requires = []
        if constraints_path is not None:
            c_header, c_rows, c_lines = _read_table(constraints_path)
            if [h.lower() for h in c_header[:2]] != ["child", "parent"]:
                raise ParseError(f"{constraints_path}: header must be 'child,parent'")
            for line, row in zip(c_lines, c_rows):
                try:
                    child, parent = int(row[0]), int(row[1])
                except ValueError as exc:
                    raise ParseError(
                        f"{constraints_path}:{line}: group ids must be integers"
                    ) from exc
                for gid in (child, parent):
                    if gid not in id_to_pos:
                        raise ParseError(
                            f"{constraints_path}:{line}: unknown group id {gid}"
                        )
                requires.append((id_to_pos[child], id_to_pos[parent]))
        try:
            constraints = ConstraintSet(
                max_groups=max_groups if max_groups is not None else len(groups),
                requires=tuple(requires),
            )
        except ValueError as exc:
            raise ParseError(f"{constraints_path}: {exc}") from exc
    if ev is not None:
        return design, fam.SurvivalData(log_time=y, observed=ev), constraints
    return design, y, constraints


def _make_family(args) -> fam.FamilySpec:
    if args.family == "logistic":
        return fam.logistic()
    if args.family == "poisson":
        return fam.poisson()
    if args.family == "gaussian":
        return fam.gaussian(args.phi)
    if args.family == "gaussian-unknown":
        return fam.gaussian_unknown()
    raise ParseError(f"unknown family {args.family!r}")


def _make_prior(args) -> ParamPriorSpec:
    return ParamPriorSpec(
        kind=args.prior, g=args.g, phi_prior=(args.phi_prior[0], args.phi_prior[1])
    )


def _config_hash(args) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary_files(out: Path, summary, meta: dict) -> None:
    # the bit matrix as "0"/"1" strings, one per row, in one numpy pass
    digits = np.ascontiguousarray(summary.bits + ord("0"), dtype=np.uint8)
    names = digits.view(f"S{digits.shape[1]}").ravel().astype(str)
    # the bytes csv.writer writes for these rows and _fmt's numbers (no cell
    # needs quoting), formatted row by row as the file is written
    with open(out / "models.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("model,log_score,probability\r\n")
        fh.writelines(
            f"{name},{score:.17g},{prob:.17g}\r\n"
            for name, score, prob in zip(
                names.tolist(),
                summary.log_scores.tolist(),
                summary.probabilities.tolist(),
            )
        )
    inc_header = ["group", "inclusion"]
    raw = summary.inclusion_raw
    if raw is not None:
        inc_header.append("inclusion_raw")
    inc_rows = []
    for j, value in enumerate(summary.inclusion):
        row = [str(j), _fmt(value)]
        if raw is not None:
            row.append(_fmt(raw[j]))
        inc_rows.append(row)
    _write_rows(out / "inclusion.csv", inc_header, inc_rows)
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_select(args) -> int:
    t_start = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    design, response, constraints = ingest(
        args.data,
        args.groups,
        args.response,
        status=args.status,
        constraints_path=args.constraints,
        intercept_group=args.intercept_group,
        max_groups=args.max_groups,
        standardize=args.standardize,
    )
    t_ingest = time.perf_counter()
    prior = _make_prior(args)
    model_prior = ModelPriorSpec(
        n_groups=design.n_groups,
        p_total=design.p,
        c_exponent=args.model_prior_c,
        constraints=constraints,
        intercept_group=design.intercept_group,
    )
    meta = {
        "version": __version__,
        "config_hash": _config_hash(args),
        "seed": args.seed,
        "method": args.method,
        "search": args.search,
        "family": args.family,
        "prior": args.prior,
        "g": args.g,
        "n": design.n,
        "p": design.p,
        "n_groups": design.n_groups,
    }
    method, center = args.method, args.center
    if args.curvature_adjust:
        if args.family == "aft":
            raise ParseError("--curvature-adjust does not apply to family aft")
        if method != "ala":
            raise ParseError("--curvature-adjust applies to method ala")
        method, center = "ala-curvadj", "intercept-mle"
    if args.family == "aft":
        if not isinstance(response, fam.SurvivalData):
            raise ParseError("family aft needs --status")
        family = None
        stats = engines.build_aft_context(design, response)
        meta["tau0"] = stats.tau0
    else:
        if isinstance(response, fam.SurvivalData):
            raise ParseError("a status column was given for a non-survival family")
        family = _make_family(args)
        stats = build_cache(design, response, family, center=center)
        if not family.phi_known:
            meta["phi0"] = fam.phi0_mle(family, stats.y)
    scorer = engines.ModelScorer(
        stats, family, prior, model_prior, method=method, refine_steps=args.refine_steps
    )
    if scorer.curvature is not None:
        meta["rho_hat"] = scorer.curvature.rho_hat
    scorers = [scorer]
    if args.screen_threshold is not None:
        if args.search != "enumerate":
            raise ParseError("screening requires --search enumerate")
        # survivors are rescored by the mode expansion where the prior has one
        refine_method = "la" if prior.kind == "gzellner" else "ala"
        refine = engines.ModelScorer(stats, family, prior, model_prior, refine_method)
        summary = screen_then_refine(
            scorer, refine, threshold=args.screen_threshold, constraints=constraints
        )
        scorers.append(refine)
    elif args.search == "enumerate":
        summary = enumerate_posterior(scorer, constraints)
    elif args.search == "gibbs":
        summary = gibbs_models(
            scorer, n_scans=args.n_scans, seed=args.seed, constraints=constraints
        )
    else:
        raise ParseError(f"unknown search {args.search!r}")
    t_score = time.perf_counter()
    meta["timings"] = {
        "ingest_s": round(t_ingest - t_start, 6),
        "search_s": round(t_score - t_ingest, 6),
        "total_s": round(t_score - t_start, 6),
    }
    meta["n_models_scored"] = sum(s.n_scored for s in scorers)
    meta["support_size"] = summary.bits.shape[0]
    la_scorers = [s for s in scorers if s.method == "la"]
    if la_scorers:
        meta["la_newton_evaluations"] = int(
            sum(s.diagnostic_sum("evaluations") for s in la_scorers)
        )
    _write_summary_files(out, summary, meta)
    return 0


def run_expand(args) -> int:
    parsed = _loadtxt_table(args.data)
    if parsed is None:
        header, rows, lines = _read_table(args.data)
    else:
        header, table = parsed
    skip = {args.response}
    if args.status is not None:
        skip.add(args.status)
    for name in skip:
        if name not in header:
            raise ParseError(f"{args.data}: column {name!r} not found")
    covariates = [h for h in header if h not in skip]
    if parsed is None:
        table = _numeric_table(args.data, header, rows, lines)
    n = table.shape[0]
    skip_list = [args.response] + ([args.status] if args.status else [])
    raw = table.take([header.index(name) for name in covariates], axis=1)
    passthrough = table.take([header.index(name) for name in skip_list], axis=1)
    design, constraints = simdesigns.expand_spline_design(
        raw, dim=args.spline_dim, max_groups=args.max_groups
    )
    p = len(covariates)
    names = list(covariates)
    for j, name in enumerate(covariates):
        names += [f"{name}__dev{k + 1}" for k in range(args.spline_dim)]
    out_header = skip_list + names
    out_rows = []
    for r in range(n):
        cells = [_fmt(v) for v in passthrough[r]]
        cells += [_fmt(v) for v in design.values[r]]
        out_rows.append(cells)
    _write_rows(Path(args.out_data), out_header, out_rows)
    group_rows = [[name, str(j)] for j, name in enumerate(covariates)]
    for j, name in enumerate(covariates):
        group_rows += [
            [f"{name}__dev{k + 1}", str(p + j)] for k in range(args.spline_dim)
        ]
    _write_rows(Path(args.out_groups), ["column", "group"], group_rows)
    constraint_rows = [[str(c), str(par)] for c, par in constraints.requires]
    _write_rows(Path(args.out_constraints), ["child", "parent"], constraint_rows)
    return 0


def _aggregate(rows: list[dict], keys: list[str]) -> dict:
    if not rows:
        return {}
    return {k: float(np.mean([r[k] for r in rows])) for k in keys}


def run_simstudy(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    design = args.design
    rows: list[dict] = []
    if design == "logistic-trend" or design == "poisson-trend":
        adjusted_too = design == "poisson-trend"
        header = [
            "replicate",
            "incl_active",
            "incl_inactive",
            "correct_top",
            "seconds_per_model",
        ]
        if adjusted_too:
            header += ["incl_active_adj", "incl_inactive_adj"]
        for rep in range(args.replicates):
            rng = np.random.default_rng(args.seed + rep)
            maker = (
                simdesigns.poisson_trend if adjusted_too else simdesigns.logistic_trend
            )
            sim = maker(rng, args.n)
            family = fam.poisson() if adjusted_too else fam.logistic()
            cache = build_cache(sim.design, sim.response, family, center="zero")
            scorer = engines.ModelScorer(
                cache,
                family,
                ParamPriorSpec(),
                ModelPriorSpec(n_groups=10, p_total=10),
            )
            t0 = time.perf_counter()
            summary = enumerate_posterior(scorer)
            per_model = (time.perf_counter() - t0) / len(summary.models)
            active = np.array(sim.active_groups)
            inactive = np.setdiff1d(np.arange(10), active)
            truth = tuple(int(j in sim.active_groups) for j in range(10))
            row = {
                "replicate": rep,
                "incl_active": float(np.mean(summary.inclusion[active])),
                "incl_inactive": float(np.mean(summary.inclusion[inactive])),
                "correct_top": float(summary.top(1)[0][0] == truth),
                "seconds_per_model": per_model,
            }
            if adjusted_too:
                cache_adj = build_cache(
                    sim.design,
                    sim.response,
                    family,
                    center="intercept-mle",
                    gram=cache.gram,
                )
                adj = engines.ModelScorer(
                    cache_adj,
                    family,
                    ParamPriorSpec(),
                    ModelPriorSpec(n_groups=10, p_total=10),
                    method="ala-curvadj",
                )
                s_adj = enumerate_posterior(adj)
                row["incl_active_adj"] = float(np.mean(s_adj.inclusion[active]))
                row["incl_inactive_adj"] = float(np.mean(s_adj.inclusion[inactive]))
            rows.append(row)
        agg_keys = header[1:]
    elif design == "gmom-accuracy":
        header = ["replicate", "model_size", "err_ala", "err_la", "seconds_per_model"]
        family = fam.gaussian(1.0)
        for rep in range(args.replicates):
            rng = np.random.default_rng(args.seed + rep)
            sim = simdesigns.gmom_accuracy(rng, args.n)
            cache = build_cache(sim.design, sim.response, family, center="zero")
            prior = ParamPriorSpec(kind="gmom")
            scorer = engines.ModelScorer(cache, family, prior)
            la_scorer = engines.ModelScorer(cache, family, prior, method="la")
            for bits in simdesigns.nested_models(10):
                t0 = time.perf_counter()
                approx = scorer.log_ml(bits)
                elapsed = time.perf_counter() - t0
                la_val = la_scorer.log_ml(bits)
                model = sim.design.model(bits)
                exact = engines.exact_gmom_mc(
                    model,
                    cache,
                    family,
                    prior,
                    n_draws=args.mc_draws,
                    rng=np.random.default_rng(10_000 + rep),
                ).log_ml
                rows.append(
                    {
                        "replicate": rep,
                        "model_size": model.p_gamma,
                        "err_ala": approx - exact,
                        "err_la": la_val - exact,
                        "seconds_per_model": elapsed,
                    }
                )
        agg_keys = ["err_ala", "err_la", "seconds_per_model"]
    elif design in ("aft-scenario1", "aft-scenario2"):
        scenario = 1 if design.endswith("1") else 2
        header = [
            "replicate",
            "censoring_rate",
            "incl_linear_x1",
            "incl_spline_x2",
            "max_inactive_incl",
            "seconds_per_model",
        ]
        for rep in range(args.replicates):
            rng = np.random.default_rng(args.seed + rep)
            x, data, meta_r = simdesigns.aft_scenario(rng, args.n, scenario)
            design_m, constraints = simdesigns.expand_spline_design(x)
            ctx = engines.build_aft_context(design_m, data)
            scorer = engines.AftScorer(
                ctx,
                ParamPriorSpec(),
                ModelPriorSpec(
                    n_groups=design_m.n_groups,
                    p_total=design_m.p,
                    constraints=constraints,
                ),
            )
            t0 = time.perf_counter()
            summary = gibbs_models(
                scorer, n_scans=args.n_scans, seed=args.seed + rep,
                constraints=constraints,
            )
            elapsed = time.perf_counter() - t0
            p_cov = x.shape[1]
            active = {0, p_cov + 1}
            inactive = [j for j in range(design_m.n_groups) if j not in active | {1}]
            rows.append(
                {
                    "replicate": rep,
                    "censoring_rate": meta_r["censoring_rate"],
                    "incl_linear_x1": float(summary.inclusion[0]),
                    "incl_spline_x2": float(summary.inclusion[p_cov + 1]),
                    "max_inactive_incl": float(np.max(summary.inclusion[inactive])),
                    "seconds_per_model": elapsed / max(len(summary.models), 1),
                }
            )
        agg_keys = header[1:]
    else:
        raise ParseError(f"unknown design {design!r}")
    table = [[_fmt(r[k]) if isinstance(r[k], float) else str(r[k]) for k in header] for r in rows]
    _write_rows(out / "replicates.csv", header, table)
    agg = _aggregate(rows, agg_keys)
    _write_rows(
        out / "summary.csv",
        ["metric", "mean"],
        [[k, _fmt(v)] for k, v in agg.items()],
    )
    meta = {
        "version": __version__,
        "config_hash": _config_hash(args),
        "design": design,
        "replicates": args.replicates,
        "n": args.n,
        "seed": args.seed,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_oracle(args) -> int:
    design, response, _ = ingest(
        args.data,
        args.groups,
        args.response,
        status=args.status,
        standardize=args.standardize,
    )
    bits = tuple(int(b) for b in args.model)
    model = design.model(bits)
    prior = _make_prior(args)
    family = _make_family(args)
    cache = build_cache(design, response, family, center="zero")
    if args.oracle == "exact-gaussian":
        score = engines.exact_gaussian_marginal(model, cache, family, prior)
    elif args.oracle == "gmom-quadrature":
        score = engines.exact_gmom_blockdiag(model, cache, family, prior)
    elif args.oracle == "gmom-mc":
        score = engines.exact_gmom_mc(
            model,
            cache,
            family,
            prior,
            n_draws=args.mc_draws,
            rng=np.random.default_rng(args.seed),
        )
    elif args.oracle == "quadrature":
        if model.p_gamma != 1:
            raise ParseError("the quadrature oracle handles single-column models")
        cols = design.columns_for(bits)
        z = design.values[:, cols[0]]
        phi = float(family.phi) if family.phi_known else None
        if phi is None:
            raise ParseError("the quadrature oracle needs a known dispersion")
        a_j = float(z @ z)
        scale = phi * prior.g * design.n / a_j

        def log_integrand(betas):
            vals = np.empty(betas.shape[0])
            for i, b in enumerate(betas):
                vals[i] = fam.loglik(family, z * b, cache.y, phi) - 0.5 * (
                    np.log(2.0 * np.pi * scale) + b * b / scale
                )
            return vals

        log_ml = engines.quadrature_oracle(log_integrand)
        score = engines.MarginalScore(log_ml, "quadrature", np.empty(0), {})
    else:
        raise ParseError(f"unknown oracle {args.oracle!r}")
    payload = {
        "model": "".join(map(str, bits)),
        "oracle": args.oracle,
        "log_ml": score.log_ml,
        "version": __version__,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _add_common_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV with a header row")
    p.add_argument("--groups", required=True, help="CSV mapping column,group")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--status", default=None, help="event indicator column (survival)")
    p.add_argument(
        "--family",
        default="gaussian",
        choices=["logistic", "poisson", "gaussian", "gaussian-unknown", "aft"],
        help="likelihood family",
    )
    p.add_argument("--phi", type=float, default=1.0, help="known gaussian dispersion")
    p.add_argument(
        "--prior", default="gzellner", choices=["gzellner", "gmom"],
        help="coefficient prior",
    )
    p.add_argument("--g", type=float, default=1.0, help="prior scale multiplier")
    p.add_argument(
        "--phi-prior", type=float, nargs=2, default=(0.01, 0.01),
        metavar=("A", "B"), help="inverse-gamma dispersion prior",
    )
    p.add_argument("--standardize", action="store_true", help="scale columns to unit sd")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alaselect",
        description="Bayesian model selection with fast approximate marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="score and rank models for a dataset")
    _add_common_model_flags(p_sel)
    p_sel.add_argument("--constraints", default=None, help="CSV of child,parent pairs")
    p_sel.add_argument(
        "--intercept-group", type=int, default=None,
        help="group id forced into every model",
    )
    p_sel.add_argument(
        "--max-groups", type=int, default=None, help="cap on active groups"
    )
    p_sel.add_argument(
        "--model-prior-c", type=float, default=0.0,
        help="complexity exponent of the model prior",
    )
    p_sel.add_argument(
        "--center", default="zero", choices=["zero", "intercept-mle"],
        help="expansion center",
    )
    p_sel.add_argument(
        "--curvature-adjust", action="store_true",
        help="inflate the expansion Hessian by the response variance ratio",
    )
    p_sel.add_argument(
        "--method",
        default="ala",
        choices=["ala", "ala-refined", "la", "exact-gaussian"],
        help="marginal engine",
    )
    p_sel.add_argument(
        "--refine-steps", type=int, default=1,
        help="likelihood Newton steps before the expansion (ala-refined)",
    )
    p_sel.add_argument(
        "--search", default="enumerate", choices=["enumerate", "gibbs"]
    )
    p_sel.add_argument("--n-scans", type=int, default=1000, help="Gibbs scans")
    p_sel.add_argument(
        "--screen-threshold", type=float, default=None,
        help="drop groups below this inclusion, then rescore survivors",
    )
    p_sel.add_argument("--out", required=True, help="output directory")
    p_sel.set_defaults(func=run_select)

    p_exp = sub.add_parser(
        "expand", help="add spline deviation groups for each covariate"
    )
    p_exp.add_argument("--data", required=True)
    p_exp.add_argument("--response", required=True)
    p_exp.add_argument("--status", default=None)
    p_exp.add_argument("--spline-dim", type=int, default=5)
    p_exp.add_argument("--max-groups", type=int, default=None)
    p_exp.add_argument("--out-data", required=True)
    p_exp.add_argument("--out-groups", required=True)
    p_exp.add_argument("--out-constraints", required=True)
    p_exp.set_defaults(func=run_expand)

    p_sim = sub.add_parser("simstudy", help="run a canned simulation design")
    p_sim.add_argument(
        "--design",
        required=True,
        choices=[
            "logistic-trend",
            "poisson-trend",
            "gmom-accuracy",
            "aft-scenario1",
            "aft-scenario2",
        ],
    )
    p_sim.add_argument("--replicates", type=int, default=10)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-scans", type=int, default=500, help="Gibbs scans (survival)")
    p_sim.add_argument(
        "--mc-draws", type=int, default=100_000, help="draws for the Monte Carlo oracle"
    )
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=run_simstudy)

    p_or = sub.add_parser("oracle", help="reference scores for one model")
    _add_common_model_flags(p_or)
    p_or.add_argument("--model", required=True, help="bit string, one bit per group")
    p_or.add_argument(
        "--oracle",
        default="exact-gaussian",
        choices=["exact-gaussian", "gmom-quadrature", "gmom-mc", "quadrature"],
    )
    p_or.add_argument("--mc-draws", type=int, default=200_000)
    p_or.add_argument("--out", default=None, help="optional JSON output path")
    p_or.set_defaults(func=run_oracle)
    return parser


# glibc's mallopt M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) as a run
# sets them: arrays of up to 8 MiB come from the heap, and up to 16 MiB of
# freed heap stay mapped.
_HEAP_LIMITS = ((-3, 8 << 20), (-1, 16 << 20))


def _reuse_heap_pages() -> None:
    """Fix the C allocator's thresholds so that a run's working arrays
    reuse freed heap pages.  By default glibc maps every array above a
    threshold that it raises only when a larger mapped array is freed, and
    returns the top of the heap to the system beyond twice that, so how
    many pages each ``select`` maps, faults in and unmaps depends on the
    largest array freed so far.  Elsewhere than glibc, a no-op."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    for param, value in _HEAP_LIMITS:
        mallopt(param, value)


def main(argv=None) -> int:
    _reuse_heap_pages()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelectionError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 10
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
