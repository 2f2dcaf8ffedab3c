"""Tests of the benchmark's own code: span arithmetic, per-layer metrics,
hit/miss classification, missing hooks, and the output checks on
smoke-sized inputs.

    python3 -m pytest -q bench/tests
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from alaselect import cli, families
from alaselect import marginal_engines as engines
from alaselect.search import PosteriorSummary

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert list(own) == [3.0, 2.0, 1.0, 4.0]


def _tiny_inputs(tmp_path, seed=3, **truth):
    rng = np.random.default_rng(seed)
    x, y, where = workloads._logistic(rng, 400, 5, 0.5, (1.5, 1.2))
    inp = workloads._singleton_inputs(
        "tiny", seed, tmp_path, x, y, "logistic", ["--search", "enumerate"],
        strong=where, expected_models=2**5, **truth,
    )
    return inp


def _select(inp, out, tracer=None, op=0):
    argv = inp.argv(str(out))
    if tracer is None:
        return cli.main(argv)
    with tracer.operation(op):
        return cli.main(argv)


def test_hits_and_misses_are_told_apart_per_scorer(tmp_path):
    inp = _tiny_inputs(tmp_path)
    fresh = workloads.data_pass(inp)
    original = engines.ModelScorer.__dict__["log_score"]
    tracer = tracing.Tracer()
    first, second = fresh(), fresh()
    with tracer.operation(0):
        first.log_score((1, 0, 0, 0, 0))
        first.log_score((1, 0, 0, 0, 0))
        first.log_score([0, 1, 0, 0, 0])
        first.log_score((0, 1, 0, 0, 0))
        second.log_score((1, 0, 0, 0, 0))
    assert engines.ModelScorer.__dict__["log_score"] is original
    a = tracer.arrays()
    scored = a["name"] == tracer.name_id("marginal_engines.ala.log_score")
    assert list(a["tag"][scored]) == [
        tracing.MISS, tracing.HIT, tracing.MISS, tracing.HIT, tracing.MISS
    ]
    # each log_score call adds the model prior as a child span
    priors = a["name"] == tracer.name_id("priors.log_model_prior_unnorm")
    assert set(a["parent"][priors]) == set(np.flatnonzero(scored))


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    inp = _tiny_inputs(tmp_path)
    tracer = tracing.Tracer()
    assert _select(inp, tmp_path / "out", tracer) == 0
    support, survivors = workloads.support_facts(tmp_path / "out")
    facts = [tracing.OpFacts(0, inp.n_cells, 0, support, 0)]
    metrics = tracing.layer_metrics(tracer, facts)
    names = {m["name"] for m in SPEC["per_layer"]}
    # the run prints the listed ones; the aft and hit metrics serve the
    # workloads that only --workload runs
    assert names <= set(metrics) | {"trace.overhead_frac"}
    assert metrics["marginal_engines.ala.misses"] == (32.0, "count")
    assert metrics["search.models_scored"] == (32.0, "count")
    assert metrics["search.support_size"] == (32.0, "count")
    assert metrics["marginal_engines.hits"] == (0.0, "count")
    assert 0.0 < metrics["search.self_s"][0] < metrics["search.s"][0]
    # a layer the workload does not reach reads 0, not an error
    assert metrics["marginal_engines.la.miss_us.p90"] == (0.0, "us")
    assert metrics["marginal_engines.hit_us.p50"] == (0.0, "us")
    p50 = metrics["marginal_engines.ala.miss_us.p50"][0]
    assert 0.0 < p50 <= metrics["marginal_engines.ala.miss_us.p90"][0]


def test_missing_hook_leaves_its_metrics_out(tmp_path, monkeypatch):
    inp = _tiny_inputs(tmp_path)
    monkeypatch.delattr(families, "grad_hess")
    tracer = tracing.Tracer()
    assert _select(inp, tmp_path / "out", tracer) == 0
    facts = [tracing.OpFacts(0, inp.n_cells, 0, 32, 0)]
    metrics = tracing.layer_metrics(tracer, facts)
    assert "families.grad_hess_s" not in metrics
    assert "families.newton_iters_per_model" not in metrics
    assert "families.loglik_s" in metrics
    assert "search.s" in metrics


def test_search_that_bypasses_log_score_leaves_scorer_metrics_out(
    tmp_path, monkeypatch
):
    inp = _tiny_inputs(tmp_path)

    def batched(scorer, constraints=None):
        models = [tuple(int(b) for b in np.binary_repr(k, 5)) for k in range(32)]
        scores = np.array([scorer.log_ml(m) for m in models])
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        inclusion = np.asarray(models, dtype=float).T @ probs
        return PosteriorSummary(models, scores, probs, inclusion)

    monkeypatch.setattr(cli, "enumerate_posterior", batched)
    tracer = tracing.Tracer()
    assert _select(inp, tmp_path / "out", tracer) == 0
    facts = [tracing.OpFacts(0, inp.n_cells, 0, 32, 0)]
    metrics = tracing.layer_metrics(tracer, facts)
    scorer_side = {k for k in metrics if k.startswith("marginal_engines.")}
    assert scorer_side == {"marginal_engines.build_aft_context_s"}
    assert "search.models_scored" not in metrics
    assert "search.s" in metrics and "cli.ingest_s" in metrics


def test_search_under_an_unknown_name_leaves_search_metrics_out(
    tmp_path, monkeypatch
):
    inp = _tiny_inputs(tmp_path)
    monkeypatch.setattr(tracing, "SEARCHES", ("gibbs_models", "screen_then_refine"))
    tracer = tracing.Tracer()
    assert _select(inp, tmp_path / "out", tracer) == 0
    facts = [tracing.OpFacts(0, inp.n_cells, 0, 32, 0)]
    metrics = tracing.layer_metrics(tracer, facts)
    assert not any(k.startswith("search.") for k in metrics)
    assert "cli.write_s" not in metrics
    assert metrics["marginal_engines.ala.misses"] == (32.0, "count")
    assert "cli.ingest_s" in metrics and "trace.select_s" in metrics


def _rewrite_models(out, edit):
    path = out / "models.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_output_checks_pass_and_catch_each_corruption(tmp_path):
    inp = _tiny_inputs(tmp_path)
    fresh = workloads.data_pass(inp)
    out = tmp_path / "out"
    assert _select(inp, out) == 0
    assert workloads.check_outputs(inp, out, fresh) == []
    pristine = (out / "models.csv").read_text()

    def prob_off(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1e-3)
        return rows

    def score_off(rows):
        rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-6))
        return rows

    def row_dropped(rows):
        return rows[:1] + rows[2:]

    for edit, expected in [
        (prob_off, "probabilities sum"),
        (score_off, "against fresh"),
        (row_dropped, "distinct models"),
    ]:
        (out / "models.csv").write_text(pristine)
        _rewrite_models(out, edit)
        failures = workloads.check_outputs(inp, out, fresh)
        assert any(expected in f for f in failures), (expected, failures)

    (out / "models.csv").write_text(pristine)
    null = next(j for j in range(5) if j not in inp.strong)
    inp.strong = (null,)
    assert any("inclusion" in f for f in workloads.check_outputs(inp, out, fresh))
    inp.strong = ()
    inp.requires = ((1, 0),)
    assert any("without" in f for f in workloads.check_outputs(inp, out, fresh))


def test_screen_survivor_check(tmp_path):
    inp = _tiny_inputs(tmp_path, must_survive=(0, 1))
    inp.select_args = ["--search", "enumerate", "--screen-threshold", "0.5"]
    inp.expected_models = None
    inp.strong = ()
    fresh = workloads.data_pass(inp)
    out = tmp_path / "out"
    assert _select(inp, out) == 0
    support, survivors = workloads.support_facts(out)
    models, _, _ = workloads._read_models(out / "models.csv")
    kept = {j for m in models for j, b in enumerate(m) if b}
    assert survivors == len(kept) < 5 and support == 2 ** len(kept)
    inp.must_survive = tuple(sorted(kept))
    assert workloads.check_outputs(inp, out, fresh) == []
    lost = next(j for j in range(5) if j not in kept)
    inp.must_survive = (lost,)
    assert any("did not survive" in f for f in workloads.check_outputs(inp, out, fresh))


def test_inputs_depend_only_on_the_seed(tmp_path):
    for k, seed in enumerate([5, 5, 6]):
        work = tmp_path / str(k)
        work.mkdir()
        workloads.aft_spline(seed, work)
    same = (tmp_path / "0" / "data.csv").read_bytes()
    assert (tmp_path / "1" / "data.csv").read_bytes() == same
    assert (tmp_path / "2" / "data.csv").read_bytes() != same


def test_workloads_match_the_benchmark_spec():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [w for w in workloads.WORKLOADS if w in listed]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "select_s", "setup_s", "peak_rss_mb"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"
    ))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-logistic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
