"""End-to-end tests of the command-line interface: ingestion, artifact
layout, determinism, error reporting, and agreement with the library."""

import csv
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import comb, logsumexp

from alaselect import cli
from alaselect.cli import main
from alaselect.search import PosteriorSummary

from tests.oracles import conjugate_known_phi_log_ml, make_design


def _num(v):
    return f"{float(v):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


@pytest.fixture
def gaussian_files(tmp_path):
    """A small Gaussian data set with three singleton groups on disk."""
    rng = np.random.default_rng(81)
    design = make_design(rng, 40, [1, 1, 1])
    y = design.values @ np.array([0.9, 0.0, -0.6]) + rng.normal(size=40)
    data = tmp_path / "data.csv"
    groups = tmp_path / "groups.csv"
    rows = [
        [_num(y[i])] + [_num(v) for v in design.values[i]] for i in range(40)
    ]
    _write_csv(data, ["y", "x1", "x2", "x3"], rows)
    _write_csv(groups, ["column", "group"], [["x1", "0"], ["x2", "1"], ["x3", "2"]])
    return data, groups, design, y


def _select(data, groups, out, *extra):
    return main(
        [
            "select",
            "--data",
            str(data),
            "--groups",
            str(groups),
            "--response",
            "y",
            "--out",
            str(out),
            *extra,
        ]
    )


class TestSelectCommand:
    """The main scoring pipeline through the command line."""

    def test_scores_match_the_conjugate_oracle_with_the_size_prior(
        self, gaussian_files, tmp_path
    ):
        data, groups, design, y = gaussian_files
        out = tmp_path / "run"
        assert _select(data, groups, out, "--family", "gaussian") == 0
        header, rows = _read_csv(out / "models.csv")
        assert header == ["model", "log_score", "probability"]
        assert len(rows) == 8
        logs = []
        for model_str, log_score, _ in rows:
            bits = tuple(int(b) for b in model_str)
            k = sum(bits)
            expected = conjugate_known_phi_log_ml(
                design, bits, y, g=1.0, phi=1.0
            ) - np.log(comb(3, k))
            np.testing.assert_allclose(float(log_score), expected, atol=1e-8)
            logs.append(float(log_score))
        probs = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(probs, np.exp(logs - logsumexp(logs)), atol=1e-12)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_a_run_in_process_leaves_no_parser_behind(self, gaussian_files, tmp_path):
        """Repeated in-process ``select`` runs, as the benchmark makes, build
        the parser and look up the allocator's ``mallopt``, webs of
        reference cycles, once: no run leaves one for the cyclic collector
        to find."""
        data, groups, _, _ = gaussian_files
        assert _select(data, groups, tmp_path / "warm", "--family", "gaussian") == 0
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert _select(data, groups, tmp_path / "run", "--family", "gaussian") == 0
            gc.collect()
            modules = {type(obj).__module__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not modules & {"argparse", "ctypes", "_ctypes"}

    def test_inclusion_file_is_consistent_with_the_model_table(
        self, gaussian_files, tmp_path
    ):
        data, groups, _, _ = gaussian_files
        out = tmp_path / "run"
        _select(data, groups, out, "--family", "gaussian")
        _, model_rows = _read_csv(out / "models.csv")
        header, inc_rows = _read_csv(out / "inclusion.csv")
        assert header == ["group", "inclusion"]
        for j, (group, inclusion) in enumerate(inc_rows):
            direct = sum(
                float(p) for bits, _, p in model_rows if bits[j] == "1"
            )
            assert int(group) == j
            np.testing.assert_allclose(float(inclusion), direct, atol=1e-10)

    def test_rerun_with_the_same_seed_is_byte_identical(
        self, gaussian_files, tmp_path
    ):
        data, groups, _, _ = gaussian_files
        out = tmp_path / "run"
        args = ("--family", "gaussian", "--search", "gibbs",
                "--n-scans", "200", "--seed", "5")
        _select(data, groups, out, *args)
        first = {
            name: (out / name).read_bytes()
            for name in ("models.csv", "inclusion.csv")
        }
        meta1 = json.loads((out / "meta.json").read_text())
        _select(data, groups, out, *args)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob
        meta2 = json.loads((out / "meta.json").read_text())
        meta1.pop("timings")
        meta2.pop("timings")
        assert meta1 == meta2

    def test_gibbs_search_reports_raw_frequencies_too(self, gaussian_files, tmp_path):
        data, groups, _, _ = gaussian_files
        out = tmp_path / "run"
        _select(data, groups, out, "--family", "gaussian", "--search", "gibbs",
                "--n-scans", "100")
        header, rows = _read_csv(out / "inclusion.csv")
        assert header == ["group", "inclusion", "inclusion_raw"]
        for row in rows:
            assert 0.0 <= float(row[2]) <= 1.0

    def test_expansion_and_exact_methods_agree_on_gaussian_data(
        self, gaussian_files, tmp_path
    ):
        data, groups, _, _ = gaussian_files
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _select(data, groups, out_a, "--family", "gaussian", "--method", "ala")
        _select(data, groups, out_b, "--family", "gaussian", "--method", "exact-gaussian")
        _, rows_a = _read_csv(out_a / "models.csv")
        _, rows_b = _read_csv(out_b / "models.csv")
        for (m1, s1, _), (m2, s2, _) in zip(rows_a, rows_b):
            assert m1 == m2
            np.testing.assert_allclose(float(s1), float(s2), atol=1e-8)

    def test_meta_records_the_run_configuration(self, gaussian_files, tmp_path):
        data, groups, _, _ = gaussian_files
        out = tmp_path / "run"
        _select(data, groups, out, "--family", "gaussian")
        meta = json.loads((out / "meta.json").read_text())
        for key in ("version", "config_hash", "seed", "method", "search", "family",
                    "prior", "g", "n", "p", "n_groups", "timings", "n_models_scored"):
            assert key in meta
        assert meta["n"] == 40 and meta["p"] == 3 and meta["n_groups"] == 3
        assert meta["n_models_scored"] == 8
        assert meta["support_size"] == 8
        assert "la_newton_evaluations" not in meta
        out_la = tmp_path / "run-la"
        _select(data, groups, out_la, "--family", "gaussian", "--method", "la")
        meta = json.loads((out_la / "meta.json").read_text())
        # a Gaussian log-likelihood is quadratic: from the start read off the
        # cache, one Newton step per non-empty model reaches the mode
        assert meta["la_newton_evaluations"] == 7

    def test_gibbs_meta_counts_scored_models_beyond_the_support(
        self, gaussian_files, tmp_path
    ):
        """Every Gibbs step scores both states it compares, so the scorer
        evaluates models that the sampled support never contains."""
        data, groups, _, _ = gaussian_files
        out = tmp_path / "run"
        _select(data, groups, out, "--family", "gaussian", "--search", "gibbs",
                "--n-scans", "100")
        meta = json.loads((out / "meta.json").read_text())
        _, rows = _read_csv(out / "models.csv")
        assert meta["support_size"] == len(rows)
        assert meta["support_size"] < meta["n_models_scored"] <= 8

    def test_unknown_dispersion_family_records_the_null_estimate(self, tmp_path):
        # The expansion point needs most of the response variance left in
        # the residual, so keep the signal weak.
        rng = np.random.default_rng(3)
        n = 60
        x = rng.normal(size=(n, 2))
        y = 0.15 * x[:, 0] + rng.normal(size=n)
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(data, ["y", "x1", "x2"],
                   [[_num(y[i]), _num(x[i, 0]), _num(x[i, 1])] for i in range(n)])
        _write_csv(groups, ["column", "group"], [["x1", "0"], ["x2", "1"]])
        out = tmp_path / "run"
        assert _select(data, groups, out, "--family", "gaussian-unknown") == 0
        meta = json.loads((out / "meta.json").read_text())
        np.testing.assert_allclose(meta["phi0"], np.mean(y**2), atol=1e-10)

    def test_constraints_restrict_the_enumerated_models(
        self, gaussian_files, tmp_path
    ):
        data, groups, _, _ = gaussian_files
        cons = tmp_path / "cons.csv"
        _write_csv(cons, ["child", "parent"], [["1", "0"]])
        out = tmp_path / "run"
        _select(data, groups, out, "--family", "gaussian", "--constraints", str(cons))
        _, rows = _read_csv(out / "models.csv")
        for model_str, _, _ in rows:
            assert not (model_str[1] == "1" and model_str[0] == "0")
        assert len(rows) == 6

    def test_a_negative_refine_step_count_is_a_usage_error(
        self, gaussian_files, tmp_path, capsys
    ):
        data, groups, _, _ = gaussian_files
        rc = _select(
            data, groups, tmp_path / "r", "--method", "ala-refined",
            "--refine-steps", "-3",
        )
        assert rc == 2
        assert "refine_steps" in capsys.readouterr().err
        assert not (tmp_path / "r" / "models.csv").exists()

    def test_screening_requires_enumeration(self, gaussian_files, tmp_path, capsys):
        data, groups, _, _ = gaussian_files
        rc = _select(data, groups, tmp_path / "r", "--family", "gaussian",
                     "--search", "gibbs", "--screen-threshold", "0.5")
        assert rc == 2
        assert "enumerate" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_a_non_finite_screen_threshold_is_a_usage_error(
        self, gaussian_files, tmp_path, capsys, threshold
    ):
        """No inclusion reaches a NaN threshold, which would pass for a
        screen that keeps the null model only."""
        data, groups, _, _ = gaussian_files
        rc = _select(data, groups, tmp_path / "r", "--screen-threshold", threshold)
        assert rc == 2
        assert f"--screen-threshold {threshold} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_curvature_adjustment_records_the_variance_ratio(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 120
        x = rng.normal(size=(n, 2))
        lam = np.exp(0.4 * x[:, 0])
        y = rng.poisson(lam).astype(float)
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(data, ["y", "x1", "x2"],
                   [[_num(y[i]), _num(x[i, 0]), _num(x[i, 1])] for i in range(n)])
        _write_csv(groups, ["column", "group"], [["x1", "0"], ["x2", "1"]])
        out = tmp_path / "run"
        rc = _select(data, groups, out, "--family", "poisson", "--curvature-adjust")
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["rho_hat"] > 0.0


class TestSurvivalSelect:
    """Survival scoring through the command line."""

    def test_survival_run_writes_the_baseline_scale(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 60
        x = rng.normal(size=(n, 2))
        log_t = 0.8 * x[:, 0] + rng.normal(size=n)
        cutoff = np.quantile(log_t, 0.6)
        observed = (log_t <= cutoff).astype(int)
        log_time = np.minimum(log_t, cutoff)
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(
            data,
            ["t", "event", "x1", "x2"],
            [
                [_num(log_time[i]), str(observed[i]), _num(x[i, 0]), _num(x[i, 1])]
                for i in range(n)
            ],
        )
        _write_csv(groups, ["column", "group"], [["x1", "0"], ["x2", "1"]])
        out = tmp_path / "run"
        rc = main([
            "select", "--data", str(data), "--groups", str(groups),
            "--response", "t", "--status", "event", "--family", "aft",
            "--out", str(out),
        ])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["tau0"] > 0.0
        _, rows = _read_csv(out / "models.csv")
        assert len(rows) == 4

    def test_curvature_adjustment_is_a_usage_error_for_survival(
        self, tmp_path, capsys
    ):
        rng = np.random.default_rng(12)
        n = 40
        x = rng.normal(size=n)
        log_t = 0.5 * x + rng.normal(size=n)
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(
            data,
            ["t", "event", "x1"],
            [[_num(log_t[i]), str(int(i % 3 > 0)), _num(x[i])] for i in range(n)],
        )
        _write_csv(groups, ["column", "group"], [["x1", "0"]])
        out = tmp_path / "run"
        rc = main([
            "select", "--data", str(data), "--groups", str(groups),
            "--response", "t", "--status", "event", "--family", "aft",
            "--curvature-adjust", "--out", str(out),
        ])
        assert rc == 2
        assert "--curvature-adjust" in capsys.readouterr().err
        assert not (out / "models.csv").exists()

    def test_survival_family_without_status_is_a_usage_error(
        self, gaussian_files, tmp_path, capsys
    ):
        data, groups, _, _ = gaussian_files
        rc = _select(data, groups, tmp_path / "r", "--family", "aft")
        assert rc == 2
        assert "status" in capsys.readouterr().err


class TestIngestErrors:
    """Malformed inputs fail with exit code 2 and a located message."""

    def test_constraint_cycle_is_reported(self, gaussian_files, tmp_path, capsys):
        data, groups, _, _ = gaussian_files
        cons = tmp_path / "cons.csv"
        _write_csv(cons, ["child", "parent"], [["0", "1"], ["1", "0"]])
        rc = _select(data, groups, tmp_path / "r", "--constraints", str(cons))
        assert rc == 2
        assert "cycle" in capsys.readouterr().err

    def test_bad_cell_points_at_the_line(self, tmp_path, capsys):
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(data, ["y", "x1"], [["1.0", "2.0"], ["oops", "3.0"]])
        _write_csv(groups, ["column", "group"], [["x1", "0"]])
        rc = _select(data, groups, tmp_path / "r")
        assert rc == 2
        err = capsys.readouterr().err
        assert ":3:" in err

    def test_wrong_groups_header_is_rejected(self, gaussian_files, tmp_path, capsys):
        data, _, _, _ = gaussian_files
        groups = tmp_path / "g.csv"
        _write_csv(groups, ["col", "grp"], [["x1", "0"]])
        rc = _select(data, groups, tmp_path / "r")
        assert rc == 2
        assert "column,group" in capsys.readouterr().err.replace('"', "")

    def test_data_column_without_a_group_is_rejected(
        self, gaussian_files, tmp_path, capsys
    ):
        data, _, _, _ = gaussian_files
        groups = tmp_path / "g.csv"
        _write_csv(groups, ["column", "group"], [["x1", "0"], ["x3", "1"]])
        rc = _select(data, groups, tmp_path / "r")
        assert rc == 2
        assert "data columns without a group: x2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["2.0", "2_0"], ids=["loadtxt", "csv-reader"])
    def test_a_duplicated_data_column_is_rejected(self, tmp_path, capsys, cell):
        """A header that names a column twice fails in ``select`` and in
        ``expand``, whichever reader parses the file."""
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(
            data, ["y", "x1", "x1"], [["1.0", cell, "3.0"], ["0.5", "1.0", "4.0"]]
        )
        _write_csv(groups, ["column", "group"], [["x1", "0"]])
        assert _select(data, groups, tmp_path / "r") == 2
        assert "column 'x1' appears twice" in capsys.readouterr().err
        assert not (tmp_path / "r" / "models.csv").exists()
        assert not (tmp_path / "r").exists()
        rc = main([
            "expand", "--data", str(data), "--response", "y",
            "--out-data", str(tmp_path / "e.csv"),
            "--out-groups", str(tmp_path / "eg.csv"),
            "--out-constraints", str(tmp_path / "ec.csv"),
        ])
        assert rc == 2
        assert "column 'x1' appears twice" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_a_negative_group_cap_is_rejected(self, gaussian_files, tmp_path, capsys):
        data, groups, _, _ = gaussian_files
        rc = _select(data, groups, tmp_path / "r", "--max-groups", "-1")
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: max_groups must be >= 0, got -1" in err
        assert "None" not in err
        assert not (tmp_path / "r").exists()

    def test_a_cap_that_admits_no_model_is_rejected(
        self, gaussian_files, tmp_path, capsys
    ):
        """With group 0 forced into every model, a cap of zero groups
        admits none."""
        data, groups, _, _ = gaussian_files
        rc = _select(
            data, groups, tmp_path / "r", "--max-groups", "0", "--intercept-group", "0"
        )
        assert rc == 2
        assert "no model is admissible" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_a_gibbs_run_over_no_admissible_model_is_rejected(
        self, gaussian_files, tmp_path, capsys
    ):
        """Gibbs gives enumeration's usage error when its intercept-only
        start breaks the cap, not a scoring error from that start."""
        data, groups, _, _ = gaussian_files
        rc = _select(
            data, groups, tmp_path / "r", "--search", "gibbs",
            "--max-groups", "0", "--intercept-group", "0",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: no model is admissible under the constraints" in err
        assert "violates" not in err
        assert not (tmp_path / "r").exists()

    def test_missing_response_column(self, gaussian_files, tmp_path, capsys):
        data, groups, _, _ = gaussian_files
        rc = main([
            "select", "--data", str(data), "--groups", str(groups),
            "--response", "nope", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_degenerate_response_has_its_own_exit_code(self, tmp_path):
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        rows = [["0", f"{0.1 * i}"] for i in range(10)]
        _write_csv(data, ["y", "x1"], rows)
        _write_csv(groups, ["column", "group"], [["x1", "0"]])
        rc = main([
            "select", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--family", "logistic", "--center", "intercept-mle",
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 8


def _non_finite_files(tmp_path, cell, column="x1", reader="loadtxt"):
    """A 30-row file with a logistic response, an event column and two
    covariates, whose row 13 (line 15) holds ``cell`` in ``column``; a
    ``1_0`` cell on line 2 sends it to the csv reader."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    rows = [
        [str(i % 2), str(int(i % 3 > 0)), _num(x[i, 0]), _num(x[i, 1])]
        for i in range(30)
    ]
    rows[13][["y", "event", "x1", "x2"].index(column)] = cell
    if reader == "csv":
        rows[0][1] = "1_0"
    data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
    _write_csv(data, ["y", "event", "x1", "x2"], rows)
    _write_csv(groups, ["column", "group"], [["x1", "0"], ["x2", "1"]])
    return data, groups


class TestNonFiniteCells:
    """A data cell that parses to NaN or an infinity is refused where the
    file is read, with its file, line and column, by every command that
    reads a data file."""

    @pytest.mark.parametrize("reader", ["loadtxt", "csv"])
    @pytest.mark.parametrize(
        "extra",
        [
            ("--family", "logistic", "--search", "gibbs", "--n-scans", "5"),
            ("--family", "logistic", "--search", "enumerate"),
            ("--family", "logistic", "--method", "la"),
            ("--family", "aft", "--status", "event"),
        ],
        ids=["gibbs", "enumerate", "la", "aft"],
    )
    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e999"])
    def test_select_refuses_a_non_finite_cell(self, tmp_path, capsys, reader, extra, cell):
        """Without the check, Gibbs wrote NaN inclusions, enumeration found
        every model at -inf, ``la`` had no finite start and a NaN status
        counted as an event."""
        column = "event" if "aft" in extra else "x1"
        data, groups = _non_finite_files(tmp_path, cell, column, reader)
        rc = _select(data, groups, tmp_path / "r", *extra)
        assert rc == 2
        value = {"nan": "nan", "inf": "inf", "-1e999": "-inf"}[cell]
        assert f"{data}:15: column {column!r} has non-finite value {value}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("reader", ["loadtxt", "csv"])
    def test_expand_and_oracle_refuse_a_non_finite_cell(self, tmp_path, capsys, reader):
        data, groups = _non_finite_files(tmp_path, "nan", "x2", reader)
        rc = main([
            "expand", "--data", str(data), "--response", "y", "--status", "event",
            "--out-data", str(tmp_path / "e.csv"),
            "--out-groups", str(tmp_path / "eg.csv"),
            "--out-constraints", str(tmp_path / "ec.csv"),
        ])
        assert rc == 2
        assert f"{data}:15: column 'x2' has non-finite value nan" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
        rc = main([
            "oracle", "--data", str(data), "--groups", str(groups), "--response", "y",
            "--status", "event", "--model", "11",
        ])
        assert rc == 2
        assert f"{data}:15: column 'x2' has non-finite value nan" in capsys.readouterr().err


class TestNumericIngest:
    """The data file is parsed by ``np.loadtxt`` when it accepts the file,
    and by the csv reader with ``float`` otherwise, to the same table."""

    @pytest.mark.parametrize(
        "text",
        [
            "y,x1\n1.5,2\n-3e-2,4\n",
            "y,x1\r\n1,2\r\n3,4",
            'y,"x1"\n"1",2\n\n 3 , nan\n',
        ],
        ids=["plain", "crlf", "quotes-blank-spaces"],
    )
    def test_loadtxt_reads_what_the_csv_reader_reads(self, tmp_path, text):
        path = str(tmp_path / "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        header, table = cli._loadtxt_table(path)
        csv_header, rows, lines = cli._read_table(path)
        assert header == csv_header
        np.testing.assert_array_equal(
            table, cli._numeric_table(path, csv_header, rows, lines)
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["1_0", "2"], ["3", "4"]], None),
            ([["1", "2"], ["3"]], ":3: expected 2 cells, found 1"),
            ([["1", "2", "3"], ["4", "5", "6"]], ":2: expected 2 cells, found 3"),
            ([["1", "2"], ["3", "x"]], ":3: column 'x1' has non-numeric value 'x'"),
            # no comment syntax: '#' is a cell's character like any other
            ([["1", "2"], ["3", "4#5"]], ":3: column 'x1' has non-numeric value '4#5'"),
        ],
    )
    def test_files_loadtxt_rejects_take_the_csv_reader(self, tmp_path, rows, message):
        data, groups = tmp_path / "d.csv", tmp_path / "g.csv"
        _write_csv(data, ["y", "x1"], rows)
        _write_csv(groups, ["column", "group"], [["x1", "0"]])
        assert cli._loadtxt_table(str(data)) is None
        if message is None:
            # float reads 1_0; loadtxt does not
            design, y, _ = cli.ingest(str(data), str(groups), "y")
            np.testing.assert_array_equal(y, [10.0, 3.0])
            np.testing.assert_array_equal(design.values[:, 0], [2.0, 4.0])
        else:
            with pytest.raises(cli.ParseError, match=message):
                cli.ingest(str(data), str(groups), "y")


class TestExpandCommand:
    """Spline expansion of raw covariates with hierarchy constraints."""

    def _expand(self, tmp_path, n=80, dim=3):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(n, 2))
        y = x @ np.array([0.5, 0.0]) + rng.normal(size=n)
        data = tmp_path / "raw.csv"
        _write_csv(
            data,
            ["y", "u", "v"],
            [[_num(y[i]), _num(x[i, 0]), _num(x[i, 1])] for i in range(n)],
        )
        out_data = tmp_path / "expanded.csv"
        out_groups = tmp_path / "egroups.csv"
        out_cons = tmp_path / "econs.csv"
        rc = main([
            "expand", "--data", str(data), "--response", "y",
            "--spline-dim", str(dim),
            "--out-data", str(out_data), "--out-groups", str(out_groups),
            "--out-constraints", str(out_cons),
        ])
        assert rc == 0
        return x, y, out_data, out_groups, out_cons

    def test_deviation_blocks_are_orthogonal_to_the_linear_part(self, tmp_path):
        x, _, out_data, _, _ = self._expand(tmp_path)
        header, rows = _read_csv(out_data)
        mat = np.array([[float(c) for c in row] for row in rows])
        cols = {name: mat[:, i] for i, name in enumerate(header)}
        ones = np.ones(len(rows))
        for stem in ("u", "v"):
            for k in (1, 2, 3):
                dev = cols[f"{stem}__dev{k}"]
                assert abs(dev @ ones) < 1e-8
                assert abs(dev @ cols[stem]) < 1e-8

    def test_raw_columns_round_trip_exactly(self, tmp_path):
        """Values are written with seventeen significant digits, so the
        original doubles are recovered bit for bit."""
        x, y, out_data, _, _ = self._expand(tmp_path)
        header, rows = _read_csv(out_data)
        mat = np.array([[float(c) for c in row] for row in rows])
        np.testing.assert_array_equal(mat[:, header.index("u")], x[:, 0])
        np.testing.assert_array_equal(mat[:, header.index("v")], x[:, 1])
        np.testing.assert_array_equal(mat[:, header.index("y")], y)

    def test_constraints_tie_deviations_to_their_linear_groups(self, tmp_path):
        _, _, _, out_groups, out_cons = self._expand(tmp_path)
        _, group_rows = _read_csv(out_groups)
        _, cons_rows = _read_csv(out_cons)
        assert [r for r in cons_rows] == [["2", "0"], ["3", "1"]]
        # groups: u -> 0, v -> 1, u deviations -> 2, v deviations -> 3
        mapping = {name: int(g) for name, g in group_rows}
        assert mapping["u"] == 0 and mapping["v"] == 1
        assert mapping["u__dev1"] == 2 and mapping["v__dev3"] == 3

    def test_expanded_run_respects_the_hierarchy(self, tmp_path):
        _, _, out_data, out_groups, out_cons = self._expand(tmp_path)
        out = tmp_path / "sel"
        rc = main([
            "select", "--data", str(out_data), "--groups", str(out_groups),
            "--response", "y", "--constraints", str(out_cons),
            "--family", "gaussian", "--out", str(out),
        ])
        assert rc == 0
        _, rows = _read_csv(out / "models.csv")
        for model_str, _, _ in rows:
            bits = [int(b) for b in model_str]
            assert not (bits[2] and not bits[0])
            assert not (bits[3] and not bits[1])

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_a_spline_dimension_below_one_is_rejected(self, tmp_path, capsys, dim):
        data = tmp_path / "raw.csv"
        _write_csv(data, ["y", "u"], [["1.0", "0.5"], ["2.0", "1.5"], ["0.0", "-1"]])
        rc = main([
            "expand", "--data", str(data), "--response", "y", "--spline-dim", dim,
            "--out-data", str(tmp_path / "e.csv"),
            "--out-groups", str(tmp_path / "eg.csv"),
            "--out-constraints", str(tmp_path / "ec.csv"),
        ])
        assert rc == 2
        assert f"--spline-dim must be at least 1, got {dim}" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()


class TestSimstudyCommand:
    """Canned simulation designs run end to end."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simstudy", "--design", "logistic-trend", "--replicates", "0"],
            ["simstudy", "--design", "gmom-accuracy", "--mc-draws", "0"],
            ["oracle", "--data", "d.csv", "--groups", "g.csv", "--response", "y",
             "--model", "1", "--oracle", "gmom-mc", "--mc-draws", "-2"],
        ],
        ids=["replicates", "simstudy-draws", "oracle-draws"],
    )
    def test_a_count_below_one_is_a_usage_error(self, tmp_path, capsys, argv):
        """Zero replicates wrote tables of headers only, and zero draws
        failed in the Monte Carlo reference with numpy's error."""
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as stopped:
            main([*argv, "--out", str(out)])
        assert stopped.value.code == 2
        name, value = argv[-2:]
        assert f"argument {name}: must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_replicate_summarizes_inclusion(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simstudy", "--design", "logistic-trend", "--replicates", "2",
            "--n", "150", "--out", str(out),
        ])
        assert rc == 0
        header, rows = _read_csv(out / "replicates.csv")
        assert len(rows) == 2
        assert "incl_active" in header and "incl_inactive" in header
        _, srows = _read_csv(out / "summary.csv")
        assert len(srows) >= 1
        meta = json.loads((out / "meta.json").read_text())
        assert meta["design"] == "logistic-trend"
        assert meta["replicates"] == 2


class TestOracleCommand:
    """Reference scores for a single model from the command line."""

    def test_exact_gaussian_matches_the_independent_route(
        self, gaussian_files, tmp_path, capsys
    ):
        data, groups, design, y = gaussian_files
        out = tmp_path / "oracle.json"
        rc = main([
            "oracle", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--model", "101",
            "--oracle", "exact-gaussian", "--family", "gaussian",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        expected = conjugate_known_phi_log_ml(design, (1, 0, 1), y, g=1.0, phi=1.0)
        np.testing.assert_allclose(payload["log_ml"], expected, atol=1e-8)
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    @pytest.mark.parametrize("model", ["102", "1x1"])
    def test_a_model_bit_other_than_0_or_1_is_rejected(
        self, gaussian_files, tmp_path, capsys, model
    ):
        """Read as nonzero-means-active, ``102`` would score model ``101``
        under the name ``102``."""
        data, groups, _, _ = gaussian_files
        out = tmp_path / "oracle.json"
        rc = main([
            "oracle", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--model", model, "--family", "gaussian",
            "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--model {model!r} holds a bit other than 0 or 1" in err
        assert not out.exists()

    def test_quadrature_oracle_needs_one_column(self, gaussian_files, tmp_path, capsys):
        data, groups, _, _ = gaussian_files
        rc = main([
            "oracle", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--model", "110", "--oracle", "quadrature",
        ])
        assert rc == 2
        assert "single-column" in capsys.readouterr().err

    def test_quadrature_agrees_with_the_exact_value_for_gaussian(
        self, gaussian_files, tmp_path, capsys
    ):
        data, groups, design, y = gaussian_files
        rc = main([
            "oracle", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--model", "100", "--oracle", "quadrature",
            "--family", "gaussian",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        expected = conjugate_known_phi_log_ml(design, (1, 0, 0), y, g=1.0, phi=1.0)
        np.testing.assert_allclose(payload["log_ml"], expected, atol=1e-7)


class TestConsoleEntryPoint:
    """The installed script is importable and self-describing."""

    def test_help_runs_in_a_subprocess(self):
        # the child imports the package this process imported
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "alaselect.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "select" in proc.stdout


class TestModelsFile:
    """models.csv is written in one formatting pass with the bytes of
    ``csv.writer`` and ``_fmt``."""

    def test_rows_match_the_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(40, 7), dtype=np.uint8)
        log_scores = rng.normal(scale=300.0, size=40)
        log_scores[[2, 17]] = -np.inf
        probabilities = np.exp(log_scores - logsumexp(log_scores))
        probabilities[[5, 6]] = 0.0
        probabilities[7] = 5e-324
        summary = PosteriorSummary(
            bits=bits,
            log_scores=log_scores,
            probabilities=probabilities,
            inclusion=bits.T @ probabilities,
        )
        cli._write_summary_files(tmp_path, summary, {})
        reference = tmp_path / "reference.csv"
        _write_csv(
            reference,
            ["model", "log_score", "probability"],
            [
                ["".join(map(str, row)), cli._fmt(s), cli._fmt(p)]
                for row, s, p in zip(bits.tolist(), log_scores, probabilities)
            ],
        )
        written = (tmp_path / "models.csv").read_bytes()
        assert b"-inf" in written and b",0\r\n" in written
        assert written == reference.read_bytes()


# Imported by no ``select`` run: scipy.optimize serves the quadrature
# oracle and scipy.interpolate the spline expansion, and both pull in the
# rest.
_HEAVY = (
    "scipy.optimize",
    "scipy.interpolate",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.fft",
    "scipy.stats",
    "scipy.integrate",
)

# Prints the scipy modules loaded by the imports, then those loaded once
# every run has finished.
_FOOTPRINT_SCRIPT = """
import json, sys
import alaselect
from alaselect import cli, simdesigns
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""

_DEFERRED_SCRIPT = """
import json, sys
import numpy as np
from alaselect import cli, simdesigns
loaded = []
assert cli.main(json.loads(sys.argv[1])) == 0
loaded.append("scipy.optimize" in sys.modules)
design, _ = simdesigns.expand_spline_design(
    np.random.default_rng(0).normal(size=(60, 2)), dim=3
)
assert design.values.shape == (60, 8)
loaded.append("scipy.interpolate" in sys.modules)
print(json.dumps(loaded))
"""


def _fresh_interpreter(script, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImportFootprint:
    """Importing the package loads no scipy; a regression ``select`` runs on
    numpy alone, a survival one loads scipy.special, and the heavier scipy
    subpackages load only on the paths that use them."""

    def _files(self, tmp_path, name, response, x):
        data, groups = tmp_path / f"{name}.csv", tmp_path / f"{name}-groups.csv"
        header = list(response) + [f"x{j}" for j in range(x.shape[1])]
        columns = np.column_stack(list(response.values()) + [x])
        _write_csv(data, header, [[_num(v) for v in row] for row in columns])
        _write_csv(
            groups, ["column", "group"],
            [[f"x{j}", str(j)] for j in range(x.shape[1])],
        )
        return ["--data", str(data), "--groups", str(groups)]

    def test_regression_runs_load_no_scipy(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 60
        x = rng.normal(size=(n, 3))
        eta = x @ np.array([1.0, 0.0, -0.8])
        logistic = self._files(
            tmp_path, "logistic", {"y": rng.random(n) < 1 / (1 + np.exp(-eta))}, x
        )
        poisson = self._files(tmp_path, "poisson", {"y": rng.poisson(np.exp(eta))}, x)
        gaussian = self._files(tmp_path, "gaussian", {"y": eta + rng.normal(size=n)}, x)
        # a weak signal, so that every zero expansion with unknown phi exists
        weak = self._files(tmp_path, "weak", {"y": 0.2 * eta + rng.normal(size=n)}, x)
        out = ["--out", str(tmp_path / "out")]
        runs = [
            ["select", *logistic, "--response", "y", "--family", "logistic", *out],
            ["select", *logistic, "--response", "y", "--family", "logistic",
             "--center", "intercept-mle", *out],
            ["select", *poisson, "--response", "y", "--family", "poisson",
             "--screen-threshold", "0.5", *out],
            ["select", *logistic, "--response", "y", "--family", "logistic",
             "--search", "gibbs", "--n-scans", "50", *out],
            ["select", *gaussian, "--response", "y", "--family", "gaussian", *out],
            ["select", *gaussian, "--response", "y", "--family", "gaussian",
             "--method", "exact-gaussian", *out],
            ["select", *weak, "--response", "y", "--family", "gaussian-unknown", *out],
        ]
        imported, loaded = _fresh_interpreter(_FOOTPRINT_SCRIPT, runs)
        assert imported == [] and loaded == []

    def test_survival_run_loads_scipy_special(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 60
        x = rng.normal(size=(n, 3))
        log_t = 0.5 * x[:, 0] + rng.normal(size=n)
        aft = self._files(
            tmp_path, "aft", {"t": log_t, "event": (np.arange(n) % 4 > 0)}, x
        )
        runs = [
            ["select", *aft, "--response", "t", "--status", "event",
             "--family", "aft", "--out", str(tmp_path / "out")],
        ]
        _, loaded = _fresh_interpreter(_FOOTPRINT_SCRIPT, runs)
        assert "scipy.special" in loaded
        assert [m for m in loaded if m.startswith(_HEAVY)] == []

    def test_deferred_imports_load_where_they_are_used(self, gaussian_files):
        data, groups, _, _ = gaussian_files
        argv = [
            "oracle", "--data", str(data), "--groups", str(groups),
            "--response", "y", "--model", "100", "--oracle", "quadrature",
            "--family", "gaussian",
        ]
        assert _fresh_interpreter(_DEFERRED_SCRIPT, argv) == [True, True]


# Minor page faults of each round of twenty 320-KB arrays (6.4 MB) made and
# freed, with the thresholds of a run when argv is true; 6.4 MB of fresh
# pages is about 1600 faults.
_HEAP_SCRIPT = """
import json, resource, sys
import numpy as np
from alaselect import cli
if json.loads(sys.argv[1]):
    cli._reuse_heap_pages()
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds = []
for _ in range(4):
    before = faults()
    arrays = [np.ones(40_000) for _ in range(20)]
    del arrays
    rounds.append(faults() - before)
print(json.dumps(rounds))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")
class TestHeapReuse:
    """A run keeps its freed heap pages: with glibc's default thresholds,
    arrays made and freed in rounds are mapped afresh each round."""

    def test_freed_arrays_reuse_their_pages(self):
        assert max(_fresh_interpreter(_HEAP_SCRIPT, True)[1:]) < 100
        assert min(_fresh_interpreter(_HEAP_SCRIPT, False)[1:]) > 1000
