"""Every ``simstudy`` design, run end to end at small sizes, reproduces the
tables recorded for it: same headers, same row counts, and every cell within
1e-12 relative of the recorded value.  The ``seconds_per_model`` cells are
timings, recorded as ``*``; they need only be non-negative numbers."""

import csv
import json
import math

import pytest

from alaselect.cli import main

# design -> (size arguments, replicates.csv, summary.csv), two replicates each
_RECORDED = {
    "logistic-trend": (
        ["--n", "200"],
        """\
replicate,incl_active,incl_inactive,correct_top,seconds_per_model
0,0.55176891979397336,0.054806894513145354,0,*
1,0.73697183219856544,0.11056625094216231,0,*
""",
        """\
metric,mean
incl_active,0.64437037599626934
incl_inactive,0.08268657272765384
correct_top,0
seconds_per_model,*
""",
    ),
    "poisson-trend": (
        ["--n", "200"],
        """\
replicate,incl_active,incl_inactive,correct_top,seconds_per_model,incl_active_adj,incl_inactive_adj
0,0.99999999999911127,0.82268442337325498,0,*,0.5952717235587679,0.014534118656588404
1,1,0.71855833880232334,0,*,0.67187571666722934,0.012752352281219041
""",
        """\
metric,mean
incl_active,0.99999999999955569
incl_inactive,0.7706213810877891
correct_top,0
seconds_per_model,*
incl_active_adj,0.63357372011299862
incl_inactive_adj,0.013643235468903721
""",
    ),
    "gmom-accuracy": (
        ["--n", "50", "--mc-draws", "2000"],
        """\
replicate,model_size,err_ala,err_la,seconds_per_model
0,1,0.0035987733066633609,0.0035987733066633609,*
0,2,0.062172585562208837,0.062172585562208837,*
0,3,0.073868414604120858,0.073868414604120858,*
0,4,-0.07244582446583081,-0.07244582446583081,*
0,5,-0.033099440473179698,-0.033099440473179698,*
0,6,-0.013988574405061627,-0.013988574405061627,*
0,7,0.27465021670808198,0.27465021670808198,*
0,8,0.31428728908696257,0.31428728908696257,*
0,9,0.38517683856424867,0.38517683856424867,*
0,10,0.62577144648423655,0.62577144648423655,*
1,1,0.010249695570806239,0.010249695570806239,*
1,2,-0.061879650544270248,-0.061879650544270248,*
1,3,-0.087959592256609653,-0.087959592256609653,*
1,4,-0.086189334451375998,-0.086189334451375998,*
1,5,-0.14197125963664803,-0.14197125963664803,*
1,6,-0.12768113634436418,-0.12768113634436418,*
1,7,-0.1541315483855783,-0.1541315483855783,*
1,8,0.18678279040385348,0.18678279040385348,*
1,9,-0.41498901533960009,-0.41498901533960009,*
1,10,-0.028714549659568434,-0.028714549659568434,*
""",
        """\
metric,mean
err_ala,0.035675406216454777
err_la,0.035675406216454777
seconds_per_model,*
""",
    ),
    "aft-scenario1": (
        ["--n", "120", "--n-scans", "40"],
        """\
replicate,censoring_rate,incl_linear_x1,incl_spline_x2,max_inactive_incl,seconds_per_model
0,0.23333333333333328,0.99999999999179978,0,0.036541020473728147,*
1,0.22499999999999998,0.99999999999999345,0.025047257454220501,0.02710726788455689,*
""",
        """\
metric,mean
censoring_rate,0.22916666666666663
incl_linear_x1,0.99999999999589662
incl_spline_x2,0.012523628727110251
max_inactive_incl,0.031824144179142519
seconds_per_model,*
""",
    ),
    "aft-scenario2": (
        ["--n", "120", "--n-scans", "40"],
        """\
replicate,censoring_rate,incl_linear_x1,incl_spline_x2,max_inactive_incl,seconds_per_model
0,0.17500000000000004,0.92541941772032621,0.19444444042550646,0.23867877928355011,*
1,0.125,0.82664359629162443,0,0.080089274183253387,*
""",
        """\
metric,mean
censoring_rate,0.15000000000000002
incl_linear_x1,0.87603150700597532
incl_spline_x2,0.09722222021275323
max_inactive_incl,0.15938402673340174
seconds_per_model,*
""",
    ),
}


def _cells(text):
    return list(csv.reader(text.splitlines()))


def _matches(cell, value):
    """A written cell against its recorded value: a timing, a number, or a
    metric name."""
    if value == "*":
        return float(cell) >= 0.0
    try:
        return math.isclose(float(cell), float(value), rel_tol=1e-12)
    except ValueError:
        return cell == value


@pytest.mark.parametrize("design", sorted(_RECORDED))
def test_a_design_reproduces_its_recorded_tables(tmp_path, design):
    sizes, *tables = _RECORDED[design]
    out = tmp_path / design
    argv = ["simstudy", "--design", design, "--replicates", "2", *sizes]
    assert main([*argv, "--out", str(out)]) == 0
    for name, recorded in zip(("replicates.csv", "summary.csv"), tables):
        with open(out / name, newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))
        expected = _cells(recorded)
        assert written[0] == expected[0], name
        assert len(written) == len(expected), name
        for row, want in zip(written[1:], expected[1:]):
            assert len(row) == len(want) and all(map(_matches, row, want)), (
                name, row, want
            )
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["design"], meta["replicates"], meta["n"], meta["seed"]) == (
        design, 2, int(sizes[1]), 0
    )
