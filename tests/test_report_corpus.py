"""Pinned `hardy_constant` reports over a corpus of means.

The corpus is the benchmark's sweep catalogue at its n_max, and runs
that reach the rows and notes of the status table on real inputs: grid
edges, a one-point grid, tiny exponents, undecided and denied gates, an
unmet tolerance.  Each report is compared with ``hardy_reports.json``:
the claim and its wording exactly, the numbers within 5 eps.  A change
meant to alter a report rewrites the file with

    PYTHONPATH=src python tests/test_report_corpus.py

and the diff of the file shows what moved.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm

REPORTS = Path(__file__).with_name("hardy_reports.json")

# (mean, n_max, y-grid or None for the default)
CORPUS = (
    # the benchmark's sweep catalogue
    ("power(0.5)", 10_000, None),
    ("power(0.25)", 10_000, None),
    ("power(0)", 10_000, None),
    ("power(-0.5)", 10_000, None),
    ("power(-1)", 10_000, None),
    ("power(-2)", 10_000, None),
    ("power(2)", 10_000, None),
    ("gini(0.5,-1)", 10_000, None),
    ("gini(0.25,-0.5)", 10_000, None),
    ("gini(0,-1)", 10_000, None),
    ("gini(-1,-2)", 10_000, None),
    ("gini(-0.5,-0.5)", 10_000, None),
    ("gini(2,1)", 10_000, None),
    ("quasi(log)", 10_000, None),
    ("quasi(pow:0.5)", 10_000, None),
    ("quasi(pow:-1)", 10_000, None),
    ("power(-300)", 10_000, None),
    ("gauss(power(-1),power(0))", 1_500, None),
    ("bajrak(pow:0.5,pow:-1)", 300, None),
    ("dev(pair:pow:0.5,pow:-1)", 150, None),
    ("quasi(exp)", 10_000, None),
    ("bajrak(exp,pow:0)", 32, None),
    # grids: the default one, a short one, a Gauss product on one, and a
    # one-point grid, which is the p_n sweep of an ungated mean
    ("bajrak(exp,pow:-1)", 300, None),
    ("bajrak(exp,pow:-1)", 300, (0.5, 1.0, 2.0)),
    ("gauss(power(-5),bajrak(exp,pow:-1))", 300, None),
    ("bajrak(exp,pow:-1)", 300, (1.0,)),
    ("bajrak(pow:-1,exp)", 300, None),
    # tiny exponents, whose kernel takes the shifted form near p = q, and
    # whose registered constants tend to e
    ("power(1e-20)", 300, None),
    ("power(1e-14)", 10_000, None),
    ("power(3e-7)", 2000, None),
    ("gini(1e-200,-1e-200)", 300, None),
    ("gini(1e-9,-1e-9)", 10_000, None),
    ("power(-0.01)", 10_000, None),
    ("gauss(power(-1e-9),power(1e-9))", 300, None),
    # gates that no rule decides, or that a rule denies
    ("gauss(gini(-0.2,-0.4),power(0))", 500, None),
    ("gini(-0.2,-0.4)", 500, None),
    # an unmet tolerance, and a product above the arithmetic mean
    ("power(0.9)", 10_000, None),
    ("gini(0.8,-0.5)", 10_000, None),
    ("gauss(power(2),quasi(exp))", 300, None),
)
EXACT = ("status", "method", "divergent", "reference_kind", "tolerance", "notes")


def _case_id(text, n_max, y_grid):
    return f"{text} n_max={n_max}" + ("" if y_grid is None else f" y_grid={list(y_grid)}")


def _report(text, n_max, y_grid):
    est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max, y_grid=y_grid))
    report = {name: getattr(est, name) for name in EXACT}
    report["notes"] = list(est.notes)
    report["estimate"] = est.estimate if math.isfinite(est.estimate) else None
    report["reference"] = est.reference
    return report


def _pinned():
    return json.loads(REPORTS.read_text())


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: _case_id(*case))
def test_report_matches_the_pinned_one(case):
    pinned = _pinned()[_case_id(*case)]
    report = _report(*case)
    assert {name: report[name] for name in EXACT} == {name: pinned[name] for name in EXACT}
    for name in ("estimate", "reference"):
        if pinned[name] is None:
            assert report[name] is None, name
        else:
            assert abs(report[name] - pinned[name]) <= 5 * np.finfo(float).eps * pinned[name]


def test_pinned_reports_are_the_corpus():
    assert set(_pinned()) == {_case_id(*case) for case in CORPUS}


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: _case_id(*case))
def test_verdict_fields_follow_from_the_status(case):
    report = _pinned()[_case_id(*case)]
    status, estimate, reference = report["status"], report["estimate"], report["reference"]
    assert status in ("certified-lower", "estimate", "inconclusive", "divergent")
    assert report["divergent"] == (status == "divergent")
    assert (estimate is None) == (status in ("divergent", "inconclusive"))
    met = False
    if status == "certified-lower" and reference is not None:
        tolerance = hm.published_tolerance(hm.parse_mean_expr(case[0]))
        met = abs(estimate - reference) <= tolerance * reference
    assert (report["tolerance"] is not None) == met
    uncertified = [note.startswith("estimate (uncertified): ") for note in report["notes"]]
    assert any(uncertified) == (status in ("estimate", "inconclusive"))


if __name__ == "__main__":
    reports = {_case_id(*case): _report(*case) for case in CORPUS}
    REPORTS.write_text(json.dumps(reports, indent=1) + "\n")
