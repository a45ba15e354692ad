"""Pinned `hardy_constant` reports over a corpus of means.

The corpus is the benchmark's sweep catalogue at its n_max, and runs
that reach the rows and notes of the status table on real inputs: means
that tend to max, tiny exponents, undecided and denied gates, slow
convergence.  Each report is compared with ``hardy_reports.json``:
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

# (mean, n_max)
CORPUS = (
    # the benchmark's sweep catalogue
    ("power(0.5)", 10_000),
    ("power(0.25)", 10_000),
    ("power(0)", 10_000),
    ("power(-0.5)", 10_000),
    ("power(-1)", 10_000),
    ("power(-2)", 10_000),
    ("power(2)", 10_000),
    ("gini(0.5,-1)", 10_000),
    ("gini(0.25,-0.5)", 10_000),
    ("gini(0,-1)", 10_000),
    ("gini(-1,-2)", 10_000),
    ("gini(-0.5,-0.5)", 10_000),
    ("gini(2,1)", 10_000),
    ("quasi(log)", 10_000),
    ("quasi(pow:0.5)", 10_000),
    ("quasi(pow:-1)", 10_000),
    ("power(-300)", 10_000),
    ("gauss(power(-1),power(0))", 1_500),
    ("bajrak(pow:0.5,pow:-1)", 300),
    ("dev(pair:pow:0.5,pow:-1)", 150),
    ("quasi(exp)", 10_000),
    ("bajrak(exp,pow:0)", 32),
    # means that tend to max, divergent by their scale limit with a witness
    ("bajrak(exp,pow:-1)", 300),
    ("bajrak(exp,pow:-300)", 10_000),
    ("gauss(power(-5),bajrak(exp,pow:-1))", 300),
    ("gauss(gini(-1,-2),quasi(exp))", 10_000),
    ("bajrak(pow:-1,exp)", 300),
    # tiny exponents, whose kernel takes the shifted form near p = q, and
    # whose registered constants tend to e
    ("power(1e-20)", 300),
    ("power(1e-14)", 10_000),
    ("power(3e-7)", 2000),
    ("gini(1e-200,-1e-200)", 300),
    ("gini(1e-9,-1e-9)", 10_000),
    ("power(-0.01)", 10_000),
    ("gauss(power(-1e-9),power(1e-9))", 300),
    # gates that no rule decides, or that a rule denies: certified lower
    # bounds all the same
    ("gauss(gini(-0.2,-0.4),power(0))", 500),
    ("gini(-0.2,-0.4)", 500),
    # slow convergence, where p_n at n_max = 10^4 lies 41% and 11% below
    # the registered constant, and a product above the arithmetic mean
    ("power(0.9)", 10_000),
    ("gini(0.8,-0.5)", 10_000),
    ("gauss(power(2),quasi(exp))", 300),
)
EXACT = ("status", "method", "divergent", "reference_kind", "notes")


def _case_id(text, n_max):
    return f"{text} n_max={n_max}"


def _report(text, n_max):
    est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max))
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
    assert status in ("certified-lower", "estimate", "divergent")
    assert report["divergent"] == (status == "divergent")
    # only a rule decides divergence, and it decides it with no sweep
    assert (report["method"] == "rule") == (status == "divergent")
    assert (report["reference_kind"] == "not-a-hardy-mean") == (status == "divergent")
    assert (estimate is None) == (status == "divergent")
    uncertified = [note.startswith("estimate (uncertified): ") for note in report["notes"]]
    assert any(uncertified) == (status == "estimate")


if __name__ == "__main__":
    reports = {_case_id(*case): _report(*case) for case in CORPUS}
    REPORTS.write_text(json.dumps(reports, indent=1) + "\n")
