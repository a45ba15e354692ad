"""Pinned bits of the Gaussian-product kernel, the n-term search and the
p_n sweeps.

All are exact computations whose every bit is a result: a faster
kernel or search must reproduce them.  ``pinned_bits.json`` holds, as
``float.hex``, ``gauss_kernel`` on a corpus of stacks (softmax points
floored at 1e-300 as the search makes them, a prefix sweep, rows that
converge at different steps, rows near the largest double beside
ordinary ones) and the benchmark's four fuzz searches (n = 3, four
starts, by mirror ascent): estimate, maximizer and trace.  It also holds the p_n sweep of
every report of the report corpus that sweeps, as the SHA-256 of its
values' bytes and the hex of its largest decrease, and the benchmark's
three sweep liminf estimates.  A change meant to move them rewrites the
file with

    PYTHONPATH=src python tests/test_pinned_bits.py

and the diff of the file shows what moved.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import hardy
from hardymeans.core import LAST_PREFIX
from hardymeans.gauss import gauss_kernel
from conftest import MIXED_NEAR_FLOAT_MAX
from test_report_corpus import CORPUS

PINNED = Path(__file__).with_name("pinned_bits.json")

SEARCH_MEANS = {
    "power(0)": hm.Power(0.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "quasi(pow:0.5)": hm.QuasiArithmetic(hm.power_generator(0.5)),
    "gauss(power(-1),power(0))": hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
}

# the benchmark's sweep liminf cases: (mean, sequence) at n_max = 10^4
LIMINF_CASES = (("gini(0.5,-1)", "harmonic"), ("power(0)", "sqrt"), ("power(-1)", "constant"))


def kernel_corpus() -> dict:
    """name -> (canonical children, stack, cols) of a gauss_kernel call."""

    def children(*means):
        # the canonical children themselves: a Gauss node with a max child is max
        return tuple(m.canonical() for m in means)

    ag, hg = children(hm.ARITH, hm.GEOM), children(hm.HARM, hm.GEOM)
    am = children(hm.ARITH, hm.MaxOf())
    trio = children(hm.HARM, hm.GEOM, hm.Gini(0.5, -1.0))
    rng = np.random.default_rng(30)
    spreads = [1e-14, 1e-3, 1.0, 9.0, 1e6 - 1.0]
    staggered = [[1.0, 1.0 + s] for s in spreads] + [[1e-200, 1e200], [3.0, 3.0]]
    softmax = hardy._softmax_points
    return {
        "softmax": (hg, softmax(rng.normal(0.0, 60.0, size=(8, 3))), slice(None)),
        "softmax-trio": (trio, softmax(rng.normal(0.0, 60.0, size=(6, 5))), slice(None)),
        "prefix-sweep": (ag, 1.0 / np.arange(1.0, 41.0), slice(None)),
        "staggered": (ag, np.array(staggered), LAST_PREFIX),
        "float-max": (ag, np.array([[1.7e308, 1.7e308], [1.7e308, 1.6e308]]), LAST_PREFIX),
        "float-max-hg": (hg, np.array([[1.7e308, 1.7e308]]), LAST_PREFIX),
        "mixed-ag-prefixes": (ag, np.array(MIXED_NEAR_FLOAT_MAX), slice(None)),
        "mixed-ag-last": (ag, np.array(MIXED_NEAR_FLOAT_MAX), LAST_PREFIX),
        "mixed-arith-max-prefixes": (am, np.array(MIXED_NEAR_FLOAT_MAX), slice(None)),
        "mixed-arith-max-last": (am, np.array(MIXED_NEAR_FLOAT_MAX), LAST_PREFIX),
    }


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _kernel_bits(name: str) -> list:
    return _hex(gauss_kernel(*kernel_corpus()[name]))


def _search_bits(name: str) -> dict:
    bound = hm.hardy_sequence_bound(SEARCH_MEANS[name], 3, hm.SearchConfig(restarts=4))
    return {
        "estimate": _hex([bound.estimate]),
        "maximizer": _hex(bound.maximizer),
        "trace": _hex(bound.trace),
    }


def _pn_bits() -> dict:
    """Case id -> the bits of its p_n sweep, for every corpus report that
    sweeps."""
    bits = {}
    for text, n_max in CORPUS:
        pn = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max)).pn
        if pn is not None:
            bits[f"{text} n_max={n_max}"] = {
                "values_sha256": hashlib.sha256(pn.values.tobytes()).hexdigest(),
                "max_decrease": float(pn.max_decrease).hex(),
            }
    return bits


def _liminf_bits(text: str, sequence: str) -> str:
    return hm.liminf_ratio(hm.parse_mean_expr(text), sequence, 10_000).estimate.hex()


def _pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", sorted(kernel_corpus()))
def test_gauss_kernel_is_pinned(name):
    assert _kernel_bits(name) == _pinned()["gauss_kernel"][name]


@pytest.mark.parametrize("name", sorted(SEARCH_MEANS))
def test_fuzz_search_is_pinned(name):
    assert _search_bits(name) == _pinned()["hardy_sequence_bound"][name]


def test_pn_sweeps_are_pinned():
    assert _pn_bits() == _pinned()["pn_sequence"]


@pytest.mark.parametrize("case", LIMINF_CASES, ids=" ".join)
def test_liminf_is_pinned(case):
    assert _liminf_bits(*case) == _pinned()["liminf_ratio"][" ".join(case)]


def test_pinned_bits_are_the_corpus():
    pinned = _pinned()
    assert set(pinned["gauss_kernel"]) == set(kernel_corpus())
    assert set(pinned["hardy_sequence_bound"]) == set(SEARCH_MEANS)
    assert set(pinned["liminf_ratio"]) == {" ".join(case) for case in LIMINF_CASES}


if __name__ == "__main__":
    bits = {
        "gauss_kernel": {name: _kernel_bits(name) for name in kernel_corpus()},
        "hardy_sequence_bound": {name: _search_bits(name) for name in SEARCH_MEANS},
        "pn_sequence": _pn_bits(),
        "liminf_ratio": {" ".join(case): _liminf_bits(*case) for case in LIMINF_CASES},
    }
    PINNED.write_text(json.dumps(bits, indent=1) + "\n")
