"""Acceptance suite: every criterion is exercised at its stated
tolerance and prints one PASS line (run pytest with -s to see them).
"""
import json
import math
import time
from math import factorial

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.cli import run_command
from conftest import log_uniform


def _cli_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0, f"{argv} exited {code}"
    return json.loads(out)


def test_criterion_1_power_mean_constants(capsys):
    """Power-mean constants at n_max = 10^4, monotone and inside tolerance."""
    cases = [(-2.0, 0.005), (-1.0, 0.005), (-0.5, 0.005), (0.0, 0.005), (0.5, 0.015)]
    for p, tol in cases:
        reference = math.e if p == 0 else (1 - p) ** (-1 / p)
        start = time.monotonic()
        payload = _cli_json(capsys, ["hardy", f"power({p})", "--nmax", "10000"])
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0, f"p={p} took {elapsed:.1f}s"
        assert payload["estimate"] == pytest.approx(reference, rel=tol), p
        assert payload["max_pn_decrease"] <= 1e-11, p
    print("ACCEPTANCE 1 PASS: power-mean constants within tolerance, p_n monotone")


def test_criterion_2_gini_constants(capsys):
    """Gini constants, the harmonic-tail estimator, and their agreement."""
    for p, q in ((0.5, -1.0), (0.0, -1.0), (-1.0, -2.0)):
        reference = ((1 - q) / (1 - p)) ** (1 / (p - q))
        estimate = hm.hardy_constant(
            hm.Gini(p, q), hm.HardyConfig(n_max=10_000)
        ).estimate
        assert estimate == pytest.approx(reference, rel=0.015), (p, q)
        tail = hm.liminf_ratio(hm.Gini(p, q), "harmonic", 10_000).estimate
        assert tail == pytest.approx(reference, rel=0.02), (p, q)
        # the tail and the estimate agree to twice the convergence band at
        # n_max = 10^4: 0.5% when max(p,q) <= 0, else 1.5%
        band = 0.005 if max(p, q) <= 0.0 else 0.015
        assert tail == pytest.approx(estimate, rel=2 * band), (p, q)
    print("ACCEPTANCE 2 PASS: Gini constants, harmonic tails, and agreement")


def test_criterion_3_non_hardy_detection(capsys):
    """Means outside the summable region report divergence, never a
    finite certified constant."""
    for text in ("power(1)", "gini(1,0.5)"):
        payload = _cli_json(capsys, ["hardy", text, "--nmax", "4000"])
        assert payload["divergent"] is True, text
        assert payload["estimate"] is None, text
        assert payload["reference_kind"] == "not-a-hardy-mean", text
        assert payload["status"] == "divergent", text
    print("ACCEPTANCE 3 PASS: non-Hardy means reported divergent")


def test_criterion_4_kedlaya_combinatorics():
    """Exact coefficient identities for n <= 12 and exhaustive matrix
    occurrence counts for n <= 6, inside the runtime budget."""
    start = time.monotonic()
    for n in range(1, 13):
        table = hm.kedlaya_table(n)
        audit = table.audit()
        assert all(audit.values()), (n, audit)
        # re-check the sums directly, not only through the audit
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert (
                    sum(table.coefficient(i, j, k) for k in range(1, n + 1))
                    == factorial(n - 1)
                )
    for n in range(2, 7):
        assert hm.kedlaya_matrix(n).audit_occurrences(), n
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"combinatorics took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: exact combinatorics verified in {elapsed:.1f}s")


def test_criterion_5_kedlaya_inequality():
    """Prefix-average inequality margins on 500 seeded vectors per mean."""
    concave = {
        "power(0)": hm.Power(0.0),
        "power(0.5)": hm.Power(0.5),
        "power(-1)": hm.Power(-1.0),
        "gini(0.5,-1)": hm.Gini(0.5, -1.0),
        "gauss(power(-1),power(0))": hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
    }
    for name, expr in concave.items():
        margins = hm.kedlaya_margins(expr, samples=500, seed=20)
        assert margins.min() >= -1e-12, (name, margins.min())
    equality = hm.kedlaya_margins(hm.Power(1.0), samples=500, seed=20)
    assert np.abs(equality).max() <= 1e-12
    print("ACCEPTANCE 5 PASS: inequality margins nonnegative; arithmetic equality")


def test_criterion_6_gauss_product_consistency():
    """The p_n estimate for the harmonic-geometric product agrees with
    the program's own evaluation of the product at the children's
    constants, which prints 2.318 to four significant figures."""
    start = time.monotonic()
    children = (hm.Power(-1.0), hm.Power(0.0))
    own = hm.gauss_product(children, (2.0, math.e))
    assert f"{own:.4g}" == "2.318"
    estimate = hm.hardy_constant(
        hm.Gauss(children), hm.HardyConfig(n_max=2000)
    ).estimate
    assert estimate == pytest.approx(own, rel=0.03)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 6 PASS: product constant 2.318, p_n within 3% in {elapsed:.1f}s")


def test_criterion_7_sequence_bounds():
    """n-term search bounds against the exhaustive grid oracle, the
    closed two-term values, the classical upper envelopes, and
    monotonicity in n."""
    targets = {
        "power(0)": hm.Power(0.0),
        "power(1)": hm.Power(1.0),
        "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    }
    bounds: dict[str, dict[int, float]] = {}
    for name, expr in targets.items():
        bounds[name] = {1: hm.hardy_sequence_bound(expr, 1).estimate}
        for n in (2, 3):
            found = hm.hardy_sequence_bound(expr, n, hm.SearchConfig(seed=0))
            oracle = hm.simplex_grid_bound(expr, n)
            assert found.estimate == pytest.approx(oracle, rel=0.005), (name, n)
            bounds[name][n] = found.estimate

    assert bounds["power(1)"][2] == pytest.approx(1.5, rel=0.002)
    assert bounds["power(0)"][2] == pytest.approx((1 + math.sqrt(2)) / 2, rel=0.002)

    for n in (1, 2, 3):
        kaluza = 1.0 / (n * (math.exp(1.0 / n) - 1.0))
        assert bounds["power(0)"][n] <= (1 + 1 / n) ** n + 1e-9
        assert bounds["power(0)"][n] <= math.e * kaluza + 1e-9
        half = hm.hardy_sequence_bound(hm.Power(0.5), n, hm.SearchConfig(seed=0))
        assert half.estimate <= 4.0 * kaluza + 1e-9

    for name in targets:
        for n in (1, 2):
            assert bounds[name][n] <= bounds[name][n + 1] + 1e-11, (name, n)
    print("ACCEPTANCE 7 PASS: sequence bounds match oracle, envelopes, monotone")


def test_criterion_8_family_cross_identities():
    """The family identities hold within 1e-10 relative on 1000 seeded
    samples."""
    rng = np.random.default_rng(2024)
    exponents = (-2.0, -1.0, -0.5, 0.5, 2.0)
    pair_f, pair_g = hm.power_generator(2), hm.power_generator(1)
    dev_pair = hm.PairDeviation(pair_f, pair_g)
    for index in range(1000):
        x = log_uniform(rng, int(rng.integers(1, 9)))
        p = exponents[index % len(exponents)]
        power = hm.power_mean(p, x)
        assert hm.gini_mean(p, 0.0, x) == pytest.approx(power, rel=1e-10)
        assert hm.quasi_arithmetic_mean(hm.power_generator(p), x) == pytest.approx(
            power, rel=1e-10
        )
        assert hm.quasi_arithmetic_mean(hm.LOG, x) == pytest.approx(
            hm.power_mean(0.0, x), rel=1e-10
        )
        assert hm.deviation_mean(hm.ARITHMETIC_DEVIATION, x) == pytest.approx(
            hm.power_mean(1.0, x), rel=1e-10
        )
        assert hm.deviation_mean(dev_pair, x) == pytest.approx(
            hm.bajraktarevic_mean(pair_f, pair_g, x), rel=1e-10
        )
    print("ACCEPTANCE 8 PASS: family cross-identities within 1e-10 on 1000 samples")


def test_criterion_9_strict_partial_inequality():
    """Truncated summable sequences keep the partial ratio strictly
    below the registered constant."""
    rng = np.random.default_rng(7)
    cases = ((hm.Power(0.0), math.e), (hm.Power(0.5), 4.0))
    for _ in range(50):
        length = int(rng.integers(10, 61))
        ratio = float(rng.uniform(0.3, 0.9))
        scale = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        x = scale * ratio ** np.arange(1, length + 1)
        for expr, constant in cases:
            assert hm.hardy_ratio(expr, x) < constant, (expr, ratio, length)
    print("ACCEPTANCE 9 PASS: partial ratios strictly below the constants")
