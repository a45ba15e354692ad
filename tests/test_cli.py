import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import cli, hardy
from hardymeans.cli import run_command
from conftest import lambert_w_mean, sweep_as


def loads(text):
    """A report parsed as strict JSON: NaN and Infinity, which JSON does
    not have, raise."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    # every example command of the README, in process, in a scratch
    # directory where the --csv example writes its file
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("hardymeans ")]
    assert len(lines) >= 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert loads(out)["command"] == shlex.split(line)[1:]


class TestEval:
    def test_evaluates_mean(self, capsys):
        code, out, _ = run(capsys, ["eval", "power(0)", "2", "8"])
        assert code == 0
        payload = loads(out)
        assert payload["value"] == pytest.approx(4.0, rel=1e-12)
        assert payload["version"] == hm.__version__
        assert payload["command"] == ["eval", "power(0)", "2", "8"]

    @pytest.mark.parametrize(
        "text,x,value",
        [
            # every x**p rounds to 1 at p = 1e-20: the kernel's shifted form
            # keeps the geometric mean's digits
            ("power(1e-20)", ["3", "5"], math.sqrt(15.0)),
            ("gauss(power(-1e-09),power(1e-09))", ["2", "3"], math.sqrt(6.0)),
        ],
    )
    def test_near_zero_exponents_give_the_geometric_mean(self, capsys, text, x, value):
        code, out, _ = run(capsys, ["eval", text, *x])
        assert code == 0
        assert loads(out)["value"] == pytest.approx(value, rel=1e-15)

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["eval", "gini(0.5)", "1"])
        assert code == 2
        assert err.startswith("E_PARSE:")
        assert "offset 9" in err

    def test_nonpositive_input_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["eval", "power(0)", "-1"])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["eval", "power(0)", "1", "--frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("text", ["gini(9e307,-9e307)", "bajrak(pow:1e308,pow:-1e308)"])
    def test_gini_exponents_whose_difference_overflows_are_usage_error(self, capsys, text):
        code, out, err = run(capsys, ["eval", text, "2", "3", "5"])
        assert (code, out) == (2, "")
        assert err.startswith("E_INVALID: Gini exponents ")

    @pytest.mark.parametrize("text", ["power(1e307)", "gini(1e306,-1e306)", "power(-1e307)"])
    def test_exponent_whose_log_domain_terms_overflow_is_usage_error(self, capsys, text):
        # p * ln x overflows there; the mean printed Infinity, which is not JSON
        code, out, err = run(capsys, ["eval", text, "1e300", "2e300"])
        assert (code, out) == (2, "")
        assert err.startswith("E_INVALID: ") and "exceeds 1e305, where exponent * ln x" in err

    def test_subnormal_exponent_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["eval", "power(1e-310)", "1", "2"])
        assert (code, out) == (2, "")
        assert err == "E_INVALID: power exponent 1e-310 is subnormal; write 0 instead\n"

    def test_computation_error_exit_code(self, capsys):
        # a Gaussian product whose iteration does not converge
        argv = ["eval", "gauss(power(10000),power(-10000))", "1", "2", "3", "4"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("E_NONCONVERGENCE: Gaussian product did not converge")

    def test_average_of_exp_past_the_double_range_evaluates(self, capsys):
        # e**1000 overflows; the kernel takes the log of the mean of e**x
        code, out, _ = run(capsys, ["eval", "quasi(exp)", "1000", "1000"])
        assert code == 0
        assert loads(out)["value"] == 1000.0

    def test_exp_pair_past_the_double_range_evaluates(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, ["eval", "bajrak(exp,pow:-1)", "1", "710"])
        assert code == 0
        value = loads(out)["value"]
        with mpmath.mp.workdps(40):
            exact = lambert_w_mean(1, [mpmath.mpf(1), mpmath.mpf(710)])
            assert abs(value - exact) <= 4e-15 * exact

    @pytest.mark.parametrize(
        "text",
        [
            "bajrak(exp,pow:1)",
            "bajrak(log,pow:1)",
            "bajrak(id,pow:1)",
            "dev(pair:pow:1,pow:2)",
            # one mean with bajrak(exp,pow:-1), but its ratio as spelled decreases
            "dev(pair:pow:-1,exp)",
        ],
    )
    def test_pair_that_defines_no_mean_is_usage_error(self, capsys, text):
        # f/g is not strictly monotone (or, for a deviation, not increasing)
        code, out, err = run(capsys, ["eval", text, "1", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("E_INVALID:")

    def test_pair_message_names_the_exponents_as_written(self, capsys):
        code, _, err = run(capsys, ["eval", "dev(pair:pow:0.1234561,pow:0.1234562)", "1", "2"])
        assert code == 2
        assert err == (
            "E_INVALID: a deviation needs f/g increasing; "
            "pow:0.1234561/pow:0.1234562 decreases\n"
        )

    @staticmethod
    def _assert_lambert_w(capsys, text, c, x):
        code, out, err = run(capsys, ["eval", text, *map(str, x)])
        assert (code, err) == (0, "")
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            exact = lambert_w_mean(c, [mp.mpf(v) for v in x])
            assert abs(loads(out)["value"] - exact) <= 4e-15 * exact

    def test_overflowing_target_exit_code(self, capsys):
        # sum(e**x) / sum(1/x) overflows; the closed form takes its log
        self._assert_lambert_w(capsys, "bajrak(exp,pow:-1)", 1, [700, 706])

    def test_saturated_ratio_exit_code(self, capsys):
        # x**-300 underflows to 0 on [20, 30]; the sums take logs
        self._assert_lambert_w(capsys, "bajrak(pow:-300,exp)", 300, [20, 30])


class TestHardyCommand:
    def test_report_keys_and_values(self, capsys):
        code, out, _ = run(capsys, ["hardy", "power(0)", "--nmax", "10000"])
        assert code == 0
        payload = loads(out)
        for key in (
            "command",
            "version",
            "seed",
            "status",
            "method",
            "estimate",
            "reference",
            "reference_kind",
            "nmax",
            "notes",
        ):
            assert key in payload
        assert (payload["status"], payload["method"]) == ("certified-lower", "homogeneous-limit")
        assert payload["estimate"] == pytest.approx(2.7168, rel=1e-3)
        assert payload["reference"] == pytest.approx(math.e)
        assert payload["reference_kind"] == "closed-form"
        assert payload["nmax"] == 10000

    def test_nmax_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["hardy", "power(0)", "--nmax", "0"])
        assert (code, out, err) == (2, "", "E_INVALID: n_max must be at least 1\n")

    def test_gauss_mean_cross_checked_against_registry(self, capsys):
        code, out, _ = run(
            capsys, ["hardy", "gauss(power(-1),power(0))", "--nmax", "2000"]
        )
        assert code == 0
        payload = loads(out)
        assert payload["reference"] == pytest.approx(2.318, rel=1e-3)
        assert payload["estimate"] == pytest.approx(payload["reference"], rel=0.03)

    def test_divergent_mean_has_no_finite_estimate(self, capsys):
        code, out, _ = run(capsys, ["hardy", "power(1)", "--nmax", "2000"])
        assert code == 0
        payload = loads(out)
        assert payload["estimate"] is None
        assert payload["divergent"] is True
        assert payload["reference_kind"] == "not-a-hardy-mean"

    @pytest.mark.parametrize(
        "text", ["bajrak(pow:2,id)", "bajrak(id,pow:2)", "dev(pair:pow:2,id)"]
    )
    def test_power_pairs_reduce_to_registered_gini_means(self, capsys, text):
        # all three are G_{2,1}, which is not a Hardy mean
        code, out, _ = run(capsys, ["hardy", text, "--nmax", "2000"])
        assert code == 0
        payload = loads(out)
        assert payload["divergent"] is True
        assert payload["reference_kind"] == "not-a-hardy-mean"

    def test_swapped_exp_pair_prints_the_bytes_of_quasi_exp(self, capsys):
        # bajrak(pow:0,exp) = bajrak(exp,pow:0) = quasi(exp): one report
        outs = []
        for text in ("bajrak(pow:0,exp)", "quasi(exp)"):
            code, out, _ = run(capsys, ["hardy", text])
            assert code == 0
            outs.append(out.replace(json.dumps(text), "", 1))
        assert outs[0] == outs[1]

    def test_signed_power_pair_reports_as_its_gini_mean(self, capsys):
        # x**-300 overflows in a plain p_n sweep; the pair runs on the
        # log-domain kernel of G_{-300,1} and reports exactly as that mean
        code, out, _ = run(capsys, ["hardy", "bajrak(pow:-300,pow:1)"])
        assert code == 0
        payload = loads(out)
        assert payload["divergent"] is True
        code, gini_out, _ = run(capsys, ["hardy", "gini(-300,1)"])
        assert code == 0
        gini = loads(gini_out)
        del payload["command"], gini["command"]
        assert payload == gini

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["quasi(pow:-300)", "bajrak(pow:-300,pow:0)"])
    def test_power_forms_report_as_the_power_mean(self, capsys, text):
        # both are power(-300), whose log-domain kernel does not overflow
        code, out, err = run(capsys, ["hardy", text])
        assert (code, err) == (0, "")
        code, power_out, _ = run(capsys, ["hardy", "power(-300)"])
        assert code == 0
        payload, power = loads(out), loads(power_out)
        del payload["command"], power["command"]
        assert payload == power

    def test_failed_pn_audit_is_not_certified(self, capsys, monkeypatch):
        # prefix means whose p_n = n * M rise from 1 to 2 but decrease once
        def values(n):
            v = np.linspace(1.0, 2.0, n)
            v[n // 2] = v[n // 2 + 1] + 1e-6
            return v

        monkeypatch.setattr(hardy, "prefix_means", sweep_as(values))
        code, out, _ = run(capsys, ["hardy", "power(1e-14)"])
        assert code == 0
        payload = loads(out)
        assert payload["reference"] == pytest.approx(math.e, rel=1e-3)
        assert payload["status"] == "estimate"
        assert any("p_n decreased" in note for note in payload["notes"])

    def test_lower_bound_above_the_reference_is_not_certified(self, capsys, monkeypatch):
        # prefix means of 1, the maximum along 1/k, so p_n = n: far above e,
        # yet it never decreases
        monkeypatch.setattr(hardy, "prefix_means", sweep_as(lambda n: np.arange(1.0, n + 1.0)))
        code, out, _ = run(capsys, ["hardy", "power(1e-300)", "--nmax", "200"])
        assert code == 0
        payload = loads(out)
        assert (payload["estimate"], payload["reference"]) == (200.0, math.e)
        assert payload["max_pn_decrease"] == 0.0
        assert payload["status"] == "estimate"
        assert payload["notes"] == [
            "registry: power-mean constant (1-p)^(-1/p)",
            "estimate (uncertified): 200 exceeds the registered constant 2.71828 "
            "by more than rounding, so it is no lower bound",
        ]

    def test_unwritable_csv_path_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "pn.csv"
        code, out, err = run(capsys, ["hardy", "power(0.5)", "--nmax", "50", "--csv", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("E_IO: ")

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "pn.csv"
        code, _, _ = run(
            capsys, ["hardy", "power(0)", "--nmax", "50", "--csv", str(path)]
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "n,p_n"
        assert len(lines) == 51
        seq = hm.pn_sequence(hm.Power(0), 50)
        for line, expected in zip(lines[1:], seq.values):
            n_text, value_text = line.split(",")
            assert float(value_text) == pytest.approx(expected, rel=1e-14)
            assert value_text == f"{expected:.15g}"

    @pytest.mark.parametrize("text", ["quasi(exp)", "bajrak(exp,pow:0)"])
    def test_mean_above_the_arithmetic_mean_is_divergent(self, capsys, tmp_path, text):
        # quasi(exp) >= A by Jensen's inequality, so the rule reports it
        # with no p_n sweep, and no CSV
        path = tmp_path / "pn.csv"
        code, out, _ = run(capsys, ["hardy", text, "--nmax", "200", "--csv", str(path)])
        assert code == 0
        payload = loads(out)
        assert payload["method"] == "rule"
        assert (payload["estimate"], payload["divergent"]) == (None, True)
        assert (payload["reference"], payload["reference_kind"]) == (None, "not-a-hardy-mean")
        assert payload["notes"] == [
            "rules: quasi(exp) is >= the arithmetic mean: exp is convex and increasing (Jensen)",
            "not a Hardy mean; no finite certified constant exists",
            "no p_n sweep for a mean a rule proves non-Hardy; CSV not written",
        ]
        assert payload["max_pn_decrease"] is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "text", ["gauss(gini(-0.2,-0.4),power(0))", "bajrak(exp,pow:-1)"]
    )
    def test_seed_is_ignored(self, capsys, text):
        payloads = []
        for seed in ("1", "2"):
            code, out, _ = run(capsys, ["hardy", text, "--nmax", "500", "--seed", seed])
            assert code == 0
            payload = loads(out)
            assert payload.pop("command")[-1] == seed
            assert payload["seed"] is None
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_product_of_near_zero_exponents_is_certified(self, capsys):
        code, out, _ = run(capsys, ["hardy", "gauss(power(-1e-09),power(1e-09))", "--nmax", "300"])
        assert code == 0
        assert loads(out)["status"] == "certified-lower"

    def test_bad_ygrid_is_usage_error(self, capsys):
        # the y-grid is gone, so argparse rejects the flag
        code, _, err = run(capsys, ["hardy", "power(0)", "--ygrid", "0.01:10:5"])
        assert code == 2
        assert "unrecognized arguments: --ygrid 0.01:10:5" in err

    def test_one_point_sweep_raises_its_own_error(self, capsys, monkeypatch):
        # the one sweep of a report raises its error itself
        def swept(expr, x, start=1):
            raise hm.NonConvergenceError(
                "Gaussian product did not converge", iterations=10_000, gap=7.327e-06
            )

        monkeypatch.setattr(hardy, "prefix_means", swept)
        argv = ["gauss(power(-1),power(0))", "--nmax", "4"]
        code, out, err = run(capsys, ["hardy", *argv])
        assert (code, out) == (1, "")
        assert err == (
            "E_NONCONVERGENCE: Gaussian product did not converge "
            "(iterations=10000, gap=7.327e-06)\n"
        )

    def test_scale_limit_reports_no_estimate_and_no_csv(self, capsys, tmp_path):
        argv = ["hardy", "bajrak(exp,pow:-1)", "--nmax", "300"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = loads(out)
        assert (payload["estimate"], payload["divergent"]) == (None, True)
        assert (payload["status"], payload["method"]) == ("divergent", "rule")
        assert payload["max_pn_decrease"] is None
        path = tmp_path / "pn.csv"
        code, out, _ = run(capsys, [*argv, "--csv", str(path)])
        assert code == 0
        assert loads(out)["notes"] == [
            *payload["notes"],
            "no p_n sweep for a mean a rule proves non-Hardy; CSV not written",
        ]
        assert not path.exists()


class TestOtherCommands:
    def test_probe_reports_verdicts(self, capsys):
        code, out, _ = run(capsys, ["probe", "gini(2,1)", "--seed", "1"])
        assert code == 0
        payload = loads(out)
        assert payload["seed"] == 1
        assert payload["verdicts"]["jensen_concavity"]["holds_on_samples"] is False
        counterexample = payload["verdicts"]["jensen_concavity"]["counterexample"]
        assert counterexample["margin"] > 1e-9

    @pytest.mark.parametrize("text", ["quasi(exp)", "bajrak(exp,pow:0)", "bajrak(exp,pow:-1)"])
    def test_probe_reaches_exp_means(self, capsys, text):
        # the default samples run up to 1e3, past exp's double range
        code, out, _ = run(capsys, ["probe", text])
        assert code == 0
        verdicts = loads(out)["verdicts"]
        violated = {name for name, v in verdicts.items() if not v["holds_on_samples"]}
        if text == "quasi(exp)":
            known = hm.canonical(hm.QuasiArithmetic(hm.EXP)).known_properties()
            denied = {name for name, value in known.items() if value is not True}
            assert denied == {"homogeneity", "jensen_concavity"}
            assert denied <= violated

    def test_hardy_seq(self, capsys):
        code, out, _ = run(
            capsys, ["hardy-seq", "power(0)", "--n", "2", "--restarts", "6"]
        )
        assert code == 0
        payload = loads(out)
        assert payload["estimate"] == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-3)
        assert len(payload["maximizer"]) == 2
        assert len(payload["trace"]) == payload["restarts"]
        # the geometric mean is concave, and its gradient analytic
        assert payload["estimate"] <= payload["upper"] <= payload["estimate"] * (1 + 1e-5)
        assert payload["notes"][1].startswith("upper: ")

    def test_hardy_seq_takes_no_budget(self, capsys):
        code, _, _ = run(capsys, ["hardy-seq", "power(0)", "--n", "2", "--budget", "10"])
        assert code == 2

    def test_liminf(self, capsys):
        code, out, _ = run(
            capsys,
            ["liminf", "gini(0.5,-1)", "--seq", "harmonic", "--nmax", "4000"],
        )
        assert code == 0
        payload = loads(out)
        assert payload["estimate"] == pytest.approx(4 ** (2 / 3), rel=0.03)
        assert payload["window"] == [2000, 4000]
        # the window minimum estimates the liminf; it claims no bound
        assert payload["notes"] == [
            "tail-window minimum; estimates the liminf, which is at most the constant"
        ]

    def test_liminf_requires_sequence_choice(self, capsys):
        code, _, _ = run(capsys, ["liminf", "power(0)", "--seq", "primes"])
        assert code == 2

    def test_kedlaya_coeffs(self, capsys):
        code, out, _ = run(capsys, ["kedlaya", "coeffs", "--n", "5"])
        assert code == 0
        payload = loads(out)
        assert payload["all_pass"] is True
        table = payload["coefficients"]
        for i in range(5):
            for j in range(5):
                assert sum(table[i][j]) == 24

    def test_kedlaya_matrix(self, capsys):
        code, out, _ = run(capsys, ["kedlaya", "matrix", "--n", "3"])
        assert code == 0
        payload = loads(out)
        assert payload["occurrences_pass"] is True
        assert len(payload["matrix"]) == 6

    def test_kedlaya_check(self, capsys):
        code, out, _ = run(
            capsys, ["kedlaya", "check", "power(0)", "--samples", "100", "--seed", "3"]
        )
        assert code == 0
        payload = loads(out)
        assert payload["margin_min"] >= -1e-12

    def test_kedlaya_check_without_samples_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["kedlaya", "check", "power(0)", "--samples", "0"])
        assert code == 2
        assert err == "E_INVALID: samples must be at least 1\n"

    def test_kedlaya_matrix_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["kedlaya", "matrix", "--n", "9"])
        assert code == 2
        assert err.startswith("E_INVALID:")

    def test_gauss_command_four_significant_figures(self, capsys):
        code, out, _ = run(
            capsys,
            ["gauss", "power(-1)", "power(0)", "--at", "2", repr(math.e)],
        )
        assert code == 0
        payload = loads(out)
        assert f"{payload['value']:.4g}" == "2.318"

    def test_gauss_command_near_the_float_maximum(self, capsys):
        # the envelope's midpoint, taken where hi + lo overflows
        code, out, _ = run(capsys, ["gauss", "arith", "geom", "--at", "1.7e308", "1.7e308"])
        assert code == 0
        assert loads(out)["value"] == 1.7e308

    def test_gauss_command_needs_two_means(self, capsys):
        code, _, _ = run(capsys, ["gauss", "power(0)", "--at", "1", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # a gap tolerance >= 1 would stop at the midpoint of the data
            *(
                ["gauss", "power(-1)", "power(0)", "--at", "1", "2", "--tolerance", value]
                for value in ("inf", "1", "nan", "0")
            ),
            *(["probe", "power(0)", "--tolerance", value] for value in ("inf", "nan", "0")),
        ],
        ids=" ".join,
    )
    def test_tolerance_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("E_INVALID: tolerance must")

    def test_gauss_nonconvergence_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            ["gauss", "arith", "geom", "--at", "1e6", "1", "--max-iterations", "2"],
        )
        assert code == 1
        assert err.startswith("E_NONCONVERGENCE:")

    # the child's log-domain mean of (max double, 1) is clamped to the
    # largest double, so the product stays in the float range and converges
    def test_gauss_at_the_float_maximum_converges(self, capsys):
        argv = ["gauss", "gini(300,299)", "power(0)", "--at", "1.7976931348623157e308", "1"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert 1.0 <= loads(out)["value"] <= 1.7976931348623157e308


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv, seed",
        [
            (["eval", "power(0)", "2", "8"], None),
            (["probe", "power(0.5)", "--samples", "20"], 0),
            (["hardy", "power(-1)", "--nmax", "300", "--seed", "5"], None),
            (["hardy-seq", "power(0)", "--n", "2", "--restarts", "4", "--seed", "5"], 5),
            (["liminf", "power(0)", "--seq", "constant", "--nmax", "100"], None),
            (["kedlaya", "coeffs", "--n", "3"], None),
            (["kedlaya", "matrix", "--n", "2"], None),
            (["kedlaya", "check", "power(0)", "--samples", "20", "--seed", "5"], 5),
            (["gauss", "arith", "geom", "--at", "1", "2"], None),
        ],
    )
    def test_every_report_leads_with_the_envelope(self, capsys, argv, seed):
        # only the randomized subcommands echo a seed
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = loads(out)
        assert list(payload)[:3] == ["command", "version", "seed"]
        assert payload["command"] == argv
        assert payload["version"] == hm.__version__
        assert payload["seed"] == seed

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_a_computation_error(self, capsys, monkeypatch, value):
        # the one writer refuses a report that would not be JSON
        monkeypatch.setattr(cli, "evaluate", lambda expr, xs: value)
        code, out, err = run(capsys, ["eval", "power(0)", "2", "8"])
        assert (code, out) == (1, "")
        assert err.startswith("E_COMPUTE: the report holds a non-finite number")

    def test_hardy_help_still_names_the_seed_flag(self, capsys):
        code, out, _ = run(capsys, ["hardy", "--help"])
        assert code == 0
        assert "[--seed SEED]" in out
        assert "--seed SEED " in out


class TestReportRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "gini(0.5,-1)", "0.25", "3", "7"],
            ["probe", "power(0.5)", "--seed", "2", "--samples", "50"],
            ["hardy", "power(-1)", "--nmax", "500"],
            ["hardy-seq", "gini(0.5,-1)", "--n", "2", "--restarts", "4", "--seed", "9"],
            ["liminf", "power(0)", "--seq", "sqrt", "--nmax", "300"],
            ["kedlaya", "check", "power(0)", "--samples", "50", "--seed", "4"],
        ],
    )
    def test_rerunning_echoed_command_reproduces_payload(self, capsys, argv):
        code, first, _ = run(capsys, argv)
        assert code == 0
        echoed = loads(first)["command"]
        assert echoed == argv
        code, second, _ = run(capsys, echoed)
        assert code == 0
        assert second == first
