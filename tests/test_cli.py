import json
import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.cli import run_command


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_evaluates_mean(self, capsys):
        code, out, _ = run(capsys, ["eval", "power(0)", "2", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(4.0, rel=1e-12)
        assert payload["version"] == hm.__version__
        assert payload["command"] == ["eval", "power(0)", "2", "8"]

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

    def test_computation_error_exit_code(self, capsys):
        # generator overflow during evaluation
        code, _, err = run(capsys, ["eval", "quasi(exp)", "1000"])
        assert code == 1
        assert err.startswith("E_OVERFLOW:")

    @pytest.mark.parametrize(
        "text",
        [
            "bajrak(exp,pow:1)",
            "bajrak(log,pow:1)",
            "bajrak(id,pow:1)",
            "dev(pair:pow:1,pow:2)",
        ],
    )
    def test_pair_that_defines_no_mean_is_usage_error(self, capsys, text):
        # f/g is not strictly monotone (or, for a deviation, not increasing)
        code, out, err = run(capsys, ["eval", text, "1", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("E_INVALID:")

    def test_saturated_ratio_exit_code(self, capsys):
        # x**-300 underflows to 0 on [20, 30]: the bisection has no bracket
        code, out, err = run(capsys, ["eval", "bajrak(pow:-300,exp)", "20", "30"])
        assert code == 1
        assert out == ""
        assert err.startswith("E_BRACKET:")


class TestHardyCommand:
    def test_report_keys_and_values(self, capsys):
        code, out, _ = run(capsys, ["hardy", "power(0)", "--nmax", "10000"])
        assert code == 0
        payload = json.loads(out)
        for key in (
            "command",
            "version",
            "seed",
            "method",
            "estimate",
            "reference",
            "reference_kind",
            "tolerance",
            "nmax",
            "notes",
        ):
            assert key in payload
        assert payload["method"] == "homogeneous-limit"
        assert payload["estimate"] == pytest.approx(2.7168, rel=1e-3)
        assert payload["reference"] == pytest.approx(math.e)
        assert payload["reference_kind"] == "closed-form"
        assert payload["nmax"] == 10000

    def test_gauss_mean_cross_checked_against_registry(self, capsys):
        code, out, _ = run(
            capsys, ["hardy", "gauss(power(-1),power(0))", "--nmax", "2000"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == pytest.approx(2.318, rel=1e-3)
        assert payload["estimate"] == pytest.approx(payload["reference"], rel=0.03)

    def test_divergent_mean_has_no_finite_estimate(self, capsys):
        code, out, _ = run(capsys, ["hardy", "power(1)", "--nmax", "2000"])
        assert code == 0
        payload = json.loads(out)
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
        payload = json.loads(out)
        assert payload["divergent"] is True
        assert payload["reference_kind"] == "not-a-hardy-mean"

    def test_signed_power_pair_reports_as_its_gini_mean(self, capsys):
        # x**-300 overflows in a plain p_n sweep; the pair runs on the
        # log-domain kernel of G_{-300,1} and reports exactly as that mean
        code, out, _ = run(capsys, ["hardy", "bajrak(pow:-300,pow:1)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["divergent"] is True
        code, gini_out, _ = run(capsys, ["hardy", "gini(-300,1)"])
        assert code == 0
        gini = json.loads(gini_out)
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
        payload, power = json.loads(out), json.loads(power_out)
        del payload["command"], power["command"]
        assert payload == power

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

    def test_ygrid_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["hardy", "quasi(exp)", "--nmax", "500", "--ygrid", "0.01:10:5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "sup-liminf-grid"

    def test_bad_ygrid_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["hardy", "power(0)", "--ygrid", "oops"])
        assert code == 2


class TestOtherCommands:
    def test_probe_reports_verdicts(self, capsys):
        code, out, _ = run(capsys, ["probe", "gini(2,1)", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 1
        assert payload["verdicts"]["jensen_concavity"]["holds_on_samples"] is False
        counterexample = payload["verdicts"]["jensen_concavity"]["counterexample"]
        assert counterexample["margin"] > 1e-9

    def test_hardy_seq(self, capsys):
        code, out, _ = run(
            capsys, ["hardy-seq", "power(0)", "--n", "2", "--restarts", "6"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-3)
        assert len(payload["maximizer"]) == 2
        assert len(payload["trace"]) == payload["restarts"]

    def test_liminf(self, capsys):
        code, out, _ = run(
            capsys,
            ["liminf", "gini(0.5,-1)", "--seq", "harmonic", "--nmax", "4000"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == pytest.approx(4 ** (2 / 3), rel=0.03)
        assert payload["window"] == [2000, 4000]

    def test_liminf_requires_sequence_choice(self, capsys):
        code, _, _ = run(capsys, ["liminf", "power(0)", "--seq", "primes"])
        assert code == 2

    def test_kedlaya_coeffs(self, capsys):
        code, out, _ = run(capsys, ["kedlaya", "coeffs", "--n", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        table = payload["coefficients"]
        for i in range(5):
            for j in range(5):
                assert sum(table[i][j]) == 24

    def test_kedlaya_matrix(self, capsys):
        code, out, _ = run(capsys, ["kedlaya", "matrix", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["occurrences_pass"] is True
        assert len(payload["matrix"]) == 6

    def test_kedlaya_check(self, capsys):
        code, out, _ = run(
            capsys, ["kedlaya", "check", "power(0)", "--samples", "100", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
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
        payload = json.loads(out)
        assert f"{payload['value']:.4g}" == "2.318"

    def test_gauss_command_needs_two_means(self, capsys):
        code, _, _ = run(capsys, ["gauss", "power(0)", "--at", "1", "2"])
        assert code == 2

    def test_gauss_nonconvergence_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            ["gauss", "arith", "geom", "--at", "1e6", "1", "--max-iterations", "2"],
        )
        assert code == 1
        assert err.startswith("E_NONCONVERGENCE:")


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
        echoed = json.loads(first)["command"]
        assert echoed == argv
        code, second, _ = run(capsys, echoed)
        assert code == 0
        assert second == first
