import json
import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import hardy
from hardymeans.cli import run_command
from conftest import lambert_w_mean, sweep_as


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
        assert json.loads(out)["value"] == pytest.approx(value, rel=1e-15)

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
        assert json.loads(out)["value"] == 1000.0

    def test_exp_pair_past_the_double_range_evaluates(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, ["eval", "bajrak(exp,pow:-1)", "1", "710"])
        assert code == 0
        value = json.loads(out)["value"]
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
            assert abs(json.loads(out)["value"] - exact) <= 4e-15 * exact

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
        payload = json.loads(out)
        for key in (
            "command",
            "version",
            "seed",
            "status",
            "method",
            "estimate",
            "reference",
            "reference_kind",
            "tolerance",
            "nmax",
            "notes",
        ):
            assert key in payload
        assert (payload["status"], payload["method"]) == ("certified-lower", "homogeneous-limit")
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

    def test_failed_pn_audit_drops_the_tolerance(self, capsys, monkeypatch):
        # prefix means whose p_n = n * M rise from 1 to 2 but decrease once,
        # so the published tolerance is not met
        def values(n):
            v = np.linspace(1.0, 2.0, n)
            v[n // 2] = v[n // 2 + 1] + 1e-6
            return v

        monkeypatch.setattr(hardy, "prefix_means", sweep_as(values))
        code, out, _ = run(capsys, ["hardy", "power(1e-14)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == pytest.approx(math.e, rel=1e-3)
        assert (payload["status"], payload["tolerance"]) == ("estimate", None)
        assert any("p_n decreased" in note for note in payload["notes"])

    def test_lower_bound_above_the_reference_is_not_certified(self, capsys, monkeypatch):
        # prefix means of 1, the maximum along 1/k, so p_n = n: far above e,
        # yet it never decreases
        monkeypatch.setattr(hardy, "prefix_means", sweep_as(lambda n: np.arange(1.0, n + 1.0)))
        code, out, _ = run(capsys, ["hardy", "power(1e-300)", "--nmax", "200"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["estimate"], payload["reference"]) == (200.0, math.e)
        assert (payload["tolerance"], payload["max_pn_decrease"]) == (None, 0.0)
        assert payload["status"] == "estimate"
        assert payload["notes"] == [
            "registry: power-mean constant (1-p)^(-1/p)",
            "estimate (uncertified): 200 exceeds the registered constant 2.71828 "
            "by more than rounding, so it is no lower bound",
        ]

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
            ["hardy", "bajrak(exp,pow:-1)", "--nmax", "300", "--ygrid", "0.01:10:5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "sup-liminf-grid"
        # the default grid's maximum sits at its edge y = 1000
        assert "grid maximum attained at y=10" in payload["notes"]

    @pytest.mark.parametrize("text", ["quasi(exp)", "bajrak(exp,pow:0)"])
    def test_mean_above_the_arithmetic_mean_is_divergent(self, capsys, tmp_path, text):
        # quasi(exp) >= A by Jensen's inequality, so one p_n sweep at y = 1
        # reports it, and --ygrid is ignored
        path = tmp_path / "pn.csv"
        code, out, _ = run(capsys, ["hardy", text, "--nmax", "200", "--csv", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "sup-liminf-grid"
        assert (payload["estimate"], payload["divergent"], payload["tolerance"]) == (
            None,
            True,
            None,
        )
        assert (payload["reference"], payload["reference_kind"]) == (None, "not-a-hardy-mean")
        assert payload["notes"][:2] == [
            "rules: quasi(exp) is >= the arithmetic mean: exp is convex and increasing (Jensen)",
            "not a Hardy mean; no finite certified constant exists",
        ]
        assert payload["notes"][2].startswith("growth trace: ")
        assert payload["max_pn_decrease"] == 0.0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,p_n" and len(lines) == 201
        code, out, _ = run(capsys, ["hardy", text, "--nmax", "200", "--ygrid", "2:5:3"])
        assert code == 0
        gridded = json.loads(out)
        del payload["command"], gridded["command"]
        assert gridded == payload

    @pytest.mark.parametrize(
        "text", ["gauss(gini(-0.2,-0.4),power(0))", "bajrak(exp,pow:-1)"]
    )
    def test_seed_is_ignored(self, capsys, text):
        payloads = []
        for seed in ("1", "2"):
            code, out, _ = run(capsys, ["hardy", text, "--nmax", "500", "--seed", seed])
            assert code == 0
            payload = json.loads(out)
            assert payload.pop("command")[-1] == seed
            assert payload["seed"] is None
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_product_of_near_zero_exponents_is_certified(self, capsys):
        code, out, _ = run(capsys, ["hardy", "gauss(power(-1e-09),power(1e-09))", "--nmax", "300"])
        assert code == 0
        assert json.loads(out)["status"] == "certified-lower"

    def test_ygrid_point_that_underflows_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["hardy", "bajrak(exp,pow:-1)", "--ygrid", "1e-320:1:3"])
        assert (code, out) == (2, "")
        assert err == "E_INVALID: y-grid point 9.99989e-321 / n_max=10000 underflows to 0\n"

    @pytest.mark.filterwarnings("error")
    def test_huge_ygrid_points_evaluate(self, capsys):
        argv = ["hardy", "bajrak(exp,pow:-1)", "--nmax", "300", "--ygrid", "1e300:1e308:3"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert not any("skipped" in note for note in json.loads(out)["notes"])

    def test_bad_ygrid_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["hardy", "power(0)", "--ygrid", "oops"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["1:inf:3", "1:1e400:2"])
    def test_non_finite_ygrid_end_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, ["hardy", "quasi(exp)", "--ygrid", spec])
        assert (code, out) == (2, "")
        assert "argument --ygrid" in err
        assert "is not a positive finite number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # several grid points with every prefix in the tail: the maximum
            # sits at y = 501.187, whose tail is v_n(y), not p_n
            ["bajrak(exp,pow:-1)", "--nmax", "3"],
            # a one-point grid away from y = 1
            ["bajrak(exp,pow:-1)", "--nmax", "50", "--ygrid", "0.5:2:1"],
        ],
    )
    def test_grid_tail_away_from_one_is_not_reported_as_pn(self, capsys, tmp_path, argv):
        path = tmp_path / "pn.csv"
        code, out, _ = run(capsys, ["hardy", *argv, "--csv", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "sup-liminf-grid"
        assert payload["max_pn_decrease"] is None
        assert payload["notes"][-1] == "no p_n sweep on the grid path; CSV not written"
        assert not path.exists()

    def test_no_evaluable_grid_point_is_computation_error(self, capsys, monkeypatch):
        from hardymeans import hardy

        def failing(expr, y, n_max, start):
            raise hm.MeanComputationError(f"no tail at y={y:g}")

        monkeypatch.setattr(hardy, "_tail", failing)
        code, out, err = run(
            capsys,
            ["hardy", "bajrak(exp,pow:-1)", "--nmax", "100", "--ygrid", "1000:2000:3"],
        )
        assert code == 1
        assert out == ""
        assert err == "E_COMPUTE: no y-grid point was evaluable; widen or shift the grid\n"

    def test_one_point_sweep_raises_its_own_error(self, capsys):
        # a homogeneous mean sweeps y = 1 alone: there is no grid to skip on
        argv = ["gauss(power(10000),power(-10000))", "--nmax", "4"]
        code, out, err = run(capsys, ["hardy", *argv])
        assert (code, out) == (1, "")
        assert err == (
            "E_NONCONVERGENCE: Gaussian product did not converge "
            "(iterations=10000, gap=7.327e-06)\n"
        )

    def test_grid_edge_maximum_reports_no_estimate(self, capsys, tmp_path):
        argv = ["hardy", "bajrak(exp,pow:-1)", "--nmax", "300"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert (payload["estimate"], payload["divergent"], payload["tolerance"]) == (
            None,
            False,
            None,
        )
        assert payload["status"] == "inconclusive"
        path = tmp_path / "pn.csv"
        code, out, _ = run(capsys, [*argv, "--csv", str(path)])
        assert code == 0
        assert json.loads(out)["notes"] == [
            *payload["notes"],
            "no p_n sweep on the grid path; CSV not written",
        ]
        assert not path.exists()


class TestOtherCommands:
    def test_probe_reports_verdicts(self, capsys):
        code, out, _ = run(capsys, ["probe", "gini(2,1)", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 1
        assert payload["verdicts"]["jensen_concavity"]["holds_on_samples"] is False
        counterexample = payload["verdicts"]["jensen_concavity"]["counterexample"]
        assert counterexample["margin"] > 1e-9

    @pytest.mark.parametrize("text", ["quasi(exp)", "bajrak(exp,pow:0)", "bajrak(exp,pow:-1)"])
    def test_probe_reaches_exp_means(self, capsys, text):
        # the default samples run up to 1e3, past exp's double range
        code, out, _ = run(capsys, ["probe", text])
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        violated = {name for name, v in verdicts.items() if not v["holds_on_samples"]}
        if text == "quasi(exp)":
            known = hm.QuasiArithmetic(hm.EXP).known_properties()
            denied = {name for name, value in known.items() if value is not True}
            assert denied == {"homogeneity", "jensen_concavity"}
            assert denied <= violated

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
        payload = json.loads(out)
        assert list(payload)[:3] == ["command", "version", "seed"]
        assert payload["command"] == argv
        assert payload["version"] == hm.__version__
        assert payload["seed"] == seed

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
        echoed = json.loads(first)["command"]
        assert echoed == argv
        code, second, _ = run(capsys, echoed)
        assert code == 0
        assert second == first
