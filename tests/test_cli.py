"""Command-line interface: report schemas, exit codes, reproducibility."""

import importlib.metadata
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from signcorr import __version__
from signcorr.cli import _json_value, _report, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_passing_run(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--eta", "0.228"])
        assert code == 0
        assert out.endswith("\n")
        report = json.loads(out)
        assert list(report) == [
            "command", "inputs", "value", "error_estimate",
            "threshold", "margin", "pass", "version",
        ]
        assert report["command"] == "verify"
        assert report["pass"] is True
        assert report["inputs"]["method"] == "bessel"
        assert report["margin"] > 5.1e-4

    def test_failing_run_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--eta", "0"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, ["verify", "--eta", "0.228"])
        _, second, _ = run_cli(capsys, ["verify", "--eta", "0.228"])
        assert first == second

    def test_method_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--eta", "0.228",
                                        "--method", "polar"])
        assert code == 0
        assert json.loads(out)["inputs"]["method"] == "polar"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--eta", "0.228",
                                        "--format", "text"])
        assert code == 0
        assert "pass = true" in out
        assert "margin = " in out

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--eta", "0.228",
                                        "--format", "csv"])
        assert code == 2
        assert "csv" in err

    def test_non_finite_eta_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--eta", "nan"])
        assert code == 2

    def test_non_convergent_quadrature_exits_three(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--eta", "5e6"])
        assert code == 3
        assert "non-convergence" in err

    @pytest.mark.parametrize("eta,code", [("0.228", 0), ("0", 1), ("1e308", 3)])
    def test_fourier_method(self, capsys, eta, code):
        got, out, err = run_cli(capsys, ["verify", "--eta", eta, "--method", "fourier"])
        assert got == code
        if code == 3:
            assert out == ""
            assert err.startswith(
                "signcorr: non-convergence: the Laplace factor, about 2 (2k+1) eta, "
                "overflows for some k < "
            )
        else:
            report = json.loads(out)
            assert report["inputs"]["method"] == "fourier"
            assert report["pass"] is (code == 0)

    def test_cartesian_budget_covers_nested_solve(self, capsys):
        # tens of millions of evaluations at eta 20: the one budget of 10^7
        # for the whole 2D solve stops it, where per-pass budgets did not
        code, out, err = run_cli(capsys, ["verify", "--eta", "20",
                                          "--method", "cartesian"])
        assert code == 3
        assert out == ""
        assert "within 10000000 evaluations" in err


class TestSweepCommand:
    def test_json_is_bare_array(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--lo", "0", "--hi", "0.5",
                                        "--steps", "4"])
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list)
        assert len(rows) == 5
        assert list(rows[0]) == ["eta", "value", "error_estimate"]
        assert rows[0]["eta"] == 0.0
        assert rows[-1]["eta"] == 0.5

    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--lo", "0", "--hi", "0.5",
                                        "--steps", "10", "--format", "csv"])
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "eta,value,error_estimate"
        assert len(lines) == 12

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--lo", "0", "--hi", "0.4",
                                        "--steps", "4", "--format", "text"])
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 7
        assert lines[0].startswith("eta = 0  value = ")
        assert "  error_estimate = " in lines[0]
        assert lines[-2].startswith("best_eta = ")
        assert lines[-1].startswith("best_value = ")

    def test_inverted_range_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["sweep", "--lo", "1", "--hi", "0"])
        assert code == 2

    def test_negative_steps_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--lo", "0", "--hi", "0.5", "--steps", "-1"])
        assert exc.value.code == 2


class TestSeriesCommand:
    def test_full_report(self, capsys):
        code, out, _ = run_cli(capsys, ["series", "--eta", "0.228"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "series"
        assert len(report["direct_coefficients"]) == 6
        assert len(report["inverse_coefficients"]) == 6
        assert report["signs"] == ["+", "-", "-", "+", "-", "+"]
        assert report["alternating"] is False
        assert report["first_violation"] == 5
        assert 1.7805 < report["conditional_bound"] < 1.7806

    def test_alternating_case_omits_violation(self, capsys):
        code, out, _ = run_cli(capsys, ["series", "--eta", "0"])
        assert code == 0
        report = json.loads(out)
        assert report["alternating"] is True
        assert "first_violation" not in report

    def test_negative_value_omits_conditional_bound(self, capsys):
        # Phi(i)/i < 0 at eta 5, so the bound 1/v does not exist
        code, out, _ = run_cli(capsys, ["series", "--eta", "5"])
        assert code == 0
        report = json.loads(out)
        assert report["value"] < 0
        assert "conditional_bound" not in report

    def test_order_15_at_large_eta(self, capsys):
        code, out, _ = run_cli(capsys, ["series", "--eta", "12", "--order", "15"])
        assert code == 0
        assert len(json.loads(out)["direct_coefficients"]) == 8

    def test_huge_eta_exits_three(self, capsys):
        # the value is computed first, so its non-convergence is reported
        # before the series overflows
        code, out, err = run_cli(capsys, ["series", "--eta", "1e300"])
        assert code == 3
        assert out == ""
        assert err.startswith("signcorr: non-convergence: ")

    def test_even_order_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["series", "--eta", "0.228",
                                        "--order", "4"])
        assert code == 2
        assert "odd" in err


class TestMcCommand:
    def test_identity_report(self, capsys):
        code, out, _ = run_cli(capsys, ["mc", "--family", "identity1",
                                        "--samples", "100000", "--seed", "42"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "mc"
        assert report["samples"] == 100000
        assert report["seed"] == 42
        assert "reference" in report
        assert abs(report["z_score"]) < 4.0

    def test_phi_t_reference(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "--family", "identity1", "--target", "phi-t", "--t", "0.5",
            "--samples", "100000", "--seed", "7",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["reference"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report["inputs"]["t"] == 0.5

    def test_hermite5_has_no_reference(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "--family", "hermite5", "--epsilon", "0.05",
            "--samples", "50000", "--seed", "3",
        ])
        assert code == 0
        report = json.loads(out)
        assert "reference" not in report
        assert "z_score" not in report

    @pytest.mark.parametrize("t", ["1", "-1"])
    def test_rotation3_unit_t_has_no_reference(self, capsys, t):
        # phi_real_t needs |t| < 1, so the estimate is reported without one
        code, out, _ = run_cli(capsys, [
            "mc", "--family", "rotation3", "--eta", "0.228", "--target", "phi-t",
            "--t", t, "--samples", "1000", "--seed", "42",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["t"] == float(t)
        assert "reference" not in report
        assert "z_score" not in report

    # phi-i: phi_i_bessel at eta 5e6 passes its evaluation budget; phi-t:
    # phi_real_t at 1 - |t| = 1e-10 would pass its 2^20-sample budget
    @pytest.mark.parametrize(
        "target", [[], ["--target", "phi-t", "--t", "0.9999999999"]]
    )
    def test_failed_reference_exits_three_before_sampling(
        self, capsys, monkeypatch, target
    ):
        def never(*args):
            raise AssertionError("sampled although the reference failed")

        monkeypatch.setattr("signcorr.cli.estimate_phi_i", never)
        monkeypatch.setattr("signcorr.cli.estimate_phi_t", never)
        code, out, err = run_cli(capsys, [
            "mc", "--family", "rotation3", "--eta", "5e6",
            "--samples", "2000000", "--seed", "1", *target,
        ])
        assert code == 3
        assert out == ""
        assert "non-convergence" in err

    @pytest.mark.parametrize("target", [[], ["--target", "phi-t", "--t", "0.3"]])
    def test_csv_refused_before_sampling(self, capsys, monkeypatch, target):
        def never(*args):
            raise AssertionError("sampled although csv is refused")

        monkeypatch.setattr("signcorr.cli.estimate_phi_i", never)
        monkeypatch.setattr("signcorr.cli.estimate_phi_t", never)
        code, out, err = run_cli(capsys, [
            "mc", "--family", "rotation3", "--eta", "0.228",
            "--samples", "4000000", "--seed", "42", "--format", "csv", *target,
        ])
        assert code == 2
        assert out == ""
        assert err == (
            "signcorr: error: csv output is only available for the sweep command\n"
        )

    def test_failed_reference_under_csv_still_exits_three(self, capsys, monkeypatch):
        # the reference comes first, so a csv request does not mask its failure
        def never(*args):
            raise AssertionError("sampled although the reference failed")

        monkeypatch.setattr("signcorr.cli.estimate_phi_i", never)
        code, out, err = run_cli(capsys, [
            "mc", "--family", "rotation3", "--eta", "5e6",
            "--samples", "2000000", "--seed", "1", "--format", "csv",
        ])
        assert code == 3
        assert out == ""
        assert "non-convergence" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["mc", "--family", "rotation3", "--eta", "0.228",
                "--samples", "50000", "--seed", "42"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_missing_family_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["mc", "--family", "rotation3",
                                        "--samples", "1000", "--seed", "1"])
        assert code == 2
        assert "--eta" in err

    def test_wrong_parameter_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["mc", "--family", "identity1",
                                      "--eta", "0.2", "--samples", "1000",
                                      "--seed", "1"])
        assert code == 2

    def test_t_without_phi_t_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["mc", "--family", "identity1",
                                      "--t", "0.5", "--samples", "1000",
                                      "--seed", "1"])
        assert code == 2

    def test_phi_t_without_t_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["mc", "--family", "identity1",
                                      "--target", "phi-t",
                                      "--samples", "1000", "--seed", "1"])
        assert code == 2


class TestOptimizeCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, ["optimize", "--lo", "0.1",
                                        "--hi", "0.4"])
        assert code == 0
        report = json.loads(out)
        assert 0.20 <= report["eta_star"] <= 0.26
        assert report["unimodal"] is True
        assert report["value"] > report["inputs"]["lo"]

    def test_inverted_bracket_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["optimize", "--lo", "0.4",
                                      "--hi", "0.1"])
        assert code == 2


class TestFormatsAndEnvironment:
    def test_env_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNCORR_FORMAT", "text")
        _, out, _ = run_cli(capsys, ["verify", "--eta", "0.228"])
        assert out.startswith("command = verify")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNCORR_FORMAT", "text")
        _, out, _ = run_cli(capsys, ["verify", "--eta", "0.228",
                                     "--format", "json"])
        json.loads(out)

    def test_bad_env_format_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNCORR_FORMAT", "yaml")
        code, _, err = run_cli(capsys, ["verify", "--eta", "0.228"])
        assert code == 2
        assert "yaml" in err

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        # SIGNCORR_THREADS is ignored, whatever its value
        argv = ["sweep", "--lo", "0", "--hi", "0.4", "--steps", "6"]
        monkeypatch.delenv("SIGNCORR_THREADS", raising=False)
        _, serial, _ = run_cli(capsys, argv)
        for value in ("3", "many"):
            monkeypatch.setenv("SIGNCORR_THREADS", value)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert out == serial

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["verify", "--eta", "0.228",
                                        "--out", str(path)])
        assert code == 0
        assert out == ""
        on_disk = path.read_text(encoding="utf-8")
        assert json.loads(on_disk)["pass"] is True
        assert on_disk.endswith("\n")

    def test_out_unwritable_path_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, ["verify", "--eta", "0.228",
                                          "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("signcorr: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2


USAGE_ERRORS = [
    (["verify", "--eta", "0.228", "--tol", "0"],
     "signcorr verify: error: argument --tol: must be positive and finite, got 0"),
    (["verify", "--eta", "0.228", "--tol", "inf"],
     "signcorr verify: error: argument --tol: must be positive and finite, got inf"),
    (["sweep", "--lo", "0", "--hi", "1", "--tol", "nan"],
     "signcorr sweep: error: argument --tol: must be positive and finite, got nan"),
    (["optimize", "--lo", "0.1", "--hi", "0.4", "--tol", "inf"],
     "signcorr optimize: error: argument --tol: must be positive and finite, got inf"),
    (["optimize", "--lo", "0.1", "--hi", "0.4", "--xtol", "-1"],
     "signcorr optimize: error: argument --xtol: must be positive and finite, got -1"),
    (["optimize", "--lo", "0.1", "--hi", "0.4", "--xtol", "inf"],
     "signcorr optimize: error: argument --xtol: must be positive and finite, got inf"),
    (["verify", "--eta", "0.228", "--format", "csv"],
     "signcorr: error: csv output is only available for the sweep command"),
    (["verify", "--eta", "nan"],
     "signcorr: error: --eta must be finite, got nan"),
    (["sweep", "--lo", "1", "--hi", "0"],
     "signcorr: error: --lo must not exceed --hi, got [1.0, 0.0]"),
    (["series", "--eta", "0.228", "--order", "4"],
     "signcorr: error: order must be odd, got 4"),
    (["optimize", "--lo", "0.4", "--hi", "0.1"],
     "signcorr: error: need --lo < --hi, got [0.4, 0.1]"),
    (["sweep", "--lo", "-1e308", "--hi", "1e308"],
     "signcorr: error: need finite lo <= hi, hi - lo finite, got [-1e+308, 1e+308]"),
    # refused before any eta is computed, not by running out of memory
    (["sweep", "--lo", "0", "--hi", "0.5", "--steps", "1000000000000000"],
     "signcorr: error: steps must be below 1048576, got 1000000000000000"),
    (["mc", "--family", "identity1", "--eta", "0.2", "--seed", "1"],
     "signcorr: error: identity1 takes no --eta or --epsilon"),
    (["mc", "--family", "rotation3", "--seed", "1"],
     "signcorr: error: rotation3 requires --eta"),
    (["mc", "--family", "rotation3", "--eta", "0.2", "--epsilon", "0.1",
      "--seed", "1"],
     "signcorr: error: rotation3 takes --eta, not --epsilon"),
    (["mc", "--family", "rotation3", "--eta", "inf", "--seed", "1"],
     "signcorr: error: --eta must be finite, got inf"),
    (["mc", "--family", "hermite5", "--seed", "1"],
     "signcorr: error: hermite5 requires --epsilon"),
    (["mc", "--family", "hermite5", "--epsilon", "0.1", "--eta", "0.2",
      "--seed", "1"],
     "signcorr: error: hermite5 takes --epsilon, not --eta"),
    (["mc", "--family", "hermite5", "--epsilon", "nan", "--seed", "1"],
     "signcorr: error: --epsilon must be finite, got nan"),
    (["mc", "--family", "identity1", "--target", "phi-t", "--seed", "1"],
     "signcorr: error: --target phi-t requires --t"),
    (["mc", "--family", "rotation3", "--eta", "0.228", "--target", "phi-t",
      "--t", "2", "--seed", "1"],
     "signcorr: error: --t must satisfy |t| <= 1, got 2.0"),
    (["mc", "--family", "identity1", "--t", "0.5", "--seed", "1"],
     "signcorr: error: --t is only meaningful with --target phi-t"),
    (["mc", "--family", "identity1", "--samples", "0", "--seed", "1"],
     "signcorr mc: error: argument --samples: must be >= 1, got 0"),
    # refused before any draw, not after minutes of sampling
    (["mc", "--family", "identity1", "--samples", "1073741825", "--seed", "1"],
     "signcorr: error: samples must be at most 2**30, got 1073741825"),
    (["mc", "--family", "identity1", "--samples", "1000",
      "--seed", "18446744073709551616"],
     "signcorr: error: seed must be an integer in [0, 2**64), got 18446744073709551616"),
    # a malformed number names the type it should parse as, not a parser
    (["mc", "--family", "identity1", "--samples", "1e6", "--seed", "1"],
     "signcorr mc: error: argument --samples: invalid int value: '1e6'"),
    (["mc", "--family", "identity1", "--seed", "x"],
     "signcorr mc: error: argument --seed: invalid int value: 'x'"),
    (["verify", "--eta", "0.228", "--tol", "abc"],
     "signcorr verify: error: argument --tol: invalid float value: 'abc'"),
    (["sweep", "--lo", "0", "--hi", "1", "--steps", "2.5"],
     "signcorr sweep: error: argument --steps: invalid int value: '2.5'"),
]


@pytest.mark.parametrize("argv,line", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_two_with_one_message(capsys, argv, line):
    # argparse rejects bad flag values itself (SystemExit); the handlers'
    # checks raise ValueError, which main turns into exit code 2
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == line


# each of these but the last printed a NaN value, or numpy warnings, or both
NUMERIC_EDGES = [
    (["verify", "--method", "fourier", "--eta", "5e306"], 3),
    (["sweep", "--lo", "4e306", "--hi", "5e306"], 3),
    (["optimize", "--lo", "4e306", "--hi", "5e306"], 3),
    # the phi_real_t reference overflows its Laplace factor
    (["mc", "--family", "rotation3", "--eta", "1e307", "--target", "phi-t",
      "--t", "0.3", "--samples", "1000", "--seed", "1"], 3),
    # the mixing angle overflows, so its cosine and the weights are NaN
    (["mc", "--family", "rotation3", "--eta", "5e307", "--target", "phi-t",
      "--t", "0.001", "--samples", "100000", "--seed", "1"], 3),
    # F overflows to inf, which keeps its sign
    (["mc", "--family", "hermite5", "--epsilon", "1e308", "--samples", "100000",
      "--seed", "1"], 0),
    (["verify", "--method", "fourier", "--eta", "3.5e306"], 1),
]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv,expected", NUMERIC_EDGES,
                         ids=[" ".join(argv) for argv, _ in NUMERIC_EDGES])
def test_numeric_edge_reports_strict_json_quietly(capsys, argv, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == expected
    if code == 3:
        assert out == ""
        assert err.startswith("signcorr: non-convergence: ")
        assert err.count("\n") == 1
    else:
        json.loads(out, parse_constant=_no_constant)
        assert err == ""


# argparse's own negative-number pattern has no exponent, so without the
# parser's wider one each of these exits 2 with "expected one argument"
NEGATIVE_EXPONENT_ARGS = [
    ["verify", "--eta", "-2e-1"],
    ["sweep", "--lo", "-1e-3", "--hi", "0.01", "--steps", "2"],
    ["optimize", "--lo", "-3e-1", "--hi", "-1E-1"],
    ["mc", "--family", "rotation3", "--eta", "0.228", "--target", "phi-t",
     "--t", "-3e-1", "--samples", "1000", "--seed", "1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_EXPONENT_ARGS, ids=" ".join)
def test_negative_value_with_exponent(capsys, argv):
    # the same run with each negative value glued on by "=" is the reference
    glued = []
    for token in argv:
        if token[0] == "-" and token[1] != "-":
            glued[-1] += "=" + token
        else:
            glued.append(token)
    assert glued != argv
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, glued) == (code, out, err)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script_target(name):
    """The `module:attr` that the console script `name` runs.

    Read from pyproject.toml's [project.scripts]; where `tomllib` is missing
    (Python 3.10), from the installed distribution's entry points.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        for ep in importlib.metadata.entry_points(group="console_scripts"):
            if ep.name == name:
                return ep.value
        pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestRendering:
    # every value kind a report holds: floats by .17g (-0.0 and subnormal
    # magnitudes included), the other leaves as JSON writes them
    PAYLOAD = {
        "inputs": {"eta": 0.1, "method": "bessel", "order": 3},
        "pass": True,
        "alternating": False,
        "value": -0.0,
        "tiny": 1e-300,
        "note": 'say "hi"',
        "signs": ["+", "-", "+"],
        "coefficients": [1.0, -0.5, 1e-300],
    }

    def test_json(self):
        assert _report("verify", self.PAYLOAD, "json") == (
            '{"command": "verify", "inputs": {"eta": 0.10000000000000001, '
            '"method": "bessel", "order": 3}, "pass": true, "alternating": false, '
            '"value": -0, "tiny": 1e-300, "note": "say \\"hi\\"", '
            '"signs": ["+", "-", "+"], "coefficients": [1, -0.5, 1e-300], '
            f'"version": "{__version__}"}}'
        )

    def test_text(self):
        assert _report("verify", self.PAYLOAD, "text") == "\n".join([
            "command = verify",
            "inputs.eta = 0.10000000000000001",
            "inputs.method = bessel",
            "inputs.order = 3",
            "pass = true",
            "alternating = false",
            "value = -0",
            "tiny = 1e-300",
            'note = say "hi"',
            "signs = +, -, +",
            "coefficients = 1, -0.5, 1e-300",
            f"version = {__version__}",
        ])

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_none_is_refused_not_written_as_null(self, fmt):
        # an absent field is omitted from a report, never printed as null
        with pytest.raises(TypeError):
            _json_value(None)
        with pytest.raises(TypeError):
            _report("verify", {"inputs": {"eta": None}}, fmt)


class TestSubprocessEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "signcorr", "verify", "--eta", "0.228"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pass"] is True
        assert proc.stdout.endswith("\n")

    def test_console_script_matches_module(self):
        # Run the declared [project.scripts] target the way an installed shim
        # does, so a source checkout checks it too; an installed `signcorr`
        # on PATH is checked as well.
        argv = ["sweep", "--lo", "0", "--hi", "0.3", "--steps", "3"]
        module, attr = console_script_target("signcorr").split(":")
        shim = (f"import sys; from {module} import {attr}; "
                f"sys.exit({attr}())")
        a = subprocess.run([sys.executable, "-m", "signcorr", *argv],
                           capture_output=True)
        b = subprocess.run([sys.executable, "-c", shim, *argv],
                           capture_output=True)
        assert a.returncode == b.returncode == 0, b.stderr
        assert a.stdout == b.stdout
        installed = shutil.which("signcorr")
        if installed is not None:
            c = subprocess.run([installed, *argv], capture_output=True)
            assert c.returncode == 0, c.stderr
            assert a.stdout == c.stdout

    def test_overflowing_eta_exits_three_at_once(self):
        # eta * (2 rho - 1) overflows: one non-convergence line, no numpy
        # warnings, well inside the budget's 10^6 evaluations
        proc = subprocess.run(
            [sys.executable, "-m", "signcorr", "verify", "--eta", "1e308"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("signcorr: non-convergence: non-finite integrand value")

    def test_float_serialization_is_17g(self):
        proc = subprocess.run(
            [sys.executable, "-m", "signcorr", "verify", "--eta", "0.228"],
            capture_output=True, text=True,
        )
        # 0.228 is not exactly representable; .17g exposes the stored double
        assert '"eta": 0.22800000000000001' in proc.stdout
