"""Command-line interface: determinism, exit codes, config handling."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from minlen.cli import build_parser, main


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


SPECTRUM_OK = [
    "spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0", "--n-max", "4",
]


# ---- determinism ------------------------------------------------------------


def test_spectrum_reruns_byte_identical(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        assert run(SPECTRUM_OK + ["--format", "csv", "--out-dir", d]) == 0
    assert read(d1 + "/spectrum.csv") == read(d2 + "/spectrum.csv")
    assert read(d1 + "/report.json") == read(d2 + "/report.json")


def test_verify_reruns_byte_identical(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        assert run(
            ["verify-algebra", "--dims", "1", "--case", "algebra",
             "--out-dir", d]
        ) == 0
    assert read(d1 + "/report.json") == read(d2 + "/report.json")


def test_wavefunction_reruns_byte_identical(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = [
        "wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
        "--n", "1", "--grid-size", "2001", "--format", "csv",
    ]
    for d in (d1, d2):
        assert run(args + ["--out-dir", d]) == 0
    assert read(d1 + "/wavefunction_n1_taup.csv") == read(
        d2 + "/wavefunction_n1_taup.csv"
    )


# ---- exit-code contract -----------------------------------------------------


def test_exit_codes(tmp_path):
    out = lambda name: ["--out-dir", str(tmp_path / name)]
    cases = [
        (["verify-algebra", "--dims", "1"] + out("c1"), 0),
        (SPECTRUM_OK + out("c2"), 0),
        # missing required option
        (["spectrum", "--omega-tilde", "1.0"] + out("c3"), 2),
        # invalid physical parameter
        (["spectrum", "--beta-tilde", "-1", "--omega-tilde", "1.0"]
         + out("c4"), 2),
        # refused regime is a check failure, not a usage error
        (["spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1.0"]
         + out("c5"), 1),
        # ... unless diagnostic mode is requested, when only the flag is set
        (["spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1.0",
          "--diagnostic"] + out("c6"), 0),
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "1", "--grid-size", "2001"] + out("c7"), 0),
        # (0, -1) is outside the spectrum
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "0", "--tau", "-1"] + out("c8"), 2),
        # unreachable residual tolerance fails the check
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "1", "--grid-size", "2001", "--tol", "1e-300"]
         + out("c9"), 1),
        # a grid too coarse for the state fails through quadrature_error
        (COARSE + out("c27"), 1),
        (["uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n-max", "1", "--grid-size", "2001"] + out("c10"), 0),
        (["limits", "--beta-values", "1e-3,1e-4,1e-5",
          "--omega-tilde", "0.7", "--expect-linear"] + out("c11"), 0),
        # successive betas not separated by 10x: ratio check fails
        (["limits", "--beta-values", "1e-3,5e-4", "--omega-tilde", "0.7",
          "--expect-linear"] + out("c12"), 1),
        (["limits", "--beta-values", "abc", "--omega-tilde", "0.7"]
         + out("c13"), 2),
        (["spectrum", "--config", str(tmp_path / "nope.cfg")] + out("c14"), 2),
    ]
    # out-of-range or malformed values are usage errors, never silently
    # replaced by a default, never a traceback and never an empty check
    WF = ["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "1"]
    UNC = ["uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1.0"]
    LIM = ["limits", "--beta-values", "1e-3", "--omega-tilde", "0.7"]
    cases += [
        (["verify-algebra", "--dims", "0"] + out("c15"), 2),
        (["verify-algebra", "--dims", "-1"] + out("c16"), 2),
        (WF + ["--grid-size", "2001", "--tol", "0"] + out("c17"), 2),
        (WF + ["--grid-size", "10"] + out("c18"), 2),
        (WF + ["--grid-size", "0"] + out("c19"), 2),
        # grids numpy refuses before allocating anything: past the memory
        # of any machine, and past what a float64 array can address
        (WF + ["--grid-size", "1000000000000000"] + out("c28"), 2),
        (UNC + ["--grid-size", "100000000000000000000"] + out("c29"), 2),
        (["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n-max", "-1"] + out("c20"), 2),
        (LIM + ["--n-max", "-1"] + out("c21"), 2),
        (UNC + ["--n-max", "-1"] + out("c22"), 2),
        # non-finite oscillator parameters
        (["spectrum", "--beta-tilde", "nan", "--omega-tilde", "1.0"]
         + out("c23"), 2),
        (["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "inf"]
         + out("c24"), 2),
        (["limits", "--beta-values", "nan", "--omega-tilde", "0.7"]
         + out("c25"), 2),
        (["limits", "--beta-values", "1e-3", "--omega-tilde", "-1"]
         + out("c26"), 2),
    ]

    def config(name, text):
        path = tmp_path / name
        path.write_text(text)
        return ["--config", str(path)]

    osc = "beta-tilde = 0.5\nomega-tilde = 1.0\n"
    cases += [
        (["verify-algebra"] + config("k1.cfg", "dims = 0\n") + out("k1"), 2),
        (["verify-algebra"] + config("k2.cfg", "dims = -1\n") + out("k2"), 2),
        (["verify-algebra"] + config("k3.cfg", "dims = two\n") + out("k3"), 2),
        (["wavefunction"] + config("k4.cfg", osc + "n = 1\ntol = 0\n")
         + out("k4"), 2),
        (["wavefunction"] + config("k5.cfg", osc + "n = 1\ngrid-size = 10\n")
         + out("k5"), 2),
        (["spectrum"] + config("k6.cfg", osc + "n-max = -1\n") + out("k6"), 2),
        (["spectrum"] + config("k7.cfg", osc + "n-max = 2.5\n") + out("k7"), 2),
        (["limits"] + config("k8.cfg", "beta-values = 1e-3\nomega-tilde = 0.7"
                                       "\nn-max = -1\n") + out("k8"), 2),
        (["uncertainty"] + config("k9.cfg", osc + "n-max = -1\n")
         + out("k9"), 2),
        (["spectrum"] + config("k10.cfg", "beta-tilde = nan\nomega-tilde = 1\n")
         + out("k10"), 2),
        (["spectrum"] + config("k11.cfg", "beta-tilde = 0.5\nomega-tilde = inf\n")
         + out("k11"), 2),
    ]
    # a config key or flag the subcommand does not define is a usage error,
    # never silently ignored
    cases += [
        (["spectrum"] + config("k12.cfg", osc + "n-mx = 2\n") + out("k12"), 2),
        (["verify-algebra"] + config("k13.cfg", "format = csv\n")
         + out("k13"), 2),
        (["spectrum"] + config("k14.cfg", osc + "tol = 1e-3\n")
         + out("k14"), 2),
    ]
    # an --out-dir that cannot be a directory is refused before any work
    not_dir = tmp_path / "regular-file"
    not_dir.write_text("")
    cases += [
        (SPECTRUM_OK + ["--out-dir", str(not_dir)], 2),
        (WF + ["--grid-size", "2001", "--out-dir", str(not_dir)], 2),
        (WF + ["--grid-size", "2001", "--out-dir", str(not_dir / "sub")], 2),
    ]
    for args, expected in cases:
        assert run(args) == expected, args
    for args in (
        ["verify-algebra", "--dims", "1", "--format", "csv"] + out("f1"),
        SPECTRUM_OK + ["--tol", "1e-3"] + out("f2"),
        SPECTRUM_OK + ["--out-dir", str(not_dir)],
        WF + ["--grid-size", "1000000000000000"] + out("f3"),
        UNC + ["--grid-size", "100000000000000000000"] + out("f4"),
    ):
        assert one_usage_error(args), args


COARSE = ["wavefunction", "--beta-tilde", "1e-6", "--omega-tilde", "0.05",
          "--n", "40", "--grid-size", "64"]


def test_coarse_grid_fails_on_quadrature_error(tmp_path):
    """64 nodes cannot resolve the 40 sign changes of this state: the
    exact residuals still hold, and the quadrature error is what fails."""
    assert run(COARSE + ["--out-dir", str(tmp_path)]) == 1
    report = json.loads(read(str(tmp_path / "report.json")))
    assert report["quadrature_error"] > report["tol"]
    assert max(report["residual_coupled_1"],
               report["residual_coupled_2"]) <= report["tol"]
    assert report["passed"] is False


CHECKED = ("residual_coupled_1", "residual_coupled_2", "quadrature_error")


def test_wavefunction_tol_is_inclusive(tmp_path):
    """A quantity equal to --tol passes; one ulp less --tol fails on it."""
    args = ["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1",
            "--n", "1", "--grid-size", "2001"]
    code, _, report = run_extreme(tmp_path / "a", args)
    worst = max(CHECKED, key=report.get)
    tol = report[worst]
    assert code == 0 and tol > 0
    code, err, report = run_extreme(tmp_path / "b", args + ["--tol", repr(tol)])
    assert code == 0 and err == [] and report["passed"] is True
    below = math.nextafter(tol, 0.0)
    code, err, report = run_extreme(tmp_path / "c",
                                    args + ["--tol", repr(below)])
    assert code == 1 and report["passed"] is False
    assert err == [f"check failed: {worst} = {tol:.3e} (tol {below:.3e})"]


# the doubles nearest 1 whose distance from 1 is at most 1e-8; no double's
# distance from 1 is 1e-8 exactly (it is a multiple of 2^-53 there)
NORM_EDGES = [1.00000001, 0.9999999900000001]


@pytest.mark.parametrize("edge", NORM_EDGES)
def test_wavefunction_norm_check_boundary(tmp_path, monkeypatch, edge):
    """|norm^2 - 1| <= 1e-8 passes at the last double inside it, and the
    next double out fails with one line."""
    from minlen.oscillator.wavefunction import WavefunctionGrid

    args = ["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1",
            "--n", "1", "--grid-size", "64"]
    outside = math.nextafter(edge, 2.0 if edge > 1 else 0.0)
    assert abs(edge - 1.0) <= 1e-8 < abs(outside - 1.0)
    for i, norm in enumerate([edge, outside]):
        monkeypatch.setattr(WavefunctionGrid, "norm_squared",
                            lambda self, norm=norm: norm)
        code, err, report = run_extreme(tmp_path / str(i), args)
        assert report["norm_squared"] == norm
        if norm == edge:
            assert code == 0 and err == [] and report["passed"] is True
        else:
            assert code == 1 and report["passed"] is False
            assert err == [f"check failed: norm_squared = {norm:.3e} "
                           "(tol 1 +- 1e-8)"]


def test_uncertainty_slack_boundary(tmp_path, monkeypatch):
    """A slack of -1e-10 passes; the next double below it fails."""
    import minlen.cli as cli

    report_of = cli.uncertainty_report
    args = ["uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1",
            "--n-max", "0", "--grid-size", "64"]
    edge = -1e-10
    for i, slack in enumerate([edge, math.nextafter(edge, -1.0)]):
        def pinned(wf, params, slack=slack):
            return {**report_of(wf, params), "slack": slack}

        monkeypatch.setattr(cli, "uncertainty_report", pinned)
        code, err, report = run_extreme(tmp_path / str(i), args)
        if slack == edge:
            assert code == 0 and err == [] and report["passed"] is True
        else:
            assert code == 1 and report["passed"] is False
            assert err == [f"check failed: level 0 slack = {slack:.3e} "
                           "(tol -1e-10)"]


def one_usage_error(args):
    """main returns 2 and writes exactly one stderr line, an `error:` one."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(args)
    text = err.getvalue()
    return code == 2 and text.startswith("error: ") and text.count("\n") == 1


def test_usage_error_is_one_line(tmp_path, capsys):
    assert run(["verify-algebra", "--dims", "0",
                "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --dims") and err.count("\n") == 1
    # nothing ran, so nothing was written
    assert not os.path.exists(tmp_path / "report.json")


def test_unknown_subcommand_is_usage_error():
    assert one_usage_error(["frobnicate"])


def test_unknown_flag_is_usage_error():
    assert one_usage_error(["spectrum", "--frobnicate"])


def test_malformed_flag_value_is_one_line(tmp_path):
    assert one_usage_error(["spectrum", "--beta-tilde", "0.5",
                            "--omega-tilde", "1.0", "--n-max", "abc",
                            "--out-dir", str(tmp_path)])


def test_abbreviated_flag_is_usage_error(tmp_path):
    assert one_usage_error(["spectrum", "--beta", "0.5", "--omega", "1",
                            "--n-ma", "2", "--out-dir", str(tmp_path)])
    assert one_usage_error(SPECTRUM_OK[:-2] + [
        "--n-ma", "2", "--out-dir", str(tmp_path)])


def test_console_entry_usage_error():
    """The `sys.exit(main())` path: exit status 2, one stderr line."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "minlen.cli", "spectrum", "--n-max", "abc"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# ---- config files -----------------------------------------------------------


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# oscillator setup\n"
        "beta-tilde = 0.5\n"
        "omega_tilde = 1.0   # trailing comment\n"
        "n-max = 2\n"
        "format = csv\n"
    )
    d = str(tmp_path / "out")
    assert run(["spectrum", "--config", str(cfg), "--out-dir", d]) == 0
    assert os.path.exists(d + "/spectrum.csv")
    text = read(d + "/report.json").decode()
    assert '"n_max": 2' in text


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta-tilde = 0.5\nomega-tilde = 1.0\nn-max = 2\n")
    d = str(tmp_path / "out")
    assert run(
        ["spectrum", "--config", str(cfg), "--n-max", "7", "--out-dir", d]
    ) == 0
    text = read(d + "/report.json").decode()
    assert '"n_max": 7' in text


def test_config_value_may_hold_an_equals_sign(tmp_path):
    """Only the first "=" of a line splits key from value."""
    out = tmp_path / "a=b"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out-dir = {out}\n")
    assert run(SPECTRUM_OK + ["--config", str(cfg)]) == 0
    assert os.path.exists(out / "report.json")


@pytest.mark.parametrize("argv, name, default", [
    (["spectrum"], "n_max", 10),
    (["uncertainty"], "n_max", 5),
    (["uncertainty"], "grid_size", 4001),
    (["wavefunction", "--n", "1"], "tau", 1),
], ids=["spectrum-n-max", "uncertainty-n-max", "uncertainty-grid-size",
        "wavefunction-tau"])
def test_flag_defaults(argv, name, default):
    osc = ["--beta-tilde", "0.5", "--omega-tilde", "1.0"]
    assert getattr(build_parser().parse_args(argv + osc), name) == default


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run(["spectrum", "--config", str(cfg)]) == 2


def test_config_matches_flag_run_bytewise(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "beta-tilde = 0.5\nomega-tilde = 1.0\nn-max = 4\nformat = csv\n"
    )
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["spectrum", "--config", str(cfg), "--out-dir", d1]) == 0
    assert run(SPECTRUM_OK + ["--format", "csv", "--out-dir", d2]) == 0
    assert read(d1 + "/spectrum.csv") == read(d2 + "/spectrum.csv")


# ---- config values are read by the flag parser -------------------------------


LIMITS_RATIO_MISS = "beta-values = 1e-3,5e-4\nomega-tilde = 0.7\n"
REFUSED = "beta-tilde = 1.5\nomega-tilde = 1.0\n"
WF_CFG = "beta-tilde = 0.5\nomega-tilde = 1.0\nn = 1\ngrid-size = 2001\n"


def config_run(tmp_path, command, text, name="run"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    return run([command, "--config", str(cfg),
                "--out-dir", str(tmp_path / name)])


def test_config_expect_linear_matches_flag(tmp_path):
    assert config_run(tmp_path, "limits",
                      LIMITS_RATIO_MISS + "expect-linear = true\n", "a") == 1
    assert run(["limits", "--beta-values", "1e-3,5e-4", "--omega-tilde",
                "0.7", "--expect-linear",
                "--out-dir", str(tmp_path / "b")]) == 1
    assert config_run(tmp_path, "limits",
                      LIMITS_RATIO_MISS + "expect-linear = false\n", "c") == 0


def test_config_diagnostic_matches_flag(tmp_path):
    assert config_run(tmp_path, "spectrum",
                      REFUSED + "diagnostic = true\n", "a") == 0
    assert run(["spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1.0",
                "--diagnostic", "--out-dir", str(tmp_path / "b")]) == 0
    assert config_run(tmp_path, "spectrum", REFUSED, "c") == 1


@pytest.mark.parametrize("command, text", [
    ("wavefunction", WF_CFG + "tau = 1.5\n"),
    ("limits", "beta-values = 1e-3\nomega-tilde = true\n"),
    ("spectrum", "beta-tilde = true\nomega-tilde = 1.0\n"),
    ("limits", LIMITS_RATIO_MISS + "expect-linear = maybe\n"),
    # config keys are spelt in full: `n` does not abbreviate `n-max`
    ("spectrum", "beta-tilde = 0.5\nomega-tilde = 1.0\nn = 2\n"),
], ids=["tau-1.5", "omega-true", "beta-true", "switch-maybe", "key-n"])
def test_config_value_is_usage_error(tmp_path, command, text):
    assert config_run(tmp_path, command, text) == 2


# ---- extreme but finite omega_tilde: a verdict, never a traceback ----------


def run_extreme(tmp_path, args):
    """Exit code, stderr lines and report.json (None if none was written)."""
    out = str(tmp_path / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args + ["--out-dir", out])
    path = os.path.join(out, "report.json")
    report = json.loads(read(path)) if os.path.exists(path) else None
    return code, err.getvalue().splitlines(), report


def test_spectrum_at_huge_omega(tmp_path):
    # bt K overflows: p0^2 and e_n + 1 take their limit 1/bt = 2
    code, err, report = run_extreme(tmp_path, [
        "spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1e300",
        "--n-max", "3", "--format", "csv",
    ])
    # the saturated |p0| ties in double precision, which is not a decrease
    assert code == 0 and err == []
    assert not report["unphysical_decrease"] and report["passed"]
    lines = read(str(tmp_path / "out" / "spectrum.csv")).decode().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, ln.split(","))))
            for ln in lines[1:]]
    assert len(rows) == 7
    for row in rows:
        if row["n"] > 0:
            assert abs(abs(row["p0_tilde"]) - 2 ** 0.5) < 1e-15
            assert abs(row["e_n"] - 1.0) < 1e-15


def test_spectrum_e_n_exact_at_large_omega(tmp_path):
    # bt K reaches 5e19, where K (1 - bt p0^2) cancels to -1.1e4
    code, err, report = run_extreme(tmp_path, [
        "spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1e10",
        "--n-max", "3",
    ])
    assert code == 0 and err == [] and report["passed"]
    rows = json.loads(read(str(tmp_path / "out" / "spectrum.json")))
    assert len(rows) == 7
    for row in rows:
        bt, x = Fraction(0.5), Fraction(1e10) * row["n"]
        K = x * (2 + bt * x)
        exact = K * (1 - bt) / (1 + bt * K)
        assert abs(Fraction(row["e_n"]) - exact) <= Fraction(1e-15), row


@pytest.mark.parametrize("mode", [[], ["--diagnostic"]],
                         ids=["plain", "diagnostic"])
def test_spectrum_self_check_names_the_first_miss(tmp_path, mode):
    # bt = 0: p0 = sqrt(1 + K) and e_n = K overflow from n = 1 on; the miss
    # exits 1 in diagnostic mode too
    code, err, report = run_extreme(tmp_path, [
        "spectrum", "--beta-tilde", "0", "--omega-tilde", "1e308",
        "--n-max", "3", *mode,
    ])
    assert code == 1 and report["passed"] is False
    assert len(err) == 1
    assert err[0].startswith("check failed: level n = 1, tau = 1: ")
    assert "(6 of 7 levels missed)" in err[0]
    assert list(report) == ["command", "beta_tilde", "omega_tilde", "n_max",
                            "levels", "unphysical_decrease", "passed"]


def test_wavefunction_at_huge_omega(tmp_path):
    code, err, report = run_extreme(tmp_path, [
        "wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1e300",
        "--n", "1",
    ])
    # 1 - bt p0^2 rounds to <= 0: a one-line check failure
    assert code == 1 and report is None
    assert len(err) == 1 and err[0].startswith("check failed:")


def test_wavefunction_at_tiny_omega_fails_quadrature(tmp_path):
    # the exact norm underflows to 0: quadrature_error is infinite (null)
    code, err, report = run_extreme(tmp_path, [
        "wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1e-320",
        "--n", "1",
    ])
    assert code == 1
    assert report["quadrature_error"] is None and not report["passed"]
    # no float warnings, one line naming what missed
    assert len(err) == 1 and err[0].startswith("check failed:")
    assert "quadrature_error = inf" in err[0]


@pytest.mark.parametrize("command", [["wavefunction", "--n", "2"],
                                     ["uncertainty", "--n-max", "2"]],
                         ids=["wavefunction", "uncertainty"])
def test_vanishing_beta_omega_product_is_named(tmp_path, command):
    # bt wt = 1e-300 * 1e-160 rounds to 0: lam = 1/(bt wt) has no value
    code, err, report = run_extreme(tmp_path, command + [
        "--beta-tilde", "1e-300", "--omega-tilde", "1e-160",
        "--grid-size", "64"])
    assert code == 1 and report is None
    assert err == ["check failed: out of floating-point range: beta_tilde "
                   "omega_tilde rounds to 0 at beta_tilde = 1e-300, "
                   "omega_tilde = 1e-160"]


def test_uncertainty_at_huge_omega(tmp_path):
    code, err, report = run_extreme(tmp_path, [
        "uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1e200",
        "--n-max", "2",
    ])
    assert code == 1 and report is None
    assert len(err) == 1 and err[0].startswith("check failed:")


def test_uncertainty_names_the_first_failing_level(tmp_path):
    # bt wt >= 2: dX and dP diverge and every slack is nan
    code, err, report = run_extreme(tmp_path, [
        "uncertainty", "--beta-tilde", "0.9", "--omega-tilde", "5",
        "--n-max", "2",
    ])
    assert code == 1 and report["passed"] is False
    assert len(err) == 1 and err[0].startswith("check failed: level 0 ")
    assert "slack = nan" in err[0]


def test_uncertainty_at_tiny_omega(tmp_path):
    # level 0's moments overflow to inf, with no float warning; level 1
    # underflows at every node: one line naming it
    code, err, report = run_extreme(tmp_path, [
        "uncertainty", "--beta-tilde", "0", "--omega-tilde", "1e-320",
        "--n-max", "1",
    ])
    assert code == 1 and report is None
    assert len(err) == 1 and err[0].startswith("check failed:")


def test_uncertainty_overflowing_moment_fails(tmp_path):
    # level 0 alone: dX overflows to inf, and an inf slack is a miss, not
    # a pass
    code, err, report = run_extreme(tmp_path, [
        "uncertainty", "--beta-tilde", "0", "--omega-tilde", "1e-320",
        "--n-max", "0",
    ])
    assert code == 1 and report["passed"] is False
    assert len(err) == 1 and err[0].startswith("check failed: level 0 ")
    assert "slack = inf" in err[0]
    records = json.loads(read(str(tmp_path / "out" / "uncertainty.json")))
    assert records[0]["slack"] is None


def test_limits_at_huge_omega(tmp_path):
    code, err, report = run_extreme(tmp_path, [
        "limits", "--beta-values", "0.5,0.05", "--omega-tilde", "1e300",
        "--n-max", "3",
    ])
    assert code == 0 and err == []
    devs = [row["max_abs_deviation"] for row in report["rows"]]
    # p0 saturates near 1/sqrt(bt) while the undeformed sqrt(1 + 2 wt n)
    # reaches sqrt(6e300)
    assert all(abs(d / 6e300 ** 0.5 - 1) < 1e-12 for d in devs)


# ---- the whole range: every (bt, wt) ends in a verdict ----------------------

GATE_BETAS = ["0", "5e-324", "1e-300", "1e-6", "0.5", "0.99"]
GATE_OMEGAS = ["1e-320", "1e-160", "1e-6", "1", "1e10", "1e307", "1e308"]


def gate_runs(bt, wt):
    osc = ["--beta-tilde", bt, "--omega-tilde", wt]
    grid = ["--grid-size", "64"]
    return [
        ["spectrum", *osc, "--n-max", "3"],
        ["wavefunction", *osc, "--n", "2", *grid],
        ["wavefunction", *osc, "--n", "2", "--tau", "-1", *grid],
        ["wavefunction", *osc, "--n", "1", "--grid-size", "65"],
        ["uncertainty", *osc, "--n-max", "2", *grid],
        ["limits", "--beta-values", f"{bt},1e-3", "--omega-tilde", wt,
         "--n-max", "20"],
    ]


def strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("wt", GATE_OMEGAS)
@pytest.mark.parametrize("bt", GATE_BETAS)
def test_whole_range_ends_in_a_verdict(tmp_path, bt, wt):
    """Each subcommand returns 0, 1 or 2 with at most one stderr line and no
    float warning, and its report.json, written on every pass, is strict
    JSON.  A spectrum that exits 0 has a finite e_n >= 0 in every level."""
    for i, args in enumerate(gate_runs(bt, wt)):
        out = str(tmp_path / str(i))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(args + ["--out-dir", out])
        assert code in (0, 1, 2), args
        assert len(err.getvalue().splitlines()) <= 1, (args, err.getvalue())
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
            == [], args
        path = os.path.join(out, "report.json")
        if os.path.exists(path):
            strict_json(read(path))
        else:
            assert code != 0, args
        if args[0] == "spectrum" and code == 0:
            rows = strict_json(read(os.path.join(out, "spectrum.json")))
            assert all(type(row["e_n"]) is float and math.isfinite(row["e_n"])
                       and row["e_n"] >= 0 for row in rows), args
