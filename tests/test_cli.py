"""Command-line interface: determinism, exit codes, config handling."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from minlen.cli import main


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
          "--n", "40", "--grid-size", "4001"]


def test_coarse_grid_fails_on_quadrature_error(tmp_path):
    """About three nodes fall inside this state's support: the exact
    residuals still hold, and the quadrature error is what fails."""
    assert run(COARSE + ["--out-dir", str(tmp_path)]) == 1
    report = json.loads(read(str(tmp_path / "report.json")))
    assert report["quadrature_error"] > report["tol"]
    assert max(report["residual_coupled_1"],
               report["residual_coupled_2"]) <= report["tol"]
    assert report["passed"] is False


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


def test_uncertainty_at_huge_omega(tmp_path):
    code, err, report = run_extreme(tmp_path, [
        "uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1e200",
        "--n-max", "2",
    ])
    assert code == 1 and report is None
    assert len(err) == 1 and err[0].startswith("check failed:")


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
