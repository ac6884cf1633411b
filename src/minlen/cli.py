"""Command-line front end.

Subcommands: verify-algebra, spectrum, wavefunction, uncertainty, limits.
Every run writes a machine-readable report.json (plus the requested
artifact files) into --out-dir with fixed float formatting and ordering, so
identical configurations produce byte-identical outputs.  Exit status: 0
when all requested checks pass, 1 on check failure, 2 on usage errors.
Options may come from a line-oriented `key = value` config file
(--config); explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .core import Spacetime
from .serialize import write_csv, write_json
from .symbolic.identities import (
    verify_algebra,
    verify_poincare,
    verify_reductions,
    verify_transformations,
)
from .oscillator.spectrum import (
    DOParams,
    QuantumNumber,
    UnphysicalDeformationError,
    p0_allowed,
    spectrum_table,
)
from .oscillator.wavefunction import GridSpec, wavefunction
from .uncertainty import uncertainty_report


class UsageError(Exception):
    pass


def _read_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'key = value'"
                    )
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return cfg


def _coerce(val: str):
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    return val


def _merge_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        cfg = _read_config(args.config)
        for key, val in cfg.items():
            if key not in vars(args):
                raise UsageError(f"unknown config key {key.replace('_', '-')}")
            if getattr(args, key, None) is None:
                setattr(args, key, _coerce(val))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option {_flag(name)}")


def _option(args, name: str, default, valid, what: str):
    """A flag or config value, `default` when absent; a value that fails
    `valid` is a usage error, never replaced by the default."""
    val = getattr(args, name, None)
    if val is None:
        return default
    if isinstance(val, bool) or not valid(val):
        raise UsageError(f"{_flag(name)} must be {what}, got {val!r}")
    return val


def _int_option(args, name: str, default: int, minimum: int) -> int:
    return _option(
        args, name, default,
        lambda v: isinstance(v, int) and v >= minimum,
        f"an integer >= {minimum}",
    )


def _outdir(args) -> str:
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_table(args, stem: str, header, rows):
    """Artifact stem.csv, or stem.json as a list of row objects."""
    path = os.path.join(_outdir(args), stem)
    fmt = args.format or "json"
    if fmt == "csv":
        write_csv(path + ".csv", header, rows)
    elif fmt == "json":
        write_json(path + ".json", [dict(zip(header, r)) for r in rows])
    else:
        raise UsageError(f"unknown format {fmt!r}")


def _oscillator(beta_tilde, omega_tilde, diagnostic=False) -> DOParams:
    """DOParams whose invalid values are usage errors (beta_tilde >= 1
    outside diagnostic mode stays a check failure)."""
    try:
        return DOParams(
            beta_tilde=float(beta_tilde),
            omega_tilde=float(omega_tilde),
            diagnostic=diagnostic,
        )
    except UnphysicalDeformationError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))


def _doparams(args) -> DOParams:
    _require(args, "beta_tilde", "omega_tilde")
    return _oscillator(
        args.beta_tilde,
        args.omega_tilde,
        bool(getattr(args, "diagnostic", False)),
    )


def _grid(args) -> GridSpec:
    try:
        return GridSpec(_int_option(args, "grid_size", 4001, 1))
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands: each writes its artifacts and returns (report, exit code);
# main writes the report, headed by the command name


def cmd_verify_algebra(args):
    dims = _int_option(args, "dims", 3, 1)
    case = args.case or "all"
    st = Spacetime(dims)
    suites = []
    if case in ("all", "algebra"):
        suites.append(verify_algebra(st))
    if case in ("all", "poincare"):
        suites.append(verify_poincare(st))
    if case in ("all", "transformations"):
        suites.append(verify_transformations(st))
    if case in ("all", "reductions", "snyder", "kempf"):
        red = verify_reductions(dims)
        if case in ("snyder", "kempf"):
            red.checks = [
                c for c in red.checks if c.identity_id.startswith(case)
            ]
        suites.append(red)
    if not suites:
        raise UsageError(f"unknown case {case!r}")
    passed = all(s.passed for s in suites)
    report = {
        "dims": dims,
        "case": case,
        "passed": passed,
        "suites": [s.to_dict() for s in suites],
    }
    return report, 0 if passed else 1


def cmd_spectrum(args):
    params = _doparams(args)
    n_max = _int_option(args, "n_max", 10, 0)
    table = spectrum_table(params, n_max)
    header = ["n", "tau", "K", "p0_tilde", "e_n", "E_over_mc2"]
    _write_table(args, "spectrum", header, list(table.rows()))
    flagged = table.unphysical_decrease
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n_max": n_max,
        "levels": len(table.levels),
        "unphysical_decrease": flagged,
        "passed": not flagged,
    }
    return report, 0 if (not flagged or params.diagnostic) else 1


def cmd_wavefunction(args):
    params = _doparams(args)
    _require(args, "n")
    n = _int_option(args, "n", 0, 0)
    tau = args.tau if args.tau is not None else 1
    try:
        qn = QuantumNumber(n, int(tau))
    except ValueError as exc:
        raise UsageError(str(exc))
    grid = _grid(args)
    tol = float(_option(
        args, "tol", 1e-6,
        lambda v: isinstance(v, (int, float)) and 0 < v < math.inf,
        "a positive finite number",
    ))
    wf = wavefunction(params, qn, grid)
    stem = f"wavefunction_n{qn.n}_tau{'p' if qn.tau > 0 else 'm'}"
    header = ["p_tilde", "q", "psi1", "psi2", "f", "weight"]
    _write_table(args, stem, header, wf.csv_rows())
    res = max(
        wf.metadata["residual_coupled_1"], wf.metadata["residual_coupled_2"]
    )
    passed = res <= tol and abs(wf.norm_squared() - 1.0) <= 1e-8
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n": qn.n,
        "tau": qn.tau,
        "grid_size": grid.size,
        "residual_coupled_1": wf.metadata["residual_coupled_1"],
        "residual_coupled_2": wf.metadata["residual_coupled_2"],
        "norm_squared": wf.norm_squared(),
        "tol": tol,
        "passed": passed,
    }
    return report, 0 if passed else 1


def cmd_uncertainty(args):
    params = _doparams(args)
    n_max = _int_option(args, "n_max", 5, 0)
    grid = _grid(args)
    records = []
    ok = True
    for n in range(n_max + 1):
        wf = wavefunction(params, QuantumNumber(n, 1), grid)
        rec = uncertainty_report(wf, params)
        # quadrature-scale tolerance on the inequality
        ok = ok and rec["slack"] >= -1e-10
        records.append(rec)
    out = _outdir(args)
    write_json(os.path.join(out, "uncertainty.json"), records)
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n_max": n_max,
        "passed": ok,
    }
    return report, 0 if ok else 1


def cmd_limits(args):
    _require(args, "beta_values", "omega_tilde")
    try:
        betas = [float(b) for b in str(args.beta_values).split(",") if b]
    except ValueError:
        raise UsageError("beta-values must be a comma-separated float list")
    if not betas:
        raise UsageError("beta-values is empty")
    all_params = [_oscillator(bt, args.omega_tilde) for bt in betas]
    wt = all_params[0].omega_tilde
    n_max = _int_option(args, "n_max", 20, 0)
    rows = []
    devs = []
    for params in all_params:
        bt = params.beta_tilde
        ns = np.arange(n_max + 1)
        p0 = np.array(
            [p0_allowed(params, QuantumNumber(int(n), 1)) for n in ns]
        )
        ref = np.sqrt(1.0 + 2.0 * wt * ns)
        dev = float(np.max(np.abs(p0 - ref)))
        devs.append(dev)
        ratio = devs[-2] / dev if len(devs) > 1 and dev > 0 else float("nan")
        rows.append((bt, dev, ratio))
    header = ["beta_tilde", "max_abs_deviation", "ratio_to_previous"]
    out = _outdir(args)
    write_csv(os.path.join(out, "limits.csv"), header, rows)
    linear = all(8.0 <= r <= 12.0 for _, _, r in rows[1:])
    passed = linear if args.expect_linear else True
    report = {
        "omega_tilde": wt,
        "n_max": n_max,
        "rows": [
            {"beta_tilde": b, "max_abs_deviation": d, "ratio_to_previous": r}
            for b, d, r in rows
        ],
        "linear_in_beta": linear,
        "passed": passed,
    }
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minlen",
        description="Deformed-algebra verification and Dirac oscillator tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("verify-algebra", help="run symbolic identity suites")
    common(p)
    p.add_argument("--dims", type=int)
    p.add_argument(
        "--case",
        choices=[
            "all",
            "algebra",
            "poincare",
            "transformations",
            "reductions",
            "snyder",
            "kempf",
        ],
    )
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("spectrum", help="tabulate the oscillator spectrum")
    common(p)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--beta-tilde", dest="beta_tilde", type=float)
    p.add_argument("--omega-tilde", dest="omega_tilde", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--diagnostic", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="compute one spinor eigenstate")
    common(p)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--tol", type=float)
    p.add_argument("--beta-tilde", dest="beta_tilde", type=float)
    p.add_argument("--omega-tilde", dest="omega_tilde", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--tau", type=int, choices=[1, -1])
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("uncertainty", help="uncertainty products per level")
    common(p)
    p.add_argument("--beta-tilde", dest="beta_tilde", type=float)
    p.add_argument("--omega-tilde", dest="omega_tilde", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("limits", help="undeformed-limit convergence study")
    common(p)
    p.add_argument("--beta-values", dest="beta_values")
    p.add_argument("--omega-tilde", dest="omega_tilde", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--expect-linear", action="store_true")
    p.set_defaults(func=cmd_limits)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _merge_config(args)
        report, code = args.func(args)
        report = {"command": args.command, **report}
        write_json(os.path.join(_outdir(args), "report.json"), report)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnphysicalDeformationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
