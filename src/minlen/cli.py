"""Command-line front end.

Subcommands: verify-algebra, spectrum, wavefunction, uncertainty, limits.
Every run writes a machine-readable report.json (plus the requested
artifact files) into --out-dir with fixed float formatting and ordering, so
identical configurations produce byte-identical outputs.  Exit status: 0
when all requested checks pass, 1 on check failure, 2 on usage errors.
argparse reads every option.  The lines of a `key = value` config file
(--config) become `--key=value` flags placed before the explicit ones, so
explicit flags win on conflict.  Switches take `true` or `false`, flag
names must be spelt in full, and every usage error is one `error:` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .core import Spacetime
from .serialize import Table, write_csv, write_json
from .symbolic.identities import (
    verify_algebra,
    verify_poincare,
    verify_reductions,
    verify_transformations,
)
from .oscillator.spectrum import (
    AcceptabilityError,
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


class _Parser(argparse.ArgumentParser):
    """Reports every parse error as a UsageError; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _read_config(path: str) -> list:
    """The config file's `key = value` lines as `--key=value` tokens."""
    tokens = []
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
                key = key.strip().replace("_", "-")
                tokens.append(f"--{key}={val.strip()}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return tokens


def _with_config(argv: list) -> list:
    """argv with the --config file's tokens right after the subcommand, so
    that the explicit flags, parsed later, win."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    return argv[:1] + _read_config(path) + argv[1:]


def _checked(cast, valid, what: str):
    """An argparse type: `cast` of the text, rejected unless `valid`."""

    def parse(text):
        val = cast(text)
        if not valid(val):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return val

    parse.__name__ = cast.__name__
    return parse


_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _switch(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {text!r}")
    return text == "true"


def _write_table(args, stem: str, header, columns):
    """Artifact stem.csv, or stem.json as a list of row objects."""
    path = os.path.join(args.out_dir, stem)
    if args.format == "csv":
        write_csv(path + ".csv", header, columns)
    else:
        write_json(path + ".json", Table(header, columns))


def _usage(build, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError is a usage error (beta_tilde
    >= 1 outside diagnostic mode stays a check failure)."""
    try:
        return build(*args, **kwargs)
    except UnphysicalDeformationError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands: each writes its artifacts and returns (report, exit code);
# main writes the report, headed by the command name


def cmd_verify_algebra(args):
    dims, case = args.dims, args.case
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
    passed = all(s.passed for s in suites)
    report = {
        "dims": dims,
        "case": case,
        "passed": passed,
        "suites": [s.to_dict() for s in suites],
    }
    return report, 0 if passed else 1


def cmd_spectrum(args):
    params = _usage(DOParams, args.beta_tilde, args.omega_tilde,
                    diagnostic=args.diagnostic)
    table = spectrum_table(params, args.n_max)
    _write_table(args, "spectrum", table.COLUMNS, table.columns())
    flagged = table.unphysical_decrease
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n_max": args.n_max,
        "levels": len(table.levels),
        "unphysical_decrease": flagged,
        "passed": not flagged,
    }
    return report, 0 if (not flagged or params.diagnostic) else 1


def cmd_wavefunction(args):
    params = _usage(DOParams, args.beta_tilde, args.omega_tilde)
    qn = _usage(QuantumNumber, args.n, args.tau)
    grid = _usage(GridSpec, args.grid_size)
    wf = wavefunction(params, qn, grid)
    stem = f"wavefunction_n{qn.n}_tau{'p' if qn.tau > 0 else 'm'}"
    header = ["p_tilde", "q", "psi1", "psi2", "f", "weight"]
    _write_table(args, stem, header, wf.csv_rows())
    meta = wf.metadata
    norm_squared = wf.norm_squared()
    # each quantity on its own: a nan passes no comparison, so it misses
    missed = [f"{name} = {meta[name]:.3e} (tol {args.tol:.3e})"
              for name in ("residual_coupled_1", "residual_coupled_2",
                           "quadrature_error")
              if not meta[name] <= args.tol]
    if not abs(norm_squared - 1.0) <= 1e-8:
        missed.append(f"norm_squared = {norm_squared:.3e} (tol 1 +- 1e-8)")
    passed = not missed
    if missed:
        print(f"check failed: {'; '.join(missed)}", file=sys.stderr)
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n": qn.n,
        "tau": qn.tau,
        "grid_size": grid.size,
        "residual_coupled_1": meta["residual_coupled_1"],
        "residual_coupled_2": meta["residual_coupled_2"],
        "quadrature_error": meta["quadrature_error"],
        "norm_squared": norm_squared,
        "tol": args.tol,
        "passed": passed,
    }
    return report, 0 if passed else 1


def cmd_uncertainty(args):
    params = _usage(DOParams, args.beta_tilde, args.omega_tilde)
    grid = _usage(GridSpec, args.grid_size)
    records = []
    missed = []
    for n in range(args.n_max + 1):
        wf = wavefunction(params, QuantumNumber(n, 1), grid)
        if not abs(wf.norm_squared() - 1.0) <= 1e-8:
            # samples that underflow to 0 at every node cannot be normalized
            raise FloatingPointError(f"the grid cannot normalize level {n}")
        rec = uncertainty_report(wf, params)
        # rounding-scale tolerance on the inequality; a nan slack (bt wt
        # >= 2, where dX and dP diverge) fails, and so does an inf one (a
        # moment that overflowed)
        if not (rec["slack"] >= -1e-10 and math.isfinite(rec["slack"])):
            missed.append((n, rec["slack"]))
        records.append(rec)
    write_json(os.path.join(args.out_dir, "uncertainty.json"), records)
    if missed:
        # one line after the loop: a later exception prints its own
        n, slack = missed[0]
        print(f"check failed: level {n} slack = {slack:.3e} (tol -1e-10)",
              file=sys.stderr)
    report = {
        "beta_tilde": params.beta_tilde,
        "omega_tilde": params.omega_tilde,
        "n_max": args.n_max,
        "passed": not missed,
    }
    return report, 1 if missed else 0


def cmd_limits(args):
    try:
        betas = [float(b) for b in args.beta_values.split(",") if b]
    except ValueError:
        raise UsageError("beta-values must be a comma-separated float list")
    if not betas:
        raise UsageError("beta-values is empty")
    all_params = [_usage(DOParams, bt, args.omega_tilde) for bt in betas]
    wt = all_params[0].omega_tilde
    devs = []
    ratios = []
    for params in all_params:
        ns = np.arange(args.n_max + 1)
        p0 = np.array(
            [p0_allowed(params, QuantumNumber(int(n), 1)) for n in ns]
        )
        ref = np.sqrt(1.0 + 2.0 * wt * ns)
        dev = float(np.max(np.abs(p0 - ref)))
        devs.append(dev)
        ratios.append(
            devs[-2] / dev if len(devs) > 1 and dev > 0 else float("nan"))
    header = ["beta_tilde", "max_abs_deviation", "ratio_to_previous"]
    columns = [[p.beta_tilde for p in all_params], devs, ratios]
    write_csv(os.path.join(args.out_dir, "limits.csv"), header, columns)
    linear = all(8.0 <= r <= 12.0 for r in ratios[1:])
    passed = linear if args.expect_linear else True
    report = {
        "omega_tilde": wt,
        "n_max": args.n_max,
        "rows": Table(header, columns),
        "linear_in_beta": linear,
        "passed": passed,
    }
    return report, 0 if passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="minlen",
        description="Deformed-algebra verification and Dirac oscillator tools",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out-dir", default=".")
        p.set_defaults(func=func)
        return p

    def oscillator(p):
        p.add_argument("--beta-tilde", type=float, required=True)
        p.add_argument("--omega-tilde", type=float, required=True)

    p = command("verify-algebra", cmd_verify_algebra,
                "run symbolic identity suites")
    p.add_argument("--dims", default=3, type=_checked(
        int, lambda v: v >= 1, "an integer >= 1"))
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
        default="all",
    )

    p = command("spectrum", cmd_spectrum, "tabulate the oscillator spectrum")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    oscillator(p)
    p.add_argument("--n-max", type=_COUNT, default=10)
    p.add_argument("--diagnostic", type=_switch, nargs="?", const=True,
                   default=False)

    p = command("wavefunction", cmd_wavefunction,
                "compute one spinor eigenstate")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--tol", default=1e-6, type=_checked(
        float, lambda v: 0 < v < math.inf, "a positive finite number"))
    oscillator(p)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--tau", type=int, choices=[1, -1], default=1)
    p.add_argument("--grid-size", type=int, default=4001)

    p = command("uncertainty", cmd_uncertainty,
                "uncertainty products per level")
    oscillator(p)
    p.add_argument("--n-max", type=_COUNT, default=5)
    p.add_argument("--grid-size", type=int, default=4001)

    p = command("limits", cmd_limits, "undeformed-limit convergence study")
    p.add_argument("--beta-values", required=True)
    p.add_argument("--omega-tilde", type=float, required=True)
    p.add_argument("--n-max", type=_COUNT, default=20)
    p.add_argument("--expect-linear", type=_switch, nargs="?", const=True,
                   default=False)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_with_config(argv))
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create --out-dir: {exc}")
        report, code = args.func(args)
        report = {"command": args.command, **report}
        write_json(os.path.join(args.out_dir, "report.json"), report)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a --grid-size whose arrays this machine cannot hold; numpy
        # refuses the allocation before it takes any memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (UnphysicalDeformationError, AcceptabilityError) as exc:
        # beta_tilde >= 1, or a level whose measure factor 1 - bt p0^2
        # rounds to <= 0 (bt K past about 1e16)
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # a state out of double range, e.g. 1/(bt wt) or p0 + 1 rounding
        # to 0 at extreme omega_tilde
        print(f"check failed: out of floating-point range: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
