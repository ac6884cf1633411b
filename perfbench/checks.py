"""Output checkers and their self-test.

A checker returns ``None`` when the output is correct and a ``Failure``
otherwise.  Every failure counts as a failed op.  A failure is ``known``
only when it is one of the defects recorded in BENCHMARK.json (ROADMAP
item 4), inside the parameter region where the baseline shows it and, for
the numerical ones, under a ceiling, so that a worse result still shows.
The regions are in x = 2 * beta_tilde * omega_tilde, measured over 720
seeded (beta_tilde, omega_tilde) pairs at N = 32001:

- coupled residual above 1e-6: for x < 0.05 (beta_tilde = 0 included) the
  n >= 7 states miss by up to 2.4e-6; from x = 0.63 on, where
  1/(2 beta_tilde omega_tilde) is not an integer, the residual converges
  only as h^0.7 and grows with x (``KNOWN_RESIDUAL``);
- uncertainty slack below -1e-10: only from x = 1.05 on (also at N = 4001);
- eigen oracle: no convergence for 0 < x < 0.022, and eigenvalues off
  ``e_formula`` by more than 1e-5 (then no convergence) from x = 1.86 on;
- ``limits`` writes a bare ``nan`` as the first row's ratio_to_previous.

Any other failure (a changed symbolic verdict, a wrong node count or norm,
a miss outside its region or over its ceiling, an unexpected exception, a
missing or short artifact) is not known and makes the run incorrect.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

RESIDUAL_TOL = 1e-6
NORM_TOL = 1e-8
SLACK_TOL = -1e-10
EIGEN_RTOL = 1e-5
PARITY_TOL = 1e-6

# (x from, largest residual that is a known miss), about ten times the
# baseline's largest residual in each band; between 0.1 and 0.5 the
# baseline never misses, so every miss there is new
KNOWN_RESIDUAL = (
    (0.0, 1e-5),
    (0.1, RESIDUAL_TOL),
    (0.5, 1e-3),
    (0.75, 1e-2),
    (1.0, 1.0),
    (1.25, 10.0),
    (1.5, 1e2),
    (2.0, 1e3),
    (2.5, 1e4),
)
SLACK_MISS_X = 0.9
EIGEN_NO_CONVERGENCE_X = 0.05
EIGEN_OFF_X = 1.75
EIGEN_OFF_RTOL = 1e-3


@dataclass(frozen=True)
class Failure:
    reason: str
    known: bool = False


def verdict(unknown, known):
    """One Failure from lists of unknown and known reasons, or None."""
    if not (unknown or known):
        return None
    return Failure("; ".join(unknown + known), known=not unknown)


def x_of(params) -> float:
    return 2.0 * params.beta_tilde * params.omega_tilde


def residual_known(res: float, params) -> bool:
    """A coupled-residual miss the baseline shows at these parameters."""
    i = bisect.bisect_right([x for x, _ in KNOWN_RESIDUAL], x_of(params))
    return res <= KNOWN_RESIDUAL[i - 1][1]


def check_report(got: dict, expected: dict):
    """Compare a VerificationReport.to_dict() with its golden verdict."""
    if got == expected:
        return None
    exp = {c["identity_id"]: c for c in expected["checks"]}
    seen = {c["identity_id"]: c for c in got["checks"]}
    diffs = sorted(set(exp) ^ set(seen))
    diffs += [i for i in exp if i in seen and exp[i] != seen[i]]
    if got.get("suite") != expected["suite"]:
        diffs.insert(0, "suite")
    return Failure("verdict differs from golden: " + ", ".join(diffs[:6]))


def check_spectrum(table, n_max: int):
    if len(table.levels) != 2 * n_max + 1:
        return Failure(f"{len(table.levels)} levels for n_max {n_max}")
    if table.unphysical_decrease:
        return Failure("levels flagged as unphysically decreasing")
    return None


def count_nodes(psi, floor: float = 1e-6) -> int:
    """Sign changes of psi where |psi| exceeds floor * max |psi|."""
    psi = np.asarray(psi)
    big = psi[np.abs(psi) > floor * np.max(np.abs(psi))]
    return int(np.count_nonzero(np.sign(big[:-1]) != np.sign(big[1:])))


def coupled_residual(wf) -> float:
    """The larger residual of the two coupled equations the solver records."""
    return max(wf.metadata["residual_coupled_1"],
               wf.metadata["residual_coupled_2"])


def check_state(wf, report: dict, n: int, params):
    """The library's own verdict on one state and its uncertainty record."""
    return state_verdict(coupled_residual(wf), report["slack"],
                         count_nodes(wf.psi1), wf.norm_squared(), n, params)


def state_verdict(res, slack, nodes, norm, n, params):
    known, unknown = [], []
    if not res <= RESIDUAL_TOL:
        bucket = known if residual_known(res, params) else unknown
        bucket.append(f"coupled residual {res:.2e}")
    if not slack >= SLACK_TOL:
        bucket = known if x_of(params) >= SLACK_MISS_X else unknown
        bucket.append(f"slack {slack:.2e}")
    if nodes != n:
        unknown.append(f"{nodes} nodes for n = {n}")
    if not abs(norm - 1.0) <= NORM_TOL:
        unknown.append(f"norm^2 {norm!r}")
    return verdict(unknown, known)


def check_overlaps(vals):
    """Ground state against tau = +1 levels n = 0..: the self-overlap is 1
    and odd levels vanish by parity; every value and error is finite."""
    for n, (val, err) in enumerate(vals):
        if not (math.isfinite(abs(val)) and math.isfinite(err) and err >= 0):
            return Failure(f"overlap n = {n} not finite: {val!r} +- {err!r}")
    val, err = vals[0]
    if abs(val - 1.0) > max(err, NORM_TOL):
        return Failure(f"self-overlap {val!r} +- {err:.1e}")
    for n in range(1, len(vals), 2):
        if abs(vals[n][0]) > PARITY_TOL:
            return Failure(f"odd overlap n = {n} is {abs(vals[n][0]):.2e}")
    return None


def check_eigen(res, params, p0, k: int):
    """eigensolve_factorized's result (or its RuntimeError) against
    e_formula."""
    from minlen.oscillator.spectrum import e_formula

    x = x_of(params)
    if isinstance(res, RuntimeError):
        known = 0 < x < EIGEN_NO_CONVERGENCE_X or x >= EIGEN_OFF_X
        return Failure(f"eigensolver: {str(res)[:80]}", known=known)
    exact = [e_formula(params, j, p0) for j in range(k)]
    # the j = 0 eigenvalue is exactly zero: scale its error by level 1
    rel = max(
        abs(float(got) - ref) / max(abs(ref), exact[1])
        for got, ref in zip(res.eigenvalues, exact)
    )
    if not rel <= EIGEN_RTOL:
        known = x >= EIGEN_OFF_X and rel <= EIGEN_OFF_RTOL
        return Failure(f"eigenvalues off e_formula by {rel:.1e}", known=known)
    return None


# ---------------------------------------------------------------------------
# CLI artifacts


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=_reject_constant)


# a float token the writer printed without a JSON spelling
BARE_NONFINITE = re.compile(r"(?<![\w\"])-?(?:nan|inf)(?![\w\"])")


def count_records(path: str) -> int:
    """Rows of a CSV artifact (header excluded) or entries of a JSON list."""
    with open(path) as fh:
        if path.endswith(".csv"):
            return sum(1 for _ in fh) - 1
        return len(strict_json(fh.read()))


def first_ratio_nan(report: dict, bare: int) -> bool:
    """The limits defect: one bare nan, the first row's ratio_to_previous."""
    return bare == 1 and report["rows"][0]["ratio_to_previous"] is None


def check_cli_outputs(rc: int, outdir: str, expect: dict, stderr: str = "",
                      known_nan=None, known_miss=None):
    """Exit code 0, every artifact reads back with its expected row count,
    and report.json parses as strict JSON.

    ``known_nan(report, bare)`` says whether the ``bare`` nan/inf tokens
    (read as null) are a recorded defect; ``known_miss(report)`` whether a
    run that reports its own check failed (exit code 1, ``"passed":
    false``) is one.  Without them neither is known.
    """
    report_path = os.path.join(outdir, "report.json")
    try:
        with open(report_path) as fh:
            text = fh.read()
    except OSError:
        return Failure(f"exit {rc}, no report.json: {stderr.strip()[:80]}")
    for name, rows in expect.items():
        try:
            got = count_records(os.path.join(outdir, name))
        except (OSError, ValueError) as exc:
            return Failure(f"{name} unreadable: {exc}")
        if got != rows:
            return Failure(f"{name} has {got} rows, expected {rows}")
    known, unknown = [], []
    try:
        report = strict_json(text)
    except ValueError as exc:
        bare = len(BARE_NONFINITE.findall(text))
        try:
            report = strict_json(BARE_NONFINITE.sub("null", text))
        except ValueError:
            return Failure(f"report.json is not JSON: {exc}")
        bucket = known if known_nan and known_nan(report, bare) else unknown
        bucket.append(f"report.json has {bare} bare nan/inf token(s)")
    passed = report.get("passed")
    if rc == 1 and passed is False:
        bucket = known if known_miss and known_miss(report) else unknown
        bucket.append("program reports its check failed")
    elif rc != 0 or passed is False:
        unknown.append(f"exit {rc} with passed = {passed!r}")
    return verdict(unknown, known)


def wavefunction_miss(params):
    """known_miss for a wavefunction run: its residual misses tol by a
    known defect at these parameters, and its norm holds."""
    def known(report):
        res = max(report["residual_coupled_1"], report["residual_coupled_2"])
        return (res > report["tol"] and residual_known(res, params)
                and abs(report["norm_squared"] - 1.0) <= NORM_TOL)

    return known


def uncertainty_miss(params):
    """known_miss for an uncertainty run: the slack defect's region."""
    return lambda report: x_of(params) >= SLACK_MISS_X


# ---------------------------------------------------------------------------
# self-test: each checker must fail a deliberately wrong output


def self_test(ml, golden: dict, workdir: str):
    """Return the list of checkers that accepted a wrong output, or called
    a new failure known."""
    bad = []

    def expect_unknown(result, what):
        if result is None:
            bad.append(f"accepted {what}")
        elif result.known:
            bad.append(f"called {what} a known defect")

    label = "tamper-xp-w-dropped"
    tampered = json.loads(json.dumps(golden[label]))
    tampered["checks"][0]["pass"] = not tampered["checks"][0]["pass"]
    expect_unknown(check_report(tampered, golden[label]),
                   "a flipped pass flag")
    tampered = json.loads(json.dumps(golden[label]))
    tampered["checks"][-1]["residual_term_count"] += 1
    expect_unknown(check_report(tampered, golden[label]),
                   "a changed residual_term_count")

    params = ml.DOParams(0.2, 1.0)  # x = 0.4: no known defect
    wf = ml.wavefunction(params, ml.QuantumNumber(2, 1), ml.GridSpec(32001))
    rec = ml.uncertainty_report(wf, params)
    if check_state(wf, rec, 2, params) is not None:
        bad.append("check_state rejected a correct state")
    expect_unknown(check_state(wf, rec, 3, params), "a wrong node count")
    flat = ml.DOParams(0.0, 1.0)
    expect_unknown(state_verdict(1e-3, 1.0, 2, 1.0, 2, flat),
                   "a residual of 1e-3 at beta_tilde = 0")
    expect_unknown(state_verdict(1e-5, 1.0, 2, 1.0, 2, params),
                   "a residual miss where the baseline has none")
    expect_unknown(state_verdict(1e-9, -1e-3, 2, 1.0, 2, params),
                   "a slack miss where the baseline has none")
    far = ml.DOParams(0.5, 1.0)  # x = 1.0
    expect_unknown(state_verdict(1e2, 1.0, 2, 1.0, 2, far),
                   "a residual over the ceiling of its band")

    from minlen.oscillator.spectrum import e_formula

    p0 = ml.p0_allowed(params, ml.QuantumNumber(0, 1))
    exact = [e_formula(params, j, p0) for j in range(4)]
    off = SimpleNamespace(eigenvalues=[1.5 * e for e in exact])
    expect_unknown(check_eigen(off, params, p0, 4),
                   "eigenvalues 50% off e_formula")
    expect_unknown(check_eigen(RuntimeError("no convergence"), params, p0, 4),
                   "an eigensolver RuntimeError where it converges")

    os.makedirs(workdir, exist_ok=True)
    csv_path = os.path.join(workdir, "short.csv")
    report_path = os.path.join(workdir, "report.json")
    with open(csv_path, "w") as fh:
        fh.write("a,b\n" + "1,2\n" * 4)
    with open(report_path, "w") as fh:
        fh.write('{"passed": true}\n')
    if check_cli_outputs(0, workdir, {"short.csv": 4}) is not None:
        bad.append("check_cli_outputs rejected a correct run")
    expect_unknown(check_cli_outputs(0, workdir, {"short.csv": 5}),
                   "a CSV missing a row")
    with open(report_path, "w") as fh:
        fh.write('{"ratio": nan, "passed": true}\n')
    expect_unknown(check_cli_outputs(0, workdir, {}), "nan in report.json")
    with open(report_path, "w") as fh:
        fh.write('{"rows": [{"ratio_to_previous": 1.0},'
                 ' {"ratio_to_previous": nan}], "passed": true}\n')
    expect_unknown(
        check_cli_outputs(0, workdir, {}, known_nan=first_ratio_nan),
        "a limits nan outside the first row")
    with open(report_path, "w") as fh:
        fh.write('{"residual_coupled_1": 1e-3, "residual_coupled_2": 0.0,'
                 ' "norm_squared": 1.0, "tol": 1e-6, "passed": false}\n')
    expect_unknown(
        check_cli_outputs(1, workdir, {}, known_miss=wavefunction_miss(flat)),
        "a wavefunction run failing its residual at beta_tilde = 0")
    return bad
