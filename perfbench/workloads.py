"""The four benchmark workloads: seeded inputs and the ops that run on them.

Each workload is a fixed list of ops.  One pass runs every op once, in
order, as a closed loop (an op starts when the previous one has ended and
been checked).  Inputs depend only on the seed; the library sees only the
generated values.

An op's ``run`` calls the library and returns its output; ``check`` turns
that output into ``None`` (correct) or a ``checks.Failure``.  Only ``run``
counts toward the op's latency; both count toward the pass time.  Ops that
share a ``group`` form one primary-op sample: their latencies are summed
within a pass, and the median of those sums is ``op_p50_ms``.  Ops with
``group=None`` are not primary.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Optional

import checks

WORKLOADS = (
    "verify-transformations",
    "verify-suites",
    "oscillator-states",
    "cli-reports",
)

# oscillator parameters: three seeded (beta_tilde, omega_tilde) pairs plus
# the undeformed pair, which takes its own flat_grid branch
BETA_RANGE = (0.01, 0.9)
OMEGA_RANGE = (0.2, 2.0)
UNDEFORMED = (0.0, 1.0)
GRID_SIZE = 32001
N_MAX = 10
EIGEN_LEVELS = 8

TAMPERS_D3 = (
    ("verify_algebra", "xp-betap-doubled"),
    ("verify_algebra", "xp-w-dropped"),
    ("verify_algebra", "xx-s-term-dropped"),
    ("verify_poincare", "phat-no-u"),
)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[checks.Failure]]
    group: Optional[str] = None


def small_rational(rng: random.Random, signed: bool = True) -> Fraction:
    """A nonzero rational with numerator and denominator of one digit."""
    num = rng.randint(1, 9)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def oscillator_pairs(rng: random.Random):
    pairs = [
        (rng.uniform(*BETA_RANGE), rng.uniform(*OMEGA_RANGE)) for _ in range(3)
    ]
    return pairs + [UNDEFORMED]


def _golden_op(kind, label, call, golden):
    expected = golden[label]

    def check(report):
        return checks.check_report(report.to_dict(), expected)

    return Op(kind, label, call, check, group=label)


def transformation_calls(ml, rng):
    """One verify_transformations call per elementary generator at D = 3,
    as (kind, label, call)."""
    ident = ml.symbolic.identities
    st = ml.Spacetime(3)
    n = st.D + 1
    specs = [
        (f"transformations-D3-rotation-{a}{b}",
         ml.TransformationSpec.rotation(st, a, b, small_rational(rng)))
        for a, b in combinations(range(n), 2)
    ] + [
        (f"transformations-D3-translation-{a}",
         ml.TransformationSpec.translation(st, a, small_rational(rng)))
        for a in range(n)
    ]
    return [
        ("verify_transformations", label,
         lambda spec=spec: ident.verify_transformations(st, specs=[spec]))
        for label, spec in specs
    ]


def suite_calls(ml, rng):
    """Algebra, Poincare and reduction suites at D = 1..4, one pinned pass
    at D = 3 and the five named tampers, as (kind, label, call)."""
    ident = ml.symbolic.identities
    calls = []
    for D in (1, 2, 3, 4):
        st = ml.Spacetime(D)
        calls += [
            ("verify_algebra", f"algebra-D{D}",
             lambda st=st: ident.verify_algebra(st)),
            ("verify_poincare", f"poincare-D{D}",
             lambda st=st: ident.verify_poincare(st)),
            ("verify_reductions", f"reductions-D{D}",
             lambda D=D: ident.verify_reductions(D)),
        ]
    st3 = ml.Spacetime(3)
    pinned = ml.SymbolicParams(
        beta=small_rational(rng, signed=False),
        betap=small_rational(rng, signed=False),
        gamma=small_rational(rng),
    )
    calls += [
        ("verify_algebra", "algebra-D3-pinned",
         lambda: ident.verify_algebra(st3, pinned)),
        ("verify_poincare", "poincare-D3-pinned",
         lambda: ident.verify_poincare(st3, pinned)),
    ]
    for kind, tamper in TAMPERS_D3:
        calls.append((
            kind, f"tamper-{tamper}",
            lambda kind=kind, tamper=tamper: getattr(ident, kind)(
                st3, tamper=(tamper,)),
        ))
    # the translation-function tamper only perturbs translations
    st2 = ml.Spacetime(2)
    trans2 = [ml.TransformationSpec.translation(st2, a) for a in range(3)]
    calls.append((
        "verify_transformations", "tamper-trans-gfun-wrong",
        lambda: ident.verify_transformations(
            st2, specs=trans2, tamper=("trans-gfun-wrong",)),
    ))
    return calls


SYMBOLIC_CALLS = {
    "verify-transformations": transformation_calls,
    "verify-suites": suite_calls,
}


def symbolic_ops(calls):
    def build(ml, rng, golden, workdir):
        return [_golden_op(kind, label, call, golden)
                for kind, label, call in calls(ml, rng)]

    return build


def oscillator_states_ops(ml, rng, golden, workdir):
    """Spectrum, 21 states, overlaps and the eigen oracle per pair."""
    ops = []
    for bt, wt in oscillator_pairs(rng):
        params = ml.DOParams(bt, wt)
        tag = f"bt{bt:.3f}-wt{wt:.3f}"
        plus = {}  # tau = +1 states of this pass, for the overlaps

        ops.append(Op(
            "spectrum_table", f"spectrum-{tag}",
            lambda params=params: ml.spectrum_table(params, N_MAX),
            lambda table: checks.check_spectrum(table, N_MAX),
        ))
        for tau in (1, -1):
            for n in range(0 if tau == 1 else 1, N_MAX + 1):
                def state(params=params, n=n, tau=tau, plus=plus):
                    wf = ml.wavefunction(
                        params, ml.QuantumNumber(n, tau), ml.GridSpec(GRID_SIZE))
                    rec = ml.uncertainty_report(wf, params)
                    if tau == 1:
                        plus[n] = wf
                    return wf, rec

                label = f"state-{tag}-n{n}-tau{'p' if tau > 0 else 'm'}"
                ops.append(Op(
                    "state", label, state,
                    lambda out, n=n, params=params: checks.check_state(
                        *out, n, params),
                    group=label,
                ))

        def overlaps(plus=plus):
            ground = ml.QuantumNumber(0, 1)
            return [
                ml.inner_product(plus[0], plus[n], ground, with_error=True)
                for n in range(N_MAX + 1)
            ]

        p0 = ml.p0_allowed(params, ml.QuantumNumber(0, 1))

        def eigen(params=params, p0=p0):
            try:
                return ml.eigensolve_factorized(params, p0, k=EIGEN_LEVELS)
            except RuntimeError as exc:  # the solver's own convergence check
                return exc

        ops += [
            Op("inner_product", f"overlaps-{tag}", overlaps,
               checks.check_overlaps),
            Op("eigensolve", f"eigensolve-{tag}", eigen,
               lambda res, params=params, p0=p0: checks.check_eigen(
                   res, params, p0, EIGEN_LEVELS)),
        ]
    return ops


def cli_reports_ops(ml, rng, golden, workdir):
    """In-process CLI calls; every artifact is read back."""
    ops = []

    def cli_op(label, argv, expect, group=None, **known):
        outdir = os.path.join(workdir, label)

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                # looked up per call, so that a traced run sees its wrapper
                rc = ml.cli.main(argv + ["--out-dir", outdir])
            return rc, err.getvalue()

        def check(out):
            verdict = checks.check_cli_outputs(out[0], outdir, expect, out[1],
                                               **known)
            # a stale artifact must not pass the next pass's check
            shutil.rmtree(outdir, ignore_errors=True)
            return verdict

        return Op("cli", label, run, check, group=group)

    for i, (bt, wt) in enumerate(oscillator_pairs(rng)):
        params = ml.DOParams(bt, wt)
        base = ["--beta-tilde", repr(bt), "--omega-tilde", repr(wt)]
        n = rng.randint(1, N_MAX)
        wf = ["wavefunction", *base, "--n", str(n),
              "--grid-size", str(GRID_SIZE)]
        stem = f"wavefunction_n{n}_taup"
        group = f"wavefunction-{i}"
        wf_miss = checks.wavefunction_miss(params)
        ops += [
            cli_op(f"wavefunction-json-{i}", wf + ["--format", "json"],
                   {stem + ".json": GRID_SIZE}, group, known_miss=wf_miss),
            cli_op(f"wavefunction-csv-{i}", wf + ["--format", "csv"],
                   {stem + ".csv": GRID_SIZE}, group, known_miss=wf_miss),
            cli_op(f"uncertainty-{i}",
                   ["uncertainty", *base, "--n-max", str(N_MAX)],
                   {"uncertainty.json": N_MAX + 1},
                   known_miss=checks.uncertainty_miss(params)),
            cli_op(f"spectrum-{i}", ["spectrum", *base, "--n-max", "200"],
                   {"spectrum.json": 2 * 200 + 1}),
        ]
    omega = rng.uniform(*OMEGA_RANGE)
    ops.append(cli_op(
        "limits",
        ["limits", "--beta-values", "1e-3,1e-4,1e-5",
         "--omega-tilde", repr(omega)],
        {"limits.csv": 3},
        known_nan=checks.first_ratio_nan,
    ))
    return ops


WORKLOAD_OPS = {
    **{name: symbolic_ops(calls) for name, calls in SYMBOLIC_CALLS.items()},
    "oscillator-states": oscillator_states_ops,
    "cli-reports": cli_reports_ops,
}


def build(name, ml, seed, golden, workdir):
    """Ops of workload `name`; `ml` is the imported minlen package."""
    return WORKLOAD_OPS[name](ml, random.Random(seed), golden, workdir)
