"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output).  Criterion 8, the loss of
orthogonality under deformation, is checked on two fronts.  Its prescribed
pair (0,+)/(1,+) has opposite parity under p -> -p (psi1 of (0,+) even,
psi1 of (1,+) odd, psi2 of (0,+) zero) and the level-0 weight is even, so
that overlap is zero for every deformation strength; the test asserts the
parity premises and that the overlap stays within the quadrature error.
The loss itself is shown on same-parity pairs: (1,+)/(3,+) under the
level-1 weight in the criterion test, (0,+)/(2,+) in its companion.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from minlen.cli import main as cli_main
from minlen.core import DeformationParams, Spacetime
from minlen.oscillator.spectrum import (
    DOParams,
    QuantumNumber,
    level_K,
    p0_allowed,
    spectrum_table,
)
from minlen.oscillator.wavefunction import (
    GridSpec,
    eigensolve_factorized,
    ground_state,
    inner_product,
    lowest_eigenvalues,
    wavefunction,
)
from minlen.symbolic.identities import (
    verify_algebra,
    verify_poincare,
    verify_reductions,
    verify_transformations,
)
from minlen.uncertainty import (
    absolute_min_deltaX,
    gup_bound,
    state_moments,
    uncertainty_report,
    ur_bound,
)


def verdict(num, ok, detail):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_symbolic_algebra():
    t0 = time.time()
    clean = all(
        verify_algebra(Spacetime(D)).passed
        and all(
            c.residual_term_count == 0
            for c in verify_algebra(Spacetime(D)).checks
        )
        for D in (1, 2, 3)
    )
    elapsed = time.time() - t0
    mutations = ("xp-betap-doubled", "xp-w-dropped", "xx-s-term-dropped")
    mutants_fail = all(
        not verify_algebra(Spacetime(2), tamper=(t,)).passed
        for t in mutations
    )
    ok = clean and elapsed < 60.0 and mutants_fail
    verdict(
        1,
        ok,
        f"exact for D=1..3 symbolic in {elapsed:.1f}s; "
        f"{len(mutations)} mutations all fail: {mutants_fail}",
    )


def test_criterion_02_poincare_realization():
    ok = True
    detail = []
    for D in (1, 2, 3):
        rp = verify_poincare(Spacetime(D))
        rt = verify_transformations(Spacetime(D))
        simplified = all(
            c.passed
            for c in rp.checks
            if c.identity_id.startswith("lhat-simplify")
        )
        ok = ok and rp.passed and rt.passed and simplified
        detail.append(f"D={D}:{len(rp.checks)}+{len(rt.checks)} checks")
    verdict(2, ok, "generators realize undeformed iso(D,1); " + ", ".join(detail))


def test_criterion_03_reductions():
    rep = verify_reductions(3)
    snyder = [c for c in rep.checks if c.identity_id.startswith("snyder")]
    kempf = [c for c in rep.checks if c.identity_id.startswith("kempf")]
    ok = (
        rep.passed
        and len(snyder) == 6
        and len(kempf) > 0
        and all(c.residual_term_count == 0 for c in rep.checks)
    )
    verdict(
        3, ok, f"{len(snyder)} noncommutative-spacetime + {len(kempf)} "
        "Euclidean identities reproduced exactly",
    )


def test_criterion_04_spectrum():
    ok = True
    notes = []
    # rest energy of the lowest level, dimensional form
    p = DOParams.from_dimensional(mass=1.3, c=2.1, hbar=0.9, omega=1.7, beta=0.02)
    from minlen.oscillator.spectrum import energy

    E0 = energy(p, QuantumNumber(0, 1))
    rest = p.mass * p.c**2
    ok &= abs(E0 - rest) <= 4 * np.finfo(float).eps * rest
    notes.append(f"E(0,+)=mc^2 to {abs(E0/rest-1.0):.1e}")

    # near the accumulation point the level spacing drops below float
    # resolution, so strict monotonicity is checked in exact rationals on
    # the squared levels
    from fractions import Fraction

    for bt_f, bt in ((Fraction(1, 10), 0.1), (Fraction(1, 2), 0.5),
                     (Fraction(9, 10), 0.9)):
        increasing = True
        bounded = True
        prev = Fraction(-1)
        for k in range(10**5 + 1):
            K = k * (2 + bt_f * k)
            p0sq = (1 + K) / (1 + bt_f * K)
            increasing &= p0sq > prev
            bounded &= p0sq < 1 / bt_f
            prev = p0sq
        # spot-check the exact recursion against the float routine
        params = DOParams(bt, 1.0)
        spots = all(
            math.isclose(
                math.sqrt(
                    float((1 + k * (2 + bt_f * k)) / (1 + bt_f * k * (2 + bt_f * k)))
                ),
                p0_allowed(params, QuantumNumber(k, 1)),
                rel_tol=1e-12,
            )
            for k in (0, 1, 17, 10**5)
        )
        ok &= increasing and bounded and spots
        notes.append(f"bt={bt}: monotone={increasing}, |E|<c/sqrt(beta)={bounded}")
    flagged = spectrum_table(
        DOParams(1.5, 1.0, diagnostic=True), 10
    ).unphysical_decrease
    ok &= flagged
    notes.append(f"bt=1.5 flagged={flagged}")
    verdict(4, ok, "; ".join(notes))


def test_criterion_05_eigen_oracle():
    ok = True
    notes = []
    for bt in (0.1, 0.5):
        for wt in (0.1, 0.5):
            t0 = time.time()
            params = DOParams(bt, wt)
            p0 = p0_allowed(params, QuantumNumber(2, 1))
            c0 = 1.0 - bt * p0**2
            res = eigensolve_factorized(params, p0, k=6, npts=1000)
            exact = np.array([level_K(params, k) * c0 for k in range(6)])
            # the k = 0 eigenvalue is exactly zero, so its error is taken
            # relative to the first nonzero level
            denom = np.maximum(np.abs(exact), exact[1])
            rel = np.max(np.abs(res.eigenvalues - exact) / denom)
            order_ok = bool(np.all(res.orders[1:] >= 1.9))
            elapsed = time.time() - t0
            ok &= rel <= 1e-5 and order_ok and elapsed < 60.0
            notes.append(
                f"({bt},{wt}): rel={rel:.1e}, "
                f"order>={np.min(res.orders[1:]):.2f}, {elapsed:.1f}s"
            )
    verdict(5, ok, "; ".join(notes))


def test_criterion_06_undeformed_limit():
    wt = 0.7
    n = np.arange(21, dtype=float)
    ref = np.sqrt(1.0 + 2.0 * wt * n)
    devs = []
    for bt in (1e-3, 1e-4, 1e-5):
        params = DOParams(bt, wt)
        p0 = np.array(
            [p0_allowed(params, QuantumNumber(int(k), 1)) for k in n]
        )
        devs.append(float(np.max(np.abs(p0 - ref))))
    ratios = [devs[i] / devs[i + 1] for i in range(2)]
    ok = all(8.0 <= r <= 12.0 for r in ratios)
    verdict(
        6, ok,
        "max deviation scales linearly in beta: ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


def _grid_for(bt):
    # the undeformed box has a wider domain, so it needs more nodes for the
    # same spacing
    return GridSpec(32001 if bt == 0.0 else 8001)


def test_criterion_07_wavefunctions():
    ok = True
    notes = []
    for bt in (0.0, 0.5):
        params = DOParams(bt, 1.0)
        g = ground_state(
            params, p0_allowed(params, QuantumNumber(0, 1)), _grid_for(bt)
        )
        gr = g.metadata["residual_coupled_2"]
        ok &= gr <= 1e-8
        worst_res = 0.0
        worst_norm = 0.0
        for n in range(6):
            wf = wavefunction(params, QuantumNumber(n, 1), _grid_for(bt))
            worst_res = max(
                worst_res,
                wf.metadata["residual_coupled_1"],
                wf.metadata["residual_coupled_2"],
            )
            worst_norm = max(worst_norm, abs(wf.norm_squared() - 1.0))
        ok &= worst_res <= 1e-6 and worst_norm <= 1e-8
        notes.append(
            f"bt={bt}: ground={gr:.1e}, coupled<={worst_res:.1e}, "
            f"|norm-1|<={worst_norm:.1e}"
        )
    # no normalizable (0, -1) state: the label is rejected outright, and the
    # would-be solution needs a zero mode of the partner operator, whose
    # spectrum is bounded away from zero
    try:
        QuantumNumber(0, -1)
        rejected = False
    except ValueError:
        rejected = True
    params = DOParams(0.5, 1.0)
    floor = float(
        lowest_eigenvalues(params, -1.0, k=1, npts=8001, partner=True)[0]
    )
    ok &= rejected and floor > 1e-2
    notes.append(f"(0,-1) rejected; partner eigen-floor {floor:.3f}")
    verdict(7, ok, "; ".join(notes))


def _overlap(bt, na, nb, nw=0):
    params = DOParams(bt, 1.0)
    grid = GridSpec(8001)
    a = wavefunction(params, QuantumNumber(na, 1), grid)
    b = wavefunction(params, QuantumNumber(nb, 1), grid)
    return inner_product(a, b, QuantumNumber(nw, 1), with_error=True)


def _opposite_parity_pair(bt):
    """Overlap of (0,+) and (1,+) under the level-0 weight, and whether its
    parity premises hold on the mirror-symmetric grid: psi1 of (0,+) even,
    psi2 of (0,+) zero, psi1 of (1,+) odd, f_w(p) = c0w + bt p^2 even."""
    params = DOParams(bt, 1.0)
    grid = GridSpec(8001)
    a = wavefunction(params, QuantumNumber(0, 1), grid)
    b = wavefunction(params, QuantumNumber(1, 1), grid)
    p0w = p0_allowed(params, QuantumNumber(0, 1))
    fw = 1.0 - bt * p0w**2 + bt * a.p**2
    tol = 1e-12
    premises = bool(
        np.max(np.abs(fw[::-1] - fw)) <= tol * np.max(fw)
        and np.max(np.abs(a.psi1[::-1] - a.psi1)) <= tol * np.max(a.psi1)
        and np.all(a.psi2 == 0)
        and np.max(np.abs(b.psi1[::-1] + b.psi1))
        <= tol * np.max(np.abs(b.psi1))
    )
    val, err = inner_product(a, b, QuantumNumber(0, 1), with_error=True)
    return premises, val, err


def test_criterion_08_orthogonality_loss():
    """The energy-dependent measure breaks orthogonality once bt > 0.

    The prescribed pair (0,+)/(1,+) cannot show it: the level-0 weight is
    even, psi1 of (0,+) is even, psi1 of (1,+) is odd and psi2 of (0,+) is
    zero, so the overlap vanishes by parity for every bt.  The test checks
    those premises and that the overlap stays within err, deformed and
    undeformed.  The loss is shown on (1,+)/(3,+) under the level-1 weight,
    the lowest same-parity pair the even-pair test below does not cover.
    The states are sampled from the closed form, so the undeformed
    overlap is rounding (no O(dq^2) discretization floor remains); it is
    compared as that test compares (0,+)/(2,+).
    """
    premises_d, val_d, err_d = _opposite_parity_pair(0.5)
    premises_u, val_u, err_u = _opposite_parity_pair(0.0)
    premises = premises_d and premises_u
    forbidden_clean = abs(val_d) <= err_d and abs(val_u) <= err_u
    loss_d, loss_err_d = _overlap(0.5, 1, 3, nw=1)
    loss_u, _ = _overlap(0.0, 1, 3, nw=1)
    deformed_visible = abs(loss_d) > 10.0 * loss_err_d
    undeformed_clean = abs(loss_u) < 1e-5
    separated = abs(loss_d) > 1e4 * abs(loss_u)
    verdict(
        8,
        premises
        and forbidden_clean
        and deformed_visible
        and undeformed_clean
        and separated,
        f"parity premises hold: {premises}; "
        f"|<0,+|1,+>| = {abs(val_d):.2e} vs err = {err_d:.2e} (deformed), "
        f"{abs(val_u):.2e} vs err = {err_u:.2e} (undeformed); "
        f"|<1,+|3,+>|_w1 = {abs(loss_d):.2e} vs 10*err = "
        f"{10 * loss_err_d:.2e} (deformed), undeformed floor "
        f"{abs(loss_u):.2e}",
    )


def test_criterion_08_orthogonality_loss_even_pair():
    """Orthogonality loss on the even-parity pair, where the effect is real.

    Both states are sampled from the closed form, so the undeformed
    overlap is rounding; it must lie below 1e-5 and 1e4 times below the
    deformed one.
    """
    val_d, err_d = _overlap(0.5, 0, 2)
    val_u, _ = _overlap(0.0, 0, 2)
    deformed_visible = abs(val_d) > 10.0 * err_d
    undeformed_clean = abs(val_u) < 1e-5
    separated = abs(val_d) > 1e4 * abs(val_u)
    verdict(
        8,
        deformed_visible and undeformed_clean and separated,
        f"|<0,+|2,+>| = {abs(val_d):.2e} vs 10*err = {10 * err_d:.2e} "
        f"(deformed); undeformed floor {abs(val_u):.2e}",
    )


def test_criterion_09_uncertainty():
    ok = True
    notes = []
    worst_slack = math.inf
    for bt in (0.0, 0.1, 0.5):
        params = DOParams(bt, 1.0)
        for n in range(6):
            wf = wavefunction(params, QuantumNumber(n, 1), GridSpec(4001))
            rec = uncertainty_report(wf, params)
            worst_slack = min(worst_slack, rec["slack"])
    ok &= worst_slack >= -1e-10
    notes.append(f"min slack over 18 states {worst_slack:.2e}")

    g = ground_state(DOParams(0.0, 1.0), 1.0, GridSpec(4001))
    sm = state_moments(g, DOParams(0.0, 1.0))
    sat = abs(
        sm.deltaX * sm.deltaP
        - ur_bound(sm.moments, DeformationParams(beta=0.0), 1)
    )
    ok &= sat <= 1e-8
    notes.append(f"undeformed ground saturation to {sat:.1e}")

    beta = 0.3
    res = minimize_scalar(
        lambda dp: gup_bound(dp, beta),
        bracket=(1e-3, 1.0, 1e3),
        method="golden",
        options={"xtol": 1e-15},
    )
    min_ok = (
        abs(res.fun - math.sqrt(beta)) <= 1e-12
        and abs(res.x - 1.0 / math.sqrt(beta)) <= 1e-5
    )
    ok &= min_ok
    notes.append(
        f"one-parameter bound minimum ({res.x:.6f}, {res.fun:.12f})"
    )

    dparams = DeformationParams(beta=0.04, beta_prime=0.09)
    exact = absolute_min_deltaX(dparams, 0.0, 3) == math.sqrt(3 * 0.04 + 0.09)
    ok &= exact
    notes.append(f"Euclidean minimal length exact: {exact}")
    verdict(9, ok, "; ".join(notes))


def test_criterion_10_cli_contract(tmp_path):
    d = lambda name: ["--out-dir", str(tmp_path / name)]
    matrix = [
        (["verify-algebra", "--dims", "1"] + d("m1"), 0),
        (["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0"]
         + d("m2"), 0),
        (["spectrum", "--omega-tilde", "1.0"] + d("m3"), 2),
        (["spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1.0"]
         + d("m4"), 1),
        (["spectrum", "--beta-tilde", "1.5", "--omega-tilde", "1.0",
          "--diagnostic"] + d("m5"), 0),
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "1", "--grid-size", "2001"] + d("m6"), 0),
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "0", "--tau", "-1"] + d("m7"), 2),
        (["wavefunction", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n", "1", "--grid-size", "2001", "--tol", "1e-300"] + d("m8"), 1),
        (["uncertainty", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
          "--n-max", "1", "--grid-size", "2001"] + d("m9"), 0),
        (["limits", "--beta-values", "1e-3,1e-4", "--omega-tilde", "0.7",
          "--expect-linear"] + d("m10"), 0),
        (["limits", "--beta-values", "1e-3,5e-4", "--omega-tilde", "0.7",
          "--expect-linear"] + d("m11"), 1),
    ]
    codes_ok = all(cli_main(args) == expected for args, expected in matrix)

    args = ["spectrum", "--beta-tilde", "0.5", "--omega-tilde", "1.0",
            "--n-max", "6", "--format", "csv"]
    outs = []
    for name in ("r1", "r2"):
        path = tmp_path / name
        assert cli_main(args + ["--out-dir", str(path)]) == 0
        outs.append(
            (path / "spectrum.csv").read_bytes()
            + (path / "report.json").read_bytes()
        )
    deterministic = outs[0] == outs[1]
    verdict(
        10,
        codes_ok and deterministic,
        f"{len(matrix)}-case exit-code matrix ok={codes_ok}; "
        f"reruns byte-identical={deterministic}",
    )
