"""Eigensolver oracle, ladder structure, spinor states and inner products."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import minlen.oscillator.wavefunction as wavefunction_module
from minlen.oscillator.spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
    level_K,
    make_level,
    p0_allowed,
)
from minlen.oscillator.wavefunction import (
    DiagnosticModeError,
    GridSpec,
    eigensolve_factorized,
    fd_derivative,
    flat_grid,
    ground_state,
    inner_product,
    _l2norm,
    _spinor,
    ladder_apply,
    lowest_eigenvalues,
    wavefunction,
)

GRID = GridSpec(2001)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(10)


def test_flat_grid_singular_measure():
    p = DOParams(0.5, 1.0)
    with pytest.raises(AcceptabilityError):
        flat_grid(p, p0_tilde=2.0, npts=100)  # 1 - 0.5*4 < 0


@pytest.mark.parametrize("bt", [0.0, 0.5])
def test_flat_grid_mirror_exact(bt):
    """q = -q[::-1] and p = -p[::-1] to the last bit, and the centre node of
    an odd grid sits exactly at p = 0."""
    p = DOParams(bt, 1.0)
    p0 = p0_allowed(p, QuantumNumber(1, 1))
    for npts in (501, 2001, 32001):
        q, pp, f, dq, c0 = flat_grid(p, p0, npts)
        assert np.array_equal(q, -q[::-1])
        assert np.array_equal(pp, -pp[::-1])
        assert pp[npts // 2] == 0.0


def test_flat_grid_compactifies():
    p = DOParams(0.5, 1.0)
    p0 = p0_allowed(p, QuantumNumber(1, 1))
    q, pp, f, dq, c0 = flat_grid(p, p0, 501)
    q_max = 0.5 * math.pi / math.sqrt(0.5 * c0)
    assert abs(q[-1] + dq - q_max) < 1e-12
    # f = c0 + bt p^2 and the measure transform dq = dp/f hold pointwise
    assert np.allclose(f, c0 + 0.5 * pp**2)
    # p(q) inverts the arctan map
    assert np.allclose(
        pp, math.sqrt(c0 / 0.5) * np.tan(math.sqrt(0.5 * c0) * q)
    )


def test_fd_derivative_accuracy():
    n = 1500
    L = 6.0
    dq = 2 * L / (n + 1)
    q = np.linspace(-L + dq, L - dq, n)
    v = np.exp(-(q**2))
    exact = -2 * q * v
    for order, tol in ((6, 1e-10), (4, 1e-7)):
        err = np.max(np.abs(fd_derivative(v, dq, order=order) - exact))
        assert err < tol
    # no silent fallback to another stencil
    for order in (5, 8):
        with pytest.raises(ValueError):
            fd_derivative(v, dq, order=order)
    for size in (5, 6):
        with pytest.raises(ValueError):
            fd_derivative(v[:size], dq, order=6)
    with pytest.raises(ValueError):
        fd_derivative(v[:4], dq, order=4)
    assert fd_derivative(v[:7], dq, order=6).shape == (7,)


# ---- eigenvalue oracle ------------------------------------------------------


@pytest.mark.parametrize("bt,wt", [(0.0, 0.5), (0.3, 1.0)])
def test_eigensolver_matches_closed_form(bt, wt):
    p = DOParams(bt, wt)
    p0 = p0_allowed(p, QuantumNumber(2, 1))
    c0 = 1.0 - bt * p0**2
    res = eigensolve_factorized(p, p0, k=5, npts=800)
    expect = np.array([level_K(p, k) * c0 for k in range(5)])
    assert np.max(np.abs(res.eigenvalues - expect)) < 1e-6 * max(expect[-1], 1)
    # second-order stencil, so observed order about 2 (skip the zero mode)
    assert np.all(res.orders[1:] > 1.8)


def test_partner_spectrum_is_shifted():
    """B-B+ drops the zero mode and shares the rest of the spectrum."""
    p = DOParams(0.3, 1.0)
    p0 = p0_allowed(p, QuantumNumber(2, 1))
    plain = eigensolve_factorized(p, p0, k=6, npts=800).eigenvalues
    partner = eigensolve_factorized(
        p, p0, k=5, npts=800, partner=True
    ).eigenvalues
    assert np.max(np.abs(partner - plain[1:])) < 1e-5 * plain[-1]
    # no zero mode on the partner side
    assert partner[0] > 0.1


def test_eigensolver_nonconvergence_raises():
    p = DOParams(0.3, 1.0)
    with pytest.raises(RuntimeError) as err:
        eigensolve_factorized(p, 1.0, k=3, npts=80)
    # the message lists the eigenvalues of each grid of the ladder
    for npts in (80, 161, 323):
        assert f"'npts': {npts}," in str(err.value)


def test_eigensolver_refuses_diagnostic_regime():
    p = DOParams(1.5, 1.0, diagnostic=True)
    with pytest.raises(DiagnosticModeError):
        eigensolve_factorized(p, 0.5, k=2)
    with pytest.raises(DiagnosticModeError):
        ground_state(p, 0.5)
    with pytest.raises(DiagnosticModeError):
        wavefunction(p, QuantumNumber(0, 1))


# ---- ladder structure -------------------------------------------------------


def test_hermite_ladder_undeformed():
    """B+B- on the k-th Hermite level returns 2 wt k times the level."""
    wt = 0.7
    p = DOParams(0.0, wt)
    grid = ground_state(p, 1.0, GridSpec(3001))  # supplies the p, dq holder
    x = grid.p / math.sqrt(wt)
    for k in (1, 2, 4):
        coefs = [0] * k + [1]
        psi = np.polynomial.hermite.hermval(x, coefs) * np.exp(-x * x / 2)
        psi /= math.sqrt(float(np.sum(psi**2) * grid.dq))
        down, _ = ladder_apply(-1, grid, psi)
        up, _ = ladder_apply(1, grid, down)
        err = np.max(np.abs(up - 2 * wt * k * psi))
        assert err < 1e-6


def test_ladder_lowers_and_raises_between_levels():
    p = DOParams(0.4, 1.0)
    wf2 = wavefunction(p, QuantumNumber(2, 1), GRID)
    down, meta = ladder_apply(-1, wf2, wf2.psi1)
    assert not meta["too_coarse"]
    # one application removes exactly one node; count in the interior,
    # where the diverging p(q) does not amplify boundary tail noise
    interior = np.abs(wf2.q) < 0.8 * np.max(np.abs(wf2.q))
    v = down[interior]
    big = np.abs(v) > 1e-4 * np.max(np.abs(v))
    sv = np.sign(v[big])
    assert np.sum(sv[:-1] * sv[1:] < 0) == 1


def test_ladder_sign_validation():
    p = DOParams(0.0, 1.0)
    g = ground_state(p, 1.0, GRID)
    with pytest.raises(ValueError):
        ladder_apply(0, g, g.psi1)


# ---- states -----------------------------------------------------------------


def test_ground_state_gaussian_limit():
    wt = 0.8
    g = ground_state(DOParams(0.0, wt), 1.0, GRID)
    ref = np.exp(-g.p**2 / (2 * wt))
    ref /= math.sqrt(float(np.sum(ref**2) * g.dq))
    assert np.max(np.abs(g.psi1 - ref)) < 1e-12
    assert np.all(g.psi2 == 0)
    assert g.metadata["residual_coupled_2"] < 1e-8


def test_ground_state_deformed_profile():
    bt, wt = 0.5, 1.0
    p = DOParams(bt, wt)
    p0 = p0_allowed(p, QuantumNumber(0, 1))
    g = ground_state(p, p0, GRID)
    # psi1 proportional to f^(-1/(2 bt wt))
    prof = g.f ** (-1.0 / (2 * bt * wt))
    prof /= math.sqrt(float(np.sum(prof**2) * g.dq))
    assert np.max(np.abs(g.psi1 - prof)) < 1e-12
    assert g.metadata["residual_coupled_2"] < 1e-8
    assert abs(g.norm_squared() - 1.0) < 1e-12


def sign_changes(v, floor=1e-6):
    """Sign changes of v where |v| exceeds floor * max |v|."""
    v = v[np.abs(v) > floor * np.max(np.abs(v))]
    return int(np.count_nonzero(np.sign(v[:-1]) != np.sign(v[1:])))


@pytest.mark.parametrize("bt", [0.0, 0.5])
@pytest.mark.parametrize("n,tau", [(1, 1), (3, 1), (2, -1)])
def test_excited_states(bt, n, tau):
    p = DOParams(bt, 1.0)
    wf = wavefunction(p, QuantumNumber(n, tau), GridSpec(6001))
    assert abs(wf.norm_squared() - 1.0) < 1e-12
    assert sign_changes(wf.psi1) == n
    # bounds set for the earlier finite-difference states; the closed form
    # sits at rounding
    assert wf.metadata["residual_coupled_1"] < 2e-5
    assert wf.metadata["residual_coupled_2"] < 1e-7


PARITY_LEVELS = [(n, 1) for n in range(7)] + [(n, -1) for n in range(1, 7)]


@pytest.mark.parametrize("size", [2001, 32001])
@pytest.mark.parametrize("bt", [0.0, 0.1, 0.5])
def test_state_parity(bt, size):
    """psi1 has parity (-1)^n and psi2 parity (-1)^(n+1) under q -> -q,
    exactly, so every overlap between states of opposite parity vanishes to
    within the inner product's own error estimate."""
    p = DOParams(bt, 1.0)
    states = {
        (n, tau): wavefunction(p, QuantumNumber(n, tau), GridSpec(size))
        for n, tau in PARITY_LEVELS
    }
    for (n, tau), wf in states.items():
        sign = (-1) ** n
        assert np.array_equal(wf.psi1[::-1], sign * wf.psi1)
        assert np.array_equal(wf.psi2[::-1], -sign * wf.psi2)
    for (na, ta), a in states.items():
        for (nb, tb), b in states.items():
            if (na + nb) % 2 == 1 and (na, ta) < (nb, tb):
                val, err = inner_product(
                    a, b, QuantumNumber(na, ta), with_error=True
                )
                assert abs(val) <= err, ((na, ta), (nb, tb), abs(val), err)


def assert_mirror_is_direct(wf, bits: bool):
    """wf's psi1 and psi2, evaluated on the non-negative half of the grid
    and mirrored, equal amplitude times the closed form evaluated at every
    node.  With bits=False an exact zero may differ in sign: in the tails
    that underflow at small bt wt, an odd recurrence evaluated directly at
    negative nodes gives -0.0 where the mirror gives +0.0."""
    direct = _spinor(wf.params, wf.level, wf.p)[:2]
    for sampled, exact in zip((wf.psi1, wf.psi2), direct):
        exact = wf.amplitude * exact
        assert np.array_equal(sampled, exact, equal_nan=True)
        differ = sampled.view(np.uint64) != exact.view(np.uint64)
        if bits:
            assert not differ.any()
        else:
            assert np.all((sampled[differ] == 0) | np.isnan(sampled[differ]))


ALL_LEVELS = [(0, 1)] + [(n, tau) for n in range(1, 11) for tau in (1, -1)]


@pytest.mark.parametrize("size", [64, 65, 2000, 2001])
@pytest.mark.parametrize("bt,wt", [(0.0, 1.0), (0.0, 0.3), (0.005, 1.0),
                                   (0.01, 0.2)])
def test_mirror_equals_direct_evaluation(bt, wt, size):
    """At bt = 0 and at small bt wt, where the tails underflow."""
    p = DOParams(bt, wt)
    for n, tau in ALL_LEVELS:
        wf = wavefunction(p, QuantumNumber(n, tau), GridSpec(size))
        assert_mirror_is_direct(wf, bits=False)


def perfbench_range_pairs():
    """Three seeded draws from the range perfbench samples."""
    rng = random.Random(17)
    return [(rng.uniform(0.01, 0.9), rng.uniform(0.2, 2.0)) for _ in range(3)]


@pytest.mark.parametrize("size", [2000, 2001, 32001])
@pytest.mark.parametrize("bt,wt", [(0.5, 1.0), (0.0, 1.0)]
                         + perfbench_range_pairs())
def test_mirror_is_direct_evaluation_to_the_bit(bt, wt, size):
    """At the golden parameters and over a sample of bt in [0.01, 0.9],
    wt in [0.2, 2], zero signs included."""
    p = DOParams(bt, wt)
    for n, tau in ALL_LEVELS:
        wf = wavefunction(p, QuantumNumber(n, tau), GridSpec(size))
        assert_mirror_is_direct(wf, bits=True)


@given(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.99)),
       st.floats(min_value=0.05, max_value=5.0),
       st.sampled_from(ALL_LEVELS),
       st.sampled_from([64, 65, 2000, 2001]))
@settings(max_examples=100, deadline=None)
def test_mirror_equals_direct_over_the_range(bt, wt, level, size):
    wf = wavefunction(DOParams(bt, wt), QuantumNumber(*level), GridSpec(size))
    assert_mirror_is_direct(wf, bits=False)


@pytest.mark.parametrize("size", [2000, 2001])
def test_sampled_evaluates_half_the_grid(monkeypatch, size):
    """Work-count guard: the closed form is evaluated once, on the
    ceil(N/2) non-negative nodes, and the other half is filled by parity."""
    nodes = []

    def counting(params, level, p):
        nodes.append(p.size)
        return _spinor(params, level, p)

    monkeypatch.setattr(wavefunction_module, "_spinor", counting)
    wf = wavefunction(DOParams(0.5, 1.0), QuantumNumber(3, 1), GridSpec(size))
    assert nodes == [(size + 1) // 2]
    inner_product(wf, wf, QuantumNumber(3, 1))
    assert nodes == [(size + 1) // 2] * 2


def inner_product_direct(a, b, weight_level):
    """`inner_product(..., with_error=True)` with b's closed form evaluated
    at every one of a's nodes, the reference for the mirrored one."""
    bt = a.params.beta_tilde
    p0w = p0_allowed(a.params, weight_level)
    fw = 1.0 - bt * p0w**2 + bt * a.p**2
    b1, b2, _, _ = _spinor(b.params, b.level, a.p)
    integrand = (np.conj(a.psi1) * b1 + np.conj(a.psi2) * b2) * (
        b.amplitude * a.f / fw
    )
    val = complex(np.sum(integrand) * a.dq)
    coarse = complex(np.sum(integrand[::2]) * 2 * a.dq)
    mass = float(np.sum(np.abs(integrand)) * a.dq)
    return val, max(abs(val - coarse) / 3.0, 1e-14 * mass)


@given(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.01),
                 st.floats(min_value=1e-6, max_value=0.99)),
       st.floats(min_value=0.05, max_value=5.0),
       st.sampled_from(ALL_LEVELS),
       st.sampled_from(ALL_LEVELS),
       st.sampled_from([(0, 1), (1, 1), (3, 1)]),
       st.sampled_from([64, 65, 2000, 2001]))
@example(0.0, 1.0, (2, 1), (4, 1), (0, 1), 2001)
@example(0.0015, 1.0, (3, 1), (5, -1), (1, 1), 2000)
@settings(max_examples=100, deadline=None)
def test_inner_product_mirror_equals_direct(bt, wt, la, lb, lw, size):
    """Value and error equal the full-grid evaluation's: the mirrored and
    the direct integrands differ at most in the signs of zeros (bt = 0 and
    small bt wt, where the tails underflow), which == does not tell
    apart."""
    p = DOParams(bt, wt)
    a, b = (wavefunction(p, QuantumNumber(*lv), GridSpec(size))
            for lv in (la, lb))
    got = inner_product(a, b, QuantumNumber(*lw), with_error=True)
    assert got == inner_product_direct(a, b, QuantumNumber(*lw))


def test_lowest_negative_branch_matches_mirror():
    """tau = -1 states solve the same factorized problem at mirrored p0."""
    p = DOParams(0.3, 1.0)
    plus = wavefunction(p, QuantumNumber(1, 1), GRID)
    minus = wavefunction(p, QuantumNumber(1, -1), GRID)
    assert minus.level.p0_tilde == -plus.level.p0_tilde
    # identical psi1 profiles up to the joint spinor normalization
    a = plus.psi1 / math.sqrt(float(np.sum(plus.psi1**2) * plus.dq))
    b = minus.psi1 / math.sqrt(float(np.sum(minus.psi1**2) * minus.dq))
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-10


def test_no_normalizable_partner_zero_mode():
    """(0, -1) rejected; the would-be solution needs a partner zero mode,
    but the partner spectrum is bounded away from zero."""
    p = DOParams(0.3, 1.0)
    with pytest.raises(ValueError):
        QuantumNumber(0, -1)
    floor = lowest_eigenvalues(p, -1.0, k=1, npts=3001, partner=True)[0]
    assert floor > 0.5 * p.omega_tilde  # far above the eigen-residual scale


# ---- inner products ---------------------------------------------------------


def test_self_inner_product_is_one():
    p = DOParams(0.5, 1.0)
    for n in (0, 1, 2):
        wf = wavefunction(p, QuantumNumber(n, 1), GRID)
        val = inner_product(wf, wf, QuantumNumber(n, 1))
        assert abs(val - 1.0) < 1e-12


def test_inner_product_requires_same_oscillator():
    a = wavefunction(DOParams(0.5, 1.0), QuantumNumber(0, 1), GRID)
    b = wavefunction(DOParams(0.4, 1.0), QuantumNumber(0, 1), GRID)
    with pytest.raises(ValueError):
        inner_product(a, b, QuantumNumber(0, 1))


def test_inner_product_rejects_a_singular_weight():
    """At bt wt = 5e9 the (1, +) level's 1 - bt p0^2 rounds to <= 0, so its
    measure factor is non-positive near p = 0: an error, as in
    `flat_grid`, not a value.  The (0, +) weight still normalizes."""
    a = wavefunction(DOParams(0.5, 1e10), QuantumNumber(0, 1), GRID)
    with pytest.raises(AcceptabilityError, match="measure is singular"):
        inner_product(a, a, QuantumNumber(1, 1))
    val, err = inner_product(a, a, QuantumNumber(0, 1), with_error=True)
    assert abs(val - 1.0) <= err


def test_inner_product_conjugate_symmetric():
    p = DOParams(0.5, 1.0)
    a = wavefunction(p, QuantumNumber(0, 1), GRID)
    b = wavefunction(p, QuantumNumber(2, 1), GRID)
    w = QuantumNumber(0, 1)
    ab, err = inner_product(a, b, w, with_error=True)
    ba = inner_product(b, a, w)
    assert abs(ab - np.conj(ba)) <= max(err, 1e-12)


def test_orthogonality_restored_undeformed():
    p = DOParams(0.0, 1.0)
    a = wavefunction(p, QuantumNumber(0, 1), GridSpec(4001))
    b = wavefunction(p, QuantumNumber(2, 1), GridSpec(4001))
    val = inner_product(a, b, QuantumNumber(0, 1))
    assert abs(val) < 1e-4


def test_orthogonality_lost_when_deformed():
    p = DOParams(0.5, 1.0)
    a = wavefunction(p, QuantumNumber(0, 1), GridSpec(4001))
    b = wavefunction(p, QuantumNumber(2, 1), GridSpec(4001))
    val, err = inner_product(a, b, QuantumNumber(0, 1), with_error=True)
    assert abs(val) > 100 * err
    assert abs(val) > 0.01


def test_exact_overlap_across_boxes():
    """Each undeformed level gets a box sized from its own n, and b is
    evaluated exactly on a's nodes: the ground state and n = 40 (which a
    box shared by all levels cut off) are orthogonal in either order, to
    within the quadrature error, and n = 40 is normalized on its own
    nodes."""
    p = DOParams(0.0, 1.0)
    ground = QuantumNumber(0, 1)
    a = wavefunction(p, ground, GRID)
    b = wavefunction(p, QuantumNumber(40, 1), GRID)
    assert b.q[-1] > a.q[-1]  # the boxes differ
    assert b.metadata["quadrature_error"] < 1e-12
    assert max(b.metadata["residual_coupled_1"],
               b.metadata["residual_coupled_2"]) < 1e-12
    for x, y in ((a, b), (b, a)):
        val, err = inner_product(x, y, ground, with_error=True)
        assert abs(val) <= err < 1e-12
    assert abs(inner_product(b, b, QuantumNumber(40, 1)) - 1.0) < 1e-12


def _fd_residual(wf, psi2):
    """Coupled residual of (wf.psi1, psi2) under the finite-difference
    ladder operators of `ladder_apply` (6th-order stencil)."""
    p0 = wf.level.p0_tilde
    down, _ = ladder_apply(-1, wf, wf.psi1)
    up, _ = ladder_apply(1, wf, psi2)
    return max(_l2norm(down - (p0 + 1.0) * psi2, wf.dq),
               _l2norm(up - (p0 - 1.0) * wf.psi1, wf.dq))


@pytest.mark.parametrize("bt,wt,n,tau", [
    (0.0, 1.0, 3, 1), (0.05, 1.0, 4, 1), (0.1, 0.5, 5, -1)])
def test_finite_differences_confirm_closed_form(bt, wt, n, tau):
    """The independent stencil sees the closed-form pair solve both coupled
    equations, with a residual that falls at about the stencil's order
    (2^6 per halving of dq) where the states are smooth at the wall
    (lam = 1/(bt wt) >= 20).  A wrong K (psi2 scaled) or a wrong lam in
    psi2 (a wrong width for bt = 0) leaves a residual that does not
    fall."""
    params = DOParams(bt, wt)
    wrong_lam = DOParams(bt, 1.05 * wt)
    residuals = {"exact": [], "K": [], "lam": []}
    for size in (1001, 2003):
        wf = wavefunction(params, QuantumNumber(n, tau), GridSpec(size))
        tampered = {
            "exact": wf.psi2,
            "K": 1.01 * wf.psi2,
            "lam": wf.amplitude * _spinor(wrong_lam, wf.level, wf.p)[1],
        }
        for key, psi2 in tampered.items():
            residuals[key].append(_fd_residual(wf, psi2))
    coarse, fine = residuals["exact"]
    assert fine < 1e-8 and coarse / fine > 2**5
    for key in ("K", "lam"):
        coarse, fine = residuals[key]
        assert fine > 1e-3 and coarse / fine < 2
