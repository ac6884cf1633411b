"""Eigensolver oracle, ladder structure, spinor states and inner products."""

import cmath
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import minlen.oscillator.wavefunction as wavefunction_module
from minlen.oscillator.spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
    SpectrumLevel,
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
    _coefficients,
    _gamma_ratio,
    _gauss,
    _gauss_nodes,
    _l2norm,
    _ladder_tridiagonal,
    _lam,
    _norm_integral,
    _recurrence,
    _spinor,
    ladder_apply,
    lowest_eigenvalues,
    wavefunction,
)

GRID = GridSpec(2001)


def test_gridspec_validation():
    """From 64 nodes up to the largest size whose float64 nodes numpy can
    address (a GridSpec allocates nothing); by default 4001 nodes, the
    CLI's --grid-size default."""
    assert GridSpec().size == 4001
    with pytest.raises(ValueError):
        GridSpec(10)
    limit = np.iinfo(np.intp).max // 8
    assert GridSpec(64).size == 64 and GridSpec(limit).size == limit
    with pytest.raises(ValueError, match=f"grid size {limit + 1} is too "):
        GridSpec(limit + 1)


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
    """From bt = 1 on, where 1 - bt p0^2 is still positive at p0 = 0.5."""
    for bt in (1.0, 1.5):
        p = DOParams(bt, 1.0, diagnostic=True)
        with pytest.raises(DiagnosticModeError):
            eigensolve_factorized(p, 0.5, k=2)
        with pytest.raises(DiagnosticModeError):
            ground_state(p, 0.5)
        with pytest.raises(DiagnosticModeError):
            wavefunction(p, QuantumNumber(0, 1))


@pytest.mark.parametrize("k,npts", [(0, 1000), (5, 3), (1, 0)])
def test_eigensolver_refuses_bad_sizes(k, npts):
    """The oracle needs 1 <= k <= npts on its coarsest grid, and says so."""
    p = DOParams(0.3, 1.0)
    with pytest.raises(ValueError) as err:
        eigensolve_factorized(p, 0.5, k=k, npts=npts)
    assert str(err.value) == f"need 1 <= k <= npts, got k = {k}, npts = {npts}"


def full_lowest_eigenvalues(params, p0, k, npts, partner):
    """(k lowest eigenvalues, ||T||_1) of scipy's solve of the whole npts-row
    matrix of `_ladder_tridiagonal`, the reference for the parity blocks."""
    from scipy.linalg import eigh_tridiagonal

    _, p, f, dq, _ = flat_grid(params, p0, npts, k + 4)
    diag, off = _ladder_tridiagonal(params.omega_tilde, p, f, dq, partner)
    ev = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                          eigvals_only=True)
    bonds = np.abs(np.concatenate(([0.0], off, [0.0])))
    return ev, float(np.max(np.abs(diag) + bonds[:-1] + bonds[1:]))


@given(st.one_of(st.just(0.0), st.floats(min_value=0.005, max_value=0.95)),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.integers(min_value=64, max_value=2001),
       st.integers(min_value=1, max_value=9),
       st.booleans())
@example(0.0, 1.0, 0.5, 200, 9, False)
@example(0.0, 1.0, 0.5, 201, 9, True)
@example(0.3, 1.0, 1.0, 800, 6, False)
@example(0.3, 1.0, 1.0, 801, 6, True)
@example(0.005, 0.125, 0.0, 64, 8, False)  # pairs closer than eps ||T||_1
@settings(max_examples=100, deadline=None)
def test_parity_blocks_match_the_full_solve(bt, wt, p0, npts, k, partner):
    """Solved as its even and odd blocks, the grid's k lowest eigenvalues
    are scipy's full-matrix ones to within the tolerance of its bisection,
    eps ||T||_1, and ascending.  They increase strictly where the grid
    resolves the states; on a grid far too coarse (lam = 1600 on 64
    nodes) an even and an odd state on single nodes +-q differ by less
    than the tolerance."""
    params = DOParams(bt, wt)
    got = lowest_eigenvalues(params, p0, k, npts, partner)
    ref, norm = full_lowest_eigenvalues(params, p0, k, npts, partner)
    tol = 4 * np.finfo(float).eps * norm
    assert np.max(np.abs(got - ref)) <= tol
    gaps = np.diff(got)
    assert np.all(gaps >= 0)
    assert np.all((gaps > 0) | (np.diff(ref) <= 2 * tol))


@pytest.mark.parametrize("npts", [1, 2, 3, 4, 5, 6, 7])
def test_parity_blocks_give_every_eigenvalue(npts):
    """At k = npts the two blocks together hold the whole spectrum, down to
    the one- and two-node grids."""
    params = DOParams(0.3, 1.0)
    for partner in (False, True):
        got = lowest_eigenvalues(params, 0.5, npts, npts, partner)
        ref, norm = full_lowest_eigenvalues(params, 0.5, npts, npts, partner)
        assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * norm


@pytest.mark.parametrize("npts", [2000, 2001])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
def test_oracle_solves_two_half_blocks(monkeypatch, npts, k):
    """Work-count guard: scipy sees the even block of ceil(N/2) rows for
    the ceil(k/2) even states and the odd block of floor(N/2) rows for the
    floor(k/2) odd ones, and no odd block at all for k = 1."""
    calls = []
    inner = wavefunction_module.eigh_tridiagonal

    def counting(diag, off, **kwargs):
        calls.append((diag.size, off.size, kwargs["select_range"]))
        return inner(diag, off, **kwargs)

    monkeypatch.setattr(wavefunction_module, "eigh_tridiagonal", counting)
    lowest_eigenvalues(DOParams(0.3, 1.0), 0.5, k, npts)
    even, odd = (npts + 1) // 2, npts // 2
    expect = [(even, even - 1, (0, (k + 1) // 2 - 1))]
    if k > 1:
        expect.append((odd, odd - 1, (0, k // 2 - 1)))
    assert calls == expect


@pytest.mark.parametrize("bt", [0.0, 0.5])
def test_ground_state_is_level_zero(bt):
    """At the p0 of level (0, +1) the ground state carries that level
    (n = 0, tau = +1, K = e_n = 0); at another p0 only p0 and E/mc^2
    change."""
    params = DOParams(bt, 1.0)
    level = make_level(params, QuantumNumber(0, 1))
    assert ground_state(params, level.p0_tilde, GRID).level == level
    assert ground_state(params, 0.5, GRID).level == dataclasses.replace(
        level, p0_tilde=0.5, E_over_mc2=0.5)


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


def test_ladder_too_coarse_is_strict():
    """`too_coarse` flags an estimate that exceeds 1e-6: at the omega_tilde
    that makes it exactly 1e-6 it reads False, at the next one up True."""
    wf = wavefunction(DOParams(0.4, 1.0), QuantumNumber(2, 1), GridSpec(64))
    values = wf.psi1
    d6, d4 = (fd_derivative(values, wf.dq, order=o) for o in (6, 4))
    a, b = _l2norm(d6 - d4, wf.dq), _l2norm(values, wf.dq)
    wt = 1e-6 * b / a
    assert wt * a / b == 1e-6  # est = wt a/b, as ladder_apply forms it
    up = math.nextafter(wt, math.inf)
    while up * a / b == 1e-6:
        up = math.nextafter(up, math.inf)
    metas = [ladder_apply(-1, dataclasses.replace(wf, params=DOParams(0.4, w)),
                          values)[1] for w in (wt, up)]
    assert metas[0] == {"derivative_error_estimate": 1e-6, "too_coarse": False}
    assert metas[1]["too_coarse"]


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

    def counting(params, level, p, **kwargs):
        nodes.append(p.size)
        return _spinor(params, level, p, **kwargs)

    monkeypatch.setattr(wavefunction_module, "_spinor", counting)
    wf = wavefunction(DOParams(0.5, 1.0), QuantumNumber(3, 1), GridSpec(size))
    assert nodes == [(size + 1) // 2]
    inner_product(wf, wf, QuantumNumber(3, 1))
    assert nodes == [(size + 1) // 2] * 2


@pytest.mark.parametrize("bt", [0.0, 0.5])
def test_inner_product_builds_no_derivatives(monkeypatch, bt):
    """Work-count guard: b's psi1 and psi2 take the polynomial families of
    index lam and lam + 1 (two Hermite families for bt = 0); the lam + 2
    family, which only dpsi2/dq uses, is not built."""
    params = DOParams(bt, 1.0)
    a, b = (wavefunction(params, QuantumNumber(n, 1), GRID) for n in (2, 4))
    family = wavefunction_module._family
    families = []

    def counting(x, g0, mu, k):
        families.append((mu, k))
        return family(x, g0, mu, k)

    monkeypatch.setattr(wavefunction_module, "_family", counting)
    inner_product(a, b, QuantumNumber(0, 1), with_error=True)
    lam = _lam(params) if bt else None
    assert families == [(lam, 4), (lam + 1 if bt else None, 3)]


@pytest.mark.parametrize("size", [64, 65, 2000, 2001])
@pytest.mark.parametrize("bt", [0.0, 0.005, 0.5])
def test_grid_rebuilds_q_f_and_weights_to_the_bit(bt, size):
    """A state stores p, psi1 and psi2 on the ceil(N/2) non-negative nodes
    only: its q, p, f and weights are rebuilt on access and equal
    `flat_grid`'s, signed zeros included, and its psi1 and psi2 equal the
    closed form evaluated at every node."""
    params = DOParams(bt, 1.0)
    for n, tau in [(0, 1), (1, 1), (2, -1), (5, 1)]:
        wf = wavefunction(params, QuantumNumber(n, tau), GridSpec(size))
        q, p, f, dq, _ = flat_grid(params, wf.level.p0_tilde, size, n)
        assert dq == wf.dq and wf.size == size
        for got, want in [(wf.q, q), (wf.p, p), (wf.f, f),
                          (wf.weights, f * dq)]:
            assert got.tobytes() == want.tobytes()
        # at bt = 0.005 the tails underflow: a zero may differ in sign
        assert_mirror_is_direct(wf, bits=bt != 0.005)
        arrays = {k: v for k, v in vars(wf).items()
                  if isinstance(v, np.ndarray)}
        assert set(arrays) == {"half_p", "half_psi1", "half_psi2"}
        assert {v.size for v in arrays.values()} == {(size + 1) // 2}
        assert wf.half_p.tobytes() == p[size // 2:].tobytes()


def test_sampled_builds_half_the_nodes_and_no_measure(monkeypatch):
    """Work guard: a state builds the nodes of the non-negative half of the
    grid only, and never the measure f; `inner_product` builds f twice (a's
    and the weight's) and `csv_rows` once."""
    built, measured = [], []
    nodes, measure = wavefunction_module._nodes, wavefunction_module._measure

    def counting_nodes(npts, dq, start=0):
        built.append(npts - start)
        return nodes(npts, dq, start)

    def counting_measure(*args, **kwargs):
        measured.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(wavefunction_module, "_nodes", counting_nodes)
    monkeypatch.setattr(wavefunction_module, "_measure", counting_measure)
    for size in (2000, 2001):
        for bt in (0.0, 0.5):
            built.clear()
            wf = wavefunction(DOParams(bt, 1.0), QuantumNumber(3, 1),
                              GridSpec(size))
            assert built == [(size + 1) // 2]
    assert measured == []
    inner_product(wf, wf, QuantumNumber(3, 1))
    assert len(measured) == 2
    assert len(list(wf.csv_rows())) == 6 and len(measured) == 3


@pytest.mark.parametrize("bt", [0.0, 0.5])
def test_state_memory_gate(bt):
    """Memory gate, in bytes that tracemalloc counts (deterministic, unlike
    the resident size): each of 11 states at N = 8001 holds at most 1.55
    arrays of N doubles (p, psi1, psi2 on the non-negative half of the
    grid), and one `wavefunction` call peaks at no more than 7."""
    size = 8001
    params = DOParams(bt, 1.0)
    wavefunction(params, QuantumNumber(1, 1), GridSpec(size))  # lazy imports
    array = 8 * size
    tracemalloc.start()
    try:
        wavefunction(params, QuantumNumber(5, -1), GridSpec(size))
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        states = [wavefunction(params, QuantumNumber(n, 1), GridSpec(size))
                  for n in range(11)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(states) == 11
    assert held / len(states) <= 1.55 * array
    assert peak <= 7 * array


def recurrence_out_of_place(x, g0, mu, k):
    """g_0, ..., g_k of `_recurrence` as one fresh array per step, the
    reference for the in-place one."""
    a = _coefficients(mu, k)
    prev, cur = 0.0, g0
    out = [cur]
    for j in range(k):
        prev, cur = cur, (x * cur - (a[j - 1] * prev if j else 0.0)) / a[j]
        out.append(cur)
    return out


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]


@st.composite
def recurrence_inputs(draw):
    size = draw(st.integers(1, 12))
    values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL),
                       st.floats(allow_nan=True, allow_infinity=True))
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    g0 = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    mu = draw(st.one_of(st.none(),
                        st.floats(-0.5, 5.0, exclude_min=True),
                        st.floats(5.0, 1e300)))
    return x, g0, mu, draw(st.integers(0, 12))


@given(recurrence_inputs())
@example((np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5]),
          np.ones(6), None, 12))
@example((np.array([-0.0, 0.3, -math.inf]), np.array([-0.0, 2.0, 1.0]),
          0.0, 2))
@settings(max_examples=200, deadline=None)
def test_recurrence_in_place_is_out_of_place_to_the_bit(inputs):
    """Every g_j, read as it is drawn, has the bits of the out-of-place
    expression, signed zeros, nan and inf included, and g0 is never
    written."""
    x, g0, mu, k = inputs
    before = g0.tobytes()
    with np.errstate(all="ignore"):
        got = [g.copy() for g in _recurrence(x, g0, mu, k)]
        want = recurrence_out_of_place(x, g0.copy(), mu, k)
    assert g0.tobytes() == before
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def test_recurrence_rotates_three_buffers():
    """Work guard: ten values, g0 and at most three arrays of their own
    (one fresh array per step would be nine)."""
    x, g0 = np.linspace(-0.9, 0.9, 101), np.ones(101)
    gs = list(_recurrence(x, g0, 1.5, 9))
    assert len(gs) == 10 and gs[0] is g0
    buffers = {g.__array_interface__["data"][0] for g in gs[1:]}
    assert g0.__array_interface__["data"][0] not in buffers
    assert len(buffers) <= 3


@given(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.01),
                 st.floats(min_value=1e-6, max_value=0.99)),
       st.floats(min_value=0.05, max_value=5.0),
       st.sampled_from(ALL_LEVELS),
       st.sampled_from([64, 65, 2000, 2001]))
@settings(max_examples=50, deadline=None)
def test_norm_squared_is_the_sum_of_moduli_squared(bt, wt, level, size):
    wf = wavefunction(DOParams(bt, wt), QuantumNumber(*level), GridSpec(size))
    want = float(np.sum(np.abs(wf.psi1)**2 + np.abs(wf.psi2)**2) * wf.dq)
    assert np.float64(wf.norm_squared()).tobytes() == \
        np.float64(want).tobytes()


def test_norm_squared_of_a_nan_state_is_positive_nan():
    wf = wavefunction(DOParams(0.5, 1.0), QuantumNumber(2, 1), GridSpec(64))
    wf.half_psi1[3] = -math.nan
    assert math.isnan(wf.norm_squared())
    assert math.copysign(1.0, wf.norm_squared()) == 1.0


def test_gauss_refuses_coefficients_that_overflow():
    """At bt = 0.5, wt = 1e-160 (index about 2e160), (k + mu)(k + mu - 1)
    overflows and a_2, a_3 read 0: no rule, and no numpy warning."""
    level = SpectrumLevel(0, 1, 0.0, 0.0, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="no Gauss rule"):
            _gauss(DOParams(0.5, 1e-160), level, 4)


def test_lam_refuses_a_product_that_rounds_to_zero():
    """bt wt = 1e-300 * 1e-160 rounds to 0: every user of lam = 1/(bt wt)
    names the product, where it divided by zero before; a product that is
    merely subnormal still gives lam = inf."""
    params = DOParams(1e-300, 1e-160)
    level = SpectrumLevel(0, 1, 0.0, 0.0, 0.0, 0.0)
    calls = [lambda: _spinor(params, level, np.linspace(0.0, 1.0, 5)),
             lambda: _gauss(params, level, 4),
             lambda: _norm_integral(params, level)]
    named = (r"^beta_tilde omega_tilde rounds to 0 at beta_tilde = 1e-300, "
             r"omega_tilde = 1e-160$")
    for call in calls:
        with pytest.raises(FloatingPointError, match=named):
            call()
    assert _lam(DOParams(1e-300, 1e-23)) == math.inf


def gamma_ratio_mp(x):
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.gamma(x + 0.5) / mpmath.gamma(x + 1)


def test_gamma_ratio_series_truncation():
    """The asymptotic series of `_gamma_ratio` (x >= 160), evaluated in
    40-digit arithmetic by passing it an mpf, is within its stated
    truncation error 4.4e-19 of Gamma(x + 1/2)/Gamma(x + 1): a coefficient
    off in its fifth digit misses by 3e-17, below what a double shows.  The
    final division takes math.sqrt(x), a double, so the reference divides
    by the same double."""
    mpmath = pytest.importorskip("mpmath")
    for x in (160.0, 161.5, 1000.0):
        with mpmath.workdps(40):
            ref = (gamma_ratio_mp(x) * mpmath.sqrt(x)
                   / mpmath.mpf(math.sqrt(x)))
            got = _gamma_ratio(mpmath.mpf(x))
            assert abs(got - ref) / ref <= 4.4e-19, x


def test_gamma_ratio_against_mpmath():
    """Gamma(x + 1/2)/Gamma(x + 1) to 2e-15 relative over seeded
    log-uniform x in [0.5, 1e12], on both sides of the switch to the
    series at x = 160, and just below powers of 2, where x + 1/2 and
    x + 1 round."""
    pytest.importorskip("mpmath")
    rng = random.Random(2026)
    xs = [math.exp(rng.uniform(math.log(0.5), math.log(1e12)))
          for _ in range(1000)]
    assert sum(x < 160 for x in xs) > 100 and sum(x >= 160 for x in xs) > 100
    xs += [math.nextafter(2.0**k, 0.0) for k in range(8)]
    xs += [math.nextafter(160.0, 0.0), 160.0, 127.01, 15.35]
    for x in xs:
        ref = gamma_ratio_mp(x)
        assert float(abs(_gamma_ratio(x) - ref) / ref) <= 2e-15, x


@pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 101, 1002])
@pytest.mark.parametrize("mu", [None, 0.0, 0.3, 5.0, 1e6])
def test_gauss_nodes_match_scipy(mu, m):
    """The folded nodes are the eigenvalues of the Jacobi matrix, as
    scipy's tridiagonal solver finds them, within 1e-14 max|J| m; they
    ascend strictly, are symmetric to the last bit and hold an exact 0 at
    odd m."""
    from scipy.linalg import eigh_tridiagonal

    a = _coefficients(mu, m - 1)
    x = _gauss_nodes(a)
    ref = eigh_tridiagonal(np.zeros(m), a, eigvals_only=True)
    assert x.shape == (m,)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(a) * m
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    if m % 2:
        assert x[m // 2] == 0.0


@pytest.mark.parametrize("mu, m", [(None, 60), (0.3, 30), (99.0, 50),
                                   (1e4, 40)])
def test_gauss_nodes_against_mpmath(mu, m):
    """Against the 40-digit eigenvalues of the same Jacobi matrix, the
    folded nodes are no less accurate than scipy's."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.linalg import eigh_tridiagonal

    a = _coefficients(mu, m - 1)
    with mpmath.workdps(40):
        jacobi = mpmath.zeros(m, m)
        for k, ak in enumerate(a):
            jacobi[k, k + 1] = jacobi[k + 1, k] = mpmath.mpf(float(ak))
        exact = sorted(mpmath.eigsy(jacobi, eigvals_only=True))

        def error(x):
            return max(abs(mpmath.mpf(float(v)) - e)
                       for v, e in zip(x, exact))

        ours = error(_gauss_nodes(a))
        theirs = error(eigh_tridiagonal(np.zeros(m), a, eigvals_only=True))
    assert ours <= theirs


@pytest.mark.parametrize("bt", [1e-160, 1e-300])
def test_ground_state_psi2_is_zero_at_huge_lam(bt):
    """psi2 = B- psi1/(p0 + 1) of n = 0 is exactly zero, also where
    lam = 1/(bt wt) is so large that the ladder factor lower(0, k) would
    overflow for k >= 1: its k = 0 factor is 0, so psi1 alone (a spike at
    the centre node) carries the state, and B- psi1 = 0 there."""
    wf = wavefunction(DOParams(bt, 1.0), QuantumNumber(0, 1), GridSpec(65))
    assert np.all(wf.psi2 == 0.0) and wf.half_psi1[0] > 0
    assert wf.metadata["residual_coupled_2"] == 0.0


@pytest.mark.parametrize("wt", [1e-160, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 10])
def test_spinor_refuses_p0_plus_one_rounding_to_zero(wt, n):
    """tau = -1 at so small a wt that p0 rounds to -1: psi2 = B- psi1/(p0 + 1)
    has no value, and the refusal names p0 + 1."""
    with pytest.raises(FloatingPointError, match=r"p0 \+ 1 rounds to 0"):
        wavefunction(DOParams(0.5, wt), QuantumNumber(n, -1))


IMPORT_PROBE = r"""
import json, sys
import numpy as np
import minlen.cli

names = sorted(m for m in sys.modules if m == "minlen.uncertainty"
               or m.split(".")[:2] == ["minlen", "oscillator"])
held = [m + "." + k for m in names for k, v in vars(sys.modules[m]).items()
        if isinstance(v, np.ndarray)]
print(json.dumps([names, held]))
"""


def test_import_builds_no_arrays():
    """Nothing is computed at import time: no module of the oscillator
    package, and not `uncertainty`, holds an array once the CLI is
    imported (buffers are made by each call)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    names, held = json.loads(proc.stdout)
    assert {"minlen.oscillator", "minlen.oscillator.wavefunction",
            "minlen.oscillator.spectrum", "minlen.uncertainty"} <= set(names)
    assert held == []


def inner_product_direct(a, b, weight_level):
    """`inner_product(..., with_error=True)` with b's closed form evaluated
    at every one of a's nodes, the reference for the mirrored one."""
    bt = a.params.beta_tilde
    p0w = p0_allowed(a.params, weight_level)
    fw = 1.0 - bt * p0w**2 + bt * a.p * a.p
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


@pytest.mark.parametrize("params", [DOParams(1e-300, 1.0),
                                    DOParams(0.5, 1e-160)])
def test_inner_product_is_silent_out_of_double_range(params):
    """A state out of double range gives a nan overlap and error, with no
    numpy warning, as `wavefunction` samples it without one."""
    a, b = (wavefunction(params, QuantumNumber(n, 1), GridSpec(64))
            for n in (0, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = inner_product(a, b, QuantumNumber(0, 1), with_error=True)
        assert cmath.isnan(inner_product(a, b, QuantumNumber(0, 1)))
    assert cmath.isnan(val) and math.isnan(err)


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
