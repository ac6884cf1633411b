"""Wavefunctions and the independent discretized eigenproblem for the
deformed Dirac oscillator.

The ladder factorization B+ B- is diagonalized in the flat coordinate

    q(p) = (bt c0)^(-1/2) arctan(sqrt(bt/c0) p),   c0 = 1 - bt p0^2,

which turns the measure dp/f into dq, compactifies the domain to
(-q_max, q_max) with q_max = (pi/2)(bt c0)^(-1/2), and brings the operator
to the manifestly self-adjoint Schroedinger form

    B+ B- = -wt^2 d^2/dq^2 + p(q)^2 - wt f(p(q)),

discretized with symmetric second-order central differences and Dirichlet
truncation; Richardson extrapolation across refinements upgrades the
eigenvalues.  For bt = 0 the map degenerates to the identity and a large
box replaces the compact interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
    SpectrumLevel,
    e_formula,
    make_level,
    p0_allowed,
)


class DiagnosticModeError(ValueError):
    """Wavefunctions and eigenproblems are refused for beta_tilde >= 1."""

    def __init__(self):
        super().__init__(
            "no wavefunctions/eigenproblems in diagnostic mode "
            "(beta_tilde >= 1)"
        )


@dataclass(frozen=True)
class GridSpec:
    size: int = 4001

    def __post_init__(self):
        if self.size < 64:
            raise ValueError("grid size must be at least 64")


# wavefunction grids share one box (bt = 0) so that different levels of
# the same oscillator land on identical nodes
FIXED_K_HINT = 12


def _box_halfwidth(omega_tilde: float, k_hint: int) -> float:
    # Gaussian tail exp(-L^2/(2 wt)) below 1e-14 with headroom for the
    # k_hint-th Hermite level
    return math.sqrt(omega_tilde) * (math.sqrt(2.0 * k_hint + 1.0) + 9.0)


def flat_grid(params: DOParams, p0_tilde: float, npts: int, k_hint: int = 8):
    """Interior nodes of the flat coordinate; returns (q, p, f, dq, c0)."""
    bt = params.beta_tilde
    c0 = 1.0 - bt * p0_tilde**2
    if bt > 0:
        if c0 <= 0:
            raise AcceptabilityError(
                f"1 - beta_tilde p0^2 = {c0} <= 0: measure is singular"
            )
        r = math.sqrt(bt * c0)
        q_max = 0.5 * math.pi / r
        dq = 2.0 * q_max / (npts + 1)
        q = np.linspace(-q_max + dq, q_max - dq, npts)
        p = math.sqrt(c0 / bt) * np.tan(r * q)
    else:
        q_max = _box_halfwidth(params.omega_tilde, k_hint)
        dq = 2.0 * q_max / (npts + 1)
        q = np.linspace(-q_max + dq, q_max - dq, npts)
        p = q.copy()
    f = c0 + bt * p * p
    return q, p, f, dq, c0


def _q_of_p(params: DOParams, c0: float, p):
    bt = params.beta_tilde
    if bt == 0:
        return np.asarray(p, dtype=float)
    r = math.sqrt(bt * c0)
    return np.arctan(np.sqrt(bt / c0) * np.asarray(p, dtype=float)) / r


def _ladder_tridiagonal(wt: float, p, f, dq: float, partner: bool = False):
    """Diagonal and off-diagonal of the discretized B+B- (or of the partner
    B-B+): -wt^2 d^2/dq^2 + p^2 -+ wt f on the interior nodes."""
    v = p * p + (wt if partner else -wt) * f
    diag = 2.0 * wt**2 / dq**2 + v
    off = np.full(p.size - 1, -(wt**2) / dq**2)
    return diag, off


def lowest_eigenvalues(
    params: DOParams,
    p0_tilde: float,
    k: int,
    npts: int,
    partner: bool = False,
):
    """k lowest eigenvalues of B+B- (or of the partner B-B+)."""
    q, p, f, dq, _ = flat_grid(params, p0_tilde, npts, k_hint=k + 4)
    diag, off = _ladder_tridiagonal(params.omega_tilde, p, f, dq, partner)
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), eigvals_only=True
    )
    return np.asarray(vals)


@dataclass
class EigenResult:
    eigenvalues: np.ndarray  # Richardson-extrapolated
    raw: list  # per-refinement eigenvalue arrays
    npts_list: list
    orders: np.ndarray  # observed convergence order per eigenvalue
    converged: bool
    log: list


def eigensolve_factorized(
    params: DOParams,
    p0_tilde: float,
    k: int,
    npts: int = 1000,
    refinements: int = 2,
    partner: bool = False,
    rtol: float = 1e-5,
) -> EigenResult:
    """Independent oracle for the closed-form ladder eigenvalues.

    Solves on grids npts, 2*npts+1, ... (halving the spacing each time),
    Richardson-extrapolates the two finest levels and estimates the
    observed convergence order when three levels are available.
    """
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    npts_list = []
    raw = []
    n = npts
    for _ in range(refinements + 1):
        raw.append(
            lowest_eigenvalues(params, p0_tilde, k, n, partner=partner)
        )
        npts_list.append(n)
        n = 2 * n + 1
    if refinements >= 1:
        rich = (4.0 * raw[-1] - raw[-2]) / 3.0
    else:
        rich = raw[-1]
    if refinements >= 2:
        d1 = raw[-3] - raw[-2]
        d2 = raw[-2] - raw[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log2(np.abs(d1) / np.abs(d2))
    else:
        orders = np.full(k, np.nan)
    scale = max(np.max(np.abs(rich)), 1e-30)
    if refinements >= 1:
        delta = np.max(np.abs(raw[-1] - raw[-2])) / scale
        converged = bool(delta < 10 * rtol)
    else:
        delta = math.nan
        converged = True
    log = [
        {"npts": np_, "eigenvalues": [float(x) for x in ev]}
        for np_, ev in zip(npts_list, raw)
    ]
    if not converged:
        raise RuntimeError(
            f"eigensolver failed to converge: last inter-grid change "
            f"{delta:.3e} (log: {log})"
        )
    return EigenResult(rich, raw, npts_list, orders, converged, log)


# ---------------------------------------------------------------------------
# finite differences on the uniform q grid


def fd_derivative(values, dq: float, order: int = 6):
    """Central-difference d/dq with one-sided closures at the walls.

    The wavefunctions vanish at the Dirichlet boundary, so the lower-order
    edge closures do not limit global accuracy.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    out = np.empty_like(v)
    if order == 6 and n >= 7:
        c = (-1.0 / 60, 3.0 / 20, -3.0 / 4, 3.0 / 4, -3.0 / 20, 1.0 / 60)
        out[3:-3] = (
            c[0] * v[:-6]
            + c[1] * v[1:-5]
            + c[2] * v[2:-4]
            + c[3] * v[4:-2]
            + c[4] * v[5:-1]
            + c[5] * v[6:]
        ) / dq
        edge = 3
    elif n >= 5:
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * dq)
        edge = 2
    else:
        raise ValueError("grid too small for finite differences")
    # second-order closures near the boundary (Dirichlet: ghost value 0)
    for i in range(edge):
        left = v[i - 1] if i > 0 else 0.0
        out[i] = (v[i + 1] - left) / (2 * dq)
        j = n - 1 - i
        right = v[j + 1] if i > 0 else 0.0
        out[j] = (right - v[j - 1]) / (2 * dq)
    return out


def _l2norm(values, dq: float) -> float:
    """Discrete L2 norm sqrt(sum |v|^2 dq) on the uniform q grid."""
    return math.sqrt(float(np.sum(np.abs(values) ** 2) * dq))


# ---------------------------------------------------------------------------
# wavefunction grids


@dataclass
class WavefunctionGrid:
    """Sampled spinor components on the flat-coordinate grid.

    weights are dp-measure quadrature weights (weights/f equals dq), so the
    normalization contract reads sum(weights*(psi1^2+psi2^2)/f) = 1.
    """

    params: DOParams
    level: SpectrumLevel
    q: np.ndarray
    p: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    f: np.ndarray
    dq: float
    c0: float
    metadata: dict = field(default_factory=dict)

    @property
    def weights(self):
        return self.f * self.dq

    def norm_squared(self) -> float:
        dens = np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2
        return float(np.sum(dens) * self.dq)

    def normalize(self):
        s = math.sqrt(self.norm_squared())
        self.psi1 = self.psi1 / s
        self.psi2 = self.psi2 / s
        return self

    def same_nodes(self, other: "WavefunctionGrid") -> bool:
        return (
            self.q.size == other.q.size
            and abs(self.c0 - other.c0) < 1e-14
            and abs(self.dq - other.dq) < 1e-14 * self.dq
        )

    def values_at(self, p_target):
        """(psi1, psi2) interpolated onto foreign momentum nodes.

        Interpolation runs in this grid's own flat coordinate, where the
        samples are uniform; outside the sampled window the (decayed)
        wavefunction is treated as zero.
        """
        qt = _q_of_p(self.params, self.c0, p_target)
        inside = (qt >= self.q[0]) & (qt <= self.q[-1])
        out1 = np.zeros_like(qt)
        out2 = np.zeros_like(qt)
        if np.any(inside):
            s1 = CubicSpline(self.q, self.psi1)
            s2 = CubicSpline(self.q, self.psi2)
            out1[inside] = s1(qt[inside])
            out2[inside] = s2(qt[inside])
        return out1, out2

    def csv_rows(self):
        weights = self.weights  # one array, not one per row
        for i in range(self.q.size):
            yield (
                float(self.p[i]),
                float(self.q[i]),
                float(self.psi1[i]),
                float(self.psi2[i]),
                float(self.f[i]),
                float(weights[i]),
            )


def ladder_apply(sign: int, grid: WavefunctionGrid, values, tol: float = 1e-6):
    """Apply B^+ (sign=+1) or B^- (sign=-1): B^{+-} = p -+ wt d/dq.

    Returns (result, meta); meta carries a derivative-error estimate and a
    too-coarse warning when it exceeds tol relative to the input norm.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    wt = grid.params.omega_tilde
    d6 = fd_derivative(values, grid.dq, order=6)
    d4 = fd_derivative(values, grid.dq, order=4)
    out = grid.p * values - sign * wt * d6
    scale = _l2norm(values, grid.dq) or 1.0
    est = wt * _l2norm(d6 - d4, grid.dq) / scale
    meta = {"derivative_error_estimate": est, "too_coarse": est > tol}
    return out, meta


def ground_state(
    params: DOParams, p0_tilde: float, grid: GridSpec = GridSpec()
) -> WavefunctionGrid:
    """Closed-form nodeless solution of B^- psi1 = 0, psi2 = 0.

    psi1 ~ (c0 + bt p^2)^(-1/(2 bt wt)) for bt > 0 and the Gaussian
    exp(-p^2/(2 wt)) in the undeformed limit.
    """
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    bt, wt = params.beta_tilde, params.omega_tilde
    q, p, f, dq, c0 = flat_grid(params, p0_tilde, grid.size, k_hint=FIXED_K_HINT)
    if bt > 0:
        # work in logs: the power can be large
        logpsi = -np.log(f) / (2.0 * bt * wt)
        logpsi -= np.max(logpsi)
        psi1 = np.exp(logpsi)
    else:
        psi1 = np.exp(-p * p / (2.0 * wt))
    level = SpectrumLevel(
        n=0, tau=1, K=0.0, p0_tilde=p0_tilde, e_n=0.0, E_over_mc2=p0_tilde
    )
    wf = WavefunctionGrid(
        params, level, q, p, psi1, np.zeros_like(psi1), f, dq, c0
    )
    wf.normalize()
    res, meta = ladder_apply(-1, wf, wf.psi1)
    wf.metadata["ground_residual"] = _l2norm(res, dq)
    wf.metadata.update(meta)
    return wf


def _count_nodes(v, dens_floor=1e-6):
    v = np.asarray(v)
    big = np.abs(v) > dens_floor * np.max(np.abs(v))
    sv = np.sign(v[big])
    return int(np.sum(sv[:-1] * sv[1:] < 0))


def wavefunction(
    params: DOParams, qn: QuantumNumber, grid: GridSpec = GridSpec()
) -> WavefunctionGrid:
    """Spinor eigenstate at the self-consistent level (n, tau).

    psi1 is the n-th eigenvector of the discretized B+B-; psi2 follows from
    the coupled first-order equation psi2 = B- psi1 / (p0 + 1).  Residuals
    of both coupled equations are stored in metadata.

    Parity: psi1 is projected onto parity (-1)^n under q -> -q (equivalently
    p -> -p, since the grid is mirror-symmetric), so psi1[::-1] equals
    (-1)^n psi1 to rounding; B- is odd, so psi2 has parity (-1)^(n+1).  For
    n = 0, psi1 is the even closed-form ground state and psi2 is zero.
    """
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    level = make_level(params, qn)
    p0 = level.p0_tilde
    if qn.n == 0:
        wf = ground_state(params, p0, grid)
        wf.level = level
        wf.metadata["residual_coupled_1"] = 0.0
        wf.metadata["residual_coupled_2"] = wf.metadata["ground_residual"] / (
            p0 + 1.0
        )
        return wf

    wt = params.omega_tilde
    npts = grid.size
    q, p, f, dq, c0 = flat_grid(params, p0, npts, k_hint=FIXED_K_HINT)
    diag, off = _ladder_tridiagonal(wt, p, f, dq)
    vals, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(qn.n, qn.n)
    )
    psi1 = vecs[:, 0] / math.sqrt(dq)
    # B+B- commutes with q -> -q on the mirror-symmetric grid, so the exact
    # eigenvector has parity (-1)^n; drop the opposite-parity part that
    # rounding leaves in the solver's vector
    psi1 = 0.5 * (psi1 + (-1) ** qn.n * psi1[::-1])
    nodes = _count_nodes(psi1)
    # phase convention: positive value (even n) or slope (odd n) at p = 0
    mid = npts // 2
    if qn.n % 2 == 0:
        if psi1[mid] < 0:
            psi1 = -psi1
    else:
        if psi1[mid + 1] - psi1[mid - 1] < 0:
            psi1 = -psi1

    d6 = fd_derivative(psi1, dq, order=6)
    b_minus = p * psi1 + wt * d6
    psi2 = b_minus / (p0 + 1.0)

    wf = WavefunctionGrid(params, level, q, p, psi1, psi2, f, dq, c0)
    wf.normalize()

    # residuals of the (normalized) coupled pair, evaluated with an
    # independent stencil
    d4_1 = fd_derivative(wf.psi1, dq, order=4)
    d4_2 = fd_derivative(wf.psi2, dq, order=4)
    r2 = p * wf.psi1 + wt * d4_1 - (p0 + 1.0) * wf.psi2
    r1 = p * wf.psi2 - wt * d4_2 - (p0 - 1.0) * wf.psi1
    wf.metadata["residual_coupled_1"] = _l2norm(r1, dq)
    wf.metadata["residual_coupled_2"] = _l2norm(r2, dq)
    wf.metadata["eigenvalue"] = float(vals[0])
    wf.metadata["eigenvalue_closed_form"] = e_formula(params, qn.n, p0)
    wf.metadata["node_count"] = nodes
    if nodes != qn.n:
        wf.metadata["node_count_warning"] = True
    return wf


def inner_product(
    a: WavefunctionGrid,
    b: WavefunctionGrid,
    weight_level: QuantumNumber,
    with_error: bool = False,
):
    """Deformed scalar product int dp (psi_a* . psi_b) / f_weight.

    The weight is the measure factor of the designated level, which is an
    explicit argument because the energy-dependent measure makes the choice
    ambiguous between different levels.  Evaluated on a's nodes; b is
    interpolated through its own flat coordinate.

    With with_error=True returns (value, err).  err is the largest of the
    quadrature error (Richardson estimate from the every-other-node sum on
    either grid), the interpolation error (the gap between the value and
    the conjugate of the swapped evaluation on b's nodes) and a floor of
    1e-14 times the integral of |integrand|.  It does not cover the
    discretization error of the states themselves: sampled eigenvectors of
    the O(dq^2) finite-difference operator are orthogonal only up to an
    O(dq^2) floor, which can lie far above err.
    """
    if a.params != b.params:
        raise ValueError("incompatible grids: different oscillator parameters")
    params = a.params
    p0w = p0_allowed(params, weight_level)
    c0w = 1.0 - params.beta_tilde * p0w**2

    def one_sided(x: WavefunctionGrid, y: WavefunctionGrid) -> tuple:
        fw = c0w + params.beta_tilde * x.p**2
        if y is x or y.same_nodes(x):
            y1, y2 = y.psi1, y.psi2
        else:
            y1, y2 = y.values_at(x.p)
        integrand = (np.conj(x.psi1) * y1 + np.conj(x.psi2) * y2) * x.f / fw
        val = complex(np.sum(integrand) * x.dq)
        coarse = complex(np.sum(integrand[::2]) * 2 * x.dq)
        mass = float(np.sum(np.abs(integrand)) * x.dq)
        return val, abs(val - coarse) / 3.0, mass

    val, quad_err, mass = one_sided(a, b)
    if not with_error:
        return val
    # swapped evaluation (b's nodes, conjugated) exposes interpolation error
    swapped, quad_err_b, _ = one_sided(b, a)
    err = max(quad_err, quad_err_b, abs(val - swapped.conjugate()))
    return val, max(err, 1e-14 * mass)
