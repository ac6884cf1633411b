"""Spinor states of the deformed Dirac oscillator in closed form, and the
finite-difference eigenproblem that checks them independently.

The flat coordinate q(p) = (bt c0)^(-1/2) arctan(sqrt(bt/c0) p), with
c0 = 1 - bt p0^2, turns the measure dp/f into dq and compactifies the
domain to |q| < (pi/2)(bt c0)^(-1/2).  With u = sqrt(bt c0) q and
lam = 1/(bt wt) the states are exactly (Kempf, Mangano & Mann, PRD 52
(1995) 1108; Chang et al., PRD 65 (2002) 125027)

    psi1 = cos^lam(u) C_n^lam(sin u),
    psi2 = B- psi1/(p0 + 1)
         = 2 sqrt(c0/bt) cos^(lam+1)(u) C_(n-1)^(lam+1)(sin u)/(p0 + 1),

with Gegenbauer polynomials C; for bt = 0 they are the Hermite functions
of y = p/sqrt(wt).  `wavefunction` samples them on a uniform q grid,
which is mirror-symmetric: psi1 has parity (-1)^n and psi2 (-1)^(n+1), so
the closed form is evaluated on the non-negative half of the grid and
mirrored onto the other.  The discretized
B+ B- = -wt^2 d^2/dq^2 + p(q)^2 - wt f(p(q)) of `eigensolve_factorized`
and the stencils of `fd_derivative` and `ladder_apply` do not produce
the states: they are the independent finite-difference oracle, on one
fixed ladder of three grids, that the tests and the benchmark compare
against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .spectrum import (
    AcceptabilityError,
    DOParams,
    QuantumNumber,
    SpectrumLevel,
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
        # past this a float64 array of the nodes has more bytes than numpy
        # can address
        if self.size > np.iinfo(np.intp).max // 8:
            raise ValueError(f"grid size {self.size} is too large")


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first call: the exact
    half of the package and most subcommands never need scipy."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*args, **kwargs)


def poch(z, m):
    """scipy.special.poch, imported on the first call."""
    from scipy.special import poch

    return poch(z, m)


def _box_halfwidth(omega_tilde: float, n: int) -> float:
    # Gaussian tail exp(-L^2/(2 wt)) below 1e-14 beyond the turning point
    # of the n-th Hermite level
    return math.sqrt(omega_tilde) * (math.sqrt(2.0 * n + 1.0) + 9.0)


def _mirror(half, npts: int, parity: int):
    """The npts values on a mirror-symmetric grid of a function of the
    given parity (+1 or -1) under q -> -q, from its values `half` on the
    non-negative nodes q[npts//2:].  The odd mirror is 0.0 - x, so that a
    mirrored zero is +0.0."""
    out = np.empty(npts, dtype=half.dtype)
    m = npts // 2
    out[m:] = half
    lower = half[npts % 2:][::-1]
    if parity > 0:
        out[:m] = lower
    else:
        np.subtract(0.0, lower, out=out[:m])
    return out


def _measure_offset(bt: float, p0_tilde: float) -> float:
    """c0 = 1 - bt p0^2, the measure factor f = c0 + bt p^2 at p = 0."""
    c0 = 1.0 - bt * p0_tilde**2
    if c0 <= 0:
        raise AcceptabilityError(f"1 - beta_tilde p0^2 = {c0} <= 0: "
                                 "measure is singular")
    return c0


def flat_grid(params: DOParams, p0_tilde: float, npts: int, n: int = 8):
    """Interior nodes of the flat coordinate; returns (q, p, f, dq, c0).

    The nodes are mirror-symmetric to the last bit by construction: q =
    -q[::-1], the centre node of an odd grid is exactly 0, and p (odd) and
    f (even) are computed on the non-negative half and mirrored.  For
    bt = 0 the box holds the levels up to n.
    """
    bt = params.beta_tilde
    c0 = _measure_offset(bt, p0_tilde)
    if bt > 0:
        r = math.sqrt(bt * c0)
        q_max = 0.5 * math.pi / r
    else:
        q_max = _box_halfwidth(params.omega_tilde, n)
    dq = 2.0 * q_max / (npts + 1)
    q = dq * (np.arange(npts) - 0.5 * (npts - 1))
    half = q[npts // 2:]
    if bt > 0:
        half = math.sqrt(c0 / bt) * np.tan(r * half)
    p = _mirror(half, npts, -1)
    f = _mirror(c0 + bt * half * half, npts, 1)
    return q, p, f, dq, c0


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
    q, p, f, dq, _ = flat_grid(params, p0_tilde, npts, k + 4)
    diag, off = _ladder_tridiagonal(params.omega_tilde, p, f, dq, partner)
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), eigvals_only=True
    )


@dataclass
class EigenResult:
    eigenvalues: np.ndarray  # Richardson-extrapolated
    orders: np.ndarray  # observed convergence order per eigenvalue


def eigensolve_factorized(
    params: DOParams,
    p0_tilde: float,
    k: int,
    npts: int = 1000,
    partner: bool = False,
) -> EigenResult:
    """Independent oracle for the closed-form ladder eigenvalues.

    Solves on grids npts, 2*npts+1 and 4*npts+3 (halving the spacing each
    time), Richardson-extrapolates the two finest and estimates the
    observed convergence order from all three.  Raises RuntimeError, with
    the eigenvalues of each grid, when the two finest differ by 1e-4 or
    more relative to the largest extrapolated eigenvalue.

    Domain: for lam = 1/(bt wt) < 3/2 the wall u = +-pi/2 is limit-circle
    (both cos^lam and cos^(1-lam) are square-integrable there).  The
    paper's states are the cos^lam branch, and the Dirichlet truncation
    converges to it only slowly, so from x = 2 bt wt of about 1.86 on the
    eigenvalues drift off e_formula and the convergence check fails.
    """
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    sizes = (npts, 2 * npts + 1, 4 * npts + 3)
    raw = [lowest_eigenvalues(params, p0_tilde, k, n, partner) for n in sizes]
    coarse, mid, fine = raw
    rich = (4.0 * fine - mid) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(np.abs(coarse - mid) / np.abs(mid - fine))
    delta = np.max(np.abs(fine - mid)) / max(np.max(np.abs(rich)), 1e-30)
    if not delta < 1e-4:
        log = [{"npts": n, "eigenvalues": [float(x) for x in ev]}
               for n, ev in zip(sizes, raw)]
        raise RuntimeError(
            f"eigensolver failed to converge: last inter-grid change "
            f"{delta:.3e} (log: {log})"
        )
    return EigenResult(rich, orders)


# ---------------------------------------------------------------------------
# finite differences on the uniform q grid


def fd_derivative(values, dq: float, order: int = 6):
    """Central-difference d/dq with one-sided closures at the walls.

    The wavefunctions vanish at the Dirichlet boundary, so the lower-order
    edge closures do not limit global accuracy.  order is 4 or 6, on at
    least order + 1 points.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if order not in (4, 6) or n < order + 1:
        raise ValueError(f"no order-{order} stencil on {n} points "
                         "(order 4 or 6, on at least order + 1 points)")
    out = np.empty_like(v)
    if order == 6:
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
    else:
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * dq)
        edge = 2
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
# closed-form states


def _coefficients(mu, m: int):
    """a_1 .. a_m of x g_k = a_(k+1) g_(k+1) + a_k g_(k-1), the recurrence
    of the orthonormal polynomials for the weight (1 - x^2)^(mu - 1/2) on
    (-1, 1) (Gegenbauer index mu), or for exp(-x^2) when mu is None."""
    k = np.arange(1.0, m + 1)
    if mu is None:
        return np.sqrt(0.5 * k)
    a = np.empty(m)
    a[:1] = math.sqrt(0.5 / (1.0 + mu))  # the formula is 0/0 at mu = 0
    k = k[1:]
    a[1:] = np.sqrt(k * (k + 2 * mu - 1) / ((k + mu) * (k + mu - 1))) / 2
    return a


def _recurrence(x, g0, mu, k: int):
    """Yield g_0, ..., g_k at x, all times g0 (an envelope, or 1).  The
    orthonormal recurrence neither overflows nor cancels at large mu or k,
    unlike that of C_k^mu."""
    a = _coefficients(mu, k)
    prev, cur = 0.0, g0
    yield cur
    for j in range(k):
        prev, cur = cur, (x * cur - (a[j - 1] * prev if j else 0.0)) / a[j]
        yield cur


def _family(x, g0, mu, k: int):
    """g_k of `_recurrence`."""
    return deque(_recurrence(x, g0, mu, k), maxlen=1)[0]


def _spinor(params: DOParams, level: SpectrumLevel, p):
    """Unnormalized closed-form (psi1, psi2, dpsi1/dq, dpsi2/dq) of `level`
    at the momenta p (an array).

    term(j, k) = cos^(lam+j)(u) g_k(sin u), with g_k orthonormal for the
    index lam + j, is a positive multiple of cos^(lam+j) C_k^(lam+j), and
    dC_k^mu/dz = 2 mu C_(k-1)^(mu+1) gives d term(j, k)/dq =
    lower(j, k) term(j + 1, k - 1) - drift(j) term(j, k).  For bt = 0,
    term(j, k) is the k-th Hermite function of y = p/sqrt(wt).  The phase
    (-1)^floor(n/2) makes psi1 positive (even n) or rising (odd n) at 0.
    """
    bt, wt = params.beta_tilde, params.omega_tilde
    n, p0 = level.n, level.p0_tilde
    if bt > 0:
        c0 = 1.0 - bt * p0**2
        lam, rate = 1.0 / (bt * wt), math.sqrt(bt * c0)  # rate = du/dq
        tan = p * math.sqrt(bt / c0)
        x, log_cos = tan / np.sqrt(1.0 + tan * tan), -0.5 * np.log1p(tan**2)

        def family(j, k):
            return _family(x, np.exp((lam + j) * log_cos), lam + j, k)

        def lower(j, k):
            mu = lam + j
            return rate * math.sqrt(max(k, 0) * (k + 2 * mu) * (mu + 1)
                                    / (mu + 0.5))

        def drift(j):
            return rate * (lam + j) * tan

    else:
        x = p / math.sqrt(wt)
        envelope = np.exp(-0.5 * x * x)

        def family(j, k):
            return _family(x, envelope, None, k)

        def lower(j, k):
            return math.sqrt(2.0 * max(k, 0) / wt)

        def drift(j):
            return x / math.sqrt(wt)

    def term(j, k):
        # degree k < 0 is the zero polynomial: skip its envelope
        return family(j, k) if k >= 0 else np.zeros_like(x)

    sign = (-1) ** (n // 2)
    psi1, t1 = sign * term(0, n), term(1, n - 1)
    d1 = sign * lower(0, n) * t1 - drift(0) * psi1
    # psi2 = B- psi1/(p0 + 1) = (p psi1 + wt d1)/(p0 + 1): wt drift(0) = p
    amp = wt * sign * lower(0, n) / (p0 + 1.0)
    d2 = amp * (lower(1, n - 1) * term(2, n - 2) - drift(1) * t1)
    return psi1, amp * t1, d1, d2


def _gauss(params: DOParams, level: SpectrumLevel, m: int):
    """m-point Gauss rule in q, in units of M = int cos^(2 lam)(u) dq: nodes
    p_k and weights w_k with sum w_k F(p_k) = int F dq / M exactly when F
    is cos^(2 lam - 2)(u) times a polynomial in sin u of degree below 2m
    (Gauss-Jacobi in z = sin u with alpha = beta = lam - 3/2; lam > 1/2),
    or, for bt = 0, exp(-p^2/wt) times a polynomial in p (Gauss-Hermite).
    """
    bt, wt = params.beta_tilde, params.omega_tilde
    mu = 1.0 / (bt * wt) - 1.0 if bt > 0 else None
    a = _coefficients(mu, m - 1)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError(f"no Gauss rule for the index {mu}")
    x = eigh_tridiagonal(np.zeros(m), a, eigvals_only=True)
    # Christoffel weights, summed from the same recurrence
    christoffel = sum(g * g for g in _recurrence(x, np.ones(m), mu, m - 1))
    if bt == 0:
        return math.sqrt(wt) * x, np.exp(x * x) / christoffel
    # int cos^(2 lam - 2)(u) dq = M (mu + 1)/(mu + 1/2)
    w = (mu + 1.0) / (mu + 0.5) / christoffel / np.exp(mu * np.log1p(-x * x))
    c0 = 1.0 - bt * level.p0_tilde**2
    return math.sqrt(c0 / bt) * x / np.sqrt(1.0 - x * x), w


def _norm_integral(params: DOParams, level: SpectrumLevel) -> float:
    """Exact int (psi1^2 + psi2^2) dq of `_spinor`.  By orthonormality
    int psi1^2 dq = M = sqrt(pi/(bt c0)) Gamma(lam + 1/2)/Gamma(lam + 1),
    or sqrt(pi wt) for bt = 0, and int psi2^2 dq is e_n/(p0 + 1)^2 times
    that, since B+B- psi1 = e_n psi1."""
    bt, wt, p0 = params.beta_tilde, params.omega_tilde, level.p0_tilde
    mass = math.sqrt(math.pi * wt)
    if bt > 0:
        gamma_ratio = float(poch(1.0 / (bt * wt) + 1.0, -0.5))
        mass = math.sqrt(math.pi / (bt * (1.0 - bt * p0**2))) * gamma_ratio
    return mass * (1.0 + level.e_n / (p0 + 1.0) ** 2)


# ---------------------------------------------------------------------------
# wavefunction grids


@dataclass
class WavefunctionGrid:
    """Sampled spinor components on the flat-coordinate grid.

    weights are dp-measure quadrature weights (weights/f equals dq), so the
    normalization contract reads sum(weights*(psi1^2+psi2^2)/f) = 1.
    amplitude is the factor between the samples and the unnormalized
    closed form, which `inner_product` evaluates on foreign nodes.
    """

    params: DOParams
    level: SpectrumLevel
    q: np.ndarray
    p: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    f: np.ndarray
    dq: float
    amplitude: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def weights(self):
        return self.f * self.dq

    def norm_squared(self) -> float:
        dens = np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2
        return float(np.sum(dens) * self.dq)

    def csv_rows(self):
        """The artifact's columns p_tilde, q, psi1, psi2, f, weight, one
        array each, yielded in turn (perfbench times this as a generator)."""
        yield from (self.p, self.q, self.psi1, self.psi2, self.f, self.weights)


def ladder_apply(sign: int, grid: WavefunctionGrid, values):
    """Apply B^+ (sign=+1) or B^- (sign=-1): B^{+-} = p -+ wt d/dq.

    Returns (result, meta); meta carries a derivative-error estimate and a
    too-coarse warning when it exceeds 1e-6 relative to the input norm.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    wt = grid.params.omega_tilde
    d6 = fd_derivative(values, grid.dq, order=6)
    d4 = fd_derivative(values, grid.dq, order=4)
    out = grid.p * values - sign * wt * d6
    scale = _l2norm(values, grid.dq) or 1.0
    est = wt * _l2norm(d6 - d4, grid.dq) / scale
    meta = {"derivative_error_estimate": est, "too_coarse": est > 1e-6}
    return out, meta


def _sampled(params: DOParams, level: SpectrumLevel, npts: int):
    """The closed-form state of `level` on the flat grid, normalized there.

    metadata holds the L2 residuals of the coupled equations, evaluated
    pointwise from the exact derivatives, and the quadrature error
    |sum (psi1^2 + psi2^2) dq / exact integral - 1| before normalization,
    which is what tells a grid too coarse for the state.
    """
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    p0, wt = level.p0_tilde, params.omega_tilde
    q, p, f, dq, _ = flat_grid(params, p0, npts, level.n)
    # psi1 has parity (-1)^n and psi2 (-1)^(n+1): evaluate on the
    # non-negative half of the grid and mirror.  Squares are even; summing
    # them mirrored to full length keeps np.sum's pairwise order, so every
    # sum is the bit-exact full-grid one
    half = p[npts // 2:]
    parity = (-1) ** level.n

    def mirrored_sum(squares):
        return float(np.sum(_mirror(squares, npts, 1)))

    # a state out of double range (extreme bt wt, where lam = 1/(bt wt) or
    # the recurrence overflows) samples as inf or nan, and the residuals and
    # the quadrature error below report it: numpy's warnings would add noise
    with np.errstate(all="ignore"):
        psi1, psi2, d1, d2 = _spinor(params, level, half)
        raw = mirrored_sum(psi1**2 + psi2**2) * dq
        # a state that vanishes at every node stays unnormalized
        scale = 1.0 / math.sqrt(raw) if raw > 0 else 1.0
        res2 = half * psi1 + wt * d1 - (p0 + 1.0) * psi2
        res1 = half * psi2 - wt * d2 - (p0 - 1.0) * psi1
        wf = WavefunctionGrid(params, level, q, p,
                              _mirror(scale * psi1, npts, parity),
                              _mirror(scale * psi2, npts, -parity),
                              f, dq, scale)
        wf.metadata["residual_coupled_1"] = scale * math.sqrt(
            mirrored_sum(res1**2) * dq)
        wf.metadata["residual_coupled_2"] = scale * math.sqrt(
            mirrored_sum(res2**2) * dq)
    # an exact norm that under- or overflows (extreme wt) fails the check
    exact = _norm_integral(params, level)
    err = abs(raw / exact - 1.0) if 0 < exact < math.inf else math.inf
    wf.metadata["quadrature_error"] = err if err < math.inf else math.inf
    return wf


def ground_state(params: DOParams, p0_tilde: float,
                 grid: GridSpec = GridSpec()) -> WavefunctionGrid:
    """Closed-form nodeless solution of B^- psi1 = 0, psi2 = 0 at p0.

    psi1 ~ (c0 + bt p^2)^(-1/(2 bt wt)) for bt > 0 and the Gaussian
    exp(-p^2/(2 wt)) in the undeformed limit; with psi2 = 0,
    metadata["residual_coupled_2"] is the L2 norm of B^- psi1.
    """
    level = SpectrumLevel(0, 1, 0.0, p0_tilde, 0.0, p0_tilde)
    return _sampled(params, level, grid.size)


def wavefunction(params: DOParams, qn: QuantumNumber,
                 grid: GridSpec = GridSpec()) -> WavefunctionGrid:
    """Spinor eigenstate at the self-consistent level (n, tau), sampled
    from the closed form (see the module docstring).

    psi1 has n nodes and parity (-1)^n under q -> -q, psi2 = B- psi1/(p0+1)
    has parity (-1)^(n+1); for n = 0, psi2 is zero.
    """
    return _sampled(params, make_level(params, qn), grid.size)


def inner_product(a: WavefunctionGrid, b: WavefunctionGrid,
                  weight_level: QuantumNumber, with_error: bool = False):
    """Deformed scalar product int dp (psi_a* . psi_b) / f_weight.

    The weight is the measure factor of the designated level, which is an
    explicit argument because the energy-dependent measure makes the choice
    ambiguous between different levels.  Summed on a's nodes, where b is
    evaluated exactly from its closed form on the non-negative half and
    mirrored by parity, as `_sampled` does.  Raises AcceptabilityError
    when the weight's 1 - bt p0^2 rounds to <= 0, as `flat_grid` does.

    With with_error=True returns (value, err): err is the larger of the
    quadrature error (Richardson estimate from the every-other-node sum)
    and 1e-14 times the integral of |integrand|.
    """
    if a.params != b.params:
        raise ValueError("incompatible grids: different oscillator parameters")
    bt, npts = a.params.beta_tilde, a.p.size
    fw = _measure_offset(bt, p0_allowed(a.params, weight_level)) + bt * a.p**2
    b1, b2, _, _ = _spinor(b.params, b.level, a.p[npts // 2:])
    parity = (-1) ** b.level.n
    b1, b2 = _mirror(b1, npts, parity), _mirror(b2, npts, -parity)
    integrand = (np.conj(a.psi1) * b1 + np.conj(a.psi2) * b2) * (
        b.amplitude * a.f / fw
    )
    val = complex(np.sum(integrand) * a.dq)
    if not with_error:
        return val
    coarse = complex(np.sum(integrand[::2]) * 2 * a.dq)
    mass = float(np.sum(np.abs(integrand)) * a.dq)
    return val, max(abs(val - coarse) / 3.0, 1e-14 * mass)
