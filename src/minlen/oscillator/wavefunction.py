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
the closed form is evaluated and stored on the non-negative half of the
grid only; the full arrays are mirrored from it on access.  The discretized
B+ B- = -wt^2 d^2/dq^2 + p(q)^2 - wt f(p(q)) of `eigensolve_factorized`
does not produce the states: it is the independent finite-difference
oracle for their eigenvalues, on one fixed ladder of three grids, that
the tests and the benchmark compare against.  Each grid's B+ B- is
solved as its even and odd blocks, whose eigenvalues alternate.

The moments <p^2> and <x^2> of a state come from an exact Gauss rule
(`_gauss`).  Its nodes are the eigenvalues of the Jacobi matrix of the
recurrence (Golub & Welsch, Math. Comp. 23 (1969) 221), whose diagonal
is zero for a symmetric weight: reordered even indices first, it is
[[0, B], [B^T, 0]] with B bidiagonal, so the nodes are +-sigma(B), and 0
for an odd order.  numpy alone gives the singular values sigma; only the
oracle's tridiagonal eigenproblem loads scipy.
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
    measure_offset,
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
    """scipy.linalg.eigh_tridiagonal, imported on the first call: only the
    finite-difference oracle needs it, and no subcommand loads scipy."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*args, **kwargs)


def _box_halfwidth(omega_tilde: float, n: int) -> float:
    # Gaussian tail exp(-L^2/(2 wt)) below 1e-14 beyond the turning point
    # of the n-th Hermite level
    return math.sqrt(omega_tilde) * (math.sqrt(2.0 * n + 1.0) + 9.0)


def _mirror(half, npts: int, parity: int, out=None):
    """The npts values on a mirror-symmetric grid of a function of the
    given parity (+1 or -1) under q -> -q, from its values `half` on the
    non-negative nodes q[npts//2:], written into `out` (new when None;
    `half` may be its upper half).  The odd mirror is 0.0 - x, so that a
    mirrored zero is +0.0."""
    out = np.empty(npts, dtype=half.dtype) if out is None else out
    m = npts // 2
    out[m:] = half
    lower = half[npts % 2:][::-1]
    if parity > 0:
        out[:m] = lower
    else:
        np.subtract(0.0, lower, out=out[:m])
    return out


def _measure_offset(params: DOParams, p0_tilde: float) -> float:
    """`measure_offset` c0 of a grid: refused in diagnostic mode and where
    the measure is singular."""
    if params.beta_tilde >= 1:
        raise DiagnosticModeError()
    c0 = measure_offset(params, p0_tilde)
    if c0 <= 0:
        raise AcceptabilityError(f"1 - beta_tilde p0^2 = {c0} <= 0: "
                                 "measure is singular")
    return c0


def _nodes(npts: int, dq: float, start: int = 0):
    """The nodes q[start:] of the npts-node grid of spacing dq, mirror-
    symmetric to the last bit: q = -q[::-1], and an odd grid's centre is 0."""
    q = np.arange(start, npts, dtype=float)
    q -= 0.5 * (npts - 1)
    q *= dq
    return q


def _measure(params: DOParams, p0_tilde: float, half):
    """f = c0 + bt p^2 at the momenta `half` of the non-negative nodes (f is
    even); refused as `_measure_offset` does."""
    c0 = _measure_offset(params, p0_tilde)
    return c0 + params.beta_tilde * half * half


def _momenta(params: DOParams, p0_tilde: float, npts: int, n: int):
    """(half, dq, c0) of `flat_grid`: half is p on the non-negative nodes
    q[npts//2:] (p is odd)."""
    bt = params.beta_tilde
    c0 = _measure_offset(params, p0_tilde)
    # cos^lam(u) <= exp(-c0 q^2/(2 wt)): no wider than that Gaussian's box
    q_max = _box_halfwidth(params.omega_tilde / c0, n)
    if bt > 0:
        r = math.sqrt(bt * c0)
        q_max = min(0.5 * math.pi / r, q_max)
    dq = 2.0 * q_max / (npts + 1)
    half = _nodes(npts, dq, npts // 2)
    if bt > 0:
        stretch = math.sqrt(c0 / bt)
        if stretch == math.inf:  # subnormal bt: inf tan(0) would be nan
            raise FloatingPointError(
                f"sqrt(c0/beta_tilde) overflows at beta_tilde = {bt}")
        half = stretch * np.tan(r * half)
    return half, dq, c0


def flat_grid(params: DOParams, p0_tilde: float, npts: int, n: int = 8):
    """Interior nodes of the flat coordinate; returns (q, p, f, dq, c0).

    q, p (odd) and f (even) are mirror-symmetric to the last bit by
    construction.  The box holds the levels up to n, within the
    compactified domain for bt > 0."""
    half, dq, c0 = _momenta(params, p0_tilde, npts, n)
    f = _measure(params, p0_tilde, half)
    return (_nodes(npts, dq), _mirror(half, npts, -1), _mirror(f, npts, 1),
            dq, c0)


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
    """k lowest eigenvalues, ascending, of B+B- (or of the partner B-B+).

    The matrix commutes with q -> -q and is solved as its even and odd
    blocks, built on the non-negative half grid.  The j-th eigenvector of
    an irreducible Jacobi matrix has j sign changes, so parities alternate:
    these are the ceil(k/2) lowest even and floor(k/2) lowest odd ones."""
    if not 1 <= k <= npts:
        raise ValueError(f"need 1 <= k <= npts, got k = {k}, npts = {npts}")
    half, dq, _ = _momenta(params, p0_tilde, npts, k + 4)
    f = _measure(params, p0_tilde, half)
    diag, off = _ladder_tridiagonal(params.omega_tilde, half, f, dq, partner)
    if npts % 2:  # the centre row couples to the even block only, by sqrt(2) c
        even = (diag, np.concatenate((off[:1] * math.sqrt(2.0), off[1:])))
        odd = (diag[1:], off[1:])
    else:  # the bond -c across q = 0 folds onto the first row as -+ c
        c = params.omega_tilde**2 / dq**2
        even = (np.concatenate(([diag[0] - c], diag[1:])), off)
        odd = (np.concatenate(([diag[0] + c], diag[1:])), off)
    # sorted: a pair closer than eps ||T||_1 may come out in either order
    return np.sort(np.concatenate([
        eigh_tridiagonal(d, e, select="i", select_range=(0, j - 1),
                         eigvals_only=True)
        for (d, e), j in zip((even, odd), ((k + 1) // 2, k // 2)) if j]))


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
    more relative to the largest extrapolated eigenvalue, or to wt c0 when
    that is larger: at k = 1 the only eigenvalue is the zero mode e_0 = 0,
    and from k = 2 on e_1 = K_1 c0 >= 2 wt c0.

    Domain: for lam = 1/(bt wt) < 3/2 the wall u = +-pi/2 is limit-circle
    (both cos^lam and cos^(1-lam) are square-integrable there).  The
    paper's states are the cos^lam branch, and the Dirichlet truncation
    converges to it only slowly, so from x = 2 bt wt of about 1.86 on the
    eigenvalues drift off e_formula and the convergence check fails.
    """
    sizes = (npts, 2 * npts + 1, 4 * npts + 3)
    raw = [lowest_eigenvalues(params, p0_tilde, k, n, partner) for n in sizes]
    coarse, mid, fine = raw
    rich = (4.0 * fine - mid) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(np.abs(coarse - mid) / np.abs(mid - fine))
        scale = max(np.max(np.abs(rich)),
                    params.omega_tilde * measure_offset(params, p0_tilde))
        delta = np.max(np.abs(fine - mid)) / scale
    if not delta < 1e-4:
        log = [{"npts": n, "eigenvalues": [float(x) for x in ev]}
               for n, ev in zip(sizes, raw)]
        raise RuntimeError(
            f"eigensolver failed to converge: last inter-grid change "
            f"{delta:.3e} (log: {log})"
        )
    return EigenResult(rich, orders)


# ---------------------------------------------------------------------------
# closed-form states


def _lam(params: DOParams) -> float:
    """The index lam = 1/(bt wt) of the deformed states (bt > 0)."""
    bt, wt = params.beta_tilde, params.omega_tilde
    if bt * wt == 0:
        raise FloatingPointError(
            f"beta_tilde omega_tilde rounds to 0 at beta_tilde = {bt}, "
            f"omega_tilde = {wt}")
    return 1.0 / (bt * wt)


def _gamma_ratio(x: float) -> float:
    """Gamma(x + 1/2)/Gamma(x + 1) for x > 0.  From x = 1 on it is taken as
    (x - 1/2)/x Gamma(x - 1/2)/Gamma(x), whose arguments are exact: the
    steep Gamma turns the rounding of x + 1/2 or x + 1 (where they cross
    a power of 2) into relative errors up to 7e-14.  `math.gamma`
    overflows past x = 171, so from x = 160 on the asymptotic series in
    1/x takes over; its truncation error there is 4.4e-19."""
    if x < 1.0:
        return math.gamma(x + 0.5) / math.gamma(x + 1.0)
    if x < 160.0:
        return (x - 0.5) / x * (math.gamma(x - 0.5) / math.gamma(x))
    t = 1.0 / x
    series = 1.0 + t * (-1 / 8 + t * (1 / 128 + t * (5 / 1024 + t * (
        -21 / 32768 + t * (-399 / 262144 + t * (869 / 4194304))))))
    return series / math.sqrt(x)


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
    unlike that of C_k^mu.  In place, in three rotating arrays besides g0,
    which is never written: each later g_j holds until the next is drawn."""
    a = _coefficients(mu, k)
    prev, cur, spare = None, g0, None
    yield cur
    for j in range(k):
        nxt = np.multiply(x, cur, out=spare)
        if j:  # a_(j-1) prev in prev's buffer, a new one at j = 1 (prev is g0)
            spare = np.multiply(a[j - 1], prev, out=prev if j > 1 else None)
            nxt -= spare
        prev, cur = cur, np.divide(nxt, a[j], out=nxt)
        yield cur


def _family(x, g0, mu, k: int):
    """g_k of `_recurrence`."""
    return deque(_recurrence(x, g0, mu, k), maxlen=1)[0]


def _spinor(params: DOParams, level: SpectrumLevel, p, derivatives=True):
    """Unnormalized closed-form (psi1, psi2, dpsi1/dq, dpsi2/dq) of `level`
    at the momenta p (an array), or (psi1, psi2) without the derivatives.

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
        c0 = measure_offset(params, p0)
        lam, rate = _lam(params), math.sqrt(bt * c0)  # rate = du/dq
        tan = p * math.sqrt(bt / c0)
        tan2 = tan * tan
        x, log_cos = tan / np.sqrt(1.0 + tan2), np.log1p(tan2, out=tan2)
        log_cos *= -0.5

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
    # psi2 = B- psi1/(p0 + 1) = (p psi1 + wt d1)/(p0 + 1): wt drift(0) = p
    if p0 + 1.0 == 0:  # tau = -1 at wt so small that p0 rounds to -1
        raise FloatingPointError(f"p0 + 1 rounds to 0 at p0 = {p0}")
    amp = wt * sign * lower(0, n) / (p0 + 1.0)
    if not derivatives:
        return psi1, amp * t1
    d1 = sign * lower(0, n) * t1 - drift(0) * psi1
    d2 = amp * (lower(1, n - 1) * term(2, n - 2) - drift(1) * t1)
    return psi1, amp * t1, d1, d2


def _gauss_nodes(a):
    """The m = a.size + 1 eigenvalues, ascending, of the Jacobi matrix J
    that is zero on the diagonal and a_1 .. a_(m-1) beside it (Golub &
    Welsch).  Taking the even indices first folds J into
    [[0, B], [B^T, 0]], with the ceil(m/2) x floor(m/2) bidiagonal
    B[i, i] = a_(2i+1), B[i+1, i] = a_(2i+2): the eigenvalues are
    -sigma(B), then 0 when m is odd, then sigma(B), symmetric to the last
    bit.  numpy has no tridiagonal eigensolver; the folded problem is half
    the size of the dense J."""
    m = a.size + 1
    fold = np.zeros((m - m // 2, m // 2))
    np.fill_diagonal(fold, a[0::2])
    np.fill_diagonal(fold[1:], a[1::2])
    sigma = np.linalg.svd(fold, compute_uv=False)  # descending
    return np.concatenate((-sigma, np.zeros(m % 2), sigma[::-1]))


def _gauss(params: DOParams, level: SpectrumLevel, m: int):
    """m-point Gauss rule in q, in units of M = int cos^(2 lam)(u) dq: nodes
    p_k and weights w_k with sum w_k F(p_k) = int F dq / M exactly when F
    is cos^(2 lam - 2)(u) times a polynomial in sin u of degree below 2m
    (Gauss-Jacobi in z = sin u with alpha = beta = lam - 3/2; lam > 1/2),
    or, for bt = 0, exp(-p^2/wt) times a polynomial in p (Gauss-Hermite).
    The nodes in z (or in y = p/sqrt(wt)) are the eigenvalues of the
    Jacobi matrix, which `_gauss_nodes` folds into the singular values of
    a half-size bidiagonal block.
    """
    bt, wt = params.beta_tilde, params.omega_tilde
    mu = _lam(params) - 1.0 if bt > 0 else None
    # a_k reads 0 (overflow) or nan (inf/inf) at huge mu
    with np.errstate(over="ignore", invalid="ignore"):
        a = _coefficients(mu, m - 1)
    if not np.all((a > 0) & (a < math.inf)):
        raise FloatingPointError(f"no Gauss rule for the index {mu}")
    x = _gauss_nodes(a)
    # Christoffel weights, summed from the same recurrence
    christoffel = sum(g * g for g in _recurrence(x, np.ones(m), mu, m - 1))
    if bt == 0:
        return math.sqrt(wt) * x, np.exp(x * x) / christoffel
    # int cos^(2 lam - 2)(u) dq = M (mu + 1)/(mu + 1/2)
    w = (mu + 1.0) / (mu + 0.5) / christoffel / np.exp(mu * np.log1p(-x * x))
    c0 = measure_offset(params, level.p0_tilde)
    return math.sqrt(c0 / bt) * x / np.sqrt(1.0 - x * x), w


def _norm_integral(params: DOParams, level: SpectrumLevel) -> float:
    """Exact int (psi1^2 + psi2^2) dq of `_spinor`.  By orthonormality
    int psi1^2 dq = M = sqrt(pi/(bt c0)) Gamma(lam + 1/2)/Gamma(lam + 1),
    or sqrt(pi wt) for bt = 0, and int psi2^2 dq is e_n/(p0 + 1)^2 times
    that, since B+B- psi1 = e_n psi1."""
    bt, wt, p0 = params.beta_tilde, params.omega_tilde, level.p0_tilde
    mass = math.sqrt(math.pi * wt)
    if bt > 0:
        c0 = measure_offset(params, p0)
        mass = math.sqrt(math.pi / (bt * c0)) * _gamma_ratio(_lam(params))
    return mass * (1.0 + level.e_n / (p0 + 1.0) ** 2)


def exact_moments(params: DOParams, level: SpectrumLevel):
    """(<p^2>, <x^2>) of the closed-form state of `level`, <x^2> being
    int |dpsi/dq|^2 dq: the (n + 2)-point rule of `_gauss` is exact for
    both, whose integrands are cos^(2 lam - 2)(u) times a polynomial of
    degree 2n + 2 in sin u.  For lam = 1/(bt wt) <= 1/2 both are inf."""
    if not params.beta_tilde * params.omega_tilde < 2.0:
        return math.inf, math.inf
    p, w = _gauss(params, level, level.n + 2)
    psi1, psi2, d1, d2 = _spinor(params, level, p)
    # dens is cos^(2 lam - 2)(u) (1 - sin^2 u) times a polynomial, so the
    # rule gives the exact norm too; a moment out of double range is inf
    with np.errstate(over="ignore"):
        dens = psi1**2 + psi2**2
        mass = float(np.sum(w * dens))
        meansq_p = float(np.sum(w * p * p * dens)) / mass
        return meansq_p, float(np.sum(w * (d1**2 + d2**2))) / mass


# ---------------------------------------------------------------------------
# wavefunction grids


@dataclass
class WavefunctionGrid:
    """Sampled spinor components on the flat-coordinate grid of `size` nodes.

    Only the non-negative half of the mirror-symmetric grid is stored: p,
    psi1 and psi2 on the ceil(size/2) nodes q[size//2:], as half_p,
    half_psi1 and half_psi2.  p (odd), psi1 (parity (-1)^n), psi2 (parity
    (-1)^(n+1)), q, f and weights are rebuilt on each access (keep them to
    use them repeatedly); q, p, f and weights have `flat_grid`'s bits.
    weights are dp-measure quadrature weights (weights/f equals dq), so
    the normalization contract reads sum(weights*(psi1^2+psi2^2)/f) = 1.
    amplitude is the factor between the samples and the unnormalized
    closed form, which `inner_product` evaluates on foreign nodes.
    """

    params: DOParams
    level: SpectrumLevel
    half_p: np.ndarray
    half_psi1: np.ndarray
    half_psi2: np.ndarray
    size: int
    dq: float
    amplitude: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def p(self):
        return _mirror(self.half_p, self.size, -1)

    @property
    def psi1(self):
        return _mirror(self.half_psi1, self.size, (-1) ** self.level.n)

    @property
    def psi2(self):
        return _mirror(self.half_psi2, self.size, -(-1) ** self.level.n)

    @property
    def q(self):
        return _nodes(self.size, self.dq)

    @property
    def f(self):
        return _mirror(_measure(self.params, self.level.p0_tilde, self.half_p),
                       self.size, 1)

    @property
    def weights(self):
        return self.f * self.dq

    def norm_squared(self) -> float:
        # the squares are even: summed mirrored to full length, in the
        # upper half of one buffer, np.sum keeps the full grid's pairwise
        # order.  abs: a nan sum reads +nan, as a sum of |psi|^2 does
        dens = np.empty(self.size)
        upper = np.square(self.half_psi1, out=dens[self.size // 2:])
        upper += np.square(self.half_psi2)
        return abs(float(np.sum(_mirror(upper, self.size, 1, dens)) * self.dq))

    def csv_rows(self):
        """The artifact's columns p_tilde, q, psi1, psi2, f, weight, one
        array each, yielded in turn (perfbench times this as a generator)."""
        f = self.f
        yield from (self.p, self.q, self.psi1, self.psi2, f, f * self.dq)


def _sampled(params: DOParams, level: SpectrumLevel, npts: int):
    """The closed-form state of `level` on the flat grid, normalized there.

    metadata holds the L2 residuals of the coupled equations, evaluated
    pointwise from the exact derivatives, and the quadrature error
    |sum (psi1^2 + psi2^2) dq / exact integral - 1| before normalization,
    which is what tells a grid too coarse for the state.
    """
    p0, wt = level.p0_tilde, params.omega_tilde
    half, dq, _ = _momenta(params, p0, npts, level.n)
    # psi1 has parity (-1)^n and psi2 (-1)^(n+1): evaluate and store the
    # non-negative half of the grid.  Squares are even; summing them
    # mirrored to full length keeps np.sum's pairwise order, so every sum
    # is the bit-exact full-grid one.  The squares are formed in the upper
    # half of one full-length buffer and mirrored in place
    scratch = np.empty(npts)

    def mirrored_sum(squares):
        return float(np.sum(_mirror(squares, npts, 1, out=scratch)))

    # a state out of double range (extreme bt wt, where lam = 1/(bt wt) or
    # the recurrence overflows) samples as inf or nan, and the residuals and
    # the quadrature error below report it: numpy's warnings would add noise
    with np.errstate(all="ignore"):
        psi1, psi2, d1, d2 = _spinor(params, level, half)
        upper = np.square(psi1, out=scratch[npts // 2:])
        raw = mirrored_sum(np.add(upper, psi2**2, out=upper)) * dq
        # a state that vanishes at every node stays unnormalized
        scale = 1.0 / math.sqrt(raw) if raw > 0 else 1.0
        res2 = half * psi1 + wt * d1 - (p0 + 1.0) * psi2
        res1 = half * psi2 - wt * d2 - (p0 - 1.0) * psi1
        wf = WavefunctionGrid(params, level, half, scale * psi1, scale * psi2,
                              npts, dq, scale)
        wf.metadata["residual_coupled_1"] = scale * math.sqrt(
            mirrored_sum(np.square(res1, out=upper)) * dq)
        wf.metadata["residual_coupled_2"] = scale * math.sqrt(
            mirrored_sum(np.square(res2, out=upper)) * dq)
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
    ambiguous between different levels.  Summed on a's nodes: the integrand
    is formed on a's stored half, with b evaluated exactly from its closed
    form there, and mirrored by its parity (-1)^(n_a + n_b), as `_sampled`
    mirrors its squares.  Raises AcceptabilityError
    when the weight's 1 - bt p0^2 rounds to <= 0, as `flat_grid` does.

    With with_error=True returns (value, err): err is the larger of the
    quadrature error (Richardson estimate from the every-other-node sum)
    and 1e-14 times the integral of |integrand|.
    """
    if a.params != b.params:
        raise ValueError("incompatible grids: different oscillator parameters")
    # a state out of double range gives inf or nan, silently as `_sampled`
    with np.errstate(all="ignore"):
        b1, b2 = _spinor(b.params, b.level, a.half_p, derivatives=False)
        # the integrand on a's half, in b1's buffer; psi is real
        half = np.multiply(a.half_psi1, b1, out=b1)
        half += np.multiply(a.half_psi2, b2, out=b2)
        fw = _measure(a.params, p0_allowed(a.params, weight_level), a.half_p)
        fa = _measure(a.params, a.level.p0_tilde, a.half_p)
        half *= np.divide(np.multiply(b.amplitude, fa, out=fa), fw, out=fw)
        integrand = _mirror(half, a.size, (-1) ** (a.level.n + b.level.n))
        val = complex(np.sum(integrand) * a.dq)
        if not with_error:
            return val
        coarse = complex(np.sum(integrand[::2]) * 2 * a.dq)
        mass = float(np.sum(np.abs(integrand, out=integrand)) * a.dq)
    return val, max(abs(val - coarse) / 3.0, 1e-14 * mass)
