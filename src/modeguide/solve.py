"""Eigenvalue location, eigenfunctions, tail amplitudes, critical widths.

Roots of the matching determinant are bracketed by sign changes on a
spectral grid, refined by bisection, and confirmed through the smallest
singular value; the corresponding kernel vector yields the window-region
coefficients, from which the outer families and the L2 normalization
follow in closed form (the transverse bases are orthonormal, so the norm
is a sum of one-dimensional longitudinal integrals).

Grid signs come from one stacked kappa-parametrized assembly per grid and
a batched ``slogdet``, chunked to a fixed memory budget (see
:func:`~modeguide.matching.det_signs`).  One scanner brackets every grid
(the lam and log-kappa spectral grids, the width grid of the threshold
system and the polish windows of the truncation ladder); bisection steps
stay sequential, one assembled point each, signed by the same ``slogdet``.

Two solver extensions matter in practice:

* Near the continuum threshold the natural variable is the decay rate
  kappa = sqrt(1 - lam), not lam itself: eigenvalues exponentially close
  to 1 are located on a logarithmic kappa grid where 1 - lam would
  underflow.  The even two-window sector is always given this extra scan.
* Window-edge corners limit the truncated systems to O(1/N) absolute
  accuracy.  Within a fixed truncation all derived quantities are mutually
  consistent (the shared bias cancels from differences), but comparisons
  against independent solvers need :func:`refine_eigenvalue` /
  :func:`refine_critical_width`, which re-solve on a doubling truncation
  ladder and extrapolate the known O(1/N) + O(N^-3/2) tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import (
    MatchingSystem,
    Truncation,
    _assemble_single_core,
    _assemble_two_core,
    _rates,
    assemble_threshold,
    det_sign,
    det_signs,
)
from .modes import (
    CanonicalConfig,
    ProblemKind,
    axial_eval,
    axial_l2,
    overlap_matrix,
    window_profile_at_edge,
    window_profile_eval,
    window_profile_l2,
    window_profile_scale_log,
)

__all__ = [
    "Eigenpair",
    "TailAmplitude",
    "CriticalWidth",
    "CriticalWidthScan",
    "RefinedValue",
    "find_eigenvalues",
    "find_near_threshold",
    "eigenfunction_value",
    "extract_tail",
    "window_trace",
    "window_integral",
    "find_critical_widths",
    "refine_eigenvalue",
    "refine_critical_width",
    "extrapolate_truncation",
    "SCAN_STEP",
    "SEARCH_EPS",
    "RESIDUAL_GATE",
]

#: default spectral-grid step for the determinant sign scan
SCAN_STEP = 1e-3
#: clip of the search interval away from 1/4 and 1
SEARCH_EPS = 1e-6
#: largest relative kernel residual s_min/s_max of an accepted root; roots
#: bracketed to tol have residuals of tol/20 to tol/140 (below 4e-14 at the
#: default tol), so every tol up to 2e-7 passes
RESIDUAL_GATE = 1e-8
#: logarithmic kappa window for the near-threshold scan of the even sector
NEAR_THRESHOLD_KAPPA = (1e-13, 1e-3)

_ROOT2_PI = math.sqrt(2.0 / math.pi)


@dataclass
class Eigenpair:
    """A located eigenvalue with per-region mode coefficients.

    ``window_coeffs`` are the coefficients of the interface-normalized
    window profiles (single window: one family of length n; two windows:
    the even profile family followed by the odd one, length 2n).
    ``kappa1`` duplicates sqrt(1 - lam) exactly; for near-threshold pairs
    use it rather than 1 - lam, which may have no bits left.
    ``norm`` is the L2 normalization constant that was applied; threshold
    resonances are instead normalized to a unit constant tail and carry
    ``threshold_profile=True``.
    """

    lam: float
    kappa1: float
    kind: ProblemKind
    a: float
    l: float | None
    n: int
    window_coeffs: np.ndarray
    outside_coeffs: np.ndarray
    region1_coeffs: np.ndarray | None
    residual: float
    norm: float
    threshold_profile: bool = False

    @property
    def parity(self) -> str:
        return self.kind.parity


@dataclass(frozen=True)
class TailAmplitude:
    """Amplitude alpha of the leading evanescent tail alpha*e^(-kappa1*x1)*sin(x2)."""

    alpha: float
    kappa1: float


@dataclass
class CriticalWidth:
    """Critical window half-length a_n with its threshold resonance data.

    ``beta`` is the second-mode tail amplitude of the resonance normalized
    so its constant tail is exactly sqrt(2/pi)*sin(x2).
    """

    index: int
    a: float
    beta: float
    parity: str
    resonance: Eigenpair


@dataclass
class CriticalWidthScan:
    widths: list[CriticalWidth]
    exhausted: bool
    a_max: float


@dataclass(frozen=True)
class RefinedValue:
    """Truncation-ladder extrapolation of a solver output.

    ``by_n`` maps each truncation of the ladder to its raw value; ``value``
    is the two-exponent (N^-1, N^-3/2) fit at N -> infinity and ``error``
    a conservative estimate from the spread of extrapolation models.
    """

    value: float
    error: float
    by_n: dict[int, float]


# ---------------------------------------------------------------------------
# root scanning
# ---------------------------------------------------------------------------

def _assemble_at(cfg: CanonicalConfig, trunc: Truncation, kappa1: float) -> MatchingSystem:
    """The configuration's matching system at kappa1 = sqrt(1 - lam)."""
    b = cfg.base
    if b.kind.is_two_window:
        return _assemble_two_core(b.kind, trunc.n, b.a, kappa1, b.l)
    return _assemble_single_core(b.kind, trunc.n, b.a, kappa1)


def _spectral_sign(cfg: CanonicalConfig, trunc: Truncation, in_lam: bool = True):
    """Determinant sign at one point and over a grid, of lam or of kappa1 = sqrt(1 - lam)."""
    b = cfg.base
    kappa = (lambda lam: np.sqrt(1.0 - lam)) if in_lam else (lambda k: k)
    return (lambda x: det_sign(_assemble_at(cfg, trunc, kappa(x))),
            lambda xs: det_signs(b.kind, trunc.n, b.a, kappa(xs), b.l))


def _width_sign(trunc: Truncation, parity: str):
    """Threshold-system determinant sign at one window half-length and over a grid."""
    kind = ProblemKind(f"single-{parity}")
    return (lambda a: det_sign(assemble_threshold(a, trunc, parity)),
            lambda widths: det_signs(kind, trunc.n, widths, 0.0))


def _bisect_sign(f, lo: float, hi: float, s_lo: int, tol: float) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_sign_log(f, lo: float, hi: float, s_lo: int, rel_tol: float) -> float:
    # geometric bisection for roots spanning many decades
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if f(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _roots(sign, grid: np.ndarray, tol: float, log: bool = False):
    """Roots bracketed on an ascending grid, lazily and in grid order.

    ``sign`` is a (point sign, grid signs) pair.  A grid point whose
    determinant sign is exactly 0 is a root as it stands; a sign change
    between neighbours is bisected, geometrically with relative ``tol`` on
    a logarithmic grid.
    """
    sign_at, signs_of = sign
    s = signs_of(grid)
    bisect = _bisect_sign_log if log else _bisect_sign
    for i in np.flatnonzero((s[:-1] == 0) | (s[:-1] * s[1:] < 0)):
        lo, hi = float(grid[i]), float(grid[i + 1])
        yield lo if s[i] == 0 else bisect(sign_at, lo, hi, s[i], tol)


def find_eigenvalues(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                     tol: float = 1e-12, scan_step: float = SCAN_STEP) -> list[Eigenpair]:
    """All simple matching-determinant roots in (1/4, 1), as normalized pairs.

    The search interval is clipped by ``SEARCH_EPS`` at both ends; the even
    two-window sector is additionally scanned on a logarithmic grid in
    kappa = sqrt(1 - lam) down to 1e-13 (:func:`find_near_threshold`), which
    locates eigenvalues whose distance to the threshold is far below any
    linear grid (and below double resolution of lam itself).  An empty list
    is a legitimate outcome (e.g. the odd single-window sector below the
    first critical width).  Results are sorted by ascending eigenvalue.
    """
    if tol < 1e-14:
        raise ValueError(f"bracketing tolerance below 1e-14 is not resolvable, got {tol}")
    lo = 0.25 + SEARCH_EPS
    hi = 1.0 - SEARCH_EPS
    grid = np.arange(lo, hi + 0.5 * scan_step, scan_step)
    grid[-1] = min(grid[-1], hi)
    pairs = [_solve_at(cfg, trunc, lam=root) for root in _roots(_spectral_sign(cfg, trunc), grid, tol)]
    if cfg.base.kind is ProblemKind.TWO_WINDOW_EVEN:
        pairs += find_near_threshold(cfg, trunc, *NEAR_THRESHOLD_KAPPA, points=240)
    pairs.sort(key=lambda p: p.lam)
    return pairs


def find_near_threshold(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                        kappa_lo: float = 1e-13, kappa_hi: float = 0.05,
                        points: int = 300) -> list[Eigenpair]:
    """Even two-window eigenvalues within kappa_hi of the threshold.

    Scans the decay rate kappa = sqrt(1 - lam) on a logarithmic grid, so
    roots are located exactly even when 1 - lam is below double-precision
    resolution of lam.  Returns pairs sorted by descending kappa (deepest
    first); usually there is exactly one at a critical window width.
    """
    if cfg.base.kind is not ProblemKind.TWO_WINDOW_EVEN:
        raise ValueError("near-threshold states live in the even two-window sector")
    kgrid = np.geomspace(kappa_lo, kappa_hi, points)
    roots = _roots(_spectral_sign(cfg, trunc, in_lam=False), kgrid, 1e-12, log=True)
    return [_solve_at(cfg, trunc, kappa1=kap) for kap in roots][::-1]


# ---------------------------------------------------------------------------
# kernel extraction and normalization
# ---------------------------------------------------------------------------

def _kernel_vector(sys: MatchingSystem) -> tuple[np.ndarray, float]:
    u, s, vt = np.linalg.svd(sys.matrix)
    residual = float(s[-1] / s[0])
    return vt[-1], residual


def _solve_at(cfg: CanonicalConfig, trunc: Truncation, lam: float | None = None,
              kappa1: float | None = None) -> Eigenpair:
    if kappa1 is None:
        kappa1 = math.sqrt(1.0 - lam)
    sys = _assemble_at(cfg, trunc, kappa1)
    vec, residual = _kernel_vector(sys)
    if not residual <= RESIDUAL_GATE:
        raise ArithmeticError(f"kernel residual {residual:.3g} at lam={sys.lam!r} exceeds "
                              f"{RESIDUAL_GATE:g}: not a root")
    pair = _build_pair(sys, vec, residual)
    _normalize(pair)
    _fix_sign(pair)
    return pair


def _build_pair(sys: MatchingSystem, vec: np.ndarray, residual: float,
                threshold_profile: bool = False) -> Eigenpair:
    n = sys.n
    kap, t = _rates(n, sys.kappa1)
    M = overlap_matrix(n)
    if sys.kind.is_two_window:
        dplus, dminus = vec[:n], vec[n:]
        cv, _ = window_profile_at_edge(t, sys.a, "even")
        sv, _ = window_profile_at_edge(t, sys.a, "odd")
        w_left = cv * dplus - sv * dminus
        w_right = cv * dplus + sv * dminus
        plane = sys.kind.parity
        L1 = sys.l - sys.a
        g_end = np.ones(n) if plane == "even" else np.tanh(kap * L1)
        region1 = (M @ w_left) / g_end
        outside = M @ w_right
    else:
        val, _ = window_profile_at_edge(t, sys.a, sys.kind.parity)
        outside = M @ (val * vec)
        region1 = None
    return Eigenpair(
        lam=sys.lam,
        kappa1=sys.kappa1,
        kind=sys.kind,
        a=sys.a,
        l=sys.l,
        n=n,
        window_coeffs=vec.copy(),
        outside_coeffs=outside,
        region1_coeffs=region1,
        residual=residual,
        norm=1.0,
        threshold_profile=threshold_profile,
    )


def _norm_sq(pair: Eigenpair) -> float:
    """Full-strip L2 norm squared from closed-form longitudinal integrals."""
    n = pair.n
    kap, t = _rates(n, pair.kappa1)
    if pair.kind.is_two_window:
        dplus, dminus = pair.window_coeffs[:n], pair.window_coeffs[n:]
        win = np.sum(dplus ** 2 * window_profile_l2(t, pair.a, "even"))
        win += np.sum(dminus ** 2 * window_profile_l2(t, pair.a, "odd"))
        reg1 = np.sum(pair.region1_coeffs ** 2 * axial_l2(kap, pair.l - pair.a, pair.kind.parity))
        tail = np.sum(pair.outside_coeffs ** 2 / (2.0 * kap))
        return 2.0 * float(win + reg1 + tail)
    win = np.sum(pair.window_coeffs ** 2 * window_profile_l2(t, pair.a, pair.kind.parity))
    tail = np.sum(pair.outside_coeffs ** 2 / kap)
    return float(win + tail)


def _scale_pair(pair: Eigenpair, factor: float) -> None:
    pair.window_coeffs = pair.window_coeffs * factor
    pair.outside_coeffs = pair.outside_coeffs * factor
    if pair.region1_coeffs is not None:
        pair.region1_coeffs = pair.region1_coeffs * factor


def _normalize(pair: Eigenpair) -> None:
    factor = 1.0 / math.sqrt(_norm_sq(pair))
    _scale_pair(pair, factor)
    pair.norm = factor


def _fix_sign(pair: Eigenpair) -> None:
    """Deterministic sign: nonnegative window-trace integral, falling back to
    a nonnegative trace slope (odd) or trace value (even) at the window center."""
    i0 = window_integral(pair, 0.0)
    scale = float(np.max(np.abs(pair.window_coeffs)))
    if abs(i0) > 1e-10 * scale * pair.a:
        s = math.copysign(1.0, i0)
    else:
        s = math.copysign(1.0, _center_slope(pair))
    if s < 0:
        _scale_pair(pair, -1.0)
        pair.norm = -pair.norm


def _center_slope(pair: Eigenpair) -> float:
    n = pair.n
    _, t = _rates(n, pair.kappa1)
    # odd profiles have slope 1/scale at the center; even ones slope 0, value 1/scale-ish
    inv_scale_odd = np.exp(-np.asarray(window_profile_scale_log(t, pair.a, "odd")))
    if pair.kind.is_two_window:
        dminus = pair.window_coeffs[n:]
        slope = float(_ROOT2_PI * np.sum(dminus * inv_scale_odd))
        if slope != 0.0:
            return slope
        return float(window_trace(pair, np.array([0.0]))[0])
    if pair.kind.parity == "odd":
        return float(_ROOT2_PI * np.sum(pair.window_coeffs * inv_scale_odd))
    return float(window_trace(pair, np.array([0.0]))[0])


# ---------------------------------------------------------------------------
# traces, integrals, tails
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def window_trace(pair: Eigenpair, x_local) -> np.ndarray:
    """Boundary trace psi(x1, 0) over the window, x measured from its center."""
    x = np.asarray(x_local, dtype=float)
    n = pair.n
    _, t = _rates(n, pair.kappa1)
    if pair.kind.is_two_window:
        prof_e = window_profile_eval(t[:, None], x[None, :], pair.a, "even")
        prof_o = window_profile_eval(t[:, None], x[None, :], pair.a, "odd")
        vals = pair.window_coeffs[:n] @ prof_e + pair.window_coeffs[n:] @ prof_o
    else:
        prof = window_profile_eval(t[:, None], x[None, :], pair.a, pair.kind.parity)
        vals = pair.window_coeffs @ prof
    return _ROOT2_PI * vals


def window_integral(pair: Eigenpair, rate: float, order: int = 64) -> float:
    """Weighted window-trace integral int_{-a}^{a} psi(x,0) e^(rate*x) dx.

    Fixed-order Gauss-Legendre quadrature; the integrand is smooth, so the
    default order is exact to machine precision at these sizes.
    """
    if order == 64:
        nodes, weights = _GL_NODES, _GL_WEIGHTS
    else:
        nodes, weights = np.polynomial.legendre.leggauss(order)
    x = pair.a * nodes
    vals = window_trace(pair, x) * np.exp(rate * x)
    return float(pair.a * np.sum(weights * vals))


def extract_tail(pair: Eigenpair) -> TailAmplitude:
    """Leading-tail amplitude alpha with psi ~ alpha e^(-kappa1 x1) sin x2.

    For a single-window bound state the first outside coefficient gives
    alpha = sqrt(2/pi) * B_1 * e^(kappa1 a) directly.
    """
    if pair.kind.is_two_window:
        raise ValueError("tail amplitude in this convention applies to single-window pairs")
    if pair.threshold_profile:
        raise ValueError("threshold resonances carry a constant tail, not a decaying one")
    alpha = _ROOT2_PI * float(pair.outside_coeffs[0]) * math.exp(pair.kappa1 * pair.a)
    return TailAmplitude(alpha=alpha, kappa1=pair.kappa1)


# ---------------------------------------------------------------------------
# eigenfunction evaluation
# ---------------------------------------------------------------------------

def eigenfunction_value(pair: Eigenpair, x1, x2):
    """Pointwise eigenfunction value inside the canonical strip.

    Evaluates the expansion of whichever longitudinal region contains each
    point; continuity across interfaces holds up to the truncation
    residual.  Points outside 0 <= x2 <= pi are rejected.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x1, x2 = np.broadcast_arrays(x1, x2)
    if np.any((x2 < 0.0) | (x2 > math.pi)):
        raise ValueError("transverse coordinate outside the strip [0, pi]")
    n = pair.n
    kap, t = _rates(n, pair.kappa1)
    out = np.zeros_like(x1)

    if pair.kind.is_two_window:
        sign = np.where(x1 >= 0.0, 1.0, 1.0 if pair.kind.parity == "even" else -1.0)
        ax = np.abs(x1)
        m_reg1 = ax < pair.l - pair.a
        m_win = (~m_reg1) & (ax <= pair.l + pair.a)
        m_out = ax > pair.l + pair.a
        if np.any(m_reg1):
            g = axial_eval(kap[:, None], ax[m_reg1][None, :], pair.l - pair.a, pair.kind.parity)
            out[m_reg1] = (pair.region1_coeffs @ (g * _sin_modes(n, x2[m_reg1]))).ravel()
        if np.any(m_win):
            xi = ax[m_win] - pair.l
            pe = window_profile_eval(t[:, None], xi[None, :], pair.a, "even")
            po = window_profile_eval(t[:, None], xi[None, :], pair.a, "odd")
            w = pair.window_coeffs[:n] @ (pe * _cos_modes(n, x2[m_win]))
            w += pair.window_coeffs[n:] @ (po * _cos_modes(n, x2[m_win]))
            out[m_win] = w
        if np.any(m_out):
            e = np.exp(-kap[:, None] * (ax[m_out] - pair.l - pair.a)[None, :])
            out[m_out] = (pair.outside_coeffs @ (e * _sin_modes(n, x2[m_out]))).ravel()
        out *= sign
    else:
        sign = np.where(x1 >= 0.0, 1.0, 1.0 if pair.kind.parity == "even" else -1.0)
        ax = np.abs(x1)
        m_win = ax <= pair.a
        m_out = ~m_win
        if np.any(m_win):
            prof = window_profile_eval(t[:, None], x1[m_win][None, :], pair.a, pair.kind.parity)
            out[m_win] = pair.window_coeffs @ (prof * _cos_modes(n, x2[m_win]))
        if np.any(m_out):
            e = np.exp(-kap[:, None] * (ax[m_out] - pair.a)[None, :])
            out[m_out] = sign[m_out] * (pair.outside_coeffs @ (e * _sin_modes(n, x2[m_out])))
    out *= _ROOT2_PI
    return out if out.ndim else float(out)


def _sin_modes(n: int, x2: np.ndarray) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=float)[:, None]
    return np.sin(j * x2[None, :])


def _cos_modes(n: int, x2: np.ndarray) -> np.ndarray:
    half = (np.arange(1, n + 1, dtype=float) - 0.5)[:, None]
    return np.cos(half * x2[None, :])


# ---------------------------------------------------------------------------
# critical widths (threshold resonances)
# ---------------------------------------------------------------------------

def _threshold_resonance(a: float, trunc: Truncation, parity: str) -> Eigenpair:
    sys = assemble_threshold(a, trunc, parity)
    vec, residual = _kernel_vector(sys)
    pair = _build_pair(sys, vec, residual, threshold_profile=True)
    b1 = float(pair.outside_coeffs[0])
    if b1 == 0.0:
        raise ArithmeticError(f"degenerate threshold resonance at a={a}: no constant tail")
    _scale_pair(pair, 1.0 / b1)
    pair.norm = 1.0 / b1
    return pair


def find_critical_widths(n_max: int, trunc: Truncation = Truncation(),
                         tol: float = 1e-12, a_max: float = 8.0,
                         a_step: float = 0.02) -> CriticalWidthScan:
    """First ``n_max`` critical window half-lengths, ascending over both parities.

    Critical widths alternate between the two longitudinal parities (each
    new bound state emerges with one more sign change), so both threshold
    systems are scanned and their roots merged.  Each resonance is
    normalized to a unit constant tail; ``beta`` is then
    sqrt(2/pi) * B_2 * e^(sqrt(3) a).  If fewer than ``n_max`` roots exist
    below ``a_max`` the scan is flagged exhausted.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    grid = np.arange(a_step, a_max + 0.5 * a_step, a_step)
    found = sorted((root, parity) for parity in ("even", "odd")
                   for root in _roots(_width_sign(trunc, parity), grid, tol))
    widths = []
    for i, (a_n, parity) in enumerate(found[:n_max], start=1):
        pair = _threshold_resonance(a_n, trunc, parity)
        kap2 = math.sqrt(3.0)
        beta = _ROOT2_PI * float(pair.outside_coeffs[1]) * math.exp(kap2 * a_n)
        widths.append(CriticalWidth(index=i, a=a_n, beta=beta, parity=parity, resonance=pair))
    return CriticalWidthScan(widths=widths, exhausted=len(found) < n_max, a_max=a_max)


# ---------------------------------------------------------------------------
# truncation-ladder refinement
# ---------------------------------------------------------------------------

def extrapolate_truncation(ns, values, exponents=(1.0, 1.5, 2.0)) -> float:
    """Fit v(N) = v_inf - sum_i c_i N^(-p_i) and return v_inf.

    The truncated systems converge like 1/N with an N^(-3/2) subleading
    term (window-corner singularity); as many exponents are used as the
    rung count supports.
    """
    ns = list(ns)
    values = list(values)
    exps = list(exponents)[: max(1, len(ns) - 1)]
    A = np.array([[1.0] + [-float(n) ** -p for p in exps] for n in ns])
    sol, *_ = np.linalg.lstsq(A, np.array(values, dtype=float), rcond=None)
    return float(sol[0])


def _polish_root(sign, x0: float, width: float, tol: float, lo_cap: float,
                 hi_cap: float = math.inf) -> float:
    # the first root on 17 points across x0 +- width, the window doubled up to three times
    for attempt in range(4):
        w = width * (2.0 ** attempt)
        xs = np.linspace(max(x0 - w, lo_cap), min(x0 + w, hi_cap), 17)
        root = next(_roots(sign, xs, tol), None)
        if root is not None:
            return root
    raise ArithmeticError(f"no sign change near {x0} within widened window {width}")


def _ladder(sign_at_n, x: float, trunc: Truncation, levels: int, width: float,
            min_width: float, tol: float, lo_cap: float, hi_cap: float = math.inf) -> RefinedValue:
    """Polish a root at truncations n, 2n, ..., then fit the N -> infinity limit.

    ``sign_at_n(tr)`` is the determinant's sign pair at truncation tr.  The
    first two rungs search +-``width`` around the previous root; later rungs
    search three times the last rung-to-rung step (at least ``min_width``),
    since the root drifts by about half that.
    """
    ns = [trunc.n * (2 ** k) for k in range(levels + 1)]
    vals: list[float] = []
    for n in ns:
        if len(vals) >= 2:
            width = max(3.0 * abs(vals[-1] - vals[-2]), min_width)
        x = _polish_root(sign_at_n(Truncation(n)), x, width, tol, lo_cap, hi_cap)
        vals.append(x)
    v_inf = extrapolate_truncation(ns[-3:], vals[-3:], exponents=(1.0, 1.5))
    two_point = 2.0 * vals[-1] - vals[-2]
    err = abs(v_inf - two_point) + 1e-15 * abs(v_inf)
    return RefinedValue(value=v_inf, error=err, by_n=dict(zip(ns, vals)))


def refine_eigenvalue(cfg: CanonicalConfig, lam0: float, trunc: Truncation = Truncation(),
                      levels: int = 2, tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of one eigenvalue toward N -> infinity.

    Re-polishes the root at truncations n, 2n, ..., then extrapolates the
    O(1/N) window-corner error with a two-exponent fit.  The ladder costs
    only local scans, not full-interval sweeps.
    """
    return _ladder(lambda tr: _spectral_sign(cfg, tr), lam0, trunc, levels, 5e-3, 1e-3, tol,
                   0.25 + SEARCH_EPS, 1.0 - SEARCH_EPS)


def refine_critical_width(a0: float, parity: str, trunc: Truncation = Truncation(),
                          levels: int = 2, tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of a critical width toward N -> infinity."""
    return _ladder(lambda tr: _width_sign(tr, parity), a0, trunc, levels, 2e-2, 5e-3, tol, 1e-3)
