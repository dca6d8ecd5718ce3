"""Eigenvalue location, eigenfunctions, tail amplitudes, critical widths.

Roots are located by count (:mod:`modeguide.roots`) on the 1 x 1 or
2 x 2 Schur complement Z (:func:`~modeguide.matching.schur_complement`)
of the symmetric trace form S of :func:`~modeguide.matching.trace_form`,
assembled once per point, through :func:`_assemble_at` or
:func:`~modeguide.matching.assemble_threshold`, with the closed-form
poles of :func:`~modeguide.matching.pole_count`, and polished on det Z
to ``tol / 10``, or to the first point where det Z is within the rounding floor
that the reduction gives; one solve with the block C per point (LU,
or preconditioned CG for large forms), no eigensolve of S.  The same
count serves two variables: u = kappa1^2 = 1 - lam, one sector per system
(the near-threshold search counts a window of it), and the window half-length
a of the threshold system.  The truncation ladder starts from a base solution
and keeps the root of the same index, and its solution, at each later rung,
counting from where the root's O(1/N) drift predicts it.

Each root's kernel vector of S comes from the solve at the root, which the
root keeps instead of S (:func:`_kernel_at`, once a root): the kernel of Z on
the first window mode's traces, extended to the others by X.  It holds the
window-edge traces, from which the window, region-1 and outside coefficients
and the L2 normalization follow in closed form (the transverse bases are
orthonormal, so the norm is a sum of one-dimensional longitudinal
integrals); its residual in S gates the root.  Bound states and threshold
resonances share this constructor, one window layout and one tail formula.

Two solver extensions matter in practice:

* Near the continuum threshold the natural variable is the decay rate
  kappa1 = sqrt(1 - lam), not lam itself, where 1 - lam would underflow:
  counted in u, polished in kappa1 below ``THRESHOLD_KAPPA[1]``, eigenvalues
  exponentially close to 1 are located down to kappa1 = 1e-13, to a relative ``tol``.
* Window-edge corners limit the truncated systems to O(1/N) absolute
  accuracy.  Within a fixed truncation all derived quantities are mutually
  consistent (the shared bias cancels from differences), but comparisons
  against independent solvers need :func:`refine_eigenvalue` /
  :func:`refine_critical_width`, which re-solve on a doubling truncation
  ladder and extrapolate the known O(1/N) + O(N^-3/2) tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .matching import (
    MatchingSystem,
    Truncation,
    _assemble_single_core,
    _assemble_two_core,
    _rates,
    assemble_threshold,
    pole_count,
    schur_complement,
)
# unused here: bound only because perfbench/tracing.py wraps it on this module
from .matching import det_sign  # noqa: F401
from .modes import (
    CanonicalConfig,
    ProblemKind,
    StripConfig,
    axial_eval,
    axial_l2,
    overlap_matrix,
    window_profile_at_edge,
    window_profile_eval,
    window_profile_integral,
    window_profile_l2,
    window_profile_scale_log,
)
from .roots import Root, Sector, count, kernel, kth_root, merged_roots, sector_roots

__all__ = [
    "Eigenpair",
    "CriticalWidth",
    "CriticalWidthScan",
    "RefinedValue",
    "NotBoundError",
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
    "SEARCH_EPS",
    "REFINE_LEVELS",
    "RESIDUAL_GATE",
    "THRESHOLD_KAPPA",
]

#: clip of the search interval away from lam = 1/4
SEARCH_EPS = 1e-6
#: largest kernel residual ||S v|| / (||v|| max_i |S_ii|) of an accepted root,
#: v its kernel vector (an upper bound on |mu|/max|mu|, mu the eigenvalue of
#: S smallest in modulus); roots polished to a bracket of tol/10 have
#: residuals below tol/130 (at most 7.6e-3 tol over single-window sectors at
#: a = 1, 2, 3.5 and two-window sectors at (a, l) = (1, 6), (2, 4), N = 12 and
#: 40, tol from 1e-12 to 1e-3), so every tol up to about 1.3e-6 passes (1e-6
#: did; 3.2e-6 failed), and the solvers reject a tol above 1e-6
RESIDUAL_GATE = 1e-8
#: kappa window (lo, hi] that find_near_threshold searches by default; a root
#: with kappa below the floor lo (1 - lam below 1e-26) is not resolved
THRESHOLD_KAPPA = (1e-13, 0.05)
#: relative tolerance of near-threshold kappa roots (polished to a tenth of it);
#: from l = 3 on at a = a_1 (N = 40) det Z reaches its rounding floor first, and
#: the root is the first point the polish evaluates there: within the floor over
#: |d det Z / d kappa| of the sign change, 5e-12 relative at l = 3.5, 3e-8 at
#: l = 6, 3e-5 at l = 8 and 1e-3 at l = 9, and its digits past that are noise
KAPPA_RTOL = 1e-12
#: window half-lengths of the critical-width search: (A_MIN, a_max], A_MAX by default
A_MIN = 1e-3
A_MAX = 8.0
#: doublings of a refinement ladder by default: rungs N, 2N, 4N
REFINE_LEVELS = 2

_ROOT2_PI = math.sqrt(2.0 / math.pi)
# relative floor of a ladder rung's search window: a rung-to-rung step of 0
# does not shrink the window to the polish tolerance
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """A located eigenvalue with per-region mode coefficients.

    ``window_coeffs`` are the coefficients of the interface-normalized
    window profiles (single window: one family of length n; two windows:
    the even profile family followed by the odd one, length 2n).
    ``kappa1`` = sqrt(1 - lam) gives ``lam``; for near-threshold pairs use
    it rather than 1 - lam, which may have no bits left.  Bound states
    (kappa1 > 0) are L2-normalized; threshold resonances (kappa1 == 0) are
    normalized to a unit constant tail instead.  ``index`` counts the pair's sector from its
    deepest state (1); None where a search did not count the whole sector.  Solutions (this class,
    CriticalWidth and RefinedValue) compare and hash by identity: array
    fields have no single truth value.
    """

    kappa1: float
    kind: ProblemKind
    a: float
    l: float | None
    n: int
    window_coeffs: np.ndarray
    outside_coeffs: np.ndarray
    region1_coeffs: np.ndarray | None
    residual: float
    index: int | None = None

    @property
    def lam(self) -> float:
        return 1.0 - self.kappa1 * self.kappa1

    @property
    def parity(self) -> str:
        return self.kind.parity


@dataclass(frozen=True, eq=False)
class CriticalWidth:
    """Critical window half-length a_n with its threshold resonance data.

    ``a`` and ``parity`` are the resonance's; ``beta`` is its second-mode tail
    amplitude, normalized so its constant tail is exactly sqrt(2/pi)*sin(x2).
    """

    index: int
    beta: float
    resonance: Eigenpair

    @property
    def a(self) -> float:
        return self.resonance.a

    @property
    def parity(self) -> str:
        return self.resonance.parity


class NotBoundError(ArithmeticError):
    """A ladder's state has no root at the truncation ``n``: it is not bound there."""
    def __init__(self, message: str, n: int):
        super().__init__(message)
        self.n = n


@dataclass(frozen=True)
class CriticalWidthScan:
    widths: list[CriticalWidth]
    exhausted: bool
    a_max: float


@dataclass(frozen=True, eq=False)
class RefinedValue:
    """Truncation-ladder extrapolation of a solver output.

    ``by_n`` maps each truncation to its solution's ``lam`` or ``a``; ``value``
    is the two-exponent (N^-1, N^-3/2) fit at N -> infinity and ``error``
    a conservative estimate from the spread of extrapolation models.
    """

    value: float
    error: float
    by_n: dict[int, float]
    # each truncation's solution: its Eigenpair, or its CriticalWidth
    solutions: dict[int, Eigenpair | CriticalWidth]


# ---------------------------------------------------------------------------
# root location by count (:mod:`modeguide.roots`)
# ---------------------------------------------------------------------------

def _check_tol(tol: float) -> None:
    """The tolerance rule of every solver entry point (NaN fails it too): 1e-14 <= tol <= 1e-6."""
    if not tol >= 1e-14:
        raise ValueError(f"bracketing tolerance below 1e-14 is not resolvable, got {tol}")
    if tol > 1e-6:
        raise ValueError(f"tolerance above 1e-6 may give roots the residual gate rejects, got {tol}")


def _reduced(sys: MatchingSystem) -> tuple[MatchingSystem, np.ndarray, np.ndarray, np.ndarray]:
    """A matching form's value: the system and its Schur complement ``(Z, X, floor of Z)``."""
    return (sys, *schur_complement(sys.matrix, sys.width))


def _kernel_at(value) -> tuple[MatchingSystem, np.ndarray, float]:
    """What a polished root keeps of a :func:`_reduced` value: the system without S, its one
    large part; S's unit kernel vector w, Z's eigenvector for its eigenvalue nearest 0 extended
    by ``-X``; and w's residual ||S w|| / max_i |S_ii| >= |mu|/max|mu|, mu S's nearest 0."""
    sys, Z, X, _ = value
    S = sys.matrix
    v_w = kernel(Z)
    w = np.empty(S.shape[0])
    traces = w.reshape(sys.width, -1)  # one row per window: its first mode's trace, then the rest
    traces[:, 0] = v_w
    traces[:, 1:] = (-X @ v_w).reshape(sys.width, -1)
    w /= np.linalg.norm(w)
    residual = float(np.linalg.norm(S @ w) / np.abs(S.diagonal()).max())
    return replace(sys, matrix=None), w, residual


def _u_sector(system: StripConfig | Eigenpair, trunc: Truncation, tol: float,
              lo: float = THRESHOLD_KAPPA[0] ** 2, hi: float = 0.75 - SEARCH_EPS) -> Sector:
    """The sector in u = kappa1^2 on (lo, hi] of ``system``'s ``kind``, ``a`` and ``l``, polished
    in kappa1 where a bracket tops out at kappa1 = ``THRESHOLD_KAPPA[1]`` or below."""
    def form(u):
        kappa1 = math.sqrt(u)
        return _reduced(_assemble_at(system, trunc, kappa1)), pole_count(system.kind, system.a, kappa1)
    return Sector(form, lo, hi, tol / 10.0, xcap=2.0 * tol, sense=-1,
                  sqrt_upto=THRESHOLD_KAPPA[1] ** 2, matrix=itemgetter(1), keep=_kernel_at,
                  floor=itemgetter(3))


def _width_sector(trunc: Truncation, parity: str, a_max: float, tol: float) -> Sector:
    kind = ProblemKind(f"single-{parity}")

    def form(a):
        return _reduced(assemble_threshold(a, trunc, parity)), pole_count(kind, a, 0.0)
    return Sector(form, A_MIN, a_max, tol / 10.0, matrix=itemgetter(1), keep=_kernel_at,
                  floor=itemgetter(3))


def find_eigenvalues(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                     tol: float = 1e-12) -> list[Eigenpair]:
    """All simple matching-determinant roots in (1/4, 1), as normalized pairs.

    One sector per system, counted and polished in u = kappa1^2 = 1 - lam from
    lam = 1/4 + ``SEARCH_EPS`` up to kappa1 = 1e-13 (``THRESHOLD_KAPPA[0]``), so
    eigenvalues whose distance to the threshold is below double resolution of
    lam are located too.  Each root is bracketed by the count and polished to
    ``tol / 10`` in lam, and below kappa1 = 0.22 to ``tol`` relative in kappa1.
    The list, maybe empty, ascends in lam, each pair's ``index`` its place in it.
    """
    _check_tol(tol)
    roots = sector_roots(_u_sector(cfg.base, trunc, tol))
    return [_solve_at(root, index) for index, root in enumerate(reversed(roots), start=1)]


def find_near_threshold(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                        kappa_lo: float = THRESHOLD_KAPPA[0],
                        kappa_hi: float = THRESHOLD_KAPPA[1]) -> list[Eigenpair]:
    """Eigenvalues with kappa = sqrt(1 - lam) in (kappa_lo, kappa_hi], as at a critical width.

    Counts the window (kappa_lo^2, kappa_hi^2] of the system's one sector in u = kappa^2
    and polishes in kappa itself below ``THRESHOLD_KAPPA[1]``, to ``KAPPA_RTOL`` relative,
    so roots are located even when 1 - lam is below double-precision resolution of lam; at
    large separations det Z reaches its rounding floor first, and the root is the first
    point there, with about 8 correct digits at l = 6 (see ``KAPPA_RTOL``).  Returns pairs
    sorted by descending kappa (deepest first), without an ``index``; usually there is
    exactly one at a critical window width.
    """
    roots = sector_roots(_u_sector(cfg.base, trunc, KAPPA_RTOL / 10.0, kappa_lo ** 2, kappa_hi ** 2))
    return [_solve_at(root) for root in reversed(roots)]


# ---------------------------------------------------------------------------
# the determinant-sign scanner: no solver path uses it any more; it stays,
# with its tests, while perfbench/tracing.py wraps these names
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# kernel extraction and normalization
# ---------------------------------------------------------------------------

def _assemble_at(system: StripConfig | Eigenpair, trunc: Truncation,
                 kappa1: float) -> MatchingSystem:
    """The matching system of ``system``'s ``kind``, ``a`` and ``l`` at kappa1 = sqrt(1 - lam)."""
    if system.kind.is_two_window:
        return _assemble_two_core(system.kind, trunc.n, system.a, kappa1, system.l)
    return _assemble_single_core(system.kind, trunc.n, system.a, kappa1)


def _solve_at(root: Root, index: int | None = None) -> Eigenpair:
    """The L2-normalized pair of a root, signed by :func:`_sign`, of ``index`` in its sector."""
    pair = replace(_build_pair(*root.at), index=index)
    return _divided(pair, _sign(pair) * math.sqrt(_norm_sq(pair)))


def _build_pair(sys: MatchingSystem, w: np.ndarray, residual: float) -> Eigenpair:
    """The pair whose window-edge traces are w (:func:`_kernel_at`), gated by ``RESIDUAL_GATE``."""
    if not residual <= RESIDUAL_GATE:
        at = f"a={sys.a!r}" if sys.kappa1 == 0.0 else f"lam={sys.lam!r}"
        raise ArithmeticError(f"kernel residual {residual:.3g} at {at} exceeds "
                              f"{RESIDUAL_GATE:g}: not a root")
    n = sys.n
    kap, t = _rates(n, sys.kappa1)
    M = overlap_matrix(n)
    if sys.kind.is_two_window:
        w_left, w_right = w[:n], w[n:]
        cv, _ = window_profile_at_edge(t, sys.a, "even")
        sv, _ = window_profile_at_edge(t, sys.a, "odd")
        coeffs = np.concatenate([(w_left + w_right) / (2.0 * cv), (w_right - w_left) / (2.0 * sv)])
        g_end = np.ones(n) if sys.kind.parity == "even" else np.tanh(kap * (sys.l - sys.a))
        region1 = (M @ w_left) / g_end
        outside = M @ w_right
    else:
        val, _ = window_profile_at_edge(t, sys.a, sys.kind.parity)
        coeffs = w / val
        outside = M @ w
        region1 = None
    return Eigenpair(
        kappa1=sys.kappa1,
        kind=sys.kind,
        a=sys.a,
        l=sys.l,
        n=n,
        window_coeffs=coeffs,
        outside_coeffs=outside,
        region1_coeffs=region1,
        residual=residual,
    )


def _window_layout(pair: Eigenpair) -> tuple[float, list[tuple[str, np.ndarray]]]:
    """The window center on x1 >= 0 and the pair's window-profile families.

    Two windows sit at x1 = +-l, each carrying the even profile family and
    the odd one; a single window sits at 0 and carries the family of the
    pair's parity.  Each family is ``(parity, coefficients)``.  The strip
    x1 < 0 is the mirror image of x1 > 0 with the pair's parity.
    """
    d = pair.window_coeffs
    if pair.kind.is_two_window:
        return pair.l, [("even", d[:pair.n]), ("odd", d[pair.n:])]
    return 0.0, [(pair.kind.parity, d)]


def _window_sum(pair: Eigenpair, xi: np.ndarray, modes=1.0) -> np.ndarray:
    """sum over the window families of d @ (profile(xi) * modes), xi from the window center."""
    _, t = _rates(pair.n, pair.kappa1)
    terms = [d @ (window_profile_eval(t, xi, pair.a, parity) * modes)
             for parity, d in _window_layout(pair)[1]]
    return sum(terms[1:], terms[0])


def _norm_sq(pair: Eigenpair) -> float:
    """Full-strip L2 norm squared from closed-form longitudinal integrals:
    twice that of the half strip x1 >= 0."""
    kap, t = _rates(pair.n, pair.kappa1)
    center, families = _window_layout(pair)
    half = sum(np.sum(d ** 2 * window_profile_l2(t, pair.a, parity)) for parity, d in families)
    if center == 0.0:
        # a window on the mirror plane has half of it in the half strip
        half = 0.5 * half
    if pair.region1_coeffs is not None:
        half += np.sum(pair.region1_coeffs ** 2 * axial_l2(kap, center - pair.a, pair.kind.parity))
    half += np.sum(pair.outside_coeffs ** 2 / (2.0 * kap))
    return 2.0 * float(half)


def _divided(pair: Eigenpair, divisor: float) -> Eigenpair:
    """The pair with every coefficient divided by ``divisor``: one divided by itself is exactly 1."""
    region1 = pair.region1_coeffs
    return replace(pair, window_coeffs=pair.window_coeffs / divisor,
                   outside_coeffs=pair.outside_coeffs / divisor,
                   region1_coeffs=None if region1 is None else region1 / divisor)


def _sign(pair: Eigenpair) -> float:
    """Deterministic sign +-1: the window-trace integral's, in closed form (a test that scales
    with the pair), falling back to that of the trace slope (odd) or trace value (even) at the
    window center."""
    _, t = _rates(pair.n, pair.kappa1)
    i0 = _ROOT2_PI * sum(float(d @ window_profile_integral(t, pair.a, parity))
                         for parity, d in _window_layout(pair)[1])
    scale = float(np.max(np.abs(pair.window_coeffs)))
    return math.copysign(1.0, i0 if abs(i0) > 1e-10 * scale * pair.a else _center_slope(pair))


def _center_slope(pair: Eigenpair) -> float:
    """Trace slope of the odd profile family at the window center, if it has
    one and the slope is nonzero; else the trace value there."""
    d_odd = dict(_window_layout(pair)[1]).get("odd")
    if d_odd is not None:
        _, t = _rates(pair.n, pair.kappa1)
        # odd profiles have slope 1/scale at the center
        inv_scale = np.exp(-np.asarray(window_profile_scale_log(t, pair.a, "odd")))
        slope = float(_ROOT2_PI * np.sum(d_odd * inv_scale))
        if slope != 0.0:
            return slope
    # even profiles have slope 0 there and a value of about 1/scale
    return float(window_trace(pair, np.array([0.0]))[0])


# ---------------------------------------------------------------------------
# traces, integrals, tails
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def window_trace(pair: Eigenpair, x_local) -> np.ndarray:
    """Boundary trace psi(x1, 0) over the window, x measured from its center."""
    return _ROOT2_PI * _window_sum(pair, np.asarray(x_local, dtype=float))


def window_integral(pair: Eigenpair, rate: float) -> float:
    """Weighted window-trace integral int_{-a}^{a} psi(x,0) e^(rate*x) dx.

    64-node Gauss-Legendre quadrature.  The evanescent profiles peak at the window
    edges over a width 1/nu_N, which 64 nodes resolve while N a is a few hundred:
    at rate 0 it meets the closed form to 6e-15 relative up to N = 80 at a <= 3.5
    (7e-13 at a = 5), but only to 3.1e-11 at N = 160 and 1.9e-8 at N = 320
    (two-odd, a = 3.5, l = 6).
    """
    x = pair.a * _GL_NODES
    vals = window_trace(pair, x) * np.exp(rate * x)
    return float(pair.a * np.sum(_GL_WEIGHTS * vals))


def _tail(pair: Eigenpair, j: int, rate: float) -> float:
    """Amplitude sqrt(2/pi) B_{j+1} e^(rate a) of the single-window outside
    mode j + 1, B_{j+1} e^(-rate (x1 - a)) its profile past the window."""
    return _ROOT2_PI * float(pair.outside_coeffs[j]) * math.exp(rate * pair.a)


def extract_tail(pair: Eigenpair) -> float:
    """Leading-tail amplitude alpha with psi ~ alpha e^(-kappa1 x1) sin x2.

    For a single-window bound state the first outside coefficient gives
    alpha = sqrt(2/pi) * B_1 * e^(kappa1 a) directly.
    """
    if pair.kind.is_two_window:
        raise ValueError("tail amplitude in this convention applies to single-window pairs")
    if pair.kappa1 == 0.0:
        raise ValueError("threshold resonances carry a constant tail, not a decaying one")
    return _tail(pair, 0, pair.kappa1)


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
    kap, _ = _rates(n, pair.kappa1)
    center, _ = _window_layout(pair)
    out = np.zeros_like(x1)
    sign = np.where(x1 >= 0.0, 1.0, 1.0 if pair.kind.parity == "even" else -1.0)
    ax = np.abs(x1)
    m_reg1 = ax < center - pair.a
    m_win = (~m_reg1) & (ax <= center + pair.a)
    m_out = ax > center + pair.a
    if np.any(m_reg1):
        g = axial_eval(kap[:, None], ax[m_reg1][None, :], center - pair.a, pair.kind.parity)
        out[m_reg1] = pair.region1_coeffs @ (g * _sin_modes(n, x2[m_reg1]))
    if np.any(m_win):
        out[m_win] = _window_sum(pair, ax[m_win] - center, _cos_modes(n, x2[m_win]))
    if np.any(m_out):
        e = np.exp(-kap[:, None] * (ax[m_out] - center - pair.a)[None, :])
        out[m_out] = pair.outside_coeffs @ (e * _sin_modes(n, x2[m_out]))
    out *= sign
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

def _threshold_resonance(root: Root, index: int) -> CriticalWidth:
    """The ``index``-th critical width, a width sector's root, with its resonance,
    normalized to a unit constant tail, and that resonance's second-mode tail ``beta``."""
    pair = _build_pair(*root.at)
    b1 = float(pair.outside_coeffs[0])
    if b1 == 0.0:
        raise ArithmeticError(f"degenerate threshold resonance at a={root.x}: no constant tail")
    pair = _divided(pair, b1)
    return CriticalWidth(index=index, beta=_tail(pair, 1, math.sqrt(3.0)), resonance=pair)


def find_critical_widths(n_max: int, trunc: Truncation = Truncation(),
                         tol: float = 1e-12, a_max: float = A_MAX) -> CriticalWidthScan:
    """First ``n_max`` critical window half-lengths, ascending over both parities.

    Critical widths alternate between the two longitudinal parities (each
    new bound state emerges with one more sign change), so the threshold
    systems of both parities are counted over a in (``A_MIN``, ``a_max``]
    and their roots merged.  Each resonance is normalized to a unit
    constant tail; ``beta`` is then sqrt(2/pi) * B_2 * e^(sqrt(3) a).  If
    fewer than ``n_max`` roots exist below ``a_max`` (by the counts at the
    sector ends) the scan is flagged exhausted.  The two parities' brackets
    are merged (:func:`modeguide.roots.merged_roots`), and a bracket is
    polished only when it holds the next width or overlaps the one that
    does, so no root past the last one returned is.
    """
    _check_tol(tol)
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    ranges = []
    for parity in ("even", "odd"):
        sec = _width_sector(trunc, parity, a_max, tol)
        ranges.append((sec, count(sec, sec.lo), count(sec, sec.hi)))
    counted = sum(hi.roots - lo.roots for _, lo, hi in ranges)
    widths = [_threshold_resonance(root, i) for i, root in
              enumerate(itertools.islice(merged_roots(ranges), n_max), start=1)]
    return CriticalWidthScan(widths=widths, exhausted=counted < n_max, a_max=a_max)


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


def _ladder(sector_at_n, solve, first, value, n: int, levels: int, k: int,
            x_of=lambda v: v) -> RefinedValue:
    """Re-locate ``first``, root k of its sector at truncation n, at 2n, 4n, ..., and fit N -> oo.

    ``first`` is the first rung as it stands.  ``sector_at_n(tr)`` is its root's sector at
    truncation tr, ``solve(root)`` a rung's solution, ``value`` the number fitted and
    ``x_of(v)`` = v or 1 - v its x in that sector.  Each rung takes root k of its sector
    (:func:`~modeguide.roots.kth_root`), counting from a window in v that the O(1/N) drift
    predicts: for rung 2n centred at ``value(first)``, of half-width |v| / 2n, the drift's
    scale; for every later one at the previous v plus half the last rung-to-rung step (the
    step halves with each doubling of N), of half-width an eighth of that step, but at least
    ``sqrt(eps) |v|``.  A rung without root k raises :class:`NotBoundError`.
    """
    if levels < 1:
        raise ValueError(f"a ladder needs levels >= 1, got {levels}")
    ns = [n * (2 ** j) for j in range(levels + 1)]
    vals, solutions = [value(first)], {n: first}
    for rung in ns[1:]:
        if len(vals) == 1:
            v0, width = vals[-1], abs(vals[-1]) / rung
        else:
            step = vals[-1] - vals[-2]
            v0, width = vals[-1] + 0.5 * step, max(abs(step) / 8.0, _SQRT_EPS * abs(vals[-1]))
        root = kth_root(sector_at_n(Truncation(rung)), x_of(v0), width, k)
        if root is None:
            raise NotBoundError(f"no bound state at N = {rung} of root {k} at {vals[0]!r} (N = {n})", rung)
        solutions[rung] = solve(root)
        vals.append(value(solutions[rung]))
    v_inf = extrapolate_truncation(ns[-3:], vals[-3:], exponents=(1.0, 1.5))
    two_point = 2.0 * vals[-1] - vals[-2]
    err = abs(v_inf - two_point) + 1e-15 * abs(v_inf)
    return RefinedValue(value=v_inf, error=err, by_n=dict(zip(ns, vals)), solutions=solutions)


def refine_eigenvalue(pair: Eigenpair, levels: int = REFINE_LEVELS,
                      tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of a pair of :func:`find_eigenvalues` toward N -> infinity.

    The pair is the first rung, and its ``kind``, ``a`` and ``l`` are every rung's system.
    Each later rung takes the root of the pair's ``index`` from the deepest state, as states
    leave a sector only through the threshold, and raises :class:`NotBoundError` if it has
    none; it searches a window that the O(1/N) drift predicts (see :func:`_ladder`).  The
    O(1/N) window-corner error is extrapolated with a two-exponent fit.
    """
    _check_tol(tol)
    if pair.index is None:
        raise ValueError("the pair has no index in its sector: refine a pair of find_eigenvalues")
    return _ladder(lambda tr: _u_sector(pair, tr, tol), lambda root: _solve_at(root, pair.index),
                   pair, lambda p: p.lam, pair.n, levels, -pair.index, lambda lam: 1.0 - lam)


def refine_critical_width(width: CriticalWidth, levels: int = REFINE_LEVELS,
                          tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of a width of :func:`find_critical_widths`, its first rung:
    widths alternate in parity from a_1 odd, so width n is root (n + 1) // 2 of its sector."""
    _check_tol(tol)
    a_max = max(A_MAX, 2.0 * width.a)
    return _ladder(lambda tr: _width_sector(tr, width.parity, a_max, tol),
                   lambda root: _threshold_resonance(root, width.index),
                   width, lambda w: w.a, width.resonance.n, levels, (width.index + 1) // 2)
