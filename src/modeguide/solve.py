"""Eigenvalue location, eigenfunctions, tail amplitudes, critical widths.

Roots are located by count (Wittrick-Williams).  The matching system is
the symmetric trace form S of :func:`~modeguide.matching.trace_form`,
assembled only through :func:`_assemble_at` and
:func:`~modeguide.matching.assemble_threshold`, and the number of
negative eigenvalues of S plus the closed-form poles below a point
(:func:`~modeguide.matching.pole_count`) rises by exactly one across each
root.  A search counts at the ends of its interval, bisects on the
count until every bracket holds one root and no pole, and polishes each
bracket with Brent's method on the determinant of S, whose sign changes
only at the root there, to a bracket of ``tol / 10``.  The roots found
must number what the count says, so none is dropped silently.  The same
count serves the three variables: lam (single and two windows), kappa =
sqrt(1 - lam) near the threshold, and the window half-length a of the
threshold system.  The truncation ladder takes the root of the same index
at each rung.

Each root is confirmed through the eigenvalue of S smallest in modulus;
its eigenvector holds the window-edge traces, from which the window,
region-1 and outside coefficients and the L2 normalization follow in
closed form (the transverse bases are orthonormal, so the norm is a sum
of one-dimensional longitudinal integrals).

Two solver extensions matter in practice:

* Near the continuum threshold the natural variable is the decay rate
  kappa = sqrt(1 - lam), not lam itself: eigenvalues exponentially close
  to 1 are counted and polished in kappa, down to 1e-13, where 1 - lam
  would underflow.  The even two-window sector always gets this extra
  search.
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
from typing import Callable

import numpy as np

from .matching import (
    MatchingSystem,
    Truncation,
    _assemble_single_core,
    _assemble_two_core,
    _rates,
    assemble_threshold,
    pole_count,
)
# unused here: bound only because perfbench/tracing.py wraps it on this module
from .matching import det_sign  # noqa: F401
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
    "SEARCH_EPS",
    "RESIDUAL_GATE",
]

#: clip of the search interval away from 1/4 and 1
SEARCH_EPS = 1e-6
#: largest relative kernel residual |mu|/max|mu| of an accepted root, mu the
#: eigenvalue of S smallest in modulus; roots polished to a bracket of tol/10
#: have residuals below tol/160 (at most 6.0e-3 tol over single- and
#: two-window sectors at N = 12 and 40, for tol from 1e-12 to 1e-3), so every
#: tol up to about 1.7e-6 passes (all up to 1e-5 did; 3e-5 failed)
RESIDUAL_GATE = 1e-8
#: kappa window of the near-threshold search of the even two-window sector
NEAR_THRESHOLD_KAPPA = (1e-13, 1e-3)
#: relative tolerance of near-threshold kappa roots (polished to a tenth of it);
#: at large separations rounding in S limits the root itself to about 1e-8
#: relative (a = a_1, N = 40, l = 6: kappa = 1.17e-7, the smallest eigenvalue
#: of S stays at rounding level across a relative 3e-8 of it)
KAPPA_RTOL = 1e-12
#: window half-lengths of the critical-width search: (A_MIN, a_max], A_MAX by default
A_MIN = 1e-3
A_MAX = 8.0
#: half-width of a ladder rung's first search window, in the sector's variable
LADDER_WIDTH = 1e-3

_EPS = float(np.finfo(float).eps)

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
# root location by count
# ---------------------------------------------------------------------------

def _check_tol(tol: float) -> None:
    """The tolerance rule of every solver entry point (NaN fails it too)."""
    if not tol >= 1e-14:
        raise ValueError(f"bracketing tolerance below 1e-14 is not resolvable, got {tol}")


@dataclass(frozen=True)
class _Sector:
    """One system's roots as a function of a scalar x on [lo, hi].

    ``form(x)`` is the trace form S at x and its pole count.  ``sense`` is -1
    when x runs against lam (x = kappa), so that ``sense * (negative
    eigenvalues + poles)`` is the number of roots below x up to a constant.
    Count bisection halves geometrically when ``geometric`` is set; the
    polish stops at a bracket width of ``xtol + rtol * |x|``.
    """

    form: Callable[[float], tuple[np.ndarray, int]]
    lo: float
    hi: float
    xtol: float
    rtol: float = 4.0 * _EPS
    sense: int = 1
    geometric: bool = False


def _form_at_kappa(cfg: CanonicalConfig, trunc: Truncation):
    b = cfg.base
    return lambda kappa1: (_assemble_at(cfg, trunc, kappa1).matrix, pole_count(b.kind, b.a, kappa1))


def _lam_sector(cfg: CanonicalConfig, trunc: Truncation, tol: float) -> _Sector:
    form = _form_at_kappa(cfg, trunc)
    return _Sector(lambda lam: form(math.sqrt(1.0 - lam)), 0.25 + SEARCH_EPS, 1.0 - SEARCH_EPS,
                   tol / 10.0)


def _kappa_sector(cfg: CanonicalConfig, trunc: Truncation, kappa_lo: float,
                  kappa_hi: float) -> _Sector:
    return _Sector(_form_at_kappa(cfg, trunc), kappa_lo, kappa_hi, 0.0, KAPPA_RTOL / 10.0,
                   sense=-1, geometric=True)


def _width_sector(trunc: Truncation, parity: str, a_max: float, tol: float) -> _Sector:
    kind = ProblemKind(f"single-{parity}")

    def form(a):
        return assemble_threshold(a, trunc, parity).matrix, pole_count(kind, a, 0.0)
    return _Sector(form, A_MIN, a_max, tol / 10.0)


@dataclass(frozen=True)
class _Count:
    """Inertia of a sector's trace form at x."""

    x: float
    roots: int      # roots below x, up to a constant of the sector
    poles: int
    sign: float     # sign of det S
    logdet: float   # log |det S|


def _count(sec: _Sector, x: float) -> _Count:
    S, poles = sec.form(x)
    mu = np.linalg.eigvalsh(S)
    neg = int(np.count_nonzero(mu < 0.0))
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(np.abs(mu))))
    return _Count(x, sec.sense * (neg + poles), poles, -1.0 if neg % 2 else 1.0, logdet)


def _isolate(sec: _Sector, lo: _Count, hi: _Count):
    """Brackets of (lo, hi] holding one root and no pole each, ascending, by count bisection."""
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        if hi.roots <= lo.roots:
            continue
        if hi.roots == lo.roots + 1 and hi.poles == lo.poles:
            yield lo, hi
            continue
        if hi.x - lo.x <= sec.xtol + sec.rtol * abs(hi.x):
            raise ArithmeticError(f"roots or poles closer than the tolerance at x={hi.x!r}")
        mid = _count(sec, math.sqrt(lo.x * hi.x) if sec.geometric else 0.5 * (lo.x + hi.x))
        stack += [(mid, hi), (lo, mid)]


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """Root of f in the sign-change bracket [a, b] (Brent 1973, ch. 4, zeroin).

    Secant and inverse quadratic steps, with bisection whenever they do not
    shrink the bracket fast enough; returns the end of the final bracket,
    of width at most ``xtol + rtol * |root|``, at which |f| is smaller.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * (xtol + rtol * abs(b))
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol1:
            return float(b)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def _polish(sec: _Sector, lo: _Count, hi: _Count) -> float | None:
    """The root of a one-root, pole-free bracket, by Brent's method on det S.

    Across such a bracket det S changes sign once, at the root.  The values
    are scaled by det S(lo) and clipped to e^+-700, so they stay finite.
    None when the determinant keeps its sign (the count was wrong).
    """
    if lo.sign == hi.sign:
        return None
    for end in (lo, hi):
        if end.logdet == -math.inf:
            return end.x

    def scaled(sign, logdet):
        return float(sign) * math.exp(min(max(logdet - lo.logdet, -700.0), 700.0))

    def f(x):
        return scaled(*np.linalg.slogdet(sec.form(x)[0]))
    return _brent(f, lo.x, hi.x, scaled(lo.sign, lo.logdet), scaled(hi.sign, hi.logdet),
                  sec.xtol, sec.rtol)


def _sector_roots(sec: _Sector) -> list[float]:
    """Every root of the sector in (lo, hi], ascending.

    Raises ArithmeticError when the roots found are fewer than the count
    across the sector, so that no root is lost silently.
    """
    lo, hi = _count(sec, sec.lo), _count(sec, sec.hi)
    roots = [x for x in (_polish(sec, *b) for b in _isolate(sec, lo, hi)) if x is not None]
    if len(roots) != hi.roots - lo.roots:
        raise ArithmeticError(f"found {len(roots)} roots in [{sec.lo!r}, {sec.hi!r}] "
                              f"where the count gives {hi.roots - lo.roots}")
    return roots


def _kth_root(sec: _Sector, x0: float, width: float, k: int | None) -> tuple[float, int]:
    """Root k of the sector (1-based from ``sec.lo``), searched from x0 +- width.

    The window doubles until it brackets the root.  With k None, the root
    is the first one the doubling window meets.  Returns the root and k.
    """
    base = _count(sec, sec.lo).roots

    def at(x):
        return _count(sec, min(max(x, sec.lo), sec.hi))
    width = max(width, sec.xtol + sec.rtol * abs(x0))
    lo, hi = at(x0 - width), at(x0 + width)
    while (hi.roots == lo.roots if k is None else not lo.roots < base + k <= hi.roots):
        if lo.x == sec.lo and hi.x == sec.hi:
            which = "no root" if k is None else f"no root {k}"
            raise ArithmeticError(f"{which} in [{sec.lo!r}, {sec.hi!r}] near {x0!r}")
        width *= 2.0
        lo, hi = at(x0 - width), at(x0 + width)
    if k is None:
        k = lo.roots - base + 1
    bracket = next((b for b in _isolate(sec, lo, hi) if b[1].roots == base + k), None)
    root = None if bracket is None else _polish(sec, *bracket)
    if root is None:
        raise ArithmeticError(f"root {k} near {x0!r} does not change the sign of det S")
    return root, k


def find_eigenvalues(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                     tol: float = 1e-12) -> list[Eigenpair]:
    """All simple matching-determinant roots in (1/4, 1), as normalized pairs.

    The search interval is clipped by ``SEARCH_EPS`` at both ends; the even
    two-window sector is additionally searched in kappa = sqrt(1 - lam) down
    to 1e-13 (:func:`find_near_threshold`), which locates eigenvalues whose
    distance to the threshold is below double resolution of lam itself.
    Each root is bracketed by the count and polished to ``tol / 10``.  An
    empty list is a legitimate outcome (e.g. the odd single-window sector
    below the first critical width).  Results are sorted by ascending
    eigenvalue.
    """
    _check_tol(tol)
    pairs = [_solve_at(cfg, trunc, lam=root) for root in _sector_roots(_lam_sector(cfg, trunc, tol))]
    if cfg.base.kind is ProblemKind.TWO_WINDOW_EVEN:
        pairs += find_near_threshold(cfg, trunc, *NEAR_THRESHOLD_KAPPA)
    pairs.sort(key=lambda p: p.lam)
    return pairs


def find_near_threshold(cfg: CanonicalConfig, trunc: Truncation = Truncation(),
                        kappa_lo: float = 1e-13, kappa_hi: float = 0.05) -> list[Eigenpair]:
    """Even two-window eigenvalues with kappa = sqrt(1 - lam) in (kappa_lo, kappa_hi].

    Counts and polishes in kappa itself (relative tolerance ``KAPPA_RTOL``),
    so roots are located even when 1 - lam is below double-precision
    resolution of lam; at large separations the root carries about 8
    correct digits (about 1e-8 relative at l = 6, see ``KAPPA_RTOL``), the
    rest being rounding noise of S.  Returns pairs sorted by descending
    kappa (deepest first); usually there is exactly one at a critical
    window width.
    """
    if cfg.base.kind is not ProblemKind.TWO_WINDOW_EVEN:
        raise ValueError("near-threshold states live in the even two-window sector")
    roots = _sector_roots(_kappa_sector(cfg, trunc, kappa_lo, kappa_hi))
    return [_solve_at(cfg, trunc, kappa1=kap) for kap in reversed(roots)]


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

def _assemble_at(cfg: CanonicalConfig, trunc: Truncation, kappa1: float) -> MatchingSystem:
    """The configuration's matching system at kappa1 = sqrt(1 - lam)."""
    b = cfg.base
    if b.kind.is_two_window:
        return _assemble_two_core(b.kind, trunc.n, b.a, kappa1, b.l)
    return _assemble_single_core(b.kind, trunc.n, b.a, kappa1)


def _kernel_vector(sys: MatchingSystem) -> tuple[np.ndarray, float]:
    """Eigenvector of S for its eigenvalue mu smallest in modulus, and |mu|/max|mu|."""
    mu, vecs = np.linalg.eigh(sys.matrix)
    i = int(np.argmin(np.abs(mu)))
    return vecs[:, i], float(abs(mu[i]) / np.max(np.abs(mu)))


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


def _build_pair(sys: MatchingSystem, w: np.ndarray, residual: float,
                threshold_profile: bool = False) -> Eigenpair:
    """The pair whose window-edge traces are the kernel vector w of S."""
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
        lam=sys.lam,
        kappa1=sys.kappa1,
        kind=sys.kind,
        a=sys.a,
        l=sys.l,
        n=n,
        window_coeffs=coeffs,
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


def _scale_pair(pair: Eigenpair, divisor: float) -> None:
    # a division leaves the coefficient divided by itself exactly 1
    pair.window_coeffs = pair.window_coeffs / divisor
    pair.outside_coeffs = pair.outside_coeffs / divisor
    if pair.region1_coeffs is not None:
        pair.region1_coeffs = pair.region1_coeffs / divisor


def _normalize(pair: Eigenpair) -> None:
    norm = math.sqrt(_norm_sq(pair))
    _scale_pair(pair, norm)
    pair.norm = 1.0 / norm


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
    _scale_pair(pair, b1)
    pair.norm = 1.0 / b1
    return pair


def find_critical_widths(n_max: int, trunc: Truncation = Truncation(),
                         tol: float = 1e-12, a_max: float = A_MAX) -> CriticalWidthScan:
    """First ``n_max`` critical window half-lengths, ascending over both parities.

    Critical widths alternate between the two longitudinal parities (each
    new bound state emerges with one more sign change), so the threshold
    systems of both parities are counted over a in (``A_MIN``, ``a_max``]
    and their roots merged.  Each resonance is normalized to a unit
    constant tail; ``beta`` is then sqrt(2/pi) * B_2 * e^(sqrt(3) a).  If
    fewer than ``n_max`` roots exist below ``a_max`` the scan is flagged
    exhausted.
    """
    _check_tol(tol)
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    found = sorted((root, parity) for parity in ("even", "odd")
                   for root in _sector_roots(_width_sector(trunc, parity, a_max, tol)))
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


def _ladder(sector_at_n, x: float, trunc: Truncation, levels: int) -> RefinedValue:
    """Re-locate a root at truncations n, 2n, ..., then fit the N -> infinity limit.

    ``sector_at_n(tr)`` is the root's sector at truncation tr.  The first
    rung takes the root nearest x; every later rung takes the root of the
    same index in its sector, searched from the previous rung's root over
    three times the last rung-to-rung step (the root drifts by about half
    that), or ``LADDER_WIDTH`` before there is a step.
    """
    ns = [trunc.n * (2 ** k) for k in range(levels + 1)]
    vals: list[float] = []
    k = None
    for n in ns:
        width = 3.0 * abs(vals[-1] - vals[-2]) if len(vals) >= 2 else LADDER_WIDTH
        x, k = _kth_root(sector_at_n(Truncation(n)), x, width, k)
        vals.append(x)
    v_inf = extrapolate_truncation(ns[-3:], vals[-3:], exponents=(1.0, 1.5))
    two_point = 2.0 * vals[-1] - vals[-2]
    err = abs(v_inf - two_point) + 1e-15 * abs(v_inf)
    return RefinedValue(value=v_inf, error=err, by_n=dict(zip(ns, vals)))


def refine_eigenvalue(cfg: CanonicalConfig, lam0: float, trunc: Truncation = Truncation(),
                      levels: int = 2, tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of one eigenvalue toward N -> infinity.

    Re-locates the root at truncations n, 2n, ..., then extrapolates the
    O(1/N) window-corner error with a two-exponent fit.  Each rung counts
    and polishes only around the previous rung's root.
    """
    _check_tol(tol)
    return _ladder(lambda tr: _lam_sector(cfg, tr, tol), lam0, trunc, levels)


def refine_critical_width(a0: float, parity: str, trunc: Truncation = Truncation(),
                          levels: int = 2, tol: float = 1e-12) -> RefinedValue:
    """Truncation-ladder refinement of a critical width toward N -> infinity."""
    _check_tol(tol)
    a_max = max(A_MAX, 2.0 * a0)
    return _ladder(lambda tr: _width_sector(tr, parity, a_max, tol), a0, trunc, levels)
