"""Geometry and transverse-mode primitives for a strip with Neumann windows.

The domain is a planar strip {0 < x2 < d} with Dirichlet walls except for
one or two "windows" on the bottom wall (segments of half-length ``a``
where the condition switches to Neumann).  Everything downstream works in
canonical units where the strip width is pi, so that

* outside a window the transverse basis is sin(j*x2), j = 1, 2, ... with
  longitudinal decay rates kappa_j(lam) = sqrt(j^2 - lam),
* across a window the bottom condition is Neumann, the basis is
  cos((m - 1/2)*x2), m = 1, 2, ... and the squared longitudinal rates are
  nu_m^2 = (m - 1/2)^2 - lam (negative for m = 1 once lam > 1/4: the first
  window mode oscillates).

This module provides the geometry types, the canonical rescaling, the two
mode families, the overlap coefficients between them, and the
longitudinal window profiles.  These take the squared rates of
:func:`~modeguide.matching._rates` at lam >= 1/4, where exactly the first
window mode oscillates (t_1 <= 0) and every other is evanescent
(t_m >= 5/4): each family is evaluated with its own real formula, so no
complex arithmetic is needed anywhere.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "GridAlignmentError",
    "ProblemKind",
    "StripConfig",
    "CanonicalConfig",
    "canonicalize",
    "overlap_matrix",
    "window_profile_at_edge",
    "window_profile_eval",
    "window_profile_l2",
    "window_profile_integral",
    "window_profile_scale_log",
    "axial_logderiv",
    "axial_eval",
    "axial_l2",
]


class GeometryError(ValueError):
    """Raised when a strip configuration violates a geometric constraint."""


class GridAlignmentError(ValueError):
    """A geometric length does not sit on the finite-difference grid."""


class ProblemKind(enum.Enum):
    """Problem variant: window count plus longitudinal parity sector.

    For a single window (centered at x1 = 0) the parity is that of the
    eigenfunction under x1 -> -x1.  For two windows (centered at x1 = -l
    and x1 = +l) the parity refers to the mirror plane between them; the
    even sector carries a Neumann condition on that plane, the odd sector
    a Dirichlet one.
    """

    SINGLE_WINDOW_EVEN = "single-even"
    SINGLE_WINDOW_ODD = "single-odd"
    TWO_WINDOW_EVEN = "two-even"
    TWO_WINDOW_ODD = "two-odd"

    @property
    def is_two_window(self) -> bool:
        return self in (ProblemKind.TWO_WINDOW_EVEN, ProblemKind.TWO_WINDOW_ODD)

    @property
    def parity(self) -> str:
        if self in (ProblemKind.SINGLE_WINDOW_EVEN, ProblemKind.TWO_WINDOW_EVEN):
            return "even"
        return "odd"


@dataclass(frozen=True)
class StripConfig:
    """Strip geometry: width ``d``, window half-length ``a``, half-separation ``l``.

    ``l`` is the distance from the mirror plane to each window center and is
    required (with l > a, so the windows are disjoint) for the two-window
    kinds; it must be omitted for the single-window kinds.
    """

    d: float
    a: float
    kind: ProblemKind
    l: float | None = None

    def __post_init__(self) -> None:
        if not (self.d > 0):
            raise GeometryError(f"strip width must satisfy d > 0, got d={self.d}")
        if not (self.a > 0):
            raise GeometryError(f"window half-length must satisfy a > 0, got a={self.a}")
        if self.kind.is_two_window:
            if self.l is None:
                raise GeometryError("two-window kinds require the half-separation l")
            if not (self.l > self.a):
                raise GeometryError(
                    f"windows must be disjoint: require l > a, got l={self.l}, a={self.a}"
                )
        elif self.l is not None:
            raise GeometryError("single-window kinds take no half-separation l")


@dataclass(frozen=True)
class CanonicalConfig:
    """A :class:`StripConfig` rescaled to width pi, plus the spectral map.

    ``lambda_scale`` is (pi/d)^2 for the original width d, so that physical
    eigenvalues are recovered from canonical ones via
    lam_phys = lambda_scale * lam_canon.
    """

    base: StripConfig
    lambda_scale: float

    def __post_init__(self) -> None:
        if self.base.d != math.pi:
            raise GeometryError("canonical configuration must have d = pi")

    def to_physical(self, lam_canon: float) -> float:
        return self.lambda_scale * lam_canon

    def to_canonical(self, lam_phys: float) -> float:
        return lam_phys / self.lambda_scale


def canonicalize(cfg: StripConfig) -> CanonicalConfig:
    """Rescale a strip configuration to canonical width pi.

    Lengths scale by pi/d and eigenvalues by (d/pi)^2; round-tripping a
    spectral value through ``lambda_scale`` and its reciprocal is the
    identity.  The similarity is exact, so two configurations related by a
    uniform dilation produce the identical canonical problem.
    """
    s = math.pi / cfg.d
    base = StripConfig(
        d=math.pi,
        a=s * cfg.a,
        l=None if cfg.l is None else s * cfg.l,
        kind=cfg.kind,
    )
    return CanonicalConfig(base=base, lambda_scale=s * s)


# ---------------------------------------------------------------------------
# Overlap coefficients between the two transverse bases
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def overlap_matrix(n: int) -> np.ndarray:
    """Overlaps M[j-1, m-1] of the normalized outside and window modes, 1 <= j, m <= n.

    M_jm = int_0^pi sqrt(2/pi) sin(j x2) * sqrt(2/pi) cos((m-1/2) x2) dx2
         = (2/pi) * j / (j^2 - (m - 1/2)^2),
    whose denominator never vanishes (integer vs half-integer).  Memoised
    per n; the shared array is read-only.
    """
    j = np.arange(1, n + 1, dtype=float)[:, None]
    half = (np.arange(1, n + 1, dtype=float) - 0.5)[None, :]
    M = (2.0 / math.pi) * j / (j * j - half * half)
    M.setflags(write=False)
    return M


# ---------------------------------------------------------------------------
# Interface-normalized window profiles
#
# The longitudinal factor of the m-th window mode is even (cos/cosh-like
# about the window center) or odd (sin/sinh-like).  The evaluators take the
# squared rates t_m of :func:`~modeguide.matching._rates` along the last
# axis, at lam >= 1/4: the first mode oscillates with w = sqrt(-t_1)
# (t_1 <= 0) and keeps scale one, profile cos(w x) or sin(w x)/w; the rest
# are evanescent with nu = sqrt(t_m) >= sqrt(5/4) and are normalized to
# unit value at the window edge x = a, which keeps every matrix entry
# bounded no matter how large nu*a gets.
# ---------------------------------------------------------------------------

def _families(t, parity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared rates t with w = sqrt(-t_1) of the oscillatory first mode and
    nu = sqrt(t_m) of the evanescent rest, for a profile of the given parity."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    t = np.asarray(t, dtype=float)
    return t, np.sqrt(-t[..., 0]), np.sqrt(t[..., 1:])


def _sinc(t, x):
    """sin(w x)/w of the oscillatory rate w = sqrt(-t), by its series near w x = 0."""
    w = np.sqrt(-t)
    u = w * x
    series = x * (1.0 + t * x * x / 6.0 + t * t * x ** 4 / 120.0)
    return np.where(np.abs(u) < 1e-4, series, np.sin(u) / w)


def window_profile_scale_log(t, a: float, parity: str) -> np.ndarray:
    """log of the normalization applied to each window profile (0 for the oscillatory one).

    ``t`` holds squared rates from :func:`~modeguide.matching._rates` at
    lam > 1/4 along its last axis (entry 0 < 0 < entries 1:), 1-D or
    stacked; entry 0 == 0 gives the w -> 0 limit but may warn, and other
    rates give NaN.
    """
    t, _, nu = _families(t, parity)
    u = nu * a
    out = np.zeros_like(t)
    if parity == "even":
        # log cosh(u) = u + log1p(exp(-2u)) - log 2
        out[..., 1:] = u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)
    else:
        # log (sinh(u)/nu) = u + log(-expm1(-2u)) - log 2 - log nu, exact to u -> 0
        out[..., 1:] = u + np.log(-np.expm1(-2.0 * u)) - math.log(2.0) - np.log(nu)
    return out


def window_profile_at_edge(t, a: float, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """Value and x-derivative of the normalized window profile at x = +a.

    Returns arrays (value, derivative) over the rate entries ``t``.  For
    evanescent entries the value is exactly 1 and the derivative is
    nu*tanh(nu*a) (even) or nu/tanh(nu*a) (odd), both safely bounded.
    ``t`` holds squared rates from :func:`~modeguide.matching._rates` at
    lam > 1/4 along its last axis (entry 0 < 0 < entries 1:), 1-D or
    stacked; entry 0 == 0 gives the w -> 0 limit but may warn, and other
    rates give NaN.
    """
    t, w, nu = _families(t, parity)
    u = nu * a
    val = np.ones_like(t)
    der = np.empty_like(t)
    if parity == "even":
        val[..., 0] = np.cos(w * a)
        der[..., 0] = -w * np.sin(w * a)
        der[..., 1:] = nu * np.tanh(u)
    else:
        val[..., 0] = _sinc(t[..., 0], a)
        der[..., 0] = np.cos(w * a)
        der[..., 1:] = np.where(u > 1e-6, nu / np.tanh(u), 1.0 / a + t[..., 1:] * a / 3.0)
    return val, der


def window_profile_eval(t, x, a: float, parity: str) -> np.ndarray:
    """Normalized window profiles at positions x: one row per rate of ``t``, one column per x.

    Evanescent rows use overflow-free ratios cosh(nu x)/cosh(nu a) and
    sinh(nu x)/sinh(nu a); the oscillatory row is the plain trigonometric
    profile.  ``t`` is a 1-D vector of squared rates from
    :func:`~modeguide.matching._rates` at lam > 1/4 (entry 0 < 0 <
    entries 1:) and ``x`` a 1-D array; entry 0 == 0 gives the w -> 0 limit
    but may warn, and other rates give NaN.
    """
    t, w, nu = _families(t, parity)
    x = np.asarray(x, dtype=float)
    nu = nu[:, None]
    ax = np.abs(x)
    # ratio of exponentials, everything in [0, 1]
    e_gap = np.exp(-nu * (a - ax))
    out = np.empty((t.size, x.size))
    if parity == "even":
        out[0] = np.cos(w * x)
        out[1:] = e_gap * (1.0 + np.exp(-2.0 * nu * ax)) / (1.0 + np.exp(-2.0 * nu * a))
    else:
        out[0] = _sinc(t[0], x)
        # expm1 keeps 1 - exp(-2 nu x) to full precision as nu x -> 0
        out[1:] = np.sign(x) * e_gap * np.expm1(-2.0 * nu * ax) / np.expm1(-2.0 * nu * a)
    return out


def window_profile_l2(t, a: float, parity: str) -> np.ndarray:
    """Closed-form integral of the squared normalized profile over (-a, a).

    ``t`` holds squared rates from :func:`~modeguide.matching._rates` at
    lam > 1/4 along its last axis (entry 0 < 0 < entries 1:), 1-D or
    stacked; entry 0 == 0 gives the w -> 0 limit but may warn, and other
    rates give NaN.
    """
    t, w, nu = _families(t, parity)
    t1, tm = t[..., 0], t[..., 1:]
    u1, u = w * a, nu * a
    sech = _sech(u)
    half_sin = 0.5 * _sinc(t1, 2.0 * a)
    out = np.empty_like(t)
    if parity == "even":
        # cos(w x): a + sin(2u)/(2w); cosh(nu x)/cosh(nu a): a*sech^2 + tanh(u)/nu
        out[..., 0] = a + half_sin
        out[..., 1:] = a * sech * sech + np.where(u > 1e-6, np.tanh(u) / nu, a * (1.0 - tm * a * a / 3.0))
    else:
        # sin(w x)/w: (a - sin(2u)/(2w))/w^2; sinh(nu x)/sinh(nu a): coth(u)/nu - a*csch^2(u);
        # both cancel to about eps/u^2, so below u = 0.07 their series in s = t*a^2 serve,
        # whose first omitted term is about 1e-16 relative there or less
        s1, s = t1 * a * a, tm * a * a
        out[..., 0] = np.where(u1 > 0.07, (a - half_sin) / -t1, 2.0 * a ** 3 / 3.0 * (
            1.0 + s1 * (1.0 / 5.0 + s1 * (2.0 / 105.0 + s1 * (1.0 / 945.0 + s1 * (2.0 / 51975.0))))))
        csch = sech / np.tanh(u)
        out[..., 1:] = np.where(u > 0.07, 1.0 / (nu * np.tanh(u)) - a * csch * csch, 2.0 * a / 3.0 * (
            1.0 + s * (-2.0 / 15.0 + s * (2.0 / 105.0 + s * (-4.0 / 1575.0 + s * (2.0 / 6237.0))))))
    return out


def window_profile_integral(t, a: float, parity: str) -> np.ndarray:
    """Closed-form integral of each normalized profile over (-a, a).

    Odd profiles integrate to 0; the even ones to 2 sin(w a)/w (oscillatory) and
    2 tanh(nu a)/nu (evanescent, nu >= sqrt(5)/2 for every rate of
    :func:`~modeguide.matching._rates`).  ``t`` is a 1-D vector of squared rates
    from :func:`~modeguide.matching._rates` at lam > 1/4.
    """
    t, _, nu = _families(t, parity)
    out = np.zeros_like(t)
    if parity == "even":
        out[0] = 2.0 * _sinc(t[0], a)
        out[1:] = 2.0 * np.tanh(nu * a) / nu
    return out


def _sech(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


# ---------------------------------------------------------------------------
# Axial profiles for the region between the mirror plane and a window
# (two-window problems). Normalized by cosh(kappa*L) so that every value on
# [0, L] stays in [-1, 1]; only the logarithmic derivative at x = L enters
# the matching matrix.
# ---------------------------------------------------------------------------

def axial_logderiv(kappa, L: float, plane: str) -> np.ndarray:
    """g'(L)/g(L) for g = cosh(kappa x) (Neumann plane) or sinh (Dirichlet plane)."""
    kappa = np.asarray(kappa, dtype=float)
    u = kappa * L
    if plane == "even":
        out = kappa * np.tanh(u)
    elif plane == "odd":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u > 1e-6, kappa / np.tanh(np.where(u == 0, 1.0, u)), 1.0 / L + kappa * u / 3.0)
    else:
        raise ValueError(f"plane parity must be 'even' or 'odd', got {plane!r}")
    return out


def axial_eval(kappa, x, L: float, plane: str) -> np.ndarray:
    """Normalized axial profile cosh(kappa x)/cosh(kappa L) or sinh(.)/cosh(.)."""
    kappa = np.asarray(kappa, dtype=float)
    x = np.asarray(x, dtype=float)
    kappa, x = np.broadcast_arrays(kappa, x)
    e_gap = np.exp(-kappa * (L - x))
    e_x = np.exp(-2.0 * kappa * x)
    e_L = np.exp(-2.0 * kappa * L)
    if plane == "even":
        return e_gap * (1.0 + e_x) / (1.0 + e_L)
    if plane == "odd":
        return e_gap * (1.0 - e_x) / (1.0 + e_L)
    raise ValueError(f"plane parity must be 'even' or 'odd', got {plane!r}")


def axial_l2(kappa, L: float, plane: str) -> np.ndarray:
    """Integral over (0, L) of the squared normalized axial profile."""
    kappa = np.asarray(kappa, dtype=float)
    u = kappa * L
    sech = _sech(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(u > 1e-4, np.tanh(u) / (2.0 * np.where(kappa == 0, 1.0, kappa)), L / 2.0 * (1.0 - u * u / 3.0))
    if plane == "even":
        return L * sech * sech / 2.0 + tail
    if plane == "odd":
        body = -L * sech * sech / 2.0 + tail
        small = u < 1e-3
        series = kappa * kappa * L ** 3 / 3.0 * (1.0 - 4.0 * u * u / 5.0)
        return np.where(small, series, body)
    raise ValueError(f"plane parity must be 'even' or 'odd', got {plane!r}")
