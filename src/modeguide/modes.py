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
mode families, the overlap coefficients between them, and branch-stable
longitudinal evaluators that are smooth across the oscillatory/evanescent
crossover (even power series in the rate, so no complex arithmetic is
needed anywhere).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "ProblemKind",
    "StripConfig",
    "CanonicalConfig",
    "canonicalize",
    "stable_cosh",
    "stable_sinhc",
    "overlap_matrix",
    "window_profile_at_edge",
    "window_profile_eval",
    "window_profile_l2",
    "window_profile_scale_log",
    "axial_logderiv",
    "axial_eval",
    "axial_l2",
]


class GeometryError(ValueError):
    """Raised when a strip configuration violates a geometric constraint."""


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
# Branch-stable longitudinal evaluators
# ---------------------------------------------------------------------------

def stable_cosh(t, x):
    """cosh(sqrt(t)*x) for t >= 0, cos(sqrt(-t)*x) for t < 0.

    Entire in t (even power series in the rate), hence smooth across the
    oscillatory/evanescent crossover at t = 0.  Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.abs(t))
    with np.errstate(over="ignore"):
        out = np.where(t >= 0.0, np.cosh(r * x), np.cos(r * x))
    return out if out.ndim else float(out)


def stable_sinhc(t, x):
    """sinh(sqrt(t)*x)/sqrt(t) for t > 0, x at t = 0, sin(sqrt(-t)*x)/sqrt(-t) for t < 0.

    Like :func:`stable_cosh` this is entire in t.  The removable point t = 0
    is evaluated through a short series to keep full accuracy near the
    crossover.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.abs(t))
    u = r * x
    small = np.abs(u) < 1e-4
    # series sinh(u)/r = x*(1 + t*x^2/6 + t^2*x^4/120) covers both signs of t
    series = x * (1.0 + t * x * x / 6.0 + t * t * x ** 4 / 120.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hyp = np.sinh(u) / np.where(r == 0.0, 1.0, r)
        osc = np.sin(u) / np.where(r == 0.0, 1.0, r)
    out = np.where(small, series, np.where(t > 0.0, hyp, osc))
    return out if out.ndim else float(out)


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
# The longitudinal factor of the m-th window mode is cosh-like (even parity
# about the window center) or sinhc-like (odd parity).  Evanescent profiles
# (t > 0) are normalized to unit value at the window edge x = a, which keeps
# every matrix entry bounded no matter how large nu_m * a gets; oscillatory
# profiles (t <= 0) are already bounded and keep scale one.
# ---------------------------------------------------------------------------

def window_profile_scale_log(t, a: float, parity: str) -> np.ndarray:
    """log of the normalization applied to each window profile (0 when none)."""
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.abs(t))
    u = r * a
    if parity == "even":
        # log cosh(u) = u + log1p(exp(-2u)) - log 2
        log_scale = u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)
    elif parity == "odd":
        # log (sinh(u)/r); near u = 0 the profile tends to x, scale log(a)
        with np.errstate(divide="ignore"):
            log_scale = np.where(
                u > 1e-6,
                u + np.log1p(-np.exp(-2.0 * u)) - math.log(2.0) - np.log(np.where(r == 0, 1.0, r)),
                math.log(a) + t * a * a / 6.0,
            )
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return np.where(t > 0.0, log_scale, 0.0)


def window_profile_at_edge(t, a: float, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """Value and x-derivative of the normalized window profile at x = +a.

    Returns arrays (value, derivative) over the rate entries ``t``.  For
    evanescent entries the value is exactly 1 and the derivative is
    nu*tanh(nu*a) (even) or nu/tanh(nu*a) (odd), both safely bounded.
    """
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.abs(t))
    u = r * a
    if parity == "even":
        ev_val = np.ones_like(t)
        ev_der = r * np.tanh(u)
        os_val = np.cos(u)
        os_der = -r * np.sin(u)
    elif parity == "odd":
        ev_val = np.ones_like(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            ev_der = np.where(u > 1e-6, r / np.tanh(np.where(u == 0, 1.0, u)), 1.0 / a + t * a / 3.0)
        os_val = stable_sinhc(np.minimum(t, 0.0), a)
        os_der = np.cos(u)
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    val = np.where(t > 0.0, ev_val, os_val)
    der = np.where(t > 0.0, ev_der, os_der)
    return val, der


def window_profile_eval(t, x, a: float, parity: str) -> np.ndarray:
    """Normalized window profile at position x (broadcasts t against x).

    Evanescent entries use overflow-free ratios cosh(nu x)/cosh(nu a) and
    sinh(nu x)/sinh(nu a); oscillatory entries evaluate the plain
    trigonometric profile.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    r = np.sqrt(np.abs(t))
    ax = np.abs(x)
    # ratio of exponentials, everything in [0, 1]
    e_gap = np.exp(-r * (a - ax))
    e_x = np.exp(-2.0 * r * ax)
    e_a = np.exp(-2.0 * r * a)
    if parity == "even":
        ev = e_gap * (1.0 + e_x) / (1.0 + e_a)
        os = np.cos(r * x)
        out = np.where(t > 0.0, ev, os)
    elif parity == "odd":
        with np.errstate(divide="ignore", invalid="ignore"):
            ev = np.sign(x) * e_gap * (1.0 - e_x) / np.where(e_a == 1.0, 1.0, 1.0 - e_a)
            small = r * a < 1e-6
            ev = np.where(small, x / a, ev)
        os = stable_sinhc(np.minimum(t, 0.0), x)
        out = np.where(t > 0.0, ev, os)
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return out


def window_profile_l2(t, a: float, parity: str) -> np.ndarray:
    """Closed-form integral of the squared normalized profile over (-a, a)."""
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.abs(t))
    u = r * a
    sech = _sech(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        if parity == "even":
            # cosh(nu x)/cosh(nu a): a*sech^2 + tanh(u)/nu ; cos(w x): a + sin(2u)/(2w)
            ev = a * sech * sech + np.where(u > 1e-6, np.tanh(u) / np.where(r == 0, 1.0, r), a * (1.0 - t * a * a / 3.0))
            os = a + _half_sin(u, r, a)
            out = np.where(t > 0.0, ev, os)
        elif parity == "odd":
            # sinh(nu x)/sinh(nu a): coth(u)/nu - a*csch^2(u); sin(w x)/w: (a - sin(2u)/(2w))/w^2
            csch = np.where(u > 1e-3, sech / np.where(u == 0, 1.0, np.tanh(u)), 0.0)
            ev = np.where(
                u > 1e-3,
                1.0 / (np.where(r == 0, 1.0, r) * np.where(u == 0, 1.0, np.tanh(u))) - a * csch * csch,
                2.0 * a / 3.0 * (1.0 - 2.0 * t * a * a / 15.0 + 4.0 * (t * a * a) ** 2 / 315.0),
            )
            os = np.where(
                u > 1e-3,
                (a - _half_sin(u, r, a)) / np.where(t == 0, 1.0, -t),
                2.0 * a ** 3 / 3.0 * (1.0 + t * a * a / 5.0),
            )
            out = np.where(t > 0.0, ev, os)
        else:
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return out


def _sech(u: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def _half_sin(u: np.ndarray, r: np.ndarray, a: float) -> np.ndarray:
    """sin(2u)/(2 r) with the r -> 0 limit a; used by the L2 closed forms."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 1e-6, np.sin(2.0 * u) / (2.0 * np.where(r == 0, 1.0, r)), a * (1.0 - 2.0 * u * u / 3.0))


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
