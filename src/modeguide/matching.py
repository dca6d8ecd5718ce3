"""The symmetric mode-matching systems whose kernels encode bound states.

Each longitudinal region of the windowed strip carries its own transverse
expansion; enforcing continuity of value (projected on the outside sin
basis) and of the longitudinal derivative (projected on the window cos
basis) at the region interfaces and eliminating the outer coefficient
families leaves a dense real system over the window-edge traces.  Written
in those traces it is the symmetric trace form S of :func:`trace_form`, a
sum of Dirichlet-to-Neumann maps, all decreasing in lam:

* single window, N modes per region: S = M^T diag(kappa) M + diag(der/val),
  an N x N matrix whose nontrivial kernel marks an eigenvalue,
* two windows (mirror-reduced to a half strip), 2N x 2N over the traces
  at the inner and outer window edges,
* the threshold system: the single-window system at lam = 1, where the
  first outside mode degenerates to a constant profile with zero decay;
  its kernel marks a critical window half-length.

S is the only matching system: its inertia counts roots
(Wittrick-Williams: negative eigenvalues plus the poles of
:func:`pole_count` rise by one across each root), its determinant
polishes them, and its ``eigh`` eigenvector for the smallest |mu| is the
kernel.  Evanescent window profiles are normalized to unit edge value,
which keeps every entry bounded for arbitrarily large mode counts and
separations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import ProblemKind, axial_logderiv, overlap_matrix, window_profile_at_edge
# unused here: bound only because perfbench/tracing.py wraps it on this module
from .modes import window_profile_scale_log  # noqa: F401

__all__ = [
    "Truncation",
    "MatchingSystem",
    "assemble_threshold",
    "trace_form",
    "pole_count",
    "det_sign",
]


@dataclass(frozen=True)
class Truncation:
    """Number of transverse modes retained in every region (default 40)."""

    n: int = 40

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"truncation must retain at least 4 modes, got n={self.n}")


@dataclass
class MatchingSystem:
    """The trace form S of one system at one point, with the point it was built at.

    ``kappa1`` stores sqrt(1 - lam) exactly, which matters near the
    threshold where lam itself cannot resolve the distance to 1.
    """

    matrix: np.ndarray
    lam: float
    kappa1: float
    kind: ProblemKind
    a: float
    l: float | None
    n: int


def _rates(n: int, kappa1: float) -> tuple[np.ndarray, np.ndarray]:
    """Outside rates kappa_j and window squared rates t_m at sqrt(1-lam) = kappa1.

    Parametrizing by kappa1 keeps the first outside rate exact arbitrarily
    close to the threshold (kappa_1 = kappa1 with no cancellation).
    """
    j = np.arange(1, n + 1, dtype=float)
    kap = np.sqrt(j * j - 1.0 + kappa1 * kappa1)
    half = np.arange(1, n + 1, dtype=float) - 0.5
    t = half * half - 1.0 + kappa1 * kappa1
    return kap, t


def trace_form(kind: ProblemKind, n: int, a: float, kappa1: float,
               l: float | None = None) -> np.ndarray:
    """Symmetric trace form S of one system at one point (kappa1 = 0: threshold system).

    Single window: ``M^T diag(kappa) M + diag(der/val)`` in the edge traces
    ``w = val d`` of the window profile coefficients d.  Two windows, in the
    edge traces ``w_L = cv d+ - sv d-``, ``w_R = cv d+ + sv d-`` of the
    even/odd profile coefficients: ``[[P + Sigma, Delta], [Delta, Q + Sigma]]``
    with P and Q the region-1 and outside maps, ``Sigma = (g_e + g_o)/2``,
    ``Delta = (g_e - g_o)/2`` and ``g = der/val``.  S has poles where an edge
    value vanishes (:func:`pole_count`).
    """
    kap, t = _rates(n, kappa1)
    M = overlap_matrix(n)
    S = M.T @ (kap[:, None] * M)
    i = np.arange(n)
    if kind.is_two_window:
        r = axial_logderiv(kap, l - a, kind.parity)
        cv, cd = window_profile_at_edge(t, a, "even")
        sv, sd = window_profile_at_edge(t, a, "odd")
        g_e, g_o = cd / cv, sd / sv
        Q, S = S, np.zeros((2 * n, 2 * n))
        S[:n, :n] = M.T @ (r[:, None] * M)
        S[n:, n:] = Q
        S[i, i] += 0.5 * (g_e + g_o)
        S[i + n, i + n] += 0.5 * (g_e + g_o)
        S[i, i + n] = S[i + n, i] = 0.5 * (g_e - g_o)
    else:
        val, der = window_profile_at_edge(t, a, kind.parity)
        S[i, i] += der / val
    if not np.all(np.isfinite(S)):
        raise ValueError("matching matrix contains non-finite entries")
    return S


def pole_count(kind: ProblemKind, a: float, kappa1: float) -> int:
    """Poles of :func:`trace_form` with lam in (1/4, 1 - kappa1^2).

    Only the first window mode oscillates; its even edge value vanishes at
    ``sqrt(lam - 1/4) a = (k + 1/2) pi`` and its odd one at ``(k + 1) pi``.
    A two-window form carries both profiles.  At each pole one eigenvalue of
    S jumps from -inf to +inf.
    """
    y = math.sqrt(max(0.75 - kappa1 * kappa1, 0.0)) * a / math.pi
    even, odd = math.floor(y + 0.5), math.floor(y)
    if kind.is_two_window:
        return even + odd
    return even if kind.parity == "even" else odd


def _assemble_single_core(kind: ProblemKind, n: int, a: float, kappa1: float) -> MatchingSystem:
    """Single-window N x N system at one point (kappa1 = 0 is the threshold system)."""
    return MatchingSystem(matrix=trace_form(kind, n, a, kappa1), lam=1.0 - kappa1 * kappa1,
                          kappa1=kappa1, kind=kind, a=a, l=None, n=n)


def _assemble_two_core(kind: ProblemKind, n: int, a: float, kappa1: float,
                       l: float) -> MatchingSystem:
    """Two-window 2N x 2N system at one point, window at (l-a, l+a) of the half strip."""
    return MatchingSystem(matrix=trace_form(kind, n, a, kappa1, l), lam=1.0 - kappa1 * kappa1,
                          kappa1=kappa1, kind=kind, a=a, l=l, n=n)


def assemble_threshold(a: float, trunc: Truncation, parity: str = "even") -> MatchingSystem:
    """Single-window system at the continuum threshold lam = 1.

    The first outside mode is replaced by its zero-rate limit: a constant
    longitudinal profile with zero derivative, which simply removes its
    contribution from the derivative-matching sum.  A nontrivial kernel
    marks a critical window half-length carrying a threshold resonance.
    """
    if not (a > 0):
        raise ValueError(f"window half-length must satisfy a > 0, got a={a}")
    return _assemble_single_core(ProblemKind(f"single-{parity}"), trunc.n, a, 0.0)


def det_sign(sys: MatchingSystem) -> int:
    """Determinant sign of an assembled system.

    The sign of a pivoted LU factorization via ``slogdet``; 0 when a pivot
    vanishes exactly.
    """
    return int(np.linalg.slogdet(sys.matrix)[0])
