"""Truncated mode-matching systems whose kernels encode bound states.

Each longitudinal region of the windowed strip carries its own transverse
expansion; enforcing continuity of value (projected on the outside sin
basis) and of the longitudinal derivative (projected on the window cos
basis) at the region interfaces and eliminating the outer coefficient
families leaves a dense real system over the window-region coefficients:

* single window, N modes per region:  K[m,m'] = delta * f_m'(a)
  + sum_j kappa_j M[j,m] M[j,m'] f_m'(a-value), an N x N system whose
  nontrivial kernel marks an eigenvalue,
* two windows (mirror-reduced to a half strip), 2N x 2N over the even/odd
  window profile pair,
* the threshold system: the single-window system at lam = 1, where the
  first outside mode degenerates to a constant profile with zero decay;
  its kernel marks a critical window half-length.

All systems of one kind come from :func:`assemble_stack`, which builds a
batch of points at once (a single point is a batch of one), and their
determinant signs from ``slogdet``.

Dividing each column by its window profile's edge value turns a system
into the symmetric trace form of :func:`trace_form`: a sum of
Dirichlet-to-Neumann maps, all decreasing in lam.  Its inertia counts
roots (Wittrick-Williams): negative eigenvalues plus the poles of
:func:`pole_count` rise by one across each root.

Evanescent window profiles are normalized to unit edge value during
assembly, which keeps every entry bounded for arbitrarily large mode
counts and separations; the applied log-scales are recorded so kernel
vectors can be mapped back to raw coefficients exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import (
    ProblemKind,
    axial_logderiv,
    overlap_matrix,
    window_profile_at_edge,
    window_profile_scale_log,
)

__all__ = [
    "Truncation",
    "MatchingSystem",
    "assemble_threshold",
    "assemble_stack",
    "trace_form",
    "pole_count",
    "det_sign",
    "det_signs",
]

#: bytes of matrices assembled and factorized at once by :func:`det_signs`;
#: whole stacks would reach tens of MB at N = 320 and raise peak memory
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class Truncation:
    """Number of transverse modes retained in every region (default 40)."""

    n: int = 40

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"truncation must retain at least 4 modes, got n={self.n}")


@dataclass
class MatchingSystem:
    """Assembled dense matching matrix plus the data needed to undo scalings.

    ``col_log`` holds the natural logs of the divisors applied to each
    column during assembly; a kernel vector v of ``matrix``
    corresponds to raw window coefficients v * exp(-col_log).  ``kappa1``
    stores sqrt(1 - lam) exactly, which matters near the threshold where
    lam itself cannot resolve the distance to 1.
    """

    matrix: np.ndarray
    lam: float
    kappa1: float
    kind: ProblemKind
    a: float
    l: float | None
    n: int
    col_log: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matching matrix contains non-finite entries")


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


def _block(S: np.ndarray, val: np.ndarray, der: np.ndarray) -> np.ndarray:
    """diag(der) + S * val over a stack: the per-point block, entry for entry."""
    B = S * val[:, None, :]
    i = np.arange(B.shape[-1])
    B[:, i, i] += der
    return B


def assemble_stack(kind: ProblemKind, n: int, a, kappa1, l: float | None = None) -> np.ndarray:
    """Matching matrices of one kind at a batch of points, shape (G, n, n) or (G, 2n, 2n).

    ``a`` and ``kappa1`` = sqrt(1 - lam) are scalars or 1-D arrays that
    broadcast to the G points (kappa1 = 0 is the threshold system); ``l``
    is the two-window half-separation.  Each matrix equals the one
    assembled at its point alone bit for bit: the elementwise work is the
    same, and the products are the per-point ``M.T @ (rate * M)`` batched.
    """
    a = np.reshape(np.asarray(a, dtype=float), (-1, 1))
    kap, t = _rates(n, np.reshape(np.asarray(kappa1, dtype=float), (-1, 1)))
    M = overlap_matrix(n)
    if not kind.is_two_window:
        val, der = window_profile_at_edge(t, a, kind.parity)
        return _block(M.T @ (kap[:, :, None] * M), val, der)
    r = axial_logderiv(kap, l - a, kind.parity)
    P = M.T @ (r[:, :, None] * M)
    Q = M.T @ (kap[:, :, None] * M)
    cv, cd = window_profile_at_edge(t, a, "even")
    sv, sd = window_profile_at_edge(t, a, "odd")
    K = np.empty((max(len(a), len(kap)), 2 * n, 2 * n))
    K[:, :n, :n] = -_block(P, cv, cd)
    K[:, :n, n:] = _block(P, sv, sd)
    K[:, n:, :n] = _block(Q, cv, cd)
    K[:, n:, n:] = _block(Q, sv, sd)
    return K


def trace_form(kind: ProblemKind, n: int, a: float, kappa1: float,
               l: float | None = None) -> np.ndarray:
    """Symmetric trace form S of one system at one point (kappa1 = 0: threshold system).

    Single window: ``M^T diag(kappa) M + diag(der/val)``, the matching matrix
    with column m divided by the edge value of window profile m.  Two
    windows, in the edge traces ``w_L = cv d+ - sv d-``, ``w_R = cv d+ + sv d-``
    of the even/odd profile coefficients: ``[[P + Sigma, Delta], [Delta,
    Q + Sigma]]`` with P and Q the region-1 and outside maps,
    ``Sigma = (g_e + g_o)/2``, ``Delta = (g_e - g_o)/2`` and ``g = der/val``.
    S is singular exactly where the matching matrix is, away from the poles
    where an edge value vanishes.
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


def _point(kind: ProblemKind, n: int, a: float, kappa1: float, l: float | None,
           col_log: np.ndarray) -> MatchingSystem:
    return MatchingSystem(matrix=assemble_stack(kind, n, a, kappa1, l)[0],
                          lam=1.0 - kappa1 * kappa1, kappa1=kappa1, kind=kind, a=a, l=l, n=n,
                          col_log=col_log)


def _assemble_single_core(kind: ProblemKind, n: int, a: float, kappa1: float) -> MatchingSystem:
    """Single-window N x N system at one point (kappa1 = 0 is the threshold system)."""
    _, t = _rates(n, kappa1)
    return _point(kind, n, a, kappa1, None, window_profile_scale_log(t, a, kind.parity))


def _assemble_two_core(kind: ProblemKind, n: int, a: float, kappa1: float,
                       l: float) -> MatchingSystem:
    """Two-window 2N x 2N system at one point, window at (l-a, l+a) of the half strip."""
    _, t = _rates(n, kappa1)
    col_log = np.concatenate([window_profile_scale_log(t, a, parity) for parity in ("even", "odd")])
    return _point(kind, n, a, kappa1, l, col_log)


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


def det_signs(kind: ProblemKind, n: int, a, kappa1, l: float | None = None) -> np.ndarray:
    """Determinant signs of :func:`assemble_stack` at every point, as ints.

    The stack is assembled and factorized in chunks of at most
    ``STACK_BYTES`` of matrices, which bounds the memory of large
    truncations; the signs are those :func:`det_sign` gives point by point.
    """
    a, kappa1 = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                    np.atleast_1d(np.asarray(kappa1, dtype=float)))
    dim = 2 * n if kind.is_two_window else n
    step = max(1, STACK_BYTES // (8 * dim * dim))
    signs = np.empty(len(a), dtype=int)
    for i in range(0, len(a), step):
        K = assemble_stack(kind, n, a[i:i + step], kappa1[i:i + step], l)
        if not np.all(np.isfinite(K)):
            raise ValueError("matching matrix contains non-finite entries")
        signs[i:i + step] = np.linalg.slogdet(K)[0]
    return signs

