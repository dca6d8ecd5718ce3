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

S is the only matching system.  Only the first window mode oscillates, so
every other trace sits in a positive definite block C of S, and
:func:`schur_complement` reduces S by one solve with C to the 1 x 1
(single window) or 2 x 2 (two windows) Schur complement Z on the first
mode's traces.  Z has the negative eigenvalues of S (Haynsworth, Linear
Algebra Appl. 1 (1968) 73-81) and det S = det C det Z with det C > 0, so
the inertia of Z counts roots (Wittrick-Williams: negative eigenvalues
plus the poles of :func:`pole_count` rise by one across each root), its
determinant polishes them, and its kernel, extended by the same solve,
is the kernel of S.  Evanescent window profiles are normalized to unit
edge value, which keeps every entry bounded for arbitrarily large mode
counts and separations.
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
    "schur_complement",
    "trace_order",
    "pole_count",
    "det_sign",
    "MAX_FORM_BYTES",
    "max_modes",
]

#: largest dense trace form a run may build, in bytes (128 MiB, dimension
#: 4096): the assembly, count, polish and kernel of one form peak at 3.1-3.8
#: times its size (peak RSS over the form's bytes, single- and two-window
#: forms of dimension 1000-4000; 5.4-6.6 with eigvalsh and eigh on S), so a
#: form stays below about 0.5 GB
MAX_FORM_BYTES = 2 ** 27


def max_modes(width: int) -> int:
    """Largest truncation N whose dense form of dimension width * N fits MAX_FORM_BYTES."""
    return math.isqrt(MAX_FORM_BYTES // 8) // width


@dataclass(frozen=True)
class Truncation:
    """Number of transverse modes retained in every region (default 40, at most max_modes(2))."""

    n: int = 40

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"truncation must retain at least 4 modes, got n={self.n}")
        if self.n > max_modes(2):
            raise ValueError(f"truncation n={self.n} exceeds the cap of {max_modes(2)} modes, "
                             f"where a two-window form reaches {MAX_FORM_BYTES >> 20} MiB")


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

    @property
    def width(self) -> int:
        """Windows in the form: traces per window mode (2 for two windows, else 1)."""
        return 2 if self.kind.is_two_window else 1


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


def _gram(M: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """``M^T diag(rates) M`` for rates >= 0, as the Gram matrix of sqrt(rates) M.

    numpy computes ``B.T @ B`` by a symmetric rank-k update: about 70% of
    the time of the general product from N = 320 on (one BLAS thread), and
    exactly symmetric.
    """
    B = np.sqrt(rates)[:, None] * M
    return B.T @ B


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
    S = _gram(M, kap)
    i = np.arange(n)
    if kind.is_two_window:
        r = axial_logderiv(kap, l - a, kind.parity)
        cv, cd = window_profile_at_edge(t, a, "even")
        sv, sd = window_profile_at_edge(t, a, "odd")
        g_e, g_o = cd / cv, sd / sv
        Q, S = S, np.zeros((2 * n, 2 * n))
        S[:n, :n] = _gram(M, r)
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


def trace_order(dim: int, width: int) -> np.ndarray:
    """Trace indices of a form, the first window mode's (0, and n for two windows) first."""
    w = np.arange(width) * (dim // width)
    return np.concatenate([w, np.delete(np.arange(dim), w)])


def schur_complement(S: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a trace form S to its first window mode: ``(Z, X)``.

    ``width`` is 1 for a single-window (or threshold) form and 2 for a
    two-window one; the first mode's traces W are then index 0, or indices
    0 and n.  The other traces R are evanescent and hold a positive
    definite block C = S_RR, so with ``X = C^{-1} S_RW`` the Schur
    complement ``Z = S_WW - S_WR X`` (width x width) has as many negative
    eigenvalues as S, and ``det S = det C det Z`` with ``det C > 0``.  A
    kernel vector v_W of Z extends to the kernel vector ``(v_W, -X v_W)``
    of S, in the order of :func:`trace_order`.  One LU solve with C, numpy
    only.
    """
    if width > 1:
        order = trace_order(S.shape[0], width)
        S = S[np.ix_(order, order)]
    X = np.linalg.solve(S[width:, width:], S[width:, :width])
    Z = S[:width, :width] - S[:width, width:] @ X
    return 0.5 * (Z + Z.T), X


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
