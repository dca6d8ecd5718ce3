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
mode's traces: by dense LU while C has dimension below ``PCG_MIN_DIM``
= 200, the measured crossover, and by Jacobi-preconditioned conjugate
gradients from there on, which are about twice as fast at N = 320.  Z has
the negative eigenvalues of S (Haynsworth, Linear Algebra Appl. 1 (1968)
73-81) and det S = det C det Z with det C > 0, so
the inertia of Z counts roots (Wittrick-Williams: negative eigenvalues
plus the poles of :func:`pole_count` rise by one across each root), its
determinant polishes them down to the rounding floor the reduction
gives with Z, and its kernel, extended by the same solve, is the kernel
of S.  Evanescent window profiles are normalized to unit
edge value, which keeps every entry bounded for arbitrarily large mode
counts and separations.
"""

from __future__ import annotations

import functools
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
    "pole_count",
    "det_sign",
    "MAX_FORM_BYTES",
    "MAX_MODES",
]

#: largest dense trace form a run may build, in bytes (128 MiB, dimension
#: 4096): the assembly, Schur solve, count and kernel of one form raise the
#: peak RSS by 1.8-1.9 times its size for two windows and 3.1-3.2 for one
#: (dimension 1024-4096, the overlap matrix and the Gram's one n x n table
#: included; CG copies no block of the form), so a form stays below about
#: 0.25 GB (224 MiB at dimension 4096)
MAX_FORM_BYTES = 2 ** 27
#: largest truncation N whose two-window form, of dimension 2N, fits MAX_FORM_BYTES
MAX_MODES = math.isqrt(MAX_FORM_BYTES // 8) // 2
#: dimension r of the block C from which schur_complement solves by PCG: the
#: LU and PCG solves tie at r = 198 (0.32 and 0.32 ms single-window, 0.38 and
#: 0.39 ms two-window, one BLAS thread), and PCG wins from r = 218 on
PCG_MIN_DIM = 200
#: CG iterations after which schur_complement falls back to the LU solve:
#: 8-19 for most forms, 60 for two windows a = 0.02 that are 0.05 apart, and
#: about 160 for a = 1e-3 (those take the LU solve after 100 iterations)
PCG_MAX_ITERATIONS = 100
#: preconditioned residual at which CG stops, relative to the right-hand side's
PCG_RTOL = 1e-15
#: rounding floor of Z per entry, in units of eps (|S_WW| + |S_WR| |X|): a
#: floor, not a bound (Z's error against a long double reduction reached 1.7 F
#: over 300 random forms, N <= 160), so a polish stops there only where det Z
#: is surely rounding, and otherwise goes on as without it
FLOOR_ULPS = 2.0

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Truncation:
    """Number of transverse modes retained in every region (default 40, at most MAX_MODES)."""

    n: int = 40

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"truncation must retain at least 4 modes, got n={self.n}")
        if self.n > MAX_MODES:
            raise ValueError(f"truncation n={self.n} exceeds the cap of {MAX_MODES} modes, "
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


@functools.lru_cache(maxsize=16)
def _gram_tables(n: int) -> tuple[np.ndarray, ...]:
    """The n-only tables of :func:`_gram`: ``j``, ``(2/pi) h_m^2``,
    ``E_mn = 1/(h_m^2 - h_n^2)`` (0 on the diagonal), h_m = m - 1/2, and
    the squared overlaps ``M_mm^2`` and ``M_{m-1,m}^2`` in long double.

    Memoised per n like :func:`~modeguide.modes.overlap_matrix`; the
    shared arrays are read-only.
    """
    j = np.arange(1, n + 1, dtype=float)
    h2 = (j - 0.5) ** 2
    with np.errstate(divide="ignore"):
        E = 1.0 / np.subtract.outer(h2, h2)
    np.fill_diagonal(E, 0.0)
    M = overlap_matrix(n)
    tables = (j, (2.0 / math.pi) * h2, E, M.diagonal().astype(np.longdouble) ** 2,
              M.diagonal(1).astype(np.longdouble) ** 2)
    for table in tables:
        table.setflags(write=False)
    return tables


def _gram(M: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """``M^T diag(rates) M`` of the overlap matrix M in O(N^2), by its Cauchy structure.

    ``M_jm = (2/pi) j/(j^2 - h_m^2)`` with h_m = m - 1/2, so partial
    fractions in j^2 give, for m != n,
    ``G_mn = (2/pi) (h_m^2 U_m - h_n^2 U_n)/(h_m^2 - h_n^2)`` from the one
    matvec ``U = (rates/j) @ M``; the diagonal is ``sum_j rates_j M_jm^2``.
    Rounding gives ``1/(h_n^2 - h_m^2) = -1/(h_m^2 - h_n^2)`` exactly, so G
    is exactly symmetric.  Its largest error is 3.1-4.1e-16 of max|G| for
    N = 40-320, against 4.9e-16 to 1.3e-15 for the O(N^3) product ``B^T B``,
    B = sqrt(rates) M (decay rates of trace_form at twelve kappa1 in
    [0, 0.999], long double reference).
    A point of a root search costs this assembly and one solve with the
    block C of :func:`schur_complement` (LU below dimension ``PCG_MIN_DIM``,
    preconditioned CG from it).
    """
    n = M.shape[1]
    j, ch2, E, on, below = _gram_tables(n)
    P = ch2 * ((rates / j) @ M)
    # G holds M^2 first: a table of it would keep another n x n array per n
    G = np.multiply(M, M, order="C")
    # the terms j = m and m - 1 (j - h_m = +-1/2) make about 80% of diagonal
    # entry m, and summed in j order each term after them would round
    # against the whole entry: BLAS sums the rest without them, and the
    # entry is summed in long double and rounded once
    flat = G.reshape(-1)
    flat[::n + 1] = flat[1::n + 1] = 0.0
    w = rates.astype(np.longdouble)
    near = w * on
    near[1:] += w[:-1] * below
    near += rates @ G
    np.subtract.outer(P, P, out=G)
    G *= E
    flat[::n + 1] = near
    return G


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
    i = np.arange(n)
    if kind.is_two_window:
        r = axial_logderiv(kap, l - a, kind.parity)
        cv, cd = window_profile_at_edge(t, a, "even")
        sv, sd = window_profile_at_edge(t, a, "odd")
        g_e, g_o = cd / cv, sd / sv
        S = np.zeros((2 * n, 2 * n))
        S[:n, :n] = _gram(M, r)
        S[n:, n:] = _gram(M, kap)
        S[i, i] += 0.5 * (g_e + g_o)
        S[i + n, i + n] += 0.5 * (g_e + g_o)
        S[i, i + n] = S[i + n, i] = 0.5 * (g_e - g_o)
    else:
        val, der = window_profile_at_edge(t, a, kind.parity)
        S = _gram(M, kap)
        S[i, i] += der / val
    if not np.all(np.isfinite(S)):
        raise ValueError("matching matrix contains non-finite entries")
    return S


def schur_complement(S: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a trace form S to its first window mode: ``(Z, X, F)``.

    ``width`` is 1 for a single-window (or threshold) form and 2 for a
    two-window one; the first mode's traces W are then index 0, or indices
    0 and n.  The other traces R are evanescent and hold a positive
    definite block C = S_RR, so with ``X = C^{-1} S_RW`` the Schur
    complement ``Z = S_WW - S_WR X`` (width x width) has as many negative
    eigenvalues as S, and ``det S = det C det Z`` with ``det C > 0``.  A
    kernel vector v_W of Z extends to the kernel vector ``(v_W, -X v_W)``
    of S, its first-mode traces W first and then R in S's order.  The
    blocks are slices of S seen as width x width blocks of n x n, and no
    reordered copy of S is made.  F is Z's entrywise rounding floor
    ``FLOOR_ULPS eps (|S_WW| + |S_WR| |X|)``, from the pieces the solve has:
    a Z whose determinant is within it has no digits left to polish.  The
    solve with C is a hybrid on the dimension r of C, numpy only:

    * r < ``PCG_MIN_DIM``: dense LU, with C one copy of the four
      (n-1) x (n-1) blocks for two windows and a view of S for one;
    * r >= ``PCG_MIN_DIM``: conjugate gradients preconditioned by diag(C)
      (:func:`_schur_by_pcg`), which apply C through S and copy nothing.
      Scaled by its diagonal, C is nearly the identity (condition 2.4 at
      N = 40, 5.1-5.4 at N = 320), so CG takes 8-19 iterations (up to 60
      for windows a = 0.02 that are 0.05 apart): 0.49 ms against 1.03 ms
      for LU at single-window r = 318, 0.69 against 1.25 ms two-window.
      Z then differs from the LU one by at most 0.06 eps max|S|.  CG that
      does not converge within ``PCG_MAX_ITERATIONS`` gives way to LU.

    A point of a sector costs this solve and the O(N^2) assembly of
    :func:`trace_form`.
    """
    r = S.shape[0] - width
    if r >= PCG_MIN_DIM:
        reduced = _schur_by_pcg(S, width)
        if reduced is not None:
            return reduced
    blocks = S.reshape(width, S.shape[0] // width, width, S.shape[0] // width)
    X = np.linalg.solve(blocks[:, 1:, :, 1:].reshape(r, r), blocks[:, 1:, :, 0].reshape(r, width))
    S_WW, S_WR = blocks[:, 0, :, 0], blocks[:, 0, :, 1:].reshape(width, r)
    Z = S_WW - S_WR @ X
    return 0.5 * (Z + Z.T), X, _floor(S_WW, np.abs(S_WR) @ np.abs(X))


def _schur_by_pcg(S: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:func:`schur_complement` by Jacobi-preconditioned CG, or None if CG does not
    converge within ``PCG_MAX_ITERATIONS``.

    The iterates are rows over all traces of S with their W entries held at
    0, so ``P @ S`` applies C (S is symmetric) with no copy of C; the W
    entries of the residual are never read.  CG runs on the width
    right-hand sides together until each has a preconditioned residual of
    at most ``PCG_RTOL`` of its own (a NaN never passes), and Z is taken in
    the Galerkin form ``S_WW - (2 B^T X - X^T C X)``, B = S_RW, whose error
    is quadratic in X's; its floor is the LU solve's, of ``|B^T| |X|``.
    """
    dim = S.shape[0]
    w = np.arange(width) * (dim // width)
    d_inv = S.diagonal().copy()
    d_inv[w] = math.inf  # no W entry enters P
    d_inv = 1.0 / d_inv
    B = S[w]
    X = np.zeros((width, dim))
    R = B.copy()
    P = d_inv * R
    rz = np.einsum("ij,ij->i", R, P)
    stop = PCG_RTOL * PCG_RTOL * rz
    for _ in range(PCG_MAX_ITERATIONS):
        if (rz <= stop).all():
            break
        Q = P @ S
        alpha = (rz / np.einsum("ij,ij->i", P, Q))[:, None]
        X += alpha * P
        R -= alpha * Q
        Zp = d_inv * R
        rz, rz_old = np.einsum("ij,ij->i", R, Zp), rz
        P *= (rz / rz_old)[:, None]
        P += Zp
    else:
        if not (rz <= stop).all():
            return None
    S_WW = S[np.ix_(w, w)]
    Z = S_WW - (2.0 * (X @ B.T) - X @ (X @ S).T)
    return (0.5 * (Z + Z.T), X.reshape(width, width, -1)[:, :, 1:].reshape(width, -1).T,
            _floor(S_WW, np.abs(X) @ np.abs(B).T))


def _floor(S_WW: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Entrywise rounding floor ``FLOOR_ULPS eps (|S_WW| + |S_WR| |X|)`` of Z, symmetric as Z is."""
    F = FLOOR_ULPS * _EPS * (np.abs(S_WW) + product)
    return 0.5 * (F + F.T)


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
