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

Evanescent window profiles are normalized to unit edge value during
assembly, which keeps every entry bounded for arbitrarily large mode
counts and separations; the applied log-scales are recorded so kernel
vectors can be mapped back to raw coefficients exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modes import (
    CanonicalConfig,
    ProblemKind,
    axial_logderiv,
    overlap_matrix,
    window_profile_at_edge,
    window_profile_scale_log,
)

__all__ = [
    "Truncation",
    "MatchingSystem",
    "assemble_single",
    "assemble_two_window",
    "assemble_two_window_at_kappa",
    "assemble_threshold",
    "assemble_stack",
    "det_sign",
    "det_signs",
    "merit",
    "symmetrized",
]

#: open spectral interval searched by the generic assemblies
LAMBDA_MIN = 0.25
LAMBDA_MAX = 1.0
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

    ``col_log``/``row_log`` hold the natural logs of the divisors applied to
    each column/row during assembly; a kernel vector v of ``matrix``
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
    row_log: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.row_log is None:
            self.row_log = np.zeros(self.matrix.shape[0])
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matching matrix contains non-finite entries")

    @property
    def is_threshold(self) -> bool:
        return self.kappa1 == 0.0


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


def _assemble_single_core(a: float, kappa1: float, n: int, parity: str,
                          kind: ProblemKind) -> MatchingSystem:
    _, t = _rates(n, kappa1)
    return MatchingSystem(
        matrix=assemble_stack(kind, n, a, kappa1)[0],
        lam=1.0 - kappa1 * kappa1,
        kappa1=kappa1,
        kind=kind,
        a=a,
        l=None,
        n=n,
        col_log=np.asarray(window_profile_scale_log(t, a, parity)),
    )


def assemble_single(cfg: CanonicalConfig, lam: float, trunc: Truncation) -> MatchingSystem:
    """Single-window N x N system over the window coefficients at ``lam``.

    The window sits at |x1| < a so the longitudinal parity of the
    configuration kind selects cosh-like or sinhc-like window profiles.
    Only lam strictly inside (1/4, 1) is accepted; the threshold limit has
    its own assembly.
    """
    kind = cfg.base.kind
    if kind.is_two_window:
        raise ValueError(f"assemble_single requires a single-window kind, got {kind}")
    if not (LAMBDA_MIN < lam < LAMBDA_MAX):
        raise ValueError(f"spectral parameter must lie in (1/4, 1), got lam={lam}")
    kappa1 = math.sqrt(1.0 - lam)
    return _assemble_single_core(cfg.base.a, kappa1, trunc.n, kind.parity, kind)


def assemble_threshold(a: float, trunc: Truncation, parity: str = "even") -> MatchingSystem:
    """Single-window system at the continuum threshold lam = 1.

    The first outside mode is replaced by its zero-rate limit: a constant
    longitudinal profile with zero derivative, which simply removes its
    contribution from the derivative-matching sum.  A nontrivial kernel
    marks a critical window half-length carrying a threshold resonance.
    """
    if not (a > 0):
        raise ValueError(f"window half-length must satisfy a > 0, got a={a}")
    kind = ProblemKind.SINGLE_WINDOW_EVEN if parity == "even" else ProblemKind.SINGLE_WINDOW_ODD
    return _assemble_single_core(a, 0.0, trunc.n, parity, kind)


def _assemble_two_core(a: float, l: float, kappa1: float, n: int, plane: str,
                       kind: ProblemKind) -> MatchingSystem:
    _, t = _rates(n, kappa1)
    col_log = np.concatenate([
        np.asarray(window_profile_scale_log(t, a, "even")),
        np.asarray(window_profile_scale_log(t, a, "odd")),
    ])
    return MatchingSystem(
        matrix=assemble_stack(kind, n, a, kappa1, l)[0],
        lam=1.0 - kappa1 * kappa1,
        kappa1=kappa1,
        kind=kind,
        a=a,
        l=l,
        n=n,
        col_log=col_log,
    )


def assemble_two_window(cfg: CanonicalConfig, lam: float, trunc: Truncation) -> MatchingSystem:
    """Two-window 2N x 2N system on the mirror-reduced half strip.

    The window occupies (l-a, l+a); the mirror plane at x1 = 0 carries a
    Neumann condition in the even kind and a Dirichlet one in the odd kind.
    The region between plane and window enters only through the interface
    logarithmic derivatives of its normalized profiles, so entries stay
    bounded for arbitrarily large separations.
    """
    kind = cfg.base.kind
    if not kind.is_two_window:
        raise ValueError(f"assemble_two_window requires a two-window kind, got {kind}")
    if not (LAMBDA_MIN < lam < LAMBDA_MAX):
        raise ValueError(f"spectral parameter must lie in (1/4, 1), got lam={lam}")
    kappa1 = math.sqrt(1.0 - lam)
    return _assemble_two_core(cfg.base.a, cfg.base.l, kappa1, trunc.n, kind.parity, kind)


def assemble_two_window_at_kappa(cfg: CanonicalConfig, kappa1: float,
                                 trunc: Truncation) -> MatchingSystem:
    """Two-window system parametrized by kappa1 = sqrt(1 - lam) directly.

    Near the threshold 1 - lam underflows double precision long before the
    physics gives out; passing the decay rate itself keeps the assembly
    exact for eigenvalues exponentially close to 1.
    """
    kind = cfg.base.kind
    if not kind.is_two_window:
        raise ValueError(f"assemble_two_window_at_kappa requires a two-window kind, got {kind}")
    if not (0.0 < kappa1 < math.sqrt(1.0 - LAMBDA_MIN)):
        raise ValueError(f"decay rate must lie in (0, sqrt(3)/2), got kappa1={kappa1}")
    return _assemble_two_core(cfg.base.a, cfg.base.l, kappa1, trunc.n, kind.parity, kind)


def merit(sys: MatchingSystem) -> tuple[float, int]:
    """Smallest singular value and determinant sign of the assembled matrix.

    Scanning the sign over the spectral parameter gives robust brackets
    for the simple eigenvalues, while the singular value confirms a root
    and feeds kernel extraction.
    """
    K = sys.matrix
    if not np.all(np.isfinite(K)):
        raise ValueError("matching matrix contains non-finite entries")
    s = np.linalg.svd(K, compute_uv=False)
    return float(s[-1]), det_sign(sys)


def det_sign(sys: MatchingSystem) -> int:
    """Determinant sign alone (cheaper than :func:`merit` for scanning).

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


def symmetrized(sys: MatchingSystem) -> np.ndarray:
    """Symmetric form of a single-window / threshold system.

    Dividing column m by the window profile edge value maps the system onto
    the interface-trace variables, where the off-diagonal part is the
    manifestly symmetric sum over outside modes.  Only defined where no
    edge value vanishes (isolated spectral parameters for oscillatory
    profiles) and only for the single-window family; the two-window system
    has no pole-free symmetric form.
    """
    if sys.kind.is_two_window:
        raise ValueError("symmetrized form is defined for single-window systems only")
    _, t = _rates(sys.n, sys.kappa1)
    val, _ = window_profile_at_edge(t, sys.a, sys.kind.parity)
    if np.any(val == 0.0):
        raise ValueError("a window profile vanishes at the edge; symmetric form is singular here")
    return sys.matrix / val[None, :]
