"""Independent finite-difference oracle for the windowed-strip eigenproblem.

A deliberately simple 5-point discretization of the Laplacian on the
truncated half strip [0, L] x [0, pi]: Dirichlet rows are eliminated on
the walls and (by default) at the truncation face x1 = L, the Neumann
window segments and the mirror plane use second-order ghost-point
reflection, and the resulting operator is symmetrized exactly by the
half-cell weights of the reflected nodes.  Its job is to be auditable and
independent of the mode-matching code: it takes only the geometry types
from :mod:`modes` and nothing from the matching solver.

The operator is assembled with array index arithmetic (a node mask over
the (i, j) grid, numbered in row order, and one masked coupling array
per direction), and the shift-inverted eigensolver factors once with a
minimum-degree ordering on A + A^T, the natural fill-reducing order for
a symmetric 5-point stencil.

The mirror plane at x1 = 0 carries the parity of the configuration kind:
ghost reflection for even kinds, an eliminated row for odd kinds.  For
single-window kinds the plane passes through the window center, for
two-window kinds through the midpoint between the windows.

The window-edge corners host a square-root field singularity, so the
eigenvalue error is first-order dominated; accuracy therefore comes from
Richardson extrapolation over grids, with the difference of the two
finest grids kept as a conservative error bound (the BOUND, not the
nominal rate, is the contract).

The far face can optionally carry a Neumann condition, which lowers
eigenvalues instead of raising them and so keeps an emerging bound state
visible on the truncated domain; :func:`critical_width_crossing` uses it
to locate the window width where a new state crosses below the discrete
threshold.  That search walks a lattice of widths from the cell where the
crossing lies one grid coarser, so it takes two eigensolves on its own
grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .modes import CanonicalConfig, ProblemKind, StripConfig, canonicalize

__all__ = [
    "GridAlignmentError",
    "OracleConfig",
    "discretize",
    "discretize_with_nodes",
    "lowest_eigenvalues",
    "oracle_eigenvalues",
    "refine_and_extrapolate",
    "discrete_threshold",
    "critical_width_crossing",
]


#: coarsest grid whose crossing seeds the search on the grid twice as fine
COARSEST_SEED_GRID = 1.0 / 8.0


class GridAlignmentError(ValueError):
    """A geometric length does not sit on the finite-difference grid."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncated-domain discretization parameters.

    ``L`` should exceed the window region by several decay lengths of the
    targeted state (L >= l + a + 6/sqrt(1-lam) keeps the truncation error
    of a bound state below ~1e-5); ``h`` must divide a, l-a and L so the
    window edges and the domain ends sit on grid lines.  ``end`` selects
    the condition on the far face x1 = L: 'dirichlet' (default, raises
    eigenvalues) or 'neumann' (lowers them).
    """

    L: float
    h: float = 1.0 / 64.0
    k: int = 4
    end: str = "dirichlet"

    def __post_init__(self) -> None:
        if self.L <= 0 or self.h <= 0:
            raise ValueError("domain length and grid step must be positive")
        if self.k < 1:
            raise ValueError("must request at least one eigenvalue")
        if self.end not in ("dirichlet", "neumann"):
            raise ValueError(f"end condition must be 'dirichlet' or 'neumann', got {self.end!r}")


def _check_aligned(name: str, value: float, h: float) -> int:
    steps = value / h
    n = round(steps)
    if abs(steps - n) > 1e-9:
        raise GridAlignmentError(f"{name}={value} is not a multiple of the grid step h={h}")
    return n


def discrete_threshold(h: float) -> float:
    """Bottom of the continuous band of the discretized Dirichlet strip.

    The transverse grid uses n2 = round(pi/h) cells, so the first discrete
    transverse eigenvalue is (4/h2^2) sin^2(h2/2) with h2 = pi/n2, just
    below 1 by h2^2/12.
    """
    n2 = round(math.pi / h)
    h2 = math.pi / n2
    return (4.0 / h2 ** 2) * math.sin(h2 / 2.0) ** 2


def discretize(cfg: CanonicalConfig, ocfg: OracleConfig) -> sparse.csr_matrix:
    """Symmetric sparse 5-point operator on the half strip [0, L] x [0, pi].

    Ghost-point reflection at Neumann boundaries is symmetrized exactly:
    every undirected neighbor pair (p, q) gets the weight
    -c * sqrt(m_pq * m_qp), where m counts the ghost multiplicity of the
    coupling, which is the similarity transform of the raw stencil by the
    square root of the half-cell weights.  The matrix equals its transpose
    bit-exactly by construction.
    """
    op, _, _ = discretize_with_nodes(cfg, ocfg)
    return op


def discretize_with_nodes(cfg: CanonicalConfig, ocfg: OracleConfig):
    """Like :func:`discretize`, also returning the node coordinates.

    Returns (operator, x1, x2) with one coordinate entry per operator row,
    so discrete eigenvectors can be compared pointwise against analytic
    eigenfunctions (note the similarity weights: a raw eigenvector of the
    returned operator equals sqrt(s) times the field values, with s = 1/2
    per reflecting boundary the node sits on).
    """
    kind = cfg.base.kind
    a = cfg.base.a
    h = ocfg.h
    n1 = _check_aligned("L", ocfg.L, h)
    n2 = round(math.pi / h)
    h2 = math.pi / n2
    if kind.is_two_window:
        l = cfg.base.l
        _check_aligned("l-a", l - a, h)
        _check_aligned("a", a, h)
        win_lo, win_hi = l - a, l + a
    else:
        _check_aligned("a", a, h)
        win_lo, win_hi = -a, a
    if win_hi >= ocfg.L:
        raise ValueError(f"window reaches the truncation face: need l+a < L, got {win_hi} >= {ocfg.L}")

    plane_neumann = kind.parity == "even"
    end_neumann = ocfg.end == "neumann"
    i_lo = 0 if plane_neumann else 1
    i_hi = n1 if end_neumann else n1 - 1  # inclusive

    eps = 1e-9
    i = np.arange(i_lo, i_hi + 1)
    x = i * h
    in_window = (win_lo + eps < x) & (x < win_hi - eps)
    # node grid in row order (i major); j = 0 is kept only on the windows
    ii, jj = np.meshgrid(i, np.arange(n2), indexing="ij")
    keep = (jj > 0) | in_window[:, None]
    size = int(np.count_nonzero(keep))
    index = np.full(keep.shape, -1)
    index[keep] = np.arange(size)

    c1 = 1.0 / (h * h)
    c2 = 1.0 / (h2 * h2)
    # x2 couplings (p, p + 1 in j) with ghost doubling at a window node (j = 0)
    up = keep[:, :-1]
    p2, q2 = index[:, :-1][up], index[:, 1:][up]
    w2 = np.where(jj[:, :-1][up] == 0, -c2 * math.sqrt(2.0), -c2)
    # x1 couplings (p, p - 1 in i); reflection doubles the weight of a ghost
    # coupling at the mirror plane (even kinds) and at a Neumann far face
    back = keep[1:] & keep[:-1]
    p1, q1 = index[1:][back], index[:-1][back]
    m_fwd = np.where(end_neumann & (ii[1:][back] == n1), 2.0, 1.0)
    m_bwd = np.where(plane_neumann & (ii[:-1][back] == 0), 2.0, 1.0)
    w1 = -c1 * np.sqrt(m_fwd * m_bwd)

    diag = np.arange(size)
    rows = np.concatenate((diag, p2, q2, p1, q1))
    cols = np.concatenate((diag, q2, p2, q1, p1))
    vals = np.concatenate((np.full(size, 2.0 * c1 + 2.0 * c2), w2, w2, w1, w1))
    op = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    op.sum_duplicates()
    return op, ii[keep] * h, jj[keep] * h2


def lowest_eigenvalues(op: sparse.csr_matrix, k: int, tol: float = 1e-10) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric operator, sorted ascending.

    Shift-inverted Lanczos around the bottom of the spectrum; the starting
    vector is fixed so repeated runs are reproducible bit-for-bit, though
    converged spectra agree to solver tolerance for any start.  The shifted
    operator is factored once with a minimum-degree column ordering on
    A + A^T, which suits the symmetric 5-point stencil far better than
    SuperLU's default COLAMD (about 40% less fill at h = 1/64); SuperLU's
    threshold pivoting is kept, so any symmetric input is handled.
    """
    n = op.shape[0]
    if k >= n:
        raise ValueError("requested more eigenvalues than the operator has rows")
    v0 = np.full(n, 1.0 / math.sqrt(n))
    sigma = 0.2
    lu = splinalg.splu(sparse.csc_matrix(op - sigma * sparse.eye(n)), permc_spec="MMD_AT_PLUS_A")
    op_inv = splinalg.LinearOperator((n, n), matvec=lu.solve, dtype=op.dtype)
    try:
        w = splinalg.eigsh(op, k=k, sigma=sigma, which="LM", tol=tol, OPinv=op_inv,
                           return_eigenvectors=False, v0=v0)
    except splinalg.ArpackNoConvergence as exc:  # pragma: no cover - diagnostic path
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    return np.sort(w)


def oracle_eigenvalues(cfg: CanonicalConfig, ocfg: OracleConfig) -> np.ndarray:
    """Convenience wrapper: discretize and return the k lowest eigenvalues."""
    return lowest_eigenvalues(discretize(cfg, ocfg), ocfg.k)


def refine_and_extrapolate(values_h, values_h2, values_h4=None):
    """Richardson extrapolation over a grid-halving sequence.

    With two grids the corner singularity makes first order the safe
    model; a third (finest) grid estimates the effective order per
    eigenvalue instead.  Returns (extrapolated values, error bounds,
    effective order).  The error bound is the difference of the two finest
    grids, which stays valid even where the rate assumption does not; a
    non-monotone refinement falls back to the finest raw values with that
    same bound.
    """
    v1 = np.atleast_1d(np.asarray(values_h, dtype=float))
    v2 = np.atleast_1d(np.asarray(values_h2, dtype=float))
    if values_h4 is None:
        p = 1.0
        extrap = v2 + (v2 - v1)
        err = np.abs(v2 - v1)
        return extrap, err, p
    v4 = np.atleast_1d(np.asarray(values_h4, dtype=float))
    d12 = v1 - v2
    d24 = v2 - v4
    err = np.abs(d24)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d12 / d24
    if np.any(~np.isfinite(ratio)) or np.any(ratio <= 1.0):
        return v4.copy(), np.abs(d24), float("nan")
    p = float(np.median(np.log2(ratio)))
    extrap = v4 + (v4 - v2) / (2.0 ** p - 1.0)
    return extrap, err, p


def critical_width_crossing(parity: str, h: float, L: float = 16.0,
                            a_lo: float = 2.0, a_hi: float = 2.6,
                            cutoff_margin: float = 1e-8) -> float:
    """Window half-length at which the discrete operator gains a bound state.

    Runs the single-window problem of the given parity (``"even"`` or
    ``"odd"``) with a Neumann far face (so the emerging state is not pushed
    above the threshold by the truncation) and secant-interpolates where
    the lowest eigenvalue crosses the discrete threshold minus a small
    margin.  The crossing drifts linearly in h (the effective window edge
    sits within one cell of the nominal one), so two grids plus
    first-order extrapolation land within a few 1e-3 of the true critical
    width.

    The widths searched form a lattice of step 2h from round(a_lo/h)*h,
    each point rounded to the grid and the last one clamped to
    round(a_hi/h)*h.  The gap (lowest eigenvalue minus cutoff) decreases
    monotonically in a, by min-max for a growing Neumann window, so one
    lattice cell holds the sign change.  The search starts in the cell
    that holds the crossing one grid coarser (2h, found by the same
    search while 2h <= COARSEST_SEED_GRID; on coarser grids, or when the
    coarse grid gives none, it starts in the first cell), solves the
    gap at both ends and walks one cell at a time towards the sign
    change.  The crossing moves by much less than a cell between grids,
    so a search takes two eigensolves on its own grid, plus the coarser
    grids' solves.  The result equals, bit for bit, that of a scan over
    the lattice from a_lo to the first sign change.  Raises
    ArithmeticError when the lattice holds no crossing and ValueError for
    any other parity.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    kind = ProblemKind.SINGLE_WINDOW_EVEN if parity == "even" else ProblemKind.SINGLE_WINDOW_ODD
    cut = discrete_threshold(h) - cutoff_margin

    def gap(a_aligned: float) -> float:
        cfg = canonicalize(StripConfig(d=math.pi, a=a_aligned, kind=kind))
        w = oracle_eigenvalues(cfg, OracleConfig(L=L, h=h, k=2, end="neumann"))
        return float(w[0] - cut)

    lattice = [round(a_lo / h) * h]
    end = round(a_hi / h) * h
    while lattice[-1] < end:
        lattice.append(min(round((lattice[-1] + 2.0 * h) / h) * h, end))
    seed = lattice[0]
    if 2.0 * h <= COARSEST_SEED_GRID:
        try:
            seed = critical_width_crossing(parity, 2.0 * h, L, a_lo, a_hi, cutoff_margin)
        except (ArithmeticError, GridAlignmentError):
            pass  # no seed: start in the first cell
    i = min(max(bisect.bisect_right(lattice, seed) - 1, 0), len(lattice) - 2)
    gaps: dict[int, float] = {}
    while 0 <= i < len(lattice) - 1:
        for j in (i, i + 1):
            if j not in gaps:
                gaps[j] = gap(lattice[j])
        g_prev, g = gaps[i], gaps[i + 1]
        if g_prev > 0.0 >= g:
            a_prev, a = lattice[i], lattice[i + 1]
            return a_prev + (a - a_prev) * g_prev / (g_prev - g)
        if g_prev <= 0.0 < g:
            raise ArithmeticError(
                f"threshold gap increases from a={lattice[i]} to a={lattice[i + 1]} at h={h}")
        i += 1 if g > 0.0 else -1
    raise ArithmeticError(
        f"no threshold crossing for parity={parity} in [{a_lo}, {a_hi}] at h={h}")
