"""Independent finite-difference oracle for the windowed-strip eigenproblem.

A deliberately simple 5-point discretization of the Laplacian on the
truncated half strip [0, L] x [0, pi]: Dirichlet rows are eliminated on
the walls and (by default) at the truncation face x1 = L, the Neumann
window segments and the mirror plane use second-order ghost-point
reflection, and the resulting operator is symmetrized exactly by the
half-cell weights of the reflected nodes.  Its job is to be auditable and
independent of the mode-matching code: it takes only the geometry types
from :mod:`modes` and nothing from the matching solver.

One node layout (:class:`FDGrid`: node mask, window rows, ghost
multiplicities) feeds both the CSR assembly, written row by row in
column order, and the solve of the shift-inverted Lanczos iteration.
Away from the windows the operator is separable, T1 (x) I + I (x) T2
with Dirichlet T2 and a T1 set by the mirror-plane parity and the
far-face condition, so orthonormal DCT/DST transforms diagonalize it;
the few window nodes couple only to their neighbors at j = 1 and are
eliminated through a small dense Schur complement (the capacitance-matrix
method of Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8 (1971)
722-736).  Shift-invert Lanczos gives the same Ritz values in any
orthonormal basis (Ericsson and Ruhe, Math. Comp. 35 (1980) 1251-1268),
so the iteration runs in the transforms' mode coordinates, where a step
is a diagonal scaling plus the window correction; only the start vector
and the Ritz vectors are transformed.  The CSR operator stays the
definition: every eigenpair is mapped back to the nodes and checked
against it.

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
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
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
    "critical_width_crossings",
    "FDGrid",
    "FDOperator",
    "ModeSolver",
]


#: coarsest grid whose crossing seeds the search on the grid twice as fine
COARSEST_SEED_GRID = 1.0 / 8.0
#: shift of the inverted Lanczos iteration, below every bound state (> 1/4)
SIGMA = 0.2
#: Lanczos basis size of an eigensolve on a grid (raised to 2k + 1 where larger)
LANCZOS_VECTORS = 8
#: largest relative eigenpair residual ||op v - lam v|| / |lam| accepted
EIGENPAIR_GATE = 1e-8
#: largest operator without a grid that lowest_eigenvalues inverts densely
DENSE_ROWS = 2000


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


class FDGrid:
    """Node layout of the 5-point operator, shared by its assembly and its inverse.

    Grid rows are x1 = i*h for i in [i_lo, i_hi] and columns x2 = j*h2 for
    j in [0, n2).  Row i_lo = 0 exists only with a reflecting mirror plane
    (even kinds) and row i_hi = n1 only with a Neumann far face.  Node
    (i, j) exists for every j >= 1 and, on the window rows, for j = 0; it
    is numbered ``index[i - i_lo, j]`` in row order (-1 where eliminated).
    """

    def __init__(self, cfg: CanonicalConfig, ocfg: OracleConfig) -> None:
        kind = cfg.base.kind
        a = cfg.base.a
        h = ocfg.h
        n1 = _check_aligned("L", ocfg.L, h)
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

        self.h = h
        self.n1 = n1
        self.n2 = round(math.pi / h)
        self.h2 = math.pi / self.n2
        self.c1 = 1.0 / (h * h)
        self.c2 = 1.0 / (self.h2 * self.h2)
        self.diagonal = 2.0 * self.c1 + 2.0 * self.c2
        self.plane_neumann = kind.parity == "even"
        self.end_neumann = ocfg.end == "neumann"
        self.i_lo = 0 if self.plane_neumann else 1
        self.i_hi = n1 if self.end_neumann else n1 - 1  # inclusive
        eps = 1e-9
        x = np.arange(self.i_lo, self.i_hi + 1) * h
        #: per row: the j = 0 node lies on a window
        self.window = (win_lo + eps < x) & (x < win_hi - eps)
        self.keep = np.ones((len(x), self.n2), dtype=bool)
        self.keep[:, 0] = self.window
        self.size = int(np.count_nonzero(self.keep))
        self.index = np.full(self.keep.shape, -1)
        self.index[self.keep] = np.arange(self.size)

    def x1_couplings(self) -> np.ndarray:
        """Weight of the x1 coupling between each row and the next.

        Reflection doubles the weight of a ghost coupling at the mirror
        plane (even kinds) and at a Neumann far face; the symmetrized
        weight is -c1 * sqrt(m_fwd * m_bwd).
        """
        i = np.arange(self.i_lo, self.i_hi)
        m_fwd = np.where(self.end_neumann & (i + 1 == self.n1), 2.0, 1.0)
        m_bwd = np.where(self.plane_neumann & (i == 0), 2.0, 1.0)
        return -self.c1 * np.sqrt(m_fwd * m_bwd)

    def x1_transform(self):
        """The orthonormal transform that diagonalizes the x1 operator.

        Returns (forward, inverse, eigenvalues) with forward(x) = Q^T x and
        inverse(x) = Q x along the first axis of x.  The rows i_lo..i_hi
        carry the 1-D operator with diagonal 2*c1 and the couplings of
        :meth:`x1_couplings`; its eigenvalues are 4*c1*sin^2(theta/2) with
        theta = (k + s)*pi/n1, and its eigenvectors are the orthonormal DCT
        or DST basis of the plane's parity and the far face's condition
        (the sqrt(2) ghost weights are the ``norm="ortho"`` end weights).
        """
        from scipy import fft

        name, kind, s = {(True, False): ("dct", 3, 0.5),   # Neumann plane, Dirichlet face
                         (False, False): ("dst", 1, 1.0),  # Dirichlet at both
                         (True, True): ("dct", 1, 0.0),    # Neumann at both
                         (False, True): ("dst", 3, 0.5),   # Dirichlet plane, Neumann face
                         }[(self.plane_neumann, self.end_neumann)]
        fwd, inv = getattr(fft, name), getattr(fft, "i" + name)
        theta = (np.arange(self.i_hi - self.i_lo + 1) + s) * (math.pi / self.n1)
        return (lambda x: fwd(x, type=kind, norm="ortho", axis=0),
                lambda x: inv(x, type=kind, norm="ortho", axis=0),
                4.0 * self.c1 * np.sin(theta / 2.0) ** 2)

    def shift_solver(self, sigma: float) -> ModeSolver:
        """(A - sigma I)^-1 for the operator A of :func:`discretize`, in mode coordinates.

        The nodes j >= 1 carry T1 (x) I + I (x) T2, diagonal in the x1
        transform of :meth:`x1_transform` times the orthonormal DST-I in
        x2, with eigenvalues lam_m + mu_k.  The mode coordinates of a node
        vector are its 2-D transform on those nodes followed by its values
        on the window nodes (j = 0), an orthonormal change of basis Q.  The
        DST-I is applied as a product with its dense sine matrix: its FFT
        length 2*n2 has the prime factors 67 (h = 1/64) and 101 (h = 1/32),
        where the matrix product is about three times faster.  The window
        nodes couple only to j = 1, by -g with g = sqrt(2)*c2, and are
        eliminated through the dense Schur complement

            S = W - sigma - g^2 Q_w diag(sum_k phi_k(1)^2/(lam_m + mu_k - sigma)) Q_w^T
              = Q_w diag(e_m) Q_w^T,   e_m = n2 / sum_k 1/(lam_m + nu_k - sigma),

        with W the window block, Q_w the x1 basis on the window rows (the
        transform of the unit vectors there) and phi_k(1) the x2 modes at
        j = 1.  The second form holds because W = Q_w (diag(lam) + 2 c2) Q_w^T:
        e_m is the Schur complement onto j = 0 of the x2 line in x1 mode m
        (T2 with the node j = 0 added, shifted by lam_m - sigma), whose
        eigenvalues are lam_m - sigma + nu_k, nu_k = 4 c2 sin^2((k + 1/2)
        pi/(2 n2)), and whose eigenvectors all weigh 1/n2 at j = 0.  Its
        terms are all positive, where the first form cancels O(c2) terms.
        S is factored once by Cholesky, which needs it positive definite,
        as it is when sigma lies below the spectrum; a failed
        factorization raises ArithmeticError.

        Returns a :class:`ModeSolver`: ``solve`` is Q^T (A - sigma I)^-1 Q,
        a diagonal scaling, two small triangular solves and a rank-one
        window correction, exact up to rounding and free of transforms;
        ``to_modes`` (Q^T) and ``to_nodes`` (Q) are one 2-D transform each.  The node-space solve is
        ``to_nodes(solve(to_modes(b)))``.
        """
        # the operator's diagonal is 2*c1 + 2*c2 rounded, which moves its whole
        # spectrum by the rounding error; TwoSum gives that error exactly
        d1, d2 = 2.0 * self.c1, 2.0 * self.c2
        dd = self.diagonal - d1
        shift = sigma + ((d1 - (self.diagonal - dd)) + (d2 - dd))
        x1_fwd, x1_inv, lam = self.x1_transform()
        k = np.arange(1, self.n2)
        mu = 4.0 * self.c2 * np.sin(k * (math.pi / (2 * self.n2))) ** 2
        # j*k is reduced mod 2*n2 so every sine argument stays below 2*pi
        sines = math.sqrt(2.0 / self.n2) * np.sin(np.outer(k, k) % (2 * self.n2) * (math.pi / self.n2))
        phi = sines[0]  # the x2 modes at j = 1
        denom = lam[:, None] + (mu - shift)
        g = math.sqrt(2.0) * self.c2

        rows = np.flatnonzero(self.window)
        unit = np.zeros((len(self.window), len(rows)))
        unit[rows, np.arange(len(rows))] = 1.0
        q_w = x1_fwd(unit)  # Q_w^T: the x1 modes on the window rows
        nu = 4.0 * self.c2 * np.sin((np.arange(self.n2) + 0.5) * (math.pi / (2 * self.n2))) ** 2
        e = self.n2 / (1.0 / (lam[:, None] + (nu - shift))).sum(axis=1)
        s_mat = q_w.T @ (e[:, None] * q_w)
        try:
            chol = scipy.linalg.cho_factor(s_mat, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"shifted window system is not positive definite at sigma={sigma}") from exc
        u_nodes = self.index[:, 1:].ravel()
        w_nodes = self.index[rows, 0]
        n_u = u_nodes.size

        def solve(z: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=float).ravel()
            x = np.empty(self.size)
            y = x[:n_u].reshape(denom.shape)
            np.divide(z[:n_u].reshape(denom.shape), denom, out=y)
            x_w = scipy.linalg.cho_solve(chol, z[n_u:] + g * (q_w.T @ (y @ phi)), check_finite=False)
            y += g * np.outer(q_w @ x_w, phi) / denom
            x[n_u:] = x_w
            return x

        def to_modes(b: np.ndarray) -> np.ndarray:
            b = np.asarray(b, dtype=float).ravel()
            return np.concatenate(((x1_fwd(b.take(u_nodes).reshape(denom.shape)) @ sines).ravel(),
                                   b[w_nodes]))

        def to_nodes(z: np.ndarray) -> np.ndarray:
            x = np.empty(self.size)
            x[u_nodes] = x1_inv(z[:n_u].reshape(denom.shape) @ sines).ravel()
            x[w_nodes] = z[n_u:]
            return x

        return ModeSolver(solve, to_modes, to_nodes)


@dataclass(frozen=True)
class ModeSolver:
    """A shifted inverse in the mode coordinates of its grid (:meth:`FDGrid.shift_solver`)."""

    solve: Callable[[np.ndarray], np.ndarray]
    to_modes: Callable[[np.ndarray], np.ndarray]
    to_nodes: Callable[[np.ndarray], np.ndarray]


class FDOperator(sparse.csr_matrix):
    """The CSR operator of :func:`discretize`, carrying the grid it lives on.

    ``grid`` lets :func:`lowest_eigenvalues` invert the shifted operator by
    fast transforms.  Matrices that scipy derives from it carry no grid.
    """

    grid: FDGrid | None = None


def discretize(cfg: CanonicalConfig, ocfg: OracleConfig) -> FDOperator:
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
    grid = FDGrid(cfg, ocfg)
    keep, index = grid.keep, grid.index
    # the five stencil slots of node (i, j) in ascending column order, since
    # nodes are numbered in row order: (i - 1, j), (i, j - 1), (i, j),
    # (i, j + 1), (i + 1, j); a slot without a node holds column -1
    cols = np.full(keep.shape + (5,), -1)
    cols[1:, :, 0] = index[:-1]
    cols[:, 1:, 1] = index[:, :-1]
    cols[:, :, 2] = index
    cols[:, :-1, 3] = index[:, 1:]
    cols[:-1, :, 4] = index[1:]
    w1 = grid.x1_couplings()[:, None]
    # x2 couplings, with ghost doubling at a window node (j = 0)
    w2 = np.full(grid.n2 - 1, -grid.c2)
    w2[0] = -grid.c2 * math.sqrt(2.0)
    vals = np.empty(cols.shape)
    vals[1:, :, 0] = w1
    vals[:, 1:, 1] = w2
    vals[:, :, 2] = grid.diagonal
    vals[:, :-1, 3] = w2
    vals[:-1, :, 4] = w1
    stencil = keep[..., None] & (cols >= 0)
    indptr = np.zeros(grid.size + 1, dtype=np.int64)
    np.cumsum(stencil.sum(axis=2)[keep], out=indptr[1:])
    op = FDOperator((vals[stencil], cols[stencil], indptr), shape=(grid.size, grid.size))
    op.grid = grid
    ii, jj = np.nonzero(keep)
    return op, (ii + grid.i_lo) * grid.h, jj * grid.h2


def lowest_eigenvalues(op: sparse.csr_matrix, k: int, tol: float = 1e-10) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric operator, sorted ascending.

    Shift-inverted Lanczos around SIGMA; the starting vector is fixed so
    repeated runs are reproducible bit-for-bit, though converged spectra
    agree to solver tolerance for any start.  An operator from
    :func:`discretize` is inverted through its grid
    (:meth:`FDGrid.shift_solver`), and the iteration runs in the grid's
    orthonormal mode coordinates, which leave the Ritz values unchanged:
    each step is a diagonal scaling plus the window correction, and only
    the start vector and the k Ritz vectors are transformed, with a basis
    of LANCZOS_VECTORS (at least 2k + 1) vectors.  Any other operator of
    at most DENSE_ROWS rows is inverted densely, and a larger one raises
    ValueError.  Every eigenpair (lam, v) is checked against the operator
    itself: ArithmeticError unless ||op v - lam v|| <= EIGENPAIR_GATE * |lam|.
    """
    n = op.shape[0]
    if k >= n:
        raise ValueError("requested more eigenvalues than the operator has rows")
    grid = getattr(op, "grid", None)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    if grid is not None:
        modes = grid.shift_solver(SIGMA)
        solve, v0, ncv = modes.solve, modes.to_modes(v0), min(n, max(2 * k + 1, LANCZOS_VECTORS))
    elif n <= DENSE_ROWS:
        modes, ncv = None, None
        lu = scipy.linalg.lu_factor(op.toarray() - SIGMA * np.eye(n))
        solve = functools.partial(scipy.linalg.lu_solve, lu)
    else:
        raise ValueError(f"an operator of {n} > {DENSE_ROWS} rows must come from discretize")
    op_inv = splinalg.LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        # in shift-invert mode eigsh takes only the shape and dtype of its first argument
        w, v = splinalg.eigsh(op_inv, k=k, sigma=SIGMA, which="LM", tol=tol, OPinv=op_inv, v0=v0, ncv=ncv)
    except splinalg.ArpackNoConvergence as exc:  # pragma: no cover - diagnostic path
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    if modes is not None:
        v = np.column_stack([modes.to_nodes(z) for z in v.T])
    residual = np.linalg.norm(op @ v - v * w, axis=0) / np.abs(w)
    if not np.all(residual <= EIGENPAIR_GATE):
        raise ArithmeticError(f"eigenpair residual {residual.max():.3g} exceeds {EIGENPAIR_GATE:g}")
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
    any other parity.  :func:`critical_width_crossings` returns the seed
    crossing on 2h as well.
    """
    return critical_width_crossings(parity, h, L, a_lo, a_hi, cutoff_margin)[1]


def critical_width_crossings(parity: str, h: float, L: float = 16.0,
                             a_lo: float = 2.0, a_hi: float = 2.6,
                             cutoff_margin: float = 1e-8) -> tuple[float | None, float]:
    """The crossing on grid 2h that seeded the search on grid h, and the crossing on h.

    The search is that of :func:`critical_width_crossing`; the first value
    is None where no coarser crossing seeded it (2h coarser than
    COARSEST_SEED_GRID, or no crossing on 2h).  Each value equals, bit for
    bit, that of :func:`critical_width_crossing` on its grid, so a
    two-grid extrapolation needs only the search on the finer grid.
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
    seed = None
    if 2.0 * h <= COARSEST_SEED_GRID:
        try:
            seed = critical_width_crossing(parity, 2.0 * h, L, a_lo, a_hi, cutoff_margin)
        except (ArithmeticError, GridAlignmentError):
            pass  # no seed: start in the first cell
    start = lattice[0] if seed is None else seed
    i = min(max(bisect.bisect_right(lattice, start) - 1, 0), len(lattice) - 2)
    gaps: dict[int, float] = {}
    while 0 <= i < len(lattice) - 1:
        for j in (i, i + 1):
            if j not in gaps:
                gaps[j] = gap(lattice[j])
        g_prev, g = gaps[i], gaps[i + 1]
        if g_prev > 0.0 >= g:
            a_prev, a = lattice[i], lattice[i + 1]
            return seed, a_prev + (a - a_prev) * g_prev / (g_prev - g)
        if g_prev <= 0.0 < g:
            raise ArithmeticError(
                f"threshold gap increases from a={lattice[i]} to a={lattice[i + 1]} at h={h}")
        i += 1 if g > 0.0 else -1
    raise ArithmeticError(
        f"no threshold crossing for parity={parity} in [{a_lo}, {a_hi}] at h={h}")
