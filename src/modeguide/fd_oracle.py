"""Independent finite-difference oracle for the windowed-strip eigenproblem.

A deliberately simple 5-point discretization of the Laplacian on the
truncated half strip [0, L] x [0, pi]: Dirichlet rows are eliminated on
the walls and (by default) at the truncation face x1 = L, the Neumann
window segments and the mirror plane use second-order ghost-point
reflection, and the operator is symmetrized exactly by the half-cell
weights of the reflected nodes.  The mirror plane x1 = 0 (the window
center, or the midpoint of two windows) is reflecting for even kinds and
eliminated for odd ones.

One node layout (:class:`FDGrid`) carries the stencil's weights, which
the eigensolve, the residual check and the CSR assembly all read.  Away
from the windows the operator is separable, and orthonormal DCT/DST
bases diagonalize it with eigenvalues lam_m + mu_k: the bases in closed
form on the window rows, and from modes to nodes by one real FFT.  A
mode that vanishes on every window node is an eigenvector as it stands
(a free mode); eliminating every node but the few window nodes leaves
the other modes the small dense window Schur complement S(sigma) of
A - sigma I (:class:`WindowForm`).  By inertia additivity the
eigenvalues below sigma that are not free number the poles of S below
it, plus the negative eigenvalues of S(sigma), so the eigensolve is the
matching solver's count, isolation and polish (:mod:`modeguide.roots`)
plus the free values in closed form.  The eigenvectors stay grid arrays,
0 at the eliminated nodes, from the transforms to the check.  The stencil
stays the definition: every eigenpair is checked against it, applied to
those arrays with no matrix (:meth:`FDGrid.apply`).
The oracle shares only the geometry types and that root finder with
the matching solver; its independence rests on its own discretization,
the completeness of the count and that check.  It needs only numpy,
but for the CSR assembly (:func:`discretize`), the tests' reference
operator.

The window-edge corners host a square-root field singularity, so the
eigenvalue error is first-order dominated; accuracy comes from
Richardson extrapolation over grids, with the difference of the two
finest grids kept as a conservative error bound.  A Neumann far face
lowers eigenvalues instead of raising them and so keeps an emerging
bound state visible on the truncated domain, which
:func:`critical_width_crossing` uses to locate, by count, the window
width where a new state crosses below the discrete threshold.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as windows

from .modes import CanonicalConfig, GridAlignmentError, ProblemKind, StripConfig, canonicalize
from .roots import Root, Sector, ascending_roots, count, kernel

__all__ = [
    "GridAlignmentError",
    "OracleConfig",
    "discretize",
    "lowest_eigenvalues",
    "oracle_eigenvalues",
    "refine_and_extrapolate",
    "discrete_threshold",
    "critical_width_crossing",
    "FDGrid",
    "WindowForm",
    "MAX_UNKNOWNS",
]


#: largest relative eigenpair residual ||op v - lam v|| / |lam| accepted
EIGENPAIR_GATE = 1e-8
#: most grid nodes (L/h) * (pi/h) of a discretization: ten times the h = 1/64,
#: L = 16 grid; an eigensolve for k = 4 peaks at 100-110 bytes per node of
#: numpy allocations (measured at h = 1/64 and 1/128, L = 16, one and two
#: windows), so a run stays below about 0.3 GB
MAX_UNKNOWNS = 2 ** 21
#: the crossing's cutoff sits this far below discrete_threshold(h), so an
#: eigenvalue on the threshold up to rounding does not count as bound
CROSSING_MARGIN = 1e-8


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
        _transverse_cells(self.h)
        unknowns = (self.L / self.h) * (math.pi / self.h)
        if not unknowns <= MAX_UNKNOWNS:
            raise ValueError(f"a grid of L={self.L}, h={self.h} holds {unknowns:.4g} unknowns, "
                             f"over the cap of {MAX_UNKNOWNS}")
        if self.k > unknowns:
            raise ValueError(f"k={self.k} exceeds the {unknowns:.0f} unknowns of the grid")


def _check_aligned(name: str, value: float, h: float) -> int:
    steps = value / h
    n = round(steps)
    if abs(steps - n) > 1e-9:
        raise GridAlignmentError(f"{name}={value} is not a multiple of the grid step h={h}")
    return n


def _transverse_cells(h: float) -> int:
    """n2 = round(pi/h), the cells across the strip width d = pi; ValueError below 2."""
    if (cells := round(math.pi / h)) < 2:
        raise ValueError(f"the grid is too coarse: a step h={h} leaves n2 = {cells} cells across "
                         f"the strip width d = pi, and the oracle needs 2 (h <= 2 pi/3)")
    return cells


def discrete_threshold(h: float) -> float:
    """Bottom of the continuous band of the discretized Dirichlet strip.

    The transverse grid uses n2 = round(pi/h) cells, so the first discrete
    transverse eigenvalue is (4/h2^2) sin^2(h2/2) with h2 = pi/n2, just
    below 1 by h2^2/12.  A grid of fewer than 2 cells raises ValueError.
    """
    h2 = math.pi / _transverse_cells(h)
    return (4.0 / h2 ** 2) * math.sin(h2 / 2.0) ** 2


class FDGrid:
    """Node layout of the 5-point operator, shared by its assembly and its eigensolve.

    Grid rows are x1 = i*h for i in [i_lo, i_hi] and columns x2 = j*h2 for
    j in [0, n2).  Row i_lo = 0 exists only with a reflecting mirror plane
    (even kinds) and row i_hi = n1 only with a Neumann far face.  Node
    (i, j) exists for every j >= 1 and, on the window rows, for j = 0; it
    is numbered ``index[i - i_lo, j]`` in row order (-1 where eliminated),
    the numbering of :func:`discretize`.  The eigensolve numbers no node: its
    vectors are grid arrays (k, rows, n2), ``keep`` their node mask.
    """

    def __init__(self, cfg: CanonicalConfig, ocfg: OracleConfig) -> None:
        kind = cfg.base.kind
        a, l, h = cfg.base.a, cfg.base.l if kind.is_two_window else 0.0, ocfg.h
        n1 = _check_aligned("L", ocfg.L, h)
        _check_aligned("a", a, h)
        _check_aligned("l-a", l - a, h)
        win_lo, win_hi = l - a, l + a
        if win_hi >= ocfg.L:
            raise ValueError(f"window reaches the truncation face: need l+a < L, got {win_hi} >= {ocfg.L}")

        self.h = h
        self.n1 = n1
        self.n2 = _transverse_cells(h)
        self.h2 = math.pi / self.n2
        self.c1 = 1.0 / (h * h)
        self.c2 = 1.0 / (self.h2 * self.h2)
        self.diagonal = 2.0 * self.c1 + 2.0 * self.c2
        self.plane_neumann = kind.parity == "even"
        self.end_neumann = ocfg.end == "neumann"
        self.x1_basis = {(True, False): ("dct", 3, 0.5),   # Neumann plane, Dirichlet face
                         (False, False): ("dst", 1, 1.0),  # Dirichlet at both
                         (True, True): ("dct", 1, 0.0),    # Neumann at both
                         (False, True): ("dst", 3, 0.5),   # Dirichlet plane, Neumann face
                         }[(self.plane_neumann, self.end_neumann)]
        self.i_lo = 0 if self.plane_neumann else 1
        self.i_hi = n1 if self.end_neumann else n1 - 1  # inclusive
        self.rows = np.arange(self.i_lo, self.i_hi + 1)
        eps = 1e-9
        x = self.rows * h
        #: per row: the j = 0 node lies on a window
        self.window = (win_lo + eps < x) & (x < win_hi - eps)
        self.keep = np.ones((len(x), self.n2), dtype=bool)
        self.keep[:, 0] = self.window
        self.size = int(np.count_nonzero(self.keep))
        self.index = np.full(self.keep.shape, -1)
        self.index[self.keep] = np.arange(self.size)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x1, x2) of every node, one coordinate per operator row.

        A raw eigenvector equals sqrt(s) times the field values, with s = 1/2
        per reflecting boundary the node sits on (the similarity weights).
        """
        ii, jj = np.nonzero(self.keep)
        return (ii + self.i_lo) * self.h, jj * self.h2

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

    def x2_couplings(self) -> np.ndarray:
        """Weight of the x2 coupling between each column and the next: -c2,
        sqrt(2) times that between a window node (j = 0) and j = 1 (ghost doubling)."""
        w2 = np.full(self.n2 - 1, -self.c2)
        w2[0] *= math.sqrt(2.0)
        return w2

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The stencil of :func:`discretize` on grid arrays ``u`` (k, rows, n2), a new such array.

        The same weights: the diagonal, :meth:`x1_couplings` and
        :meth:`x2_couplings`, with the arrays' eliminated nodes (``keep``
        False) read as they stand, so they must hold 0.  At the kept nodes the
        result is the operator times the node vectors; at the eliminated ones
        it is not the operator's and is left to the caller.
        """
        w1, w2 = self.x1_couplings()[:, None], self.x2_couplings()
        out, t = self.diagonal * u, np.empty_like(u)  # t holds each shifted product in turn
        out[:, 1:] += np.multiply(w1, u[:, :-1], out=t[:, 1:])
        out[:, :-1] += np.multiply(w1, u[:, 1:], out=t[:, :-1])
        out[..., 1:] += np.multiply(w2, u[..., :-1], out=t[..., 1:])
        out[..., :-1] += np.multiply(w2, u[..., 1:], out=t[..., :-1])
        return out

    def x1_eigenvalues(self) -> np.ndarray:
        """Eigenvalues 4*c1*sin^2(theta/2), theta = (m + s)*pi/n1, of the 1-D x1
        operator on the rows (diagonal 2*c1, couplings of :meth:`x1_couplings`)."""
        theta = (np.arange(len(self.rows)) + self.x1_basis[2]) * (math.pi / self.n1)
        return 4.0 * self.c1 * np.sin(theta / 2.0) ** 2

    def x1_modes(self, i: np.ndarray) -> np.ndarray:
        """Q^T at the rows ``i``: the x1 eigenvectors in closed form, one per row of the result.

        Q_im = sqrt(2/n1) w_i w_m f((m + s) pi i/n1), the orthonormal DCT
        (f = cos) or DST (f = sin) of the plane's parity and the far face's
        condition, w = 1/sqrt(2) where i or m + s is a multiple of n1 (the
        ``norm="ortho"`` end weights, from the sqrt(2) ghost couplings).
        The integer 2 (m + s) i is reduced mod 4 n1 and looks f up in a
        table of its 4 n1 values, so every argument is below 2 pi.
        """
        name, _, s = self.x1_basis
        two_ms = 2 * np.arange(len(self.rows)) + round(2 * s)
        f = np.cos if name == "dct" else np.sin
        q = (math.sqrt(2.0 / self.n1) * f(np.arange(4 * self.n1) * (math.pi / (2 * self.n1))))[
            np.outer(two_ms, i) % (4 * self.n1)]
        q[two_ms % (2 * self.n1) == 0] *= math.sqrt(0.5)
        q[:, i % self.n1 == 0] *= math.sqrt(0.5)
        return q

    def x1_inverse(self, y: np.ndarray) -> np.ndarray:
        """Q y along the last axis, from x1 mode coordinates to the rows, by one real FFT of length 2 n1.

        sum_m w_m y_m f((m + s) pi i/n1) is the real part (cos) or minus the
        imaginary part (sin) of the FFT of w_m y_m at i times :func:`_twiddle`.
        """
        name, _, s = self.x1_basis
        n1, rows = self.n1, self.rows
        ends = (2 * np.arange(y.shape[-1]) + round(2 * s)) % (2 * n1) == 0
        if ends.any():  # the DCT-I's modes 0 and n1; every other w_m is 1
            y = y * np.where(ends, math.sqrt(0.5), 1.0)
        w_i = np.where(rows % n1 == 0, math.sqrt(0.5), 1.0)
        z = np.fft.rfft(y, 2 * n1)[..., self.i_lo:self.i_hi + 1]
        z *= (math.sqrt(2.0 / n1) if name == "dct" else -math.sqrt(2.0 / n1)) * w_i * _twiddle(s, n1, rows)
        return z.real if name == "dct" else z.imag


def _twiddle(s: float, n1: int, d: np.ndarray) -> np.ndarray:
    """exp(-i s pi d/n1), s d reduced mod 2 n1: times the real FFT R(d) = sum_m x_m
    exp(-i m pi d/n1) of length 2 n1, the sum of x_m exp(-i (m + s) pi d/n1)."""
    return np.exp(-1j * (math.pi / n1) * (s * d % (2 * n1)))


def _x2_line_schur(z: np.ndarray, c4: float, n2: int) -> np.ndarray:
    """n2 / sum_k 1/(z + nu_k), nu_k = c4 sin^2((k + 1/2) pi/(2 n2)), in closed form, for ascending z.

    The x2 line's eigenvectors weigh 1/n2 at j = 0 and its eigenvalues z + nu_k sit at the roots of
    T_n2, so this is (c4/2) T_n2(x)/U_{n2-1}(x), x = 1 + 2 z/c4: c4 s r, s = sqrt(|z|/c4), r =
    sqrt(|1 + z/c4|), over tanh(2 n2 asinh s) for z > 0, over tan(2 n2 asin s) = -tan(2 n2 acos s)
    above -c4 (by atan2, at the angle below pi/4, which keeps its digits), over -tanh(2 n2 asinh r) below.
    """
    s, r = np.sqrt(np.abs(z)) / math.sqrt(c4), np.sqrt(np.abs(c4 + z)) / math.sqrt(c4)
    below, mid, neg = np.searchsorted(z, (-c4, -0.5 * c4, 0.0))
    above, pos = np.searchsorted(z, (-c4, 0.0), "right")
    sr, e = c4 * s * r, np.where(z == -c4, -0.5, 0.5) * (c4 / n2)  # the limits at z = -c4 and 0
    e[:below] = -sr[:below] / np.tanh(2 * n2 * np.arcsinh(r[:below]))
    e[above:mid] = -sr[above:mid] / np.tan(2 * n2 * np.arctan2(r[above:mid], s[above:mid]))
    e[mid:neg] = sr[mid:neg] / np.tan(2 * n2 * np.arctan2(s[mid:neg], r[mid:neg]))
    e[pos:] = sr[pos:] / np.tanh(2 * n2 * np.arcsinh(s[pos:]))
    return e


@functools.lru_cache(maxsize=16)
def _dst_sines(n2: int) -> np.ndarray:
    """The orthonormal DST-I of length n2 - 1 as its sine matrix, sqrt(2/n2) sin(j k pi/n2).

    j k is reduced mod 2 n2, so every argument is below 2 pi.  Memoised per
    n2; the shared array is read-only.
    """
    k = np.arange(1, n2)
    sines = math.sqrt(2.0 / n2) * np.sin(np.outer(k, k) % (2 * n2) * (math.pi / n2))
    sines.setflags(write=False)
    return sines


def _inverse_iteration(S: np.ndarray) -> np.ndarray:
    """Unit kernel vector of a symmetric S singular to rounding, by two solves.

    Inverse iteration (Peters and Wilkinson, SIAM Rev. 21 (1979) 339-360)
    from cos(phi j), phi the golden angle: a start with no symmetry, since a
    kernel can be orthogonal to a symmetric one (to the all-ones vector on the
    three window nodes of the odd two-window grid a = 1/16, l = 4, h = 1/32).
    A 1 x 1 S gives [1]; an exactly singular S, on which a solve raises,
    gives :func:`~modeguide.roots.kernel`'s eigenvector.
    """
    if S.shape[0] == 1:
        return np.ones(1)
    x = np.cos((math.pi * (3.0 - math.sqrt(5.0))) * np.arange(S.shape[0]))
    try:
        for _ in range(2):
            x = np.linalg.solve(S, x)
            x /= np.linalg.norm(x)
    except np.linalg.LinAlgError:
        return kernel(S)
    return x


class WindowForm:
    """The window Schur complement S(sigma) of A - sigma I, a form of sigma.

    A is the grid's 5-point operator (:meth:`FDGrid.apply`).  Its nodes j >= 1
    carry T1 (x) I + I (x) T2, diagonal in the x1 transform times the
    orthonormal DST-I in x2 with eigenvalues lam_m + mu_k: eigenvalues of A
    (``free_values``) for an x1 mode that vanishes on every window row (for
    every mode on a grid without one), the poles of S for the other modes.
    The window nodes (j = 0) couple only to j = 1, by -g = -sqrt(2)*c2, and
    S = Q_w diag(e_m) Q_w^T, with Q_w the other modes on the window rows
    (:meth:`FDGrid.x1_modes`) and e_m the Schur complement onto j = 0 of the
    x2 line in mode m shifted by lam_m - sigma (:func:`_x2_line_schur`).
    Each x1 basis is sqrt(2/n1) w_i w_m cos or sin((m + s) pi i/n1), w =
    1/sqrt(2) at its ortho ends, so S is Toeplitz plus (DCT) or minus (DST)
    Hankel, S_ii' = w_i w_i' [c(|i - i'|) +- c(i + i')] with c(d) = sum_m
    w_m^2 e_m cos((m + s) pi d/n1)/n1 for d < 2 n1 (i + i' < 2 n1), every
    c(d) from one real FFT of length 2 n1, at d or, past n1, conjugated at
    2 n1 - d, times :func:`_twiddle`: O(n1 log n1 + n_w^2) per point.  Called, the
    form gives S(sigma) and the number of poles below sigma, whose count
    (:mod:`modeguide.roots`) is by inertia additivity (Haynsworth, Linear
    Algebra Appl. 1 (1968) 73-81) the number of eigenvalues of A below
    sigma that are not free.
    """

    def __init__(self, grid: FDGrid) -> None:
        # the operator's diagonal is 2*c1 + 2*c2 rounded, which moves its whole
        # spectrum by the rounding error; TwoSum gives that error exactly
        d1, d2 = 2.0 * grid.c1, 2.0 * grid.c2
        dd = grid.diagonal - d1
        self.correction = (d1 - (grid.diagonal - dd)) + (d2 - dd)
        lam, self.x1_inverse = grid.x1_eigenvalues(), grid.x1_inverse
        n1, n2 = grid.n1, grid.n2
        self.mu = 4.0 * grid.c2 * np.sin(np.arange(1, n2) * (math.pi / (2 * n2))) ** 2
        # the DST-I in x2 as a product with its sine matrix (one BLAS call at these lengths)
        self.sines = _dst_sines(n2)
        self.g = math.sqrt(2.0) * grid.c2
        rows = np.flatnonzero(grid.window)
        q_w = grid.x1_modes(grid.rows[rows])  # Q_w^T: the x1 modes on the window rows
        # a mode's zeros, sines and cosines of multiples of pi/2 below 2 pi, are
        # below eps, while a mode that does not vanish on a window row is about
        # n1^-1.5 there at least
        free = np.abs(q_w).max(axis=1, initial=0.0) <= len(lam) * np.finfo(float).eps
        self.free, self.modes = np.flatnonzero(free), np.flatnonzero(~free)
        self.free_values = lam[free][:, None] + self.mu - self.correction
        self.lam, self.q_w = lam[~free], q_w[~free]
        self.n2, self.c4 = n2, 4.0 * grid.c2
        name, _, s = grid.x1_basis
        # 2 w_m^2, 1 at the frequencies 0 and pi (DCT-I modes 0 and n1)
        self.weights = np.where((self.modes + s) % n1 == 0, 1.0, 2.0)
        # the window rows run on from row i, and of them only a row x1 = 0 has w_i != 1
        self.n1, self.n_w, i = n1, len(rows), grid.rows[rows[0]] if len(rows) else 0
        self.w_first = math.sqrt(0.5) if i == 0 else 1.0
        # c(d) at the Toeplitz lags |i - i'|, then the Hankel sums i + i' with the basis's sign:
        # FFT entries R(d), and conj R(2 n1 - d) past n1, whose real part is that of their conjugates
        d = np.concatenate([np.abs(np.arange(1 - self.n_w, self.n_w)), np.arange(2 * i, 2 * (i + self.n_w) - 1)])
        self.folds, self.phases = np.minimum(d, 2 * n1 - d), _twiddle(s, n1, d)
        self.phases[d > n1] = self.phases[d > n1].conj()
        self.phases[len(d) // 2:] *= 1.0 if name == "dct" else -1.0
        # each call writes c(d) into one buffer and reads S through fixed read-only views
        # of its real part: the Toeplitz half with rows reversed, then the Hankel half
        self.c = np.empty(len(d), dtype=complex)
        if self.n_w:
            half = len(d) // 2
            self.toeplitz = windows(self.c.real[:half], self.n_w)[::-1]
            self.hankel = windows(self.c.real[half:], self.n_w)
        self.shape, self.window_rows = grid.keep.shape, rows

    def __call__(self, sigma: float) -> tuple[np.ndarray, int]:
        shift = sigma + self.correction
        poles = int(np.searchsorted(self.mu, shift - self.lam).sum())
        if not self.n_w:
            return np.zeros((0, 0)), poles
        coeffs = self.weights * _x2_line_schur(self.lam - shift, self.c4, self.n2)
        r = np.fft.rfft(np.bincount(self.modes, coeffs, 2 * self.n1), norm="forward")  # free modes: 0
        np.multiply(self.phases, r[self.folds], out=self.c)
        S = self.toeplitz + self.hankel
        S[0] *= self.w_first
        S[:, 0] *= self.w_first
        return S, poles

    def eigenpairs(self, roots: list[Root], k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest of the roots and the free values, roots first, and unit eigenvectors.

        The vectors are grid arrays (k, rows, n2) of :attr:`FDGrid.keep`'s layout,
        exactly 0 at every eliminated node.  For a root, the kernel vector x_w of its S
        on the window nodes, by inverse iteration on that S (two solves, no eigendecomposition),
        and, on the nodes j >= 1, the mode coordinates
        y = g (Q_w x_w) (x) phi / (lam_m + mu_k - root); for a free value its mode.
        """
        low = np.argsort(self.free_values, axis=None)[:k]
        w = np.concatenate([[root.x for root in roots], self.free_values.ravel()[low]])
        keep = np.sort(np.argsort(w, kind="stable")[:k])
        n = int(np.count_nonzero(keep < len(roots)))  # the kept roots are roots[:n]
        m, j = np.unravel_index(low[keep[n:] - len(roots)], self.free_values.shape)
        # y holds the mode coordinates of the nodes j >= 1 as (column, x2 mode, x1 mode),
        # the x1 modes last for the transform
        y = np.zeros((k, len(self.mu), len(self.free) + len(self.modes)))
        shifts = w[:n, None, None] + self.correction
        x_w = np.array([_inverse_iteration(root.at) for root in roots[:n]]).reshape(n, self.n_w)
        # the roots' coordinates, written in place into y when no x1 mode is free
        u = np.empty((n, len(self.mu), len(self.modes))) if len(self.free) else y[:n]
        np.add(self.lam, self.mu[:, None] - shifts, out=u)
        np.divide((self.g * (x_w @ self.q_w.T))[:, None], u, out=u)
        u *= self.sines[0][:, None]  # the x2 modes at j = 1
        if len(self.free):
            y[:n, :, self.modes] = u
        y[np.arange(n, k), j, self.free[m]] = 1.0
        del u  # freed before the transforms, which need three times y's memory
        y = self.sines @ y  # (column, j, x1 mode)
        y = self.x1_inverse(y)  # (column, j, row)
        v = np.empty((k,) + self.shape)
        v[:, :, 1:] = y.transpose(0, 2, 1)
        v[:, :, 0] = 0.0
        v[:n, self.window_rows, 0] = x_w
        v /= np.sqrt(np.einsum("kij,kij->k", v, v))[:, None, None]
        return w[keep], v


def discretize(grid: FDGrid):
    """Symmetric 5-point operator on the grid's nodes, a ``scipy.sparse.csr_matrix``.

    Row and column p are node p of ``grid.index``.  Every neighbor pair
    (p, q) gets the weight -c * sqrt(m_pq * m_qp), m the ghost multiplicity
    of the coupling: the raw stencil's similarity transform by the square
    root of the half-cell weights, equal to its transpose bit-exactly by
    construction.

    No solve uses it: :meth:`FDGrid.apply` applies the same stencil with no
    matrix.  It is the tests' reference operator and a name the benchmark's
    tracer binds, the one function of the package that needs scipy, and it
    goes when the tracer's table is rebuilt (ROADMAP item 2).
    """
    import scipy.sparse

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
    w1, w2 = grid.x1_couplings()[:, None], grid.x2_couplings()
    vals = np.empty(cols.shape)
    vals[1:, :, 0] = w1
    vals[:, 1:, 1] = w2
    vals[:, :, 2] = grid.diagonal
    vals[:, :-1, 3] = w2
    vals[:-1, :, 4] = w1
    stencil = keep[..., None] & (cols >= 0)
    indptr = np.zeros(grid.size + 1, dtype=np.int64)
    np.cumsum(stencil.sum(axis=2)[keep], out=indptr[1:])
    return scipy.sparse.csr_matrix((vals[stencil], cols[stencil], indptr), shape=(grid.size, grid.size))


def lowest_eigenvalues(grid: FDGrid, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the grid's operator (:meth:`FDGrid.apply`), ascending.

    The roots of the grid's :class:`WindowForm` and its free values: their
    count is 0 at sigma = 0, below the positive definite spectrum, and the
    upper end doubles from 1 until it reaches k; count bisection isolates
    the first k roots, Brent's method on det S polishes them to a few ulps,
    and the k lowest of these and the free values are kept.  Each root is
    polished only when it is reached, from a bracket that does not depend on
    k, so the lowest values of a smaller k are those of a larger one bit for
    bit: a caller that reads only the first asks for k = 1.  A root no
    bracket separates from a pole raises ArithmeticError.  Every eigenpair
    (lam, v) is checked against the operator's stencil: ArithmeticError
    unless ||A v - lam v|| <= EIGENPAIR_GATE * |lam|.  A k of at least
    ``grid.size`` raises ValueError.
    """
    if k >= grid.size:
        raise ValueError(f"requested more eigenvalues than the operator has rows ({k} >= {grid.size}): "
                         f"the grid is too coarse")
    form = WindowForm(grid)
    sec = Sector(form, 0.0, 1.0, 0.0)
    ends = [count(sec, sec.lo), count(sec, sec.hi)]
    while ends[-1].roots + np.count_nonzero(form.free_values < ends[-1].x) < k:
        ends.append(count(sec, 2.0 * ends[-1].x))
    # the bisection of (0, 2^j] meets the upper ends it doubled from as midpoints
    roots = ascending_roots(sec, ends[0], ends[-1], known=ends[1:-1])
    w, v = form.eigenpairs(list(itertools.islice(roots, k)), k)
    r = grid.apply(v)
    v *= w[:, None, None]
    r -= v
    r[:, ~grid.window, 0] = 0.0  # the eliminated nodes: no row of the operator
    residual = np.sqrt(np.einsum("kij,kij->k", r, r)) / np.abs(w)
    if not np.all(residual <= EIGENPAIR_GATE):
        raise ArithmeticError(f"eigenpair residual {residual.max():.3g} exceeds {EIGENPAIR_GATE:g}")
    return np.sort(w)


def oracle_eigenvalues(cfg: CanonicalConfig, ocfg: OracleConfig) -> np.ndarray:
    """The ``ocfg.k`` lowest eigenvalues on the grid of ``cfg`` and ``ocfg``, ascending."""
    return lowest_eigenvalues(FDGrid(cfg, ocfg), ocfg.k)


def refine_and_extrapolate(values_h, values_h2, values_h4=None):
    """Richardson extrapolation over a grid-halving sequence.

    With two grids the corner singularity makes first order the safe model;
    a third (finest) grid estimates the effective order.  Returns
    (extrapolated values, error bounds, effective order).  The bound is the
    difference of the two finest grids, valid where the rate assumption is
    not; a non-monotone refinement falls back to the finest raw values.
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
                            a_lo: float = 2.0, a_hi: float = 2.6) -> float:
    """Window half-length at which the discrete operator gains a bound state.

    The single-window problem of the given parity (``"even"`` or ``"odd"``)
    with a Neumann far face, secant-interpolated where the lowest eigenvalue
    crosses the discrete threshold minus ``CROSSING_MARGIN``.  The crossing
    drifts linearly in h, so two grids plus first-order extrapolation land
    within a few 1e-3 of the true critical width.

    The widths form a lattice of step 2h from round(a_lo/h)*h, each point
    rounded to the grid and the last clamped to round(a_hi/h)*h.  The lowest
    eigenvalue decreases in a by min-max, so the number of eigenvalues below
    the cutoff, read from the count of the grid's :class:`WindowForm`, goes
    from 0 to 1 or more in one cell, which bisection over the lattice finds.
    Only that cell's two ends are eigensolved, for the secant, and for their
    lowest eigenvalue alone (k = 1), the one it reads: a result equal bit
    for bit to a scan from a_lo.  Raises ArithmeticError when the lattice
    holds no crossing, with no eigensolve, or when the two ends do not
    bracket the cutoff; ValueError, with no count, for any other parity and
    unless 0 < a_lo < a_hi < inf, a_lo rounding to a width of at least h
    and a_hi to one below L, the windows the grid can hold.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    kind = ProblemKind.SINGLE_WINDOW_EVEN if parity == "even" else ProblemKind.SINGLE_WINDOW_ODD
    ocfg = OracleConfig(L=L, h=h, k=1, end="neumann")
    if not (0.0 < a_lo < a_hi < math.inf and round(a_lo / h) > 0 and round(a_hi / h) * h < L):
        raise ValueError(f"the widths searched need 0 < a_lo < a_hi < inf, on the grid from h to below "
                         f"L={L!r}: got a_lo={a_lo!r}, a_hi={a_hi!r} at h={h!r}")
    cut = discrete_threshold(h) - CROSSING_MARGIN
    lattice = [round(a_lo / h) * h]
    end = round(a_hi / h) * h
    while lattice[-1] < end:
        lattice.append(min(round((lattice[-1] + 2.0 * h) / h) * h, end))

    def config(i: int) -> CanonicalConfig:
        return canonicalize(StripConfig(d=math.pi, a=lattice[i], kind=kind))

    def bound(i: int) -> bool:
        form = WindowForm(FDGrid(config(i), ocfg))
        free = np.count_nonzero(form.free_values < cut)
        return count(Sector(form, 0.0, cut, 0.0), cut).roots + free > 0

    i = bisect.bisect_left(range(len(lattice)), True, key=bound)
    if not 0 < i < len(lattice):
        raise ArithmeticError(
            f"no threshold crossing for parity={parity} in [{a_lo}, {a_hi}] at h={h}")
    g_prev, g = (float(oracle_eigenvalues(config(j), ocfg)[0] - cut) for j in (i - 1, i))
    a_prev, a = lattice[i - 1], lattice[i]
    if not g_prev > 0.0 >= g:
        raise ArithmeticError(f"threshold gap does not change sign from a={a_prev} to a={a} "
                              f"at h={h}: {g_prev:.3g}, {g:.3g}")
    return a_prev + (a - a_prev) * g_prev / (g_prev - g)
