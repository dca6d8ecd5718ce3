import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modeguide import MatchingSystem, ProblemKind, Truncation, assemble_threshold
from modeguide import matching
from modeguide.matching import (
    FLOOR_ULPS,
    MAX_FORM_BYTES,
    MAX_MODES,
    PCG_MIN_DIM,
    _assemble_two_core,
    _gram,
    _rates,
    _schur_by_pcg,
    det_sign,
    pole_count,
    schur_complement,
    trace_form,
)
from modeguide.modes import overlap_matrix, window_profile_at_edge
from modeguide.solve import _assemble_at, find_critical_widths, find_eigenvalues

from conftest import reference_matrix, single_cfg, two_cfg

PI = math.pi


def _trace_order(dim, width):
    # trace indices of a form, the first window mode's (0, and n for two windows) first
    w = np.arange(width) * (dim // width)
    return np.concatenate([w, np.delete(np.arange(dim), w)])


def _system(cfg, lam, n):
    return _assemble_at(cfg.base, Truncation(n), math.sqrt(1.0 - lam))


def _s_min(sys):
    return np.linalg.svd(sys.matrix, compute_uv=False)[-1]


def test_truncation_floor():
    with pytest.raises(ValueError):
        Truncation(3)
    assert Truncation().n == 40
    # the cap: a two-window form of 2N x 2N entries within MAX_FORM_BYTES
    assert Truncation(MAX_MODES).n == 2048
    assert (2 * 2048) ** 2 * 8 == MAX_FORM_BYTES
    with pytest.raises(ValueError, match="2049 exceeds the cap of 2048"):
        Truncation(2049)


def test_single_system_shape_and_finiteness():
    sys = _system(single_cfg(1.0), 0.5, 24)
    assert sys.matrix.shape == (24, 24)
    assert np.all(np.isfinite(sys.matrix))
    assert np.array_equal(sys.matrix, trace_form(ProblemKind.SINGLE_WINDOW_EVEN, 24, 1.0,
                                                 sys.kappa1))


def test_symmetric_trace_form():
    # the assembled system is the trace form; its asymmetry is pure roundoff
    for parity, a, lam in (("even", 1.0, 0.6), ("odd", 2.5, 0.5), ("even", 2.0, 0.87)):
        S = _system(single_cfg(a, parity), lam, 32).matrix
        scale = np.max(np.abs(S))
        assert np.max(np.abs(S - S.T)) < 1e-13 * scale


@pytest.mark.parametrize("kind, a, l, lam", [
    (ProblemKind.SINGLE_WINDOW_EVEN, 1.0, None, 0.6),
    (ProblemKind.SINGLE_WINDOW_ODD, 2.5, None, 0.5),
    (ProblemKind.TWO_WINDOW_EVEN, 1.0, 6.0, 0.85),
    (ProblemKind.TWO_WINDOW_ODD, 3.5, 5.0, 0.45),
])
def test_trace_form_is_the_matching_matrix_in_edge_traces(kind, a, l, lam):
    # K = S diag(val) for one window; K = diag(-I, I) S T for two, where T
    # maps the even/odd profile coefficients to the traces (w_L, w_R)
    n = 24
    kappa1 = math.sqrt(1.0 - lam)
    K = reference_matrix(kind, n, a, kappa1, l)
    S = trace_form(kind, n, a, kappa1, l)
    assert np.max(np.abs(S - S.T)) < 1e-14 * np.max(np.abs(S))
    _, t = _rates(n, kappa1)
    if kind.is_two_window:
        cv, _ = window_profile_at_edge(t, a, "even")
        sv, _ = window_profile_at_edge(t, a, "odd")
        T = np.block([[np.diag(cv), -np.diag(sv)], [np.diag(cv), np.diag(sv)]])
        rebuilt = np.diag(np.r_[-np.ones(n), np.ones(n)]) @ S @ T
    else:
        val, _ = window_profile_at_edge(t, a, kind.parity)
        rebuilt = S * val[None, :]
    assert np.max(np.abs(rebuilt - K)) < 1e-13 * np.max(np.abs(K))


def test_count_is_continuous_across_a_pole():
    # a = 3.5, even: cos(sqrt(lam - 1/4) a) vanishes at lam = 1/4 + (pi/7)^2;
    # one eigenvalue of S jumps from -inf to +inf while the pole count rises
    kind, n, a = ProblemKind.SINGLE_WINDOW_EVEN, 24, 3.5
    pole = 0.25 + (PI / 7.0) ** 2
    counts = []
    for lam in (pole - 1e-6, pole + 1e-6):
        kappa1 = math.sqrt(1.0 - lam)
        neg = int(np.sum(np.linalg.eigvalsh(trace_form(kind, n, a, kappa1)) < 0))
        counts.append((neg, pole_count(kind, a, kappa1)))
    assert counts == [(1, 0), (0, 1)]
    assert pole_count(ProblemKind.TWO_WINDOW_ODD, 3.5, 0.0) == 1 + 0   # sqrt(3/4) * 3.5 / pi = 0.96
    assert pole_count(ProblemKind.SINGLE_WINDOW_ODD, 8.0, 0.0) == 2      # 2.21


# every kind at lam = 1 - kappa1^2 in [1/4, 1], and the threshold system
FORMS = st.tuples(
    st.sampled_from([*ProblemKind, "threshold-even", "threshold-odd"]),
    st.integers(4, 80),
    st.floats(0.05, 8.0),
    st.one_of(st.just(0.0), st.floats(1e-13, 0.05), st.floats(0.05, math.sqrt(0.75))),
    st.floats(0.05, 10.0),
)


@given(FORMS)
@settings(max_examples=60, deadline=None)
def test_schur_count_equals_the_dense_count(form):
    # all but the first window mode's traces are evanescent, so their block
    # C is positive definite and the 1 x 1 / 2 x 2 Schur complement Z has
    # the negative eigenvalues of S, at every point away from poles
    kind, n, a, kappa1, gap = form
    if isinstance(kind, str):
        parity = kind.split("-")[1]
        S = assemble_threshold(a, Truncation(n), parity).matrix
        kind, kappa1 = ProblemKind(f"single-{parity}"), 0.0
    else:
        S = trace_form(kind, n, a, kappa1, a + gap if kind.is_two_window else None)
    t1 = np.array([kappa1 * kappa1 - 0.75])
    parities = ("even", "odd") if kind.is_two_window else (kind.parity,)
    assume(all(abs(window_profile_at_edge(t1, a, p)[0][0]) > 1e-6 for p in parities))
    width = 2 if kind.is_two_window else 1
    order = _trace_order(S.shape[0], width)
    np.linalg.cholesky(S[np.ix_(order, order)][width:, width:])
    Z, _, _ = schur_complement(S, width)
    mu = np.linalg.eigvalsh(S)
    # a point at rounding distance from a root has no well-defined count
    assume(np.min(np.abs(mu)) > 1e-10 * np.max(np.abs(mu)))
    assert np.count_nonzero(np.linalg.eigvalsh(Z) < 0) == np.count_nonzero(mu < 0)


def _gathered_reduction(S, width):
    # the reduction of S reordered as a whole, first-mode traces first
    order = _trace_order(S.shape[0], width)
    T = S[np.ix_(order, order)]
    X = np.linalg.solve(T[width:, width:], T[width:, :width])
    Z = T[:width, :width] - T[:width, width:] @ X
    return 0.5 * (Z + Z.T), X


@given(FORMS)
@settings(max_examples=40, deadline=None)
def test_schur_complement_equals_the_gathered_reduction(form):
    # the block slices reduce S bit for bit like the reordered copy of S
    kind, n, a, kappa1, gap = form
    if isinstance(kind, str):
        kind, kappa1 = ProblemKind(f"single-{kind.split('-')[1]}"), 0.0
    S = trace_form(kind, n, a, kappa1, a + gap if kind.is_two_window else None)
    width = 2 if kind.is_two_window else 1
    Z, X, _ = schur_complement(S, width)
    Z_ref, X_ref = _gathered_reduction(S, width)
    assert np.array_equal(Z, Z_ref) and np.array_equal(X, X_ref)


def _reduction_in_long_double(S, width):
    # the gathered reduction with X refined against long double residuals of C X = B:
    # the Schur complement of this S, the float S taken as exact
    _, X = _gathered_reduction(S, width)
    order = _trace_order(S.shape[0], width)
    T = S[np.ix_(order, order)].astype(np.longdouble)
    C, B = T[width:, width:], T[width:, :width]
    X = X.astype(np.longdouble)
    for _ in range(3):
        X += np.linalg.solve(C.astype(float), (B - C @ X).astype(float))
    Z = T[:width, :width] - B.T @ X
    return 0.5 * (Z + Z.T)


# forms whose block C has dimension r >= PCG_MIN_DIM: every kind and the
# threshold system, with windows down to a = 0.02 that are 0.05 apart, where
# CG takes 60 iterations instead of 8-19
LARGE_FORMS = st.tuples(
    st.sampled_from([*ProblemKind, "threshold-even", "threshold-odd"]),
    st.integers(PCG_MIN_DIM, PCG_MIN_DIM + 160),
    st.one_of(st.floats(0.05, 8.0), st.floats(0.02, 0.05)),
    st.one_of(st.just(0.0), st.floats(1e-13, 0.05), st.floats(0.05, math.sqrt(0.75))),
    st.one_of(st.floats(0.05, 10.0), st.just(0.05)),
)


@given(LARGE_FORMS)
@settings(max_examples=30, deadline=None)
@example(form=(ProblemKind.TWO_WINDOW_EVEN, PCG_MIN_DIM, 0.02, 0.3, 0.05))
@example(form=(ProblemKind.TWO_WINDOW_ODD, PCG_MIN_DIM + 160, 0.02, 0.0, 0.05))
def test_schur_complement_by_cg_matches_the_lu_solve_and_the_dense_count(form):
    # above the crossover the reduction is CG's; its Z and X are the LU
    # solve's, and Z the long double one's, within eps max|S| (at most
    # 0.06 eps max|S| over 150 draws), and Z keeps the inertia of S
    kind, r, a, kappa1, gap = form
    if isinstance(kind, str):
        parity = kind.split("-")[1]
        kind, kappa1 = ProblemKind(f"single-{parity}"), 0.0
    width = 2 if kind.is_two_window else 1
    S = trace_form(kind, -(-(r + width) // width), a, kappa1, a + gap if width == 2 else None)
    reduced = _schur_by_pcg(S, width)
    assert reduced is not None
    Z, X, _ = schur_complement(S, width)
    assert np.array_equal(Z, reduced[0]) and np.array_equal(X, reduced[1])
    Z_lu, X_lu = _gathered_reduction(S, width)
    scale = np.finfo(float).eps * np.max(np.abs(S))
    assert np.max(np.abs(Z - Z_lu)) <= scale and np.max(np.abs(X - X_lu)) <= scale
    if _LONGDOUBLE_IS_WIDER:
        assert np.max(np.abs(Z - _reduction_in_long_double(S, width))) <= scale
    t1 = np.array([kappa1 * kappa1 - 0.75])
    parities = ("even", "odd") if width == 2 else (kind.parity,)
    assume(all(abs(window_profile_at_edge(t1, a, p)[0][0]) > 1e-6 for p in parities))
    mu = np.linalg.eigvalsh(S)
    assume(np.min(np.abs(mu)) > 1e-10 * np.max(np.abs(mu)))
    assert np.count_nonzero(np.linalg.eigvalsh(Z) < 0) == np.count_nonzero(mu < 0)


@pytest.mark.parametrize("kind, n, a, l, bound", [
    (ProblemKind.TWO_WINDOW_EVEN, 160, 1e-3, 1.001, None),
    (ProblemKind.SINGLE_WINDOW_EVEN, PCG_MIN_DIM + 1, 1.0, None, 1),
], ids=["narrow-windows", "bound-1"])
def test_schur_complement_falls_back_to_lu_when_cg_does_not_converge(monkeypatch, kind, n, a, l,
                                                                      bound):
    # a form that CG does not solve within the bound gets the LU solve's
    # reduction, never an unconverged X: two windows a = 1e-3 that are 1
    # apart need about 160 iterations, and every form needs more than 1
    if bound is not None:
        monkeypatch.setattr(matching, "PCG_MAX_ITERATIONS", bound)
    width = 2 if kind.is_two_window else 1
    S = trace_form(kind, n, a, 0.3, l)
    assert S.shape[0] - width >= PCG_MIN_DIM and _schur_by_pcg(S, width) is None
    Z, X, _ = schur_complement(S, width)
    Z_lu, X_lu = _gathered_reduction(S, width)
    assert np.array_equal(Z, Z_lu) and np.array_equal(X, X_lu)


@pytest.mark.parametrize("kind, n", [
    (ProblemKind.SINGLE_WINDOW_EVEN, 40), (ProblemKind.TWO_WINDOW_ODD, 40),
    (ProblemKind.SINGLE_WINDOW_ODD, PCG_MIN_DIM + 1), (ProblemKind.TWO_WINDOW_EVEN, 120),
], ids=["single-lu", "two-lu", "single-cg", "two-cg"])
def test_the_rounding_floor_of_z_comes_from_its_pieces(kind, n):
    # F = FLOOR_ULPS eps (|S_WW| + |S_WR| |X|), symmetric as Z is, from the X of either solve
    width = 2 if kind.is_two_window else 1
    S = trace_form(kind, n, 1.0, 0.3, 4.0 if width == 2 else None)
    assert (S.shape[0] - width >= PCG_MIN_DIM) == (n > 100)
    _, X, F = schur_complement(S, width)
    order = _trace_order(S.shape[0], width)
    T = np.abs(S[np.ix_(order, order)])
    ref = FLOOR_ULPS * np.finfo(float).eps * (T[:width, :width] + T[:width, width:] @ np.abs(X))
    np.testing.assert_allclose(F, 0.5 * (ref + ref.T), rtol=1e-12)
    assert np.array_equal(F, F.T) and (F > 0.0).all()


_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"
_LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _gram_reference(rates):
    """M^T diag(rates) M of the exact overlaps: in fractions up to N = 24,
    else in long double."""
    n = len(rates)
    if n <= 24:
        c2 = (2 / Fraction(_PI_DIGITS)) ** 2
        h2 = [Fraction(2 * m - 1, 2) ** 2 for m in range(1, n + 1)]
        cols = [[Fraction(j) / (j * j - h) for j in range(1, n + 1)] for h in h2]
        w = [Fraction(float(r)) for r in rates]
        G = [[c2 * sum(wj * x * y for wj, x, y in zip(w, cols[m], cols[k])) for k in range(n)]
             for m in range(n)]
        return lambda A: (max(abs(Fraction(float(A[m, k])) - G[m][k])
                              for m in range(n) for k in range(n))
                          / max(abs(g) for row in G for g in row))
    j = np.arange(1, n + 1, dtype=np.longdouble)[:, None]
    h = np.arange(1, n + 1, dtype=np.longdouble)[None, :] - np.longdouble(0.5)
    M = (2 / np.longdouble(_PI_DIGITS)) * j / (j * j - h * h)
    G = M.T @ (rates.astype(np.longdouble)[:, None] * M)
    return lambda A: np.max(np.abs(A - G)) / np.max(np.abs(G))


@given(st.integers(4, 320 if _LONGDOUBLE_IS_WIDER else 24), st.integers(0, 2 ** 32 - 1),
       st.booleans())
@settings(max_examples=30, deadline=None)
@example(n=17, seed=1749952535, threshold=True)
@example(n=10, seed=2836879559, threshold=True)
def test_gram_by_the_cauchy_identity_is_as_accurate_as_the_rank_k_product(n, seed, threshold):
    # rates >= 0 of the size of the decay rates j; the threshold system has
    # a zero first rate.  Within one unit roundoff of max|G| both errors are
    # noise of a few roundings, so the rank-k error is taken at least eps.
    # With the diagonal summed in j order the examples were 2.3 and 2.4 eps
    # of max|G| off, against 0.7 and 1.2 eps for B^T B.
    rates = np.random.default_rng(seed).uniform(0.0, 2.0, n) * np.arange(1, n + 1)
    if threshold:
        rates[0] = 0.0
    M = overlap_matrix(n)
    G = _gram(M, rates)
    assert np.array_equal(G, G.T)
    B = np.sqrt(rates)[:, None] * M
    error = _gram_reference(rates)
    assert float(error(G)) <= 2.0 * max(float(error(B.T @ B)), np.finfo(float).eps)


def test_parity_swap_is_bit_exact():
    cfg_e, cfg_o = single_cfg(1.5, "even"), single_cfg(1.5, "odd")
    first = _system(cfg_e, 0.62, 20).matrix
    _system(cfg_o, 0.62, 20)
    again = _system(cfg_e, 0.62, 20).matrix
    assert np.array_equal(first, again)


def _dummy_system(matrix):
    return MatchingSystem(matrix=matrix, lam=0.5, kappa1=math.sqrt(0.5),
                          kind=ProblemKind.SINGLE_WINDOW_EVEN, a=1.0, l=None,
                          n=matrix.shape[0])


def test_system_rejects_non_finite():
    # the one finiteness check, in trace_form, guards every assembly
    with pytest.raises(ValueError, match="non-finite"):
        trace_form(ProblemKind.SINGLE_WINDOW_EVEN, 8, math.nan, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        _assemble_two_core(ProblemKind.TWO_WINDOW_ODD, 8, 1.0, math.nan, 6.0)


def test_singular_at_converged_root(ground_pair):
    sys = _system(single_cfg(1.0), ground_pair.lam, 40)
    s = np.linalg.svd(sys.matrix, compute_uv=False)
    assert s[-1] <= 1e-9 * s[0]


# ---------------------------------------------------------------------------
# two-window system
# ---------------------------------------------------------------------------

def test_two_window_shape_and_validation():
    sys = _system(two_cfg(1.0, 6.0, "odd"), 0.5, 12)
    assert sys.matrix.shape == (24, 24)
    with pytest.raises(Exception):
        two_cfg(2.0, 1.5, "even")  # windows overlap


def test_two_window_no_overflow_at_huge_separation():
    sys = _system(two_cfg(1.0, 1e4, "even"), 0.5, 24)
    assert np.all(np.isfinite(sys.matrix))
    sys = _system(two_cfg(1.0, 1e4, "odd"), 0.93, 24)
    assert np.all(np.isfinite(sys.matrix))


def test_two_window_degenerates_to_single_window():
    # the plane-to-window region couples only through interface log-derivatives,
    # which approach the outgoing rates at the rate 2*kappa1*(l - a); in the
    # rotated traces (w_R + w_L)/sqrt2, (w_R - w_L)/sqrt2 the form then splits
    # into the even and the odd single-window forms
    lam, n = 0.7, 20
    kappa1 = math.sqrt(1.0 - lam)
    eye = np.eye(n)
    R = np.block([[eye, -eye], [eye, eye]]) / math.sqrt(2.0)
    split = np.zeros((2 * n, 2 * n))
    split[:n, :n] = _system(single_cfg(1.0, "even"), lam, n).matrix
    split[n:, n:] = _system(single_cfg(1.0, "odd"), lam, n).matrix
    diffs = {}
    for l in (6.0, 8.0, 10.0):
        two = _system(two_cfg(1.0, l, "even"), lam, n).matrix
        diffs[l] = np.max(np.abs(R.T @ two @ R - split))
    c = diffs[6.0] / math.exp(-2.0 * kappa1 * 5.0)
    for l in (8.0, 10.0):
        assert diffs[l] <= 1.5 * c * math.exp(-2.0 * kappa1 * (l - 1.0))


# ---------------------------------------------------------------------------
# threshold system
# ---------------------------------------------------------------------------

def test_threshold_is_limit_of_generic_assembly():
    # the difference is dominated by the first outgoing rate, so it scales
    # like sqrt(1 - lam): ~5e-6 at 1-1e-10, below 1e-6 by 1-1e-12
    thr = assemble_threshold(1.0, Truncation(24), "even").matrix
    near = _system(single_cfg(1.0, "even"), 1.0 - 1e-12, 24).matrix
    assert np.max(np.abs(thr - near)) < 1e-6
    nearer = _system(single_cfg(1.0, "even"), 1.0 - 1e-14, 24).matrix
    assert np.max(np.abs(thr - nearer)) < 0.2 * np.max(np.abs(thr - near))


def test_threshold_regular_for_tiny_windows():
    # no resonance for tiny windows: the zero width is the trivial boundary case
    for a in (0.05, 0.3, 1.0):
        assert _s_min(assemble_threshold(a, Truncation(24), "odd")) > 0.1


def test_threshold_singular_at_critical_width(first_critical):
    sys = assemble_threshold(first_critical.a, Truncation(40), first_critical.parity)
    s = np.linalg.svd(sys.matrix, compute_uv=False)
    assert s[-1] < 1e-10 * s[0]


def test_threshold_validates_width():
    with pytest.raises(ValueError):
        assemble_threshold(-0.5, Truncation(8))


def test_smallest_singular_value_truncation_drift():
    # the corner singularity limits s_min stability to O(1/N) away from
    # roots (measured ~1.4e-2 between N = 40 and N = 80 at lam = 0.5);
    # see the README accuracy notes on the miscalibrated 1e-8 figure
    cfg = single_cfg(1.0)
    for lam in (0.4, 0.5, 0.65):
        s40 = _s_min(_system(cfg, lam, 40))
        s80 = _s_min(_system(cfg, lam, 80))
        assert abs(s80 - s40) / s40 < 5e-2


def test_det_sign_changes_across_root(ground_pair):
    cfg = single_cfg(1.0)
    lam = ground_pair.lam
    s_lo = det_sign(_system(cfg, lam - 1e-6, 40))
    s_hi = det_sign(_system(cfg, lam + 1e-6, 40))
    assert s_lo * s_hi == -1


def test_concurrent_assembly_matches_sequential():
    # assembly and factorization are pure; many (lam, cfg) instances may be
    # evaluated concurrently with identical results
    from concurrent.futures import ThreadPoolExecutor
    cfg = single_cfg(1.0)
    lams = np.linspace(0.3, 0.95, 40)

    def sign_at(lam):
        return det_sign(_system(cfg, lam, 24))

    sequential = [sign_at(lam) for lam in lams]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(sign_at, lams))
    assert threaded == sequential


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _svd_kernel(K):
    return np.linalg.svd(K)[2][-1]


def _same_up_to_sign(u, v):
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return min(np.max(np.abs(u - v)), np.max(np.abs(u + v)))


@pytest.mark.parametrize("n", [40, 320])
@pytest.mark.parametrize("cfg", [single_cfg(1.0), single_cfg(3.5, "odd"), two_cfg(1.0, 6.0, "even"),
                                 two_cfg(1.0, 6.0, "odd")], ids=[k.value for k in ProblemKind])
def test_kernel_equals_the_svd_kernel_of_the_matching_matrix(cfg, n):
    # the eigenvector of S mapped back to profile coefficients is the kernel
    # of the non-symmetric matching matrix K
    b = cfg.base
    pair = find_eigenvalues(cfg, Truncation(n))[0]
    K = reference_matrix(b.kind, n, b.a, pair.kappa1, b.l)
    assert _same_up_to_sign(pair.window_coeffs, _svd_kernel(K)) < 1e-12


@pytest.mark.parametrize("n", [40, 320])
def test_threshold_kernel_equals_the_svd_kernel(n):
    width = find_critical_widths(1, Truncation(n)).widths[0]
    K = reference_matrix(ProblemKind(f"single-{width.parity}"), n, width.a, 0.0)
    assert _same_up_to_sign(width.resonance.window_coeffs, _svd_kernel(K)) < 1e-12


def test_det_sign_of_permuted_and_singular_matrices():
    swap = np.eye(4)[[1, 0, 2, 3]]
    assert det_sign(_dummy_system(swap)) == -1
    assert det_sign(_dummy_system(-swap)) == -1
    assert det_sign(_dummy_system(np.eye(4)[[1, 2, 0, 3]])) == 1
    assert det_sign(_dummy_system(np.diag([1.0, 1.0, 1.0, 0.0]))) == 0
    singular = np.ones((4, 4))
    assert det_sign(_dummy_system(singular)) == 0
