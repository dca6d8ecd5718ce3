import math

import numpy as np
import pytest

from modeguide import MatchingSystem, ProblemKind, Truncation, assemble_threshold
from modeguide.matching import _assemble_two_core, _rates, det_sign, pole_count, trace_form
from modeguide.modes import window_profile_at_edge
from modeguide.solve import _assemble_at, find_critical_widths, find_eigenvalues

from conftest import reference_matrix, single_cfg, two_cfg

PI = math.pi


def _system(cfg, lam, n):
    return _assemble_at(cfg, Truncation(n), math.sqrt(1.0 - lam))


def _s_min(sys):
    return np.linalg.svd(sys.matrix, compute_uv=False)[-1]


def test_truncation_floor():
    with pytest.raises(ValueError):
        Truncation(3)
    assert Truncation().n == 40


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
def test_eigh_kernel_equals_the_svd_kernel_of_the_matching_matrix(cfg, n):
    # the eigenvector of S mapped back to profile coefficients is the kernel
    # of the non-symmetric matching matrix K
    b = cfg.base
    pair = find_eigenvalues(cfg, Truncation(n))[0]
    K = reference_matrix(b.kind, n, b.a, pair.kappa1, b.l)
    assert _same_up_to_sign(pair.window_coeffs, _svd_kernel(K)) < 1e-12


@pytest.mark.parametrize("n", [40, 320])
def test_threshold_eigh_kernel_equals_the_svd_kernel(n):
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
