import math

import numpy as np
import pytest

from modeguide import (
    MatchingSystem,
    ProblemKind,
    Truncation,
    assemble_single,
    assemble_threshold,
    assemble_two_window,
    assemble_two_window_at_kappa,
    merit,
    symmetrized,
)
from modeguide import matching
from modeguide.matching import assemble_stack, det_sign, det_signs
from modeguide.modes import axial_logderiv, overlap_matrix, window_profile_at_edge

from conftest import single_cfg, two_cfg

PI = math.pi


def test_truncation_floor():
    with pytest.raises(ValueError):
        Truncation(3)
    assert Truncation().n == 40


def test_assemble_single_validates_interval():
    cfg = single_cfg(1.0)
    for lam in (0.25, 1.0, 0.1, 1.3):
        with pytest.raises(ValueError):
            assemble_single(cfg, lam, Truncation(8))


def test_assemble_single_rejects_two_window_kind():
    with pytest.raises(ValueError):
        assemble_single(two_cfg(1.0, 4.0, "even"), 0.5, Truncation(8))
    with pytest.raises(ValueError):
        assemble_two_window(single_cfg(1.0), 0.5, Truncation(8))


def test_single_system_shape_and_finiteness():
    sys = assemble_single(single_cfg(1.0), 0.5, Truncation(24))
    assert sys.matrix.shape == (24, 24)
    assert np.all(np.isfinite(sys.matrix))
    assert sys.col_log.shape == (24,)


def test_symmetrized_form_is_symmetric():
    # dividing column m by the window-profile edge value exposes the
    # symmetric trace form; the residual asymmetry is pure roundoff
    for parity, a, lam in (("even", 1.0, 0.6), ("odd", 2.5, 0.5), ("even", 2.0, 0.87)):
        sys = assemble_single(single_cfg(a, parity), lam, Truncation(32))
        S = symmetrized(sys)
        scale = np.max(np.abs(S))
        assert np.max(np.abs(S - S.T)) < 1e-13 * scale


def test_symmetrized_rejects_two_window():
    sys = assemble_two_window(two_cfg(1.0, 5.0, "even"), 0.5, Truncation(8))
    with pytest.raises(ValueError):
        symmetrized(sys)


def test_smallest_singular_value_nonnegative():
    sys = assemble_single(single_cfg(1.0), 0.77, Truncation(16))
    s_min, _ = merit(sys)
    assert s_min >= 0.0


def test_parity_swap_is_bit_exact():
    cfg_e, cfg_o = single_cfg(1.5, "even"), single_cfg(1.5, "odd")
    first = assemble_single(cfg_e, 0.62, Truncation(20)).matrix
    assemble_single(cfg_o, 0.62, Truncation(20))
    again = assemble_single(cfg_e, 0.62, Truncation(20)).matrix
    assert np.array_equal(first, again)


def _dummy_system(matrix):
    return MatchingSystem(matrix=matrix, lam=0.5, kappa1=math.sqrt(0.5),
                          kind=ProblemKind.SINGLE_WINDOW_EVEN, a=1.0, l=None,
                          n=matrix.shape[0], col_log=np.zeros(matrix.shape[0]))


def test_merit_identity_and_singular_diagonal():
    s_min, sign = merit(_dummy_system(np.eye(4)))
    assert s_min == pytest.approx(1.0, rel=1e-14)
    assert sign == 1
    s_min, sign = merit(_dummy_system(np.diag([1.0, 1.0, 1.0, 0.0])))
    assert s_min == 0.0
    assert sign == 0


def test_merit_rejects_non_finite():
    mat = np.eye(4)
    mat[2, 2] = np.inf
    with pytest.raises(ValueError):
        merit(_dummy_system(mat))


def test_merit_at_converged_root(ground_pair):
    sys = assemble_single(single_cfg(1.0), ground_pair.lam, Truncation(40))
    s = np.linalg.svd(sys.matrix, compute_uv=False)
    assert s[-1] <= 1e-9 * s[0]


# ---------------------------------------------------------------------------
# two-window system
# ---------------------------------------------------------------------------

def test_two_window_shape_and_validation():
    sys = assemble_two_window(two_cfg(1.0, 6.0, "odd"), 0.5, Truncation(12))
    assert sys.matrix.shape == (24, 24)
    with pytest.raises(Exception):
        two_cfg(2.0, 1.5, "even")  # windows overlap


def test_two_window_no_overflow_at_huge_separation():
    sys = assemble_two_window(two_cfg(1.0, 1e4, "even"), 0.5, Truncation(24))
    assert np.all(np.isfinite(sys.matrix))
    sys = assemble_two_window(two_cfg(1.0, 1e4, "odd"), 0.93, Truncation(24))
    assert np.all(np.isfinite(sys.matrix))


def test_two_window_degenerates_to_single_window():
    # the plane-to-window region couples only through interface log-derivatives,
    # which approach the outgoing rates at the rate 2*kappa1*(l - a)
    lam, n = 0.7, 20
    kappa1 = math.sqrt(1.0 - lam)
    single = assemble_single(single_cfg(1.0, "even"), lam, Truncation(n)).matrix
    diffs = {}
    for l in (6.0, 8.0, 10.0):
        two = assemble_two_window(two_cfg(1.0, l, "even"), lam, Truncation(n)).matrix
        upper_left = -two[:n, :n]
        diffs[l] = np.max(np.abs(upper_left - single))
    c = diffs[6.0] / math.exp(-2.0 * kappa1 * 5.0)
    for l in (8.0, 10.0):
        assert diffs[l] <= 1.5 * c * math.exp(-2.0 * kappa1 * (l - 1.0))
    # and the lower-right block reproduces the odd single-window system
    two = assemble_two_window(two_cfg(1.0, 10.0, "even"), lam, Truncation(n)).matrix
    single_odd = assemble_single(single_cfg(1.0, "odd"), lam, Truncation(n)).matrix
    assert np.max(np.abs(two[n:, n:] - single_odd)) <= 2.0 * c * math.exp(-2.0 * kappa1 * 9.0)


def test_two_window_kappa_parametrization_matches_lambda():
    cfg = two_cfg(1.0, 5.0, "even")
    lam = 0.9
    a = assemble_two_window(cfg, lam, Truncation(10)).matrix
    b = assemble_two_window_at_kappa(cfg, math.sqrt(1.0 - lam), Truncation(10)).matrix
    assert np.max(np.abs(a - b)) < 1e-13


def test_kappa_parametrization_range():
    cfg = two_cfg(1.0, 5.0, "even")
    with pytest.raises(ValueError):
        assemble_two_window_at_kappa(cfg, 0.0, Truncation(8))
    with pytest.raises(ValueError):
        assemble_two_window_at_kappa(cfg, 0.9, Truncation(8))


# ---------------------------------------------------------------------------
# threshold system
# ---------------------------------------------------------------------------

def test_threshold_is_limit_of_generic_assembly():
    # the difference is dominated by the first outgoing rate, so it scales
    # like sqrt(1 - lam): ~5e-6 at 1-1e-10, below 1e-6 by 1-1e-12
    thr = assemble_threshold(1.0, Truncation(24), "even").matrix
    near = assemble_single(single_cfg(1.0, "even"), 1.0 - 1e-12, Truncation(24)).matrix
    assert np.max(np.abs(thr - near)) < 1e-6
    nearer = assemble_single(single_cfg(1.0, "even"), 1.0 - 1e-14, Truncation(24)).matrix
    assert np.max(np.abs(thr - nearer)) < 0.2 * np.max(np.abs(thr - near))


def test_threshold_regular_for_tiny_windows():
    # no resonance for tiny windows: the zero width is the trivial boundary case
    for a in (0.05, 0.3, 1.0):
        s_min, _ = merit(assemble_threshold(a, Truncation(24), "odd"))
        assert s_min > 0.1


def test_threshold_singular_at_critical_width(first_critical):
    sys = assemble_threshold(first_critical.a, Truncation(40), first_critical.parity)
    s = np.linalg.svd(sys.matrix, compute_uv=False)
    assert s[-1] < 1e-10 * s[0]


def test_threshold_validates_width():
    with pytest.raises(ValueError):
        assemble_threshold(-0.5, Truncation(8))


def test_recorded_scalings_map_to_raw_profiles():
    # a kernel vector in the normalized basis times exp(-col_log) gives the
    # coefficients of the raw cosh/sinhc profiles exactly
    from modeguide import stable_cosh, stable_sinhc
    from modeguide.matching import _rates
    from modeguide.modes import window_profile_eval
    x = np.array([0.37])
    for parity, raw in (("even", stable_cosh), ("odd", stable_sinhc)):
        sys = assemble_single(single_cfg(1.0, parity), 0.6, Truncation(10))
        _, t = _rates(10, sys.kappa1)
        normalized = window_profile_eval(t[:, None], x[None, :], 1.0, parity)[:, 0]
        rescaled = raw(t, x[0]) * np.exp(-sys.col_log)
        assert np.allclose(normalized, rescaled, rtol=1e-12)


def test_smallest_singular_value_truncation_drift():
    # the corner singularity limits s_min stability to O(1/N) away from
    # roots (measured ~1.4e-2 between N = 40 and N = 80 at lam = 0.5);
    # see the README accuracy notes on the miscalibrated 1e-8 figure
    cfg = single_cfg(1.0)
    for lam in (0.4, 0.5, 0.65):
        s40, _ = merit(assemble_single(cfg, lam, Truncation(40)))
        s80, _ = merit(assemble_single(cfg, lam, Truncation(80)))
        assert abs(s80 - s40) / s40 < 5e-2


def test_det_sign_changes_across_root(ground_pair):
    cfg = single_cfg(1.0)
    lam = ground_pair.lam
    s_lo = det_sign(assemble_single(cfg, lam - 1e-6, Truncation(40)))
    s_hi = det_sign(assemble_single(cfg, lam + 1e-6, Truncation(40)))
    assert s_lo * s_hi == -1


def test_concurrent_assembly_matches_sequential():
    # assembly and factorization are pure; many (lam, cfg) instances may be
    # evaluated concurrently with identical results
    from concurrent.futures import ThreadPoolExecutor
    cfg = single_cfg(1.0)
    lams = np.linspace(0.3, 0.95, 40)

    def sign_at(lam):
        return det_sign(assemble_single(cfg, lam, Truncation(24)))

    sequential = [sign_at(lam) for lam in lams]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(sign_at, lams))
    assert threaded == sequential


# ---------------------------------------------------------------------------
# stacked assembly and signs
# ---------------------------------------------------------------------------

def _reference_matrix(kind, n, a, kappa1, l):
    # one point at a time, the straightforward way: the reference for the stack
    j = np.arange(1, n + 1, dtype=float)
    kap = np.sqrt(j * j - 1.0 + kappa1 * kappa1)
    half = j - 0.5
    t = half * half - 1.0 + kappa1 * kappa1
    M = overlap_matrix(n)
    Q = M.T @ (kap[:, None] * M)
    if not kind.is_two_window:
        val, der = window_profile_at_edge(t, a, kind.parity)
        return np.diag(der) + Q * val[None, :]
    P = M.T @ (axial_logderiv(kap, l - a, kind.parity)[:, None] * M)
    cv, cd = window_profile_at_edge(t, a, "even")
    sv, sd = window_profile_at_edge(t, a, "odd")
    return np.block([[-(np.diag(cd) + P * cv[None, :]), np.diag(sd) + P * sv[None, :]],
                     [np.diag(cd) + Q * cv[None, :], np.diag(sd) + Q * sv[None, :]]])


# crosses the oscillatory/evanescent switch of the first window mode at
# kappa1 = sqrt(3)/2 and includes the threshold kappa1 = 0
KAPPA_GRID = np.concatenate([np.linspace(0.0, 1.2, 25), np.geomspace(1e-13, 1e-3, 5)])


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_stack_equals_per_point_assembly(kind, n):
    a, l = 1.0625, (6.0 if kind.is_two_window else None)
    stack = assemble_stack(kind, n, a, KAPPA_GRID, l)
    assert stack.shape == (len(KAPPA_GRID),) + 2 * ((2 if kind.is_two_window else 1) * n,)
    for k, K in zip(KAPPA_GRID, stack):
        assert np.array_equal(K, _reference_matrix(kind, n, a, float(k), l))
        assert np.array_equal(K, assemble_stack(kind, n, a, float(k), l)[0])


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_threshold_stack_equals_per_point_assembly(parity, n):
    kind = ProblemKind.SINGLE_WINDOW_EVEN if parity == "even" else ProblemKind.SINGLE_WINDOW_ODD
    widths = np.arange(0.02, 8.0, 0.31)
    stack = assemble_stack(kind, n, widths, 0.0)
    for a, K in zip(widths, stack):
        assert np.array_equal(K, assemble_threshold(float(a), Truncation(n), parity).matrix)
        assert np.array_equal(K, _reference_matrix(kind, n, float(a), 0.0, None))


def test_chunked_signs_equal_one_stack(monkeypatch):
    kind, n = ProblemKind.TWO_WINDOW_ODD, 12
    kappas = np.linspace(0.05, 0.85, 101)
    whole = det_signs(kind, n, 1.0, kappas, 5.0)
    assert len(set(whole.tolist())) == 2  # the grid crosses roots
    # 7 matrices per chunk: 15 chunks, the last one short
    monkeypatch.setattr(matching, "STACK_BYTES", 7 * 8 * (2 * n) ** 2)
    assert np.array_equal(det_signs(kind, n, 1.0, kappas, 5.0), whole)
    monkeypatch.setattr(matching, "STACK_BYTES", 1)
    assert np.array_equal(det_signs(kind, n, 1.0, kappas, 5.0), whole)


def test_det_sign_of_permuted_and_singular_matrices():
    swap = np.eye(4)[[1, 0, 2, 3]]
    assert det_sign(_dummy_system(swap)) == -1
    assert det_sign(_dummy_system(-swap)) == -1
    assert det_sign(_dummy_system(np.eye(4)[[1, 2, 0, 3]])) == 1
    assert det_sign(_dummy_system(np.diag([1.0, 1.0, 1.0, 0.0]))) == 0
    singular = np.ones((4, 4))
    assert det_sign(_dummy_system(singular)) == 0
