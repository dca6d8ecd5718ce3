import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from modeguide import (
    Eigenpair,
    ProblemKind,
    Truncation,
    eigenfunction_value,
    extract_tail,
    find_critical_widths,
    find_eigenvalues,
    find_near_threshold,
    refine_eigenvalue,
    window_integral,
    window_trace,
)
from modeguide import matching, solve
from modeguide.matching import _rates, assemble_threshold
from modeguide.modes import window_profile_at_edge
from modeguide.solve import (
    NEAR_THRESHOLD_KAPPA,
    RESIDUAL_GATE,
    SEARCH_EPS,
    _assemble_at,
    _count,
    _kappa_sector,
    _lam_sector,
    _norm_sq,
    _polish_root,
    _roots,
    refine_critical_width,
)

from conftest import reference_matrix, single_cfg, two_cfg

PI = math.pi

# pinned by the finite-difference oracle (grids 1/16, 1/32, 1/64 with
# order-estimated Richardson); see the acceptance suite for the live runs
FD_LAMBDA1 = {1.0: 0.858857, 2.0: 0.559310}


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

def test_single_window_always_binds():
    pairs = find_eigenvalues(single_cfg(2.0), Truncation(40))
    assert len(pairs) >= 1
    assert all(0.25 < p.lam < 1.0 for p in pairs)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_lambda1_matches_pinned_oracle_value(a):
    refined = refine_eigenvalue(single_cfg(a),
                                find_eigenvalues(single_cfg(a), Truncation(40))[0].lam,
                                Truncation(40), levels=2)
    assert abs(refined.value - FD_LAMBDA1[a]) <= 1e-3


def test_odd_sector_empty_below_first_critical_width():
    assert find_eigenvalues(single_cfg(1.0, "odd"), Truncation(40)) == []


def test_two_window_bracketing_and_convergence(ground_pair):
    lam1 = ground_pair.lam
    gaps = {}
    for l in (8.0, 12.0):
        lam_p = find_eigenvalues(two_cfg(1.0, l, "even"), Truncation(40))[0].lam
        lam_m = find_eigenvalues(two_cfg(1.0, l, "odd"), Truncation(40))[0].lam
        assert lam_p <= lam1 <= lam_m
        gaps[l] = (lam1 - lam_p, lam_m - lam1)
    assert gaps[12.0][0] < gaps[8.0][0] and gaps[12.0][1] < gaps[8.0][1]
    assert max(gaps[12.0]) <= 1e-4


def test_pair_gap_below_1e8_once_decay_lengths_allow(ground_pair):
    # mu*exp(-2*kappa1*l) with kappa1 ~ 0.387 first drops under 1e-8 near l ~ 24
    lam1 = ground_pair.lam
    gaps = []
    for l in (6.0, 12.0, 24.0):
        lam_m = find_eigenvalues(two_cfg(1.0, l, "odd"), Truncation(40))[0].lam
        gaps.append(lam_m - lam1)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] <= 1e-8


def test_eigenvalue_counts_for_large_separation():
    for l in (6.0, 8.0, 10.0):
        n_even = len(find_eigenvalues(two_cfg(1.0, l, "even"), Truncation(40)))
        n_odd = len(find_eigenvalues(two_cfg(1.0, l, "odd"), Truncation(40)))
        assert n_even == 1 and n_odd == 1


def test_rejects_unresolvable_tolerance():
    with pytest.raises(ValueError):
        find_eigenvalues(single_cfg(1.0), Truncation(8), tol=1e-16)


@pytest.mark.parametrize("tol", [1e-16, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", [
    lambda tol: find_eigenvalues(single_cfg(1.0), Truncation(8), tol=tol),
    lambda tol: find_critical_widths(1, Truncation(8), tol=tol),
    lambda tol: refine_eigenvalue(single_cfg(1.0), 0.86, Truncation(8), tol=tol),
    lambda tol: refine_critical_width(2.2, "odd", Truncation(8), tol=tol),
], ids=["find_eigenvalues", "find_critical_widths", "refine_eigenvalue", "refine_critical_width"])
def test_every_entry_point_applies_the_tol_rule(entry, tol):
    with pytest.raises(ValueError, match="not resolvable"):
        entry(tol)


def test_residual_quality(ground_pair):
    assert ground_pair.residual <= 1e-9


# a in [0.5, 2] stays below the first critical width (2.20 at N = 12); l >= a + 3
# because the odd pair state at a = 0.5 binds only from l ~ 3.25
GEOMETRIES = st.floats(0.5, 2.0).flatmap(lambda a: st.tuples(st.just(a), st.floats(a + 3.0, 8.0)))


@given(GEOMETRIES)
@settings(max_examples=25, deadline=None)
def test_pair_invariants_on_random_geometries(geometry):
    a, l = geometry
    tr = Truncation(12)
    singles = find_eigenvalues(single_cfg(a), tr) + find_eigenvalues(single_cfg(a, "odd"), tr)
    evens = find_eigenvalues(two_cfg(a, l, "even"), tr)
    odds = find_eigenvalues(two_cfg(a, l, "odd"), tr)
    # one even and one odd two-window state per single-window state
    assert len(evens) == len(odds) == len(singles) >= 1
    lam1 = min(p.lam for p in singles)
    assert evens[0].lam <= lam1 <= odds[0].lam
    assert all(p.residual <= RESIDUAL_GATE for p in singles + evens + odds)


# ---------------------------------------------------------------------------
# normalization and eigenfunction evaluation
# ---------------------------------------------------------------------------

def test_closed_form_norm_is_unit(ground_pair):
    assert _norm_sq(ground_pair) == pytest.approx(1.0, abs=1e-12)


def test_norm_against_2d_quadrature():
    # independent check of the closed-form region integrals: brute 2-D
    # Gauss-Legendre over the strip, split at the interfaces
    pair = find_eigenvalues(single_cfg(1.0), Truncation(24))[0]
    a, kappa1 = pair.a, pair.kappa1
    X = a + 30.0 / (2.0 * kappa1)
    gx, gw = np.polynomial.legendre.leggauss(160)
    gy, vw = np.polynomial.legendre.leggauss(120)
    y = PI / 2 * (gy + 1.0)
    wy = PI / 2 * vw
    total = 0.0
    for lo, hi in ((-X, -a), (-a, a), (a, X)):
        x = (hi - lo) / 2 * gx + (hi + lo) / 2
        wx = (hi - lo) / 2 * gw
        vals = eigenfunction_value(pair, x[:, None], y[None, :])
        total += float(np.sum((vals ** 2) * wx[:, None] * wy[None, :]))
    assert total == pytest.approx(1.0, abs=1e-7)


def test_dirichlet_traces(ground_pair):
    # bottom wall outside the window and the top wall carry sin modes only
    x_out = np.array([2.0, 3.5, 7.0])
    assert np.all(eigenfunction_value(ground_pair, x_out, np.zeros(3)) == 0.0)
    top = eigenfunction_value(ground_pair, np.linspace(0.0, 5.0, 7), np.full(7, PI))
    assert np.max(np.abs(top)) < 1e-12


def test_rejects_points_outside_strip(ground_pair):
    with pytest.raises(ValueError):
        eigenfunction_value(ground_pair, 0.0, -0.1)
    with pytest.raises(ValueError):
        eigenfunction_value(ground_pair, 0.0, PI + 0.1)


def test_interface_continuity_in_retained_modes(ground_pair):
    # value match is exact by construction; the derivative match in the
    # retained window modes is the kernel equation S w = 0 in the edge
    # traces w = val * d, so its residual is the converged eigenvalue of S
    # smallest in modulus, far below the 1e-6 contract
    sys = _assemble_at(single_cfg(1.0), Truncation(40), ground_pair.kappa1)
    val, _ = window_profile_at_edge(_rates(40, ground_pair.kappa1)[1], 1.0, "even")
    traces = val * ground_pair.window_coeffs
    resid = sys.matrix @ (traces / np.linalg.norm(traces))
    assert np.max(np.abs(resid)) < 1e-6


def test_pointwise_interface_jump_shrinks_with_truncation():
    # the raw pointwise jump is corner-limited (about 9e-2 at N = 40 for a = 1)
    # and decays with truncation; see the README accuracy notes
    jumps = {}
    for n in (20, 40):
        pair = find_eigenvalues(single_cfg(1.0), Truncation(n))[0]
        x2 = np.linspace(1e-3, PI - 1e-3, 101)
        vin = eigenfunction_value(pair, np.full(101, 1.0 - 1e-9), x2)
        vout = eigenfunction_value(pair, np.full(101, 1.0 + 1e-9), x2)
        jumps[n] = np.max(np.abs(vin - vout))
    assert jumps[40] < jumps[20] < 0.3


def test_parity_symmetry(ground_pair):
    x2 = np.array([0.4, 1.1, 2.2])
    left = eigenfunction_value(ground_pair, np.full(3, -3.3), x2)
    right = eigenfunction_value(ground_pair, np.full(3, 3.3), x2)
    assert np.array_equal(left, right)
    odd = find_eigenvalues(two_cfg(1.0, 6.0, "odd"), Truncation(24))[0]
    left = eigenfunction_value(odd, np.full(3, -5.5), x2)
    right = eigenfunction_value(odd, np.full(3, 5.5), x2)
    assert np.array_equal(left, -right)


def test_two_window_region_continuity():
    pair = find_eigenvalues(two_cfg(1.0, 6.0, "even"), Truncation(40))[0]
    x2 = np.linspace(0.1, PI - 0.1, 33)
    for x1 in (5.0, 7.0):  # both interfaces of the window (l-a, l+a)
        lo = eigenfunction_value(pair, np.full(33, x1 - 1e-9), x2)
        hi = eigenfunction_value(pair, np.full(33, x1 + 1e-9), x2)
        assert np.max(np.abs(lo - hi)) < 0.2
        # retained sin modes agree much better than pointwise near the corner
        proj = np.array([quad(lambda y, j=j: float(
            (eigenfunction_value(pair, np.array([x1 - 1e-9]), np.array([y]))
             - eigenfunction_value(pair, np.array([x1 + 1e-9]), np.array([y])))[0]) * math.sin(j * y),
            0.0, PI, limit=100)[0] for j in (1, 2)])
        assert np.max(np.abs(proj)) < 1e-8


# ---------------------------------------------------------------------------
# tails and window integrals
# ---------------------------------------------------------------------------

def test_extract_tail_synthetic_pair():
    kappa1 = math.sqrt(1.0 - 0.75)
    outside = np.zeros(4)
    outside[0] = math.exp(-kappa1 * 1.0) * math.sqrt(PI / 2.0)
    pair = Eigenpair(lam=0.75, kappa1=kappa1, kind=ProblemKind.SINGLE_WINDOW_EVEN,
                     a=1.0, l=None, n=4, window_coeffs=np.zeros(4),
                     outside_coeffs=outside, region1_coeffs=None,
                     residual=0.0, norm=1.0)
    assert extract_tail(pair).alpha == pytest.approx(1.0, rel=1e-14)


def test_tail_requires_single_window():
    pair = find_eigenvalues(two_cfg(1.0, 6.0, "even"), Truncation(16))[0]
    with pytest.raises(ValueError):
        extract_tail(pair)


def test_tail_describes_far_field(ground_pair):
    alpha = extract_tail(ground_pair).alpha
    x1 = 9.0
    val = float(eigenfunction_value(ground_pair, x1, PI / 2.0))
    model = alpha * math.exp(-ground_pair.kappa1 * x1)
    assert val == pytest.approx(model, rel=1e-4)


def test_window_integral_odd_resonance_vanishes_at_zero_rate(first_critical):
    res = first_critical.resonance
    scale = np.max(np.abs(window_trace(res, np.array([0.5 * first_critical.a]))))
    assert abs(window_integral(res, 0.0)) < 1e-12 * max(scale, 1.0)


def test_window_integral_single_mode_against_quadrature():
    coeffs = np.zeros(6)
    coeffs[0] = 1.0
    pair = Eigenpair(lam=0.75, kappa1=0.5, kind=ProblemKind.SINGLE_WINDOW_EVEN,
                     a=1.0, l=None, n=6, window_coeffs=coeffs,
                     outside_coeffs=np.zeros(6), region1_coeffs=None,
                     residual=0.0, norm=1.0)
    got = window_integral(pair, 0.0)
    ref, _ = quad(lambda x: float(window_trace(pair, np.array([x]))[0]), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert got == pytest.approx(ref, abs=1e-12)


def test_window_integral_quadrature_order_stability(first_critical):
    res = first_critical.resonance
    i64 = window_integral(res, math.sqrt(3.0), order=64)
    i128 = window_integral(res, math.sqrt(3.0), order=128)
    assert abs(i64 - i128) <= 1e-13 * max(1.0, abs(i64))


def test_identity_residual_at_base_truncation(ground_pair):
    # the truncation-limited identity defect is ~1e-3 at N = 40; the
    # acceptance suite checks the extrapolated identity at 1e-6
    integral = window_integral(ground_pair, ground_pair.kappa1)
    rhs = extract_tail(ground_pair).alpha * PI * ground_pair.kappa1
    assert abs(integral - rhs) / abs(integral) < 5e-3


# ---------------------------------------------------------------------------
# critical widths and near-threshold states
# ---------------------------------------------------------------------------

def test_first_critical_width(first_critical):
    assert first_critical.a > 0.0
    assert first_critical.parity == "odd"
    # regression pin at the default truncation (the refined value is near 2.2730)
    assert first_critical.a == pytest.approx(2.2493858672, abs=1e-8)
    assert first_critical.beta != 0.0
    assert first_critical.resonance.residual < 1e-10


def test_resonance_constant_tail_normalization(first_critical):
    assert first_critical.resonance.outside_coeffs[0] == 1.0
    far = eigenfunction_value(first_critical.resonance, 40.0, PI / 2.0)
    assert far == pytest.approx(math.sqrt(2.0 / PI), rel=1e-10)


def test_beta_identity_at_base_truncation(first_critical):
    integral = window_integral(first_critical.resonance, math.sqrt(3.0))
    rhs = math.sqrt(3.0) * PI / 2.0 * first_critical.beta
    assert abs(integral - rhs) / abs(integral) < 5e-3


def test_critical_scan_exhaustion_flag():
    scan = find_critical_widths(5, Truncation(16), a_max=3.0)
    assert scan.exhausted
    assert len(scan.widths) == 1
    with pytest.raises(ValueError):
        find_critical_widths(0, Truncation(16))


def test_second_critical_width_is_even():
    scan = find_critical_widths(2, Truncation(24), a_max=5.0)
    assert [w.parity for w in scan.widths] == ["odd", "even"]
    assert scan.widths[0].a < scan.widths[1].a


def test_near_threshold_root(first_critical):
    cfg = two_cfg(first_critical.a, 5.0, "even")
    roots = find_near_threshold(cfg, Truncation(40))
    assert len(roots) == 1
    assert roots[0].kappa1 == pytest.approx(3.744875e-06, rel=1e-4)
    assert roots[0].lam < 1.0


def test_near_threshold_absent_off_critical():
    assert find_near_threshold(two_cfg(1.0, 8.0, "even"), Truncation(40)) == []
    with pytest.raises(ValueError):
        find_near_threshold(two_cfg(1.0, 8.0, "odd"), Truncation(40))


def test_pair_eigenfunction_locally_matches_translated_single(ground_pair):
    # near one window the pair state is the translated single-window state
    # carrying half the norm, up to exponentially small leakage
    l = 8.0
    pair = find_eigenvalues(two_cfg(1.0, l, "even"), Truncation(40))[0]
    x1 = np.linspace(l - 1.2, l + 1.2, 41)
    x2 = np.linspace(0.2, PI - 0.2, 21)
    X1, X2 = np.meshgrid(x1, x2)
    two = math.sqrt(2.0) * eigenfunction_value(pair, X1.ravel(), X2.ravel())
    one = eigenfunction_value(ground_pair, (X1 - l).ravel(), X2.ravel())
    scale = np.max(np.abs(one))
    assert np.max(np.abs(two - one)) < 2e-2 * scale


def test_spectrum_above_first_critical_width():
    # between a_1 and a_2 the window binds two states: the ground state is
    # even and the state born at a_1 is odd, ordered by node count
    evens = find_eigenvalues(single_cfg(3.0, "even"), Truncation(32))
    odds = find_eigenvalues(single_cfg(3.0, "odd"), Truncation(32))
    assert len(evens) == 1 and len(odds) == 1
    assert evens[0].lam < odds[0].lam


# ---------------------------------------------------------------------------
# truncation refinement
# ---------------------------------------------------------------------------

def test_refine_eigenvalue_base_independence():
    lam20 = find_eigenvalues(single_cfg(1.0), Truncation(20))[0].lam
    lam40 = find_eigenvalues(single_cfg(1.0), Truncation(40))[0].lam
    r20 = refine_eigenvalue(single_cfg(1.0), lam20, Truncation(20), levels=2)
    r40 = refine_eigenvalue(single_cfg(1.0), lam40, Truncation(40), levels=2)
    assert abs(r20.value - r40.value) < 3e-4
    assert r40.error > 0.0
    assert set(r40.by_n) == {40, 80, 160}


def test_refine_critical_width_ladder(first_critical):
    refined = refine_critical_width(first_critical.a, first_critical.parity, Truncation(40))
    assert list(refined.by_n) == [40, 80, 160]
    assert refined.by_n[40] == pytest.approx(first_critical.a, abs=1e-11)
    for n, a in refined.by_n.items():
        s = np.linalg.svd(assemble_threshold(a, Truncation(n), first_critical.parity).matrix,
                          compute_uv=False)
        assert s[-1] < 1e-10 * s[0]
    assert refined.value == pytest.approx(2.2730, abs=2e-3) and refined.error > 0.0


def test_even_sector_threshold_scan_is_find_near_threshold(first_critical):
    cfg, tr = two_cfg(first_critical.a, 4.0, "even"), Truncation(40)
    near = [p.kappa1 for p in find_eigenvalues(cfg, tr) if p.kappa1 < 1e-3]
    assert near == [p.kappa1 for p in find_near_threshold(cfg, tr, 1e-13, 1e-3)]
    assert len(near) == 1


# ---------------------------------------------------------------------------
# root location by count
# ---------------------------------------------------------------------------

def _old_grid_roots(cfg, tr):
    # sign changes on the grids of the determinant-sign scanner this count
    # replaced: 750 lam points, plus 240 log-kappa points in the even
    # two-window sector, each signed by slogdet of the matching matrix K
    b = cfg.base
    grid = np.arange(0.25 + SEARCH_EPS, 1.0 - SEARCH_EPS + 0.5e-3, 1e-3)
    grid[-1] = min(grid[-1], 1.0 - SEARCH_EPS)
    kappas = [np.sqrt(1.0 - grid)]
    if b.kind is ProblemKind.TWO_WINDOW_EVEN:
        kappas.append(np.geomspace(*NEAR_THRESHOLD_KAPPA, 240))
    changes = 0
    for k in kappas:
        s = np.linalg.slogdet(reference_matrix(b.kind, tr.n, b.a, k, b.l))[0]
        changes += int(np.count_nonzero((s[:-1] == 0) | (s[:-1] * s[1:] < 0)))
    return changes


def _count_across(sec):
    return _count(sec, sec.hi).roots - _count(sec, sec.lo).roots


@given(GEOMETRIES)
@settings(max_examples=15, deadline=None)
def test_roots_found_equal_the_count_on_random_geometries(geometry):
    a, l = geometry
    tr = Truncation(12)
    for cfg in (single_cfg(a), single_cfg(a, "odd"), two_cfg(a, l, "even"), two_cfg(a, l, "odd")):
        expected = _count_across(_lam_sector(cfg, tr, 1e-12))
        if cfg.base.kind is ProblemKind.TWO_WINDOW_EVEN:
            expected += _count_across(_kappa_sector(cfg, tr, *NEAR_THRESHOLD_KAPPA))
        found = len(find_eigenvalues(cfg, tr))
        assert found == expected == _old_grid_roots(cfg, tr)


def test_forced_count_mismatch_raises(monkeypatch):
    # a count that claims a root where det S keeps its sign
    real = solve._count

    def phantom(sec, x):
        c = real(sec, x)
        return dataclasses.replace(c, roots=c.roots + (x > 0.95))
    monkeypatch.setattr(solve, "_count", phantom)
    with pytest.raises(ArithmeticError, match="count gives 2"):
        find_eigenvalues(single_cfg(1.0), Truncation(12))


def test_count_evaluates_ten_times_fewer_matrices_per_root(monkeypatch):
    # the determinant-sign scanner signed a 750-point lam grid per sector
    # (plus 240 log-kappa points in the even two-window sector, and 400
    # width points per parity for critical widths) and then bisected each
    # root from the grid step to tol = 1e-12 (30 steps in lam, 35 in a);
    # every assembly of S counts, the one each kernel takes included
    calls = []
    real = matching.trace_form

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(matching, "trace_form", counted)
    tr = Truncation(40)
    roots = sum(len(find_eigenvalues(cfg, tr)) for cfg in
                (single_cfg(2.0), single_cfg(3.5, "odd"), two_cfg(1.0, 6.0, "even"),
                 two_cfg(1.0, 6.0, "odd"), single_cfg(8.0)))
    grid_then = 5 * 750 + 240 + 30 * roots
    widths = find_critical_widths(4, tr).widths
    grid_then += 2 * 400 + 35 * len(widths)
    roots += len(widths)
    assert roots == 11
    assert 10 * len(calls) <= grid_then


# ---------------------------------------------------------------------------
# the sign scanner
# ---------------------------------------------------------------------------

def _sign_pair(f):
    # (point sign, grid signs) of a scalar function, as the scanner takes them
    return lambda x: int(np.sign(f(x))), lambda xs: np.sign(f(xs)).astype(int)


def test_scanner_bisects_sign_changes_and_keeps_exact_zeros():
    grid = np.linspace(0.0, 1.0, 11)
    assert grid[5] == 0.5
    roots = list(_roots(_sign_pair(lambda x: (x - 0.33) * (x - 0.5)), grid, 1e-12))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.33, abs=1e-12)
    assert roots[1] == 0.5  # a zero grid sign is a root as it stands
    kgrid = np.geomspace(1e-10, 1.0, 50)
    (root,) = _roots(_sign_pair(lambda k: k - 3e-7), kgrid, 1e-12, log=True)
    assert root == pytest.approx(3e-7, rel=1e-12)


def test_polish_widens_its_window_up_to_three_times():
    def sign(root):
        return _sign_pair(lambda x: x - root)
    assert _polish_root(sign(0.05), 0.0, 0.01, 1e-12, -1.0) == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ArithmeticError):
        _polish_root(sign(0.2), 0.0, 0.01, 1e-12, -1.0)
    with pytest.raises(ArithmeticError):  # the cap keeps the root out of every window
        _polish_root(sign(0.05), 0.0, 0.01, 1e-12, -1.0, hi_cap=0.04)
