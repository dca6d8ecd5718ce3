import dataclasses
import math
import weakref
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from modeguide import (
    Eigenpair,
    NotBoundError,
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
from modeguide import fd_oracle, matching, roots, solve
from modeguide.acceptance import Workspace
from modeguide.fd_oracle import FDGrid, OracleConfig, lowest_eigenvalues
from modeguide.matching import _rates, assemble_threshold
from modeguide.modes import window_profile_at_edge
from modeguide.roots import Sector, count, polish, sector_roots
from modeguide.solve import (
    A_MAX,
    A_MIN,
    KAPPA_RTOL,
    RESIDUAL_GATE,
    SEARCH_EPS,
    THRESHOLD_KAPPA,
    _assemble_at,
    _norm_sq,
    _polish_root,
    _reduced,
    _roots,
    _solve_at,
    _threshold_resonance,
    _u_sector,
    _width_sector,
    refine_critical_width,
)

from conftest import GEOMETRIES, reference_matrix, single_cfg, two_cfg

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
    refined = refine_eigenvalue(find_eigenvalues(single_cfg(a), Truncation(40))[0], levels=2)
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
    lambda tol: refine_eigenvalue(find_eigenvalues(single_cfg(1.0), Truncation(8))[0], tol=tol),
    lambda tol: refine_critical_width(find_critical_widths(1, Truncation(8)).widths[0], tol=tol),
], ids=["find_eigenvalues", "find_critical_widths", "refine_eigenvalue", "refine_critical_width"])
def test_every_entry_point_applies_the_tol_rule(entry, tol):
    with pytest.raises(ValueError, match="not resolvable"):
        entry(tol)


def test_residual_quality(ground_pair):
    assert ground_pair.residual <= 1e-9


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
    sys = _assemble_at(single_cfg(1.0).base, Truncation(40), ground_pair.kappa1)
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
    pair = Eigenpair(kappa1=kappa1, kind=ProblemKind.SINGLE_WINDOW_EVEN,
                     a=1.0, l=None, n=4, window_coeffs=np.zeros(4),
                     outside_coeffs=outside, region1_coeffs=None,
                     residual=0.0)
    assert extract_tail(pair) == pytest.approx(1.0, rel=1e-14)


def test_tail_requires_single_window():
    pair = find_eigenvalues(two_cfg(1.0, 6.0, "even"), Truncation(16))[0]
    with pytest.raises(ValueError):
        extract_tail(pair)


def test_tail_rejects_threshold_resonance(first_critical):
    # a resonance (kappa1 = 0) has a constant tail, not a decaying one
    with pytest.raises(ValueError, match="constant tail"):
        extract_tail(first_critical.resonance)


def test_tail_describes_far_field(ground_pair):
    alpha = extract_tail(ground_pair)
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
    pair = Eigenpair(kappa1=0.5, kind=ProblemKind.SINGLE_WINDOW_EVEN,
                     a=1.0, l=None, n=6, window_coeffs=coeffs,
                     outside_coeffs=np.zeros(6), region1_coeffs=None,
                     residual=0.0)
    got = window_integral(pair, 0.0)
    ref, _ = quad(lambda x: float(window_trace(pair, np.array([x]))[0]), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert got == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("n", [12, 40, 80])
@pytest.mark.parametrize("cfg", [single_cfg(2.0), two_cfg(1.0, 5.0, "even"), two_cfg(3.5, 6.0, "odd")],
                         ids=["single", "two-even", "two-odd"])
def test_window_integral_at_zero_rate_is_the_closed_form_up_to_n_80(cfg, n):
    # sqrt(2/pi) times the even profiles' integrals 2 sin(w a)/w and 2 tanh(nu a)/nu (the odd
    # ones integrate to 0): the 64-node quadrature meets them to 1e-13 relative up to N = 80
    # (at most 4.4e-15 here), not beyond: 3.1e-11 at N = 160 and 1.9e-8 at N = 320 (two-odd)
    for pair in find_eigenvalues(cfg, Truncation(n)):
        _, t = _rates(n, pair.kappa1)
        w, nu = math.sqrt(-t[0]), np.sqrt(t[1:])
        d = pair.window_coeffs[:n]  # the even family, first for two windows
        closed = math.sqrt(2.0 / PI) * (2.0 * d[0] * math.sin(w * pair.a) / w
                                        + float(d[1:] @ (2.0 * np.tanh(nu * pair.a) / nu)))
        assert window_integral(pair, 0.0) == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_window_integral_quadrature_order_stability(first_critical):
    res = first_critical.resonance
    i64 = window_integral(res, math.sqrt(3.0))
    nodes, weights = np.polynomial.legendre.leggauss(128)
    x = res.a * nodes
    i128 = float(res.a * np.sum(weights * window_trace(res, x) * np.exp(math.sqrt(3.0) * x)))
    assert abs(i64 - i128) <= 1e-13 * max(1.0, abs(i64))


def test_identity_residual_at_base_truncation(ground_pair):
    # the truncation-limited identity defect is ~1e-3 at N = 40; the
    # acceptance suite checks the extrapolated identity at 1e-6
    integral = window_integral(ground_pair, ground_pair.kappa1)
    rhs = extract_tail(ground_pair) * PI * ground_pair.kappa1
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


def _counted_forms(monkeypatch):
    # every assembly of S: each root's kernel reads what its polish kept of the form there
    calls = []
    real = matching.trace_form

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(matching, "trace_form", counted)
    return calls


_SEARCHES = {
    "single": lambda ws: find_eigenvalues(single_cfg(2.0), Truncation(40)),
    "two-even": lambda ws: find_eigenvalues(two_cfg(1.0, 4.0, "even"), Truncation(40)),
    "two-odd": lambda ws: find_eigenvalues(two_cfg(1.0, 4.0, "odd"), Truncation(40)),
    "critical": lambda ws: find_critical_widths(2, Truncation(40)),
    "single-ladder": lambda ws: ws.single_ladder(1.0),
    "critical-ladder": lambda ws: ws.critical_ladder(),
}


@pytest.mark.parametrize("run", _SEARCHES.values(), ids=_SEARCHES.keys())
def test_no_point_is_assembled_twice(monkeypatch, run):
    # each root's kernel, and each ladder rung's solution, reads what the
    # search kept of the form it built at the root.  The ladders' base roots
    # come first (see the test below)
    ws = Workspace(Truncation(8))
    ws.single_pair(1.0), ws.critical()
    calls = _counted_forms(monkeypatch)
    run(ws)
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("ladder", ["single-ladder", "critical-ladder"])
def test_a_whole_ladder_assembles_no_point_twice(monkeypatch, ladder):
    # the ladder starts from the base search's solution, so it neither counts
    # the base sector's end again nor rebuilds the base root's point
    calls = _counted_forms(monkeypatch)
    _SEARCHES[ladder](Workspace(Truncation(8)))
    assert calls and len(set(calls)) == len(calls)


def test_the_critical_ladder_builds_at_most_its_pinned_forms(monkeypatch):
    # a_1 at N = 40 and its rungs at N = 80, 160 and 320: 34 forms where every rung counted
    # the sector end its root is indexed from
    calls = _counted_forms(monkeypatch)
    Workspace().critical_ladder()
    assert 0 < len(calls) <= 31


@pytest.mark.parametrize("run", _SEARCHES.values(), ids=_SEARCHES.keys())
def test_no_form_outlives_its_point(monkeypatch, run):
    # a root keeps its kernel vector and residual, not S, which is the only
    # large part of a form, and the polish drops the latest point's form before
    # it builds the next: when a form is assembled, no earlier one is alive, so
    # a search holds one form at a time however many roots it has
    alive, forms = [], []
    real = matching.trace_form

    def tracked(*args):
        alive.append(sum(form() is not None for form in forms))
        S = real(*args)
        forms.append(weakref.ref(S))
        return S
    monkeypatch.setattr(matching, "trace_form", tracked)
    run(Workspace(Truncation(8)))
    assert len(forms) > 1 and max(alive) == 0


@pytest.mark.parametrize("cfg, k", [(single_cfg(1.0), 3), (two_cfg(1.0, 3.0, "even"), 2)],
                         ids=["single", "two"])
def test_no_window_form_is_evaluated_twice(monkeypatch, cfg, k):
    # k = 3 doubles the single window's upper end from 1 to 2, and the count
    # bisection of (0, 2] meets 1 again as its first midpoint
    sigmas = []
    form = fd_oracle.WindowForm.__call__
    monkeypatch.setattr(fd_oracle.WindowForm, "__call__",
                        lambda self, sigma: sigmas.append(sigma) or form(self, sigma))
    lowest_eigenvalues(FDGrid(cfg, OracleConfig(L=8.0, h=1 / 16, k=k)), k)
    assert sigmas and len(set(sigmas)) == len(sigmas)


def test_polish_builds_the_form_of_a_bracket_end_it_returns():
    # a root within the tolerance of a bracket end: Brent returns that end,
    # whose count kept no form, and polish builds it there
    built = []

    def form(x):
        built.append(x)
        return np.array([[x - 0.5]]), 0
    sec = Sector(form, 0.0, 1.0, 1e-3)
    lo, hi = count(sec, 0.0), count(sec, 0.5 + 1e-6)
    root = polish(sec, lo, hi)
    assert root.x == hi.x and root.at == np.array([[hi.x - 0.5]])
    assert built.count(hi.x) == 2


def test_polish_returns_a_bracket_end_where_det_s_vanishes():
    # det S = 0 at a bracket end: that end is the root, with no Brent step,
    # and polish builds its form there as at any end it returns
    built = []

    def form(x):
        built.append(x)
        return np.array([[x - 0.5]]), 0
    sec = Sector(form, 0.0, 1.0, 1e-3)
    lo, hi = count(sec, 0.0), count(sec, 0.5)
    assert hi.logdet == -math.inf
    root = polish(sec, lo, hi)
    assert root.x == 0.5 and root.at == np.array([[0.0]])
    assert built == [0.0, 0.5, 0.5]


@pytest.mark.parametrize("r, rebuilt", [(0.5, True), (0.3, False)])
def test_a_polish_keeps_the_form_of_its_root_once(r, rebuilt):
    # det S = x - r, with a rounding noise of 1e-15 that does not follow x.  For r = 0.5 the
    # first point Brent evaluates lies within the noise of r, the next one across r reads a
    # larger |det S|, and Brent returns the first, its contrapoint: polish builds its form
    # again, to the same value.  For r = 0.3 Brent returns its latest point.  Either way the
    # root's point is kept once, and no other
    built, kept = [], []

    def form(x):
        z = np.array([[x - r + 1e-15 * math.sin(1e17 * x)]])
        built.append((x, z))
        return z, 0
    sec = Sector(form, 0.0, 1.0, 0.0, keep=lambda value: kept.append(value) or value)
    lo, hi = count(sec, 0.0), count(sec, 1.0)
    built.clear()
    root = polish(sec, lo, hi)
    assert len(kept) == 1 and root.at is kept[0]
    at_root = [z for x, z in built if x == root.x]
    assert len(at_root) == 1 + rebuilt and built[-1][0] == root.x
    assert all(np.array_equal(z, root.at) for z in at_root)


def test_find_eigenvalues_keeps_one_kernel_per_pair(monkeypatch):
    # each polish evaluates several points but builds the kernel of the root's alone
    calls = []
    real = solve._kernel_at
    monkeypatch.setattr(solve, "_kernel_at", lambda value: calls.append(value) or real(value))
    for cfg in (single_cfg(5.0), two_cfg(1.0, 4.0, "even")):
        calls.clear()
        pairs = find_eigenvalues(cfg, Truncation(40))
        assert pairs and len(calls) == len(pairs)


def _polish_spied(sec, lo, hi):
    """polish(sec, lo, hi) and every point it builds the form of, in order."""
    seen = []

    def spy(x):
        seen.append(x)
        return sec.form(x)
    return polish(dataclasses.replace(sec, form=spy), lo, hi), seen


def test_a_polish_stops_at_the_first_point_where_det_s_is_rounding():
    # det S = expm1(3 (x - 0.3)), but within 1e-9 of the root only its rounding is left: +-1e-9
    # of a sign that does not follow x.  Without a floor Brent bisects that noise down to its
    # tolerance; with one it returns the first point it evaluates inside the floor, and
    # evaluates no other
    root, quantum = 0.3, 1e-9

    def form(x):
        z = math.expm1(3.0 * (x - root))
        if abs(x - root) <= quantum:
            z = math.copysign(quantum, math.sin(1e12 * x))
        return (np.array([[z]]), np.array([[quantum]])), 0
    floored = Sector(form, 0.0, 1.0, 1e-15, matrix=itemgetter(0), floor=itemgetter(1))
    lo, hi = count(floored, 0.0), count(floored, 1.0)
    root_at, seen = _polish_spied(floored, lo, hi)
    inside = [x for x in seen if abs(x - root) <= quantum]
    assert inside and root_at.x == inside[0] == seen[-1]
    assert root_at.at[0][0, 0] in (quantum, -quantum)
    bare, seen_bare = _polish_spied(dataclasses.replace(floored, floor=lambda value: None), lo, hi)
    assert seen_bare[:len(seen)] == seen and len(seen_bare) > len(seen)
    assert abs(bare.x - root) <= quantum


@given(GEOMETRIES)
@settings(max_examples=8, deadline=None)
def test_a_polished_root_is_the_bisection_root_without_a_far_side_form(geometry):
    # each root of a smooth sector lies within the polish tolerance tol / 10 of the root that
    # plain bisection of det Z's sign finds; and at least one root of the geometry ends with
    # no sign change of det Z within that tolerance among the points built, so a polish that
    # certified its bracket, Brent's stop at a bracket of tol / 10, builds at least one more form
    a, l = geometry
    tr, tol = Truncation(12), 1e-12
    uncertified = 0
    for cfg in (single_cfg(a), two_cfg(a, l, "even"), two_cfg(a, l, "odd")):
        sec = _u_sector(cfg.base, tr, tol)

        def sign(x):
            return np.linalg.slogdet(sec.form(x)[0][1])[0]
        for lo, hi in roots.isolate(sec, count(sec, sec.lo), count(sec, sec.hi)):
            root, seen = _polish_spied(sec, lo, hi)
            below, above = lo.x, hi.x
            while above - below > sec.tol(root.x) / 100.0:
                mid = 0.5 * (below + above)
                below, above = (mid, above) if sign(mid) == lo.sign else (below, mid)
            assert abs(root.x - 0.5 * (below + above)) <= sec.tol(root.x)
            points = [(lo.x, lo.sign), (hi.x, hi.sign), *((x, sign(x)) for x in seen)]
            uncertified += not any(p <= root.x <= q and sp != sq and q - p <= sec.tol(root.x)
                                   for p, sp in points for q, sq in points)
    assert uncertified >= 1


def test_brent_finds_the_root_of_a_plain_function():
    xtol, rtol = 1e-12, 4.0 * np.finfo(float).eps
    x = roots.brent(lambda x: x ** 3 - 2.0, 1.0, 2.0, -1.0, 6.0, lambda x: xtol + rtol * abs(x))
    assert type(x) is float
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= xtol + rtol * abs(x)


@pytest.mark.parametrize("z", [-3.0, 2.5, 1e-300, -0.0, 7e10, 1.0, -1e-300])
def test_the_kernel_of_a_1x1_form_is_what_eigh_gives(z):
    # a single-window point's Z is 1 x 1; its kernel skips eigh, bit for bit
    S = np.array([[z]])
    v = roots.kernel(S)
    assert v.shape == (1,) and v.dtype == float
    assert np.array_equal(v, np.linalg.eigh(S)[1][:, 0]) and np.array_equal(v, [1.0])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


# +-0, subnormals, +-1e+-300 and ordinary floats: the values a 1 x 1 Z can take
ONE_BY_ONE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                     1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(ONE_BY_ONE)
@settings(max_examples=300, deadline=None)
def test_the_1x1_count_and_polish_are_eigvalsh_and_slogdet_bit_for_bit(z):
    # a single-window point's Z is 1 x 1: count reads it as its own eigenvalue and the
    # polish takes its sign and log in closed form, with no LAPACK call
    Z = np.array([[z]])
    mu = np.linalg.eigvalsh(Z)
    neg = int(np.count_nonzero(mu < 0.0))
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(np.abs(mu))))
    got = count(Sector(lambda x: (Z, 0), 0.0, 1.0, 1e-12), 0.5)
    assert (got.roots, got.poles) == (neg, 0)
    assert _bits(got.sign) == _bits(-1.0 if neg % 2 else 1.0)
    assert _bits(got.logdet) == _bits(logdet)
    sign, logdet = np.linalg.slogdet(Z)
    assert tuple(map(_bits, roots._slogdet(Z))) == (_bits(sign), _bits(logdet))


def test_a_sector_rejects_an_interval_it_cannot_search():
    # a polish in s = sqrt(x) from lo = 0 maps the tolerance to s by dividing by s = 0,
    # and swapped bounds hold no root to find
    def form(x):
        return np.array([[x - 0.5]]), 0
    with pytest.raises(ValueError, match="a sector needs"):
        Sector(form, 0.0, 1.0, 0.0, sqrt_upto=0.5)
    for lo, hi in ((1.0, 0.5), (0.5, 0.5), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="a sector needs"):
            Sector(form, lo, hi, 0.0)
    tr = Truncation(12)
    cfg = two_cfg(find_critical_widths(1, tr).widths[0].a, 4.0, "even")
    with pytest.raises(ValueError, match="a sector needs"):
        find_near_threshold(cfg, tr, 0.0, 0.05)
    with pytest.raises(ValueError, match="a sector needs"):
        find_near_threshold(cfg, tr, 0.05, 1e-13)


def test_a_capped_bracket_shrinks_towards_zero():
    # a kappa-like form, root at x = kappa^2 = 1e-20: an absolute tolerance alone stops
    # at the sector's end, 1e-26; capped at xcap |x| the root keeps its relative accuracy
    def form(x):
        return np.array([[1e-10 - math.sqrt(x)]]), 0
    sec = Sector(form, 1e-26, 1.0, 1e-13, xcap=2e-12)
    assert sec.tol(0.5) == pytest.approx(1e-13) and sec.tol(1e-6) == pytest.approx(2e-18)
    assert sec.tol(0.0) == 0.0 and dataclasses.replace(sec, xcap=math.inf).tol(0.0) == 1e-13
    (root,) = sector_roots(sec)
    assert root.x == pytest.approx(1e-20, rel=1e-11)
    (loose,) = sector_roots(dataclasses.replace(sec, xcap=math.inf))
    assert loose.x == 1e-26


def test_a_bracket_below_the_crossover_is_polished_in_its_square_root():
    # det S = 1e-10 - sqrt(x) is linear in s = sqrt(x): Brent in s reaches the root, to the
    # same bracket, in fewer evaluations than Brent in x, across which det S is far from linear
    def polished(sqrt_upto):
        built = []

        def form(x):
            built.append(x)
            return np.array([[1e-10 - math.sqrt(x)]]), 0
        (root,) = sector_roots(Sector(form, 1e-26, 1.0, 1e-13, xcap=2e-12, sqrt_upto=sqrt_upto))
        return root.x, len(built)
    in_x, in_s = polished(-math.inf), polished(1.0)
    assert in_x[0] == pytest.approx(1e-20, rel=1e-11) and in_s[0] == pytest.approx(1e-20, rel=1e-11)
    assert in_s[1] < in_x[1]


def test_a_root_polished_to_a_coarse_tolerance_fails_the_residual_gate():
    # tol = 1e-3, above what the solvers accept, stops the polish far enough from the
    # root for its kernel residual to exceed the gate: the gate, not the count, rejects it
    tr = Truncation(12)
    (root,) = sector_roots(_u_sector(single_cfg(1.0).base, tr, 1e-3))
    with pytest.raises(ArithmeticError, match="kernel residual .* exceeds 1e-08"):
        _solve_at(root)
    first = sector_roots(_width_sector(tr, "odd", A_MAX, 1e-3))[0]
    with pytest.raises(ArithmeticError, match="kernel residual .* exceeds 1e-08"):
        _threshold_resonance(first, 1)


def test_critical_widths_polish_only_the_roots_returned(monkeypatch):
    # the full scan polishes every root of both parities below a_max and
    # merges them; the first n of it are the widths find_critical_widths(n)
    # returns, bit for bit, and exhausted is set when it holds fewer than n
    tr = Truncation(40)
    calls = _counted_forms(monkeypatch)
    full = sorted((root.x, parity) for parity in ("even", "odd")
                  for root in sector_roots(_width_sector(tr, parity, A_MAX, 1e-12)))
    full_forms = len(calls)
    assert len(full) == 4
    scans = {}
    for n in range(1, 6):
        del calls[:]
        scans[n] = find_critical_widths(n, tr)
        assert [(w.a, w.parity) for w in scans[n].widths] == full[:n]
        assert scans[n].exhausted == (len(full) < n)
        if n == 1:
            assert len(calls) < full_forms
    assert all([(w.a, w.beta) for w in scans[n].widths] ==
               [(w.a, w.beta) for w in scans[5].widths[:n]] for n in scans)


@pytest.mark.parametrize("n_max, widths", [
    (1, [(2.199859133433907, 4.742743488298164)]),
    (2, [(2.199859133433907, 4.742743488298164), (4.010914790393572, 107.70882997153458)]),
])
def test_critical_widths_polish_one_root_per_width(monkeypatch, n_max, widths):
    # the second parity's first bracket, and at n_max = 2 the odd bracket that reaches
    # below the even root, are merged unpolished; (a, beta) as a heapq.merge of the two
    # parities' polished roots gave them
    polished = []
    real = roots.polish

    def counted(sec, lo, hi):
        polished.append((lo.x, hi.x))
        return real(sec, lo, hi)
    monkeypatch.setattr(roots, "polish", counted)
    scan = find_critical_widths(n_max, Truncation(12))
    assert len(polished) == n_max
    assert [(w.a, w.beta) for w in scan.widths] == widths


def test_merged_roots_polish_a_root_only_to_order_it(monkeypatch):
    # diagonal forms with roots 1, 3 and 1.5, 2.9 on (0, 4]: both sectors bisect to the
    # brackets (0, 2] and (2, 4]; 1.5 is counted past 1, and 2.9 undercuts 3 in its bracket
    def sector(*where):
        return Sector(lambda x: (np.diag(np.array(where) - x), 0), 0.0, 4.0, 1e-14)
    polished = []
    real = roots.polish

    def counted(sec, lo, hi):
        polished.append((lo.x, hi.x))
        return real(sec, lo, hi)
    monkeypatch.setattr(roots, "polish", counted)
    merged = roots.merged_roots([(sec, count(sec, sec.lo), count(sec, sec.hi))
                                 for sec in (sector(1.0, 3.0), sector(1.5, 2.9))])
    assert [next(merged).x for _ in range(2)] == pytest.approx([1.0, 1.5], abs=1e-13)
    assert polished == [(0.0, 2.0), (0.0, 2.0)]
    assert [root.x for root in merged] == pytest.approx([2.9, 3.0], abs=1e-13)
    assert polished[2:] == [(2.0, 4.0), (2.0, 4.0)]


def _diagonal_sector(*where, counted=None):
    # a root at each entry of ``where`` on (0, 4]; ``counted`` collects every x the form is built at
    def form(x):
        if counted is not None:
            counted.append(x)
        return np.diag(np.array(where) - x), 0
    return Sector(form, 0.0, 4.0, 1e-14)


@pytest.mark.parametrize("x0, k, root, bracket", [(2.9, 1, 1.0, (0.35, 1.63)),
                                                  (0.2, 2, 2.0, (1.47, 2.75))],
                         ids=["centre-above", "centre-below"])
def test_kth_root_grows_its_window_towards_the_root_only(monkeypatch, x0, k, root, bracket):
    # the window 0.01 about x0 misses root k; the counts at its ends put the
    # root on one side, and each next window (0.02, 0.04, ... long) starts at
    # the end nearer the root, so the bracket polished is the last window alone
    polished, counted = [], []
    real = roots.polish

    def spy(sec, lo, hi):
        polished.append((lo.x, hi.x))
        return real(sec, lo, hi)
    monkeypatch.setattr(roots, "polish", spy)
    found = roots.kth_root(_diagonal_sector(1.0, 2.0, 3.0, counted=counted), x0, 0.01, k)
    assert found.x == pytest.approx(root, abs=1e-13)
    assert polished == [pytest.approx(bracket, abs=1e-12)]
    assert all(0.0 <= x <= 4.0 for x in counted)


@pytest.mark.parametrize("x0, k", [(3.5, 4), (0.5, 4), (3.5, -4), (0.5, -4)])
def test_kth_root_past_the_sector_finds_none_without_counting_outside_it(x0, k):
    # the search gives up at the sector end on the side it moves to, k's own end for k < 0;
    # the end that k > 0 counts from is read off the window where it reads 0 there (x0 = 0.5)
    counted = []
    assert roots.kth_root(_diagonal_sector(1.0, 2.0, 3.0, counted=counted), x0, 0.01, k) is None
    assert counted and max(counted) == 4.0 and (min(counted) == 0.0) == (x0 > 1.0 or k < 0)
    assert all(0.0 <= x <= 4.0 for x in counted)


@pytest.mark.parametrize("x0", [0.2, 1.7, 2.9])
@pytest.mark.parametrize("k, root", [(-1, 3.0), (-2, 2.0), (-3, 1.0)])
def test_kth_root_counts_a_negative_index_from_the_upper_end(x0, k, root):
    # root -1 is the one nearest hi, as a list's index counts, wherever the window starts
    found = roots.kth_root(_diagonal_sector(1.0, 2.0, 3.0), x0, 0.01, k)
    assert found.x == pytest.approx(root, abs=1e-13)


def _rung_forms(monkeypatch, sector):
    """Every x at which a sector that ``solve.<sector>`` makes from now on builds its form."""
    built = []
    real = getattr(solve, sector)

    def spied(*args):
        sec = real(*args)
        return dataclasses.replace(sec, form=lambda x: built.append(x) or sec.form(x))
    monkeypatch.setattr(solve, sector, spied)
    return built


_FAR_ENDS = {
    # root 1 from the deep end, whose window's upper end counts 0 as the sector's end does
    "single-1": (lambda: find_eigenvalues(single_cfg(1.0), Truncation(40))[0], refine_eigenvalue,
                 "_u_sector", 0.75 - SEARCH_EPS, False),
    # a_1, odd: root 1, whose window's lower end counts 0 as A_MIN does
    "critical-1": (lambda: find_critical_widths(1, Truncation(40)).widths[0], refine_critical_width,
                   "_width_sector", A_MIN, False),
    # the second even state at a = 5 has the first above its window: the window counts -1 there
    "single-5-index-2": (lambda: find_eigenvalues(single_cfg(5.0), Truncation(40))[1],
                         refine_eigenvalue, "_u_sector", 0.75 - SEARCH_EPS, True),
    # a_2, even: its sector counts 1 at A_MIN already, which no window count of 1 tells apart
    "critical-2": (lambda: find_critical_widths(2, Truncation(40)).widths[1], refine_critical_width,
                   "_width_sector", A_MIN, True),
}


@pytest.mark.parametrize("base, refine, sector, end, counted", _FAR_ENDS.values(), ids=_FAR_ENDS.keys())
def test_a_rung_counts_the_end_its_root_is_indexed_from_only_where_its_window_cannot(
        monkeypatch, base, refine, sector, end, counted):
    # a count never falls in x and is <= 0 in u (sense -1), >= 0 in a: a window end on the
    # side of the sector end that counts 0 gives the sector end's count, 0, without its form
    first = base()
    built = _rung_forms(monkeypatch, sector)
    refined = refine(first)
    assert len(refined.solutions) == 3 and built
    assert (end in built) == counted


@given(GEOMETRIES, st.floats(-0.5, 0.5))
@settings(max_examples=8, deadline=None)
def test_kth_root_is_bit_identical_to_a_search_that_counts_the_far_end(geometry, shift):
    # a pole more at every x moves every count of a u sector (sense -1) down by one, so no window
    # end counts 0 and kth_root counts the sector end that root k is indexed from, as it did
    # for every window before; the brackets and det S stay those of the sector, so root k
    # is the same, bit for bit
    a, l = geometry
    tr, skipped = Truncation(12), 0
    for cfg in (single_cfg(a), two_cfg(a, l, "even"), two_cfg(a, l, "odd")):
        sec = _u_sector(cfg.base, tr, 1e-12)
        built = []
        plain = dataclasses.replace(sec, form=lambda x, sec=sec: built.append(x) or sec.form(x))
        poled = dataclasses.replace(
            sec, form=lambda x, sec=sec: (lambda at, poles: (at, poles + 1))(*sec.form(x)))
        found = sector_roots(sec)
        for k in range(-len(found), 0):
            x0, width = found[k].x * (1.0 + shift / 12.0), found[k].x / 24.0
            built.clear()
            assert roots.kth_root(plain, x0, width, k).x == roots.kth_root(poled, x0, width, k).x
            skipped += sec.hi not in built
    assert skipped >= 1


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


@pytest.mark.parametrize("l, most", [(4.0, 6), (5.0, 5), (6.0, 5), (7.0, 4), (8.0, 4)])
def test_the_near_threshold_root_is_polished_in_kappa(monkeypatch, first_critical, l, most):
    # the window of the u sector holds one root, where det Z behaves like kappa1 - kappa1_0:
    # Brent in kappa1 takes a few forms where Brent in u takes more, and stops at the first
    # point where det Z is rounding (at l = 6 it took 22 forms bisecting that noise)
    calls = _counted_forms(monkeypatch)
    (near,) = find_near_threshold(two_cfg(first_critical.a, l, "even"), Truncation(40))
    assert near.kappa1 < 2e-4 and len(calls) <= most


@pytest.mark.parametrize("l", [4.0, 6.0, 8.0])
def test_a_near_threshold_root_is_the_bisection_root_within_its_rounding_bar(first_critical, l):
    # from l = 3 on det Z reaches its rounding floor F before the polish tolerance, and the
    # polish stops at the first point inside it: the root then lies within F / |d det Z / d kappa|
    # of the root that bisection of det Z's sign finds (2.9e-11, 3.0e-8 and 3.0e-5 relative here,
    # 10 to 18 times the distance), the slope taken by central differences
    tr = Truncation(40)
    cfg = two_cfg(first_critical.a, l, "even")
    (near,) = find_near_threshold(cfg, tr)
    kappa = near.kappa1

    def z(k):
        return _reduced(_assemble_at(cfg.base, tr, k))[1:4:2]
    Z, F = z(kappa)
    h = 1e-2 * kappa
    slope = (np.linalg.det(z(kappa + h)[0]) - np.linalg.det(z(kappa - h)[0])) / (2.0 * h)
    bar = roots._det_floor(Z, F) / abs(slope)
    below, above = 0.5 * kappa, 2.0 * kappa
    outside = np.sign(np.linalg.det(z(below)[0]))
    while above - below > 1e-15 * above:
        mid = 0.5 * (below + above)
        below, above = (mid, above) if np.sign(np.linalg.det(z(mid)[0])) == outside else (below, mid)
    assert KAPPA_RTOL * kappa < bar < 1e-4 * kappa
    assert abs(kappa - 0.5 * (below + above)) <= bar


def test_near_threshold_absent_off_critical():
    assert find_near_threshold(two_cfg(1.0, 8.0, "even"), Truncation(40)) == []
    assert find_near_threshold(two_cfg(1.0, 8.0, "odd"), Truncation(40)) == []


def test_near_threshold_search_serves_every_kind():
    # no sector is special: just above a_1 the odd single window binds kappa1 = 7.6e-6,
    # which the kappa window finds as the one sector does
    tr = Truncation(40)
    cfg = single_cfg(find_critical_widths(1, tr).widths[0].a + 1e-5, "odd")
    (near,) = find_near_threshold(cfg, tr)
    (pair,) = find_eigenvalues(cfg, tr)
    assert near.kappa1 == pytest.approx(7.58e-6, rel=1e-3)
    assert pair.kappa1 == pytest.approx(near.kappa1, rel=1e-9)


def test_solver_results_are_frozen(ground_pair, first_critical):
    scan = find_critical_widths(1, Truncation(12))
    for result, derived in ((ground_pair, ["lam", "parity"]), (first_critical, ["a", "parity"]),
                            (scan, [])):
        for name in [f.name for f in dataclasses.fields(result)] + derived:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, getattr(result, name))


def test_solutions_compare_and_hash_by_identity(ground_pair, first_critical):
    # dataclass equality would compare the array fields and raise
    p, q = (find_eigenvalues(single_cfg(1.0), Truncation(12))[0] for _ in range(2))
    width = find_critical_widths(1, Truncation(12)).widths[0]
    for x, y in ((p, q), (ground_pair, p), (first_critical, width),
                 (refine_eigenvalue(p), refine_eigenvalue(q))):
        assert x == x and x != y and len({x, y, x}) == 2
        assert hash(x) == hash(x)


def test_a_solution_stores_each_fact_once(first_critical):
    # lam follows from kappa1, and a width's a and parity from its resonance
    tr = Truncation(12)
    pairs = find_eigenvalues(two_cfg(find_critical_widths(1, tr).widths[0].a, 4.0, "even"), tr)
    pairs += refine_eigenvalue(find_eigenvalues(single_cfg(2.0), tr)[0]).solutions.values()
    assert any(p.kappa1 < 1e-3 for p in pairs)
    assert all(p.lam == 1.0 - p.kappa1 * p.kappa1 for p in pairs)
    widths = find_critical_widths(3, tr).widths + [first_critical]
    assert all(w.a == w.resonance.a and w.parity == w.resonance.parity for w in widths)


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
    r20, r40 = (refine_eigenvalue(find_eigenvalues(single_cfg(1.0), Truncation(n))[0], levels=2)
                for n in (20, 40))
    assert abs(r20.value - r40.value) < 3e-4
    assert r40.error > 0.0
    assert set(r40.by_n) == {40, 80, 160}


def test_refine_critical_width_ladder(first_critical):
    refined = refine_critical_width(first_critical)
    assert list(refined.by_n) == [40, 80, 160]
    assert refined.by_n[40] == first_critical.a
    assert all(refined.by_n[n] == w.a for n, w in refined.solutions.items())
    assert all(w.index == first_critical.index and w.parity == first_critical.parity
               for w in refined.solutions.values())
    for n, a in refined.by_n.items():
        s = np.linalg.svd(assemble_threshold(a, Truncation(n), first_critical.parity).matrix,
                          compute_uv=False)
        assert s[-1] < 1e-10 * s[0]
    assert refined.value == pytest.approx(2.2730, abs=2e-3) and refined.error > 0.0


_BASES = {
    "eigenvalue": (lambda: find_eigenvalues(single_cfg(1.0), Truncation(8))[0],
                   lambda pair, levels=2: refine_eigenvalue(pair, levels)),
    "critical-width": (lambda: find_critical_widths(1, Truncation(8)).widths[0],
                       lambda width, levels=2: refine_critical_width(width, levels)),
}


@pytest.mark.parametrize("base, refine", _BASES.values(), ids=_BASES.keys())
def test_a_ladders_first_rung_is_the_solution_passed(monkeypatch, base, refine):
    # the base search's solution is the first rung as it stands: no form is
    # built at its truncation, and by_n holds its value
    first = base()
    calls = _counted_forms(monkeypatch)
    refined = refine(first)
    value = first.lam if isinstance(first, Eigenpair) else first.a
    assert refined.solutions[8] is first and refined.by_n[8] == value
    assert list(refined.by_n) == [8, 16, 32]
    assert calls and 8 not in {args[1] for args in calls}


@pytest.mark.parametrize("levels", [0, -1])
@pytest.mark.parametrize("base, refine", _BASES.values(), ids=_BASES.keys())
def test_a_ladder_needs_a_doubling(base, refine, levels):
    with pytest.raises(ValueError, match="levels >= 1"):
        refine(base(), levels)


def test_a_ladder_stops_where_its_state_is_not_bound():
    # at the first critical width of N = 40 the even pair state has kappa1 = 1.2e-4; at
    # N = 80 the critical width is larger and the state is gone, so the ladder names it
    # instead of growing its window to the ground state
    tr = Truncation(40)
    cfg = two_cfg(find_critical_widths(1, tr).widths[0].a, 4.0, "even")
    ground, near = find_eigenvalues(cfg, tr)
    assert (ground.index, near.index) == (1, 2) and near.kappa1 < 1e-3
    with pytest.raises(NotBoundError, match="no bound state at N = 80") as info:
        refine_eigenvalue(near)
    assert info.value.n == 80
    assert refine_eigenvalue(ground, levels=1).solutions[40] is ground
    # find_near_threshold counts only a window of the sector: its pairs have no index
    (windowed,) = find_near_threshold(cfg, tr)
    assert windowed.index is None
    with pytest.raises(ValueError, match="no index"):
        refine_eigenvalue(windowed)


def test_a_ladder_never_takes_a_deeper_state():
    # a = 4.065 binds a second even state at N = 40 (lam = 0.99999) but not at N = 80:
    # the window about it would grow to the ground state at lam = 0.355 and refine that
    tr = Truncation(40)
    ground, top = find_eigenvalues(single_cfg(4.065), tr)
    assert top.lam > 0.9999 and ground.lam < 0.36
    with pytest.raises(NotBoundError) as info:
        refine_eigenvalue(top)
    assert info.value.n == 80
    assert all(p.index == 1 for p in refine_eigenvalue(ground).solutions.values())


@pytest.mark.parametrize("cfg", [single_cfg(1.0), two_cfg(1.0, 6.0, "even"), two_cfg(1.0, 6.0, "odd")],
                         ids=["single-even", "two-even", "two-odd"])
def test_every_rung_is_the_pairs_own_system(cfg):
    # the ladder reads its system from the pair: no rung can take another
    # window, separation or parity, such as the even root next to an odd pair
    pair = find_eigenvalues(cfg, Truncation(12))[0]
    solutions = refine_eigenvalue(pair, levels=2).solutions
    assert list(solutions) == [12, 24, 48] and solutions[pair.n] is pair
    assert all((p.kind, p.a, p.l) == (pair.kind, pair.a, pair.l) for p in solutions.values())


@pytest.mark.parametrize("cfg", [single_cfg(2.0), single_cfg(5.0), two_cfg(1.0, 6.0, "even")],
                         ids=["single-2", "single-5", "two-even"])
def test_every_rung_value_is_its_solutions_lam(cfg):
    # one extrapolation fits one kind of number: every rung's lam as its
    # pair holds it, never the polished root x beside it (a = 5 binds two)
    for pair in find_eigenvalues(cfg, Truncation(12)):
        refined = refine_eigenvalue(pair, levels=2)
        assert all(refined.by_n[n] == p.lam for n, p in refined.solutions.items())


@pytest.mark.parametrize("ladder", ["single-ladder", "critical-ladder"])
def test_every_later_rung_starts_at_its_predicted_root(monkeypatch, ladder):
    # each rung counts at the two ends of the predicted window, which brackets
    # the root, and at the sector end its root is indexed from only where the
    # window does not fix that end's count; it polishes in that window:
    # at most 8 forms a rung
    ws = Workspace(Truncation(8))
    ws.single_pair(1.0), ws.critical()
    calls = _counted_forms(monkeypatch)
    _SEARCHES[ladder](ws)
    per_rung = {n: sum(args[1] == n for args in calls) for n in (16, 32, 64)}
    assert len(calls) == sum(per_rung.values())
    assert all(1 <= forms <= 8 for forms in per_rung.values()), per_rung


@st.composite
def _ladder_bases(draw):
    """Base solutions at N = 8-16, each with its sector at a truncation and the map from
    that sector's x to the ladder's value: the roots of a random single window (both
    parities), of a random pair of windows in one parity, or the first two critical
    widths.  A state within 0.1 of the threshold is left out: its lam rises with N, and it
    can leave the sector through the threshold before the top rung."""
    tr, tol = Truncation(draw(st.integers(8, 16))), 1e-12
    what = draw(st.sampled_from(["single", "two", "critical"]))
    if what == "critical":
        return [(width, lambda t, w=width: _width_sector(t, w.parity, max(A_MAX, 2.0 * w.a), tol),
                 lambda a: a) for width in find_critical_widths(2, tr).widths]
    if what == "single":
        a = draw(st.floats(0.8, 5.0))
        pairs = find_eigenvalues(single_cfg(a), tr) + find_eigenvalues(single_cfg(a, "odd"), tr)
    else:
        a = draw(st.floats(0.8, 2.0))
        cfg = two_cfg(a, draw(st.floats(a + 0.5, a + 5.0)), draw(st.sampled_from(["even", "odd"])))
        pairs = find_eigenvalues(cfg, tr)
    return [(pair, lambda t, p=pair: _u_sector(p, t, tol), lambda u: 1.0 - u)
            for pair in pairs if pair.lam < 0.9]


@given(_ladder_bases())
@settings(max_examples=20, deadline=None)
def test_every_rung_is_the_root_of_the_base_roots_index(bases):
    # each rung's value is the root of the base root's index in its own sector, counted
    # from the deep end for eigenvalues, as a count of the whole sector finds it,
    # polished alike to tol / 10
    tol = 1e-12
    for first, sector_at, value_of in bases:
        if isinstance(first, Eigenpair):
            by_n = refine_eigenvalue(first, levels=2, tol=tol).by_n
        else:
            by_n = refine_critical_width(first, levels=2, tol=tol).by_n
        full = {n: [value_of(root.x) for root in sector_roots(sector_at(Truncation(n)))]
                for n in by_n}
        n = min(by_n)
        index = int(np.argmin(np.abs(np.array(full[n]) - by_n[n])))
        if isinstance(first, Eigenpair):
            index -= len(full[n])
            assert -index == first.index
        for n, x in by_n.items():
            assert abs(full[n][index] - x) <= tol / 10.0, (n, full[n], x)


def test_one_sector_holds_the_near_threshold_root(first_critical):
    # the even pair state at the first critical width, kappa1 = 1.2e-4, is the sector's
    # top root, as find_near_threshold's kappa window finds it, to the kappa tolerance
    cfg, tr = two_cfg(first_critical.a, 4.0, "even"), Truncation(40)
    near = [p.kappa1 for p in find_eigenvalues(cfg, tr) if p.kappa1 < 1e-3]
    windowed = [p.kappa1 for p in find_near_threshold(cfg, tr, 1e-13, 1e-3)]
    assert len(near) == len(windowed) == 1
    assert near[0] == pytest.approx(windowed[0], rel=10.0 * KAPPA_RTOL)


# ---------------------------------------------------------------------------
# root location by count
# ---------------------------------------------------------------------------

def _old_grid_roots(cfg, tr):
    # sign changes on the grids of the determinant-sign scanner this count
    # replaced, each signed by slogdet of the matching matrix K: 750 lam points
    # up to kappa = 1e-3, and 240 log-kappa points from there down to 1e-13,
    # which that scanner gave the even two-window sector only
    b = cfg.base
    top = 1.0 - 1e-6
    grid = np.arange(0.25 + SEARCH_EPS, top + 0.5e-3, 1e-3)
    grid[-1] = min(grid[-1], top)
    kappas = [np.sqrt(1.0 - grid), np.geomspace(THRESHOLD_KAPPA[0], 1e-3, 240)]
    changes = 0
    for k in kappas:
        s = np.linalg.slogdet(reference_matrix(b.kind, tr.n, b.a, k, b.l))[0]
        changes += int(np.count_nonzero((s[:-1] == 0) | (s[:-1] * s[1:] < 0)))
    return changes


def _count_across(sec):
    return count(sec, sec.hi).roots - count(sec, sec.lo).roots


@given(GEOMETRIES)
@settings(max_examples=15, deadline=None)
def test_roots_found_equal_the_count_on_random_geometries(geometry):
    a, l = geometry
    tr = Truncation(12)
    for cfg in (single_cfg(a), single_cfg(a, "odd"), two_cfg(a, l, "even"), two_cfg(a, l, "odd")):
        expected = _count_across(_u_sector(cfg.base, tr, 1e-12))
        found = len(find_eigenvalues(cfg, tr))
        assert found == expected == _old_grid_roots(cfg, tr)


def _binding_width(make, lo: float, hi: float, tr) -> float:
    """The a in (lo, hi] at which the sector of make(a) holds one more root than at lo,
    by bisection on the count at the sector's ends, to 1e-13 relative."""
    held = _count_across(_u_sector(make(lo).base, tr, 1e-12))
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _count_across(_u_sector(make(mid).base, tr, 1e-12)) > held:
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _just_bound(draw):
    """A system at N = 12-40 a little above the width at which its sector binds one more
    state, so that state lies near the threshold (kappa1 from about 1e-11 to 1e-3): a single
    window of either parity above a critical width of its own truncation (a_1 odd, a_2
    even), or a pair of windows in the odd sector above the width of its next state."""
    tr = Truncation(draw(st.integers(12, 40)))
    lo, parity = draw(st.sampled_from([(2.1, "odd"), (3.9, "even")]))  # just below a_1, a_2
    if draw(st.booleans()):
        make, hi = (lambda a: single_cfg(a, parity)), lo + 0.4
    else:
        gap = draw(st.floats(2.0, 5.0))
        make, hi = (lambda a: two_cfg(a, a + gap, "odd")), lo + 1.0
    a = _binding_width(make, lo, hi, tr) + 10.0 ** draw(st.floats(-11.0, -3.0))
    return make(a), tr


@given(_just_bound())
@settings(max_examples=15, deadline=None)
def test_every_state_near_the_threshold_is_found(system):
    # the state just bound lies above lam = 1 - 1e-6 for most draws, where a search in
    # lam alone stops: the roots returned are every root the sector's ends count
    cfg, tr = system
    pairs = find_eigenvalues(cfg, tr)
    assert len(pairs) == _count_across(_u_sector(cfg.base, tr, 1e-12))
    assert [p.index for p in pairs] == list(range(1, len(pairs) + 1))
    assert pairs[-1].kappa1 < 2e-3


def test_forced_count_mismatch_raises(monkeypatch):
    # a count that claims a root where det S keeps its sign
    real = roots.count

    def phantom(sec, x):
        c = real(sec, x)
        return c._replace(roots=c.roots + (x > 0.7))  # u = 1 - lam
    monkeypatch.setattr(roots, "count", phantom)
    with pytest.raises(ArithmeticError, match="count gives 2"):
        find_eigenvalues(single_cfg(1.0), Truncation(12))


def test_count_evaluates_ten_times_fewer_matrices_per_root(monkeypatch):
    # the determinant-sign scanner signed a 750-point lam grid per sector
    # (plus 240 log-kappa points in the even two-window sector, and 400
    # width points per parity for critical widths) and then bisected each
    # root from the grid step to tol = 1e-12 (30 steps in lam, 35 in a);
    # every assembly of S counts, and each kernel reads one the polish built
    calls = _counted_forms(monkeypatch)
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
