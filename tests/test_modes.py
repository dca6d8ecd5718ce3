import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, quad_vec

from modeguide import (
    GeometryError,
    ProblemKind,
    StripConfig,
    canonicalize,
    overlap_matrix,
)
from modeguide.matching import _rates
from modeguide.modes import (
    axial_eval,
    axial_l2,
    axial_logderiv,
    window_profile_at_edge,
    window_profile_eval,
    window_profile_integral,
    window_profile_l2,
    window_profile_scale_log,
)

PI = math.pi


# ---------------------------------------------------------------------------
# geometry and canonical rescaling
# ---------------------------------------------------------------------------

def test_canonicalize_two_window_similarity():
    cfg = canonicalize(StripConfig(d=2 * PI, a=1.0, l=4.0, kind=ProblemKind.TWO_WINDOW_EVEN))
    assert cfg.base.d == PI
    assert cfg.base.a == 0.5
    assert cfg.base.l == 2.0
    assert cfg.lambda_scale == 0.25
    assert cfg.to_physical(1.0) == 0.25


def test_canonicalize_identity_case():
    cfg = canonicalize(StripConfig(d=PI, a=1.0, l=3.0, kind=ProblemKind.TWO_WINDOW_ODD))
    assert cfg.base.a == 1.0 and cfg.base.l == 3.0 and cfg.lambda_scale == 1.0


def test_canonicalize_upscaling():
    cfg = canonicalize(StripConfig(d=PI / 2, a=0.3, l=1.0, kind=ProblemKind.TWO_WINDOW_EVEN))
    assert cfg.base.a == pytest.approx(0.6, rel=1e-15)
    assert cfg.base.l == pytest.approx(2.0, rel=1e-15)
    assert cfg.lambda_scale == 4.0


@pytest.mark.parametrize("bad", [
    dict(d=PI, a=-1.0, kind=ProblemKind.SINGLE_WINDOW_EVEN),
    dict(d=PI, a=0.0, kind=ProblemKind.SINGLE_WINDOW_ODD),
    dict(d=-1.0, a=1.0, kind=ProblemKind.SINGLE_WINDOW_EVEN),
    dict(d=PI, a=2.0, l=1.5, kind=ProblemKind.TWO_WINDOW_EVEN),
    dict(d=PI, a=2.0, kind=ProblemKind.TWO_WINDOW_ODD),
    dict(d=PI, a=2.0, l=3.0, kind=ProblemKind.SINGLE_WINDOW_EVEN),
])
def test_invalid_geometry_rejected(bad):
    with pytest.raises(GeometryError):
        StripConfig(**bad)


@given(st.integers(min_value=-6, max_value=6))
@settings(max_examples=13, deadline=None)
def test_scaling_invariance_exact_for_binary_dilations(exp):
    # dilation by a power of two is exact in floating point, so the canonical
    # forms must agree bitwise; general dilations agree to roundoff
    s = 2.0 ** exp
    ref = canonicalize(StripConfig(d=PI, a=1.25, l=5.5, kind=ProblemKind.TWO_WINDOW_EVEN))
    scaled = canonicalize(StripConfig(d=s * PI, a=s * 1.25, l=s * 5.5,
                                      kind=ProblemKind.TWO_WINDOW_EVEN))
    assert scaled.base == ref.base


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_scaling_invariance_general(s):
    ref = canonicalize(StripConfig(d=PI, a=1.25, l=5.5, kind=ProblemKind.TWO_WINDOW_EVEN))
    scaled = canonicalize(StripConfig(d=s * PI, a=s * 1.25, l=s * 5.5,
                                      kind=ProblemKind.TWO_WINDOW_EVEN))
    assert scaled.base.a == pytest.approx(ref.base.a, rel=1e-14)
    assert scaled.base.l == pytest.approx(ref.base.l, rel=1e-14)


def test_spectral_map_roundtrip():
    cfg = canonicalize(StripConfig(d=2.7, a=0.9, kind=ProblemKind.SINGLE_WINDOW_EVEN))
    lam = 0.7315
    assert cfg.to_physical(cfg.to_canonical(lam)) == pytest.approx(lam, rel=4e-16)
    half = canonicalize(StripConfig(d=PI / 2, a=0.9, kind=ProblemKind.SINGLE_WINDOW_EVEN))
    assert half.to_physical(half.to_canonical(lam)) == lam  # power-of-two factor is exact


# ---------------------------------------------------------------------------
# mode rates
# ---------------------------------------------------------------------------

def test_rate_values_at_kappa():
    # kappa_j = sqrt(j^2 - lam) and t_m = (m - 1/2)^2 - lam at kappa1 = sqrt(1 - lam)
    kap, t = _rates(3, 0.5)
    assert kap[0] == 0.5
    assert kap[1] == pytest.approx(math.sqrt(3.25), rel=1e-15)
    assert list(t) == [-0.5, 1.5, 5.5]
    kap, t = _rates(3, 0.0)  # the threshold lam = 1
    assert kap[0] == 0.0 and kap[2] == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert _rates(1, math.sqrt(0.75))[1][0] == pytest.approx(0.0, abs=1e-15)  # turns at lam = 1/4


def test_rate_monotonicity():
    kappas = np.sqrt(1.0 - np.linspace(0.26, 0.99, 25))
    rates = np.array([_rates(7, k)[0] for k in kappas])
    assert np.all(np.diff(rates, axis=0) < 0)  # every rate falls as lam grows
    assert np.all(np.diff(rates, axis=1) > 0)  # and grows with the mode index


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def test_overlap_closed_values():
    M = overlap_matrix(2)
    assert M[0, 0] == pytest.approx(8.0 / (3.0 * PI), rel=1e-15)
    assert M[1, 0] == pytest.approx(16.0 / (15.0 * PI), rel=1e-15)


def _overlap_quad(j, m):
    val, _ = quad(lambda x: math.sin(j * x) * math.cos((m - 0.5) * x), 0.0, PI,
                  limit=200, epsabs=1e-14, epsrel=1e-14)
    return 2.0 / PI * val


def test_overlap_matches_quadrature_on_grid():
    M = overlap_matrix(10)
    for j in range(1, 11):
        for m in range(1, 11):
            assert abs(M[j - 1, m - 1] - _overlap_quad(j, m)) < 1e-12


def test_overlap_sign_pattern():
    M = overlap_matrix(12)
    j = np.arange(1, 13)[:, None]
    half = (np.arange(1, 13) - 0.5)[None, :]
    assert np.all(np.sign(M) == np.sign(j * j - half * half))


# ---------------------------------------------------------------------------
# normalized profiles against quadrature oracles
# ---------------------------------------------------------------------------

# whole rate vectors of the solver: the oscillatory first mode (w = 1e-8 at
# kappa1 = sqrt(3/4), w*a = 4e-3 at kappa1 = sqrt(3/4 - 1e-5) and a = 1.3) and
# 319 evanescent ones, from the series ranges of nu*a (below 0.07 at a = 1e-4,
# below 1e-6 at a = 1e-7) to nu*a = 2560
PROFILE_CASES = pytest.mark.parametrize("kappa1, a", [
    (0.0, 0.9), (0.3, 8.0), (0.3, 1e-4), (math.sqrt(0.75), 1.3), (math.sqrt(0.75 - 1e-5), 1.3),
    (math.sqrt(0.75), 1e-4), (0.6, 1e-7),
])
PARITIES = pytest.mark.parametrize("parity", ["even", "odd"])


@PROFILE_CASES
@PARITIES
def test_window_profile_l2_matches_quadrature(kappa1, a, parity):
    _, t = _rates(320, kappa1)
    closed = window_profile_l2(t, a, parity)
    val, _ = quad_vec(lambda x: window_profile_eval(t, np.array([x]), a, parity)[:, 0] ** 2,
                      -a, a, epsabs=1e-15 * a, epsrel=1e-11, norm="max")
    np.testing.assert_allclose(closed, val, rtol=1e-10)


@PROFILE_CASES
@PARITIES
def test_window_profile_integral_matches_quadrature(kappa1, a, parity):
    # odd profiles integrate to exactly 0, even ones to 2 sin(w a)/w and 2 tanh(nu a)/nu
    _, t = _rates(320, kappa1)
    closed = window_profile_integral(t, a, parity)
    val, _ = quad_vec(lambda x: window_profile_eval(t, np.array([x]), a, parity)[:, 0],
                      -a, a, epsabs=1e-15 * a, epsrel=1e-11, norm="max")
    if parity == "odd":
        assert not closed.any() and np.max(np.abs(val)) <= 1e-14 * a
    else:
        np.testing.assert_allclose(closed, val, rtol=1e-10)


def test_window_profile_l2_odd_holds_across_its_series_switch():
    # the odd closed forms (a - sin(2u)/(2w))/w^2 and coth(u)/nu - a*csch^2(u)
    # cancel to about eps/u^2 as u = w*a or nu*a -> 0; with their series below
    # u = 0.07 both stay within 2e-13 of a quadrature good to 1e-15
    a = 1.3
    for u in np.geomspace(1e-4, 1.0, 41):
        w = nu = u / a
        closed = window_profile_l2(np.array([-w * w, nu * nu]), a, "odd")
        osc = quad(lambda x: (np.sin(w * x) / w) ** 2, -a, a, epsabs=0.0, epsrel=1e-13)[0]
        eva = quad(lambda x: (np.sinh(nu * x) / np.sinh(nu * a)) ** 2, -a, a, epsabs=0.0, epsrel=1e-13)[0]
        np.testing.assert_allclose(closed, [osc, eva], rtol=2e-13, err_msg=f"u = {u:.3g}")


@pytest.mark.parametrize("a", [1e-4, 1.3, 7.0])
def test_odd_evanescent_profile_holds_as_nu_a_goes_to_zero(a):
    # sinh(nu x)/sinh(nu a) and log(sinh(nu a)/nu) for u = nu*a in [1e-9, 5]
    # against 40 digits: expm1 keeps both near eps with no series switch
    x = a * np.linspace(-1.0, 1.0, 9)
    for u in np.geomspace(1e-9, 5.0, 60):
        nu = u / a
        t = np.array([-0.01, nu * nu])
        nu = math.sqrt(t[1])  # the rate the evaluators take
        with mpmath.workdps(40):
            sinh_a = mpmath.sinh(mpmath.mpf(nu) * mpmath.mpf(a))
            profile = [float(mpmath.sinh(mpmath.mpf(nu) * mpmath.mpf(xi)) / sinh_a) for xi in x]
            scale = float(mpmath.log(sinh_a / mpmath.mpf(nu)))
        np.testing.assert_allclose(window_profile_eval(t, x, a, "odd")[1], profile, rtol=2e-15, atol=0.0,
                                   err_msg=f"u = {u:.3g}")
        # the log is the sum of terms up to |log nu| ~ 21, so its rounding is absolute
        assert abs(window_profile_scale_log(t, a, "odd")[1] - scale) <= 1e-14 * max(1.0, abs(scale)), f"u = {u:.3g}"


@PROFILE_CASES
@PARITIES
def test_window_profile_edge_derivative(kappa1, a, parity):
    _, t = _rates(320, kappa1)
    val, der = window_profile_at_edge(t, a, parity)
    d = 1e-3 * min(a, 1.0 / math.sqrt(t[-1]))  # resolves the window and exp(nu x) for every nu
    f = window_profile_eval(t, a + d * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), a, parity)
    # fourth-order central difference, with its rounding error on profiles of size <= max(1, a)
    num = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 3] - f[:, 4]) / (12.0 * d)
    assert np.all(np.abs(der - num) <= 1e-7 * np.abs(der) + 1e-14 * max(1.0, a) / d)
    # the value at the edge: exactly 1 for the evanescent rows
    np.testing.assert_allclose(f[:, 2], val, rtol=1e-15, atol=0.0)
    assert np.all(f[1:, 2] == 1.0)


@PROFILE_CASES
@PARITIES
def test_window_profile_scale_log_is_the_center_value_or_slope(kappa1, a, parity):
    # an even profile is 1/scale at the window center and an odd one has
    # slope 1/scale there; the oscillatory profile keeps scale one
    # (compared in logs: beyond nu*a = 708 the center values underflow)
    _, t = _rates(320, kappa1)
    scale_log = window_profile_scale_log(t, a, parity)
    assert scale_log[0] == 0.0
    if parity == "even":
        center = window_profile_eval(t, np.zeros(1), a, parity)[:, 0]
        tol = dict(rtol=1e-14, atol=1e-15)
    else:
        # Richardson on the quotients f(x)/x at x = d, 2d: error (nu d)^4/30,
        # with the evanescent ratio's rounding eps/(nu d) below 1e-8
        d = min(0.1 * a, 1e-3 / math.sqrt(t[-1]))
        q = window_profile_eval(t, np.array([d, 2.0 * d]), a, parity) / np.array([d, 2.0 * d])
        center = (4.0 * q[:, 0] - q[:, 1]) / 3.0
        tol = dict(rtol=0.0, atol=1e-8)
    normal = center > np.finfo(float).tiny
    assert normal[:50].all()
    np.testing.assert_allclose(-np.log(center[normal]), scale_log[normal], **tol)


@pytest.mark.parametrize("kappa", [3.0, 0.4, 1e-5])
@pytest.mark.parametrize("plane", ["even", "odd"])
def test_axial_l2_matches_quadrature(kappa, plane):
    L = 4.0
    closed = float(axial_l2(np.array([kappa]), L, plane)[0])
    val, _ = quad(lambda x: float(axial_eval(np.array([kappa]), np.array([x]), L, plane)[0]) ** 2,
                  0.0, L, limit=200, epsabs=1e-14, epsrel=1e-13)
    assert closed == pytest.approx(val, rel=1e-9, abs=1e-14)


def test_axial_logderiv_limits():
    # Neumann plane: kappa*tanh -> kappa; Dirichlet plane: kappa/tanh -> 1/L as kappa -> 0
    assert float(axial_logderiv(np.array([5.0]), 10.0, "even")[0]) == pytest.approx(5.0, rel=1e-12)
    assert float(axial_logderiv(np.array([1e-9]), 2.0, "odd")[0]) == pytest.approx(0.5, rel=1e-9)


def test_axial_reflection_signature():
    # Dirichlet plane profile vanishes at the plane; Neumann one has zero slope
    kap = np.array([0.7, 1.9])
    assert np.all(axial_eval(kap, np.zeros(2), 5.0, "odd") == 0.0)
    d = 1e-7
    slope = (axial_eval(kap, np.full(2, d), 5.0, "even") - axial_eval(kap, np.zeros(2), 5.0, "even")) / d
    assert np.max(np.abs(slope)) < 1e-5
