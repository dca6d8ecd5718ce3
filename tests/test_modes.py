import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from modeguide import (
    GeometryError,
    ProblemKind,
    StripConfig,
    canonicalize,
    overlap_matrix,
    stable_cosh,
    stable_sinhc,
)
from modeguide.matching import _rates
from modeguide.modes import (
    axial_eval,
    axial_l2,
    axial_logderiv,
    window_profile_at_edge,
    window_profile_eval,
    window_profile_l2,
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
# branch-stable evaluators
# ---------------------------------------------------------------------------

def test_stable_cosh_basics():
    assert stable_cosh(0.0, 5.0) == 1.0
    assert stable_cosh(4.0, 1.0) == pytest.approx(math.cosh(2.0), rel=1e-15)
    assert stable_cosh(-1.0, PI) == pytest.approx(-1.0, rel=1e-15)


def test_stable_sinhc_basics():
    assert stable_sinhc(0.0, 2.5) == 2.5
    assert stable_sinhc(4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
    assert stable_sinhc(-4.0, 1.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_evaluator_smoothness_across_zero(x):
    eps = 1e-8
    assert abs(stable_cosh(eps, x) - stable_cosh(-eps, x)) <= 1.5 * eps * x * x + 1e-15
    assert abs(stable_sinhc(eps, x) - stable_sinhc(-eps, x)) <= 0.5 * eps * x ** 3 + 1e-15


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

@pytest.mark.parametrize("t", [25.0, 2.0, 1e-5, 0.0, -0.3, -0.74])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_window_profile_l2_matches_quadrature(t, parity):
    a = 1.3
    closed = float(window_profile_l2(np.array([t]), a, parity)[0])
    val, _ = quad(lambda x: float(window_profile_eval(np.array([t]), np.array([x]), a, parity)[0]) ** 2,
                  -a, a, limit=200, epsabs=1e-13, epsrel=1e-13)
    assert closed == pytest.approx(val, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("t", [30.0, 1.0, -0.5])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_window_profile_edge_derivative(t, parity):
    a = 0.9
    val, der = window_profile_at_edge(np.array([t]), a, parity)
    d = 1e-6
    num = (window_profile_eval(np.array([t]), np.array([a]), a, parity)[0]
           - window_profile_eval(np.array([t]), np.array([a - d]), a, parity)[0]) / d
    assert der[0] == pytest.approx(num, rel=2e-5, abs=1e-8)
    assert val[0] == pytest.approx(float(window_profile_eval(np.array([t]), np.array([a]), a, parity)[0]),
                                   rel=1e-13)


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
