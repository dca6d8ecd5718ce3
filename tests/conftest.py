import math

import numpy as np
import pytest

from modeguide import ProblemKind, StripConfig, Truncation, canonicalize
from modeguide.modes import axial_logderiv, overlap_matrix, window_profile_at_edge
from modeguide.solve import find_critical_widths, find_eigenvalues

PI = math.pi


def single_cfg(a, parity="even", d=PI):
    kind = ProblemKind.SINGLE_WINDOW_EVEN if parity == "even" else ProblemKind.SINGLE_WINDOW_ODD
    return canonicalize(StripConfig(d=d, a=a, kind=kind))


def two_cfg(a, l, parity, d=PI):
    kind = ProblemKind.TWO_WINDOW_EVEN if parity == "even" else ProblemKind.TWO_WINDOW_ODD
    return canonicalize(StripConfig(d=d, a=a, l=l, kind=kind))


def reference_matrix(kind, n, a, kappa1, l=None):
    """The non-symmetric matching matrix K over the window profile coefficients.

    Value matching eliminates the outside (and region-1) coefficients, and
    derivative matching in the window modes leaves K, built the
    straightforward way; an array of kappa1 gives one K per point, stacked
    on a leading axis.  The package assembles only the trace form S;
    K = S diag(val) for one window and K = diag(-I, I) S T for two, where T
    maps the even/odd profile coefficients to the edge traces (w_L, w_R).
    """
    kappa1 = np.asarray(kappa1, dtype=float)[..., None]
    j = np.arange(1, n + 1, dtype=float)
    kap = np.sqrt(j * j - 1.0 + kappa1 * kappa1)
    half = j - 0.5
    t = half * half - 1.0 + kappa1 * kappa1
    M = overlap_matrix(n)

    def coupled(rate, val, der):
        # diag(der) + M^T diag(rate) M diag(val)
        return der[..., None] * np.eye(n) + ((M.T * rate[..., None, :]) @ M) * val[..., None, :]
    if not kind.is_two_window:
        return coupled(kap, *window_profile_at_edge(t, a, kind.parity))
    r = axial_logderiv(kap, l - a, kind.parity)
    even = window_profile_at_edge(t, a, "even")
    odd = window_profile_at_edge(t, a, "odd")
    return np.block([[-coupled(r, *even), coupled(r, *odd)],
                     [coupled(kap, *even), coupled(kap, *odd)]])


@pytest.fixture(scope="session")
def ground_pair():
    """Even single-window ground state at a = 1, N = 40."""
    return find_eigenvalues(single_cfg(1.0), Truncation(40))[0]


@pytest.fixture(scope="session")
def pair_sweep_small():
    """Two-window pairs at a = 1, l in {5, 9}, N = 40."""
    out = {}
    for l in (5.0, 9.0):
        lam_p = find_eigenvalues(two_cfg(1.0, l, "even"), Truncation(40))[0].lam
        lam_m = find_eigenvalues(two_cfg(1.0, l, "odd"), Truncation(40))[0].lam
        out[l] = (lam_p, lam_m)
    return out


@pytest.fixture(scope="session")
def first_critical():
    """First critical width (odd parity) with its resonance, N = 40."""
    return find_critical_widths(1, Truncation(40)).widths[0]
