"""Closed-form asymptotic predictions and exponential-decay fits.

In canonical units (strip width pi) a single-window bound state at lam_j
with tail amplitude alpha seeds a two-window pair

    lam_j(+/-)(l) = lam_j -/+ mu_j exp(-2 sqrt(1-lam_j) l) + smaller,

with the prefactor available two ways: mu_j = alpha^2 pi sqrt(1-lam_j)
from the tail amplitude, or mu_j = I^2 / (pi sqrt(1-lam_j)) from the
weighted window integral I; the two are tied by the boundary-pairing
identity I = alpha pi sqrt(1-lam_j).

At a critical width the threshold resonance with second-mode tail
amplitude beta instead produces a single eigenvalue approaching the
continuum edge,

    1 - lam(l) = mu exp(-4 sqrt(3) l) + smaller,   mu = 3 pi^2 beta^4,

equivalently mu = (16/(3 pi^2)) I^4 with I the sqrt(3)-weighted window
integral of the resonance, tied by I = (sqrt(3) pi / 2) beta; the decay
rate of the state itself is kappa(l) = sqrt(mu) exp(-2 sqrt(3) l).

:func:`fit_exponential` is the measurement instrument: ordinary least
squares on (l, ln delta) for a positive decaying series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplittingPrediction",
    "ThresholdPrediction",
    "FitResult",
    "predict_splitting",
    "predict_threshold",
    "fit_exponential",
    "THRESHOLD_RATE",
]

#: decay rate 4*sqrt(3) of the threshold-case gap 1 - lam(l)
THRESHOLD_RATE = 4.0 * math.sqrt(3.0)


@dataclass(frozen=True)
class SplittingPrediction:
    """Pair-splitting prefactors and rate seeded by one bound state."""

    mu_alpha: float | None
    mu_integral: float | None
    rate: float

    @property
    def mu(self) -> float:
        if self.mu_integral is not None:
            return self.mu_integral
        return self.mu_alpha


@dataclass(frozen=True)
class ThresholdPrediction:
    """Threshold-case prefactors, gap and decay-rate predictions."""

    mu_beta: float | None
    mu_integral: float | None
    rate: float = THRESHOLD_RATE

    @property
    def mu(self) -> float:
        if self.mu_integral is not None:
            return self.mu_integral
        return self.mu_beta

    def gap(self, l: float) -> float:
        """Predicted distance 1 - lam of the emergent eigenvalue to the threshold."""
        return self.mu * math.exp(-self.rate * l)

    def kappa(self, l: float) -> float:
        """Predicted decay rate sqrt(1 - lam) of the emergent eigenfunction."""
        return math.sqrt(self.mu) * math.exp(-0.5 * self.rate * l)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of delta(l) = P exp(-rate l)."""

    rate: float
    log_prefactor: float
    r2: float
    n_points: int

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)


def predict_splitting(lambda_j: float, alpha: float | None = None,
                      window_integral: float | None = None) -> SplittingPrediction:
    """Splitting prediction from a bound state's tail amplitude and/or integral.

    At least one of ``alpha`` and ``window_integral`` must be given; when
    both are, the two prefactor routes can be compared (they agree to the
    quality of the computed eigenfunction).
    """
    if not (0.25 < lambda_j < 1.0):
        raise ValueError(f"bound state must lie in (1/4, 1), got lambda_j={lambda_j}")
    if alpha is None and window_integral is None:
        raise ValueError("need a tail amplitude or a window integral")
    kappa1 = math.sqrt(1.0 - lambda_j)
    mu_alpha = None if alpha is None else alpha * alpha * math.pi * kappa1
    mu_integral = None if window_integral is None else window_integral ** 2 / (math.pi * kappa1)
    return SplittingPrediction(mu_alpha=mu_alpha, mu_integral=mu_integral, rate=2.0 * kappa1)


def predict_threshold(beta: float | None = None,
                      window_integral: float | None = None) -> ThresholdPrediction:
    """Threshold-case prediction from the resonance tail and/or integral."""
    if beta is None and window_integral is None:
        raise ValueError("need a resonance tail amplitude or a window integral")
    mu_beta = None if beta is None else 3.0 * math.pi ** 2 * beta ** 4
    mu_integral = None if window_integral is None else \
        16.0 / (3.0 * math.pi ** 2) * window_integral ** 4
    return ThresholdPrediction(mu_beta=mu_beta, mu_integral=mu_integral)


def fit_exponential(samples) -> FitResult:
    """Ordinary least squares on (l, ln delta) for samples (l, delta > 0).

    Requires at least three samples at distinct l with positive delta;
    the slope gives -rate, the intercept ln P, and r^2 is reported always.
    """
    pts = [(float(l), float(d)) for l, d in samples]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 samples to fit, got {len(pts)}")
    ls = np.array([p[0] for p in pts])
    ds = np.array([p[1] for p in pts])
    if np.any(ds <= 0.0):
        raise ValueError("all decay samples must be positive")
    if len(np.unique(ls)) < len(ls):
        raise ValueError("sample positions l must be distinct")
    y = np.log(ds)
    A = np.vstack([ls, np.ones_like(ls)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(rate=float(-slope), log_prefactor=float(intercept),
                     r2=r2, n_points=len(pts))
