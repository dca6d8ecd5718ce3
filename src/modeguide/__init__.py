"""Bound states of a Dirichlet strip with Neumann windows.

Semi-analytic mode-matching solver for the discrete spectrum below the
continuum threshold, an independent finite-difference oracle, and the
asymptotic laws for the exponential pair splitting of two distant windows
and for the eigenvalue emerging from a threshold resonance.
"""

__version__ = "0.1.0"

from .modes import (
    CanonicalConfig,
    GeometryError,
    GridAlignmentError,
    ProblemKind,
    StripConfig,
    canonicalize,
    overlap_matrix,
)
from .matching import (
    MatchingSystem,
    Truncation,
    assemble_threshold,
)
from .solve import (
    CriticalWidth,
    CriticalWidthScan,
    Eigenpair,
    NotBoundError,
    RefinedValue,
    eigenfunction_value,
    extract_tail,
    extrapolate_truncation,
    find_critical_widths,
    find_eigenvalues,
    find_near_threshold,
    refine_critical_width,
    refine_eigenvalue,
    window_integral,
    window_trace,
)
from .asymptotics import (
    FitResult,
    SplittingPrediction,
    ThresholdPrediction,
    fit_exponential,
    predict_splitting,
    predict_threshold,
)
from .records import RunRecord
from .fd_oracle import (
    OracleConfig,
    critical_width_crossing,
    discrete_threshold,
    discretize,
    lowest_eigenvalues,
    oracle_eigenvalues,
    refine_and_extrapolate,
)
