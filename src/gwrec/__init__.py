"""Exact computation and verification of stationary descendant
Gromov-Witten invariants of projective spaces, their quasi-polynomial
structure, and the spectral-curve recursion cross-check for the line."""

from .algebra import (
    LaurentSeries,
    MultiPoly,
    QuasiPoly,
    Rat,
    SymRat,
    c_factor,
    format_rat,
    parse_rat,
)
from .engine import (
    DEFAULT_ENGINE,
    Engine,
    InvariantKey,
    degree_of,
)
from .eo import (
    InfinitySeries,
    PoleBasisDifferential,
    SpectralCurve,
    compare_eo_gw,
    eo_invariant,
    eo_string_dilaton_check,
    expand_at_infinity,
    gw_generating,
    pole_asymptotics_check,
)
from .moduli import (
    UnstableKeyError,
    n0_polynomial,
    point_invariant,
    point_invariant_closed,
    point_invariant_string,
    psi_intersection,
)
from .quasifit import (
    FitSpec,
    StationaryFamily,
    VerificationReport,
    asymptotics_report,
    fit_stationary,
    quasi_fit,
    stationary_family,
    verify_dilaton_derivative,
    verify_negative_evaluation,
    verify_p_string_divisor,
    verify_top_coefficients,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
