"""Exact computation and verification of stationary descendant
Gromov-Witten invariants of projective spaces, their quasi-polynomial
structure, and the spectral-curve recursion cross-check for the line.

The exports are lazy: `import gwrec` loads no submodule, and the first use
of a name imports the one submodule that defines it (PEP 562)."""

from importlib import import_module as _import_module

_EXPORTS = {  # name -> the submodule that defines it; a submodule names itself
    name: module
    for module, names in {
        "algebra": "LaurentSeries MultiPoly QuasiPoly SymRat c_factor format_rat parse_rat",
        "engine": "DEFAULT_ENGINE Engine InvariantKey degree_of",
        "eo": "InfinitySeries PoleBasisDifferential SpectralCurve compare_eo_gw eo_invariant"
        " eo_string_dilaton_check expand_at_infinity gw_generating pole_asymptotics_check",
        "moduli": "UnstableKeyError n0_polynomial point_invariant point_invariant_closed"
        " point_invariant_string psi_intersection",
        "quasifit": "FitSpec StationaryFamily VerificationReport asymptotics_report"
        " fit_stationary quasi_fit stationary_family verify_dilaton_derivative"
        " verify_negative_evaluation verify_p_string_divisor verify_top_coefficients",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
