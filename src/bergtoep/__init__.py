"""Spectral toolkit for Bergman-space Toeplitz operators with harmonic
polynomial symbols: polynomial zero counting at the unit circle, kernel
coefficient recursions with square-summability analysis, closed-form
kernel bases, winding-number Fredholm indices, pencil region
classification, and exact-coefficient finite sections.  The package
exports the answers that the README tour and the command line use, the
exceptions their callers catch, and `oracles`, the module of checks.
"""

__version__ = "0.1.0"

from . import oracles
from .cpoly import CPoly, NumericIntegrityError, RootFindingError, roots, zero_pattern
from .finsect import min_singular_values, truncation
from .kernel import kernel_dimension, recursion_general
from .odekernel import OdeKernelBasis
from .spectrum import (CurveResolutionError, OnCurveError, RouteMismatchError,
                       classify_projective, family_verdict, fredholm_index, membership_grid)
from .symbols import HarmonicPolySymbol, SpecialFamilySymbol, boundary_curve, zbar_power_plus

__all__ = [
    "CPoly", "roots", "zero_pattern", "HarmonicPolySymbol", "SpecialFamilySymbol",
    "zbar_power_plus", "boundary_curve", "kernel_dimension", "recursion_general",
    "classify_projective", "family_verdict", "fredholm_index", "membership_grid",
    "truncation", "min_singular_values", "OdeKernelBasis", "oracles",
    "CurveResolutionError", "NumericIntegrityError", "OnCurveError", "RootFindingError",
    "RouteMismatchError",
]
