"""Spectral toolkit for Bergman-space Toeplitz operators with harmonic
polynomial symbols: polynomial zero counting at the unit circle, kernel
coefficient recursions with square-summability analysis, closed-form
kernel bases, winding-number Fredholm indices, pencil region
classification, and exact-coefficient finite sections."""

__version__ = "0.1.0"

from .cpoly import (CPoly, NumericIntegrityError, RootFindingError,
                    SchurCohnReport, ZeroPattern, roots, roots_many, schur_cohn,
                    sign_variations, zero_pattern)
from .finsect import (SigmaGrid, ToeplitzTruncation, apply_symbol, min_singular_value,
                      min_singular_values, truncation, tstar_zm_check)
from .kernel import (CoburnVerdict, CoefficientStream, KernelReport,
                     MembershipVerdict, closed_form_kernel_czn,
                     coburn_classify, kernel_dimension, l2_membership,
                     recursion_general)
from .odekernel import OdeKernelBasis, residual_check, taylor_coefficients
from .spectrum import (RegionVerdict, SpectrumVerdict, WindingResult,
                       classify_projective, curve_windings, family_verdict,
                       fredholm_index, membership_grid)
from .symbols import (HarmonicPolySymbol, SpecialFamilySymbol, associated_poly,
                      boundary_curve, special_to_quadratic, zbar_power_plus)

__all__ = [name for name in dir() if not name.startswith("_")]
