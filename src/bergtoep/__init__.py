"""Spectral toolkit for Bergman-space Toeplitz operators with harmonic
polynomial symbols: polynomial zero counting at the unit circle, kernel
coefficient recursions with square-summability analysis, closed-form
kernel bases, winding-number Fredholm indices, pencil region
classification, and exact-coefficient finite sections."""

__version__ = "0.1.0"

from .cpoly import (CPoly, NumericIntegrityError, RootFindingError,
                    SchurCohnReport, ZeroPattern, distinct_moduli, eval_poly,
                    roots, roots_many, schur_cohn, sign_variations, zero_pattern)
from .finsect import (ToeplitzTruncation, apply_symbol, min_singular_value,
                      truncation, tstar_zm_check)
from .kernel import (CoburnVerdict, CoefficientStream, KernelReport,
                     MembershipVerdict, closed_form_kernel_czn,
                     coburn_classify, injectivity_test, kernel_dimension,
                     l2_membership, range_solve,
                     recursion_analytic_perturbation, recursion_general,
                     recursion_special_family)
from .odekernel import OdeKernelBasis, residual_check, taylor_coefficients
from .spectrum import (InvertibilityReport, RegionVerdict, SpectrumVerdict,
                       WindingResult, classify_projective, curve_distance,
                       fredholm_index, invertibility_criterion,
                       membership_grid, special_family_region, spectrum_membership,
                       winding_number, winding_of_symbol)
from .symbols import (AssociatedPoly, HarmonicPolySymbol, PoincareCheck,
                      SpecialFamilySymbol, associated_poly, boundary_curve,
                      poincare_condition, special_to_quadratic,
                      zbar_power_plus)

__all__ = [name for name in dir() if not name.startswith("_")]
