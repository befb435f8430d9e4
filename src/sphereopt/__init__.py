"""Certified optimization of homogeneous polynomials on the unit sphere.

The package bounds the maximum of a homogeneous polynomial over the unit
sphere from both sides at every level of a converging relaxation
hierarchy: an upper bound from a structured semidefinite relaxation
solved by a built-in interior-point method, and a lower bound from an
explicitly constructed probability measure on the sphere whose moments
approximate the relaxation optimizer.  The gap between the two shrinks
at an explicit o(1) rate in the level.
"""

from .definetti import (BoundsReport, SphereMeasureDensity, TraceCheck,
                        definetti_trace_check, density_constant,
                        f1_distance_lower_estimate, lower_bound,
                        measure_density, moment_matrix_of_density,
                        p_from_q_coefficients, product_state_vec,
                        random_msym_state, random_product_mixture,
                        reduced_state, solve_and_report,
                        state_from_harmonic_density, trace_distance)
from .harmonics import (EpsBound, definetti_eps, funk_hecke_residual,
                        gegenbauer_eval, harmonic_count, harmonic_decompose,
                        HarmonicDecomposition, integrate_poly, lambda_coeff,
                        lambda_ratio, moment_table, ratio_gap_bounds,
                        sphere_moment_vector, sphere_monomial_moment,
                        surface_area)
from .multiindex import basis_catalog, sym_dimension
from .oracle import (OracleResult, mc_sphere_integral,
                     mc_sphere_integral_poly, sphere_maximize)
from .polymat import (HomoPoly, MaxSymMatrix, evaluate, gradient, homo_poly,
                      laplacian, multiply_r2, partial_trace_sym,
                      poly_to_maxsym_matrix, poly_to_vector, r2k_poly,
                      vector_to_poly)
from .reduction import (ReductionRecord, canonicalize, gamma_factor,
                        homogenize_terms, lift_odd, pullback_bounds)
from .sdp import (DEFAULT_MAX_P, DEFAULT_MIN_COND_RATIO, ResourceGuardError,
                  SdpProblem, SdpSolution, SolverError,
                  STATUS_MAX_ITERATIONS, STATUS_NUMERICAL_FAILURE,
                  STATUS_OPTIMAL, build_relaxation, extract_sos_certificate,
                  solve_sdp, uniform_conditioning)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "DEFAULT_MAX_P", "DEFAULT_MIN_COND_RATIO", "EpsBound",
    "HarmonicDecomposition",
    "HomoPoly", "MaxSymMatrix", "OracleResult",
    "ReductionRecord", "ResourceGuardError", "SdpProblem", "SdpSolution",
    "SolverError", "SphereMeasureDensity", "STATUS_MAX_ITERATIONS",
    "STATUS_NUMERICAL_FAILURE", "STATUS_OPTIMAL", "TraceCheck",
    "basis_catalog", "build_relaxation",
    "canonicalize", "definetti_eps", "definetti_trace_check",
    "density_constant", "evaluate",
    "extract_sos_certificate", "f1_distance_lower_estimate",
    "funk_hecke_residual", "gamma_factor", "gegenbauer_eval", "gradient",
    "harmonic_count", "harmonic_decompose", "homo_poly", "homogenize_terms",
    "integrate_poly", "lambda_coeff", "lambda_ratio", "laplacian",
    "lift_odd", "lower_bound", "mc_sphere_integral",
    "mc_sphere_integral_poly", "measure_density",
    "moment_matrix_of_density", "moment_table", "multiply_r2",
    "p_from_q_coefficients", "partial_trace_sym", "poly_to_maxsym_matrix",
    "poly_to_vector", "product_state_vec", "pullback_bounds", "r2k_poly",
    "random_msym_state", "random_product_mixture",
    "ratio_gap_bounds", "reduced_state",
    "solve_and_report", "solve_sdp",
    "sphere_maximize", "sphere_moment_vector", "sphere_monomial_moment",
    "state_from_harmonic_density", "surface_area", "sym_dimension",
    "trace_distance", "uniform_conditioning", "vector_to_poly",
]
