"""Certified optimization of homogeneous polynomials on the unit sphere.

The package bounds the maximum of a homogeneous polynomial over the unit
sphere from both sides at every level of a converging relaxation
hierarchy: an upper bound from a structured semidefinite relaxation
solved by a built-in interior-point method, and a lower bound from an
explicitly constructed probability measure on the sphere whose moments
approximate the relaxation optimizer.  The gap between the two shrinks
at an explicit o(1) rate in the level.
"""

from .definetti import (BoundsReport, EpsBound, SphereMeasureDensity, climb,
                        definetti_eps, density_constant, lower_bound,
                        measure_density, reduced_state, solve_and_report)
from .multiindex import basis_catalog, sym_dimension
from .oracle import OracleResult, sphere_maximize
from .polymat import (HomoPoly, MaxSymMatrix, evaluate, gradient, homo_poly,
                      moment_table, multiply_r2, poly_to_vector,
                      sphere_moment_vector, vector_to_poly)
from .reduction import (ReductionRecord, canonicalize, gamma_factor,
                        lift_odd, pullback_bounds)
from .sdp import (DEFAULT_MAX_P, DEFAULT_MIN_COND_RATIO, ResourceGuardError,
                  SdpProblem, SdpSolution, SolverError,
                  STATUS_MAX_ITERATIONS, STATUS_NUMERICAL_FAILURE,
                  STATUS_OPTIMAL, build_relaxation, extract_sos_certificate,
                  solve_sdp, uniform_conditioning)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "DEFAULT_MAX_P", "DEFAULT_MIN_COND_RATIO", "EpsBound",
    "HomoPoly", "MaxSymMatrix", "OracleResult",
    "ReductionRecord", "ResourceGuardError", "SdpProblem", "SdpSolution",
    "SolverError", "SphereMeasureDensity", "STATUS_MAX_ITERATIONS",
    "STATUS_NUMERICAL_FAILURE", "STATUS_OPTIMAL",
    "basis_catalog", "build_relaxation", "canonicalize", "climb",
    "definetti_eps", "density_constant", "evaluate",
    "extract_sos_certificate", "gamma_factor", "gradient", "homo_poly",
    "lift_odd", "lower_bound",
    "measure_density", "moment_table",
    "multiply_r2", "poly_to_vector", "pullback_bounds",
    "reduced_state", "solve_and_report", "solve_sdp", "sphere_maximize",
    "sphere_moment_vector", "sym_dimension",
    "uniform_conditioning", "vector_to_poly",
]
