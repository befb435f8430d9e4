"""Explicit measures on the sphere extracted from relaxation optimizers.

A maximally symmetric state M at level l (positive semidefinite, unit
trace) induces a genuine probability density on the unit sphere,

    rho_M(x) = c * Q_M(x),    c = omega_n / (omega_{n-1} lambda(n, l, 0)),

where Q_M is the degree-2l polynomial carried by M (nonnegative on the
sphere since M >= 0) and integration is against the rotation-invariant
probability measure.  The normalization is exact: c * integral(Q_M) = 1
for every maximally symmetric state.

Averaging projectors |x><x|^{(x)a} against rho_M yields a true moment
matrix at level a whose distance to the physical reduction of M (trace
out l - a factors) shrinks like a^3 / l.  Quantitatively, with
g(j) = j((j + n)/2 - 1) / (2l + n):

* pairing against any single harmonic layer of degree j is off by at most
  a factor g(j),
* trace-norm distance is at most sum of g over even j <= 2a, itself at
  most 2 a^2 (a + n/2 - 1) / (2l + n),
* the polynomial-pairing (F1) distance is at most twice that, which is
  meaningful once l >= 2 a^2 (a + n/2 - 1) - n/2.

Averaging the objective itself against rho_M gives a certified lower
bound on its sphere maximum that complements the relaxation's upper
bound; :func:`sandwich_report` packages the pair.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .harmonics import (definetti_eps, harmonic_decompose, integrate_poly,
                        lambda_coeff, moment_table, sphere_moment_vector,
                        surface_area)
from .multiindex import basis_catalog, catalog_rank, sym_dimension
from .oracle import _restart_rng, sphere_maximize
from .polymat import (HomoPoly, MaxSymMatrix, _vec_scale, evaluate,
                      partial_trace_sym, poly_to_vector, vector_to_poly)
from .sdp import build_relaxation, solve_sdp


def density_constant(n, level):
    """Normalizer c with c * integral(Q_M) = 1 for every state M."""
    return surface_area(n) / (surface_area(n - 1) * lambda_coeff(n, level, 0))


@dataclass(frozen=True, eq=False)
class SphereMeasureDensity:
    """Probability density rho_M = c Q_M on the unit sphere."""

    n: int
    level: int
    state: MaxSymMatrix
    poly: HomoPoly
    constant: float

    def __call__(self, x):
        return evaluate(self.poly, x)

    def mass(self):
        """Exact total integral; equals one up to roundoff."""
        return integrate_poly(self.poly)


def measure_density(M, psd_tol=1e-7):
    """Probability density induced by a maximally symmetric state.

    Validates unit trace and positive semidefiniteness up to ``psd_tol``
    (relative to the top eigenvalue), since a slightly indefinite input
    would produce a signed density rather than a measure.
    """
    tr = M.trace()
    if abs(tr - 1.0) > 1e-8 * max(1.0, abs(tr)):
        raise ValueError(f"state must have unit trace, got {tr!r}")
    eig = np.linalg.eigvalsh(M.matrix)
    if eig[0] < -psd_tol * max(float(eig[-1]), 1e-300):
        raise ValueError("state must be positive semidefinite, "
                         f"lowest eigenvalue {eig[0]:.3e}")
    c = density_constant(M.n, M.ell)
    return SphereMeasureDensity(n=M.n, level=M.ell, state=M,
                                poly=M.to_poly().scaled(c), constant=c)


@lru_cache(maxsize=None)
def _sum_index_map(n, d1, d2):
    """Positions in catalog(n, d1 + d2) of every exponent sum, (m1, m2)."""
    out = catalog_rank(basis_catalog(n, d1).expmat[:, None, :],
                       basis_catalog(n, d2).expmat[None, :, :])
    out.setflags(write=False)
    return out


def _dense_coeffs(T):
    cat = basis_catalog(T.n, T.degree)
    v = np.zeros(len(cat))
    for mi, a in T.coeffs.items():
        v[cat.position[mi]] = a
    return v


def _weighted_moment_vector(n, degree, parts):
    """Vector of sqrt(degree!/k!) * integral(x^k * sum(parts)) over k."""
    cat = basis_catalog(n, degree)
    v = np.zeros(len(cat))
    for g in parts:
        if g.is_zero():
            continue
        S = _sum_index_map(n, degree, g.degree)
        mom = moment_table(n, degree + g.degree)
        v += mom[S] @ _dense_coeffs(g)
    return _vec_scale(n, degree) * v


def moment_matrix_of_density(density, a):
    """Level-a moment matrix of the measure: averages of |x><x|^{(x)a}.

    The result is a true moment matrix (positive semidefinite, unit trace
    up to roundoff) for any probability density, computed by exact
    polynomial integration.
    """
    if a < 1:
        raise ValueError("moment matrix level must be positive")
    vec = _weighted_moment_vector(density.n, 2 * a, [density.poly])
    return MaxSymMatrix(density.n, a, vec)


def reduced_state(M, a):
    """Physical reduction of a level-l state to level a <= l."""
    if not 1 <= a <= M.ell:
        raise ValueError("reduction level must lie in [1, ell]")
    if a == M.ell:
        return M
    return partial_trace_sym(M, M.ell - a)


def build_approx_moment_matrix(M, a, psd_tol=1e-7):
    """Moment matrix of the measure induced by the state M, at level a."""
    if not 1 <= a <= M.ell:
        raise ValueError("approximation level must lie in [1, ell]")
    return moment_matrix_of_density(measure_density(M, psd_tol), a)


def lower_bound(T, M, psd_tol=1e-7):
    """Average of T against the measure induced by M.

    A certified lower bound on the sphere maximum of T, since the average
    of T under any probability measure on the sphere cannot exceed it.
    """
    if T.degree % 2 != 0 or T.degree < 2:
        raise ValueError("need an even-degree objective")
    a = T.degree // 2
    approx = build_approx_moment_matrix(M, a, psd_tol)
    return float(poly_to_vector(T) @ approx.vec)


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided certificate for the sphere maximum of one polynomial.

    The true maximum nu satisfies nu_lower <= nu <= nu_upper: nu_upper is
    the dual value of the relaxation, an upper bound on the relaxation
    value (hence on nu) whenever the dual iterate is feasible, which the
    solver maintains throughout; nu_lower is the average of the objective
    under the explicitly constructed measure.  ``eps`` is
    the a priori relative-error bound for this level (meaningful only when
    ``eps_valid``); ``oracle_value`` is an optional heuristic search value
    for comparison and is not part of the certificate.  ``density`` is the
    measure that certifies ``nu_lower``, in the solved variables.
    """

    n: int
    degree: int
    level: int
    nu_upper: float
    nu_lower: float
    eps: float
    eps_valid: bool
    duality_gap: float
    status: str
    iterations: int
    tol: float
    oracle_value: float | None = None
    density: SphereMeasureDensity | None = dataclasses.field(
        default=None, compare=False, repr=False)

    @property
    def width(self):
        return self.nu_upper - self.nu_lower

    def with_oracle(self, value):
        return dataclasses.replace(self, oracle_value=float(value))


def solve_and_report(T, level, tol=1e-8, max_iterations=100, max_p=None):
    """Solve one relaxation level and certify two-sided bounds.

    Returns (report, solution); the solution carries the optimizing state
    and the dual slack for certificate extraction.
    """
    problem = build_relaxation(T, level, max_p=max_p)
    solution = solve_sdp(problem, tol=tol, max_iterations=max_iterations)
    a = problem.a
    # Interior-point iterates stay strictly feasible, so the optimizer is
    # a valid state even when the solve stops early.
    density = measure_density(solution.M_star, psd_tol=1e-6)
    nu_tilde = float(poly_to_vector(T)
                     @ moment_matrix_of_density(density, a).vec)
    eps = definetti_eps(a, level, T.n)
    report = BoundsReport(n=T.n, degree=T.degree, level=level,
                          nu_upper=solution.t_star, nu_lower=nu_tilde,
                          eps=eps.value, eps_valid=eps.valid,
                          duality_gap=solution.duality_gap,
                          status=solution.status,
                          iterations=solution.iterations, tol=tol,
                          density=density)
    return report, solution


def sandwich_report(T, level, tol=1e-8, max_iterations=100, max_p=None):
    """Two-sided bounds for max T on the sphere at one relaxation level."""
    report, _ = solve_and_report(T, level, tol=tol,
                                 max_iterations=max_iterations, max_p=max_p)
    return report


def trace_distance(A, B):
    """Half the sum of absolute eigenvalues of the difference."""
    Am = A.matrix if isinstance(A, MaxSymMatrix) else np.asarray(A)
    Bm = B.matrix if isinstance(B, MaxSymMatrix) else np.asarray(B)
    if Am.shape != Bm.shape:
        raise ValueError("shape mismatch")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(Am - Bm)).sum())


class TraceCheck(NamedTuple):
    distance: float
    bound: float
    satisfied: bool


def definetti_trace_check(M, a, psd_tol=1e-7):
    """Compare reduction and measure reconstruction in trace norm.

    The distance between the physical reduction of M to level a and the
    moment matrix of the induced measure is bounded by
    2 a^2 (a + n/2 - 1) / (2 ell + n); needs a < ell.
    """
    if not 1 <= a < M.ell:
        raise ValueError("need 1 <= a < ell")
    dist = trace_distance(reduced_state(M, a),
                          build_approx_moment_matrix(M, a, psd_tol))
    bound = 2.0 * a * a * (a + M.n / 2.0 - 1.0) / (2 * M.ell + M.n)
    return TraceCheck(distance=dist, bound=bound,
                      satisfied=dist <= bound * (1 + 1e-9))


def f1_distance_lower_estimate(M, a, trials=16, seed=0, restarts=8,
                               psd_tol=1e-7):
    """Estimate from below the polynomial-pairing distance at level a.

    Samples random level-a test polynomials F, pairs them against the
    difference between the reduction of M and the measure reconstruction,
    and normalizes by the sphere maximum of |F| found by local search.
    Deterministic for fixed (seed, trials); enlarging ``trials`` never
    changes earlier samples.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    diff = (reduced_state(M, a).vec
            - build_approx_moment_matrix(M, a, psd_tol).vec)
    cat = basis_catalog(M.n, 2 * a)
    best = 0.0
    for r in range(trials):
        rng = _restart_rng(seed, r)
        w = rng.standard_normal(len(cat))
        F = vector_to_poly(M.n, 2 * a, w)
        hi = sphere_maximize(F, restarts=restarts, seed=seed).value
        lo = sphere_maximize(-F, restarts=restarts, seed=seed).value
        sup = max(abs(hi), abs(lo))
        if sup <= 0.0:
            continue
        best = max(best, abs(float(w @ diff)) / sup)
    return best


def p_from_q_coefficients(M):
    """Signed density with the exact moment matrix M, by harmonic layer.

    Returns a dict mapping even harmonic degree j to a harmonic polynomial
    h_j; the function P(x) = sum_j h_j(x) on the sphere satisfies
    M = integral of P(x) |x><x|^{(x)ell} dx exactly.  P is obtained from
    the polynomial of M by scaling each harmonic layer with the inverse of
    its averaging attenuation, so it may be negative at intermediate
    levels of the hierarchy even though the polynomial of M is not.
    """
    decomp = harmonic_decompose(M.to_poly())
    unit = surface_area(M.n) / surface_area(M.n - 1)
    out = {}
    for j, h in decomp.parts.items():
        if h.is_zero():
            continue
        out[j] = h.scaled(unit / lambda_coeff(M.n, M.ell, j))
    return out


def state_from_harmonic_density(n, level, parts):
    """Moment matrix of a signed density given as harmonic layers.

    Inverse of :func:`p_from_q_coefficients`: integrating
    |x><x|^{(x)level} against sum_j parts[j] recovers the original
    maximally symmetric matrix.
    """
    polys = []
    for j, h in parts.items():
        if h.degree != j:
            raise ValueError("layer key must match polynomial degree")
        polys.append(h)
    vec = _weighted_moment_vector(n, 2 * level, polys)
    return MaxSymMatrix(n, level, vec)


def product_state_vec(x, level):
    """Coordinates of the rank-one state |x><x|^{(x)level}, unit |x|."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    cat = basis_catalog(n, 2 * level)
    mono = np.prod(x[None, :] ** cat.expmat, axis=1)
    return _vec_scale(n, 2 * level) * mono


def random_product_mixture(n, level, components=4, seed=0):
    """Random finite mixture of rank-one states; always a valid state."""
    if components < 1:
        raise ValueError("need at least one component")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6d69]))
    weights = rng.dirichlet(np.ones(components))
    vec = np.zeros(len(basis_catalog(n, 2 * level)))
    for w in weights:
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        vec += w * product_state_vec(x, level)
    return MaxSymMatrix(n, level, vec)


def random_msym_state(n, level, seed=0, clip_rounds=3):
    """Random positive semidefinite structural state of unit trace.

    Projects a random Wishart matrix onto the structural subspace, then
    alternates a few eigenvalue clips with re-projections; whatever
    negativity survives is removed by mixing in just enough of the
    uniform-measure state (whose smallest eigenvalue is comfortably
    positive).  Unlike :func:`random_product_mixture` the result is not
    constrained to the mixtures of rank-one states.  Deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4d53]))
    p = sym_dimension(n, level)
    R = rng.standard_normal((p, p))
    state = MaxSymMatrix.from_matrix(n, level, R @ R.T)
    state = MaxSymMatrix(n, level, state.vec / state.trace())
    for _ in range(clip_rounds):
        w, V = np.linalg.eigh(state.matrix)
        if w[0] >= 0.0:
            break
        clipped = (V * np.clip(w, 0.0, None)) @ V.T
        state = MaxSymMatrix.from_matrix(n, level, clipped)
        state = MaxSymMatrix(n, level, state.vec / state.trace())
    low = float(np.linalg.eigvalsh(state.matrix)[0])
    if low < 0.0:
        uniform = np.asarray(sphere_moment_vector(n, 2 * level))
        low_u = float(np.linalg.eigvalsh(
            MaxSymMatrix(n, level, uniform).matrix)[0])
        s = -low * 1.02 / (low_u - low)
        state = MaxSymMatrix(n, level, (1.0 - s) * state.vec + s * uniform)
    return state
