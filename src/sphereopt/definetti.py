"""Explicit measures on the sphere extracted from relaxation optimizers.

A maximally symmetric state M at level l (positive semidefinite, unit
trace) induces a genuine probability density on the unit sphere,

    rho_M(x) = c * Q_M(x),    c = prod_{i<l} (n + 2i) / (2l - 1)!!,

where Q_M is the degree-2l polynomial carried by M (nonnegative on the
sphere since M >= 0) and integration is against the rotation-invariant
probability measure.  The normalization is exact: the average of
|x><x|^{(x)l} is the average of x_1^{2l}, which is 1/c, times the identity
on the symmetric subspace, so c * integral(Q_M) = c tr(M) / c = 1 for
every maximally symmetric state.

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

These bounds are the theorem behind the a priori ``eps`` of each report
(:func:`sphereopt.harmonics.definetti_eps`); the package computes no
distance itself.

Averaging the objective itself against rho_M gives a certified lower
bound on its sphere maximum that complements the relaxation's upper
bound; :func:`solve_and_report` computes the pair.  By Funk-Hecke the
average scales harmonic layer j of the objective by lambda(n, l, j) /
lambda(n, l, 0); the single-system trace, the adjoint of padding by r^2,
scales each layer by a known constant, so :func:`lower_bound` is a
positive-weighted sum along the trace chains of the objective and of M.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .harmonics import definetti_eps
from .polymat import MaxSymMatrix, _trace_gather, evaluate, poly_to_vector
from .sdp import DEFAULT_MAX_ITERATIONS, DEFAULT_TOL, solve_sdp


def density_constant(n, level):
    """Normalizer c = prod_{i<level} (n + 2i) / (2 level - 1)!! of rho_M,
    one division of exact integers, so correctly rounded."""
    if n < 2 or level < 0:
        raise ValueError("need n >= 2, level >= 0")
    return (math.prod(range(n, n + 2 * level, 2))
            / math.prod(range(1, 2 * level, 2)))


@dataclass(frozen=True, eq=False)
class SphereMeasureDensity:
    """Probability density rho_M = c Q_M on the unit sphere.

    ``poly`` is the density as a polynomial, built on first use.
    """

    state: MaxSymMatrix
    constant: float

    @property
    def n(self):
        return self.state.n

    @property
    def level(self):
        return self.state.ell

    @cached_property
    def poly(self):
        return self.state.to_poly().scaled(self.constant)

    def __call__(self, x):
        return evaluate(self.poly, x)


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
    return SphereMeasureDensity(state=M,
                                constant=density_constant(M.n, M.ell))


def _trace_step(vec, n, level):
    """Single-system trace of level-``level`` coordinates (adjoint of r^2)."""
    idx, w, norm = _trace_gather(n, level)
    out = vec[idx[0]] * w[0]
    for t in range(1, n):
        out += vec[idx[t]] * w[t]
    return out / norm


def reduced_state(M, a):
    """Physical reduction of a level-l state to level a <= l: l - a
    single-system traces, each a gather on the coordinates; the trace and
    positive semidefiniteness of M are kept."""
    if not 1 <= a <= M.ell:
        raise ValueError("reduction level must lie in [1, ell]")
    vec = M.vec
    for level in range(M.ell, a, -1):
        vec = _trace_step(vec, M.n, level)
    return M if a == M.ell else MaxSymMatrix(M.n, a, vec)


def candidate_points(M):
    """Unit eigenvectors of the level-1 reduction of a state, as rows.

    The level-1 reduction is the second-moment matrix of the state.  When
    an optimal state is the moment matrix of a measure on k antipodal pairs
    of maximizers (rank k), those maximizers span its range; for k = 1 the
    top eigenvector is a maximizer itself (Henrion & Lasserre, "Detecting
    global optimality and extracting solutions in GloptiPoly", 2005).
    Rows come top eigenvalue first.
    """
    _, V = np.linalg.eigh(reduced_state(M, 1).matrix)
    return V[:, ::-1].T


def _chain_weights(n, a, level):
    """beta_0, ..., beta_a of :func:`lower_bound`; positive for a <= level."""
    beta = [math.prod((level - i) / (level + n / 2 + i) for i in range(a))]
    for k in range(1, a + 1):
        beta.append(beta[-1] * (a - k + 1) * (2 * a - 2 * k + 1)
                    / (2 * k * (level - a + k)))
    return beta


def lower_bound(T, density):
    """Average of T against a probability density on the sphere.

    A certified lower bound on the sphere maximum of T, since the average
    of T under any probability measure on the sphere cannot exceed it.
    With t_{a-k} and m_{a-k} the coordinates of T (degree 2a) and of the
    level-a reduction of M traced k times, the average against rho_M at
    level l >= a is, by the layer scalings of the module docstring,

        sum_{k=0..a} beta_k <t_{a-k}, m_{a-k}>,
        beta_0 = prod_{i<a} (l - i) / (l + n/2 + i),
        beta_k = beta_{k-1} (a - k + 1)(2a - 2k + 1) / (2 k (l - a + k)).

    The chain runs on t scaled by the power of two 2^-e that puts max |t|
    in [1/2, 1), and the sum is scaled back by 2^e: exact wherever neither
    side over- or underflows, and near the top of the float range no
    partial sum overflows on the way.
    """
    if T.degree % 2 != 0 or T.degree < 2:
        raise ValueError("need an even-degree objective")
    n, a, level = T.n, T.degree // 2, density.level
    # reduced_state refuses a > level
    t, m = poly_to_vector(T), reduced_state(density.state, a).vec
    _, e = math.frexp(float(np.abs(t).max()))
    t = np.ldexp(t, -e)
    beta = _chain_weights(n, a, level)
    total = beta[0] * float(t @ m)
    for k in range(1, a + 1):
        t, m = (_trace_step(v, n, a - k + 1) for v in (t, m))
        total += beta[k] * float(t @ m)
    return float(np.ldexp(total, e))


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided certificate for the sphere maximum of one polynomial.

    The true maximum nu satisfies nu_lower <= nu <= nu_upper: nu_upper is
    the dual value of the relaxation, an upper bound on the relaxation
    value (hence on nu) whenever the dual iterate is feasible, which the
    solver maintains throughout; nu_lower is the average of the objective
    under the explicitly constructed measure.  ``eps`` is
    the a priori relative-error bound for this level (meaningful only when
    ``eps_valid``).  ``density`` is the measure that certifies
    ``nu_lower``, in the solved variables.
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
    density: SphereMeasureDensity | None = dataclasses.field(
        default=None, compare=False, repr=False)


def solve_and_report(problem, tol=DEFAULT_TOL,
                     max_iterations=DEFAULT_MAX_ITERATIONS):
    """Solve a built relaxation and certify two-sided bounds.

    ``problem`` comes from :func:`sphereopt.sdp.build_relaxation`.  The
    upper bound is the solver's dual value; the lower bound is
    :func:`lower_bound` against the density of the optimizing state.
    Returns (report, solution); the solution carries the optimizing state
    and the dual slack for certificate extraction.
    """
    solution = solve_sdp(problem, tol=tol, max_iterations=max_iterations)
    T, level = problem.target, problem.ell
    # Interior-point iterates stay strictly feasible, so the optimizer is
    # a valid state even when the solve stops early.
    density = measure_density(solution.M_star, psd_tol=1e-6)
    eps = definetti_eps(problem.a, level, T.n)
    report = BoundsReport(n=T.n, degree=T.degree, level=level,
                          nu_upper=solution.t_star,
                          nu_lower=lower_bound(T, density),
                          eps=eps.value, eps_valid=eps.valid,
                          duality_gap=solution.duality_gap,
                          status=solution.status,
                          iterations=solution.iterations, tol=tol,
                          density=density)
    return report, solution
