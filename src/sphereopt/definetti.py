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

These bounds are the theorem behind the a priori ``eps`` of each report:
:func:`definetti_eps` returns the F1 bound 4 a^2 (a + n/2 - 1) / (2l + n)
and whether l meets its hypothesis.  The package computes no distance
itself.

Averaging the objective itself against rho_M gives a certified lower
bound on its sphere maximum that complements the relaxation's upper
bound; :func:`solve_and_report` computes the pair.  By Funk-Hecke the
average scales harmonic layer j of the objective by lambda(n, l, j) /
lambda(n, l, 0); the single-system trace, the adjoint of padding by r^2,
scales each layer by a known constant, so :func:`lower_bound` is a
positive-weighted sum along the trace chains of the objective and of M.

The package's best answer is :func:`climb`: it solves the base level,
reads candidate maximizers off the optimal state, and stops once the best
one's value is within the solver's gap rule of the upper bound; else it
solves deeper levels up to its top, :func:`choose_level`.  Its report
raises the lower bound to that value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .oracle import polish
from .polymat import MaxSymMatrix, _trace_gather, evaluate, poly_to_vector
from .reduction import pullback_bounds, pullback_points
from .sdp import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOL, ResourceGuardError,
                  STATUS_OPTIMAL, build_relaxation, check_level, gap_closed,
                  solve_sdp)


def density_constant(n, level):
    """Normalizer c = prod_{i<level} (n + 2i) / (2 level - 1)!! of rho_M,
    one division of exact integers, so correctly rounded."""
    if n < 2 or level < 0:
        raise ValueError("need n >= 2, level >= 0")
    return (math.prod(range(n, n + 2 * level, 2))
            / math.prod(range(1, 2 * level, 2)))


class EpsBound(NamedTuple):
    value: float
    valid: bool


def definetti_eps(a, level, n):
    """Relative-error constant eps(a, level, n) = 4a^2 (a + n/2 - 1) / (2l + n).

    ``valid`` reports whether level >= 2 a^2 (a + n/2 - 1) - n/2, the
    hypothesis under which the two-sided sandwich carries the eps guarantee.
    """
    if a < 1 or level < 1 or n < 2:
        raise ValueError("need a >= 1, level >= 1, n >= 2")
    value = 4.0 * a * a * (a + n / 2.0 - 1.0) / (2 * level + n)
    valid = level >= 2.0 * a * a * (a + n / 2.0 - 1.0) - n / 2.0
    return EpsBound(value=value, valid=valid)


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


def measure_density(M):
    """Probability density induced by a maximally symmetric state.

    Validates unit trace, and positive semidefiniteness up to 1e-6 of the
    top eigenvalue, since a more indefinite state gives a signed density.
    """
    tr = M.trace()
    if abs(tr - 1.0) > 1e-8 * max(1.0, abs(tr)):
        raise ValueError(f"state must have unit trace, got {tr!r}")
    eig = np.linalg.eigvalsh(M.matrix)
    if eig[0] < -1e-6 * max(float(eig[-1]), 1e-300):
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
    ``nu_lower``, in the solved variables.  The last four fields are None
    except in a report of :func:`climb`.
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
    density_lower: float | None = None
    maximizer: list | None = None
    window_closed: bool | None = None
    levels_solved: list | None = None


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
    density = measure_density(solution.M_star)
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


def choose_level(n, a, max_p):
    """Top of the climb: the deepest level from a up that
    :func:`sphereopt.sdp.check_level` accepts; raises ResourceGuardError
    when even the base level a is out of reach."""
    check_level(n, a, max_p)
    level = a
    while True:
        try:
            check_level(n, level + 1, max_p)
        except ResourceGuardError:
            return level
        level += 1


def _best_point(record, M, upper, tol):
    """(value, point): the best original-sphere point an optimal state gives.

    The candidates are the eigenvectors of the level-1 reduction of M
    (:func:`candidate_points`), valued with the original polynomial; they
    are polished by tangent ascent only when none of them closes the
    window under ``upper``.
    """
    T = record.original
    X = pullback_points(record, candidate_points(M))
    values = evaluate(T, X)
    if not gap_closed(upper - values.max(), upper, tol):
        X, values = polish(T, X)
    k = int(np.argmax(values))
    return float(values[k]), [float(v) for v in X[k]]


def _next_level(level, top):
    """Double while a further doubling stays within top, then jump to top.

    Solve time grows about as level^6 at n = 3, so the levels below the top
    cost little beside it: from 2 to 19 the climb is 2, 4, 8, 19, by that
    model 1.006 solves at 19 (plain doubling, 2, 4, 8, 16, 19, is 1.36).
    """
    return 2 * level if 4 * level <= top else top


def climb(record, problem, tol=DEFAULT_TOL,
          max_iterations=DEFAULT_MAX_ITERATIONS):
    """Solve from ``problem`` up to the top until a point closes the window.

    ``problem`` must be built on ``record.solve_target`` (see
    :func:`sphereopt.reduction.canonicalize`), else ValueError before any
    solve; deeper levels keep its guard ``problem.max_p``.  After each optimal
    solve, the best point read off the state gives the lower bound T(point);
    the climb stops once it is within the solver's gap rule of the upper bound,
    at a solve that is not optimal, at the top (computed only then; the guards
    only tighten with the level, so it is never below the start), or at a level
    that cannot be built.  Returns the last level's (report, solution) in the
    original variables, or, after a solve that is not optimal, those of the
    optimal level with the least upper bound.
    """
    if problem.target != record.solve_target:
        raise ValueError("the problem must be built on record.solve_target")
    levels, value, point, top, best = [], -math.inf, None, None, None
    while True:
        report, solution = solve_and_report(problem, tol=tol,
                                            max_iterations=max_iterations)
        report = pullback_bounds(record, report)
        levels.append(problem.ell)
        if solution.status != STATUS_OPTIMAL:
            if best is not None:
                report, solution = best
            break
        if best is None or report.nu_upper < best[0].nu_upper:
            best = report, solution
        found = _best_point(record, solution.M_star, report.nu_upper, tol)
        if found[0] > value:
            value, point = found
        if gap_closed(report.nu_upper - value, report.nu_upper, tol):
            break
        if top is None:
            top = choose_level(problem.n, problem.a, problem.max_p)
        if problem.ell == top:
            break
        try:
            problem = build_relaxation(record.solve_target,
                                       _next_level(problem.ell, top),
                                       max_p=problem.max_p)
        except (ResourceGuardError, ValueError):
            break
    closed = best is not None and gap_closed(report.nu_upper - value,
                                             report.nu_upper, tol)
    # the point bound raises nu_lower; the density bound keeps its own field
    report = dataclasses.replace(
        report, nu_lower=max(report.nu_lower, value),
        density_lower=report.nu_lower, maximizer=point, window_closed=closed,
        levels_solved=levels)
    return report, solution
