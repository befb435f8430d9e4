"""Moment relaxation on the sphere and a dense interior-point solver.

For a homogeneous objective T of even degree 2a and a level l >= a, the
relaxation optimizes over matrices on Sym((R^n)^{(x)l}) that are maximally
symmetric, positive semidefinite and of unit trace:

    nu_l = max  tr(Z M(y))
           s.t. M(y) >= 0,  tr(M(y)) = 1,

where y runs over R^q, q = C(2l + n - 1, 2l), M(y) is the maximally
symmetric matrix with vectorization coordinates y (so the symmetry
constraint is structural, not enforced), and Z encodes T r^{2(l - a)}.
Every unit vector x on the sphere yields the feasible point
M = |x><x|^{(x)l} with objective value T(x), whence nu_l upper-bounds the
true maximum; levels are nested, so nu_{l+1} <= nu_l.

The dual is

    min t   s.t.  t I - Z + Zbar >= 0,  Zbar orthogonal to the maximally
                  symmetric subspace,

with no duality gap.  The dual slack at optimality is an explicit
sum-of-squares certificate for t - T on the sphere
(:func:`extract_sos_certificate`).

The solver is a feasible-start primal-dual path-following method with
Nesterov-Todd scaling and a Mehrotra predictor-corrector, specialized to
this problem class:

* primal start: y0 = moment vector of the uniform sphere measure, which is
  strictly feasible (the uniform moment matrix is positive definite);
* dual start: t0 just above the top eigenvalue of Z, Zbar = 0, which is
  strictly feasible by construction;
* each iteration factors the q x q Schur complement
  S[k, m] = tr(B_k Y B_m Y), Y the inverse scaling point, with a dense
  Cholesky (LAPACK ``dpotrf``, solved with ``dpotrs``; the inverse
  triangular factor of the NT scaling comes from ``dtrtrs``), called
  from scipy's LAPACK extension with the arguments the ``scipy.linalg``
  wrappers pass, so the bits are theirs without the per-call cost of the
  wrappers.  The structural basis matrices B_k partition the p x p entry
  grid (entry (i, j) belongs to class i + j alone), so row k of S is the
  class-wise projection of Y B_k Y.  Y B_k is gathered from weighted
  columns of Y, which leaves one dense product per class: q p^3 flops,
  streamed in cache-sized blocks of classes, bitwise equal to the
  product with the dense B_k;
* a solve holds one q x q array: S is assembled, symmetrized,
  equilibrated and factored in place in a single workspace, with the
  bits of the out-of-place expressions;
* the trace constraint is kept as an explicit equality and eliminated
  through the Schur solve.

All arithmetic is deterministic: repeated solves of the same problem
produce bitwise-identical iterates.

The three LAPACK routines are the very objects ``scipy.linalg.lapack``
exports, bound from scipy's compiled module ``scipy.linalg._flapack``.
Importing ``scipy.linalg`` itself would cost most of a CLI call's start-up
(its array-API layer imports ``numpy.f2py`` and ``numpy.testing``), so
:func:`_lapack_routines` imports only the top-level ``scipy`` package,
which checks the numpy version and sets up scipy's bundled libraries, and
loads the extension file from ``scipy/linalg`` under its canonical name.
A later ``import scipy.linalg`` finds that module in ``sys.modules`` and
exports the same routines.  Where the file is not found or does not load
(an editable or zipped scipy, say), the routines come from the public
``scipy.linalg.lapack``; either way they are the same compiled code.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec

import numpy as np

from .harmonics import sphere_moment_vector
from .multiindex import sym_dimension
from .polymat import (HomoPoly, MaxSymMatrix, _pair_maps, _schur_layout,
                      multiply_r2, poly_to_vector, vector_to_poly)

FLAPACK = "scipy.linalg._flapack"


def _lapack_routines():
    """``dpotrf``, ``dpotrs`` and ``dtrtrs`` of scipy's LAPACK extension."""
    flapack = sys.modules.get(FLAPACK)
    if flapack is None:
        flapack = _load_flapack()
    return flapack.dpotrf, flapack.dpotrs, flapack.dtrtrs


def _load_flapack():
    """Load ``scipy.linalg._flapack`` without running scipy/linalg/__init__.

    Falls back to the public ``scipy.linalg.lapack`` when the extension
    file is missing or does not load.
    """
    import scipy
    for base in scipy.__path__:
        finder = FileFinder(os.path.join(base, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(FLAPACK)
        if spec is None:
            continue
        try:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            break
        return sys.modules.setdefault(FLAPACK, module)
    from scipy.linalg import lapack
    return lapack


dpotrf, dpotrs, dtrtrs = _lapack_routines()

DEFAULT_MAX_P = 512
DEFAULT_MIN_COND_RATIO = 5e-6
DEFAULT_MAX_ITERATIONS = 120
DEFAULT_TOL = 1e-8

# The largest share of physical memory a solve's q x q Schur workspace may
# take: the rest is left for the assembly blocks, Python, numpy and other
# processes.
SCHUR_MEMORY_FRACTION = 0.5

# Entries per band of rows the in-place passes over the q x q workspace
# copy out at a time (512 KB).
BAND_ENTRIES = 2**16

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"


class SolverError(RuntimeError):
    """The interior-point method could not certify an optimum."""


class ResourceGuardError(RuntimeError):
    """A requested problem exceeds the configured size guard."""


def resolve_max_p(max_p=None):
    """Size guard: ``max_p`` (``--max-p``), or ``DEFAULT_MAX_P`` if None."""
    if max_p is None:
        return DEFAULT_MAX_P
    cap = int(max_p)
    if cap < 1:
        raise ValueError(f"max_p (--max-p) must be at least 1, got {cap}")
    return cap


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not tell."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    if pages <= 0 or page <= 0:
        return None
    return pages * page


def uniform_conditioning(n, level):
    """Eigenvalue ratio lambda_min / lambda_max of the uniform moment matrix.

    The uniform sphere measure gives the best conditioned feasible moment
    matrix, and its thin directions are structural: top-degree oscillating
    polynomials have tiny quadratic mean on the sphere but unit-scale
    coordinates, so every feasible matrix is at least as thin there.

    The ratio has a closed form.  The matrix int |x><x|^{(x)level} dx is
    O(n)-invariant, so its eigenspaces are the harmonic layers r^{level-j}
    H_j, j = level, level - 2, ... >= 0.  By Funk-Hecke it scales layer j by
    a constant times int t^level P_j(t) (1 - t^2)^{(n-3)/2} dt, which
    decreases in j.  The ratio of the top layer j = level to the bottom one
    j = level mod 2 is

        Gamma(floor(level/2) + 1) Gamma((level + n + level mod 2) / 2)
            / Gamma(level + n/2),

    evaluated through log-Gamma.  It decays like 2^{-level}, which puts a
    hard depth limit on what a double-precision interior-point method can
    solve.
    """
    if n < 2 or level < 0:
        raise ValueError("need n >= 2 and level >= 0")
    return math.exp(math.lgamma(level // 2 + 1)
                    + math.lgamma((level + n + level % 2) / 2.0)
                    - math.lgamma(level + n / 2.0))


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Data of one level-l relaxation.

    ``objective`` holds the number-state coordinates c of the encoded
    objective, so that tr(Z M(y)) = c . y; ``tau`` satisfies
    tr M(y) = tau . y.  What depends on (n, l) alone, the class maps
    (``polymat._pair_maps``) and their class-sorted layout for the Schur
    assembly (``polymat._schur_layout``), is cached per shape and shared
    by every problem of that shape.
    """

    n: int
    a: int
    ell: int
    target: HomoPoly
    objective: np.ndarray
    tau: np.ndarray
    p: int
    q: int

    def moment_matrix(self, y):
        """M(y): the maximally symmetric matrix with vec coordinates y."""
        KK, WW, _ = _pair_maps(self.n, self.ell)
        return np.asarray(y)[KK] * WW

    def project(self, A):
        """Adjoint map: vector with entries tr(B_k A)."""
        KK, WW, _ = _pair_maps(self.n, self.ell)
        return np.bincount(KK.ravel(), weights=(WW * A).ravel(),
                           minlength=self.q)

    @cached_property
    def objective_matrix(self):
        """Encoded objective as a p x p matrix."""
        return MaxSymMatrix(self.n, self.ell, self.objective).matrix

    def initial_primal(self):
        """Strictly feasible start: uniform sphere-measure moments."""
        return np.array(sphere_moment_vector(self.n, 2 * self.ell))

    def initial_dual(self):
        """Strictly feasible dual start (t0, Z0) with Zbar = 0.

        t0 sits above the top eigenvalue of the encoded objective, so
        Z0 = t0 I - Z is positive definite and satisfies the dual equality
        constraints exactly.
        """
        Zt = self.objective_matrix
        eig = np.linalg.eigvalsh(Zt)
        spread = float(eig[-1] - eig[0])
        t0 = float(eig[-1]) + max(1.0, 0.1 * spread)
        return t0, t0 * np.eye(self.p) - Zt


def check_level(n, level, max_p=None):
    """Raise ResourceGuardError unless the level is affordable in n variables.

    The matrix side p = C(level + n - 1, level) must stay within the size
    guard ``max_p`` (:func:`resolve_max_p`, default ``DEFAULT_MAX_P``); the
    solve's dense q x q Schur workspace, q = C(2 level + n - 1, 2 level),
    must fit in ``SCHUR_MEMORY_FRACTION`` (half) of physical memory; and
    the moment-body conditioning must stay above ``DEFAULT_MIN_COND_RATIO``,
    the floor where double precision still solves reliably (in practice
    n = 2 stops at level 20 and n = 3 at level 19, while for n >= 4 the
    size guard binds first).  The result depends on (n, level, max_p) and
    the machine's physical memory alone.
    """
    cap = resolve_max_p(max_p)
    p = sym_dimension(n, level)
    if p > cap:
        raise ResourceGuardError(
            f"level {level} needs matrices of side {p}, above the guard "
            f"{cap}; raise max_p (--max-p) to override")
    q = sym_dimension(n, 2 * level)
    need = 8 * q * q
    memory = _physical_memory()
    if memory is not None and need > SCHUR_MEMORY_FRACTION * memory:
        raise ResourceGuardError(
            f"level {level} needs a Schur workspace of side {q} "
            f"({need / 2**30:.1f} GiB), above {SCHUR_MEMORY_FRACTION:.0%} of "
            f"the {memory / 2**30:.1f} GiB of physical memory; choose a "
            f"lower level")
    ratio = uniform_conditioning(n, level)
    if ratio < DEFAULT_MIN_COND_RATIO:
        raise ResourceGuardError(
            f"level {level} has moment-body conditioning {ratio:.2e}, below "
            f"the floor {DEFAULT_MIN_COND_RATIO:.2e} for reliable "
            f"double-precision solves")


def build_relaxation(T, level, max_p=None):
    """Assemble the level-``level`` relaxation for a homogeneous objective.

    Requires n >= 2, even degree 2a >= 2, a nonzero objective and
    level >= a.  Raises ResourceGuardError when :func:`check_level`
    refuses the level, and ValueError when the objective padded by
    r^{2(level - a)} overflows a float.
    """
    if T.n < 2:
        raise ValueError("sphere optimization needs at least two variables")
    if T.is_zero():
        raise ValueError("objective polynomial is identically zero")
    if T.degree % 2 != 0 or T.degree < 2:
        raise ValueError("objective degree must be even and at least two")
    a = T.degree // 2
    level = int(level)
    if level < a:
        raise ValueError(f"level must be at least {a} for degree {T.degree}")
    check_level(T.n, level, max_p)
    c = poly_to_vector(multiply_r2(T, level - a))
    if not np.isfinite(c).all():
        raise ValueError(
            f"level {level} objective overflows a float once padded by "
            f"r^{2 * (level - a)}; scale the coefficients down")
    _, _, tau = _pair_maps(T.n, level)
    return SdpProblem(n=T.n, a=a, ell=level, target=T, objective=c,
                      tau=np.array(tau), p=sym_dimension(T.n, level),
                      q=sym_dimension(T.n, 2 * level))


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Outcome of one interior-point solve.

    ``nu_ell`` is the primal objective at the final iterate, ``t_star`` the
    dual objective; their difference bounds the distance to the true
    optimum.  ``M_star`` is the primal optimizer (a maximally symmetric
    state), ``Z_star`` the dual slack matrix t I - Z + Zbar >= 0.
    """

    problem: SdpProblem
    status: str
    nu_ell: float
    t_star: float
    M_star: MaxSymMatrix
    Z_star: np.ndarray
    duality_gap: float
    iterations: int
    tol: float
    primal_residual: float
    dual_residual: float

    @property
    def Zbar_star(self):
        """Dual correction, orthogonal to the maximally symmetric subspace."""
        return (self.Z_star - self.t_star * np.eye(self.problem.p)
                + self.problem.objective_matrix)


def _cholesky(A):
    """Lower Cholesky factor of A, or None when A is not positive definite."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None


def _max_steps(d, dxh, dzh):
    """Largest alphas with diag(d) + alpha * dxh, and with dzh, still PSD.

    One stacked eigvalsh call: the gufunc runs LAPACK on each matrix as a
    call on that matrix alone would.
    """
    sq = np.sqrt(d)
    scaled = np.array((dxh, dzh)) / sq[:, None] / sq[None, :]
    lo = np.linalg.eigvalsh(scaled)[:, 0].tolist()
    return tuple(np.inf if v >= -1e-14 else 1.0 / (-v) for v in lo)


def _schur_matrix(problem, Y, out=None):
    """Dense Schur complement S[k, m] = tr(B_k Y B_m Y), streamed.

    Column j of B_k holds at most one nonzero, w_ij at the row i whose
    class i + j is k, so Y B_k is gathered as the columns w_ij Y[:, i]
    instead of multiplied out.  Each of those entries is a BLAS sum with a
    single nonzero term, which makes the gathered Y B_k bitwise equal to
    the dense product on any BLAS; the one dense product per class,
    (Y B_k) Y, the class-wise reduction of its weighted entries and the
    final symmetrization are those of the dense formulation, so S does not
    change in a single bit.  Classes stream in blocks of at most
    ``BAND_ENTRIES`` p x p entries to keep the working set in cache; the
    assembly costs q p^3 flops.  The class-sorted entries, their segment
    bounds and counts come from ``polymat._schur_layout``, built once per
    (n, level).  S is written into ``out`` (a C-contiguous q x q array)
    when given, else into a new array, and symmetrized there.
    """
    p, q = problem.p, problem.q
    order, bounds, counts, rows, cols, weights = _schur_layout(problem.n,
                                                               problem.ell)
    starts = bounds[:-1]
    block = max(1, min(q, BAND_ENTRIES // (p * p)))
    S = np.empty((q, q)) if out is None else out
    for k0 in range(0, q, block):
        k1 = min(k0 + block, q)
        nc = k1 - k0
        lo, hi = bounds[k0], bounds[k1]
        YB = np.zeros((nc, p, p))
        local = np.repeat(np.arange(nc), counts[k0:k1])
        YB[local, :, cols[lo:hi]] = Y.T[rows[lo:hi]] * weights[lo:hi, None]
        G = np.matmul(YB, Y).reshape(nc, p * p).take(order, axis=1)
        G *= weights
        S[k0:k1, :] = np.add.reduceat(G, starts, axis=1)
    _symmetrize(S)
    return S


def _bands(q):
    """Row bands [i0, i1) of a q x q array, about ``BAND_ENTRIES`` each."""
    band = max(1, BAND_ENTRIES // q)
    return [(i0, min(i0 + band, q)) for i0 in range(0, q, band)]


def _symmetrize(S):
    """S <- (S + S.T) / 2 in place, one band of rows at a time.

    Band [i0, i1) averages the entries (i, j), j < i1, with their mirror
    images; later bands read none of the entries it writes.  The sum
    commutes, so both mirror entries get the bits of ``(S + S.T) / 2``.
    """
    for i0, i1 in _bands(len(S)):
        T = S[i0:i1, :i1] + S[:i1, i0:i1].T
        T /= 2.0
        S[i0:i1, :i1] = T
        S[:i1, i0:i1] = T.T


def _equilibrate(S, scale, diagonal):
    """Write the equilibrated matrix over the upper triangle of S.

    Entry (j, i), j < i, becomes (S[i, j] scale_i) scale_j, read from the
    strict lower triangle, which keeps the unscaled matrix; the diagonal
    becomes ``diagonal``.  Over i >= j these are the bits of
    ``S * scale[:, None] * scale``, and the upper triangle of S is the
    lower triangle of the Fortran-ordered ``S.T``.
    """
    for i0, i1 in _bands(len(S)):
        T = S[i0:i1, :i1] * scale[i0:i1, None]
        T *= scale[:i1]
        S[:i0, i0:i1] = T[:, :i0].T
        np.copyto(S[i0:i1, i0:i1], T[:, i0:i1].T,
                  where=~np.tri(i1 - i0, dtype=bool))
    np.einsum("ii->i", S)[:] = diagonal


def _factor_schur(S):
    """Cholesky of the Schur matrix after symmetric equilibration, in place.

    The Schur complement grows extremely ill conditioned near the optimum;
    scaling to unit diagonal plus a relative shift ladder keeps the
    factorization alive without distorting well conditioned directions.  S
    (C-contiguous, symmetric; only its lower triangle and diagonal are
    read) is overwritten: its strict lower triangle keeps the unscaled
    matrix, while the equilibrated matrix and then its factor take the
    upper triangle, which is the lower triangle of the Fortran-ordered
    ``S.T``.  The factor is LAPACK ``dpotrf`` on ``S.T`` (lower, other
    triangle left as is, no copy) and each solve ``dpotrs`` on it: the
    calls ``cho_factor`` and ``cho_solve`` make on the equilibrated matrix,
    with its bits.  Their finiteness checks stay, as explicit ones on the
    equilibrated matrix, the factor and each right-hand side, since
    ``dpotrf`` only tests its pivots and a NaN passes that test.  A nonzero
    ``dpotrf`` info steps the shift ladder: the equilibrated triangle is
    rebuilt from the kept one, and the saved diagonal takes the ladder's
    cumulative shifts in their order.  Returns a solver closure, or None
    when every shift fails; a non-finite array raises ValueError.
    """
    dg = S.diagonal().copy()
    if not np.isfinite(dg).all() or (dg <= 0.0).any():
        return None
    scale = 1.0 / np.sqrt(dg)
    diagonal = dg * scale
    diagonal *= scale
    _equilibrate(S, scale, diagonal)
    # a non-finite entry of the kept triangle scales to a non-finite one,
    # so this checks the equilibrated matrix
    _check_finite(S)
    applied = 0.0
    for shift in (0.0, 1e-14, 1e-10, 1e-6):
        if shift != applied:
            # rebuild what the failed dpotrf overwrote, shifted
            diagonal += shift - applied
            applied = shift
            _equilibrate(S, scale, diagonal)
        factor, info = dpotrf(S.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            continue
        _check_finite(factor)

        def solve(rhs, factor=factor, scale=scale):
            b = scale * rhs
            _check_finite(b)
            return scale * dpotrs(factor, b, lower=1)[0]

        return solve
    return None


def _check_finite(a):
    """The finiteness check of the scipy.linalg wrappers, same message."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def check_solve_options(tol, max_iterations):
    """Raise ValueError unless :func:`solve_sdp` accepts these settings."""
    if not 1e-10 <= tol <= 1e-2:
        raise ValueError(f"tol must lie in [1e-10, 1e-2], got {tol!r}")
    if max_iterations < 1:
        raise ValueError("need a positive iteration budget, got "
                         f"{max_iterations}")


def _backtrack(candidate, alpha, current):
    """Try fractions alpha, 0.7 alpha, 0.7^2 alpha, ... of one side's step.

    ``candidate(alpha)`` returns that side's iterate, its last entry a
    Cholesky factor or None.  Returns the first iterate with a factor and
    its fraction, or ``current`` and 0.0 once a fraction below 1e-7 fails:
    from alpha <= 1, at the 47th trial at the latest.
    """
    while True:
        got = candidate(alpha)
        if got[-1] is not None:
            return got, alpha
        if alpha < 1e-7:
            return current, 0.0
        alpha *= 0.7


def gap_closed(gap, value, tol):
    """The solver's gap rule: gap <= tol * max(1, |value|)."""
    return gap <= tol * max(1.0, abs(value))


def solve_sdp(problem, tol=DEFAULT_TOL, max_iterations=DEFAULT_MAX_ITERATIONS):
    """Solve the relaxation to the requested duality-gap tolerance.

    Stops when tr(X Z) and the objective pass :func:`gap_closed`, with
    feasibility residuals at roundoff.  Each side of a step, primal and
    dual, starts at 0.99 of its longest feasible fraction (at most 1) and
    shrinks by 0.7 until its candidate has a Cholesky factor; below 1e-7
    it freezes.  If both sides of the corrector freeze, a pure centering
    step is tried.  Statuses are "optimal", "max_iterations" (budget
    exhausted) and "numerical_failure" (both sides of the centering step
    froze too, or the Schur matrix has no factor); each returns the last
    iterate.  Reruns on identical input produce bitwise-identical output.
    """
    check_solve_options(tol, max_iterations)
    p = problem.p
    c = problem.objective
    tau = problem.tau
    tau_nsq = float(tau @ tau)
    c_scale = max(1.0, float(np.abs(c).max()))

    y = problem.initial_primal()
    X = problem.moment_matrix(y)
    t, Z = problem.initial_dual()
    # each iterate carries its factors: the step search factors X and Z
    # to accept them, and the next iteration scales with those factors
    Lx, Lz = _cholesky(X), _cholesky(Z)

    iterations = 0
    eye_p = np.eye(p)
    # the Schur workspace: each iteration assembles, then factors S in it
    W = np.empty((problem.q, problem.q))

    while True:
        obj = float(c @ y)
        rp = float(tau @ y - 1.0)
        rd = problem.project(Z) - t * tau + c
        rd_norm = float(np.abs(rd).max())
        if iterations == max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        gap_xz = float(np.sum(X * Z))
        if (gap_closed(gap_xz, obj, tol)
                and abs(rp) <= 1e-8 and rd_norm <= 1e-7 * c_scale):
            status = STATUS_OPTIMAL
            break

        iterations += 1
        if Lx is None or Lz is None:
            status = STATUS_NUMERICAL_FAILURE
            break

        # Nesterov-Todd scaling: with R'L = U diag(d) V', the matrix
        # H = diag(d)^{1/2} V' L^{-1} maps X and inverse(Z) to diag(d);
        # the scaled primal and dual variables share the spectrum d.
        _, d, Vt = np.linalg.svd(Lz.T @ Lx)
        # Lx^{-1} by the dtrtrs call solve_triangular(Lx, I, lower=True)
        # makes for a C-contiguous Lx: the transposed upper system.  Its
        # finiteness check is the SVD's, which refuses a NaN or an inf.
        Linv, info = dtrtrs(Lx.T, eye_p, lower=0, trans=1)
        if info != 0:
            status = STATUS_NUMERICAL_FAILURE
            break
        H = np.sqrt(d)[:, None] * (Vt @ Linv)
        Y = H.T @ H

        solve_schur = _factor_schur(_schur_matrix(problem, Y, W))
        if solve_schur is None:
            status = STATUS_NUMERICAL_FAILURE
            break

        sinv_tau = solve_schur(tau)
        denom = float(tau @ sinv_tau)

        def directions(ehat):
            # The Newton step for the scaled target ehat.  The congruences
            # with the ill-conditioned H, here and for dZ in attempt, leave
            # roundoff-scale asymmetry that the triangle-reading
            # factorizations would never see; symmetrize explicitly.  The
            # predictor needs no dZ.
            u = solve_schur(problem.project(H.T @ ehat @ H) + rd)
            dt = (float(tau @ u) + rp) / denom
            dy = u - dt * sinv_tau
            dxh = H @ problem.moment_matrix(dy) @ H.T
            dxh = (dxh + dxh.T) / 2.0
            return dy, dt, dxh, ehat - dxh

        def attempt(resid):
            # The step rule of the docstring, for the target resid.  Near
            # the optimum one side's direction can pick up congruence
            # roundoff that kills definiteness at any length while the
            # other's is still fine, hence the separate searches.
            # Candidates are re-projected onto their equality constraints
            # (the structural basis is orthonormal, so subtracting the
            # embedded dual residual restores A*(Z) = t tau - c exactly).
            # Returns the new iterate, each side with its factor, or None.
            dy, dt, dxh, dzh = directions(
                2.0 * resid / (d[:, None] + d[None, :]))
            dZ = H.T @ dzh @ H
            dZ = (dZ + dZ.T) / 2.0
            ap, ad = (min(1.0, 0.99 * a) for a in _max_steps(d, dxh, dzh))

            def primal(alpha):
                yc = y + alpha * dy
                yc -= ((float(tau @ yc) - 1.0) / tau_nsq) * tau
                Xc = problem.moment_matrix(yc)
                return yc, Xc, _cholesky(Xc)

            def dual(alpha):
                tc = t + alpha * dt
                Zc = Z + alpha * dZ
                rdc = problem.project(Zc) - tc * tau + c
                Zc = Zc - problem.moment_matrix(rdc)
                return tc, Zc, _cholesky(Zc)

            got_x, ap = _backtrack(primal, ap, (y, X, Lx))
            got_z, ad = _backtrack(dual, ad, (t, Z, Lz))
            return None if ap == ad == 0.0 else got_x + got_z

        # Predictor: aim at complementarity zero.
        _, _, dxh_a, dzh_a = directions(-np.diag(d))
        ap_a, ad_a = (min(1.0, a) for a in _max_steps(d, dxh_a, dzh_a))

        mu = gap_xz / p
        D = np.diag(d)
        mu_aff = float(np.sum((D + ap_a * dxh_a) * (D + ad_a * dzh_a))) / p
        sigma = min(max(mu_aff / mu, 0.0) ** 3, 0.999)

        # Corrector: recenter and take out the second-order cross term;
        # a pure centering step is the rescue.
        cross = 0.5 * (dxh_a @ dzh_a + dzh_a @ dxh_a)
        accepted = (attempt(sigma * mu * eye_p - np.diag(d * d) - cross)
                    or attempt(mu * eye_p - np.diag(d * d)))
        if accepted is None:
            status = STATUS_NUMERICAL_FAILURE
            break
        y, X, Lx, t, Z, Lz = accepted

    return SdpSolution(problem=problem, status=status, nu_ell=obj,
                       t_star=float(t),
                       M_star=MaxSymMatrix(problem.n, problem.ell, y.copy()),
                       Z_star=Z, duality_gap=abs(float(t) - obj),
                       iterations=iterations, tol=tol,
                       primal_residual=abs(rp), dual_residual=rd_norm)


def extract_sos_certificate(solution):
    """Sum-of-squares certificate from the dual slack at optimality.

    Returns weight/polynomial pairs (lam_i, T_i), lam_i > 0 and T_i
    homogeneous of degree l, such that on the unit sphere

        t_star - T(x) = sum_i lam_i T_i(x)^2     (up to solver tolerance).

    Eigenvalues of the dual slack below max(tol, 1e-9) * ||slack||_max are
    clipped.  Requires an optimal solve.
    """
    if solution.status != STATUS_OPTIMAL:
        raise SolverError("certificate extraction needs an optimal solve")
    prob = solution.problem
    Zs = np.asarray(solution.Z_star)
    Zs = (Zs + Zs.T) / 2.0
    scale = float(np.abs(Zs).max())
    thr = max(solution.tol, 1e-9) * max(scale, 1e-300)
    w, V = np.linalg.eigh(Zs)
    out = []
    for idx in range(len(w) - 1, -1, -1):
        if w[idx] <= thr:
            break
        out.append((float(w[idx]),
                    vector_to_poly(prob.n, prob.ell, V[:, idx])))
    return out
