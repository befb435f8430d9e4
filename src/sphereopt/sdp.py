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
  Cholesky.  The structural basis matrices B_k partition the p x p entry
  grid (entry (i, j) belongs to class i + j alone), so row k of S is the
  class-wise projection of Y B_k Y.  Y B_k is gathered from weighted
  columns of Y, which leaves one dense product per class: q p^3 flops,
  streamed in cache-sized blocks of classes, bitwise equal to the
  product with the dense B_k;
* the trace constraint is kept as an explicit equality and eliminated
  through the Schur solve.

All arithmetic is deterministic: repeated solves of the same problem
produce bitwise-identical iterates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .harmonics import sphere_moment_vector
from .multiindex import sym_dimension
from .polymat import (HomoPoly, MaxSymMatrix, _pair_maps, multiply_r2,
                      poly_to_vector, vector_to_poly)

DEFAULT_MAX_P = 512
MAX_P_ENV = "SPHEREOPT_MAX_P"
DEFAULT_MIN_COND_RATIO = 5e-6
COND_RATIO_ENV = "SPHEREOPT_COND_RATIO"

# q x q float64 matrices one solve holds at its peak: the Schur matrix, its
# equilibrated copy and their Cholesky factor in _factor_schur, while
# solve_sdp still holds the previous iteration's factor.
SCHUR_COPIES = 4

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"


class SolverError(RuntimeError):
    """The interior-point method could not certify an optimum."""


class ResourceGuardError(RuntimeError):
    """A requested problem exceeds the configured size guard."""


def resolve_max_p(max_p=None):
    """Size guard: the argument, else ``SPHEREOPT_MAX_P``, else 512."""
    if max_p is not None:
        name, cap = "max_p", int(max_p)
    else:
        env = os.environ.get(MAX_P_ENV)
        if not env:
            return DEFAULT_MAX_P
        name = MAX_P_ENV
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{MAX_P_ENV} must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap}")
    return cap


def resolve_cond_ratio():
    """Conditioning floor: a finite ratio >= 0, where 0 means no floor."""
    env = os.environ.get(COND_RATIO_ENV)
    if not env:
        return DEFAULT_MIN_COND_RATIO
    try:
        ratio = float(env)
    except ValueError:
        raise ValueError(f"{COND_RATIO_ENV} must be a number, got {env!r}")
    if not 0.0 <= ratio < np.inf:
        raise ValueError(
            f"{COND_RATIO_ENV} must be a finite number >= 0, got {ratio!r}")
    return ratio


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
    tr M(y) = tau . y.
    """

    n: int
    a: int
    ell: int
    target: HomoPoly
    objective_poly: HomoPoly
    objective: np.ndarray
    tau: np.ndarray
    p: int
    q: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def moment_matrix(self, y):
        """M(y): the maximally symmetric matrix with vec coordinates y."""
        KK, WW, _ = _pair_maps(self.n, self.ell)
        return np.asarray(y)[KK] * WW

    def project(self, A):
        """Adjoint map: vector with entries tr(B_k A)."""
        KK, WW, _ = _pair_maps(self.n, self.ell)
        return np.bincount(KK.ravel(), weights=(WW * A).ravel(),
                           minlength=self.q)

    def pair_structure(self):
        """Entry classes sorted for the streamed Schur assembly.

        Returns (order, starts, rows, cols, weights): the stable ordering
        of flattened p x p entries by class, the q segment starts of that
        ordering, and the row, column and weight of every entry in that
        order.  Every class is nonempty (any multi-index of degree 2l
        splits into two of degree l).
        """
        got = self._cache.get("pairs")
        if got is None:
            KK, WW, _ = _pair_maps(self.n, self.ell)
            kflat = KK.ravel()
            order = np.argsort(kflat, kind="stable")
            starts = np.searchsorted(kflat[order], np.arange(self.q))
            rows, cols = np.divmod(order, self.p)
            got = (order, starts, rows, cols, WW.ravel()[order])
            self._cache["pairs"] = got
        return got

    def objective_matrix(self):
        """Encoded objective as a p x p matrix."""
        got = self._cache.get("objmat")
        if got is None:
            got = MaxSymMatrix(self.n, self.ell, self.objective).matrix
            self._cache["objmat"] = got
        return got

    def initial_primal(self):
        """Strictly feasible start: uniform sphere-measure moments."""
        return np.array(sphere_moment_vector(self.n, 2 * self.ell))

    def initial_dual(self):
        """Strictly feasible dual start (t0, Z0) with Zbar = 0.

        t0 sits above the top eigenvalue of the encoded objective, so
        Z0 = t0 I - Z is positive definite and satisfies the dual equality
        constraints exactly.
        """
        Zt = self.objective_matrix()
        eig = np.linalg.eigvalsh(Zt)
        spread = float(eig[-1] - eig[0])
        t0 = float(eig[-1]) + max(1.0, 0.1 * spread)
        return t0, t0 * np.eye(self.p) - Zt


def check_level(n, level, max_p=None):
    """Raise ResourceGuardError unless the level is affordable in n variables.

    The matrix side p = C(level + n - 1, level) must stay within the size
    guard (:func:`resolve_max_p`); the ``SCHUR_COPIES`` dense q x q
    matrices of the solve, q = C(2 level + n - 1, 2 level), must fit in
    physical memory; and the moment-body conditioning must stay above the
    floor where double precision still solves reliably
    (:func:`resolve_cond_ratio`; in practice n = 2 stops at level 20 and
    n = 3 at level 19, while for n >= 4 the size guard binds first).
    """
    cap = resolve_max_p(max_p)
    p = sym_dimension(n, level)
    if p > cap:
        raise ResourceGuardError(
            f"level {level} needs matrices of side {p}, above the guard "
            f"{cap}; raise {MAX_P_ENV} to override")
    q = sym_dimension(n, 2 * level)
    need = SCHUR_COPIES * 8 * q * q
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ResourceGuardError(
            f"level {level} needs {SCHUR_COPIES} matrices of side {q} for "
            f"its Schur solve ({need / 2**30:.1f} GiB), above the "
            f"{memory / 2**30:.1f} GiB of physical memory; choose a lower "
            f"level")
    floor = resolve_cond_ratio()
    ratio = uniform_conditioning(n, level)
    if ratio < floor:
        raise ResourceGuardError(
            f"level {level} has moment-body conditioning {ratio:.2e}, below "
            f"the floor {floor:.2e} for reliable double-precision solves; "
            f"lower {COND_RATIO_ENV} to force")


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
    objective_poly = multiply_r2(T, level - a)
    c = poly_to_vector(objective_poly)
    if not np.isfinite(c).all():
        raise ValueError(
            f"level {level} objective overflows a float once padded by "
            f"r^{2 * (level - a)}; scale the coefficients down")
    _, _, tau = _pair_maps(T.n, level)
    return SdpProblem(n=T.n, a=a, ell=level, target=T,
                      objective_poly=objective_poly, objective=c,
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
                + self.problem.objective_matrix())


def _is_pd(A):
    try:
        np.linalg.cholesky(A)
        return True
    except np.linalg.LinAlgError:
        return False


def _max_step(d, delta_hat):
    """Largest alpha with diag(d) + alpha * delta_hat still PSD."""
    sq = np.sqrt(d)
    scaled = delta_hat / sq[:, None] / sq[None, :]
    lo = float(np.linalg.eigvalsh(scaled)[0])
    if lo >= -1e-14:
        return np.inf
    return 1.0 / (-lo)


def _schur_matrix(problem, Y):
    """Dense Schur complement S[k, m] = tr(B_k Y B_m Y), streamed.

    Column j of B_k holds at most one nonzero, w_ij at the row i whose
    class i + j is k, so Y B_k is gathered as the columns w_ij Y[:, i]
    instead of multiplied out.  Each of those entries is a BLAS sum with a
    single nonzero term, which makes the gathered Y B_k bitwise equal to
    the dense product on any BLAS; the one dense product per class,
    (Y B_k) Y, the class-wise reduction of its weighted entries and the
    final symmetrization are those of the dense formulation, so S does not
    change in a single bit.  Classes stream in blocks of at most 2^16
    p x p entries (512 KB per buffer) to keep the working set in cache;
    the assembly costs q p^3 flops.
    """
    p, q = problem.p, problem.q
    order, starts, rows, cols, weights = problem.pair_structure()
    bounds = np.append(starts, p * p)
    counts = np.diff(bounds)
    block = max(1, min(q, 2**16 // (p * p)))
    S = np.empty((q, q))
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
    return (S + S.T) / 2.0


def _factor_schur(S):
    """Cholesky of the Schur matrix after symmetric equilibration.

    The Schur complement grows extremely ill conditioned near the optimum;
    scaling to unit diagonal plus a relative shift ladder keeps the
    factorization alive without distorting well conditioned directions.
    Returns a solver closure, or None when every shift fails.
    """
    dg = np.diag(S).copy()
    if not np.all(np.isfinite(dg)) or np.any(dg <= 0.0):
        return None
    scale = 1.0 / np.sqrt(dg)
    Se = S * scale[:, None] * scale[None, :]
    idx = np.diag_indices_from(Se)
    applied = 0.0
    for shift in (0.0, 1e-14, 1e-10, 1e-6):
        Se[idx] += shift - applied
        applied = shift
        try:
            cho = cho_factor(Se, lower=True)
        except np.linalg.LinAlgError:
            continue

        def solve(rhs, cho=cho, scale=scale):
            return scale * cho_solve(cho, scale * rhs)

        return solve
    return None


def check_solve_options(tol, max_iterations):
    """Raise ValueError unless :func:`solve_sdp` accepts these settings."""
    if not 1e-10 <= tol <= 1e-2:
        raise ValueError(f"tol must lie in [1e-10, 1e-2], got {tol!r}")
    if max_iterations < 1:
        raise ValueError("need a positive iteration budget, got "
                         f"{max_iterations}")


def solve_sdp(problem, tol=1e-8, max_iterations=100):
    """Solve the relaxation to the requested duality-gap tolerance.

    Stops when tr(X Z) <= tol * max(1, |objective|) with feasibility
    residuals at roundoff; statuses are "optimal", "max_iterations" (budget
    exhausted, last iterate returned) and "numerical_failure" (factorization
    or step-length breakdown, last iterate returned).  Reruns on identical
    input produce bitwise-identical output.
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

    status = STATUS_MAX_ITERATIONS
    iterations = 0
    eye_p = np.eye(p)
    gamma = 0.99

    for _ in range(max_iterations):
        obj = float(c @ y)
        gap_xz = float(np.sum(X * Z))
        rp = float(tau @ y - 1.0)
        rd = problem.project(Z) - t * tau + c
        rd_norm = float(np.abs(rd).max())
        if (gap_xz <= tol * max(1.0, abs(obj))
                and abs(rp) <= 1e-8 and rd_norm <= 1e-7 * c_scale):
            status = STATUS_OPTIMAL
            break

        iterations += 1
        try:
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL_FAILURE
            break

        # Nesterov-Todd scaling: with R'L = U diag(d) V', the matrix
        # H = diag(d)^{1/2} V' L^{-1} maps X and inverse(Z) to diag(d);
        # the scaled primal and dual variables share the spectrum d.
        _, d, Vt = np.linalg.svd(Lz.T @ Lx)
        Linv = solve_triangular(Lx, eye_p, lower=True)
        H = np.sqrt(d)[:, None] * (Vt @ Linv)
        Y = H.T @ H

        solve_schur = _factor_schur(_schur_matrix(problem, Y))
        if solve_schur is None:
            status = STATUS_NUMERICAL_FAILURE
            break

        sinv_tau = solve_schur(tau)
        denom = float(tau @ sinv_tau)

        def newton(ehat):
            rhs = problem.project(H.T @ ehat @ H) + rd
            u = solve_schur(rhs)
            dt = (float(tau @ u) + rp) / denom
            dy = u - dt * sinv_tau
            return dy, dt

        def directions(ehat):
            # The congruences with the ill-conditioned H leave
            # roundoff-scale asymmetry that the triangle-reading
            # factorizations would never see; symmetrize explicitly.
            dy, dt = newton(ehat)
            dxh = H @ problem.moment_matrix(dy) @ H.T
            dxh = (dxh + dxh.T) / 2.0
            dzh = ehat - dxh
            dZ = H.T @ dzh @ H
            dZ = (dZ + dZ.T) / 2.0
            return dy, dt, dxh, dzh, dZ

        def attempt(ehat):
            # Accept the longest positive-definite fractions of the step,
            # shrinking the primal and dual sides independently: near the
            # optimum the dual direction picks up congruence roundoff that
            # kills definiteness at any length while the primal side is
            # still fine, and vice versa.  Candidates are re-projected onto
            # their equality constraints first (the structural basis is
            # orthonormal, so subtracting the embedded dual residual
            # restores A*(Z) = t tau - c exactly); a side that cannot move
            # at all is frozen.  Returns the new iterate or None.
            dy, dt, dxh, dzh, dZ = directions(ehat)
            ap = min(1.0, gamma * _max_step(d, dxh))
            ad = min(1.0, gamma * _max_step(d, dzh))
            got_x = got_z = None
            for _shrink in range(60):
                if got_x is None:
                    yc = y + ap * dy
                    yc -= ((float(tau @ yc) - 1.0) / tau_nsq) * tau
                    Xc = problem.moment_matrix(yc)
                    if _is_pd(Xc):
                        got_x = (yc, Xc, ap)
                    elif ap < 1e-7:
                        got_x = (y, X, 0.0)
                    else:
                        ap *= 0.7
                if got_z is None:
                    tc = t + ad * dt
                    Zc = Z + ad * dZ
                    rdc = problem.project(Zc) - tc * tau + c
                    Zc = Zc - problem.moment_matrix(rdc)
                    if _is_pd(Zc):
                        got_z = (tc, Zc, ad)
                    elif ad < 1e-7:
                        got_z = (t, Z, 0.0)
                    else:
                        ad *= 0.7
                if got_x is not None and got_z is not None:
                    if got_x[2] == 0.0 and got_z[2] == 0.0:
                        return None
                    return got_x[0], got_x[1], got_z[1], got_z[0]
            return None

        # Predictor: aim at complementarity zero.
        e_aff = -np.diag(d)
        _, _, dxh_a, dzh_a, _ = directions(e_aff)
        ap_a = min(1.0, _max_step(d, dxh_a))
        ad_a = min(1.0, _max_step(d, dzh_a))

        mu = gap_xz / p
        D = np.diag(d)
        mu_aff = float(np.sum((D + ap_a * dxh_a) * (D + ad_a * dzh_a))) / p
        sigma = min(max(mu_aff / mu, 0.0) ** 3, 0.999)

        # Corrector: recenter and take out the second-order cross term.
        cross = 0.5 * (dxh_a @ dzh_a + dzh_a @ dxh_a)
        resid = sigma * mu * eye_p - np.diag(d * d) - cross
        accepted = attempt(2.0 * resid / (d[:, None] + d[None, :]))
        if accepted is None:
            # Pure centering step as a rescue before giving up.
            resid = mu * eye_p - np.diag(d * d)
            accepted = attempt(2.0 * resid / (d[:, None] + d[None, :]))
        if accepted is None:
            status = STATUS_NUMERICAL_FAILURE
            break
        y, X, Z, t = accepted

    obj = float(c @ y)
    rp = float(tau @ y - 1.0)
    rd = problem.project(Z) - t * tau + c
    return SdpSolution(problem=problem, status=status, nu_ell=obj,
                       t_star=float(t),
                       M_star=MaxSymMatrix(problem.n, problem.ell, y.copy()),
                       Z_star=Z, duality_gap=abs(float(t) - obj),
                       iterations=iterations, tol=tol,
                       primal_residual=abs(rp),
                       dual_residual=float(np.abs(rd).max()))


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
