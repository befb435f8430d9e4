"""Reference constructions that check the package from outside it.

The package holds the bound pipeline: relax at level l, solve, average the
objective against the de Finetti density.  The code below exists only to
verify that pipeline against the theorems behind it, so it lives next to
the tests instead of shipping with the package:

* brute-force product-space constructions (explicit number states and the
  explicit symmetrizer), guarded to small sizes;
* polynomial identities: the Laplacian and its partial-trace route, powers
  of r^2, the matrix encoding of a polynomial;
* spherical-harmonic analysis: harmonic dimensions, Gegenbauer
  polynomials, kernel-coefficient ratios and their gap bounds, monomial
  moments, the harmonic decomposition and the Funk-Hecke identity;
* Monte-Carlo sphere integration;
* the sequential local search that the lock-step oracle replaced;
* de Finetti checks: trace distances, the trace-norm and polynomial-pairing
  distances between a reduction and its measure reconstruction, the signed
  density with an exact moment matrix, and random states;
* the dense eigenvalue ratio of the uniform moment matrix, against which
  the closed form of :func:`sphereopt.sdp.uniform_conditioning` is tested.

Pytest's default import mode puts this directory on ``sys.path``, so test
modules import it as ``from reference import ...``.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sphereopt.definetti import (_sum_index_map, measure_density,
                                 moment_matrix_of_density, reduced_state)
from sphereopt.harmonics import (_moment_cached, lambda_coeff, moment_table,
                                 sphere_moment_vector, surface_area)
from sphereopt.multiindex import basis_catalog, exponent_tuple, sym_dimension
from sphereopt.oracle import OracleResult, _restart_rng, sphere_maximize
from sphereopt.polymat import (HomoPoly, MaxSymMatrix, _catalog_coeffs,
                               _vec_scale, evaluate, gradient, homo_poly,
                               multiply_r2,
                               partial_trace_matrix, poly_to_vector,
                               vector_to_poly)


# Number states and the symmetrizer in the n^l product space.

# Storage guard for the dense product-space constructions: n^l entries per
# vector, (n^l)^2 per matrix.
DENSE_PRODUCT_CAP = 10_000


def _log_binom(a, b):
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def number_state_overlap(i, j, k):
    """<i (x) j | k> for number states with |i| = |j| = l and |k| = 2l.

    Zero unless i + j = k componentwise; otherwise
    sqrt(prod_t C(k_t, i_t) / C(2l, l)), evaluated in log space so that the
    binomials never overflow.  For fixed k the overlaps over all (i, j)
    splits form a unit vector.
    """
    i = exponent_tuple(i)
    level = sum(i)
    j = exponent_tuple(j, len(i), level)
    k = exponent_tuple(k, len(i), 2 * level)
    if any(it + jt != kt for it, jt, kt in zip(i, j, k)):
        return 0.0
    log = -_log_binom(2 * level, level)
    for it, kt in zip(i, k):
        log += _log_binom(kt, it)
    return math.exp(0.5 * log)


def _check_dense_size(n, level):
    size = n ** level
    if size > DENSE_PRODUCT_CAP:
        raise ValueError(
            f"dense product space has {size} dimensions, exceeding the "
            f"guard of {DENSE_PRODUCT_CAP}; dense constructions are "
            "test oracles for small instances only")
    return size


def dense_number_state(mi):
    """Explicit |mi> as a vector in the n^l product space (test oracle).

    Basis order of (R^n)^{(x)l} is lexicographic in the factor labels, most
    significant factor first.
    """
    mi = exponent_tuple(mi)
    n = len(mi)
    level = sum(mi)
    size = _check_dense_size(n, level)
    factorial = math.prod(map(math.factorial, mi))
    coeff = math.exp(0.5 * (math.log(factorial) - math.lgamma(level + 1))) \
        if level > 0 else 1.0
    vec = np.zeros(size)
    for pos, word in enumerate(itertools.product(range(n), repeat=level)):
        counts = [0] * n
        for w in word:
            counts[w] += 1
        if tuple(counts) == mi:
            vec[pos] = coeff
    return vec


def dense_symmetrizer(n, level):
    """Explicit symmetrizer (1/l!) sum_pi P_pi on (R^n)^{(x)l} (test oracle).

    Cost grows like l! * n^l, so callers should stay well inside the size
    guard.
    """
    size = _check_dense_size(n, level)
    if level == 0:
        return np.ones((1, 1))
    words = np.array(list(itertools.product(range(n), repeat=level)),
                     dtype=np.int64)
    powers = n ** np.arange(level - 1, -1, -1, dtype=np.int64)
    out = np.zeros((size, size))
    cols = np.arange(size)
    for perm in itertools.permutations(range(level)):
        dest = words[:, perm] @ powers
        out[dest, cols] += 1.0
    out /= math.factorial(level)
    return out


# Polynomial identities and the matrix encoding.

def r2k_poly(n, k):
    """(x_1^2 + ... + x_n^2)^k as a HomoPoly of degree 2k."""
    one = homo_poly(n, 0, {(0,) * n: 1.0})
    return multiply_r2(one, k)


def poly_to_maxsym_matrix(T):
    """Maximally symmetric matrix encoding of an even-degree polynomial."""
    if T.degree % 2 != 0:
        raise ValueError("matrix encoding needs an even-degree polynomial")
    return MaxSymMatrix(n=T.n, ell=T.degree // 2, vec=poly_to_vector(T))


def laplacian(T):
    """sum_t d^2 T / dx_t^2, degree drops by two."""
    if T.degree < 2:
        raise ValueError("Laplacian needs degree at least two")
    out = {}
    for mi, a in T.coeffs.items():
        for t, e in enumerate(mi):
            if e >= 2:
                key = mi[:t] + (e - 2,) + mi[t + 1:]
                s = out.get(key, 0.0) + a * e * (e - 1)
                if s == 0.0:
                    out.pop(key, None)
                else:
                    out[key] = s
    return HomoPoly(T.n, T.degree - 2, out)


def laplacian_via_trace_check(T, tol=1e-10):
    """Diagnostic: the trace route reproduces the Laplacian.

    Compares the encoding of the Laplacian of T against d (d - 1) times the
    single-system partial trace of the encoding of T, where d = deg T.
    Returns True when the two matrices agree entrywise to ``tol`` relative
    to their scale.
    """
    d = T.degree
    if d < 2 or d % 2 != 0:
        raise ValueError("check needs even degree >= 2")
    Z = poly_to_maxsym_matrix(T)
    traced = d * (d - 1) * partial_trace_matrix(Z.matrix, T.n, d // 2)
    lhs = poly_to_maxsym_matrix(laplacian(T)).matrix
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(traced).max()))
    return bool(np.abs(lhs - traced).max() <= tol * scale)


# Spherical harmonics.

def harmonic_count(j, n):
    """Dimension of the degree-j spherical-harmonic space on S^{n-1}."""
    if j < 0 or n < 2:
        raise ValueError("need j >= 0 and n >= 2")
    second = math.comb(n + j - 3, j - 2) if j >= 2 else 0
    return math.comb(n + j - 1, j) - second


def gegenbauer_eval(j, n, t):
    """P_j(n; t), the degree-j Gegenbauer polynomial with P_j(1) = 1.

    For n = 3 these are the Legendre polynomials; for n = 2 the recurrence
    degenerates to the Chebyshev polynomials of the first kind.  Accepts a
    scalar or an array of abscissas in [-1, 1].
    """
    if j < 0 or n < 2:
        raise ValueError("need j >= 0 and n >= 2")
    tt = np.asarray(t, dtype=float)
    if np.any(np.abs(tt) > 1.0 + 1e-12):
        raise ValueError("abscissa outside [-1, 1]")
    prev = np.ones_like(tt)
    if j == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = tt.copy()
    for m in range(1, j):
        prev, cur = cur, ((2 * m + n - 2) * tt * cur - m * prev) / (m + n - 2)
    return float(cur) if cur.ndim == 0 else cur


def lambda_ratio(n, level, j):
    """lambda(n, level, j) / lambda(n, level, 0) for even j <= 2*level.

    Equals Gamma(l+1) Gamma(l+n/2) / (Gamma(l+1-j/2) Gamma(l+(n+j)/2)); lies
    in (0, 1] and decreases in j, so its reciprocal increases in j.
    """
    if n < 2 or level < 0:
        raise ValueError("need n >= 2 and level >= 0")
    if j % 2 != 0 or not 0 <= j <= 2 * level:
        raise ValueError("ratio defined for even 0 <= j <= 2*level")
    log = (math.lgamma(level + 1) + math.lgamma(level + n / 2.0)
           - math.lgamma(level + 1 - j / 2.0)
           - math.lgamma(level + (n + j) / 2.0))
    return math.exp(log)


def ratio_gap_bounds(n, level, j):
    """Bounds (g, 2g) with g = j ((j + n)/2 - 1) / (2*level + n):

        1 - lambda_ratio(n, level, j) <= g
        1/lambda_ratio(n, level, j) - 1 <= 2g   (informative only when <= 1).

    The first bound is tight at j = 2.
    """
    if j % 2 != 0 or not 2 <= j <= 2 * level:
        raise ValueError("bounds defined for even 2 <= j <= 2*level")
    g = j * ((j + n) / 2.0 - 1.0) / (2 * level + n)
    return g, 2.0 * g


def sphere_monomial_moment(exponents):
    """Exact moment of x^exponents against the normalized surface measure."""
    exps = exponent_tuple(exponents)
    if not exps:
        raise ValueError("need at least one variable")
    return _moment_cached(len(exps), exps)


@dataclass(frozen=True, eq=False)
class HarmonicDecomposition:
    """Layers of T = sum_j h_j r^{d-j}, keyed by harmonic degree j.

    Every stored h_j is harmonic (vanishing Laplacian) and homogeneous of
    degree j; levels step down from d in twos.  Zero layers may be omitted.
    """

    n: int
    degree: int
    parts: dict

    def reconstruct(self):
        out = HomoPoly(self.n, self.degree, {})
        for j, h in self.parts.items():
            out = out + multiply_r2(h, (self.degree - j) // 2)
        return out


def harmonic_decompose(T):
    """Decompose a homogeneous polynomial into harmonic layers.

    Uses the identity Lap(r^{2k} h_j) = 2k (2k + n - 2 + 2j) r^{2k-2} h_j to
    solve the triangular system produced by iterating the Laplacian: the
    deepest layer is read off from Lap^K T, then the remaining layers by
    back-substitution.
    """
    n, d = T.n, T.degree
    K = d // 2
    lap_powers = [T]
    for _ in range(K):
        lap_powers.append(laplacian(lap_powers[-1]))

    def coef(k, m):
        # Lap^m applied to r^{2k} h_{d-2k} contributes this scalar times
        # r^{2(k-m)} h_{d-2k}.
        j = d - 2 * k
        out = 1.0
        for s in range(m):
            u = k - s
            out *= 2.0 * u * (2.0 * u + n - 2 + 2 * j)
        return out

    parts = {}
    for m in range(K, -1, -1):
        residual = lap_powers[m]
        for k in range(m + 1, K + 1):
            j = d - 2 * k
            if j in parts:
                residual = residual - multiply_r2(parts[j], k - m).scaled(coef(k, m))
        h = residual.scaled(1.0 / coef(m, m))
        scale = T.max_abs_coeff()
        h = HomoPoly(n, d - 2 * m,
                     {mi: a for mi, a in h.coeffs.items()
                      if abs(a) > 1e-14 * max(1.0, scale)})
        if not h.is_zero():
            parts[d - 2 * m] = h
    return HarmonicDecomposition(n=n, degree=d, parts=parts)


def funk_hecke_residual(f, level, y):
    """|LHS - RHS| of the Funk-Hecke identity for a harmonic polynomial f.

    LHS = int <x, y>^{2*level} f(x) dx (exact, by monomial moments);
    RHS = (omega_{n-1}/omega_n) lambda(n, level, deg f) f(y).  The point y
    must lie on the sphere and f must be harmonic.
    """
    n = f.n
    if n < 3:
        raise ValueError("Funk-Hecke check needs n >= 3")
    yv = np.asarray(y, dtype=float)
    if yv.shape != (n,) or abs(yv @ yv - 1.0) > 1e-10:
        raise ValueError("y must be a unit vector of length n")
    if f.degree >= 2:
        lap = laplacian(f)
        if lap.max_abs_coeff() > 1e-9 * max(1.0, f.max_abs_coeff()):
            raise ValueError("input polynomial is not harmonic")
    lhs = 0.0
    log_fact = math.lgamma(2 * level + 1)
    for mi in basis_catalog(n, 2 * level).tolist():
        multinom = math.exp(log_fact - sum(math.lgamma(e + 1) for e in mi))
        ypow = float(np.prod(yv ** np.array(mi)))
        if ypow == 0.0:
            continue
        inner = sum(a * _moment_cached(n, tuple(s + t for s, t in zip(mi, mj)))
                    for mj, a in f.coeffs.items())
        lhs += multinom * ypow * inner
    rhs = (surface_area(n - 1) / surface_area(n)
           * lambda_coeff(n, level, f.degree) * f(yv))
    return abs(lhs - rhs)


# Monte-Carlo integration.

def mc_sphere_integral(f, n, samples, seed=0, chunk=200_000):
    """Monte-Carlo mean of f over the uniform sphere measure on S^{n-1}.

    ``f`` receives a (m, n) batch of unit vectors and returns (m,) values.
    Points are normalized standard Gaussians.  Returns (estimate,
    standard_error); the error is the sample standard deviation over
    sqrt(samples), zero for a constant integrand.
    """
    if samples < 1:
        raise ValueError("need a positive sample count")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        pts = rng.standard_normal((m, n))
        nrm = np.linalg.norm(pts, axis=1)
        good = nrm > 1e-12
        pts = pts[good] / nrm[good, None]
        vals = np.asarray(f(pts), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += int(good.sum())
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    if done > 1:
        var *= done / (done - 1)
    return mean, (var / done) ** 0.5


def mc_sphere_integral_poly(T, samples, seed=0):
    """Monte-Carlo integral of a homogeneous polynomial over the sphere."""
    return mc_sphere_integral(lambda X: evaluate(T, X), T.n, samples,
                              seed=seed)


# The sequential local search, one restart at a time with a fixed first
# trial step, as the oracle ran before its lock-step batch.

def sequential_sphere_maximize(T, restarts=32, max_iterations=500,
                               initial_step=0.1, seed=0):
    """Estimate max of T over the unit sphere by multistart projected ascent.

    Each restart draws a uniform starting point from its own child seed (so
    results for a given restart index never depend on the total restart
    count), then iterates x <- normalize(x + eta grad T), halving eta from
    ``initial_step`` until the objective improves.  A restart stops when no
    improving step exists, when the move is below 1e-12, or after
    ``max_iterations`` iterations; the convergence flag of the best restart
    is reported.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    best_val = -np.inf
    best_x = None
    best_conv = False
    for r in range(restarts):
        rng = _restart_rng(seed, r)
        x = rng.standard_normal(T.n)
        nrm = np.linalg.norm(x)
        while nrm < 1e-12:
            x = rng.standard_normal(T.n)
            nrm = np.linalg.norm(x)
        x = x / nrm
        fx = evaluate(T, x)
        converged = False
        for _ in range(max_iterations):
            g = gradient(T, x)
            eta = initial_step
            xn, fn = None, None
            while eta > 1e-14:
                cand = x + eta * g
                nrm = np.linalg.norm(cand)
                if nrm > 0.0:
                    cand = cand / nrm
                    val = evaluate(T, cand)
                    if val > fx:
                        xn, fn = cand, val
                        break
                eta *= 0.5
            if xn is None:
                converged = True
                break
            small = np.linalg.norm(xn - x) < 1e-12
            x, fx = xn, fn
            if small:
                converged = True
                break
        if fx > best_val:
            best_val, best_x, best_conv = fx, x, converged
    return OracleResult(value=float(best_val), argmax=best_x,
                        restarts_used=restarts, converged=best_conv)


# de Finetti checks and random states.

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
    dist = trace_distance(
        reduced_state(M, a),
        moment_matrix_of_density(measure_density(M, psd_tol), a))
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
            - moment_matrix_of_density(measure_density(M, psd_tol), a).vec)
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
    degree = 2 * level
    v = np.zeros(len(basis_catalog(n, degree)))
    for j, h in parts.items():
        if h.degree != j:
            raise ValueError("layer key must match polynomial degree")
        if h.is_zero():
            continue
        S = _sum_index_map(n, degree, h.degree)
        mom = moment_table(n, degree + h.degree)
        v += mom[S] @ _catalog_coeffs(h)
    return MaxSymMatrix(n, level, _vec_scale(n, degree) * v)


def product_state_vec(x, level):
    """Coordinates of the rank-one state |x><x|^{(x)level}, unit |x|."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    mono = np.prod(x[None, :] ** basis_catalog(n, 2 * level), axis=1)
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


# The uniform moment matrix, dense.

def dense_uniform_conditioning(n, level):
    """Eigenvalue ratio lambda_min / lambda_max of the uniform moment matrix,
    by a dense eigensolve of the p x p matrix."""
    vec = np.array(sphere_moment_vector(n, 2 * level))
    w = np.linalg.eigvalsh(MaxSymMatrix(n, level, vec).matrix)
    return float(w[0] / w[-1])
