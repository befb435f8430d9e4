"""Spherical-harmonic analysis on the unit sphere S^{n-1}.

The surface measure is normalized to total mass one throughout the package;
``surface_area`` exposes the unnormalized area when the classical constant
omega_n = 2 pi^{n/2} / Gamma(n/2) is needed in ratios.

Main objects:

* harmonic_count(j, n): dimension of the space of degree-j spherical
  harmonics, C(n+j-1, j) - C(n+j-3, j-2).

* gegenbauer_eval(j, n, t): the n-dimensional Legendre (Gegenbauer)
  polynomial normalized to P_j(1) = 1, via the stable three-term recurrence
  (m + n - 2) P_{m+1}(t) = (2m + n - 2) t P_m(t) - m P_{m-1}(t).
  These are the zonal kernels of the degree-j harmonic subspaces.

* lambda_coeff(n, l, j): the kernel coefficient
  int_{-1}^{1} t^{2l} P_j(t) (1 - t^2)^{(n-3)/2} dt through which the kernel
  <x, y>^{2l} acts on degree-j harmonics (Funk-Hecke):

      int <x, y>^{2l} f_j(x) dx = (omega_{n-1} / omega_n)
                                   lambda(n, l, j) f_j(y).

  For even j <= 2l the closed form is
  sqrt(pi) 2^{-2l} Gamma((n-1)/2) Gamma(2l+1)
      / (Gamma(l + 1 - j/2) Gamma(l + (n+j)/2)),
  and the coefficient vanishes identically for odd j or j > 2l.  All Gamma
  ratios are taken as differences of log-Gamma so no intermediate overflows.

* lambda_ratio(n, l, j) = lambda(n, l, j) / lambda(n, l, 0) with two-sided
  gap bounds (ratio_gap_bounds) that drive the de Finetti error constant
  definetti_eps(a, l, n) = 4 a^2 (a + n/2 - 1) / (2l + n).

* sphere_monomial_moment: exact normalized moments of monomials,
  int x^{2b} dx = prod_t (2 b_t - 1)!! / prod_{k<|b|} (n + 2k), zero for any
  odd exponent.

* harmonic_decompose: the unique expansion T = sum_j h_j r^{d-j} of a
  homogeneous polynomial into harmonic layers, by an iterated-Laplacian
  triangular solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .multiindex import basis_catalog, exponent_tuple
from .polymat import HomoPoly, _vec_scale, laplacian, multiply_r2


def surface_area(n):
    """Unnormalized surface area omega_n = 2 pi^{n/2} / Gamma(n/2) of S^{n-1}.

    Defined for n >= 1 (omega_1 = 2 counts the two points of S^0).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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


def lambda_coeff(n, level, j):
    """Kernel coefficient lambda(n, level, j); exactly zero off support.

    Support is even j with 0 <= j <= 2*level.  The closed form is evaluated
    through log-Gamma; arguments stay positive on the support.
    """
    if n < 2 or level < 0 or j < 0:
        raise ValueError("need n >= 2, level >= 0, j >= 0")
    if j % 2 != 0 or j > 2 * level:
        return 0.0
    log = (0.5 * math.log(math.pi)
           - 2 * level * math.log(2.0)
           + math.lgamma((n - 1) / 2.0)
           + math.lgamma(2 * level + 1)
           - math.lgamma(level + 1 - j / 2.0)
           - math.lgamma(level + (n + j) / 2.0))
    return math.exp(log)


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


def _double_factorial(m):
    """(m)!! for odd m >= -1, exact integer; (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@lru_cache(maxsize=None)
def _moment_cached(n, exps):
    if any(e % 2 for e in exps):
        return 0.0
    half = [e // 2 for e in exps]
    num = 1
    for b in half:
        num *= _double_factorial(2 * b - 1)
    den = 1
    for k in range(sum(half)):
        den *= n + 2 * k
    return num / den


def sphere_monomial_moment(exponents):
    """Exact moment of x^exponents against the normalized surface measure."""
    exps = exponent_tuple(exponents)
    if not exps:
        raise ValueError("need at least one variable")
    return _moment_cached(len(exps), exps)


@lru_cache(maxsize=None)
def moment_table(n, degree):
    """Moments of every degree-``degree`` monomial, in catalog order."""
    out = np.array([_moment_cached(n, tuple(row))
                    for row in basis_catalog(n, degree).tolist()])
    out.setflags(write=False)
    return out


def integrate_poly(T):
    """Exact integral of a homogeneous polynomial over the sphere."""
    return float(sum(a * _moment_cached(T.n, mi)
                     for mi, a in T.coeffs.items()))


def sphere_moment_vector(n, degree):
    """Number-state coordinates of the uniform-measure moment matrix.

    Entry at index k is sqrt(degree!/k!) times the moment of x^k; for even
    degree 2l this is the vectorization of int |x><x|^{(x)l} dx, the strictly
    positive definite barycenter of the moment body.
    """
    return _vec_scale(n, degree) * moment_table(n, degree)


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
