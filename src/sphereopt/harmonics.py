"""Spherical-harmonic constants on the unit sphere S^{n-1}.

The surface measure is normalized to total mass one throughout the package;
``surface_area`` exposes the unnormalized area when the classical constant
omega_n = 2 pi^{n/2} / Gamma(n/2) is needed in ratios.

Main objects:

* lambda_coeff(n, l, j): the kernel coefficient
  int_{-1}^{1} t^{2l} P_j(t) (1 - t^2)^{(n-3)/2} dt, P_j the degree-j
  Gegenbauer polynomial with P_j(1) = 1, through which the kernel
  <x, y>^{2l} acts on degree-j harmonics (Funk-Hecke):

      int <x, y>^{2l} f_j(x) dx = (omega_{n-1} / omega_n)
                                   lambda(n, l, j) f_j(y).

  For even j <= 2l the closed form is
  sqrt(pi) 2^{-2l} Gamma((n-1)/2) Gamma(2l+1)
      / (Gamma(l + 1 - j/2) Gamma(l + (n+j)/2)),
  and the coefficient vanishes identically for odd j or j > 2l.  All Gamma
  ratios are taken as differences of log-Gamma so no intermediate overflows.

* definetti_eps(a, l, n) = 4 a^2 (a + n/2 - 1) / (2l + n), the de Finetti
  relative-error constant.

* moment_table: exact normalized moments of monomials,
  int x^{2b} dx = prod_t (2 b_t - 1)!! / prod_{k<|b|} (n + 2k), zero for any
  odd exponent.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .multiindex import basis_catalog
from .polymat import _vec_scale


def surface_area(n):
    """Unnormalized surface area omega_n = 2 pi^{n/2} / Gamma(n/2) of S^{n-1}.

    Defined for n >= 1 (omega_1 = 2 counts the two points of S^0).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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


@lru_cache(maxsize=None)
def _moment_cached(n, exps):
    if any(e % 2 for e in exps):
        return 0.0
    half = [e // 2 for e in exps]
    # exact integers, so the one division rounds correctly
    num = math.prod(math.prod(range(2 * b - 1, 0, -2)) for b in half)
    den = math.prod(range(n, n + 2 * sum(half), 2))
    return num / den


@lru_cache(maxsize=None)
def moment_table(n, degree):
    """Moments of every degree-``degree`` monomial, in catalog order."""
    out = np.array([_moment_cached(n, tuple(row))
                    for row in basis_catalog(n, degree).tolist()])
    out.setflags(write=False)
    return out


def sphere_moment_vector(n, degree):
    """Number-state coordinates of the uniform-measure moment matrix.

    Entry at index k is sqrt(degree!/k!) times the moment of x^k; for even
    degree 2l this is the vectorization of int |x><x|^{(x)l} dx, the strictly
    positive definite barycenter of the moment body.
    """
    return _vec_scale(n, degree) * moment_table(n, degree)
