"""Reductions to the even homogeneous case.

On the unit sphere, any polynomial whose monomial degrees all share one
parity equals a single homogeneous polynomial: pad each term with powers
of x_1^2 + ... + x_n^2, which is identically one there.  Terms of mixed
parity cannot be combined this way (the sphere has antipodal symmetry
only degree-parity-wise), so such input is rejected.

Odd-degree problems reduce to even ones in one extra variable: for T
homogeneous of odd degree 2a - 1 on S^{n-1}, the lift

    T'(x_0, x) = x_0 T(x)    on S^n

has even degree 2a, and maximizing the radial profile x_0 (1 - x_0^2)^a
shows

    max T' = gamma(a) max |T| = gamma(a) max T,
    gamma(a) = (2a - 1)^(a - 1/2) / (2a)^a,

where max |T| = max T because odd polynomials take opposite values at
antipodes.  Bounds computed for the lifted problem therefore pull back
exactly by dividing by gamma(a), and a point (x_0, x) of the lifted sphere
pulls back to sign(x_0) x / |x|.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .multiindex import exponent_tuple
from .polymat import (HomoPoly, add_terms, multiply_r2, require_finite,
                      to_float)


def gamma_factor(a):
    """max of x_0 r^(2a-1) on the circle x_0^2 + r^2 = 1; in (0, 1/2]."""
    if a < 1:
        raise ValueError("need a positive half-degree")
    return math.exp((a - 0.5) * math.log(2 * a - 1.0)
                    - a * math.log(2.0 * a))


def lift_odd(T):
    """x_0 * T as an even-degree polynomial in one extra leading variable."""
    if T.degree % 2 != 1:
        raise ValueError("lift applies to odd-degree polynomials")
    return HomoPoly(T.n + 1, T.degree + 1,
                    {(1,) + mi: a for mi, a in T.coeffs.items() if a != 0.0})


@dataclass(frozen=True)
class ReductionRecord:
    """How an input reduces to an even homogeneous problem.

    ``terms`` maps exponent tuples of length ``n`` to nonzero finite sums
    in first-seen order, summed by :func:`sphereopt.polymat.add_terms`: a
    sum that reaches zero part-way moves to the end if a later term adds
    to it, as keys that name one tuple twice (``("2", "0")`` and
    ``(2, 0)``) can cause.  ``degree`` is the degree they pad to.  The
    solved shape, ``solve_n`` variables and half-degree ``a``, follows
    from these alone, so guards can run before any padding.
    ``original`` (the padded terms) and ``solve_target`` (``original``, or
    its lift for an odd degree) are built on first use, where a padded sum
    that overflows raises ValueError.  Bounds for ``solve_target`` divided
    by ``gamma`` are bounds for ``original``.
    """

    n: int
    terms: dict
    degree: int

    @property
    def lifted(self):
        return self.degree % 2 == 1

    @property
    def solve_n(self):
        return self.n + self.degree % 2

    @property
    def a(self):
        return (self.degree + 1) // 2

    @property
    def gamma(self):
        return gamma_factor(self.a) if self.lifted else 1.0

    @cached_property
    def original(self):
        coeffs = {}
        for mi, a in self.terms.items():
            degree = sum(mi)
            padded = multiply_r2(HomoPoly(self.n, degree, {mi: a}),
                                 (self.degree - degree) // 2)
            add_terms(coeffs, padded.coeffs.items())
        # padding adds terms up, which can overflow
        require_finite(coeffs)
        return HomoPoly(self.n, self.degree, coeffs)

    @cached_property
    def solve_target(self):
        return lift_odd(self.original) if self.lifted else self.original


def canonicalize(n, terms):
    """Validate raw terms in one pass; see :class:`ReductionRecord`.

    Sums the coefficients per exponent tuple and drops zero sums.  Raises
    ValueError for fewer than two variables, a malformed exponent tuple, a
    sum that is not finite, terms that are all zero and terms of mixed
    degree parity.  A constant alone is padded to degree 2.
    """
    if n < 2:
        raise ValueError("sphere optimization needs at least two variables")
    cleaned = {}
    add_terms(cleaned, ((exponent_tuple(key, n), to_float(a))
                        for key, a in terms.items()))
    if not cleaned:
        raise ValueError("polynomial is identically zero")
    require_finite(cleaned)
    degrees = {sum(mi) for mi in cleaned}
    if len({d % 2 for d in degrees}) > 1:
        raise ValueError(
            "terms of mixed degree parity cannot be made homogeneous "
            "on the sphere")
    return ReductionRecord(n, cleaned, max(degrees) or 2)


def pullback_points(record, Z):
    """Unit points of the original sphere from rows of solved-variable points.

    A lifted row (x_0, x) maps to u = sign(x_0) x / |x|: T is odd of degree
    2a - 1, so x_0 T(x) = |x_0| |x|^(2a - 1) T(u), and the lift is large
    at (x_0, x) only where T is large at u.  Rows with x = 0 carry no
    direction and are dropped.
    """
    if not record.lifted:
        return Z
    X = np.where(Z[:, :1] < 0.0, -Z[:, 1:], Z[:, 1:])
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0.0
    return X[keep] / norms[keep, None]


def pullback_bounds(record, report):
    """Bounds for the solved problem, rescaled to the original one."""
    g = record.gamma
    return dataclasses.replace(
        report,
        n=record.n,
        degree=record.degree,
        nu_upper=report.nu_upper / g,
        nu_lower=report.nu_lower / g,
        duality_gap=report.duality_gap / g)
