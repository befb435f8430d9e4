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

import numpy as np

from .multiindex import exponent_tuple
from .polymat import HomoPoly, add_terms, homo_poly, multiply_r2


def gamma_factor(a):
    """max of x_0 r^(2a-1) on the circle x_0^2 + r^2 = 1; in (0, 1/2]."""
    if a < 1:
        raise ValueError("need a positive half-degree")
    return math.exp((a - 0.5) * math.log(2 * a - 1.0)
                    - a * math.log(2.0 * a))


def _require_finite(coeffs):
    if not all(map(math.isfinite, coeffs.values())):
        raise ValueError("polynomial coefficients must be finite")


def _clean_terms(n, terms):
    """Validated nonzero terms, summed per exponent, and the target degree."""
    if n < 2:
        raise ValueError("sphere optimization needs at least two variables")
    cleaned = {}
    for key, a in terms.items():
        mi = exponent_tuple(key, n)
        a = float(a)
        if a == 0.0:
            continue
        cleaned[mi] = cleaned.get(mi, 0.0) + a
    cleaned = {mi: a for mi, a in cleaned.items() if a != 0.0}
    if not cleaned:
        raise ValueError("polynomial is identically zero")
    _require_finite(cleaned)
    degrees = {sum(mi) for mi in cleaned}
    if len({d % 2 for d in degrees}) > 1:
        raise ValueError(
            "terms of mixed degree parity cannot be made homogeneous "
            "on the sphere")
    return cleaned, max(degrees) or 2


def homogenize_terms(n, terms):
    """Single homogeneous polynomial equal on the sphere to the given terms.

    ``terms`` maps exponent tuples of length n to coefficients, possibly of
    several degrees.  All degrees must share one parity and every summed
    coefficient must be finite; lower-degree terms are padded with powers
    of the squared radius.  A constant becomes a degree-2 polynomial (the
    smallest positive even degree).
    """
    cleaned, target = _clean_terms(n, terms)
    coeffs = {}
    for mi, a in cleaned.items():
        degree = sum(mi)
        add_terms(coeffs, multiply_r2(homo_poly(n, degree, {mi: a}),
                                      (target - degree) // 2).coeffs)
    # padding adds terms up, which can overflow
    _require_finite(coeffs)
    return HomoPoly(n, target, coeffs)


def solve_shape(n, terms):
    """(variables, half-degree a) of the problem ``canonicalize`` solves.

    Validates the terms as :func:`homogenize_terms` does without padding
    them, so that size guards can run before the padding's cost.
    """
    _, degree = _clean_terms(n, terms)
    return n + degree % 2, (degree + 1) // 2


def lift_odd(T):
    """x_0 * T as an even-degree polynomial in one extra leading variable."""
    if T.degree % 2 != 1:
        raise ValueError("lift applies to odd-degree polynomials")
    terms = {(1,) + mi: a for mi, a in T.coeffs.items()}
    return homo_poly(T.n + 1, T.degree + 1, terms)


@dataclass(frozen=True)
class ReductionRecord:
    """How an input was massaged into an even homogeneous problem.

    ``solve_target`` is what the relaxation runs on; bounds for it divided
    by ``gamma`` are bounds for ``original`` (gamma is one when no lift
    happened).
    """

    original: HomoPoly
    solve_target: HomoPoly
    lifted: bool
    gamma: float


def canonicalize(n, terms):
    """Normalize raw terms into an even homogeneous problem plus bookkeeping."""
    original = homogenize_terms(n, terms)
    if original.degree % 2 == 0:
        return ReductionRecord(original=original, solve_target=original,
                               lifted=False, gamma=1.0)
    a = (original.degree + 1) // 2
    return ReductionRecord(original=original, solve_target=lift_odd(original),
                           lifted=True, gamma=gamma_factor(a))


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
        n=record.original.n,
        degree=record.original.degree,
        nu_upper=report.nu_upper / g,
        nu_lower=report.nu_lower / g,
        duality_gap=report.duality_gap / g)
