import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sphereopt import reduction
from sphereopt.definetti import solve_and_report
from sphereopt.multiindex import basis_catalog
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import HomoPoly, evaluate, homo_poly, multiply_r2
from sphereopt.reduction import (canonicalize, gamma_factor, homogenize_terms,
                                 lift_odd, pullback_bounds, pullback_points)
from sphereopt.sdp import build_relaxation


def test_gamma_factor_matches_profile_maximum():
    # gamma(a) is the max of t (1 - t^2)^(a - 1/2) over t in [0, 1]
    for a in range(1, 8):
        res = minimize_scalar(lambda t: -t * (1.0 - t * t) ** (a - 0.5),
                              bounds=(0.0, 1.0), method="bounded")
        assert gamma_factor(a) == pytest.approx(-res.fun, rel=1e-9)
    assert gamma_factor(1) == pytest.approx(0.5, abs=1e-15)
    assert gamma_factor(2) == pytest.approx(3.0 * math.sqrt(3.0) / 16.0,
                                            abs=1e-15)
    with pytest.raises(ValueError):
        gamma_factor(0)


def test_homogenize_pads_with_squared_radius():
    # x1^2 + 1 on the circle equals 2 x1^2 + x2^2
    T = homogenize_terms(2, {(2, 0): 1.0, (0, 0): 1.0})
    assert T.degree == 2
    assert T.coeffs == homo_poly(2, 2, {(2, 0): 2.0, (0, 2): 1.0}).coeffs
    rng = np.random.default_rng(0)
    mixed = homogenize_terms(3, {(3, 0, 0): 1.0, (1, 0, 0): -2.0})
    assert mixed.degree == 3
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert evaluate(mixed, x) == pytest.approx(x[0] ** 3 - 2.0 * x[0],
                                                   abs=1e-12)


def _homogenize_by_addition(n, terms):
    # one HomoPoly sum per input term, the padded terms added with +
    cleaned, target = reduction._clean_terms(n, terms)
    out = HomoPoly(n, target, {})
    for mi, a in cleaned.items():
        degree = sum(mi)
        out = out + multiply_r2(homo_poly(n, degree, {mi: a}),
                                (target - degree) // 2)
    return out


def _homogenize_cases():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        for degrees in ((4, 2, 0), (6, 4, 2), (5, 3, 1), (4,)):
            terms = {tuple(map(int, mi)): float(rng.standard_normal())
                     for d in degrees for mi in basis_catalog(n, d)}
            yield n, terms
            # the same terms listed lowest degree first
            yield n, dict(reversed(list(terms.items())))
    # x1^4 - x1^2 + 1: the padded -x1^2 cancels x1^4 to an exact zero,
    # and the padded constant re-inserts it after x1^2 x2^2
    yield 2, {(4, 0): 1.0, (2, 0): -1.0, (0, 0): 1.0}
    # x1^2 + x2^2 - 1 vanishes on the circle: every sum cancels
    yield 2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
    yield 3, {(2, 0, 0): 0.5, (0, 0, 0): -0.5, (0, 2, 0): 0.25,
              (0, 0, 2): -0.5}


def test_homogenize_accumulates_as_the_addition_route():
    # keys, their order and the bits of every coefficient
    for n, terms in _homogenize_cases():
        got = homogenize_terms(n, terms)
        want = _homogenize_by_addition(n, terms)
        assert got.degree == want.degree
        assert ([(mi, a.hex()) for mi, a in got.coeffs.items()]
                == [(mi, a.hex()) for mi, a in want.coeffs.items()])
    cancelled = homogenize_terms(2, {(4, 0): 1.0, (2, 0): -1.0, (0, 0): 1.0})
    assert list(cancelled.coeffs) == [(2, 2), (4, 0), (0, 4)]
    assert homogenize_terms(2, {(2, 0): 1.0, (0, 2): 1.0,
                                (0, 0): -1.0}).is_zero()


def test_homogenize_constant_and_validation():
    T = homogenize_terms(3, {(0, 0, 0): 5.0})
    assert T.degree == 2
    x = np.array([0.0, 0.6, 0.8])
    assert evaluate(T, x) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError, match="mixed"):
        homogenize_terms(2, {(2, 0): 1.0, (1, 0): 1.0})
    with pytest.raises(ValueError, match="zero"):
        homogenize_terms(2, {(2, 0): 0.0})
    with pytest.raises(ValueError):
        homogenize_terms(1, {(2,): 1.0})
    with pytest.raises(ValueError, match="slots"):
        homogenize_terms(3, {(2, 0): 1.0})
    # finite terms whose padded sum overflows
    with pytest.raises(ValueError, match="finite"):
        homogenize_terms(2, {(2, 0): 1e308, (0, 0): 1e308})


def test_lift_odd_evaluation_identity():
    rng = np.random.default_rng(1)
    T = homo_poly(3, 3, {(3, 0, 0): 1.0, (1, 2, 0): -0.5, (0, 0, 3): 2.0,
                         (1, 1, 1): 0.25})
    L = lift_odd(T)
    assert L.n == 4 and L.degree == 4
    for _ in range(10):
        z = rng.standard_normal(4)
        assert evaluate(L, z) == pytest.approx(z[0] * evaluate(T, z[1:]),
                                               abs=1e-12)
    with pytest.raises(ValueError):
        lift_odd(homo_poly(2, 2, {(2, 0): 1.0}))


def test_lifted_maximum_is_gamma_times_original():
    T = homo_poly(2, 3, {(3, 0): 1.0, (1, 2): -1.0})
    L = lift_odd(T)
    best_T = sphere_maximize(T, restarts=24, seed=0).value
    best_L = sphere_maximize(L, restarts=24, seed=0).value
    assert best_L == pytest.approx(gamma_factor(2) * best_T, abs=1e-7)


def test_canonicalize_even_is_identity_wrapper():
    rec = canonicalize(2, {(2, 0): 1.0, (0, 0): 1.0})
    assert not rec.lifted
    assert rec.gamma == 1.0
    assert rec.solve_target is rec.original
    assert rec.original.degree == 2


def test_canonicalize_odd_lifts_and_records_gamma():
    rec = canonicalize(2, {(3, 0): 1.0, (1, 0): 0.5})
    assert rec.lifted
    assert rec.original.degree == 3 and rec.original.n == 2
    assert rec.solve_target.degree == 4 and rec.solve_target.n == 3
    assert rec.gamma == pytest.approx(gamma_factor(2), abs=1e-15)


def test_pullback_brackets_odd_maximum():
    # max of x1^3 on the circle is 1; solve the lifted quartic and pull back
    rec = canonicalize(2, {(3, 0): 1.0})
    report, _ = solve_and_report(build_relaxation(rec.solve_target, 6))
    pulled = pullback_bounds(rec, report)
    assert pulled.n == 2 and pulled.degree == 3
    assert pulled.nu_upper == pytest.approx(report.nu_upper / rec.gamma,
                                            rel=1e-15)
    assert pulled.nu_lower <= 1.0 <= pulled.nu_upper + 1e-8
    assert pulled.nu_upper >= report.nu_upper  # gamma <= 1 widens upward

    oracle = sphere_maximize(rec.original, restarts=16, seed=0).value
    assert oracle == pytest.approx(1.0, abs=1e-7)
    assert pulled.nu_lower - 1e-8 <= oracle <= pulled.nu_upper + 1e-8


def test_pullback_points_fold_the_sign_of_x0():
    even = canonicalize(2, {(2, 2): 1.0})
    Z = np.array([[0.6, -0.8], [1.0, 0.0]])
    assert pullback_points(even, Z) is Z
    rec = canonicalize(2, {(3, 0): 1.0, (0, 3): -2.0})
    Z = np.array([[0.5, 0.6, 0.0], [-0.5, 0.0, 0.3], [1.0, 0.0, 0.0]])
    X = pullback_points(rec, Z)
    # the row with x = 0 has no direction and is dropped
    assert X.tolist() == [[1.0, 0.0], [0.0, -1.0]]
    # the lift at (x0, x) is |x0| |x|^(2a - 1) times T at the pulled point
    lifted = evaluate(rec.solve_target, Z[:2])
    scale = np.abs(Z[:2, 0]) * np.linalg.norm(Z[:2, 1:], axis=1) ** 3
    assert np.allclose(lifted, scale * evaluate(rec.original, X), atol=1e-15)
