import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy import integrate
from scipy.special import binom, eval_gegenbauer

from sphereopt.definetti import definetti_eps
from sphereopt.multiindex import basis_catalog
from sphereopt.polymat import (MaxSymMatrix, _vec_scale, homo_poly,
                               moment_table, sphere_moment_vector,
                               vector_to_poly)

from reference import (funk_hecke_residual, gegenbauer_eval, harmonic_count,
                       harmonic_decompose, integrate_poly, lambda_coeff,
                       lambda_ratio, laplacian, mc_sphere_integral_poly,
                       r2k_poly, ratio_gap_bounds, sphere_monomial_moment,
                       surface_area)


def _normalized_gegenbauer(j, n, t):
    """Reference P_j(n; t) with P_j(1) = 1 via scipy, independent route."""
    if n == 2:
        return np.cos(j * np.arccos(np.clip(t, -1.0, 1.0)))
    alpha = (n - 2) / 2.0
    return eval_gegenbauer(j, alpha, t) / binom(j + n - 3, j)


def test_surface_area_known_values():
    assert surface_area(1) == pytest.approx(2.0, rel=1e-15)
    assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert surface_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert surface_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)
    with pytest.raises(ValueError):
        surface_area(0)


def test_harmonic_count_known_values():
    # on S^2 the degree-j space has 2j + 1 dimensions; on S^1 it has 2
    for j in range(8):
        assert harmonic_count(j, 3) == 2 * j + 1
    assert harmonic_count(0, 2) == 1
    for j in range(1, 8):
        assert harmonic_count(j, 2) == 2
    assert harmonic_count(2, 4) == 9


def test_gegenbauer_eval_matches_reference():
    ts = np.linspace(-1.0, 1.0, 41)
    for n in (2, 3, 4, 6):
        for j in (0, 1, 2, 5, 9):
            got = gegenbauer_eval(j, n, ts)
            ref = _normalized_gegenbauer(j, n, ts)
            assert np.allclose(got, ref, atol=1e-10)
            assert gegenbauer_eval(j, n, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_gegenbauer_eval_legendre_spot_values():
    # n = 3 gives the Legendre polynomials
    x = sympy.symbols("x")
    for j in (2, 3, 4):
        P = sympy.legendre(j, x)
        for t in (-0.7, 0.1, 0.643):
            assert gegenbauer_eval(j, 3, t) == pytest.approx(
                float(P.subs(x, t)), abs=1e-12)


def test_lambda_coeff_support():
    assert lambda_coeff(3, 2, 1) == 0.0
    assert lambda_coeff(3, 2, 3) == 0.0
    assert lambda_coeff(3, 2, 6) == 0.0
    assert lambda_coeff(4, 0, 2) == 0.0
    assert lambda_coeff(3, 0, 0) == pytest.approx(2.0, rel=1e-14)
    # exact rational value: with n = 3, level = 1, degree 2 the kernel
    # integral int t^2 P_2(t) dt over [-1, 1] equals 4/15
    assert lambda_coeff(3, 1, 2) == pytest.approx(4.0 / 15.0, rel=1e-13)


def test_lambda_coeff_matches_quadrature():
    # small sweep here; the full acceptance sweep covers n in 3..8
    for n in (3, 5):
        for level in (1, 3, 6):
            for j in range(0, 2 * level + 1, 2):
                val, err = integrate.quad(
                    lambda t: t ** (2 * level)
                    * _normalized_gegenbauer(j, n, t)
                    * (1.0 - t * t) ** ((n - 3) / 2.0),
                    -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
                assert lambda_coeff(n, level, j) == pytest.approx(
                    val, abs=1e-10)


def test_lambda_ratio_consistency_and_monotonicity():
    for n in (2, 3, 5):
        for level in (2, 4, 7):
            vals = [lambda_ratio(n, level, j)
                    for j in range(0, 2 * level + 1, 2)]
            assert vals[0] == pytest.approx(1.0, rel=1e-14)
            assert all(b < a for a, b in zip(vals, vals[1:]))
            for j in range(0, 2 * level + 1, 2):
                assert lambda_ratio(n, level, j) * lambda_coeff(n, level, 0) \
                    == pytest.approx(lambda_coeff(n, level, j), rel=1e-12)
    with pytest.raises(ValueError):
        lambda_ratio(3, 2, 3)
    with pytest.raises(ValueError):
        lambda_ratio(3, 2, 6)


def test_ratio_gap_bounds_hold_on_grid():
    # 1 - ratio <= g and 1/ratio - 1 <= 2g, including n = 2
    for n in range(2, 9):
        for level in (1, 2, 5, 11, 25):
            for j in range(2, 2 * level + 1, 2):
                g, g2 = ratio_gap_bounds(n, level, j)
                ratio = lambda_ratio(n, level, j)
                assert 1.0 - ratio <= g + 1e-13
                if g2 <= 1.0:
                    assert 1.0 / ratio - 1.0 <= g2 + 1e-13
    # tight at j = 2
    for n in (2, 3, 6):
        for level in (3, 9):
            g, _ = ratio_gap_bounds(n, level, 2)
            assert 1.0 - lambda_ratio(n, level, 2) == pytest.approx(
                g, rel=1e-12)


def test_definetti_eps_values_and_validity():
    got = definetti_eps(2, 19, 3)
    assert got.value == pytest.approx(40.0 / 41.0, rel=1e-14)
    assert got.valid
    assert not definetti_eps(2, 18, 3).valid  # threshold is 18.5
    assert definetti_eps(1, 2, 3).value == pytest.approx(
        4 * 1.5 / 7.0, rel=1e-14)
    with pytest.raises(ValueError):
        definetti_eps(0, 3, 3)


def test_sphere_monomial_moment_known_values():
    # normalized measure: total mass one, <x1^2> = 1/n, <x1^4> = 3/(n(n+2))
    for n in (2, 3, 5):
        assert sphere_monomial_moment((0,) * n) == 1.0
        e2 = (2,) + (0,) * (n - 1)
        assert sphere_monomial_moment(e2) == pytest.approx(1.0 / n, rel=1e-14)
        e4 = (4,) + (0,) * (n - 1)
        assert sphere_monomial_moment(e4) == pytest.approx(
            3.0 / (n * (n + 2)), rel=1e-14)
    assert sphere_monomial_moment((1, 1)) == 0.0
    assert sphere_monomial_moment((2, 1, 0)) == 0.0
    assert sphere_monomial_moment((2, 2)) == pytest.approx(1.0 / 8.0,
                                                           rel=1e-14)
    with pytest.raises(ValueError):
        sphere_monomial_moment((4, -2))


def test_sphere_monomial_moment_matches_sympy_beta_form():
    # independent exact route: the normalized moment of x^e with all e_i
    # even is Gamma(n/2) prod Gamma((e_i+1)/2) / (Gamma((d+n)/2) Gamma(1/2)^n)
    for exps in ((2, 0, 0), (2, 2, 0), (4, 2, 2), (6, 0), (2, 2, 2, 2)):
        n = len(exps)
        d = sum(exps)
        num = sympy.prod([sympy.gamma(sympy.Rational(e + 1, 2))
                          for e in exps])
        expect = num * sympy.gamma(sympy.Rational(n, 2)) / (
            sympy.gamma(sympy.Rational(d + n, 2))
            * sympy.gamma(sympy.Rational(1, 2)) ** n)
        assert sphere_monomial_moment(exps) == pytest.approx(
            float(expect), rel=1e-13)


def test_integrate_poly_and_moment_table():
    assert integrate_poly(r2k_poly(3, 2)) == pytest.approx(1.0, rel=1e-14)
    T = homo_poly(3, 2, {(2, 0, 0): 3.0, (0, 2, 0): -1.0, (1, 1, 0): 5.0})
    assert integrate_poly(T) == pytest.approx(3.0 / 3 - 1.0 / 3, rel=1e-13)
    # each table entry is the correctly rounded float of the exact ratio
    # int x^{2b} dx = prod_t (2 b_t - 1)!! / prod_{k<|b|} (n + 2k), and
    # zero for an odd exponent
    for n in range(2, 6):
        for degree in range(9):
            table = moment_table(n, degree)
            for pos, mi in enumerate(basis_catalog(n, degree).tolist()):
                if any(e % 2 for e in mi):
                    assert table[pos] == 0.0
                    continue
                num = math.prod(math.prod(range(e - 1, 0, -2)) for e in mi)
                den = math.prod(n + 2 * k for k in range(degree // 2))
                assert table[pos] == float(Fraction(num, den))


def test_moments_match_monte_carlo():
    T = homo_poly(3, 4, {(4, 0, 0): 1.0, (2, 2, 0): -2.0, (0, 2, 2): 0.5})
    exact = integrate_poly(T)
    est, se = mc_sphere_integral_poly(T, samples=400_000, seed=1)
    assert est == pytest.approx(exact, abs=max(5 * se, 1e-3))


def test_sphere_moment_vector_definition():
    n, degree = 3, 4
    got = sphere_moment_vector(n, degree)
    expect = _vec_scale(n, degree) * moment_table(n, degree)
    assert np.array_equal(got, expect)
    # moment matrix of the uniform measure is strictly positive definite
    M = MaxSymMatrix(3, 2, sphere_moment_vector(3, 4))
    assert M.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(M.matrix)[0] > 0.0


def test_harmonic_decompose_reconstructs():
    rng = np.random.default_rng(14)
    for n, d, seed in ((2, 4, 0), (3, 4, 1), (3, 6, 2), (4, 3, 3)):
        cat = basis_catalog(n, d)
        T = vector_to_poly(n, d, rng.standard_normal(len(cat)))
        dec = harmonic_decompose(T)
        diff = dec.reconstruct() - T
        assert (max(map(abs, diff.coeffs.values()), default=0.0)
                < 1e-10 * max(1.0, max(map(abs, T.coeffs.values()))))
        for j, h in dec.parts.items():
            assert h.degree == j
            assert j % 2 == d % 2
            if j >= 2:
                lap = laplacian(h)
                assert (max(map(abs, lap.coeffs.values()), default=0.0)
                        < 1e-9 * max(1.0, max(map(abs, h.coeffs.values()))))


def test_harmonic_decompose_known_split():
    # x1^2 = (x1^2 - r^2/3) + r^2/3 on three variables
    T = homo_poly(3, 2, {(2, 0, 0): 1.0})
    dec = harmonic_decompose(T)
    assert set(dec.parts) == {0, 2}
    h0 = dec.parts[0]
    assert h0.coeffs[next(iter(h0.coeffs))] == pytest.approx(1.0 / 3.0,
                                                             rel=1e-13)
    h2 = dec.parts[2]
    x = np.array([0.3, -1.2, 0.5])
    r2 = float(x @ x)
    assert h2(x) == pytest.approx(x[0] ** 2 - r2 / 3.0, rel=1e-12)


def test_funk_hecke_residual_small_on_harmonics():
    y = np.array([0.0, 0.6, 0.8])
    corpus = [
        homo_poly(3, 0, {(0, 0, 0): 1.0}),
        homo_poly(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): -1.0}),
        homo_poly(3, 2, {(1, 1, 0): 1.0}),
    ]
    for f in corpus:
        for level in (1, 2, 4):
            assert funk_hecke_residual(f, level, y) < 1e-12


def test_funk_hecke_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        funk_hecke_residual(r2k_poly(3, 1), 2, np.array([0.0, 0.6, 0.8]))
    with pytest.raises(ValueError):
        funk_hecke_residual(homo_poly(3, 2, {(1, 1, 0): 1.0}), 2,
                            np.array([1.0, 1.0, 0.0]))
