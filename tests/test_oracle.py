import numpy as np
import pytest

from sphereopt.multiindex import basis_catalog
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import evaluate, homo_poly, vector_to_poly

from reference import mc_sphere_integral, mc_sphere_integral_poly, r2k_poly


def _random_poly(n, degree, seed):
    rng = np.random.default_rng(seed)
    cat = basis_catalog(n, degree)
    return vector_to_poly(n, degree, rng.standard_normal(len(cat)))


def test_sphere_maximize_quadratic_equals_top_eigenvalue():
    rng = np.random.default_rng(0)
    for n in (3, 5):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        terms = {}
        for i in range(n):
            for j in range(i, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = A[i, j] * (1.0 if i == j else 2.0)
        T = homo_poly(n, 2, terms)
        res = sphere_maximize(T, restarts=12, seed=0)
        top = float(np.linalg.eigvalsh(A)[-1])
        assert res.value == pytest.approx(top, abs=1e-8)


def test_sphere_maximize_known_quartic():
    T = homo_poly(3, 4, {(2, 2, 0): 1.0})
    res = sphere_maximize(T, restarts=16, seed=3)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert abs(res.argmax[0]) == pytest.approx(np.sqrt(0.5), abs=1e-5)


def test_sphere_maximize_result_is_feasible_and_consistent():
    T = _random_poly(4, 4, 9)
    res = sphere_maximize(T, restarts=8, seed=5)
    assert np.linalg.norm(res.argmax) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(T, res.argmax) == pytest.approx(res.value, rel=1e-14)
    assert res.restarts_used == 8


def test_sphere_maximize_deterministic_and_prefix_stable():
    T = _random_poly(3, 4, 20)
    a = sphere_maximize(T, restarts=8, seed=7)
    b = sphere_maximize(T, restarts=8, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)
    # restart r never depends on the total count, so more restarts can
    # only improve the estimate
    c = sphere_maximize(T, restarts=16, seed=7)
    assert c.value >= a.value


def test_sphere_maximize_validates_restarts():
    T = r2k_poly(2, 1)
    with pytest.raises(ValueError):
        sphere_maximize(T, restarts=0)


def test_mc_sphere_integral_constant_and_coordinate():
    est, se = mc_sphere_integral(lambda X: np.ones(len(X)), 3, 10_000, seed=0)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == 0.0
    est, se = mc_sphere_integral(lambda X: X[:, 0] ** 2, 4, 400_000, seed=2)
    assert est == pytest.approx(0.25, abs=max(5 * se, 2e-3))


def test_mc_sphere_integral_poly_matches_exact():
    from sphereopt.harmonics import integrate_poly
    T = homo_poly(2, 4, {(4, 0): 1.0, (2, 2): 1.0})
    est, se = mc_sphere_integral_poly(T, samples=300_000, seed=4)
    assert est == pytest.approx(integrate_poly(T), abs=max(5 * se, 2e-3))


def test_mc_sphere_integral_validates_samples():
    with pytest.raises(ValueError):
        mc_sphere_integral(lambda X: np.ones(len(X)), 3, 0)
