import tracemalloc

import numpy as np
import pytest

from sphereopt import oracle
from sphereopt.multiindex import basis_catalog
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import evaluate, homo_poly, vector_to_poly

from reference import (mc_sphere_integral, mc_sphere_integral_poly, r2k_poly,
                       sequential_sphere_maximize)


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


@pytest.mark.parametrize("n,degree", [(4, 4), (3, 6), (2, 3), (6, 2)])
def test_restart_trajectory_does_not_depend_on_its_batch(n, degree):
    T = _random_poly(n, degree, 40 + n)
    unit = T.scaled(oracle._unit_scale(T))
    starts = np.array([oracle._start_point(n, 3, r) for r in range(16)])
    X, fx, conv = oracle._ascend(unit, starts, 500, 0.1)
    Xb, fxb, convb = oracle._ascend(unit, starts[::-1], 500, 0.1)
    assert np.array_equal(X, Xb[::-1]) and np.array_equal(fx, fxb[::-1])
    assert np.array_equal(conv, convb[::-1])
    for r in range(16):
        Xr, fr, cr = oracle._ascend(unit, starts[r:r + 1], 500, 0.1)
        assert np.array_equal(Xr[0], X[r])
        assert fr[0] == fx[r] and cr[0] == conv[r]


def _unit_form(n, degree, seed):
    T = _random_poly(n, degree, seed)
    return T.scaled(1.0 / sum(abs(c) for c in T.coeffs.values()))


def test_sphere_maximize_never_below_the_sequential_ascent():
    # Forms of unit l1 norm, as the benchmark draws them.  The sequential
    # ascent's steps grow with the form's scale: on forms whose l1 norm is
    # hundreds of times their maximum, its first steps jump out of the
    # start's basin, and there either ascent can end higher.
    for n in range(2, 7):
        for degree in range(2, 7):
            T = _unit_form(n, degree, 10 * n + degree)
            new = sphere_maximize(T, restarts=8, seed=1)
            old = sequential_sphere_maximize(T, restarts=8, seed=1)
            assert new.converged, (n, degree)
            assert new.value >= old.value - 1e-12, (n, degree)


def test_sphere_maximize_is_scale_free():
    # the benchmark's cli-cold n=5 quartic (seed 1, round 0)
    T = _unit_form(5, 4, np.random.SeedSequence([1, 0, 5]))
    base = sphere_maximize(T, restarts=8)
    assert base.converged
    for scale in (1e-12, 1e12):
        res = sphere_maximize(T.scaled(scale), restarts=8)
        assert res.converged
        assert res.value / scale == pytest.approx(base.value, rel=1e-9)
    # powers of two scale exactly, so the same points are found
    for k in (-40, 40):
        res = sphere_maximize(T.scaled(2.0 ** k), restarts=8)
        assert np.array_equal(res.argmax, base.argmax)
        assert res.value == 2.0 ** k * base.value


def _peak_bytes(T, restarts):
    tracemalloc.start()
    try:
        sphere_maximize(T, restarts=restarts, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sphere_maximize_memory_does_not_grow_with_restarts():
    T = _random_poly(3, 4, 8)
    assert _peak_bytes(T, 4096) <= 2 * _peak_bytes(T, 32)


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
