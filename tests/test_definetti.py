import math
from fractions import Fraction

import numpy as np
import pytest

from sphereopt import harmonics
from sphereopt.definetti import (BoundsReport, _chain_weights,
                                 candidate_points, density_constant,
                                 lower_bound, measure_density, reduced_state,
                                 solve_and_report)
from sphereopt.harmonics import (definetti_eps, moment_table,
                                 sphere_moment_vector)
from sphereopt.multiindex import basis_catalog
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import (MaxSymMatrix, _catalog_coeffs, _vec_scale,
                               homo_poly, poly_to_vector, vector_to_poly)
from sphereopt.sdp import build_relaxation

from reference import (_sum_index_map, definetti_trace_check, density_mass,
                       f1_distance_lower_estimate, harmonic_decompose,
                       mc_sphere_integral, moment_matrix_of_density,
                       p_from_q_coefficients, product_state_vec,
                       random_msym_state, random_product_mixture,
                       state_from_harmonic_density, trace_distance)


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _uniform_state(n, level):
    return MaxSymMatrix(n, level, np.asarray(sphere_moment_vector(n, 2 * level)))


def test_density_constant_uniform_state_gives_flat_density():
    rng = np.random.default_rng(0)
    for n, level in ((2, 3), (3, 1), (3, 4), (4, 2)):
        density = measure_density(_uniform_state(n, level))
        assert density_mass(density) == pytest.approx(1.0, abs=1e-12)
        for _ in range(5):
            assert density(_unit(rng, n)) == pytest.approx(1.0, abs=1e-10)
    # n=3, level=1: c = 3 / 1!!
    assert density_constant(3, 1) == 3.0


def test_density_constant_is_the_correctly_rounded_ratio():
    # prod_{i<l} (n + 2i) / (2l - 1)!!, within half an ulp
    for n in range(2, 31):
        for level in range(41):
            exact = Fraction(math.prod(n + 2 * i for i in range(level)),
                             math.prod(2 * i + 1 for i in range(level)))
            assert density_constant(n, level) == float(exact), (n, level)
    for n, level in ((1, 2), (0, 0), (3, -1)):
        with pytest.raises(ValueError):
            density_constant(n, level)


def test_measure_density_normalizes_any_state():
    for seed in range(5):
        M = random_product_mixture(3, 5, components=3, seed=seed)
        assert density_mass(measure_density(M)) == pytest.approx(1.0,
                                                                 abs=1e-12)
        S = random_msym_state(4, 3, seed=seed)
        assert density_mass(measure_density(S)) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_measure_density_validates_state():
    u = np.asarray(sphere_moment_vector(3, 4))
    with pytest.raises(ValueError, match="unit trace"):
        measure_density(MaxSymMatrix(3, 2, 2.0 * u))
    # trace one but indefinite: 2 * uniform minus a rank-one state
    x = np.array([1.0, 0.0, 0.0])
    bad = MaxSymMatrix(3, 2, 2.0 * u - product_state_vec(x, 2))
    with pytest.raises(ValueError, match="semidefinite"):
        measure_density(bad)
    measure_density(bad, psd_tol=2.0)  # loose tolerance lets it through


def _dict_route_lower_bound(T, poly):
    # the average of T against a density given as a polynomial dict, by
    # the dense coefficient vector of that dict
    n, a = T.n, T.degree // 2
    S = _sum_index_map(n, 2 * a, poly.degree)
    v = np.zeros(len(S))
    v += moment_table(n, 2 * a + poly.degree)[S] @ _catalog_coeffs(poly)
    return float(poly_to_vector(T) @ (_vec_scale(n, 2 * a) * v))


@pytest.mark.parametrize("n, levels", [(2, (1, 3, 6)), (3, (1, 2, 5)),
                                       (4, (2, 3)), (5, (2, 3)), (6, (2,))])
def test_density_vector_matches_the_polynomial_route(n, levels):
    # the density's coefficient vector gives bit for bit what its
    # polynomial c * Q_M gave in the report's terms; the chain-sum bound
    # agrees with the moment route on that polynomial to roundoff
    for level in levels:
        for seed in range(3):
            M = random_msym_state(n, level, seed=seed)
            density = measure_density(M)
            poly = M.to_poly().scaled(density_constant(n, level))
            assert list(density.poly.coeffs.items()) == list(
                poly.coeffs.items())
            assert density_mass(density) == pytest.approx(1.0, abs=1e-12)
            for a in range(1, min(level, 2) + 1):
                T = vector_to_poly(n, 2 * a, np.random.default_rng(
                    [seed, n, level, a]).standard_normal(
                        len(basis_catalog(n, 2 * a))))
                assert abs(lower_bound(T, density)
                           - _dict_route_lower_bound(T, poly)) <= (
                    1e-14 * np.abs(poly_to_vector(T)).sum())


def _layer_weights_exact(n, a, level):
    # Funk-Hecke scales layer j of T (h_j r^{2a-j}, h_j harmonic) by
    # w_j = lambda(n, l, j) / lambda(n, l, 0); the k-fold trace scales it
    # by mu_{j,k}, since the Laplacian takes h_j r^{2m} to
    # 2m (2m + 2j + n - 2) h_j r^{2m-2} and one trace step at degree d is
    # the Laplacian over d (d - 1).  Solve sum_k beta_k mu_{j,k} = w_j,
    # triangular from the top layer j = 2a down.
    half = Fraction(n, 2)

    def w(j):
        return math.prod((Fraction(level - i) / (level + half + i)
                          for i in range(j // 2)), start=Fraction(1))

    def mu(j, k):
        out = Fraction(1)
        for s in range(k):
            m, d = a - j // 2 - s, 2 * a - 2 * s
            out *= Fraction(2 * m * (2 * m + 2 * j + n - 2), d * (d - 1))
        return out

    beta = []
    for k in range(a + 1):
        j = 2 * (a - k)
        # layer j sees the chain terms k' <= k only: mu_{j,k'} = 0 beyond
        rest = sum(beta[i] * mu(j, i) for i in range(k))
        beta.append((w(j) - rest) / mu(j, k))
    return beta


def test_chain_weights_solve_the_layer_system_exactly():
    for n in range(2, 9):
        for a in range(1, 5):
            for level in range(a, a + 7):
                exact = _layer_weights_exact(n, a, level)
                got = _chain_weights(n, a, level)
                assert len(got) == a + 1
                for b, e in zip(got, exact):
                    assert e > 0
                    assert b == pytest.approx(float(e), rel=1e-14)


def _bound_cases():
    for n in range(2, 7):
        for a in range(1, 4):
            for level in range(a, a + 4):
                yield n, a, level, (0,)
    yield 2, 3, 20, (0,)
    yield 10, 2, 2, (0,)
    yield 3, 2, 19, (0, 1, 2, 3)


def test_lower_bound_matches_the_moment_route():
    # the chain sum against the pairing of T with the density's moment
    # matrix by exact monomial moments, on random and on product-mixture
    # states
    for n, a, level, seeds in _bound_cases():
        for seed in seeds:
            T = vector_to_poly(n, 2 * a, np.random.default_rng(
                [seed, n, a, level]).standard_normal(
                    len(basis_catalog(n, 2 * a))))
            t = poly_to_vector(T)
            for M in (random_msym_state(n, level, seed=seed),
                      random_product_mixture(n, level, seed=seed)):
                density = measure_density(M)
                moments = moment_matrix_of_density(density, a).vec
                assert abs(lower_bound(T, density) - float(t @ moments)) <= (
                    1e-14 * np.abs(t).sum())
    density = measure_density(random_msym_state(3, 1))
    with pytest.raises(ValueError):
        lower_bound(homo_poly(3, 4, {(4, 0, 0): 1.0}), density)


def test_lower_bound_is_equivariant_under_powers_of_two():
    # scaling T by 2^k scales the bound by 2^k bit for bit
    for n, a, level, seed in ((2, 1, 1, 0), (2, 1, 3, 1), (3, 2, 2, 2),
                              (3, 2, 5, 3), (4, 3, 3, 4)):
        T = vector_to_poly(n, 2 * a, np.random.default_rng(seed).uniform(
            0.5, 1.0, len(basis_catalog(n, 2 * a))))
        density = measure_density(random_msym_state(n, level, seed=seed))
        base = lower_bound(T, density)
        assert math.isfinite(base) and base > 0.0
        for k in (-1000, -300, -1, 1, 300, 1000):
            assert lower_bound(T.scaled(2.0 ** k), density) == math.ldexp(
                base, k)
    # 2^1023 (x1^2 + x2^2): a chain on the unscaled coordinates sums two
    # halves of 2^1024 and overflows to +inf
    big = homo_poly(2, 2, {(2, 0): 2.0 ** 1023, (0, 2): 2.0 ** 1023})
    density = measure_density(_uniform_state(2, 1))
    assert lower_bound(big, density) == 2.0 ** 1023


def test_solve_and_report_tabulates_only_the_primal_start_moments():
    harmonics.moment_table.cache_clear()
    T = vector_to_poly(10, 4, np.random.default_rng(13).standard_normal(
        len(basis_catalog(10, 4))))
    report, _ = solve_and_report(build_relaxation(T, 2))
    assert report.status == "optimal"
    # the one table is the degree-2l one: asking for it adds no entry
    assert harmonics.moment_table.cache_info().currsize == 1
    harmonics.moment_table(10, 4)
    assert harmonics.moment_table.cache_info().currsize == 1


def test_moment_matrix_of_density_is_a_state():
    M = random_product_mixture(3, 6, components=4, seed=1)
    density = measure_density(M)
    for a in (1, 2, 3):
        W = moment_matrix_of_density(density, a)
        assert W.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(W.matrix)[0] >= -1e-12
    with pytest.raises(ValueError):
        moment_matrix_of_density(density, 0)


def test_moment_matrix_of_density_matches_monte_carlo():
    M = random_product_mixture(3, 4, components=2, seed=2)
    density = measure_density(M)
    W = moment_matrix_of_density(density, 1)
    # W[i, j] = integral of rho(x) x_i x_j at level one
    for (i, j) in ((0, 0), (0, 2), (1, 2)):
        est, se = mc_sphere_integral(
            lambda X: density(X) * X[:, i] * X[:, j], 3, 200_000, seed=3)
        assert abs(W.matrix[i, j] - est) < max(5.0 * se, 1e-3)


def test_reduced_state_of_product_state_is_product_state():
    rng = np.random.default_rng(4)
    for n, level in ((2, 4), (3, 5), (4, 3)):
        x = _unit(rng, n)
        P = MaxSymMatrix(n, level, product_state_vec(x, level))
        for a in range(1, level):
            assert np.allclose(reduced_state(P, a).vec,
                               product_state_vec(x, a), atol=1e-12)
        assert reduced_state(P, level) is P
    with pytest.raises(ValueError):
        reduced_state(P, 0)
    with pytest.raises(ValueError):
        reduced_state(P, P.ell + 1)


def test_candidate_points_recover_the_point_of_a_product_state():
    rng = np.random.default_rng(6)
    for n, level in ((2, 4), (3, 5), (4, 3), (3, 1)):
        x = _unit(rng, n)
        X = candidate_points(MaxSymMatrix(n, level,
                                          product_state_vec(x, level)))
        assert X.shape == (n, n)
        assert np.allclose(X @ X.T, np.eye(n), atol=1e-12)
        assert abs(X[0] @ x) == pytest.approx(1.0, abs=1e-12)


def test_product_state_vec_is_rank_one_with_known_overlaps():
    rng = np.random.default_rng(5)
    n, level = 3, 3
    x = _unit(rng, n)
    P = MaxSymMatrix(n, level, product_state_vec(x, level))
    cat = basis_catalog(n, level).tolist()
    s = np.array([math.sqrt(math.factorial(level)
                            / math.prod(math.factorial(e) for e in mi))
                  * math.prod(x[t] ** e for t, e in enumerate(mi))
                  for mi in cat])
    assert np.allclose(P.matrix, np.outer(s, s), atol=1e-12)
    assert P.trace() == pytest.approx(1.0, abs=1e-12)
    y = _unit(rng, n)
    sy = np.array([math.sqrt(math.factorial(level)
                             / math.prod(math.factorial(e) for e in mi))
                   * math.prod(y[t] ** e for t, e in enumerate(mi))
                   for mi in cat])
    assert float(sy @ P.matrix @ sy) == pytest.approx(
        float(x @ y) ** (2 * level), abs=1e-12)


def test_trace_check_bound_holds_on_random_states():
    for n, level in ((3, 4), (3, 6), (4, 4)):
        for a in (1, 2):
            for seed in range(4):
                M = random_product_mixture(n, level, components=3, seed=seed)
                chk = definetti_trace_check(M, a)
                assert chk.satisfied
                assert chk.distance <= chk.bound
                S = random_msym_state(n, level, seed=seed)
                chk = definetti_trace_check(S, a)
                assert chk.satisfied
                bound = 2.0 * a * a * (a + n / 2.0 - 1.0) / (2 * level + n)
                assert chk.bound == pytest.approx(bound, rel=1e-12)
    with pytest.raises(ValueError):
        definetti_trace_check(M, level)
    with pytest.raises(ValueError):
        definetti_trace_check(M, 0)


def test_trace_check_vanishes_deep_in_the_hierarchy():
    x = np.array([0.6, 0.8])
    dists = []
    for level in (2, 6, 18):
        P = MaxSymMatrix(2, level, product_state_vec(x, level))
        dists.append(definetti_trace_check(P, 1).distance)
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.1


def test_f1_lower_estimate_respects_eps_bound():
    # distance seen through degree-2a test polynomials, normalized by
    # their sphere sup; must sit below the a priori epsilon when valid
    for n, level, a in ((3, 6, 1), (3, 9, 1), (4, 6, 1)):
        eps = definetti_eps(a, level, n)
        assert eps.valid
        for seed in range(3):
            M = random_msym_state(n, level, seed=seed)
            est = f1_distance_lower_estimate(M, a, trials=8, seed=seed)
            assert 0.0 <= est <= eps.value + 1e-7
    M = random_msym_state(3, 6, seed=0)
    first = f1_distance_lower_estimate(M, 1, trials=4, seed=9)
    again = f1_distance_lower_estimate(M, 1, trials=4, seed=9)
    more = f1_distance_lower_estimate(M, 1, trials=8, seed=9)
    assert first == again
    assert more >= first  # extending trials never loses earlier samples
    with pytest.raises(ValueError):
        f1_distance_lower_estimate(M, 1, trials=0)


def test_signed_density_roundtrip():
    M = random_product_mixture(3, 3, components=3, seed=6)
    parts = p_from_q_coefficients(M)
    assert set(parts) <= {0, 2, 4, 6}
    back = state_from_harmonic_density(3, 3, parts)
    assert np.allclose(back.vec, M.vec, atol=1e-12)
    # and the other way round, starting from harmonic layers
    T = vector_to_poly(3, 4, np.random.default_rng(7).standard_normal(15))
    layers = harmonic_decompose(T).parts
    state = state_from_harmonic_density(3, 2, layers)
    recovered = p_from_q_coefficients(state)
    for j, h in layers.items():
        if h.is_zero():
            assert j not in recovered
            continue
        for mi, coeff in h.coeffs.items():
            assert recovered[j].coeffs[mi] == pytest.approx(coeff, abs=1e-10)
    with pytest.raises(ValueError):
        state_from_harmonic_density(3, 2, {2: layers[4]})


def test_lower_bound_is_sound():
    rng = np.random.default_rng(8)
    for seed in range(3):
        w = rng.standard_normal(15)
        T = vector_to_poly(3, 4, w / np.abs(w).sum())
        M = random_product_mixture(3, 4, components=3, seed=seed)
        lo = lower_bound(T, measure_density(M))
        hi = sphere_maximize(T, restarts=16, seed=0).value
        assert lo <= hi + 1e-9
    with pytest.raises(ValueError):
        lower_bound(homo_poly(3, 3, {(1, 1, 1): 1.0}), measure_density(M))


def test_random_state_generators_are_valid_and_deterministic():
    # at (3, 19) the uniform state is thin, so the mixing weight must stay
    # below one
    for seed in range(4):
        S = random_msym_state(3, 19, seed=seed)
        assert S.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(S.matrix)[0] > 0.0
    for n, level in ((3, 4), (4, 6)):
        A = random_msym_state(n, level, seed=3)
        B = random_msym_state(n, level, seed=3)
        C = random_msym_state(n, level, seed=4)
        assert np.array_equal(A.vec, B.vec)
        assert not np.array_equal(A.vec, C.vec)
        assert A.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(A.matrix)[0] >= -1e-14
        P = random_product_mixture(n, level, seed=3)
        Q = random_product_mixture(n, level, seed=3)
        assert np.array_equal(P.vec, Q.vec)
        assert np.linalg.eigvalsh(P.matrix)[0] >= -1e-12
    with pytest.raises(ValueError):
        random_product_mixture(3, 2, components=0)


def test_solve_and_report_certifies_two_sided_bounds():
    rng = np.random.default_rng(10)
    w = rng.standard_normal(15)
    T = vector_to_poly(3, 4, w / np.abs(w).sum())
    report, solution = solve_and_report(build_relaxation(T, 4))
    assert report.status == "optimal"
    assert report.nu_upper == solution.t_star
    assert report.duality_gap == solution.duality_gap
    assert report.level == 4 and report.n == 3 and report.degree == 4
    oracle = sphere_maximize(T, restarts=24, seed=0).value
    assert report.nu_lower - 1e-9 <= oracle <= report.nu_upper + 1e-9
    assert report.nu_upper - report.nu_lower >= -1e-12
    eps = definetti_eps(2, 4, 3)
    assert report.eps == eps.value and report.eps_valid == eps.valid
    # x1^2 x2^2 peaks at 1/4 on the sphere; level 3 brackets it
    report, _ = solve_and_report(
        build_relaxation(homo_poly(3, 4, {(2, 2, 0): 1.0}), 3))
    assert isinstance(report, BoundsReport)
    assert report.nu_lower <= 0.25 <= report.nu_upper + 1e-8


def test_trace_distance_definition():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2.0
    B = rng.standard_normal((6, 6))
    B = (B + B.T) / 2.0
    d = trace_distance(A, B)
    assert d == pytest.approx(
        0.5 * np.abs(np.linalg.eigvalsh(A - B)).sum(), rel=1e-12)
    assert trace_distance(A, A) == 0.0
    with pytest.raises(ValueError):
        trace_distance(A, np.eye(3))


def test_density_moment_matrix_close_to_reduction():
    M = random_msym_state(3, 8, seed=12)
    approx = moment_matrix_of_density(measure_density(M), 2)
    red = reduced_state(M, 2)
    assert trace_distance(red, approx) <= 2.0 * 4.0 * 3.0 / (16 + 3)
