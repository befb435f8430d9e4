import math

import numpy as np
import pytest

from sphereopt.multiindex import basis_catalog
from sphereopt.polymat import (MaxSymMatrix, evaluate, gradient, homo_poly,
                               multiply_r2, partial_trace_matrix,
                               partial_trace_sym, poly_to_vector,
                               vector_to_poly)

from reference import (dense_number_state, laplacian,
                       laplacian_via_trace_check, poly_to_maxsym_matrix,
                       r2k_poly)


def _random_poly(n, degree, seed):
    rng = np.random.default_rng(seed)
    cat = basis_catalog(n, degree)
    return vector_to_poly(n, degree, rng.standard_normal(len(cat)))


def _product_coords(x, level):
    # number-state coordinates sqrt(level!/i!) x^i of x^{(x)level}
    return np.array([
        math.sqrt(math.factorial(level) / math.prod(map(math.factorial, mi)))
        * float(np.prod(x ** np.array(mi)))
        for mi in basis_catalog(len(x), level).tolist()])


def test_homo_poly_validation():
    T = homo_poly(2, 3, {(3, 0): 1.0, (1, 2): -2.0, (0, 3): 0.0})
    assert len(T.coeffs) == 2  # zero coefficient dropped
    assert T.degree == 3
    with pytest.raises(ValueError):
        homo_poly(2, 3, {(2, 0): 1.0})  # degree mismatch
    with pytest.raises(ValueError):
        homo_poly(2, 3, {(1, 1, 1): 1.0})  # wrong length
    with pytest.raises(ValueError):
        homo_poly(2, 3, {(4, -1): 1.0})  # negative exponent
    with pytest.raises(ValueError):
        homo_poly(0, 1, {})


def test_homo_poly_arithmetic():
    A = homo_poly(2, 2, {(2, 0): 1.0, (1, 1): 2.0})
    B = homo_poly(2, 2, {(1, 1): -2.0, (0, 2): 3.0})
    S = A + B
    assert S.coeffs == homo_poly(2, 2, {(2, 0): 1.0, (0, 2): 3.0}).coeffs
    assert (A - A).is_zero()
    assert A.scaled(0).is_zero()
    assert (-A).coeffs[(2, 0)] == -1.0
    with pytest.raises(ValueError):
        A + homo_poly(2, 4, {(2, 2): 1.0})


def test_catalog_terms_follow_basis_catalog():
    rng = np.random.default_rng(19)
    rows = list(map(tuple, basis_catalog(3, 4).tolist()))
    shuffled = [rows[k] for k in rng.permutation(len(rows))]
    T = homo_poly(3, 4, {e: 1.0 + k for k, e in enumerate(shuffled)})
    assert [e for e, _ in T.catalog_terms()] == rows


def test_evaluate_scalar_and_batch():
    T = homo_poly(3, 2, {(2, 0, 0): 1.0, (0, 1, 1): -4.0})
    x = np.array([1.0, 2.0, 3.0])
    assert evaluate(T, x) == pytest.approx(1.0 - 24.0, abs=1e-13)
    assert T(x) == evaluate(T, x)
    pts = np.array([[1.0, 0, 0], [0, 1.0, 1.0]])
    got = evaluate(T, pts)
    assert got == pytest.approx([1.0, -4.0], abs=1e-13)
    with pytest.raises(ValueError):
        evaluate(T, np.zeros(2))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    T = _random_poly(3, 4, 0)
    x = rng.standard_normal(3)
    g = gradient(T, x)
    h = 1e-6
    for t in range(3):
        e = np.zeros(3)
        e[t] = h
        fd = (evaluate(T, x + e) - evaluate(T, x - e)) / (2 * h)
        assert g[t] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_batched_kernels_match_points_and_termwise_derivative():
    rng = np.random.default_rng(12)
    for n, degree in ((1, 3), (3, 4), (5, 2), (4, 0), (9, 3)):
        T = _random_poly(n, degree, n + degree)
        X = rng.standard_normal((2, 3, n))
        F, G = evaluate(T, X), gradient(T, X)
        assert F.shape == (2, 3) and G.shape == (2, 3, n)
        for idx in np.ndindex(2, 3):
            # a point's result does not depend on the batch around it
            assert F[idx] == evaluate(T, X[idx])
            assert np.array_equal(G[idx], gradient(T, X[idx]))
            want = np.zeros(n)
            for e, c in T.coeffs.items():
                for t in range(n):
                    if e[t]:
                        f = np.array(e)
                        f[t] -= 1
                        want[t] += c * e[t] * np.prod(X[idx] ** f)
            assert G[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)
    zero = homo_poly(3, 4, {})
    assert np.array_equal(evaluate(zero, np.ones((2, 3))), np.zeros(2))
    assert np.array_equal(gradient(zero, np.ones((2, 3))), np.zeros((2, 3)))


def test_r2k_poly_is_one_on_sphere():
    rng = np.random.default_rng(2)
    for n, k in ((2, 3), (4, 2)):
        T = r2k_poly(n, k)
        assert T.degree == 2 * k
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert evaluate(T, x) == pytest.approx(1.0, abs=1e-12)


def test_vector_roundtrip_and_product_state_pairing():
    # <x|^{(x)d} v = T(x): pairing the coordinate vector against the
    # number-state coordinates of |x>^{(x)d} recovers the value.
    rng = np.random.default_rng(7)
    for n, degree in ((2, 4), (3, 3)):
        T = _random_poly(n, degree, 3)
        v = poly_to_vector(T)
        back = vector_to_poly(n, degree, v)
        for mi, a in T.coeffs.items():
            assert back.coeffs[mi] == pytest.approx(a, rel=1e-14)
        x = rng.standard_normal(n)
        xs = _product_coords(x, degree)
        assert float(v @ xs) == pytest.approx(evaluate(T, x), rel=1e-12)


def test_moment_matrix_encoding_matches_dense_oracle():
    # Z = poly_to_maxsym_matrix(T) must satisfy
    # Z[i, j] = <dense(i)| G |dense(j)> where G is the symmetrized
    # coefficient tensor of T acting on the product space.
    for n, a, seed in ((2, 1, 0), (2, 2, 1), (3, 1, 2), (3, 2, 3)):
        T = _random_poly(n, 2 * a, seed)
        Z = poly_to_maxsym_matrix(T)
        size = n ** (2 * a)
        G = np.zeros(size)
        for pos, word in enumerate(
                np.ndindex(*([n] * (2 * a))) if a else [()]):
            counts = [0] * n
            for w in word:
                counts[w] += 1
            mi = tuple(counts)
            coeff = T.coeffs.get(mi)
            if coeff is not None:
                # spread the coefficient evenly over its orbit
                G[pos] = (coeff * math.prod(map(math.factorial, mi))
                          / math.factorial(2 * a))
        G = G.reshape(n ** a, n ** a)
        cat = basis_catalog(n, a).tolist()
        for i, mi in enumerate(cat):
            di = dense_number_state(mi)
            for j, mj in enumerate(cat):
                dj = dense_number_state(mj)
                assert Z.matrix[i, j] == pytest.approx(
                    float(di @ G @ dj), abs=1e-10)


def test_moment_matrix_quadratic_form_equals_poly():
    rng = np.random.default_rng(9)
    for n, a in ((3, 2), (4, 1)):
        T = _random_poly(n, 2 * a, 5)
        Z = poly_to_maxsym_matrix(T)
        x = rng.standard_normal(n)
        xs = _product_coords(x, a)
        assert float(xs @ Z.matrix @ xs) == pytest.approx(
            evaluate(T, x), rel=1e-11, abs=1e-11)


def test_r2_encoding_identity_and_psd():
    # at a = 1 the encoding of x.x is exactly the identity; at higher a it
    # is the symmetrized version: still PSD with unit quadratic form on
    # product states of unit vectors
    for n in (2, 3, 4):
        Z = poly_to_maxsym_matrix(r2k_poly(n, 1))
        assert np.allclose(Z.matrix, np.eye(n), atol=1e-14)
    rng = np.random.default_rng(6)
    for n, a in ((2, 2), (3, 2)):
        Z = poly_to_maxsym_matrix(r2k_poly(n, a))
        w = np.linalg.eigvalsh(Z.matrix)
        assert w[0] > 0.0
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        xs = _product_coords(x, a)
        assert float(xs @ Z.matrix @ xs) == pytest.approx(1.0, abs=1e-12)


def test_matrix_poly_roundtrip():
    T = _random_poly(3, 4, 12)
    M = poly_to_maxsym_matrix(T)
    back = M.to_poly()
    diff = back - T
    assert diff.max_abs_coeff() < 1e-12


def test_from_matrix_is_projection():
    rng = np.random.default_rng(4)
    n, ell = 3, 2
    M0 = MaxSymMatrix(n, ell, rng.standard_normal(
        len(basis_catalog(n, 2 * ell))))
    again = MaxSymMatrix.from_matrix(n, ell, M0.matrix)
    assert np.allclose(again.vec, M0.vec, atol=1e-12)
    # projecting twice equals projecting once
    A = rng.standard_normal(M0.matrix.shape)
    P1 = MaxSymMatrix.from_matrix(n, ell, A)
    P2 = MaxSymMatrix.from_matrix(n, ell, P1.matrix)
    assert np.allclose(P1.vec, P2.vec, atol=1e-12)


def test_trace_matches_matrix_trace():
    rng = np.random.default_rng(8)
    M = MaxSymMatrix(3, 3, rng.standard_normal(
        len(basis_catalog(3, 6))))
    assert M.trace() == pytest.approx(float(np.trace(M.matrix)), rel=1e-12)


def test_multiply_r2_evaluates_identically_off_sphere():
    rng = np.random.default_rng(3)
    T = _random_poly(3, 2, 6)
    S = multiply_r2(T, 2)
    assert S.degree == 6
    x = rng.standard_normal(3) * 1.7
    r2 = float(x @ x)
    assert evaluate(S, x) == pytest.approx(evaluate(T, x) * r2 ** 2,
                                           rel=1e-12)


def test_laplacian_known_values():
    r2 = r2k_poly(3, 1)
    lap = laplacian(r2)
    assert lap.degree == 0
    assert lap.coeffs[(0, 0, 0)] == pytest.approx(6.0)
    harm = homo_poly(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    assert laplacian(harm).is_zero()


def test_laplacian_matches_finite_differences():
    rng = np.random.default_rng(21)
    T = _random_poly(3, 4, 7)
    x = rng.standard_normal(3)
    h = 1e-4
    fd = 0.0
    for t in range(3):
        e = np.zeros(3)
        e[t] = h
        fd += (evaluate(T, x + e) - 2 * evaluate(T, x)
               + evaluate(T, x - e)) / h ** 2
    assert evaluate(laplacian(T), x) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_partial_trace_matrix_matches_dense_reshape():
    # Tracing out one tensor factor of the symmetric embedding agrees with
    # the dense partial trace over the last factor.
    n, ell = 2, 3
    cat = basis_catalog(n, ell).tolist()
    cat_low = basis_catalog(n, ell - 1).tolist()
    dense_hi = np.array([dense_number_state(mi) for mi in cat])
    dense_lo = np.array([dense_number_state(mi) for mi in cat_low])
    rng = np.random.default_rng(13)
    A = rng.standard_normal((len(cat), len(cat)))
    A = A + A.T
    got = partial_trace_matrix(A, n, ell)
    big = dense_hi.T @ A @ dense_hi
    big = big.reshape(n ** (ell - 1), n, n ** (ell - 1), n)
    traced = np.einsum("iaja->ij", big)
    expect = dense_lo @ traced @ dense_lo.T
    assert np.allclose(got, expect, atol=1e-11)


def test_partial_trace_sym_product_state():
    # reducing the rank-one state of a unit vector keeps it rank one:
    # tracing ell - a systems out of |x><x|^{(x)ell} gives |x><x|^{(x)a}
    n, ell, a = 3, 3, 1
    x = np.array([0.6, 0.0, 0.8])
    s_hi = _product_coords(x, ell)
    M = MaxSymMatrix.from_matrix(n, ell, np.outer(s_hi, s_hi))
    red = partial_trace_sym(M, ell - a)
    s_lo = _product_coords(x, a)
    assert red.trace() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red.matrix, np.outer(s_lo, s_lo), atol=1e-12)


def test_partial_trace_sym_identity_at_full_level():
    rng = np.random.default_rng(17)
    M = MaxSymMatrix(3, 2, rng.standard_normal(len(basis_catalog(3, 4))))
    with pytest.raises(ValueError):
        partial_trace_sym(M, 0)
    with pytest.raises(ValueError):
        partial_trace_sym(M, 2)


def test_laplacian_via_trace_check_on_corpus():
    for seed in range(4):
        T = _random_poly(3, 4, 30 + seed)
        assert laplacian_via_trace_check(T)
