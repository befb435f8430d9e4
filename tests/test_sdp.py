import numpy as np
import pytest

import sphereopt.sdp as sdp_module
from sphereopt.multiindex import basis_catalog, sym_dimension
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import _pair_maps, evaluate, homo_poly, vector_to_poly
from sphereopt.sdp import (COND_RATIO_ENV, MAX_P_ENV, SCHUR_COPIES,
                           ResourceGuardError, SolverError,
                           STATUS_MAX_ITERATIONS,
                           STATUS_OPTIMAL, build_relaxation, check_level,
                           extract_sos_certificate, resolve_cond_ratio,
                           resolve_max_p, solve_sdp, uniform_conditioning,
                           _schur_matrix)

from reference import dense_uniform_conditioning, lambda_ratio


def _random_poly(n, degree, seed, normalize=True):
    rng = np.random.default_rng(seed)
    cat = basis_catalog(n, degree)
    w = rng.standard_normal(len(cat))
    if normalize:
        w = w / np.abs(w).sum()
    return vector_to_poly(n, degree, w)


def _quadratic(A):
    n = A.shape[0]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = A[i, j] * (1.0 if i == j else 2.0)
    return homo_poly(n, 2, terms)


def test_build_relaxation_shapes_and_guards():
    T = _random_poly(3, 4, 0)
    prob = build_relaxation(T, 3)
    assert prob.n == 3 and prob.a == 2 and prob.ell == 3
    assert prob.p == sym_dimension(3, 3)
    assert prob.q == sym_dimension(3, 6)
    assert prob.objective.shape == (prob.q,)
    with pytest.raises(ValueError):
        build_relaxation(T, 1)  # level below half the degree
    with pytest.raises(ValueError):
        build_relaxation(homo_poly(3, 3, {(1, 1, 1): 1.0}), 3)  # odd degree
    with pytest.raises(ValueError):
        build_relaxation(homo_poly(3, 4, {}), 3)  # zero polynomial
    with pytest.raises(ResourceGuardError):
        build_relaxation(T, 40)  # p would exceed the default guard


def test_build_relaxation_rejects_padded_overflow():
    # finite coefficients whose padding by r^{2(l - a)} overflows deep down
    T = homo_poly(3, 4, {(2, 2, 0): 1e303, (0, 0, 4): 1.0})
    assert np.isfinite(build_relaxation(T, 2).objective).all()
    with pytest.raises(ValueError, match="overflows"):
        build_relaxation(T, 19)


def test_resolve_max_p_env_override(monkeypatch):
    monkeypatch.delenv(MAX_P_ENV, raising=False)
    assert resolve_max_p() == 512
    assert resolve_max_p(64) == 64
    monkeypatch.setenv(MAX_P_ENV, "900")
    assert resolve_max_p() == 900
    T = _random_poly(6, 2, 1)
    prob = build_relaxation(T, 7)  # p = 792 now fits
    assert prob.p == sym_dimension(6, 7)
    monkeypatch.setenv(MAX_P_ENV, "abc")
    with pytest.raises(ValueError):
        resolve_max_p()
    # a guard below one would refuse every level; reject it by name
    monkeypatch.setenv(MAX_P_ENV, "0")
    with pytest.raises(ValueError, match=MAX_P_ENV):
        resolve_max_p()
    with pytest.raises(ValueError, match="max_p"):
        resolve_max_p(-5)


def test_conditioning_guard(monkeypatch):
    monkeypatch.delenv(COND_RATIO_ENV, raising=False)
    assert resolve_cond_ratio() == 5e-6
    T = _random_poly(2, 4, 5)
    assert build_relaxation(T, 20).p == 21  # deepest level above the floor
    with pytest.raises(ResourceGuardError, match="conditioning"):
        build_relaxation(T, 21)
    monkeypatch.setenv(COND_RATIO_ENV, "1e-9")
    assert resolve_cond_ratio() == 1e-9
    assert build_relaxation(T, 21).p == 22
    monkeypatch.setenv(COND_RATIO_ENV, "1e-12")
    assert resolve_cond_ratio() == 1e-12
    assert build_relaxation(T, 22).p == 23
    monkeypatch.setenv(COND_RATIO_ENV, "abc")
    with pytest.raises(ValueError):
        resolve_cond_ratio()
    monkeypatch.setenv(COND_RATIO_ENV, "0")
    assert build_relaxation(T, 30).p == 31  # zero switches the floor off
    # where a dense eigensolve rounds lambda_min below zero
    check_level(2, 54)


def test_schur_memory_guard(monkeypatch):
    # level 16 in five variables: q = C(36, 4) = 58905, 103 GiB in 4 copies
    q = sym_dimension(5, 32)
    need = SCHUR_COPIES * 8 * q * q
    monkeypatch.setattr(sdp_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(ResourceGuardError, match="physical memory"):
        check_level(5, 16, 5000)
    monkeypatch.setattr(sdp_module, "_physical_memory", lambda: need)
    check_level(5, 16, 5000)
    # where the platform does not report its memory, the guard is skipped
    monkeypatch.setattr(sdp_module, "_physical_memory", lambda: None)
    check_level(5, 16, 5000)


def test_physical_memory_reader():
    memory = sdp_module._physical_memory()
    assert memory is None or (isinstance(memory, int) and memory > 0)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_conditioning_floor_rejects_non_finite_and_negative(monkeypatch,
                                                            value):
    # nan would compare False against every ratio and silently drop the
    # floor; reject it, like inf and negative floors, by name
    T = _random_poly(2, 4, 5)
    monkeypatch.setenv(COND_RATIO_ENV, value)
    with pytest.raises(ValueError, match=COND_RATIO_ENV):
        build_relaxation(T, 20)


def test_uniform_conditioning_decays_exponentially():
    ratios = [uniform_conditioning(2, level) for level in (10, 12, 14, 16)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    for lo, hi in zip(ratios, ratios[1:]):
        # lambda_min halves per level while lambda_max barely moves
        assert hi / lo == pytest.approx(0.25, rel=0.1)
    assert uniform_conditioning(3, 19) > 5e-6
    assert uniform_conditioning(3, 20) < 5e-6


def test_uniform_conditioning_matches_dense_reference():
    eps = np.finfo(float).eps
    for n in range(2, 7):
        level = 0
        # below a ratio of 1e-7 the dense eigensolve, not the closed form,
        # is the inaccurate one
        while (sym_dimension(n, level) <= 500
               and uniform_conditioning(n, level) >= 1e-7):
            # the dense lambda_min is good to a few ulps of lambda_max
            assert uniform_conditioning(n, level) == pytest.approx(
                dense_uniform_conditioning(n, level), rel=1e-9, abs=8 * eps)
            if level % 2 == 0:
                assert uniform_conditioning(n, level) == pytest.approx(
                    lambda_ratio(n, level // 2, level), rel=1e-12)
            level += 1
        assert level >= 7


def test_objective_encoding_pairs_against_moment_matrix():
    # tr(Z M(y)) must equal c . y for the embedded objective
    T = _random_poly(3, 4, 2)
    prob = build_relaxation(T, 3)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(prob.q)
    M = prob.moment_matrix(y)
    Z = prob.objective_matrix()
    assert float(np.sum(Z * M)) == pytest.approx(
        float(prob.objective @ y), rel=1e-11, abs=1e-11)


def test_project_is_adjoint_and_left_inverse():
    T = _random_poly(2, 2, 4)
    prob = build_relaxation(T, 3)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((prob.p, prob.p))
    A = (A + A.T) / 2.0
    v = rng.standard_normal(prob.q)
    lhs = float(np.sum(A * prob.moment_matrix(v)))
    rhs = float(prob.project(A) @ v)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # structural basis matrices are orthonormal, so project o embed = id
    assert np.allclose(prob.project(prob.moment_matrix(v)), v, atol=1e-12)


def test_initial_points_are_strictly_feasible():
    T = _random_poly(3, 4, 5)
    prob = build_relaxation(T, 4)
    y0 = prob.initial_primal()
    assert float(prob.tau @ y0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(prob.moment_matrix(y0))[0] > 0.0
    t0, Z0 = prob.initial_dual()
    assert np.linalg.eigvalsh(Z0)[0] > 0.0
    rd = prob.project(Z0) - t0 * prob.tau + prob.objective
    assert np.abs(rd).max() < 1e-12


def test_schur_matrix_matches_direct_basis_contraction():
    T = _random_poly(2, 2, 6)
    prob = build_relaxation(T, 2)
    rng = np.random.default_rng(6)
    R = rng.standard_normal((prob.p, prob.p))
    Y = R @ R.T + np.eye(prob.p)
    S = _schur_matrix(prob, Y)
    # direct: S[k, m] = tr(B_k Y B_m Y) over the structural basis
    basis = []
    for k in range(prob.q):
        e = np.zeros(prob.q)
        e[k] = 1.0
        basis.append(prob.moment_matrix(e))
    direct = np.array([[float(np.sum(Bk * (Y @ Bm @ Y))) for Bm in basis]
                       for Bk in basis])
    assert np.allclose(S, direct, atol=1e-10)


def test_schur_matrix_chunks_match_direct_contraction(monkeypatch):
    # p = 136, q = 496: the assembly streams blocks of 3 classes.
    prob = build_relaxation(_random_poly(3, 4, 7), 15)
    seen = []

    def spy(problem, Y):
        seen.append(Y)
        return _schur_matrix(problem, Y)

    # the scaling of a few solver iterations spreads diag(S) over decades
    monkeypatch.setattr(sdp_module, "_schur_matrix", spy)
    solve_sdp(prob, max_iterations=5)
    Y = seen[-1]
    S = _schur_matrix(prob, Y)
    direct = np.empty_like(S)
    for k in range(prob.q):
        e = np.zeros(prob.q)
        e[k] = 1.0
        direct[k] = prob.project(Y @ prob.moment_matrix(e) @ Y)
    scale = np.sqrt(np.outer(np.diag(direct), np.diag(direct)))
    assert scale.max() / scale.min() > 1e5
    assert np.all(np.abs(S - direct) <= 1e-13 * scale)


def _dense_basis_schur(problem, Y):
    # The assembly before the column gather: the 0/1 class matrices B_k
    # built densely in chunks and two GEMMs per chunk.
    p, q = problem.p, problem.q
    KK, WW, _ = _pair_maps(problem.n, problem.ell)
    kflat = KK.ravel()
    order = np.argsort(kflat, kind="stable")
    starts = np.searchsorted(kflat[order], np.arange(q))
    wflat = WW.ravel()
    wsorted = wflat[order]
    bounds = np.append(starts, p * p)
    counts = np.diff(bounds)
    chunk = max(4, min(q, 1 + 4_000_000 // (p * p)))
    S = np.empty((q, q))
    for k0 in range(0, q, chunk):
        k1 = min(k0 + chunk, q)
        nc = k1 - k0
        lo, hi = bounds[k0], bounds[k1]
        B = np.zeros((nc, p * p))
        rows = np.repeat(np.arange(nc), counts[k0:k1])
        B[rows, order[lo:hi]] = wsorted[lo:hi]
        G = np.matmul(np.matmul(Y, B.reshape(nc, p, p)), Y)
        flat = G.reshape(nc, p * p) * wflat
        S[k0:k1, :] = np.add.reduceat(flat.take(order, axis=1),
                                      starts, axis=1)
    return (S + S.T) / 2.0


@pytest.mark.parametrize("n, degree, level", [
    (3, 4, 15),  # p = 136: 3 classes per block, ragged last block
    (10, 4, 2),  # p = 55: many classes per block
    (6, 4, 3),
    (2, 4, 20),  # p = 21: a single block
    (3, 6, 3),   # degree 6
])
def test_schur_matrix_bitwise_equals_dense_basis_assembly(monkeypatch, n,
                                                          degree, level):
    # Every iterate depends on the bits of S; the gathered Y B_k must
    # reproduce the dense product exactly on every Y a solve produces.
    prob = build_relaxation(_random_poly(n, degree, 7), level)
    seen = []

    def spy(problem, Y):
        seen.append(Y)
        return _schur_matrix(problem, Y)

    monkeypatch.setattr(sdp_module, "_schur_matrix", spy)
    solve_sdp(prob)
    assert len(seen) >= 5
    for Y in seen:
        assert np.array_equal(_schur_matrix(prob, Y),
                              _dense_basis_schur(prob, Y))


def test_solve_quadratic_matches_eigenvalue():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        sol = solve_sdp(build_relaxation(_quadratic(A), 1))
        assert sol.status == STATUS_OPTIMAL
        assert sol.nu_ell == pytest.approx(float(np.linalg.eigvalsh(A)[-1]),
                                           abs=1e-7)


def test_solve_known_quartic_value():
    # max of x1^2 x2^2 on the sphere is 1/4, already tight at level 2
    T = homo_poly(3, 4, {(2, 2, 0): 1.0})
    sol = solve_sdp(build_relaxation(T, 2))
    assert sol.status == STATUS_OPTIMAL
    assert sol.nu_ell == pytest.approx(0.25, abs=1e-7)
    assert sol.t_star >= sol.nu_ell - 1e-12
    assert sol.duality_gap <= 1e-8


def test_solution_brackets_oracle_and_is_feasible():
    T = _random_poly(3, 4, 8)
    sol = solve_sdp(build_relaxation(T, 4))
    assert sol.status == STATUS_OPTIMAL
    res = sphere_maximize(T, restarts=16, seed=0)
    assert res.value <= sol.t_star + 1e-8
    assert sol.primal_residual <= 1e-10
    assert sol.dual_residual <= 1e-10
    assert np.linalg.eigvalsh(sol.M_star.matrix)[0] >= -1e-12
    assert np.linalg.eigvalsh((sol.Z_star + sol.Z_star.T) / 2.0)[0] >= -1e-12


def test_solver_is_bitwise_deterministic():
    T = _random_poly(3, 4, 9)
    a = solve_sdp(build_relaxation(T, 4))
    b = solve_sdp(build_relaxation(T, 4))
    assert a.nu_ell == b.nu_ell
    assert a.t_star == b.t_star
    assert a.iterations == b.iterations
    assert np.array_equal(a.M_star.vec, b.M_star.vec)
    assert np.array_equal(a.Z_star, b.Z_star)


def test_solver_validates_inputs_and_budget():
    T = _random_poly(2, 2, 10)
    prob = build_relaxation(T, 2)
    with pytest.raises(ValueError):
        solve_sdp(prob, tol=1e-1)
    with pytest.raises(ValueError):
        solve_sdp(prob, tol=1e-12)
    with pytest.raises(ValueError):
        solve_sdp(prob, max_iterations=0)
    short = solve_sdp(prob, max_iterations=2)
    assert short.status == STATUS_MAX_ITERATIONS
    assert short.iterations == 2


def test_certificate_reconstructs_gap_polynomial():
    T = _random_poly(3, 4, 11)
    sol = solve_sdp(build_relaxation(T, 3))
    assert sol.status == STATUS_OPTIMAL
    cert = extract_sos_certificate(sol)
    assert cert
    assert all(w > 0 for w, _ in cert)
    assert all(piece.degree == 3 for _, piece in cert)
    weights = [w for w, _ in cert]
    assert weights == sorted(weights, reverse=True)
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for x in pts[:20]:
        lhs = sol.t_star - evaluate(T, x)
        rhs = sum(w * evaluate(piece, x) ** 2 for w, piece in cert)
        assert lhs == pytest.approx(rhs, abs=5e-8)


def test_certificate_requires_optimal_status():
    T = _random_poly(3, 4, 13)
    sol = solve_sdp(build_relaxation(T, 3), max_iterations=1)
    with pytest.raises(SolverError):
        extract_sos_certificate(sol)


def test_higher_level_never_larger_within_gap():
    T = _random_poly(3, 4, 14)
    lo = solve_sdp(build_relaxation(T, 2))
    hi = solve_sdp(build_relaxation(T, 3))
    assert hi.nu_ell <= lo.t_star + 1e-9
