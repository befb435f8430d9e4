import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs

import sphereopt.sdp as sdp_module
from sphereopt.multiindex import basis_catalog, sym_dimension
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import (_pair_maps, _schur_layout, evaluate, homo_poly,
                               vector_to_poly)
from sphereopt.sdp import (SCHUR_MEMORY_FRACTION, ResourceGuardError,
                           SolverError, STATUS_MAX_ITERATIONS,
                           STATUS_NUMERICAL_FAILURE, STATUS_OPTIMAL,
                           build_relaxation, check_level,
                           extract_sos_certificate, gap_closed, resolve_max_p,
                           solve_sdp, uniform_conditioning, _factor_schur,
                           _max_steps, _schur_matrix)

from reference import dense_uniform_conditioning, lambda_ratio, quadratic_poly


def _random_poly(n, degree, seed, normalize=True):
    rng = np.random.default_rng(seed)
    cat = basis_catalog(n, degree)
    w = rng.standard_normal(len(cat))
    if normalize:
        w = w / np.abs(w).sum()
    return vector_to_poly(n, degree, w)


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


def test_resolve_max_p_env_override():
    assert resolve_max_p() == 512
    assert resolve_max_p(64) == 64
    assert resolve_max_p(900) == 900
    T = _random_poly(6, 2, 1)
    with pytest.raises(ResourceGuardError, match="--max-p"):
        build_relaxation(T, 7)  # p = 792 is above the default guard
    prob = build_relaxation(T, 7, max_p=900)  # and fits under 900
    assert prob.p == sym_dimension(6, 7)
    with pytest.raises(ValueError):
        resolve_max_p("abc")
    # a guard below one would refuse every level; reject it by name
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_p") as info:
            resolve_max_p(bad)
        assert "--max-p" in str(info.value)


def test_conditioning_guard(monkeypatch):
    assert sdp_module.DEFAULT_MIN_COND_RATIO == 5e-6
    T = _random_poly(2, 4, 5)
    assert build_relaxation(T, 20).p == 21  # deepest level above the floor
    with pytest.raises(ResourceGuardError, match="conditioning"):
        build_relaxation(T, 21)
    # check_level reads the floor from the module at call time
    monkeypatch.setattr(sdp_module, "DEFAULT_MIN_COND_RATIO", 1e-9)
    assert build_relaxation(T, 21).p == 22
    monkeypatch.setattr(sdp_module, "DEFAULT_MIN_COND_RATIO", 1e-12)
    assert build_relaxation(T, 22).p == 23
    monkeypatch.setattr(sdp_module, "DEFAULT_MIN_COND_RATIO", 0.0)
    assert build_relaxation(T, 30).p == 31  # zero switches the floor off
    # where a dense eigensolve rounds lambda_min below zero
    check_level(2, 54)


def test_schur_memory_guard(monkeypatch):
    # level 16 in five variables: q = C(36, 4) = 58905, 25.9 GiB in one
    # matrix, admitted with at least twice that much physical memory
    q = sym_dimension(5, 32)
    need = 8 * q * q
    assert SCHUR_MEMORY_FRACTION == 0.5
    monkeypatch.setattr(sdp_module, "_physical_memory",
                        lambda: 2 * need - 1)
    with pytest.raises(ResourceGuardError,
                       match="50% of the .* physical memory"):
        check_level(5, 16, 5000)
    monkeypatch.setattr(sdp_module, "_physical_memory", lambda: 2 * need)
    check_level(5, 16, 5000)
    # where the platform does not report its memory, the guard is skipped
    monkeypatch.setattr(sdp_module, "_physical_memory", lambda: None)
    check_level(5, 16, 5000)


def test_physical_memory_reader():
    memory = sdp_module._physical_memory()
    assert memory is None or (isinstance(memory, int) and memory > 0)


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
    Z = prob.objective_matrix
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

    def spy(problem, Y, out):
        seen.append(Y)
        return _schur_matrix(problem, Y, out)

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


def test_problems_of_one_shape_share_the_schur_layout(monkeypatch):
    # the class-sorted layout depends on (n, level) alone: two objectives
    # of one shape get the very same read-only arrays
    layouts = []

    def spy(n, level):
        layouts.append(_schur_layout(n, level))
        return layouts[-1]

    monkeypatch.setattr(sdp_module, "_schur_layout", spy)
    first = build_relaxation(_random_poly(3, 4, 8), 3)
    second = build_relaxation(_random_poly(3, 2, 9), 3)
    other = build_relaxation(_random_poly(4, 4, 8), 3)
    Y = np.eye(first.p)
    _schur_matrix(first, Y)
    _schur_matrix(second, Y)
    _schur_matrix(other, np.eye(other.p))
    assert len(layouts) == 3
    assert all(a is b for a, b in zip(layouts[0], layouts[1]))
    assert not any(a is c for a, c in zip(layouts[0], layouts[2]))
    order, bounds, counts, rows, cols, weights = layouts[0]
    assert not any(arr.flags.writeable for arr in layouts[0])
    # the layout is the stable class sort of the pair maps
    KK, WW, _ = _pair_maps(3, 3)
    assert np.array_equal(order, np.argsort(KK.ravel(), kind="stable"))
    assert bounds[0] == 0 and bounds[-1] == first.p ** 2
    assert len(bounds) == first.q + 1
    assert np.array_equal(counts, np.diff(bounds)) and counts.min() >= 1
    assert np.array_equal(KK[rows, cols], np.repeat(np.arange(first.q),
                                                    counts))
    assert np.array_equal(weights, WW[rows, cols])


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

    def spy(problem, Y, out):
        seen.append(Y)
        return _schur_matrix(problem, Y, out)

    monkeypatch.setattr(sdp_module, "_schur_matrix", spy)
    solve_sdp(prob)
    assert len(seen) >= 5
    for Y in seen:
        assert np.array_equal(_schur_matrix(prob, Y),
                              _dense_basis_schur(prob, Y))


def _wrapper_factor_schur(S):
    # _factor_schur through the scipy.linalg wrappers, with the old
    # equilibration; also returns the shift that factored
    scale = 1.0 / np.sqrt(np.diag(S))
    Se = S * scale[:, None] * scale[None, :]
    idx = np.diag_indices_from(Se)
    applied = 0.0
    for shift in (0.0, 1e-14, 1e-10, 1e-6):
        Se[idx] += shift - applied
        applied = shift
        try:
            cho = cho_factor(Se, lower=True)
        except np.linalg.LinAlgError:
            continue
        return (lambda rhs: scale * cho_solve(cho, scale * rhs)), shift
    return None, None


def _solve_spied(monkeypatch, n, level):
    # the Schur matrices and the dtrtrs calls of one solve
    schur, triangular = [], []

    def schur_spy(problem, Y, out):
        # the solve factors S in place, so keep a copy
        S = _schur_matrix(problem, Y, out)
        schur.append(S.copy())
        return S

    def trtrs_spy(a, b, **kwargs):
        got = dtrtrs(a, b, **kwargs)
        triangular.append((a, b, got[0]))
        return got

    monkeypatch.setattr(sdp_module, "_schur_matrix", schur_spy)
    monkeypatch.setattr(sdp_module, "dtrtrs", trtrs_spy)
    prob = build_relaxation(_random_poly(n, 4, 0), level)
    solution = solve_sdp(prob)
    assert solution.status == STATUS_OPTIMAL
    return prob, schur, triangular


# (3, 4, 15) with seed 0 steps the shift ladder in its last iterations
@pytest.mark.parametrize("n, level, min_steps", [(3, 15, 1), (10, 2, 0),
                                                 (6, 3, 0)])
def test_lapack_calls_bitwise_equal_scipy_wrappers(monkeypatch, n, level,
                                                   min_steps):
    prob, schur, triangular = _solve_spied(monkeypatch, n, level)
    rng = np.random.default_rng(level)
    steps = 0
    for S in schur:
        # the in-place equilibration of _factor_schur, against the old
        # expression
        scale = 1.0 / np.sqrt(np.diag(S))
        Se = S * scale[:, None]
        Se *= scale
        assert np.array_equal(Se, S * scale[:, None] * scale[None, :])
        W = S.copy()
        solve = _factor_schur(W)
        reference, shift = _wrapper_factor_schur(S)
        steps += shift > 0.0
        for rhs in (prob.tau, rng.standard_normal(prob.q)):
            assert np.array_equal(solve(rhs), reference(rhs))
        # the unscaled matrix stays in the strict lower triangle
        assert np.array_equal(np.tril(W, -1), np.tril(S, -1))
    assert steps >= min_steps
    assert len(triangular) == len(schur)
    for a, b, Linv in triangular:
        assert np.array_equal(b, np.eye(prob.p))
        assert np.array_equal(Linv, solve_triangular(a.T, b, lower=True))


def _ladder_case(lam, expected):
    # smallest eigenvalue lam on a diagonal near 1.5: the equilibrated
    # matrix fails at every shift below the expected one, and each failed
    # dpotrf has overwritten part of the equilibrated triangle, which the
    # next step rebuilds
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    w = np.linspace(1.0, 2.0, 40)
    w[0] = lam
    S = (Q * w) @ Q.T
    S = (S + S.T) / 2.0
    W = S.copy()
    solve = _factor_schur(W)
    reference, shift = _wrapper_factor_schur(S)
    assert shift == expected
    rhs = rng.standard_normal(40)
    assert np.array_equal(solve(rhs), reference(rhs))
    assert np.array_equal(np.tril(W, -1), np.tril(S, -1))
    return S


def test_lapack_shift_ladder_steps_bitwise_like_the_wrappers():
    # fails at shifts 0 and 1e-14: the triangle is rebuilt twice
    S = _ladder_case(-1e-12, 1e-10)
    # indefinite beyond the last shift: no factor either way
    assert _factor_schur(S - 0.1 * np.eye(40)) is None
    assert _wrapper_factor_schur(S - 0.1 * np.eye(40)) == (None, None)


def test_lapack_shift_ladder_reaches_the_last_shift_bitwise():
    # fails at shifts 0, 1e-14 and 1e-10: rebuilt three times
    _ladder_case(-1e-8, 1e-6)


@pytest.mark.parametrize("q, band_entries", [(7, 2**16), (40, 2**16),
                                             (41, 1), (41, 82), (715, 2**16)])
def test_in_place_symmetrize_and_equilibrate_bitwise(monkeypatch, q,
                                                     band_entries):
    # one band, bands of one row, of two rows and of 91 rows (the last two
    # ragged) against the out-of-place expressions of the dense formulation
    monkeypatch.setattr(sdp_module, "BAND_ENTRIES", band_entries)
    rng = np.random.default_rng(q)
    A = rng.standard_normal((q, q)) * np.exp(rng.uniform(-20, 20, (q, q)))
    S = (A + A.T) / 2.0
    W = A.copy()
    sdp_module._symmetrize(W)
    assert np.array_equal(W, S)
    dg = np.abs(np.diag(S)) + 1.0
    np.einsum("ii->i", S)[:] = dg
    np.einsum("ii->i", W)[:] = dg
    scale = 1.0 / np.sqrt(dg)
    Se = S * scale[:, None]
    Se *= scale
    sdp_module._equilibrate(W, scale, np.diag(Se) + 1e-14)
    np.einsum("ii->i", Se)[:] += 1e-14
    # dpotrf(lower) reads Se over i >= j, which W holds transposed
    assert np.array_equal(np.triu(W), np.tril(Se).T)
    assert np.array_equal(np.tril(W, -1), np.tril(S, -1))


def test_factor_schur_factors_in_place_bitwise():
    # dpotrf works on the argument's memory: the upper triangle of W is
    # the transposed factor of the equilibrated matrix
    rng = np.random.default_rng(5)
    A = rng.standard_normal((60, 60))
    S = A @ A.T + np.eye(60)
    S = (S + S.T) / 2.0
    W = S.copy()
    assert _factor_schur(W) is not None
    scale = 1.0 / np.sqrt(np.diag(S))
    reference = cho_factor(S * scale[:, None] * scale[None, :],
                           lower=True)[0]
    assert np.array_equal(np.triu(W).T, np.tril(reference))
    assert np.array_equal(np.tril(W, -1), np.tril(S, -1))


def test_solve_holds_one_schur_matrix():
    # n = 10 at level 2: q = 715, one q x q matrix is 4.1 MB; assembling,
    # symmetrizing, equilibrating and factoring S all happen in it
    prob = build_relaxation(_random_poly(10, 4, 1), 2)
    q = prob.q
    assert q == 715
    tracemalloc.start()
    try:
        solution = solve_sdp(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution.status == STATUS_OPTIMAL
    assert peak < 2 * 8 * q * q


@pytest.mark.parametrize("p", [6, 55, 136])
def test_max_steps_bitwise_equal_one_matrix_at_a_time(p):
    # the stacked eigvalsh of the step search against one call per matrix
    rng = np.random.default_rng(p)
    d = rng.uniform(1e-8, 1.0, p)
    sq = np.sqrt(d)
    for _ in range(5):
        pair = []
        for _ in range(2):
            A = rng.standard_normal((p, p))
            pair.append((A + A.T) / 2.0)
        expected = []
        for A in pair:
            lo = float(np.linalg.eigvalsh(A / sq[:, None] / sq[None, :])[0])
            expected.append(np.inf if lo >= -1e-14 else 1.0 / (-lo))
        assert _max_steps(d, *pair) == tuple(expected)
    assert _max_steps(d, np.eye(p), -np.eye(p))[0] == np.inf


def test_factor_schur_keeps_the_wrappers_finiteness_checks(monkeypatch):
    # _factor_schur reads the lower triangle of the symmetric Schur matrix;
    # the equilibrated matrix is checked before it is factored, as the
    # wrappers check it (a LAPACK that tests pivots for NaN would otherwise
    # step the ladder and return None)
    def refuse(*args, **kwargs):
        raise AssertionError("dpotrf called on a non-finite matrix")

    for entries in (((0, 2), (2, 0)), ((2, 0),)):
        S = np.eye(4) + 0.1
        for ij in entries:
            S[ij] = np.nan  # off the diagonal: dpotrf alone would factor it
        with monkeypatch.context() as patch:
            patch.setattr(sdp_module, "dpotrf", refuse)
            with pytest.raises(ValueError,
                               match="must not contain infs or NaNs"):
                _factor_schur(S)
    solve = _factor_schur(np.eye(4) + 0.1)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solve(np.array([1.0, np.inf, 0.0, 0.0]))


def _probe(tmp_path, code, *args):
    """Run code in a fresh interpreter; return its last stdout line as JSON.

    pytest has imported scipy.linalg in this process already, so how sdp
    binds its LAPACK routines from a cold start shows only in a new one.
    """
    src = pathlib.Path(sdp_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    got = subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    assert got.stderr == ""
    return json.loads(got.stdout.splitlines()[-1])


# prints where the loaded extension lives and whether sdp's routines are
# the ones scipy.linalg.lapack exports
LAPACK_ORIGIN = """
import json, sys
flapack = sys.modules["scipy.linalg._flapack"]
print(json.dumps({
    "file": flapack.__file__,
    "same": [getattr(sdp, f) is getattr(lapack, f)
             for f in ("dpotrf", "dpotrs", "dtrtrs")]}))
"""


def test_lapack_routines_are_scipys_in_either_import_order(tmp_path):
    # sdp registers the module it loads, and scipy.linalg then uses it
    sdp_first = _probe(tmp_path,
                       "import sys\n"
                       "import sphereopt.sdp as sdp\n"
                       "assert 'scipy.linalg' not in sys.modules\n"
                       "loaded = sys.modules['scipy.linalg._flapack']\n"
                       "import scipy.linalg.lapack as lapack\n"
                       "assert lapack._flapack is loaded\n"
                       + LAPACK_ORIGIN)
    # sdp reuses the loaded module and never looks for the file
    scipy_first = _probe(tmp_path,
                         "import scipy.linalg.lapack as lapack\n"
                         "import importlib.machinery\n"
                         "importlib.machinery.FileFinder = None\n"
                         "import sphereopt.sdp as sdp\n" + LAPACK_ORIGIN)
    assert sdp_first["same"] == scipy_first["same"] == [True] * 3
    assert sdp_first["file"] == scipy_first["file"]
    assert pathlib.Path(sdp_first["file"]).parent.name == "linalg"


# a random quartic in 6 variables at level 3 (p = 56, q = 462); y, t and Z
# go to the .npz file named by the first argument
LAPACK_SOLVE = """
import json, sys
import numpy as np
import sphereopt.sdp as sdp
from sphereopt.multiindex import basis_catalog
from sphereopt.polymat import vector_to_poly
linalg_loaded = "scipy.linalg" in sys.modules
from scipy.linalg import lapack
w = np.random.default_rng(0).standard_normal(len(basis_catalog(6, 4)))
T = vector_to_poly(6, 4, w / np.abs(w).sum())
sol = sdp.solve_sdp(sdp.build_relaxation(T, 3))
np.savez(sys.argv[1], y=sol.M_star.vec, t=sol.t_star, Z=sol.Z_star)
print(json.dumps({
    "status": sol.status,
    "linalg_loaded": linalg_loaded,
    "same": [getattr(sdp, f) is getattr(lapack, f)
             for f in ("dpotrf", "dpotrs", "dtrtrs")]}))
"""

# each makes the extension-file route fail before sdp loads, which leaves
# the public scipy.linalg.lapack
LAPACK_FALLBACKS = {
    # the import system keeps its own list of suffixes
    "finder_misses": (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"),
    "load_raises": (
        "import importlib.util\n"
        "def refuse(spec):\n"
        "    raise ImportError('refused')\n"
        "importlib.util.module_from_spec = refuse\n"),
}


@pytest.mark.parametrize("fallback", sorted(LAPACK_FALLBACKS))
def test_lapack_fallback_binds_the_public_routines_bitwise(tmp_path,
                                                           fallback):
    direct = _probe(tmp_path, LAPACK_SOLVE, "direct.npz")
    public = _probe(tmp_path, LAPACK_FALLBACKS[fallback] + LAPACK_SOLVE,
                    "fallback.npz")
    expected = {"status": STATUS_OPTIMAL, "same": [True] * 3}
    assert direct == dict(expected, linalg_loaded=False)
    assert public == dict(expected, linalg_loaded=True)
    a, b = np.load(tmp_path / "direct.npz"), np.load(tmp_path / "fallback.npz")
    for key in ("y", "t", "Z"):
        assert np.array_equal(a[key], b[key]), key


def test_solve_quadratic_matches_eigenvalue():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        sol = solve_sdp(build_relaxation(quadratic_poly(A), 1))
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


def test_gap_rule_at_its_boundary():
    # the gap closes up to tol times max(1, |value|), and not a float above
    tol = 1e-8
    for value in (0.0, 0.5, -0.999, 1.0):
        assert gap_closed(tol, value, tol)
        assert not gap_closed(math.nextafter(tol, 1.0), value, tol)
    for value in (4.0, -250.0, 1e6):
        bound = tol * abs(value)
        assert gap_closed(bound, value, tol)
        assert not gap_closed(math.nextafter(bound, math.inf), value, tol)


def test_solver_stops_by_the_gap_rule(monkeypatch):
    prob = build_relaxation(_random_poly(3, 4, 12), 2)
    sol = solve_sdp(prob)
    assert sol.status == STATUS_OPTIMAL
    monkeypatch.setattr(sdp_module, "gap_closed", lambda *args: False)
    held = solve_sdp(prob, max_iterations=sol.iterations)
    assert held.status == STATUS_MAX_ITERATIONS
    assert held.t_star == sol.t_star


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


def _refuse_after(k):
    # a candidate that has no Cholesky factor for its first k trials
    alphas = []

    def candidate(alpha):
        alphas.append(alpha)
        return alpha, "X", None if len(alphas) <= k else "L"

    return candidate, alphas


def test_backtrack_accepts_the_first_trial():
    candidate, alphas = _refuse_after(0)
    assert sdp_module._backtrack(candidate, 0.9, "current") == (
        (0.9, "X", "L"), 0.9)
    assert alphas == [0.9]


@pytest.mark.parametrize("k", [1, 2, 5, 30])
def test_backtrack_accepts_after_k_shrinks_at_alpha_times_0_7_to_the_k(k):
    candidate, alphas = _refuse_after(k)
    expected = [0.93]
    for _ in range(k):
        expected.append(expected[-1] * 0.7)
    got, alpha = sdp_module._backtrack(candidate, 0.93, "current")
    assert alphas == expected
    assert alpha == expected[-1] and got == (alpha, "X", "L")


def test_backtrack_freezes_a_side_that_never_factors():
    candidate, alphas = _refuse_after(10**6)
    current = object()
    got, alpha = sdp_module._backtrack(candidate, 1.0, current)
    assert got is current and alpha == 0.0
    # 0.7^45 > 1e-7 > 0.7^46: the 47th trial is the last
    assert len(alphas) == 47
    assert alphas[-2] >= 1e-7 > alphas[-1] == 0.7 ** 46


def _maximally_symmetric(problem, A):
    # the structural basis is orthonormal, so embedding the projection is
    # the orthogonal projection onto the maximally symmetric subspace
    return np.allclose(problem.moment_matrix(problem.project(A)), A,
                       rtol=0.0, atol=1e-12 * np.abs(A).max())


def _refusing_cholesky(monkeypatch, problem, refuse):
    """Refuse the factor of every candidate on the sides named in refuse.

    The start's two matrices factor as before.  A primal candidate M(y) is
    maximally symmetric; a dual one, t I - Z + Zbar with Zbar != 0, is not
    (the level must be at least 2).  Returns the trials per side.
    """
    start = (problem.moment_matrix(problem.initial_primal()),
             problem.initial_dual()[1])
    trials = {"primal": 0, "dual": 0}
    factor = sdp_module._cholesky

    def cholesky(A):
        if any(np.array_equal(A, B) for B in start):
            return factor(A)
        side = "primal" if _maximally_symmetric(problem, A) else "dual"
        trials[side] += 1
        return None if side in refuse else factor(A)

    monkeypatch.setattr(sdp_module, "_cholesky", cholesky)
    return trials


def _start(problem):
    return problem.initial_primal(), problem.initial_dual()


def test_solve_fails_at_once_when_the_schur_matrix_has_no_factor(
        monkeypatch):
    prob = build_relaxation(_random_poly(3, 4, 21), 2)
    y0, (t0, Z0) = _start(prob)
    monkeypatch.setattr(sdp_module, "_factor_schur", lambda S: None)
    sol = solve_sdp(prob)
    assert sol.status == STATUS_NUMERICAL_FAILURE
    assert sol.iterations == 1
    assert np.array_equal(sol.M_star.vec, y0)
    assert np.array_equal(sol.Z_star, Z0) and sol.t_star == t0


def test_both_sides_freeze_in_the_corrector_and_the_rescue(monkeypatch):
    prob = build_relaxation(_random_poly(3, 4, 22), 2)
    y0, (t0, Z0) = _start(prob)
    trials = _refusing_cholesky(monkeypatch, prob, ("primal", "dual"))
    sol = solve_sdp(prob)
    assert sol.status == STATUS_NUMERICAL_FAILURE
    assert sol.iterations == 1
    # a search from a fraction of at most 1 freezes by its 47th trial, so
    # more than 47 trials on a side means it was searched twice: in the
    # corrector and in the rescue
    assert 47 < trials["primal"] <= 2 * 47
    assert 47 < trials["dual"] <= 2 * 47
    assert np.array_equal(sol.M_star.vec, y0)
    assert np.array_equal(sol.Z_star, Z0) and sol.t_star == t0


@pytest.mark.parametrize("frozen", ["primal", "dual"])
def test_one_frozen_side_keeps_its_iterate_while_the_other_moves(
        monkeypatch, frozen):
    prob = build_relaxation(_random_poly(3, 4, 23), 2)
    y0, (t0, Z0) = _start(prob)
    trials = _refusing_cholesky(monkeypatch, prob, (frozen,))
    sol = solve_sdp(prob, max_iterations=2)
    assert sol.status == STATUS_MAX_ITERATIONS and sol.iterations == 2
    # the frozen side is searched down past 1e-7 in both iterations, the
    # moving side's corrector is accepted at its first trial, and no
    # rescue runs
    assert 47 < trials[frozen] <= 2 * 47
    assert trials["dual" if frozen == "primal" else "primal"] == 2
    primal_kept = np.array_equal(sol.M_star.vec, y0)
    dual_kept = np.array_equal(sol.Z_star, Z0) and sol.t_star == t0
    assert (primal_kept, dual_kept) == (frozen == "primal",
                                        frozen == "dual")
