"""End-to-end acceptance checks for the advertised guarantees.

Each test exercises one user-facing promise of the package on a seeded
corpus, prints a single PASS/FAIL summary line (visible under pytest
capture) with the key statistic and the wall-clock time, and then
asserts the guarantee at its stated tolerance.  Budgets assume one
commodity core.

The level used by the high-level certificate test can be overridden
through the SPHEREOPT_ACCEPT5_LEVEL environment variable on machines
where the default is too expensive.
"""

import io
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import binom, eval_gegenbauer

from sphereopt import cli
from sphereopt.definetti import definetti_eps, solve_and_report
from sphereopt.multiindex import basis_catalog, sym_dimension
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import homo_poly, vector_to_poly
from sphereopt.reduction import canonicalize, gamma_factor, pullback_bounds
from sphereopt.sdp import build_relaxation, solve_sdp

from reference import (definetti_trace_check, dense_number_state,
                       funk_hecke_residual, harmonic_decompose,
                       lambda_coeff, p_from_q_coefficients,
                       poly_to_maxsym_matrix, quadratic_poly,
                       random_msym_state, random_product_mixture,
                       state_from_harmonic_density, surface_area)


def _announce(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def _random_poly(n, degree, seed):
    """Random homogeneous polynomial with unit coefficient l1 norm."""
    rng = np.random.default_rng(seed)
    raw = vector_to_poly(n, degree,
                         rng.standard_normal(sym_dimension(n, degree)))
    scale = sum(abs(c) for c in raw.coeffs.values())
    return raw.scaled(1.0 / scale)


def test_01_quadratic_level_is_exact(capsys):
    # the first relaxation level of x'Ax must reproduce the top eigenvalue
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    failures = []
    for k in range(50):
        n = (2, 3, 4)[k % 3]
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        sol = solve_sdp(build_relaxation(quadratic_poly(A), 1))
        if sol.status != "optimal":
            failures.append(f"instance {k}: status {sol.status}")
            continue
        err = abs(sol.nu_ell - float(np.linalg.eigvalsh(A)[-1]))
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"instance {k}: error {err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _announce(capsys, ok, "01 quadratic level exact",
              f"50 instances, max |nu_1 - lambda_max| = {worst:.2e}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 10.0


def test_02_kernel_coefficients_match_quadrature(capsys):
    # closed form against adaptive quadrature of the defining integral
    t0 = time.perf_counter()

    def reference(n, level, j):
        alpha = (n - 2) / 2.0
        norm = binom(j + n - 3, j)

        def integrand(t):
            return (t ** (2 * level) * eval_gegenbauer(j, alpha, t) / norm
                    * (1.0 - t * t) ** ((n - 3) / 2.0))

        val, _ = quad(integrand, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        return val

    worst = 0.0
    failures = []
    for n in range(3, 9):
        for level in range(0, 11):
            for j in range(0, 2 * level + 1, 2):
                err = abs(lambda_coeff(n, level, j) - reference(n, level, j))
                worst = max(worst, err)
                if err > 1e-9:
                    failures.append(f"(n={n}, l={level}, j={j}): {err:.2e}")
            for j in range(1, 2 * level + 2, 2):
                if lambda_coeff(n, level, j) != 0.0:
                    failures.append(f"odd j={j} not exactly zero")
            for j in range(2 * level + 2, 2 * level + 7, 2):
                if lambda_coeff(n, level, j) != 0.0:
                    failures.append(f"j={j} > 2l not exactly zero")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _announce(capsys, ok, "02 kernel coefficients",
              f"n in 3..8, levels to 10, max |closed - quad| = {worst:.2e}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 5.0


def test_03_harmonic_kernel_action(capsys):
    # the even-power kernel acts on harmonics by a scalar; residual by
    # exact monomial moments on both sides
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    corpus = [homo_poly(3, 0, {(0, 0, 0): 1.0}),
              homo_poly(3, 2, {(1, 1, 0): 1.0}),
              homo_poly(3, 2, {(2, 0, 0): 1.0, (0, 0, 2): -1.0})]
    for degree, count in ((2, 3), (4, 3)):
        for k in range(count):
            T = _random_poly(3, degree, 1030 + 10 * degree + k)
            h = harmonic_decompose(T).parts[degree]
            corpus.append(h.scaled(1.0 / max(map(abs, h.coeffs.values()))))
    worst = 0.0
    failures = []
    for f in corpus:
        for level in range(1, 6):
            for _ in range(2):
                y = rng.standard_normal(3)
                y /= np.linalg.norm(y)
                res = funk_hecke_residual(f, level, y)
                worst = max(worst, res)
                if res >= 1e-9:
                    failures.append(
                        f"degree {f.degree}, level {level}: {res:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _announce(capsys, ok, "03 harmonic kernel action",
              f"{len(corpus)} harmonics, levels 1..5, max residual = "
              f"{worst:.2e}, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 10.0


def test_04_reduction_vs_measure_trace_bound(capsys):
    # reducing a symmetric state and integrating its induced measure give
    # matrices within the dimension-explicit trace bound, on every trial
    t0 = time.perf_counter()
    failures = []
    worst_ratio = 0.0
    trials = 0
    for n in (3, 4):
        for level in (4, 6, 8):
            states = []
            for k in range(100):
                states.append(random_msym_state(n, level, seed=4000 + k))
                states.append(random_product_mixture(
                    n, level, components=1 + k % 5, seed=4100 + k))
            if n == 3:
                # optimizer states sit on the feasible boundary, the
                # regime the bound is least slack in
                for k in range(2):
                    T = _random_poly(3, 4, 4200 + 10 * level + k)
                    sol = solve_sdp(build_relaxation(T, level))
                    states.append(sol.M_star)
            for a in (1, 2):
                for M in states:
                    chk = definetti_trace_check(M, a)
                    trials += 1
                    worst_ratio = max(worst_ratio,
                                      chk.distance / chk.bound)
                    if chk.distance > chk.bound + 1e-7:
                        failures.append(
                            f"(n={n}, l={level}, a={a}): distance "
                            f"{chk.distance:.4f} > bound {chk.bound:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _announce(capsys, ok, "04 reduction vs measure trace bound",
              f"{trials} trials over 12 configurations, worst "
              f"distance/bound = {worst_ratio:.3f}, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 120.0


def _certificate_level():
    env = os.environ.get("SPHEREOPT_ACCEPT5_LEVEL")
    if env is not None:
        level = int(env)
        if level < 2:
            raise ValueError("SPHEREOPT_ACCEPT5_LEVEL must be at least 2")
        return level
    return 19


@pytest.mark.slow
def test_05_high_level_two_sided_certificates(capsys):
    # at a level deep enough for the a priori guarantee, the measure
    # lower bound and the relaxation value must sandwich the search value
    # and be relatively eps-close to each other
    t0 = time.perf_counter()
    level = _certificate_level()
    eps = definetti_eps(2, level, 3)
    failures = []
    width = 0.0
    for k in range(20):
        T = _random_poly(3, 4, 500 + k)
        report, solution = solve_and_report(build_relaxation(T, level),
                                            tol=1e-7, max_iterations=120)
        if report.status != "optimal":
            failures.append(f"instance {k}: status {report.status}")
            continue
        oracle = sphere_maximize(T, restarts=32, seed=1).value
        nu = solution.nu_ell
        if not (report.nu_lower - 1e-6 <= oracle <= nu + 1e-6):
            failures.append(
                f"instance {k}: sandwich {report.nu_lower:.8f} <= "
                f"{oracle:.8f} <= {nu:.8f} broken")
        if eps.valid and nu - report.nu_lower > eps.value * nu + 1e-7:
            failures.append(
                f"instance {k}: window {nu - report.nu_lower:.3e} above "
                f"eps * nu = {eps.value * nu:.3e}")
        width = max(width, nu - report.nu_lower)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    _announce(capsys, ok, "05 two-sided certificates",
              f"20 quartics at level {level}, eps = {eps.value:.4f} "
              f"({'valid' if eps.valid else 'not valid'}), max window = "
              f"{width:.3e}, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 600.0


def test_06_hierarchy_is_monotone_upper_bound(capsys):
    # levels 2, 3, 4 must decrease (within certified gaps) and stay above
    # the search value
    t0 = time.perf_counter()
    failures = []
    for k in range(20):
        T = _random_poly(3, 4, 600 + k)
        sols = [solve_sdp(build_relaxation(T, level)) for level in (2, 3, 4)]
        if any(s.status != "optimal" for s in sols):
            failures.append(f"instance {k}: non-optimal status")
            continue
        for lo, hi in ((0, 1), (1, 2)):
            slack = sols[lo].duality_gap + sols[hi].duality_gap + 1e-12
            if sols[lo].nu_ell < sols[hi].nu_ell - slack:
                failures.append(
                    f"instance {k}: nu at level {lo + 2} below level "
                    f"{hi + 2} by {sols[hi].nu_ell - sols[lo].nu_ell:.2e}")
        oracle = sphere_maximize(T, restarts=24, seed=1).value
        if sols[2].nu_ell < oracle - 1e-6:
            failures.append(
                f"instance {k}: nu_4 = {sols[2].nu_ell:.8f} below oracle "
                f"{oracle:.8f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _announce(capsys, ok, "06 hierarchy monotone upper bound",
              f"20 quartics, levels 2..4, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 120.0


def test_07_odd_degree_lift_pipeline(capsys):
    # lifting a cubic multiplies its maximum by gamma(2); pulled-back
    # bounds must bracket the original search value
    t0 = time.perf_counter()
    gamma = gamma_factor(2)
    failures = []
    for k in range(10):
        n = 2 if k % 2 == 0 else 3
        T = _random_poly(n, 3, 700 + k)
        record = canonicalize(n, dict(T.coeffs))
        best = sphere_maximize(T, restarts=32, seed=2).value
        lifted_best = sphere_maximize(record.solve_target, restarts=32,
                                      seed=2).value
        if abs(lifted_best - gamma * best) > 1e-5:
            failures.append(
                f"instance {k}: lifted max {lifted_best:.8f} vs gamma * "
                f"max = {gamma * best:.8f}")
        report, _ = solve_and_report(
            build_relaxation(record.solve_target, 4))
        pulled = pullback_bounds(record, report)
        if not (pulled.nu_lower - 1e-6 <= best <= pulled.nu_upper + 1e-6):
            failures.append(
                f"instance {k}: pulled-back sandwich "
                f"[{pulled.nu_lower:.8f}, {pulled.nu_upper:.8f}] misses "
                f"{best:.8f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _announce(capsys, ok, "07 odd-degree lift pipeline",
              f"10 cubics in 2 and 3 variables, gamma = {gamma:.6f}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_08_matrix_encoding_dense_equivalence(capsys):
    # the structural encoding must match the explicit dense construction
    # on the full product space, entry by entry
    t0 = time.perf_counter()
    worst = 0.0
    failures = []
    count = 0
    for n in (2, 3):
        for a in (1, 2):
            for _ in range(5):
                count += 1
                T = _random_poly(n, 2 * a, 800 + count)
                Z = poly_to_maxsym_matrix(T)
                G = np.zeros(n ** (2 * a))
                for pos, word in enumerate(np.ndindex(*([n] * (2 * a)))):
                    counts = [0] * n
                    for w in word:
                        counts[w] += 1
                    mi = tuple(counts)
                    coeff = T.coeffs.get(mi)
                    if coeff is not None:
                        G[pos] = (coeff * math.prod(map(math.factorial, mi))
                                  / math.factorial(2 * a))
                G = G.reshape(n ** a, n ** a)
                dense = np.array([dense_number_state(mi) for mi in
                                  basis_catalog(n, a).tolist()])
                ref = dense @ G @ dense.T
                err = float(np.abs(Z.matrix - ref).max())
                worst = max(worst, err)
                if err > 1e-10:
                    failures.append(f"(n={n}, a={a}): {err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and count == 20 and elapsed < 30.0
    _announce(capsys, ok, "08 encoding dense equivalence",
              f"{count} polynomials, max entry error = {worst:.2e}, "
              f"{elapsed:.1f}s")
    assert count == 20
    assert not failures, failures[:3]
    assert elapsed < 30.0


def test_09_harmonic_block_rescaling_identity(capsys):
    # the signed-density expansion is the harmonic expansion of the
    # state's polynomial with each block divided by its kernel
    # coefficient; check blockwise and round-trip
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for k in range(50):
        level = 1 + k % 4
        if k % 2 == 0:
            M = random_msym_state(3, level, seed=900 + k)
        else:
            M = random_product_mixture(3, level, components=1 + k % 4,
                                       seed=900 + k)
        qparts = harmonic_decompose(M.to_poly()).parts
        pparts = p_from_q_coefficients(M)
        unit = surface_area(2) / surface_area(3)
        for j, q in qparts.items():
            if q.is_zero():
                if j in pparts:
                    failures.append(f"trial {k}: spurious block {j}")
                continue
            scale = unit * lambda_coeff(3, level, j)
            rescaled = pparts[j].scaled(scale)
            for mi, coeff in q.coeffs.items():
                err = abs(rescaled.coeffs.get(mi, 0.0) - coeff)
                worst = max(worst, err)
                if err > 1e-8:
                    failures.append(f"trial {k}, block {j}: {err:.2e}")
        back = state_from_harmonic_density(3, level, pparts)
        err = float(np.abs(back.vec - M.vec).max())
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(f"trial {k}: round trip {err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _announce(capsys, ok, "09 harmonic block rescaling",
              f"50 states at levels 1..4, max block error = {worst:.2e}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0


def test_10_solver_gap_and_determinism(capsys):
    # every modest-size instance must close the gap in the iteration
    # budget, and reruns must agree to the last bit
    t0 = time.perf_counter()
    corpus = [(2, 1, 2), (2, 5, 2), (2, 10, 4), (2, 16, 2), (2, 16, 4),
              (3, 2, 4), (3, 6, 2), (3, 12, 4),
              (4, 3, 4), (4, 6, 2), (5, 4, 4), (6, 3, 2)]
    failures = []
    worst_gap = 0.0
    most_iters = 0
    for idx, (n, level, degree) in enumerate(corpus):
        assert sym_dimension(n, level) <= 100
        T = _random_poly(n, degree, 1000 + idx)
        sol = solve_sdp(build_relaxation(T, level), tol=5e-9)
        worst_gap = max(worst_gap, sol.duality_gap)
        most_iters = max(most_iters, sol.iterations)
        if sol.status != "optimal":
            failures.append(f"(n={n}, l={level}): status {sol.status}")
        if sol.duality_gap > 1e-8:
            failures.append(
                f"(n={n}, l={level}): gap {sol.duality_gap:.2e}")
        if sol.iterations > 100:
            failures.append(
                f"(n={n}, l={level}): {sol.iterations} iterations")
    for idx in (1, 4, 7):
        n, level, degree = corpus[idx]
        T = _random_poly(n, degree, 1000 + idx)
        a = solve_sdp(build_relaxation(T, level), tol=5e-9)
        b = solve_sdp(build_relaxation(T, level), tol=5e-9)
        if a.nu_ell != b.nu_ell or a.t_star != b.t_star:
            failures.append(f"(n={n}, l={level}): rerun differs")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _announce(capsys, ok, "10 solver gap and determinism",
              f"{len(corpus)} instances with side <= 100, worst gap = "
              f"{worst_gap:.2e}, most iterations = {most_iters}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]


def test_11_auto_level_closes_ternary_quartics(capsys, tmp_path):
    # Hilbert: t r^4 - T is a sum of squares at t = max T for ternary
    # quartics, so the automatic level stops at the base level 2 with a
    # maximizer whose value meets the upper bound; the level-19 corpus of
    # test 05 serves as input
    t0 = time.perf_counter()
    failures = []
    window = 0.0
    for k in range(20):
        T = _random_poly(3, 4, 500 + k)
        path = tmp_path / f"quartic{k}.json"
        path.write_text(json.dumps({"n": 3, "terms": [
            {"coeff": c, "exps": list(e)} for e, c in T.coeffs.items()]}),
            encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(cli._build_parser().parse_args(
            ["--input", str(path), "--oracle", "--format", "json"]),
            out=out, err=err)
        payload = json.loads(out.getvalue())
        lo, hi = payload["nu_lower"], payload["nu_upper"]
        if code != 0 or payload["levels_solved"] != [2]:
            failures.append(f"instance {k}: exit {code}, levels "
                            f"{payload['levels_solved']}")
        elif not payload["window_closed"]:
            failures.append(f"instance {k}: window {hi - lo:.3e} open")
        elif not lo - 1e-9 <= payload["oracle_value"] <= hi + 1e-9:
            failures.append(f"instance {k}: sandwich {lo:.10f} <= "
                            f"{payload['oracle_value']:.10f} <= {hi:.10f} "
                            "broken")
        window = max(window, hi - lo)
    elapsed = time.perf_counter() - t0
    ok = not failures
    _announce(capsys, ok, "11 auto level closes ternary quartics",
              f"20 quartics closed at level 2, max window = {window:.3e}, "
              f"{elapsed:.1f}s")
    assert not failures, failures[:3]
