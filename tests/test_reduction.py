import importlib
import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sphereopt import reduction
from sphereopt.cli import parse_poly
from sphereopt.definetti import solve_and_report
from sphereopt.multiindex import basis_catalog
from sphereopt.oracle import sphere_maximize
from sphereopt.polymat import (HomoPoly, add_terms, evaluate, homo_poly,
                               multiply_r2)
from sphereopt.reduction import (canonicalize, gamma_factor, lift_odd,
                                 pullback_bounds, pullback_points)
from sphereopt.sdp import build_relaxation

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
    T = canonicalize(2, {(2, 0): 1.0, (0, 0): 1.0}).original
    assert T.degree == 2
    assert T.coeffs == homo_poly(2, 2, {(2, 0): 2.0, (0, 2): 1.0}).coeffs
    rng = np.random.default_rng(0)
    mixed = canonicalize(3, {(3, 0, 0): 1.0, (1, 0, 0): -2.0}).original
    assert mixed.degree == 3
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert evaluate(mixed, x) == pytest.approx(x[0] ** 3 - 2.0 * x[0],
                                                   abs=1e-12)


def _homogenize_by_addition(n, terms):
    # one HomoPoly sum per input term, the padded terms added with +
    rec = canonicalize(n, terms)
    target = rec.degree
    out = HomoPoly(n, target, {})
    for mi, a in rec.terms.items():
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
        got = canonicalize(n, terms).original
        want = _homogenize_by_addition(n, terms)
        assert got.degree == want.degree
        assert ([(mi, a.hex()) for mi, a in got.coeffs.items()]
                == [(mi, a.hex()) for mi, a in want.coeffs.items()])
    cancelled = canonicalize(2, {(4, 0): 1.0, (2, 0): -1.0,
                                 (0, 0): 1.0}).original
    assert list(cancelled.coeffs) == [(2, 2), (4, 0), (0, 4)]
    assert canonicalize(2, {(2, 0): 1.0, (0, 2): 1.0,
                            (0, 0): -1.0}).original.is_zero()


def test_homogenize_constant_and_validation():
    T = canonicalize(3, {(0, 0, 0): 5.0}).original
    assert T.degree == 2
    x = np.array([0.0, 0.6, 0.8])
    assert evaluate(T, x) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError, match="mixed"):
        canonicalize(2, {(2, 0): 1.0, (1, 0): 1.0})
    with pytest.raises(ValueError, match="zero"):
        canonicalize(2, {(2, 0): 0.0})
    with pytest.raises(ValueError):
        canonicalize(1, {(2,): 1.0})
    with pytest.raises(ValueError, match="slots"):
        canonicalize(3, {(2, 0): 1.0})
    # finite terms whose padded sum overflows
    with pytest.raises(ValueError, match="finite"):
        canonicalize(2, {(2, 0): 1e308, (0, 0): 1e308}).original
    # an integer beyond the float range
    with pytest.raises(ValueError, match="finite"):
        canonicalize(2, {(2, 0): 10**400})


def test_canonicalize_sums_keys_naming_one_tuple_as_add_terms_does():
    # ("2", "0"), (" 2", "0") and (2, 0) differ as dict keys but name one
    # exponent tuple: its sum reaches zero part-way, is deleted, and the
    # next term re-inserts it at the end
    rec = canonicalize(2, {(2, 0): 1.0, (0, 2): 1.0, ("2", "0"): -1.0,
                           (" 2", "0"): 3.0})
    assert list(rec.terms.items()) == [((0, 2), 1.0), ((2, 0), 3.0)]


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


def _per_term_route(n, terms):
    # the reduction as it was written before canonicalize validated the
    # terms once: the terms summed per exponent tuple, then one validated
    # homo_poly per term, padded and accumulated, then a lift that
    # validates every term again
    cleaned = {}
    for mi, a in terms.items():
        if a != 0.0:
            cleaned[mi] = cleaned.get(mi, 0.0) + a
    cleaned = {mi: a for mi, a in cleaned.items() if a != 0.0}
    target = max(sum(mi) for mi in cleaned) or 2
    coeffs = {}
    for mi, a in cleaned.items():
        degree = sum(mi)
        add_terms(coeffs, multiply_r2(homo_poly(n, degree, {mi: a}),
                                      (target - degree) // 2).coeffs.items())
    original = HomoPoly(n, target, coeffs)
    if target % 2 == 0:
        return original, original
    lifted = homo_poly(n + 1, target + 1,
                       {(1,) + mi: a for mi, a in original.coeffs.items()})
    return original, lifted


def _benchmark_terms(monkeypatch):
    # the parsed inputs of seed-1 rounds 0-2 of every benchmark workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    for round_fn in (bench.deep_round, bench.wide_round, bench.cold_round):
        for r in range(3):
            for case in round_fn(1, r):
                yield parse_poly(case["argv"][case["argv"].index("--poly")
                                              + 1])


def _terms_bits(T):
    return [(mi, a.hex()) for mi, a in T.coeffs.items()]


def test_canonicalize_matches_the_per_term_route(monkeypatch):
    cases = list(_benchmark_terms(monkeypatch))
    assert len(cases) == 3 * (1 + 3 + 8)
    cases += list(_homogenize_cases())
    # odd degrees: a mixed quintic, and a cubic that cancels to zero
    cases += [(3, {(5, 0, 0): 1.5, (1, 2, 0): -0.25, (0, 0, 1): 2.0,
                   (0, 3, 0): 0.0}),
              (2, {(3, 0): 1.0, (1, 0): -1.0, (1, 2): 1.0})]
    lifts = 0
    for n, terms in cases:
        rec = canonicalize(n, terms)
        original, target = _per_term_route(n, terms)
        assert rec.degree == original.degree
        assert (rec.solve_n, rec.a) == (target.n, target.degree // 2)
        assert rec.lifted == (target is not original)
        assert rec.gamma == (gamma_factor(rec.a) if rec.lifted else 1.0)
        assert _terms_bits(rec.original) == _terms_bits(original)
        assert rec.solve_target.n == target.n
        assert rec.solve_target.degree == target.degree
        assert _terms_bits(rec.solve_target) == _terms_bits(target)
        lifts += rec.lifted
    # two lifted kinds per cli-cold round, the odd mixed degrees of
    # _homogenize_cases and the two above
    assert lifts == 2 * 3 + 8 + 2


def _never_pad(*args, **kwargs):
    raise AssertionError("canonicalize must not pad")


def test_canonicalize_validates_before_padding(monkeypatch):
    # the shape is known from the cleaned terms alone; padding, and its
    # overflow, wait for the first read of the padded polynomial
    monkeypatch.setattr(reduction, "multiply_r2", _never_pad)
    rec = canonicalize(2, {(2, 0): 1e308, (0, 0): 1e308, (0, 2): 0.0})
    assert rec.terms == {(2, 0): 1e308, (0, 0): 1e308}
    assert (rec.n, rec.degree, rec.solve_n, rec.a) == (2, 2, 2, 1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="finite"):
        rec.solve_target
    odd = canonicalize(3, {(0, 0, 3): 1.0, (1, 0, 0): 2.0})
    assert (odd.degree, odd.solve_n, odd.a, odd.lifted) == (3, 4, 2, True)
    assert odd.solve_target is odd.solve_target
    assert odd.original is odd.original

