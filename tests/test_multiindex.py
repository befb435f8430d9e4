import math

import numpy as np
import pytest

from sphereopt.multiindex import (basis_catalog, catalog_rank, exponent_tuple,
                                  sym_dimension)
from sphereopt.polymat import _pair_maps, _trace_gather

from reference import (_sum_index_map, dense_number_state,
                       dense_symmetrizer, number_state_overlap)


def test_multiindex_rejects_negative():
    assert exponent_tuple(np.array([2, 0, 1]), 3, 3) == (2, 0, 1)
    assert all(type(e) is int for e in exponent_tuple(np.array([2, 0, 1])))
    with pytest.raises(ValueError, match="negative"):
        exponent_tuple((1, -1))
    with pytest.raises(ValueError, match="slots"):
        exponent_tuple((0, 2), 3)
    with pytest.raises(ValueError, match="degree"):
        exponent_tuple((0, 2), 2, 3)


def test_basis_catalog_rows_count_and_order():
    assert [tuple(m) for m in basis_catalog(2, 2).tolist()] == [
        (2, 0), (1, 1), (0, 2)]
    for n in (1, 2, 3, 4):
        for d in (0, 1, 2, 5):
            got = list(map(tuple, basis_catalog(n, d).tolist()))
            assert len(got) == math.comb(n + d - 1, d)
            assert len(set(got)) == len(got)
            assert all(sum(m) == d for m in got)


def test_sym_dimension_matches_binomial():
    for n in (1, 2, 3, 5, 8):
        for level in (0, 1, 2, 7):
            assert sym_dimension(n, level) == math.comb(level + n - 1, level)
    with pytest.raises(ValueError):
        sym_dimension(0, 2)
    with pytest.raises(ValueError):
        sym_dimension(3, -1)


def _listing(n, d):
    # x1-major listing written out recursively, independent of the catalog
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1)
            for rest in _listing(n - 1, d - e)]


def _rows_strictly_decreasing(E):
    diff = E[:-1] - E[1:]
    differs = diff != 0
    first = diff[np.arange(len(diff)), differs.argmax(axis=1)]
    return bool(differs.any(axis=1).all() and (first > 0).all())


def test_basis_catalog_positions_roundtrip():
    E = basis_catalog(3, 4)
    listed = _listing(3, 4)
    assert len(listed) == len(E) == sym_dimension(3, 4)
    for pos, mi in enumerate(listed):
        assert catalog_rank(mi) == pos
        assert tuple(E[pos]) == mi
    assert E.sum(axis=1).tolist() == [4] * len(E)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 8)
                                  for d in range(10)]
                         + [(2, 40), (3, 40), (10, 8)])
def test_basis_catalog_is_ordered_readonly_exponent_array(n, d):
    E = basis_catalog(n, d)
    assert E.dtype == np.int64
    assert E.shape == (sym_dimension(n, d), n)
    assert not E.flags.writeable
    with pytest.raises(ValueError):
        E[0, 0] = 1
    assert (E.sum(axis=1) == d).all()
    assert _rows_strictly_decreasing(E)
    assert np.array_equal(catalog_rank(E), np.arange(len(E)))


def test_basis_catalog_validates_shape():
    for n, d in ((0, 2), (-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            basis_catalog(n, d)


def test_catalog_rank_matches_catalog_positions():
    for n in range(1, 7):
        for d in range(9):
            E = np.array(_listing(n, d), dtype=np.int64)
            expect = np.arange(len(E))
            got = catalog_rank(E)
            assert got.dtype == np.int64
            assert np.array_equal(got, expect)
            # a split into two operands ranks the same rows
            half = E // 2
            assert np.array_equal(catalog_rank(half, E - half), expect)


def test_catalog_rank_keeps_broadcast_shape_without_slots_to_rank():
    got = catalog_rank(np.ones((3, 1, 1)), np.ones((1, 4, 1)))
    assert got.shape == (3, 4)
    assert got.dtype == np.int64
    assert not got.any()
    assert catalog_rank(np.ones((2, 3))).shape == (2,)
    assert catalog_rank(np.zeros((0, 5))).shape == (0,)


def _reference_sum_map(n, d1, d2):
    # dict lookups of every exponent sum in the recursive listing
    position = {e: pos for pos, e in enumerate(_listing(n, d1 + d2))}
    E2 = np.array(_listing(n, d2), dtype=np.int64)
    return np.array([[position[tuple(row)] for row in (e + E2).tolist()]
                     for e in np.array(_listing(n, d1), dtype=np.int64)],
                    dtype=np.int64)


@pytest.mark.parametrize("n, d1, d2", [(1, 3, 4), (2, 0, 6), (10, 4, 4),
                                       (3, 4, 38)])
def test_sum_index_map_matches_dict_lookup(n, d1, d2):
    got = _sum_index_map(n, d1, d2)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_sum_map(n, d1, d2))


@pytest.mark.parametrize("n, level", [(3, 19), (2, 20), (10, 2)])
def test_pair_and_trace_maps_match_dict_lookup(n, level):
    KK = _pair_maps(n, level)[0]
    assert KK.dtype == np.int64
    assert np.array_equal(KK, _reference_sum_map(n, level, level))
    # the trace gathers j + 2 e_t for every j of degree 2 level - 2
    below = _listing(n, 2 * level - 2)
    above = {e: pos for pos, e in enumerate(_listing(n, 2 * level))}
    idx, w, norm = _trace_gather(n, level)
    assert idx.dtype == np.int64 and idx.shape == (n, len(below))
    for t in range(n):
        raised = [j[:t] + (j[t] + 2,) + j[t + 1:] for j in below]
        assert np.array_equal(idx[t], [above[e] for e in raised])
        assert np.array_equal(w[t], [math.sqrt((j[t] + 1) * (j[t] + 2))
                                     for j in below])
    assert norm == math.sqrt(2 * level * (2 * level - 1))


def test_number_state_overlap_small_values():
    # l = 1, n = 2: the only split of k = (1,1) is (1,0)+(0,1) twice,
    # each with weight sqrt(1/2).
    w = number_state_overlap((1, 0), (0, 1), (1, 1))
    assert w == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert number_state_overlap((1, 0), (1, 0), (2, 0)) == pytest.approx(
        math.sqrt(1.0), abs=1e-15)
    # mismatched split is exactly zero
    assert number_state_overlap((1, 0), (1, 0), (1, 1)) == 0.0


def test_number_state_overlap_rows_are_unit_vectors():
    # For every k of degree 2l, the overlaps over all (i, j) splits of k
    # form a unit vector.
    for n, level in ((2, 3), (3, 2), (4, 2)):
        cat_l = basis_catalog(n, level).tolist()
        for k in basis_catalog(n, 2 * level).tolist():
            total = 0.0
            for i in cat_l:
                for j in cat_l:
                    total += number_state_overlap(i, j, k) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


def test_number_state_overlap_validates_degrees():
    with pytest.raises(ValueError):
        number_state_overlap((1, 0), (2, 0), (3, 0))
    with pytest.raises(ValueError):
        number_state_overlap((1, 0), (1, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        number_state_overlap((1, 0), (1, 0), (3, 0))


def test_dense_number_state_matches_product_expansion():
    # <mi | x^{(x)l}> = sqrt(l!/mi!) x^mi, checked against explicit
    # Kronecker powers.
    rng = np.random.default_rng(5)
    for n, level in ((2, 3), (3, 2)):
        x = rng.standard_normal(n)
        xl = np.array([1.0])
        for _ in range(level):
            xl = np.kron(xl, x)
        for mi in basis_catalog(n, level).tolist():
            expect = math.sqrt(math.factorial(level)
                               / math.prod(map(math.factorial, mi)))
            expect *= float(np.prod(x ** np.array(mi)))
            assert float(dense_number_state(mi) @ xl) == pytest.approx(
                expect, abs=1e-12)


def test_dense_number_states_are_orthonormal():
    for n, level in ((2, 3), (3, 2)):
        states = [dense_number_state(mi)
                  for mi in basis_catalog(n, level).tolist()]
        G = np.array([[si @ sj for sj in states] for si in states])
        assert np.allclose(G, np.eye(len(states)), atol=1e-12)


def test_dense_symmetrizer_projects_onto_symmetric_subspace():
    for n, level in ((2, 3), (3, 2)):
        P = dense_symmetrizer(n, level)
        assert np.allclose(P, P.T, atol=1e-13)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.trace(P) == pytest.approx(sym_dimension(n, level), abs=1e-9)
        # number states span the fixed subspace
        for mi in basis_catalog(n, level).tolist():
            v = dense_number_state(mi)
            assert np.allclose(P @ v, v, atol=1e-12)


def test_dense_size_guard():
    with pytest.raises(ValueError):
        dense_number_state((20,) * 6)
