"""Homogeneous polynomials and their faithful matrix encoding.

A homogeneous polynomial T of even degree 2a corresponds one-to-one with a
matrix Z on Sym((R^n)^{(x)a}) whose vectorization is itself fully symmetric
(a "maximally symmetric" matrix).  The correspondence is an isometry built
from number-state coordinates:

* the coefficient alpha_i of x^i maps to the vector entry
  sqrt(i!/(2a)!) alpha_i, so that <x|^{(x)2a} |Z> = T(x);
* the p x p matrix view on the degree-a number-state basis is
  Z[i, j] = vec[i + j] * w(i, j), with w(i, j) the split overlap

      w(i, j) = <i (x) j | i + j> = sqrt(prod_t C(i_t + j_t, i_t) / C(2a, a));

* evaluation satisfies <x|^{(x)a} Z |x>^{(x)a} = T(x), so positive
  semidefinite Z certify nonnegativity of T.

The single-system partial trace acts on number states as

    tr_1 |i><j| = (1/l) sum_t sqrt(i_t j_t) |i - e_t><j - e_t|

and, composed with the encoding, realizes the Laplacian:
Z_{Lap T} = d (d - 1) tr_1 Z_T for d = deg T.  On the coordinates of a
maximally symmetric matrix at level l it is therefore a gather over the
degree-(2l - 2) catalog,

    (tr_1 v)_j = sum_t sqrt((j_t + 1)(j_t + 2)) v_{j + 2e_t} / sqrt(2l(2l - 1))

with no p x p matrix in between (:func:`_trace_gather`).

The uniform-measure moments live here too, since their number-state
coordinates carry the same scaling.  The surface measure is normalized to
total mass one throughout the package, and the moment of a monomial is exact:

    int x^{2b} dx = prod_t (2 b_t - 1)!! / prod_{k<|b|} (n + 2k),

zero for any odd exponent (:func:`moment_table`).

Everything here is dense over the C(2a + n - 1, 2a) coefficient vector, never
over the n^{2a} product space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .multiindex import (basis_catalog, catalog_rank, exponent_tuple,
                         sym_dimension)


@dataclass(frozen=True)
class HomoPoly:
    """Homogeneous polynomial in n real variables.

    ``coeffs`` maps exponent tuples of plain ints to floats and stores no
    zero entries; all keys have total degree ``degree`` and length ``n``.
    Its insertion order is whatever built it; :meth:`catalog_terms` lists
    the terms in catalog order.  Use :func:`homo_poly` to build one with
    validation.
    """

    n: int
    degree: int
    coeffs: dict

    def __call__(self, x):
        return evaluate(self, x)

    def is_zero(self):
        return not self.coeffs

    def scaled(self, factor):
        factor = float(factor)
        if factor == 0.0:
            return HomoPoly(self.n, self.degree, {})
        return HomoPoly(self.n, self.degree,
                        {mi: factor * a for mi, a in self.coeffs.items()})

    def __neg__(self):
        return self.scaled(-1.0)

    def __add__(self, other):
        if not isinstance(other, HomoPoly):
            return NotImplemented
        if other.n != self.n or other.degree != self.degree:
            raise ValueError("polynomial shape mismatch in addition")
        out = dict(self.coeffs)
        add_terms(out, other.coeffs.items())
        return HomoPoly(self.n, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def catalog_terms(self):
        """(exponents, coefficient) pairs in catalog (x1-major) order."""
        return sorted(self.coeffs.items(), reverse=True)

    @cached_property
    def _arrays(self):
        """(m, n) exponent matrix and (m,) coefficient vector, in catalog
        order."""
        if not self.coeffs:
            return np.zeros((0, self.n), dtype=np.int64), np.zeros(0)
        items = self.catalog_terms()
        return (np.array([mi for mi, _ in items], dtype=np.int64),
                np.array([a for _, a in items], dtype=float))


def add_terms(out, terms):
    """Add (exponents, coefficient) pairs into the dict ``out`` in place.

    A sum that reaches exactly 0.0 is deleted, so a later term re-inserts
    its key at the end, and a zero term adds nothing; keys, order and bits
    are those of adding the terms one at a time as polynomials with ``+``.
    """
    for mi, a in terms:
        s = out.get(mi, 0.0) + a
        if s == 0.0:
            out.pop(mi, None)
        else:
            out[mi] = s


def to_float(a):
    """``float(a)``, with ValueError for a number beyond the float range."""
    try:
        return float(a)
    except OverflowError:
        raise ValueError("polynomial coefficients must be finite") from None


def require_finite(coeffs):
    """Raise ValueError unless every value of ``coeffs`` is finite."""
    if not all(map(math.isfinite, coeffs.values())):
        raise ValueError("polynomial coefficients must be finite")


def homo_poly(n, degree, terms):
    """Build a HomoPoly from a mapping of exponent tuples to coefficients.

    Coefficients are summed per exponent tuple with :func:`add_terms`.
    Degree or length mismatches raise, as does a sum that is not finite.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    items = terms.items() if hasattr(terms, "items") else terms
    coeffs = {}
    add_terms(coeffs, ((exponent_tuple(key, n, degree), to_float(a))
                       for key, a in items))
    require_finite(coeffs)
    return HomoPoly(n, degree, coeffs)


def _power_table(T, x):
    """Powers P[..., t, e] = x_t^e, e = 0..degree, of points x (..., n).

    Built by repeated multiplication, so the factor x_t^e of any term is a
    lookup.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim == 0 or X.shape[-1] != T.n:
        raise ValueError(f"point must have {T.n} coordinates")
    P = np.empty(X.shape + (T.degree + 1,))
    P[..., 0] = 1.0
    for e in range(1, T.degree + 1):
        P[..., e] = P[..., e - 1] * X
    return P


def _row_sums(A):
    """Sums over the last axis, added term by term in order.

    numpy's own sum picks its summation order by the array's shape, so a
    row summed alone can differ in the last bit from the same row summed in
    a batch; a running sum cannot.
    """
    if not A.shape[-1]:
        return np.zeros(A.shape[:-1])
    return np.cumsum(A, axis=-1)[..., -1]


def evaluate(T, x):
    """Evaluate T at a point (n,) or a batch (..., n) of points.

    Each point is reduced on its own, with no matrix product across the
    batch, so a point's value does not depend on the batch it comes in.
    """
    P = _power_table(T, x)
    E, C = T._arrays
    rows = np.arange(T.n)[:, None]
    monos = np.prod(P[..., rows, E.T], axis=-2)
    out = _row_sums(monos * C)
    return float(out) if out.ndim == 0 else out


def gradient(T, x):
    """Gradient of T at a point (n,) or a batch (..., n) of points.

    Term c x^e contributes c e_t x_t^(e_t - 1) prod_{s != t} x_s^(e_s) to
    coordinate t; the products over s < t and s > t come from running
    products, so no (..., n, terms, n) array is formed.  Each point is
    reduced on its own, as in :func:`evaluate`.
    """
    P = _power_table(T, x)
    E, C = T._arrays
    rows = np.arange(T.n)[:, None]
    F = P[..., rows, E.T]
    dF = E.T * P[..., rows, np.maximum(E.T - 1, 0)]
    dF[..., 1:, :] *= np.cumprod(F[..., :-1, :], axis=-2)
    dF[..., :-1, :] *= np.cumprod(F[..., :0:-1, :], axis=-2)[..., ::-1, :]
    return _row_sums(dF * C)


@lru_cache(maxsize=None)
def _vec_scale(n, degree):
    """s with s_k = sqrt(degree!/k!) over the degree catalog.

    Polynomial coefficients alpha and number-state coordinates v of the same
    object are related by alpha_k = s_k v_k.
    """
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, degree + 1)))))
    lk = lf[basis_catalog(n, degree)].sum(axis=1)
    s = np.exp(0.5 * (math.lgamma(degree + 1) - lk))
    s.setflags(write=False)
    return s


def _monomial_moment(n, exps):
    if any(e % 2 for e in exps):
        return 0.0
    half = [e // 2 for e in exps]
    # exact integers, so the one division rounds correctly
    num = math.prod(math.prod(range(2 * b - 1, 0, -2)) for b in half)
    den = math.prod(range(n, n + 2 * sum(half), 2))
    return num / den


@lru_cache(maxsize=None)
def moment_table(n, degree):
    """Moments of every degree-``degree`` monomial, in catalog order."""
    out = np.array([_monomial_moment(n, tuple(row))
                    for row in basis_catalog(n, degree).tolist()])
    out.setflags(write=False)
    return out


def sphere_moment_vector(n, degree):
    """Number-state coordinates of the uniform-measure moment matrix.

    Entry at index k is sqrt(degree!/k!) times the moment of x^k; for even
    degree 2l this is the vectorization of int |x><x|^{(x)l} dx, the strictly
    positive definite barycenter of the moment body.
    """
    return _vec_scale(n, degree) * moment_table(n, degree)


def _catalog_coeffs(T):
    """Coefficients alpha of T as a dense vector over its degree catalog."""
    E = np.array(list(T.coeffs), dtype=np.int64)
    v = np.zeros(len(basis_catalog(T.n, T.degree)))
    v[catalog_rank(E.reshape(-1, T.n))] = list(T.coeffs.values())
    return v


def poly_to_vector(T):
    """Number-state coordinates of T: entry sqrt(i!/d!) alpha_i at index i.

    The vector v satisfies <x|^{(x)d} v = T(x) and the map is an isometry up
    to the stated diagonal scaling.
    """
    return _catalog_coeffs(T) / _vec_scale(T.n, T.degree)


def vector_to_poly(n, degree, vec):
    """Inverse of poly_to_vector; terms are keyed in catalog order."""
    E = basis_catalog(n, degree)
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (len(E),):
        raise ValueError(f"expected a vector of length {len(E)}")
    alpha = vec * _vec_scale(n, degree)
    nz = np.flatnonzero(alpha)
    return HomoPoly(n, degree, dict(zip(map(tuple, E[nz].tolist()),
                                        alpha[nz].tolist())))


@lru_cache(maxsize=None)
def _pair_maps(n, level):
    """Split structure of Sym((R^n)^{(x)level}) against degree-2*level states.

    Returns (KK, WW, tau): KK[i, j] is the catalog position of i + j, WW[i, j]
    the split overlap <i (x) j | i + j>, and tau the vector with
    tr M = tau . vec for every maximally symmetric M.
    """
    E = basis_catalog(n, level)
    top = max(2 * level, 1)
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, top + 1)))))
    A = E[:, None, :] + E[None, :, :]
    lbin = lf[A] - lf[E[:, None, :]] - lf[E[None, :, :]]
    ltot = lf[2 * level] - 2.0 * lf[level]
    WW = np.exp(0.5 * (lbin.sum(axis=-1) - ltot))
    KK = catalog_rank(E[:, None, :], E[None, :, :])
    tau = np.bincount(KK.diagonal(), weights=WW.diagonal(),
                      minlength=sym_dimension(n, 2 * level))
    for arr in (KK, WW, tau):
        arr.setflags(write=False)
    return KK, WW, tau


@lru_cache(maxsize=None)
def _schur_layout(n, level):
    """Entries of ``_pair_maps(n, level)`` sorted by class, for the Schur
    assembly.

    Returns (order, bounds, counts, rows, cols, weights): the stable sort
    of the flattened p x p entries by class, the q + 1 bounds of the class
    segments in it and their q lengths, and each sorted entry's row,
    column and weight.  Every class is nonempty: a multi-index of degree
    2 level splits into two of degree level.
    """
    KK, WW, _ = _pair_maps(n, level)
    kflat = KK.ravel()
    order = np.argsort(kflat, kind="stable")
    bounds = np.searchsorted(kflat[order],
                             np.arange(sym_dimension(n, 2 * level) + 1))
    rows, cols = np.divmod(order, len(KK))
    out = order, bounds, np.diff(bounds), rows, cols, WW.ravel()[order]
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _trace_gather(n, level):
    """Gather map of the single-system partial trace at ``level``.

    Returns (idx, w, norm) over the degree-(2 level - 2) catalog E:
    idx[t, j] is the position of E[j] + 2 e_t in the degree-2 level
    catalog, w[t, j] = sqrt((E[j, t] + 1)(E[j, t] + 2)) and
    norm = sqrt(2 level (2 level - 1)).
    """
    E = basis_catalog(n, 2 * level - 2)
    idx = catalog_rank(E, 2 * np.eye(n, dtype=np.int64)[:, None, :])
    w = np.sqrt((E.T + 1.0) * (E.T + 2.0))
    for arr in (idx, w):
        arr.setflags(write=False)
    return idx, w, math.sqrt(2 * level * (2 * level - 1))


@dataclass(frozen=True, eq=False)
class MaxSymMatrix:
    """Maximally symmetric matrix on Sym((R^n)^{(x)ell}).

    Canonical storage is ``vec``, the number-state coordinates of the
    vectorization, a dense array over the degree-2*ell catalog.  The p x p
    matrix view is derived lazily; the degree-2*ell polynomial view is
    ``to_poly()``.  Being maximally symmetric is structural: every vec gives
    a valid instance.
    """

    n: int
    ell: int
    vec: np.ndarray

    def __post_init__(self):
        q = sym_dimension(self.n, 2 * self.ell)
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (q,):
            raise ValueError(f"expected vec of length {q}, got {v.shape}")
        object.__setattr__(self, "vec", v)

    @cached_property
    def matrix(self):
        """The p x p matrix, read-only."""
        KK, WW, _ = _pair_maps(self.n, self.ell)
        got = self.vec[KK] * WW
        got.setflags(write=False)
        return got

    def trace(self):
        _, _, tau = _pair_maps(self.n, self.ell)
        return float(tau @ self.vec)

    def to_poly(self):
        """Degree-2*ell polynomial Q with Q(x) = <x|^{(x)ell} M |x>^{(x)ell}."""
        return vector_to_poly(self.n, 2 * self.ell, self.vec)


def multiply_r2(T, k):
    """T * (x_1^2 + ... + x_n^2)^k; exact on coefficients.

    Sums that cancel stay as exact zeros (dropping them would reorder the
    next round's sums and move the bits of deep-level objectives), so the
    result is meant for :func:`poly_to_vector`.
    """
    if k < 0:
        raise ValueError("power of r^2 must be nonnegative")
    if not T.coeffs:
        return HomoPoly(T.n, T.degree + 2 * k, {})
    cur = dict(T.coeffs)
    for _ in range(k):
        nxt = {}
        for mi, a in cur.items():
            for t in range(T.n):
                key = mi[:t] + (mi[t] + 2,) + mi[t + 1:]
                nxt[key] = nxt.get(key, 0.0) + a
        cur = nxt
    return HomoPoly(T.n, T.degree + 2 * k, cur)
