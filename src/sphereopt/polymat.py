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
Z_{Lap T} = d (d - 1) tr_1 Z_T for d = deg T.

Everything here is dense over the C(2a + n - 1, 2a) coefficient vector, never
over the n^{2a} product space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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
        for mi, a in other.coeffs.items():
            s = out.get(mi, 0.0) + a
            if s == 0.0:
                out.pop(mi, None)
            else:
                out[mi] = s
        return HomoPoly(self.n, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def max_abs_coeff(self):
        return max((abs(a) for a in self.coeffs.values()), default=0.0)

    def catalog_terms(self):
        """(exponents, coefficient) pairs in catalog (x1-major) order."""
        return sorted(self.coeffs.items(), reverse=True)

    def _arrays(self):
        """(m, n) exponent matrix and (m,) coefficient vector, cached."""
        got = self._cache.get("arrays")
        if got is None:
            if self.coeffs:
                items = self.catalog_terms()
                E = np.array([mi for mi, _ in items], dtype=np.int64)
                C = np.array([a for _, a in items], dtype=float)
            else:
                E = np.zeros((0, self.n), dtype=np.int64)
                C = np.zeros(0)
            got = (E, C)
            self._cache["arrays"] = got
        return got


def homo_poly(n, degree, terms):
    """Build a HomoPoly from a mapping of exponent tuples to coefficients.

    Zero coefficients are dropped; degree or length mismatches raise.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = {}
    items = terms.items() if hasattr(terms, "items") else terms
    for key, a in items:
        mi = exponent_tuple(key, n, degree)
        a = float(a)
        if a == 0.0:
            continue
        coeffs[mi] = coeffs.get(mi, 0.0) + a
        if coeffs[mi] == 0.0:
            del coeffs[mi]
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
    E, C = T._arrays()
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
    E, C = T._arrays()
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


@dataclass(frozen=True, eq=False)
class MaxSymMatrix:
    """Maximally symmetric matrix on Sym((R^n)^{(x)ell}).

    Canonical storage is ``vec``, the number-state coordinates of the
    vectorization, a dense array over the degree-2*ell catalog.  The p x p
    matrix view is derived lazily; the degree-2*ell polynomial view is
    ``to_poly()``.  Being maximally symmetric is structural: every vec gives
    a valid instance, and projections from general matrices go through
    :meth:`from_matrix`.
    """

    n: int
    ell: int
    vec: np.ndarray
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        q = sym_dimension(self.n, 2 * self.ell)
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (q,):
            raise ValueError(f"expected vec of length {q}, got {v.shape}")
        object.__setattr__(self, "vec", v)

    @property
    def matrix(self):
        got = self._cache.get("matrix")
        if got is None:
            KK, WW, _ = _pair_maps(self.n, self.ell)
            got = self.vec[KK] * WW
            got.setflags(write=False)
            self._cache["matrix"] = got
        return got

    def trace(self):
        _, _, tau = _pair_maps(self.n, self.ell)
        return float(tau @ self.vec)

    def to_poly(self):
        """Degree-2*ell polynomial Q with Q(x) = <x|^{(x)ell} M |x>^{(x)ell}."""
        return vector_to_poly(self.n, 2 * self.ell, self.vec)

    @classmethod
    def from_matrix(cls, n, ell, A):
        """Orthogonal projection of a symmetric matrix onto the maximally
        symmetric subspace (lossless when A already lies in it)."""
        p = sym_dimension(n, ell)
        A = np.asarray(A, dtype=float)
        if A.shape != (p, p):
            raise ValueError(f"expected a {p} x {p} matrix")
        A = (A + A.T) / 2.0
        KK, WW, _ = _pair_maps(n, ell)
        q = sym_dimension(n, 2 * ell)
        vec = np.bincount(KK.ravel(), weights=(A * WW).ravel(), minlength=q)
        return cls(n=n, ell=ell, vec=vec)


def multiply_r2(T, k):
    """T * (x_1^2 + ... + x_n^2)^k; exact on coefficients."""
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


@lru_cache(maxsize=None)
def _trace_maps(n, level):
    """Per-variable gather maps for the single-system partial trace."""
    E = basis_catalog(n, level)
    drop = -np.eye(n, dtype=np.int64)
    maps = []
    for t in range(n):
        src = np.flatnonzero(E[:, t] > 0).astype(np.int64)
        maps.append((src, catalog_rank(E[src], drop[t]),
                     np.sqrt(E[src, t].astype(float))))
    return tuple(maps), sym_dimension(n, level - 1)


def partial_trace_matrix(A, n, level):
    """Trace out one tensor factor of a matrix on Sym((R^n)^{(x)level}).

    Implements tr_1 |i><j| = (1/level) sum_t sqrt(i_t j_t) |i-e_t><j-e_t| in
    number-state coordinates; valid for any matrix on the symmetric
    subspace, maximally symmetric or not.
    """
    if level < 1:
        raise ValueError("nothing to trace out at level 0")
    A = np.asarray(A, dtype=float)
    p = sym_dimension(n, level)
    if A.shape != (p, p):
        raise ValueError(f"expected a {p} x {p} matrix")
    maps, p1 = _trace_maps(n, level)
    out = np.zeros((p1, p1))
    for src, dst, wts in maps:
        if len(src) == 0:
            continue
        out[np.ix_(dst, dst)] += A[np.ix_(src, src)] * np.outer(wts, wts)
    out /= level
    return (out + out.T) / 2.0


def partial_trace_sym(M, b):
    """Trace out b of the ell tensor systems of a maximally symmetric matrix.

    The result is again maximally symmetric, with the same trace; positive
    semidefiniteness is preserved.
    """
    if not 0 < b < M.ell:
        raise ValueError("need 0 < b < ell systems traced out")
    A = np.array(M.matrix)
    level = M.ell
    for _ in range(b):
        A = partial_trace_matrix(A, M.n, level)
        level -= 1
    return MaxSymMatrix.from_matrix(M.n, level, A)
