"""Multi-index combinatorics and the symmetric-subspace number-state basis.

A multi-index i = (i_1, ..., i_n) labels the monomial
x^i = x_1^{i_1} * ... * x_n^{i_n} and, when |i| = l, the normalized
symmetrization |i> of the product vector e_1^{(x)i_1} (x) ... (x) e_n^{(x)i_n}
in (R^n)^{(x)l}.  The vectors |i> form an orthonormal basis of the symmetric
subspace Sym((R^n)^{(x)l}), whose dimension is C(l + n - 1, l).

An exponent is a plain tuple of ints, as in the keys of ``HomoPoly.coeffs``,
or a row of an int64 array; :func:`exponent_tuple` validates one where a
public entry accepts it.  Every coordinate vector in the package is indexed
by one catalog: ``basis_catalog(n, d)`` is the (size, n) int64 array of the
degree-d exponent rows in x1-major order, and ``catalog_rank`` maps exponent
rows (or sums of them) to their row in that array in closed form.  Within
one degree the x1-major order is descending tuple order, the order in which
``HomoPoly.catalog_terms`` lists a polynomial's terms.

The package works exclusively in number-state coordinates and never
touches the n^l-dimensional product space.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def exponent_tuple(exponents, n=None, degree=None):
    """Validated exponent tuple of plain ints.

    Raises ValueError for a negative exponent and, when given, for a length
    other than ``n`` or a total degree other than ``degree``.
    """
    exps = tuple(map(int, exponents))
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in multi-index {exps}")
    if n is not None and len(exps) != n:
        raise ValueError(f"{exps} has {len(exps)} slots, expected {n}")
    if degree is not None and sum(exps) != degree:
        raise ValueError(f"{exps} has degree {sum(exps)}, expected {degree}")
    return exps


def sym_dimension(n, level):
    """dim Sym((R^n)^{(x)level}) = C(level + n - 1, level).

    Exact integer arithmetic; Python integers do not overflow.
    """
    if n < 1 or level < 0:
        raise ValueError("need n >= 1 and level >= 0")
    return math.comb(level + n - 1, level)


@lru_cache(maxsize=None)
def basis_catalog(n, degree):
    """Read-only (size, n) int64 array of the degree-``degree`` exponents.

    Rows are the multi-indices on n slots summing to ``degree``, strictly
    decreasing in lexicographic (x1-major) order; row r is the catalog
    position r that :func:`catalog_rank` computes.  Built by stars and
    bars: the (n - 1) bar positions among degree + n - 1 slots, listed in
    decreasing order, differenced into exponents.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    size = sym_dimension(n, degree)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(degree + n - 1), n - 1)),
        dtype=np.int64, count=size * (n - 1)).reshape(size, n - 1)
    out = np.diff(bars[::-1], axis=1, prepend=-1, append=degree + n - 1) - 1
    out.setflags(write=False)
    return out


def catalog_rank(*exponents):
    """Catalog positions of summed exponent rows, in closed form.

    Each operand is an integer array whose last axis holds n exponents;
    the operands broadcast against each other and their sum must be a
    valid multi-index.  The result, of the broadcast shape without the
    last axis, is the position of that sum in its catalog, i.e. its row in
    ``basis_catalog(n, |e|)``:

        rank(e) = sum_{t=1}^{n-1} C(r_t + m_t - 1, m_t),
        r_t = e_{t+1} + ... + e_n,  m_t = n - t,

    which counts the catalog members whose first difference from e is a
    larger exponent.  The sum is accumulated slot by slot from the
    operands' suffix sums, so no broadcast exponent array is formed.
    """
    ops = [np.asarray(e, dtype=np.int64) for e in exponents]
    n = ops[0].shape[-1]
    # suffix[..., t] = e_{t+1} + ... + e_n for the slots t that carry a term
    suffix = [np.cumsum(e[..., :0:-1], axis=-1)[..., ::-1] for e in ops]
    rank = np.zeros(np.broadcast_shapes(*(e.shape[:-1] for e in ops)),
                    dtype=np.int64)
    top = sum(int(s.max(initial=0)) for s in suffix)
    table = np.array([[math.comb(r + n - 2 - t, n - 1 - t)
                       for r in range(top + 1)] for t in range(n - 1)],
                     dtype=np.int64)
    for t in range(n - 1):
        rank += table[t][sum(s[..., t] for s in suffix)]
    return rank
