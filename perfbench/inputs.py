"""Seeded polynomial inputs for the benchmark, built with numpy alone.

A polynomial is a dict mapping exponent tuples to float coefficients.  The
program under test only ever sees the rendered ``--poly`` expression.
"""

import math

import numpy as np


def monomials(n, degree):
    """Exponent tuples of one degree, x1-major (the package's catalog order)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, n)
    return out


def random_form(n, degree, seed):
    """Random form with unit l1 coefficient norm.

    Draws the same numbers as ``tests/test_acceptance.py::_random_poly``:
    standard normal number-state coordinates scaled by sqrt(degree!/k!).
    """
    rng = np.random.default_rng(seed)
    exps = monomials(n, degree)
    z = rng.standard_normal(len(exps))
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, degree + 1)))))
    lk = lf[np.array(exps, dtype=np.int64)].sum(axis=1)
    alpha = z * np.exp(0.5 * (math.lgamma(degree + 1) - lk))
    raw = {e: float(a) for e, a in zip(exps, alpha) if a != 0.0}
    factor = 1.0 / sum(abs(c) for c in raw.values())
    return {e: factor * a for e, a in raw.items()}


def to_expr(terms):
    """Render terms as a ``--poly`` expression that parses back exactly."""
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        factors = [repr(abs(float(c)))]
        factors += [f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"
                    for i, k in enumerate(e) if k]
        parts.append(("-" if c < 0 else "+") + "*".join(factors))
    return " ".join(parts)
