"""Reference estimator: multistart local search on the sphere.

It is deliberately independent of the relaxation machinery so it can serve
as an external check on it (the CLI's ``--oracle``).  The maximizer is a
projected gradient ascent on the sphere with backtracking; it returns a
certified-by-evaluation lower estimate of the true maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polymat import evaluate, gradient


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    argmax: np.ndarray
    restarts_used: int
    converged: bool


def _restart_rng(seed, r):
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def sphere_maximize(T, restarts=32, max_iterations=500, initial_step=0.1,
                    seed=0):
    """Estimate max of T over the unit sphere by multistart projected ascent.

    Each restart draws a uniform starting point from its own child seed (so
    results for a given restart index never depend on the total restart
    count), then iterates x <- normalize(x + eta grad T), halving eta from
    ``initial_step`` until the objective improves.  A restart stops when no
    improving step exists, when the move is below 1e-12, or after
    ``max_iterations`` iterations; the convergence flag of the best restart
    is reported.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    best_val = -np.inf
    best_x = None
    best_conv = False
    for r in range(restarts):
        rng = _restart_rng(seed, r)
        x = rng.standard_normal(T.n)
        nrm = np.linalg.norm(x)
        while nrm < 1e-12:
            x = rng.standard_normal(T.n)
            nrm = np.linalg.norm(x)
        x = x / nrm
        fx = evaluate(T, x)
        converged = False
        for _ in range(max_iterations):
            g = gradient(T, x)
            eta = initial_step
            xn, fn = None, None
            while eta > 1e-14:
                cand = x + eta * g
                nrm = np.linalg.norm(cand)
                if nrm > 0.0:
                    cand = cand / nrm
                    val = evaluate(T, cand)
                    if val > fx:
                        xn, fn = cand, val
                        break
                eta *= 0.5
            if xn is None:
                converged = True
                break
            small = np.linalg.norm(xn - x) < 1e-12
            x, fx = xn, fn
            if small:
                converged = True
                break
        if fx > best_val:
            best_val, best_x, best_conv = fx, x, converged
    return OracleResult(value=float(best_val), argmax=best_x,
                        restarts_used=restarts, converged=best_conv)
