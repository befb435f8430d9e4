"""Reference estimator: multistart local search on the sphere.

It is deliberately independent of the relaxation machinery so it can serve
as an external check on it (the CLI's ``--oracle``).  The maximizer is a
Riemannian gradient ascent on the sphere with the normalizing retraction,
x <- normalize(x + eta (g - (g . x) x)): the sphere power method with the
adaptive shift 1/eta (SS-HOPM, Kolda & Mayo 2011).  Each step length is
remembered between steps, grown after an improvement and halved after a
failure.  All restarts advance in lock step as one batch; the value
returned is T at the best point found, a lower estimate of the true
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polymat import _row_sums, evaluate, gradient

# Restarts ascend together in batches of at most this many, which bounds
# the memory of a call whatever the restart count.
CHUNK = 32


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    argmax: np.ndarray
    restarts_used: int
    converged: bool


def _restart_rng(seed, r):
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def _start_point(n, seed, r):
    rng = _restart_rng(seed, r)
    x = rng.standard_normal(n)
    nrm = np.linalg.norm(x)
    while nrm < 1e-12:
        x = rng.standard_normal(n)
        nrm = np.linalg.norm(x)
    return x / nrm


def _row_norms(X):
    return np.sqrt(_row_sums(X * X))


def _tangent(T, X):
    """Gradient of T at the rows of X, projected onto their tangent spaces."""
    G = gradient(T, X)
    return G - _row_sums(G * X)[:, None] * X


def _unit_scale(T):
    """The power of two that puts the l1 norm of T's coefficients in [1/2, 1).

    Multiplying by it is exact in binary and makes the ascent independent
    of the scale of T.
    """
    C = np.abs(T._arrays()[1])
    if not C.size:
        return 1.0
    top = math.frexp(C.max())[1]
    l1 = float(np.ldexp(C, -top).sum())
    return math.ldexp(1.0, -top - math.frexp(l1)[1])


def _ascend(T, X, max_iterations, initial_step):
    """Ascend from each unit row of X; returns (points, values, converged).

    Every round, each live row tries one step of its current length.  An
    improving step is taken and the next trial is 1.5 times longer; a
    failing one halves the length.  A row stops, converged, when no step
    above 1e-14 improves or a step moves it less than 1e-12, and stops
    unconverged after ``max_iterations`` taken steps.  Every operation acts
    on each row on its own, so a row's trajectory does not depend on the
    other rows in the batch.
    """
    X = np.array(X, dtype=float)
    fx = evaluate(T, X)
    G = _tangent(T, X)
    eta = np.full(len(X), float(initial_step))
    taken = np.zeros(len(X), dtype=np.int64)
    converged = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X)) if max_iterations > 0 else np.arange(0)
    while live.size:
        x = X[live]
        cand = x + eta[live, None] * G[live]
        cand /= _row_norms(cand)[:, None]
        fc = evaluate(T, cand)
        up = fc > fx[live]
        moved = live[up]
        X[moved], fx[moved] = cand[up], fc[up]
        taken[moved] += 1
        eta[live] *= np.where(up, 1.5, 0.5)
        stop = np.where(up, _row_norms(cand - x) < 1e-12, eta[live] <= 1e-14)
        converged[live[stop]] = True
        keep = ~stop & (taken[live] < max_iterations)
        fresh = live[up & keep]
        if fresh.size:
            G[fresh] = _tangent(T, X[fresh])
        live = live[keep]
    return X, fx, converged


def sphere_maximize(T, restarts=32, max_iterations=500, initial_step=0.1,
                    seed=0):
    """Estimate max of T over the unit sphere by multistart tangent ascent.

    Each restart draws a uniform starting point from its own child seed, and
    every operation of the ascent acts on each restart on its own, so
    restart r's trajectory is a function of (T, seed, r) alone, bit for bit,
    whatever the restart count.  The ascent runs on T times the power of two
    that brings its coefficients' l1 norm into [1/2, 1), which is exact:
    for an integer k that neither overflows nor underflows a coefficient,
    ``sphere_maximize(2^k T)`` finds the same points as
    ``sphere_maximize(T)`` and 2^k times its value.  Steps start at
    ``initial_step``; an improving step makes the next trial 1.5 times
    longer and a failing one halves it.  A restart converges when no step
    above 1e-14 improves or a step moves it less than 1e-12, and gives up
    after ``max_iterations`` improving steps.  Restarts ascend in lock step,
    in batches of at most ``CHUNK``.  The result holds the best point, T
    evaluated there, and the convergence flag of that restart.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    unit = T.scaled(_unit_scale(T))
    best_val, best_x, best_conv = -np.inf, None, False
    for r0 in range(0, restarts, CHUNK):
        starts = [_start_point(T.n, seed, r)
                  for r in range(r0, min(r0 + CHUNK, restarts))]
        X, fx, converged = _ascend(unit, starts, max_iterations,
                                   initial_step)
        k = int(np.argmax(fx))
        if fx[k] > best_val:
            best_val, best_x, best_conv = fx[k], X[k], bool(converged[k])
    return OracleResult(value=evaluate(T, best_x), argmax=best_x,
                        restarts_used=restarts, converged=best_conv)
