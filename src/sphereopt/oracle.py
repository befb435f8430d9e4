"""Reference estimator: multistart local search on the sphere.

It is deliberately independent of the relaxation machinery so it can serve
as an external check on it (the CLI's ``--oracle``).  The maximizer is a
Riemannian gradient ascent on the sphere with the normalizing retraction,
x <- normalize(x + eta (g - (g . x) x)): the sphere power method with the
adaptive shift 1/eta (SS-HOPM, Kolda & Mayo 2011).  Each step length is
remembered between steps, grown after an improvement and halved after a
failure.  All restarts advance in lock step as one batch; the value
returned is T at the best point found, a lower estimate of the true
maximum.  Restart r starts from normalized standard normal draws of the
standard library's ``random.Random``, seeded by (seed, r) alone, so a call
loads no ``numpy.random``.

The climb (:func:`sphereopt.definetti.climb`) also runs the ascent
(:func:`polish`) from the candidate maximizers it reads off an optimal
relaxation state.  T at any unit point is a lower bound on the maximum,
so that use needs no trust in the ascent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .polymat import _row_sums, evaluate, gradient

# Restarts ascend together in batches of at most this many, which bounds
# the memory of a call whatever the restart count.
CHUNK = 32
# A row of the ascent gives up after this many improving steps; its first
# trial step has this length.
MAX_STEPS = 500
INITIAL_STEP = 0.1
# The restart count and seed of a call (and of ``--oracle``) that sets none.
DEFAULT_RESTARTS = 32
DEFAULT_SEED = 0


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    argmax: np.ndarray
    converged: bool


def _start_point(n, seed, r):
    """Restart r's uniform start on the unit sphere in n variables.

    Standard normal draws, normalized, from a ``random.Random`` seeded with
    the text "seed,r": a stream of its own for each (seed, r).
    """
    gauss = random.Random(f"{seed},{r}").gauss
    while True:
        x = np.array([gauss(0.0, 1.0) for _ in range(n)])
        nrm = np.linalg.norm(x)
        if nrm >= 1e-12:
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
    C = np.abs(T._arrays[1])
    if not C.size:
        return 1.0
    top = math.frexp(C.max())[1]
    l1 = float(np.ldexp(C, -top).sum())
    return math.ldexp(1.0, -top - math.frexp(l1)[1])


def _ascend(T, X):
    """Ascend from each unit row of X; returns (points, values, converged).

    Every round, each live row tries one step of its current length.  An
    improving step is taken and the next trial is 1.5 times longer; a
    failing one halves the length.  A row stops, converged, when no step
    above 1e-14 improves or a step moves it less than 1e-12, and stops
    unconverged after ``MAX_STEPS`` taken steps.  Every operation acts
    on each row on its own, so a row's trajectory does not depend on the
    other rows in the batch.
    """
    X = np.array(X, dtype=float)
    fx = evaluate(T, X)
    G = _tangent(T, X)
    eta = np.full(len(X), INITIAL_STEP)
    taken = np.zeros(len(X), dtype=np.int64)
    converged = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
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
        keep = ~stop & (taken[live] < MAX_STEPS)
        fresh = live[up & keep]
        if fresh.size:
            G[fresh] = _tangent(T, X[fresh])
        live = live[keep]
    return X, fx, converged


def polish(T, X):
    """Ascend T from each unit row of X; returns (points, values of T).

    The ascent of :func:`sphere_maximize`, from given points: it runs on T
    scaled to unit l1 norm by a power of two, and the values are T itself
    at the points reached.
    """
    X, _, _ = _ascend(T.scaled(_unit_scale(T)), X)
    return X, evaluate(T, X)


def sphere_maximize(T, restarts=DEFAULT_RESTARTS, seed=DEFAULT_SEED):
    """Estimate max of T over the unit sphere by multistart tangent ascent.

    Each restart draws a uniform starting point from its own stream of the
    standard library's ``random.Random``, seeded by (seed, r), and every
    operation of the ascent acts on each restart on its own, so
    restart r's trajectory is a function of (T, seed, r) alone, bit for bit,
    whatever the restart count.  The ascent runs on T times the power of two
    that brings its coefficients' l1 norm into [1/2, 1), which is exact:
    for an integer k that neither overflows nor underflows a coefficient,
    ``sphere_maximize(2^k T)`` finds the same points as
    ``sphere_maximize(T)`` and 2^k times its value.  Steps start at
    ``INITIAL_STEP``; an improving step makes the next trial 1.5 times
    longer and a failing one halves it.  A restart converges when no step
    above 1e-14 improves or a step moves it less than 1e-12, and gives up
    after ``MAX_STEPS`` improving steps.  Restarts ascend in lock step,
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
        X, fx, converged = _ascend(unit, starts)
        k = int(np.argmax(fx))
        if fx[k] > best_val:
            best_val, best_x, best_conv = fx[k], X[k], bool(converged[k])
    return OracleResult(value=evaluate(T, best_x), argmax=best_x,
                        converged=best_conv)
