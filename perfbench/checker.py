"""Checks of one CLI output that trust nothing from the package.

The objective is evaluated from the generated terms with numpy.  On the
unit sphere every term of degree below the top one equals its
homogenization, so the raw terms give the values of the solved
polynomial there.  Odd-degree inputs are checked against the original
polynomial; their certificate lives on the lifted sphere.
"""

import json

import numpy as np

SAMPLES = 1024
ASCENT_STARTS = 4
ASCENT_STEPS = 100
# Tolerances relative to the l1 norm of the coefficients, which bounds |T|
# on the sphere.  The solver stops at a 1e-8 duality gap and keeps dual
# residuals below 1e-7.  Certificate residuals on the benchmark's inputs
# stay below 3e-10.
BOUND_TOL = 1e-6
CERT_TOL = 1e-7
ORACLE_TOL = 1e-9


class Poly:
    """Vectorized evaluation of a dict {exponent tuple: coefficient}."""

    def __init__(self, terms):
        exps = sorted(terms)
        self.E = np.array(exps, dtype=np.int64).reshape(len(exps), -1)
        self.c = np.array([terms[e] for e in exps], dtype=float)
        self.n = self.E.shape[1]
        self.l1 = float(np.abs(self.c).sum())
        # d/dx_i x^e = e_i x^(e - 1_i): one exponent block per variable
        lowered = [self.E - np.eye(self.n, dtype=np.int64)[i]
                   for i in range(self.n)]
        self._gE = np.maximum(np.concatenate(lowered), 0)
        self._gc = (self.E * self.c[:, None]).T
        self._cols = np.arange(self.n)

    def _monomials(self, X):
        dmax = int(self.E.max(initial=0))
        P = X[:, :, None] ** np.arange(dmax + 1)
        out = np.ones((X.shape[0], len(self.c)))
        for i in range(self.n):
            out *= P[:, i, self.E[:, i]]
        return out

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._monomials(X) @ self.c

    def _powers(self, x):
        return x[:, None] ** np.arange(int(self.E.max(initial=0)) + 1)

    def at(self, x):
        P = self._powers(x)
        return float(np.prod(P[self._cols, self.E], axis=1) @ self.c)

    def grad(self, x):
        P = self._powers(x)
        monos = np.prod(P[self._cols, self._gE], axis=1)
        return np.einsum("ij,ij->i", monos.reshape(self.n, -1), self._gc)


def sphere_points(n, count, rng):
    X = rng.standard_normal((count, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def ascend(T, x):
    """Projected gradient ascent with backtracking from a unit vector."""
    fx = T.at(x)
    step = 0.1
    for _ in range(ASCENT_STEPS):
        g = T.grad(x)
        g -= (g @ x) * x
        if np.linalg.norm(g) < 1e-13:
            break
        while step > 1e-14:
            cand = x + step * g
            cand /= np.linalg.norm(cand)
            fc = T.at(cand)
            if fc > fx:
                done = fc - fx < 1e-13 * T.l1
                x, fx = cand, fc
                step *= 2.0
                break
            step *= 0.5
        else:
            break
        if done:
            break
    return fx


def _terms_of(items):
    return {tuple(t["exps"]): float(t["coeff"]) for t in items}


def _lifted_value(T, X):
    """x0 * T(x) on points (x0, x) of the lifted sphere."""
    return X[:, 0] * T(X[:, 1:])


def check(case, code, stdout, seed):
    """Return a list of problems with one instance's output (empty if none).

    ``case`` carries the generated ``terms``, the expected ``level`` (None
    for the automatic choice) and the ``certificate`` and ``oracle`` flags.
    """
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"expected one JSON line, got {len(lines)}"]
    try:
        out = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    T = Poly(case["terms"])
    degree = max(sum(e) for e in case["terms"])
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    expect(out.get("status") == "optimal", f"status {out.get('status')}")
    expect(out.get("n") == T.n, f"n {out.get('n')} != {T.n}")
    expect(out.get("degree") == degree,
           f"degree {out.get('degree')} != {degree}")
    if case["level"] is not None:
        expect(out.get("level") == case["level"],
               f"level {out.get('level')} != {case['level']}")
    expect(out.get("lifted") == bool(degree % 2), "lift flag wrong")
    upper, lower = out.get("nu_upper"), out.get("nu_lower")
    if not all(isinstance(v, (int, float)) for v in (upper, lower)):
        return problems + ["bounds missing"]
    gamma = float(out.get("gamma") or 1.0)
    tol = BOUND_TOL * T.l1 / gamma
    expect(lower <= upper + tol, f"nu_lower {lower!r} > nu_upper {upper!r}")

    rng = np.random.default_rng(seed)
    X = sphere_points(T.n, SAMPLES, rng)
    values = T(X)
    expect(values.max() <= upper + tol,
           f"sample value {float(values.max())!r} above nu_upper {upper!r}")
    starts = [X[k] for k in np.argsort(values)[-ASCENT_STARTS:]]
    if case["oracle"]:
        arg, val = out.get("argmax"), out.get("oracle_value")
        if not isinstance(arg, list) or not isinstance(val, (int, float)):
            problems.append("oracle result missing")
        else:
            arg = np.array(arg, dtype=float)
            expect(abs(np.linalg.norm(arg) - 1.0) < 1e-9,
                   "oracle argmax not on the sphere")
            expect(abs(T.at(arg) - val) <= ORACLE_TOL * T.l1,
                   f"oracle value {val!r} != T(argmax)")
            starts.append(arg / np.linalg.norm(arg))
    best = max(float(values.max()), max(ascend(T, x) for x in starts))
    expect(best <= upper + tol,
           f"ascent value {best!r} above nu_upper {upper!r}")
    expect(lower <= best + tol, f"nu_lower {lower!r} above found {best!r}")

    if case["certificate"]:
        cert = out.get("certificate")
        if not isinstance(cert, list) or not cert:
            return problems + ["certificate missing"]
        m = T.n + 1 if degree % 2 else T.n
        Y = sphere_points(m, 256, rng)
        solved = _lifted_value(T, Y) if degree % 2 else T(Y)
        sos = np.zeros(len(Y))
        for sq in cert:
            expect(sq["weight"] > 0.0, "negative certificate weight")
            sos += sq["weight"] * Poly(_terms_of(sq["terms"]))(Y) ** 2
        resid = np.abs(upper * gamma - solved - sos).max()
        expect(resid <= CERT_TOL * T.l1,
               f"certificate residual {resid:.3e} on the sphere")
    return problems


def window_rel(stdout):
    out = json.loads(stdout.splitlines()[0])
    return (out["nu_upper"] - out["nu_lower"]) / abs(out["nu_upper"])
