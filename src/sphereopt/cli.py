"""Command-line front end.

Reads a polynomial (expression string or JSON file), normalizes it to an
even homogeneous problem, runs one or more relaxation levels, and prints
certified two-sided bounds, optionally with a sum-of-squares certificate
and a local-search comparison value.

``--level L`` and ``--level LO..HI`` solve the levels asked for, and the
guards run on the deepest of them before anything is built.  Without
``--level`` the level is adaptive: only the base level is guarded up
front; the climb solves it, reads candidate maximizers off the optimal
state, and stops once the value of the best one is within the solver's
gap rule of the upper bound; otherwise it computes its top,
:func:`choose_level`, and solves deeper levels up to it.  Its report
adds the point's value to the lower bound, and the fields
``density_lower``, ``maximizer``, ``window_closed`` and ``levels_solved``.

Output is deterministic: the same invocation produces byte-identical
output in any shell (the guards read ``--max-p`` and fixed constants, no
variable), every float prints as its Python ``repr`` (the shortest text
that parses back to the same double), and JSON mode emits one strict
JSON object per level on its own line (one for the automatic level); a
value JSON cannot carry, such as an infinite bound, exits 3 before any
output.

Exit codes: 0 success, 2 malformed input or arguments, 3 no optimal status
(in a climb: at no level), 4 problem size above the resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .definetti import candidate_points, solve_and_report
from .oracle import DEFAULT_RESTARTS, DEFAULT_SEED, polish, sphere_maximize
from .polymat import evaluate
from .reduction import canonicalize, pullback_bounds, pullback_points
from .sdp import (DEFAULT_MAX_ITERATIONS, DEFAULT_MAX_P, DEFAULT_TOL,
                  ResourceGuardError, SolverError, STATUS_OPTIMAL,
                  build_relaxation, check_level, check_solve_options,
                  extract_sos_certificate, gap_closed, resolve_max_p)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4


class ParseError(ValueError):
    """Malformed polynomial expression, with the offending offset."""

    def __init__(self, message, position):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x(?P<index>\d+))"
    r"|(?P<op>[*^+-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    # matches tile the text from its start until the first character no
    # token begins with
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind == "number":
            tokens.append(("number", float(m[kind]), pos))
        elif kind == "var":
            idx = int(m["index"])
            if idx < 1:
                raise ParseError("variable indices start at x1", pos)
            tokens.append(("var", idx, pos))
        else:
            tokens.append((m[kind], None, pos))
        pos = m.end()
    stripped = text[pos:].lstrip()
    if stripped:
        raise ParseError(f"unexpected character {stripped[0]!r}",
                         len(text) - len(stripped))
    return tokens


def parse_poly(text, n=None):
    """Parse an expression like ``3.5*x1^2*x2 - x3^4`` into (n, terms).

    Terms map exponent tuples to coefficients.  Variables are x1, x2, ...;
    when ``n`` is omitted it is inferred as the largest index used, and
    when given, the first variable above it is an error at its position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    end_pos = len(text)
    terms = {}
    max_index = 0
    i = 0
    while i < len(tokens):
        sign = 1.0
        kind, _, pos = tokens[i]
        if kind in ("+", "-"):
            sign = -1.0 if kind == "-" else 1.0
            i += 1
            if i == len(tokens):
                raise ParseError("dangling sign", pos)
        coeff = sign
        exps = {}
        while True:
            if i == len(tokens):
                raise ParseError("expected a number or variable", end_pos)
            kind, value, pos = tokens[i]
            if kind == "number":
                coeff *= value
                i += 1
            elif kind == "var":
                idx = value
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i == len(tokens) or tokens[i][0] != "number":
                        at = tokens[i][2] if i < len(tokens) else end_pos
                        raise ParseError("expected an integer exponent", at)
                    raw = tokens[i][1]
                    if not raw.is_integer():
                        raise ParseError("exponent must be a nonnegative "
                                         "integer", tokens[i][2])
                    power = int(raw)
                    i += 1
                exps[idx] = exps.get(idx, 0) + power
                max_index = max(max_index, idx)
            else:
                raise ParseError("expected a number or variable", pos)
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                continue
            break
        # a term ends at a sign or at the end: "3x1^2" is not 3*x1^2
        if i < len(tokens) and tokens[i][0] not in ("+", "-"):
            raise ParseError("expected '+', '-' or '*'", tokens[i][2])
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0.0) + coeff
    if n is None:
        n = max_index
    elif max_index > n:
        idx, pos = next(t[1:] for t in tokens if t[0] == "var" and t[1] > n)
        raise ParseError(f"variable x{idx} exceeds --n {n}", pos)
    out = {}
    for key, c in terms.items():
        e = [0] * n
        for idx, power in key:
            e[idx - 1] = power
        out[tuple(e)] = out.get(tuple(e), 0.0) + c
    return n, out


def load_json_input(stream):
    """Read {"n": ..., "terms": [{"coeff": ..., "exps": [...]}]} input."""
    try:
        data = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON input: {exc}")
    if not isinstance(data, dict):
        raise ValueError("JSON input must be an object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("JSON field 'n' must be a positive integer")
    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("JSON field 'terms' must be a nonempty list")
    terms = {}
    for k, item in enumerate(raw_terms):
        if not isinstance(item, dict):
            raise ValueError(f"terms[{k}] must be an object")
        coeff = item.get("coeff")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"terms[{k}].coeff must be a number")
        exps = item.get("exps")
        if (not isinstance(exps, list) or len(exps) != n
                or any(isinstance(e, bool) or not isinstance(e, int) or e < 0
                       for e in exps)):
            raise ValueError(
                f"terms[{k}].exps must be {n} nonnegative integers")
        try:
            coeff = float(coeff)
        except OverflowError:
            raise ValueError(f"terms[{k}].coeff does not fit in a float")
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return n, terms


def _poly_terms_json(T):
    return [{"coeff": float(a), "exps": list(mi)}
            for mi, a in T.catalog_terms()]


def _poly_str(terms, names):
    parts = []
    for term in terms:
        factors = [repr(term["coeff"])]
        for name, e in zip(names, term["exps"]):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def choose_level(n, a, max_p):
    """Top of the automatic climb: the deepest level the guards accept.

    Climbs from the base level a while :func:`sphereopt.sdp.check_level`
    accepts the next level; raises ResourceGuardError when even the base
    level is out of reach.  The CLI computes this level only once a solved
    level of the climb leaves the window open.
    """
    check_level(n, a, max_p)
    level = a
    while True:
        try:
            check_level(n, level + 1, max_p)
        except ResourceGuardError:
            return level
        level += 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sphereopt",
        description="Certified bounds for polynomial maxima on the unit "
                    "sphere via a converging relaxation hierarchy.")
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", metavar="EXPR",
                     help="polynomial expression, e.g. '3.5*x1^2*x2 - x3^4'")
    src.add_argument("--input", metavar="PATH",
                     help="JSON file with fields n and terms ('-' for stdin)")
    parser.add_argument("--n", type=int, default=None,
                        help="number of variables (default: inferred)")
    parser.add_argument("--level", default=None, metavar="L|LO..HI",
                        help="relaxation level or inclusive range "
                             "(default: automatic)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="solver duality-gap tolerance (default "
                             f"{DEFAULT_TOL})")
    parser.add_argument("--max-iterations", type=int,
                        default=DEFAULT_MAX_ITERATIONS,
                        help="interior-point iteration budget (default "
                             f"{DEFAULT_MAX_ITERATIONS})")
    parser.add_argument("--max-p", type=int, default=None,
                        help="matrix-side resource guard (default "
                             f"{DEFAULT_MAX_P})")
    parser.add_argument("--oracle", action="store_true",
                        help="also run seeded local search for comparison")
    parser.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                        help="local-search restarts (default "
                             f"{DEFAULT_RESTARTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the local search (default "
                             f"{DEFAULT_SEED})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--certificate", action="store_true",
                        help="include the sum-of-squares certificate")
    return parser


def _parse_level_spec(spec, a):
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", spec or "")
    if m is None:
        raise ValueError(f"--level must be L or LO..HI, got {spec!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise ValueError(f"--level range is empty: {spec}")
    if lo < a:
        raise ValueError(f"--level must be at least {a} for this degree")
    return range(lo, hi + 1)


def _report_payload(report, record, oracle_result, certificate, climb=None):
    payload = {
        "n": report.n,
        "degree": report.degree,
        "level": report.level,
        "nu_upper": report.nu_upper,
        "nu_lower": report.nu_lower,
    }
    if climb is not None:
        # the point bound raises nu_lower; the density bound keeps its own
        # field
        payload.update(climb)
    payload.update({
        "eps": report.eps,
        "eps_valid": report.eps_valid,
        "duality_gap": report.duality_gap,
        "status": report.status,
        "iterations": report.iterations,
        "tol": report.tol,
        "lifted": record.lifted,
        "gamma": record.gamma,
        # the probability density certifying the density bound, in the
        # solved (possibly lifted) variables
        "density": _poly_terms_json(report.density.poly),
    })
    if oracle_result is None:
        payload["oracle_value"] = None
        payload["argmax"] = None
    else:
        payload["oracle_value"] = oracle_result.value
        payload["argmax"] = [float(v) for v in oracle_result.argmax]
    if certificate is None:
        payload["certificate"] = None
    else:
        payload["certificate"] = [
            {"weight": w, "terms": _poly_terms_json(poly)}
            for w, poly in certificate]
    return payload


def _text_report(payload):
    """The payload as aligned text lines; floats print as their repr."""
    lines = []

    def line(label, value):
        lines.append(f"{label:<16}{value}\n")

    line("variables", payload["n"])
    line("degree", payload["degree"])
    line("level", payload["level"])
    if payload["lifted"]:
        line("lifted", f"odd degree, scale {payload['gamma']!r}")
    line("upper bound", repr(payload["nu_upper"]))
    line("lower bound", repr(payload["nu_lower"]))
    line("window", repr(payload["nu_upper"] - payload["nu_lower"]))
    if "levels_solved" in payload:
        line("density bound", repr(payload["density_lower"]))
        point = payload["maximizer"]
        line("maximizer", "none" if point is None
             else " ".join(map(repr, point)))
        line("window closed", "yes" if payload["window_closed"] else "no")
        line("levels solved", " ".join(map(str, payload["levels_solved"])))
    eps_note = "valid" if payload["eps_valid"] else "not yet valid"
    line("a priori eps", f"{payload['eps']!r} ({eps_note})")
    line("duality gap", repr(payload["duality_gap"]))
    line("status", f"{payload['status']} ({payload['iterations']} "
                   "iterations)")
    if payload["oracle_value"] is not None:
        line("oracle value", repr(payload["oracle_value"]))
        line("oracle argmax", " ".join(map(repr, payload["argmax"])))
    certificate = payload["certificate"]
    if certificate is not None:
        if payload["lifted"]:
            names = ["x0"] + [f"x{t}" for t in range(1, payload["n"] + 1)]
        else:
            names = [f"x{t + 1}" for t in range(payload["n"])]
        line("certificate", f"{len(certificate)} squares")
        for k, square in enumerate(certificate):
            line(f"  square {k}", f"{square['weight']!r} * "
                                  f"({_poly_str(square['terms'], names)})^2")
    return "".join(lines)


def _solve(problem, record, args):
    report, solution = solve_and_report(problem, tol=args.tol,
                                        max_iterations=args.max_iterations)
    return pullback_bounds(record, report), solution


def _best_point(record, M, upper, tol):
    """(value, point): the best original-sphere point an optimal state gives.

    The candidates are the eigenvectors of the level-1 reduction of M
    (:func:`sphereopt.definetti.candidate_points`), valued with the
    original polynomial; they are polished by tangent ascent only when
    none of them closes the window under ``upper``.
    """
    T = record.original
    X = pullback_points(record, candidate_points(M))
    values = evaluate(T, X)
    if not gap_closed(upper - values.max(), upper, tol):
        X, values = polish(T, X)
    k = int(np.argmax(values))
    return float(values[k]), [float(v) for v in X[k]]


def _next_level(level, top):
    """Double while a further doubling stays within top, then jump to top.

    Solve time grows about as level^6 at n = 3, so the levels below the top
    cost little beside it: from 2 to 19 the climb is 2, 4, 8, 19, by that
    model 1.006 solves at 19 (plain doubling, 2, 4, 8, 16, 19, is 1.36).
    """
    return 2 * level if 4 * level <= top else top


def _climb(problem, record, args, max_p):
    """Solve from the base level up to the top until a point closes the window.

    After each optimal solve, the best point read off the state gives the
    lower bound T(point); the climb stops once it is within the solver's
    gap rule of the upper bound, at a solve that is not optimal, at the
    top, or at a level the guards or the padding refuse.  The top,
    :func:`choose_level`, is computed only once a solved level leaves the
    window open.  Returns the last level's (report, solution) and the
    fields the climb adds to its payload, or, after a solve that is not
    optimal, those of the optimal level with the least upper bound.
    """
    levels = []
    value, point, closed, top, best = -math.inf, None, False, None, None
    while True:
        report, solution = _solve(problem, record, args)
        levels.append(problem.ell)
        if solution.status != STATUS_OPTIMAL:
            if best is not None:
                report, solution = best
                closed = gap_closed(report.nu_upper - value,
                                    report.nu_upper, args.tol)
            break
        if best is None or report.nu_upper < best[0].nu_upper:
            best = report, solution
        found = _best_point(record, solution.M_star, report.nu_upper,
                            args.tol)
        if found[0] > value:
            value, point = found
        closed = gap_closed(report.nu_upper - value, report.nu_upper,
                            args.tol)
        if closed:
            break
        if top is None:
            top = choose_level(problem.n, problem.a, max_p)
        if problem.ell == top:
            break
        try:
            problem = build_relaxation(record.solve_target,
                                       _next_level(problem.ell, top),
                                       max_p=max_p)
        except (ResourceGuardError, ValueError):
            break
    climb = {"nu_lower": max(report.nu_lower, value),
             "density_lower": report.nu_lower, "maximizer": point,
             "window_closed": closed, "levels_solved": levels}
    return report, solution, climb


def run(args, out=None, err=None):
    """Execute one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    try:
        # malformed settings fail before any input is read or solved
        check_solve_options(args.tol, args.max_iterations)
        if args.oracle and args.restarts < 1:
            raise ValueError(
                f"--restarts must be at least 1, got {args.restarts}")
        if args.oracle and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        max_p = resolve_max_p(args.max_p)
        if args.n is not None and args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        if args.poly is not None:
            n, terms = parse_poly(args.poly, args.n)
        else:
            if args.input == "-":
                n, terms = load_json_input(sys.stdin)
            else:
                try:
                    with open(args.input, "r", encoding="utf-8") as fh:
                        n, terms = load_json_input(fh)
                except OSError as exc:
                    raise ValueError(f"cannot read {args.input}: {exc}")
            if args.n is not None and args.n != n:
                raise ValueError(
                    f"--n {args.n} conflicts with JSON field n = {n}")
        record = canonicalize(n, terms)
        # Reading record.solve_target pads the terms to one degree, which
        # makes about as many terms as the base level has rows, so the
        # guards run first, on the deepest level asked for, and a bad
        # range fails fast.  The automatic climb guards only its base
        # level here; it builds the levels above, and computes its top, as
        # it reaches them.
        if args.level is None:
            levels = [record.a]
        else:
            levels = _parse_level_spec(args.level, record.a)
        check_level(record.solve_n, levels[-1], max_p)
        target = record.solve_target
        problems = [build_relaxation(target, level, max_p=max_p)
                    for level in levels]
    except ResourceGuardError as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_INPUT

    oracle_result = None
    if args.oracle:
        oracle_result = sphere_maximize(record.original,
                                        restarts=args.restarts,
                                        seed=args.seed)

    code = EXIT_OK
    blocks = []
    try:
        while problems:
            # popped, so a solved level's matrices are freed with its
            # solution
            climb = None
            if args.level is None:
                report, solution, climb = _climb(problems.pop(0), record,
                                                 args, max_p)
            else:
                report, solution = _solve(problems.pop(0), record, args)
            certificate = None
            if args.certificate and solution.status == STATUS_OPTIMAL:
                certificate = extract_sos_certificate(solution)
            payload = _report_payload(report, record, oracle_result,
                                      certificate, climb)
            # rendered here, so a value JSON cannot carry exits before any
            # output
            if args.format == "json":
                blocks.append(json.dumps(payload, separators=(",", ":"),
                                         allow_nan=False) + "\n")
            else:
                blocks.append(_text_report(payload))
            if solution.status != STATUS_OPTIMAL:
                code = EXIT_SOLVER
    except ResourceGuardError as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_RESOURCE
    except (SolverError, ValueError) as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_SOLVER

    # text reports are separated by a blank line
    out.write(("\n" if args.format == "text" else "").join(blocks))
    return code


# parse_args keeps no state between calls, so every call shares one parser
_PARSER = _build_parser()


def main(argv=None):
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
