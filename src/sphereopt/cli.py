"""Command-line front end.

Reads a polynomial (expression string or JSON file), normalizes it to an
even homogeneous problem, runs one or more relaxation levels, and prints
certified two-sided bounds, optionally with a sum-of-squares certificate
and a local-search comparison value.

Output is deterministic: the same invocation produces byte-identical
output, floats are rendered with repr-faithful precision, and JSON mode
emits one object per level on its own line.

Exit codes: 0 success, 2 malformed input or arguments, 3 solver did not
reach an optimal status, 4 problem size above the resource guard.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .definetti import solve_and_report
from .harmonics import definetti_eps
from .oracle import sphere_maximize
from .reduction import canonicalize, pullback_bounds, solve_shape
from .sdp import (MAX_P_ENV, ResourceGuardError, SolverError, STATUS_OPTIMAL,
                  build_relaxation, check_level, check_solve_options,
                  extract_sos_certificate, resolve_max_p)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4

MAX_AUTO_LEVEL = 64


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
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("number") is not None:
            tokens.append(("number", float(m.group("number")), m.start()))
        elif m.group("var") is not None:
            idx = int(m.group("index"))
            if idx < 1:
                raise ParseError("variable indices start at x1", m.start())
            tokens.append(("var", idx, m.start()))
        else:
            tokens.append((m.group("op"), None, m.start()))
        pos = m.end()
    return tokens


def parse_poly(text, n=None):
    """Parse an expression like ``3.5*x1^2*x2 - x3^4`` into (n, terms).

    Terms map exponent tuples to coefficients.  Variables are x1, x2, ...;
    when ``n`` is omitted it is inferred as the largest index used.
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
        saw_factor = False
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
            saw_factor = True
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", end_pos)
        key = tuple(sorted(exps.items()))
        terms[key] = terms.get(key, 0.0) + coeff
    if n is None:
        n = max_index
    elif max_index > n:
        raise ParseError(f"variable x{max_index} exceeds --n {n}", 0)
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


def _fmt_float(v):
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        return "null"
    out = "%.17g" % v
    return out


def _emit_json(value):
    """Deterministic JSON text: insertion-ordered keys, %.17g floats."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_emit_json(v)}"
                         for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _poly_terms_json(T):
    return [{"coeff": float(a), "exps": list(mi)}
            for mi, a in T.catalog_terms()]


def _poly_str(T, names):
    parts = []
    for mi, a in T.catalog_terms():
        factors = [_fmt_float(a)]
        for t, e in enumerate(mi):
            if e == 1:
                factors.append(names[t])
            elif e > 1:
                factors.append(f"{names[t]}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def choose_level(n, a, max_p):
    """Smallest level whose a priori error bound is at most one half.

    Starts at the base level a and climbs while the bound exceeds one half
    and :func:`sphereopt.sdp.check_level` accepts the next level, up to
    ``MAX_AUTO_LEVEL``; so it falls back to the deepest level within the
    size guard, the Schur-memory guard and the conditioning floor.  Raises
    ResourceGuardError when even the base level is out of reach.
    """
    check_level(n, a, max_p)
    level = a
    while level < MAX_AUTO_LEVEL:
        eps = definetti_eps(a, level, n)
        if eps.valid and eps.value <= 0.5:
            break
        try:
            check_level(n, level + 1, max_p)
        except ResourceGuardError:
            break
        level += 1
    return level


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
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="solver duality-gap tolerance (default 1e-8)")
    parser.add_argument("--max-iterations", type=int, default=120,
                        help="interior-point iteration budget (default 120)")
    parser.add_argument("--max-p", type=int, default=None,
                        help="matrix-side resource guard (default "
                             f"${MAX_P_ENV} or 512)")
    parser.add_argument("--oracle", action="store_true",
                        help="also run seeded local search for comparison")
    parser.add_argument("--restarts", type=int, default=32,
                        help="local-search restarts (default 32)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the local search (default 0)")
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


def _report_payload(report, record, oracle_result, certificate):
    payload = {
        "n": report.n,
        "degree": report.degree,
        "level": report.level,
        "nu_upper": report.nu_upper,
        "nu_lower": report.nu_lower,
        "eps": report.eps,
        "eps_valid": report.eps_valid,
        "duality_gap": report.duality_gap,
        "status": report.status,
        "iterations": report.iterations,
        "tol": report.tol,
        "lifted": record.lifted,
        "gamma": record.gamma,
        # the probability density certifying nu_lower, in the solved
        # (possibly lifted) variables
        "density": _poly_terms_json(report.density.poly),
    }
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


def _print_text(payload, record, certificate, out):
    def line(label, value):
        out.write(f"{label:<16}{value}\n")

    line("variables", payload["n"])
    line("degree", payload["degree"])
    line("level", payload["level"])
    if record.lifted:
        line("lifted", f"odd degree, scale {_fmt_float(record.gamma)}")
    line("upper bound", _fmt_float(payload["nu_upper"]))
    line("lower bound", _fmt_float(payload["nu_lower"]))
    width = payload["nu_upper"] - payload["nu_lower"]
    line("window", _fmt_float(width))
    eps_note = "valid" if payload["eps_valid"] else "not yet valid"
    line("a priori eps", f"{_fmt_float(payload['eps'])} ({eps_note})")
    line("duality gap", _fmt_float(payload["duality_gap"]))
    line("status", f"{payload['status']} ({payload['iterations']} "
                   "iterations)")
    if payload["oracle_value"] is not None:
        line("oracle value", _fmt_float(payload["oracle_value"]))
        coords = " ".join(_fmt_float(v) for v in payload["argmax"])
        line("oracle argmax", coords)
    if certificate is not None:
        if record.lifted:
            names = ["x0"] + [f"x{t}" for t in range(1, payload["n"] + 1)]
        else:
            names = [f"x{t + 1}" for t in range(payload["n"])]
        line("certificate", f"{len(certificate)} squares")
        for k, (w, poly) in enumerate(certificate):
            line(f"  square {k}",
                 f"{_fmt_float(w)} * ({_poly_str(poly, names)})^2")


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
        solve_n, a = solve_shape(n, terms)
    except ValueError as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_INPUT

    try:
        # Padding the terms to one degree makes about as many terms as the
        # base level has rows, so the guards run first, on the deepest
        # level, and a bad range fails fast.
        if args.level is None:
            levels = [choose_level(solve_n, a, max_p)]
        else:
            levels = _parse_level_spec(args.level, a)
            check_level(solve_n, levels[-1], max_p)
        record = canonicalize(n, terms)
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
            report, solution = solve_and_report(
                problems.pop(0), tol=args.tol,
                max_iterations=args.max_iterations)
            report = pullback_bounds(record, report)
            if args.oracle:
                report = report.with_oracle(oracle_result.value)
            certificate = None
            if args.certificate and solution.status == STATUS_OPTIMAL:
                certificate = extract_sos_certificate(solution)
            payload = _report_payload(report, record, oracle_result,
                                      certificate)
            blocks.append((payload, certificate))
            if solution.status != STATUS_OPTIMAL:
                code = EXIT_SOLVER
    except ResourceGuardError as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_RESOURCE
    except (SolverError, ValueError) as exc:
        err.write(f"sphereopt: {exc}\n")
        return EXIT_SOLVER

    if args.format == "json":
        for payload, _ in blocks:
            out.write(_emit_json(payload) + "\n")
    else:
        for k, (payload, certificate) in enumerate(blocks):
            if k:
                out.write("\n")
            _print_text(payload, record, certificate, out)
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
