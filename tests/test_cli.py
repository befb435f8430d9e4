import dataclasses
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from sphereopt import cli, definetti, oracle, polymat, reduction, sdp
from sphereopt.cli import (EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_SOLVER,
                           ParseError, choose_level, load_json_input, main,
                           parse_poly)
from sphereopt.polymat import homo_poly
from sphereopt.sdp import ResourceGuardError, SolverError

from reference import integrate_poly


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(cli._build_parser().parse_args(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_poly_basic_grammar():
    n, terms = parse_poly("x1^2*x2 - 3*x3")
    assert n == 3
    assert terms == {(2, 1, 0): 1.0, (0, 0, 1): -3.0}
    n, terms = parse_poly("-x2^4")
    assert n == 2
    assert terms == {(0, 4): -1.0}
    n, terms = parse_poly("3.5*x1^2*x2")
    assert terms == {(2, 1): 3.5}
    n, terms = parse_poly("x1*x1*x2")
    assert terms == {(2, 1): 1.0}
    n, terms = parse_poly("x1*x2 + x2*x1")
    assert terms == {(1, 1): 2.0}
    n, terms = parse_poly("1e-2*x1^2 + 2*0.5*x2^2")
    assert terms == {(2, 0): 0.01, (0, 2): 1.0}
    n, terms = parse_poly("2.0")
    assert n == 0 and terms == {(): 2.0}


def test_parse_poly_explicit_dimension():
    n, terms = parse_poly("x1^2", 3)
    assert n == 3
    assert terms == {(2, 0, 0): 1.0}
    with pytest.raises(ParseError, match="exceeds --n"):
        parse_poly("x3^2", 2)


# as for every token, the position is where the variable's match starts,
# before any whitespace
@pytest.mark.parametrize("text, message", [
    ("x1^2 + x3^2", "position 6: variable x3 exceeds --n 2"),
    ("x1^2 + x4^2 - x3^2", "position 6: variable x4 exceeds --n 2"),
    ("x1*x3^2 + x5", "position 3: variable x3 exceeds --n 2"),
    ("x3", "position 0: variable x3 exceeds --n 2"),
])
def test_parse_poly_points_at_the_first_variable_above_n(text, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text, 2)
    assert str(info.value) == f"parse error at {message}"
    assert info.value.position == int(message.split(":")[0].split()[1])
    code, out, err = _run(["--poly", text, "--n", "2"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"sphereopt: parse error at {message}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_is_refused_up_front(monkeypatch, tmp_path, n):
    _forbid_solving(monkeypatch)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 2, "terms": [{"coeff": 1.0,
                                                   "exps": [2, 0]}]}),
                    encoding="utf-8")
    for source in (["--poly", "x1^2+x2^2"], ["--input", str(path)]):
        code, out, err = _run(source + ["--n", n])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"sphereopt: --n must be at least 1, got {n}\n"


def test_parse_poly_error_positions():
    with pytest.raises(ParseError, match="position 3"):
        parse_poly("x1^")
    with pytest.raises(ParseError, match="start at x1"):
        parse_poly("x0^2")
    with pytest.raises(ParseError, match="empty polynomial"):
        parse_poly("   ")
    with pytest.raises(ParseError, match="dangling sign"):
        parse_poly("x1^2 +")
    with pytest.raises(ParseError, match="number or variable"):
        parse_poly("x1 + * x2")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("x1 @ x2")
    with pytest.raises(ParseError, match="integer exponent"):
        parse_poly("x1^-2")
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_poly("x1^2.5")
    with pytest.raises(ParseError, match="position 3: exponent must be"):
        parse_poly("x1^1e400 + x2^2")  # the exponent overflows to inf


@pytest.mark.parametrize("text, position", [
    ("3x1^2 + x2^2", 1),  # used to read as 3 + x1^2 + x2^2
    ("x1^2 x2^2", 4),     # used to read as x1^2 + x2^2
    ("2 3*x1^2", 1),      # used to read as 2 + 3*x1^2
    ("3^2", 1),           # only a variable takes an exponent
])
def test_parse_poly_rejects_juxtaposed_terms(text, position):
    with pytest.raises(ParseError) as caught:
        parse_poly(text)
    assert str(caught.value) == (f"parse error at position {position}: "
                                 "expected '+', '-' or '*'")
    assert caught.value.position == position
    code, out, err = _run(["--poly", text])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"sphereopt: {caught.value}\n"


def test_tokenize_positions_and_errors():
    # a token's position is where its match starts, before any whitespace
    assert cli._tokenize(" x12 *3.5 ") == [("var", 12, 0), ("*", None, 4),
                                           ("number", 3.5, 6)]
    assert cli._tokenize("  ") == []
    with pytest.raises(ParseError, match="position 3: unexpected character "
                                         "'@'"):
        cli._tokenize("x1 @ x2")
    with pytest.raises(ParseError, match="position 4: variable indices"):
        cli._tokenize("x1 + x0 $")
    with pytest.raises(ParseError, match="position 6: unexpected character "
                                         "'y'"):
        cli._tokenize("x1 +  y")


def test_load_json_input_roundtrips_and_validates():
    good = {"n": 2, "terms": [{"coeff": 1.5, "exps": [2, 0]},
                              {"coeff": -1, "exps": [0, 2]},
                              {"coeff": 0.5, "exps": [2, 0]}]}
    n, terms = load_json_input(io.StringIO(json.dumps(good)))
    assert n == 2
    assert terms == {(2, 0): 2.0, (0, 2): -1.0}
    bad_cases = [
        "not json",
        "[1, 2]",
        '{"terms": [{"coeff": 1, "exps": [2]}]}',
        '{"n": true, "terms": [{"coeff": 1, "exps": [2]}]}',
        '{"n": 0, "terms": [{"coeff": 1, "exps": []}]}',
        '{"n": 2, "terms": []}',
        '{"n": 2, "terms": [5]}',
        '{"n": 2, "terms": [{"coeff": "x", "exps": [2, 0]}]}',
        '{"n": 2, "terms": [{"coeff": true, "exps": [2, 0]}]}',
        '{"n": 2, "terms": [{"coeff": 1, "exps": [2]}]}',
        '{"n": 2, "terms": [{"coeff": 1, "exps": [2, -1]}]}',
        '{"n": 2, "terms": [{"coeff": 1, "exps": [2, 0.5]}]}',
    ]
    for text in bad_cases:
        with pytest.raises(ValueError):
            load_json_input(io.StringIO(text))


def test_choose_level_is_the_deepest_guarded_level(monkeypatch):
    # the conditioning floor caps n = 3 at 19, whatever the degree
    assert choose_level(3, 1, 512) == 19
    assert choose_level(3, 2, 512) == 19
    assert choose_level(3, 2, 900) == 19
    # a tight size guard binds before the conditioning floor
    assert choose_level(3, 2, 50) == 8
    assert choose_level(2, 2, 512) == 20
    with pytest.raises(ResourceGuardError):
        choose_level(33, 2, 512)
    # with no floor the size guard binds: C(42, 2) = 861, C(43, 2) = 903
    monkeypatch.setattr(sdp, "DEFAULT_MIN_COND_RATIO", 0.0)
    assert choose_level(3, 2, 900) == 40
    # a floor above the base level's conditioning refuses it, naming the
    # ratio; one only the base level clears stops the climb there
    monkeypatch.setattr(sdp, "DEFAULT_MIN_COND_RATIO", 0.9)
    with pytest.raises(ResourceGuardError,
                       match=r"level 2 has moment-body conditioning \d"):
        choose_level(3, 2, 512)
    assert choose_level(3, 1, 512) == 1


def test_choose_level_builds_no_matrices(monkeypatch):
    assert sdp.DEFAULT_MIN_COND_RATIO == 5e-6
    # level 19 needs a 10660 x 10660 Schur workspace; with the memory guard
    # off, the size guard and the conditioning floor alone set the top
    monkeypatch.setattr(sdp, "_physical_memory", lambda: None)
    polymat._pair_maps.cache_clear()
    assert choose_level(4, 2, 2000) == 19
    assert polymat._pair_maps.cache_info().currsize == 0


def test_run_text_output_and_determinism():
    argv = ["--poly", "x1^2*x2^2", "--level", "2"]
    code, out, err = _run(argv)
    assert code == EXIT_OK
    assert err == ""
    for label in ("variables", "degree", "level", "upper bound",
                  "lower bound", "window", "a priori eps", "duality gap",
                  "status"):
        assert label in out
    assert "optimal" in out
    code2, out2, err2 = _run(argv)
    assert (code2, out2, err2) == (code, out, err)


def test_run_json_schema_and_sandwich():
    code, out, _ = _run(["--poly", "x1^2*x2^2", "--level", "2",
                         "--format", "json", "--oracle"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["n"] == 2 and payload["degree"] == 4
    assert payload["level"] == 2
    assert payload["status"] == "optimal"
    assert payload["nu_lower"] <= payload["nu_upper"] + 1e-12
    assert (payload["nu_lower"] - 1e-7 <= payload["oracle_value"]
            <= payload["nu_upper"] + 1e-7)
    assert payload["oracle_value"] == pytest.approx(0.25, abs=1e-6)
    assert len(payload["argmax"]) == 2
    assert payload["lifted"] is False and payload["gamma"] == 1.0
    assert payload["certificate"] is None
    # the emitted density is a unit-mass polynomial of degree 2 * level
    density = homo_poly(2, 4, {tuple(t["exps"]): t["coeff"]
                               for t in payload["density"]})
    assert integrate_poly(density) == pytest.approx(1.0, abs=1e-9)
    # identical invocations must emit byte-identical JSON
    _, again, _ = _run(["--poly", "x1^2*x2^2", "--level", "2",
                        "--format", "json", "--oracle"])
    assert again == out


def test_run_level_range_emits_one_line_per_level():
    code, out, _ = _run(["--poly", "x1^2*x2^2 - x2^4", "--n", "3",
                         "--level", "2..4", "--format", "json"])
    assert code == EXIT_OK
    payloads = [json.loads(line) for line in out.splitlines()]
    assert [p["level"] for p in payloads] == [2, 3, 4]
    uppers = [p["nu_upper"] for p in payloads]
    assert uppers[0] >= uppers[1] - 1e-7 >= uppers[2] - 2e-7
    for p in payloads:
        assert p["nu_lower"] <= p["nu_upper"] + 1e-12


def test_run_json_input_matches_poly_input(tmp_path):
    spec = {"n": 2, "terms": [{"coeff": 1.0, "exps": [2, 2]}]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    _, from_file, _ = _run(["--input", str(path), "--level", "2",
                            "--format", "json"])
    _, from_expr, _ = _run(["--poly", "x1^2*x2^2", "--level", "2",
                            "--format", "json"])
    assert from_file == from_expr


def test_run_reads_stdin(monkeypatch):
    spec = {"n": 2, "terms": [{"coeff": 1.0, "exps": [2, 2]}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
    code, out, _ = _run(["--input", "-", "--level", "2", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["degree"] == 4


def test_run_certificate_output():
    code, out, _ = _run(["--poly", "x1^2*x2^2", "--level", "2",
                         "--certificate", "--format", "json"])
    assert code == EXIT_OK
    cert = json.loads(out)["certificate"]
    assert cert and all(c["weight"] > 0 for c in cert)
    assert all("exps" in t and "coeff" in t for c in cert for t in c["terms"])
    code, text, _ = _run(["--poly", "x1^2*x2^2", "--level", "2",
                          "--certificate"])
    assert "certificate" in text and "square 0" in text


def test_run_lifted_odd_problem():
    code, out, _ = _run(["--poly", "x1^3", "--n", "2", "--level", "4",
                         "--format", "json", "--oracle"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lifted"] is True
    assert payload["gamma"] == pytest.approx(3.0 * math.sqrt(3.0) / 16.0,
                                             rel=1e-15)
    assert payload["n"] == 2 and payload["degree"] == 3
    # the true maximum of x1^3 on the circle is one
    assert payload["oracle_value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["nu_lower"] - 1e-7 <= 1.0 <= payload["nu_upper"] + 1e-7
    _, text, _ = _run(["--poly", "x1^3", "--n", "2", "--level", "4"])
    assert "lifted" in text


def test_exit_code_on_bad_input():
    code, out, err = _run(["--poly", "x1^"])
    assert code == EXIT_INPUT
    assert out == ""
    assert "parse error" in err
    code, _, err = _run(["--poly", "x1^2 + x2^3"])
    assert code == EXIT_INPUT
    assert "parity" in err
    code, _, err = _run(["--input", "/nonexistent/poly.json"])
    assert code == EXIT_INPUT
    assert "cannot read" in err
    code, _, err = _run(["--poly", "x1^2*x2^2", "--level", "4..2"])
    assert code == EXIT_INPUT
    code, _, err = _run(["--poly", "x1^2*x2^2", "--level", "1"])
    assert code == EXIT_INPUT
    assert "at least 2" in err


def test_exit_code_on_json_dimension_conflict(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 2, "terms": [{"coeff": 1.0,
                                                   "exps": [2, 2]}]}),
                    encoding="utf-8")
    code, _, err = _run(["--input", str(path), "--n", "3", "--level", "2"])
    assert code == EXIT_INPUT
    assert "conflicts" in err


def test_exit_code_on_resource_guard():
    code, _, err = _run(["--poly", "x1^4", "--n", "33"])
    assert code == EXIT_RESOURCE
    assert "guard" in err
    code, _, err = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "40"])
    assert code == EXIT_RESOURCE
    # deep two-variable level: small matrices, but past the conditioning floor
    code, _, err = _run(["--poly", "x1^4 + x2^4", "--level", "25"])
    assert code == EXIT_RESOURCE
    assert "conditioning" in err
    code, _, err = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "10",
                         "--max-p", "50"])
    assert code == EXIT_RESOURCE
    assert "--max-p" in err
    code, out, err = _run(["--poly", "x1^2*x2^2", "--max-p", "0"])
    assert code == EXIT_INPUT and out == ""
    assert "--max-p" in err
    code, _, _ = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "10",
                       "--max-p", "100"])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [["--poly", "x1^2*x2^2"],
                                  ["--poly", "x1^2*x2^2", "--level", "2"]],
                         ids=["automatic", "level-2"])
def test_guard_settings_are_not_read_from_the_environment(monkeypatch, argv):
    # names a shell may still set for the size guard and the floor
    monkeypatch.delenv("SPHEREOPT_MAX_P", raising=False)
    monkeypatch.delenv("SPHEREOPT_COND_RATIO", raising=False)
    unset = _run(argv)
    monkeypatch.setenv("SPHEREOPT_MAX_P", "abc")
    monkeypatch.setenv("SPHEREOPT_COND_RATIO", "nan")
    assert _run(argv) == unset
    assert unset[0] == EXIT_OK


def _never(*args, **kwargs):
    raise AssertionError("this input must be refused before any work")


def _forbid_solving(monkeypatch):
    for name in ("build_relaxation", "solve_and_report", "sphere_maximize"):
        monkeypatch.setattr(cli, name, _never)


@pytest.mark.parametrize("extra, message", [
    (["--oracle", "--restarts", "0"], "--restarts"),
    (["--tol", "1"], "tol"),
    (["--tol", "nan"], "tol"),
    (["--max-iterations", "0"], "iteration budget"),
    (["--max-p", "0"], "max_p"),
    (["--oracle", "--seed", "-1"], "--seed"),
])
def test_exit_code_on_bad_solver_settings(monkeypatch, extra, message):
    _forbid_solving(monkeypatch)
    code, out, err = _run(["--poly", "x1^2*x2^2", "--level", "2", *extra])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("sphereopt: ") and message in err


@pytest.mark.parametrize("source, message", [
    ('{"n": 2, "terms": [{"coeff": NaN, "exps": [2, 0]}, '
     '{"coeff": 1, "exps": [0, 2]}]}', "finite"),
    ('{"n": 2, "terms": [{"coeff": 1' + "0" * 400 + ', "exps": [2, 0]}, '
     '{"coeff": 1, "exps": [0, 2]}]}', "terms[0].coeff"),
    ("1e999*x1^2 + x2^2", "finite"),
    ("1e308*x1^2 + 1e308*x1^2 + x2^2", "finite"),
], ids=["json-nan", "json-400-digits", "poly-1e999", "poly-overflowing-sum"])
def test_exit_code_on_non_finite_coefficients(monkeypatch, tmp_path, source,
                                              message):
    _forbid_solving(monkeypatch)
    if source.startswith("{"):
        path = tmp_path / "poly.json"
        path.write_text(source, encoding="utf-8")
        argv = ["--input", str(path)]
    else:
        argv = ["--poly", source]
    code, out, err = _run(argv + ["--oracle", "--format", "json"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("sphereopt: ") and message in err


def test_huge_level_range_exits_on_the_size_guard(monkeypatch):
    _forbid_solving(monkeypatch)
    code, out, err = _run(["--poly", "x1^2*x2^2",
                           "--level", "2..99999999999999"])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "level 99999999999999" in err and "guard" in err


def test_schur_memory_guard_exits_before_any_work(monkeypatch):
    _forbid_solving(monkeypatch)
    monkeypatch.setattr(sdp, "_physical_memory", lambda: 16 * 2**30)
    quartic = "x1^4 + x2^4 + x3^4 + x4^4 + x5^4"
    code, out, err = _run(["--poly", quartic, "--max-p", "5000",
                           "--level", "16"])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "level 16" in err and "physical memory" in err
    # the automatic climb stops at the deepest level that fits in half of
    # it: level 13 has q = C(30, 4) = 27405 (6.0 GB), level 14 has
    # q = C(32, 4) = 35960, which needs 10.3 GB
    assert choose_level(5, 2, 5000) == 13
    monkeypatch.setattr(sdp, "_physical_memory", lambda: None)
    assert choose_level(5, 2, 5000) == 16


@pytest.mark.parametrize("poly, level", [
    ("x1^4 - 3*x1^2*x2^2 + 0.5*x3^2 + x1*x1^3 + 2", "2"),
    ("x1^3 + 2*x1*x2^2 - x2 + 0*x2^3", "3"),
], ids=["even", "odd"])
def test_each_input_term_is_validated_once(monkeypatch, poly, level):
    # one exponent_tuple call per parsed term over a whole CLI call,
    # through homogenization and, for the cubic, the lift
    _, terms = parse_poly(poly)
    seen = []
    real = sys.modules["sphereopt.multiindex"].exponent_tuple

    def spy(exponents, *args, **kwargs):
        seen.append(tuple(exponents))
        return real(exponents, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sphereopt") and hasattr(module, "exponent_tuple"):
            monkeypatch.setattr(module, "exponent_tuple", spy)
    code, out, err = _run(["--poly", poly, "--level", level, "--oracle",
                           "--certificate"])
    assert code == EXIT_OK and err == "" and out
    assert seen == list(terms)


def test_size_guard_fires_before_homogenization_pads(monkeypatch):
    _forbid_solving(monkeypatch)
    monkeypatch.setattr(reduction, "multiply_r2", _never)
    monkeypatch.setattr(cli, "choose_level", _never)
    # base level 50 in 5 variables: p = C(54, 4) = 316251
    code, out, err = _run(["--poly", "x1^100 + x2^2 + x3^2 + x4^2 + x5^2"])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == ("sphereopt: level 50 needs matrices of side 316251, "
                   "above the guard 512; raise max_p (--max-p) to "
                   "override\n")


def test_padded_overflow_exits_before_any_solve(monkeypatch):
    # finite coefficients that overflow once padded to level 19
    monkeypatch.setattr(cli, "solve_and_report", _never)
    monkeypatch.setattr(cli, "sphere_maximize", _never)
    code, out, err = _run(["--poly", "1e303*x1^2*x2^2 + x3^4", "--oracle",
                           "--level", "19"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("sphereopt: ") and "overflows" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lower_bound_near_the_float_range_stays_finite(fmt):
    # summing two ~1e308 products in the density bound's chain must not
    # overflow to +inf
    code, out, err = _run(["--poly", "1e308*x1^2+1e308*x2^2",
                           "--format", fmt])
    assert code == EXIT_OK and err == ""
    if fmt == "json":
        payload = json.loads(out)
        lower, upper = payload["nu_lower"], payload["nu_upper"]
    else:
        lower, upper = (float(re.search(rf"^{name} bound +(\S+)$", out,
                                        re.M)[1])
                        for name in ("lower", "upper"))
    assert math.isfinite(lower) and lower <= upper


@pytest.mark.parametrize("level, builds", [(None, 1), ("2..4", 3)])
def test_one_build_per_solved_level(monkeypatch, level, builds):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sdp.build_relaxation(*args, **kwargs)

    monkeypatch.setattr(cli, "build_relaxation", counted)
    monkeypatch.setattr(definetti, "build_relaxation", counted,
                        raising=False)
    argv = ["--poly", "x1^2*x2^2 + 0.5*x1^4 + x2^4"]
    if level is not None:
        argv += ["--level", level]
    code, _, _ = _run(argv)
    assert code == EXIT_OK
    assert len(calls) == builds


def test_exit_code_when_budget_too_small():
    code, out, _ = _run(["--poly", "x1^2*x2^2 + 0.3*x1*x2^3", "--level", "2",
                         "--max-iterations", "1", "--format", "json"])
    assert code == EXIT_SOLVER
    payload = json.loads(out)  # the partial result is still reported
    assert payload["status"] == "max_iterations"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_numerical_failure_at_an_explicit_level_exits_3_with_its_report(
        monkeypatch, fmt):
    # a Schur matrix with no factor at any shift ends the solve at its
    # first iteration, at the start point
    monkeypatch.setattr(sdp, "_factor_schur", lambda S: None)
    code, out, err = _run(["--poly", "x1^2*x2^2 + 0.3*x1*x2^3", "--level",
                           "2", "--format", fmt])
    assert code == EXIT_SOLVER and err == ""
    if fmt == "json":
        payload = json.loads(out)
        assert payload["status"] == "numerical_failure"
        assert payload["iterations"] == 1 and payload["level"] == 2
    else:
        assert re.search(r"^status +numerical_failure \(1 iterations\)$",
                         out, re.M)


def test_automatic_climb_with_no_optimal_level_exits_3(monkeypatch):
    monkeypatch.setattr(sdp, "_factor_schur", lambda S: None)
    monkeypatch.setattr(cli, "candidate_points", _boom)
    code, out, err = _run(["--poly", README_QUARTIC, "--n", "3",
                           "--format", "json"])
    assert code == EXIT_SOLVER and err == ""
    payload = json.loads(out)
    assert payload["status"] == "numerical_failure"
    assert payload["levels_solved"] == [2]
    assert payload["window_closed"] is False and payload["maximizer"] is None


def test_one_iteration_budget_default():
    # each default has one home, which the library and the CLI both read;
    # --max-p leaves None to resolve_max_p
    solvers = (sdp.solve_sdp, definetti.solve_and_report)
    homes = {
        "max_iterations": (sdp.DEFAULT_MAX_ITERATIONS, 120, solvers),
        "tol": (sdp.DEFAULT_TOL, 1e-8, solvers),
        "restarts": (oracle.DEFAULT_RESTARTS, 32, (oracle.sphere_maximize,)),
        "seed": (oracle.DEFAULT_SEED, 0, (oracle.sphere_maximize,)),
        "max_p": (sdp.DEFAULT_MAX_P, 512, ()),
    }
    options = {action.dest: action
               for action in cli._build_parser()._actions}
    for dest, (default, value, library) in homes.items():
        assert default == value
        for function in library:
            assert inspect.signature(function).parameters[
                dest].default == default
        option = options[dest]
        assert option.help.endswith(f"(default {default})")
        if dest == "max_p":
            assert option.default is None
            assert sdp.resolve_max_p(option.default) == default
        else:
            assert option.default == default


def test_exit_code_on_solver_exception(monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "solve_and_report", boom)
    code, out, err = _run(["--poly", "x1^2*x2^2", "--level", "2"])
    assert code == EXIT_SOLVER
    assert "synthetic failure" in err


def test_main_wires_argv():
    assert main(["--poly", "x1^2 + x2^2", "--level", "1"]) == EXIT_OK


def test_auto_level_for_quadratic():
    code, out, _ = _run(["--poly", "x1^2 + 2*x2^2 - x1*x2", "--n", "3",
                         "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["level"] == 1
    assert payload["window_closed"] is True
    A = np.array([[1.0, -0.5, 0.0], [-0.5, 2.0, 0.0], [0.0, 0.0, 0.0]])
    assert payload["nu_lower"] == pytest.approx(np.linalg.eigvalsh(A)[-1],
                                                abs=1e-8)


EXPLICIT_KEYS = ["n", "degree", "level", "nu_upper", "nu_lower", "eps",
                 "eps_valid", "duality_gap", "status", "iterations", "tol",
                 "lifted", "gamma", "density", "oracle_value", "argmax",
                 "certificate"]
README_QUARTIC = "x1^4 + x2^4 - 3*x1^2*x2^2"
NEG_MOTZKIN = "-x1^4*x2^2 - x1^2*x2^4 - x3^6 + 3*x1^2*x2^2*x3^2"


def _boom(*args, **kwargs):
    raise AssertionError("extraction must not run here")


def _run_json(argv):
    code, out, err = _run(argv + ["--format", "json"])
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_unconverged_auto_solve_neither_extracts_nor_climbs(monkeypatch):
    monkeypatch.setattr(cli, "candidate_points", _boom)
    monkeypatch.setattr(oracle, "_ascend", _boom)
    levels = []

    def counted(T, level, **kwargs):
        levels.append(level)
        return sdp.build_relaxation(T, level, **kwargs)

    monkeypatch.setattr(cli, "build_relaxation", counted)
    code, payload = _run_json(["--poly", README_QUARTIC, "--n", "3",
                               "--max-iterations", "1"])
    assert code == EXIT_SOLVER
    assert payload["status"] == "max_iterations"
    assert payload["level"] == 2 and levels == [2]
    assert payload["levels_solved"] == [2]
    assert payload["window_closed"] is False
    assert payload["maximizer"] is None
    assert payload["nu_lower"] == payload["density_lower"]


@pytest.mark.parametrize("level, count", [("2", 1), ("2..4", 3)])
def test_explicit_levels_never_extract(monkeypatch, level, count):
    monkeypatch.setattr(cli, "candidate_points", _boom)
    monkeypatch.setattr(oracle, "_ascend", _boom)
    code, out, _ = _run(["--poly", README_QUARTIC, "--level", level,
                         "--format", "json"])
    assert code == EXIT_OK
    payloads = [json.loads(line) for line in out.splitlines()]
    assert len(payloads) == count
    assert all(list(p) == EXPLICIT_KEYS for p in payloads)
    _, text, _ = _run(["--poly", README_QUARTIC, "--level", level])
    assert "maximizer" not in text and "levels solved" not in text


def test_auto_level_closes_at_a_maximizer_pair_of_rank_two():
    code, payload = _run_json(["--poly", README_QUARTIC])
    assert code == EXIT_OK
    assert payload["level"] == 2 and payload["levels_solved"] == [2]
    assert payload["window_closed"] is True
    assert payload["nu_lower"] <= payload["nu_upper"]
    x = np.array(payload["maximizer"])
    assert min(np.abs(np.abs(x) - e).max() for e in np.eye(2)) <= 1e-6
    # the optimal state is spread over both pairs, so no raw eigenvector
    # of its reduction is a maximizer
    T = reduction.canonicalize(*parse_poly(README_QUARTIC)).solve_target
    problem = sdp.build_relaxation(T, 2)
    solution = sdp.solve_sdp(problem)
    weights = np.linalg.eigvalsh(
        definetti.reduced_state(solution.M_star, 1).matrix)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-3)


def test_auto_level_polishes_eigenvectors_between_two_maximizers(
        monkeypatch):
    # (x.u)^4 + (x.v)^4 with u, v 70 degrees apart has a maximizer pair
    # near each of them; the optimal state's reduction has rank 2, and its
    # eigenvectors lie between the pairs, so only the ascent closes
    c, s = math.cos(math.radians(70)), math.sin(math.radians(70))
    coeffs = [1 + c**4, 4 * c**3 * s, 6 * c**2 * s**2, 4 * c * s**3, s**4]
    expr = " + ".join(f"{a!r}*x1^{4 - k}*x2^{k}"
                      for k, a in enumerate(coeffs))
    polished = []

    def spy(T, X):
        polished.append(len(X))
        return oracle.polish(T, X)

    monkeypatch.setattr(cli, "polish", spy)
    code, payload = _run_json(["--poly", expr, "--oracle"])
    assert code == EXIT_OK
    assert polished == [2]
    assert payload["levels_solved"] == [2] and payload["window_closed"]
    assert payload["nu_lower"] == pytest.approx(payload["oracle_value"],
                                                rel=1e-12)


def test_auto_level_climbs_past_an_inexact_base_level(monkeypatch):
    # -Motzkin: the base level 3 leaves t* ~ 4.6e-3 above the maximum 0;
    # level 4 and deeper are exact (Reznick 1995)
    tops = []

    def counted(*args):
        tops.append(args)
        return choose_level(*args)

    monkeypatch.setattr(cli, "choose_level", counted)
    code, payload = _run_json(["--poly", NEG_MOTZKIN])
    assert code == EXIT_OK
    assert payload["levels_solved"] == [3, 6] and payload["level"] == 6
    # the open window at level 3 computes the top, once
    assert tops == [(3, 3, 512)]
    assert payload["window_closed"] is True
    assert payload["nu_lower"] >= -1e-9
    assert payload["nu_lower"] <= payload["nu_upper"]


def test_climb_reports_the_optimal_level_when_a_deeper_one_fails(
        monkeypatch):
    # -Motzkin's level 3 is optimal with its window open; level 6 stops
    # after one iteration, so the report is level 3's and the exit is 0
    def starved(problem, tol, max_iterations):
        if problem.ell == 6:
            max_iterations = 1
        return definetti.solve_and_report(problem, tol=tol,
                                          max_iterations=max_iterations)

    monkeypatch.setattr(cli, "solve_and_report", starved)
    code, payload = _run_json(["--poly", NEG_MOTZKIN, "--certificate"])
    assert code == EXIT_OK
    assert payload["level"] == 3 and payload["levels_solved"] == [3, 6]
    assert payload["status"] == "optimal"
    assert payload["window_closed"] is False
    assert payload["certificate"] is not None
    assert payload["nu_lower"] <= payload["nu_upper"]
    code, alone = _run_json(["--poly", NEG_MOTZKIN, "--level", "3",
                             "--certificate"])
    assert code == EXIT_OK
    for key in ("nu_upper", "iterations", "density", "certificate"):
        assert payload[key] == alone[key]


def test_auto_level_lifted_maximizer_in_original_variables():
    code, payload = _run_json(["--poly", "x1^2*x2 - x3^3"])
    assert code == EXIT_OK
    assert payload["lifted"] is True
    assert payload["levels_solved"] == [2] and payload["window_closed"]
    x1, x2, x3 = payload["maximizer"]
    assert x1 * x1 + x2 * x2 + x3 * x3 == pytest.approx(1.0, abs=1e-15)
    value = x1 * x1 * x2 - x3 ** 3
    assert payload["nu_lower"] == pytest.approx(value, rel=1e-14)
    assert payload["nu_lower"] <= 1.0 <= payload["nu_upper"]
    assert payload["density_lower"] < payload["nu_lower"]


def test_climb_schedule():
    def schedule(a, top):
        levels = [a]
        while levels[-1] < top:
            levels.append(cli._next_level(levels[-1], top))
        return levels

    assert schedule(2, 19) == [2, 4, 8, 19]
    assert schedule(3, 19) == [3, 6, 19]
    assert schedule(2, 20) == [2, 4, 8, 20]
    assert schedule(1, 5) == [1, 2, 5]
    assert schedule(2, 2) == [2]
    # with solve time ~ level^6, the levels a climb that never closes
    # solves between the base level and the top cost at most a tenth of
    # the top level's solve
    for a in range(1, 6):
        for top in range(a, 64):
            between = schedule(a, top)[1:-1]
            assert sum((lv / top) ** 6 for lv in between) <= 0.1


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_module_entry_point_smoke():
    # python -W error -m sphereopt.cli, as a shell runs it; Python's json
    # parser accepts NaN and Infinity unless told to refuse them
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(__file__).resolve().parents[1] / "src"))

    def payload(*args):
        got = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sphereopt.cli",
             "--poly", README_QUARTIC, "--format", "json", *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert (got.returncode, got.stderr) == (EXIT_OK, ""), got.stderr
        return json.loads(got.stdout, parse_constant=_refuse_constant)

    # a binary quartic closes at its base level 2; a default that slides
    # back to the a priori level (20 here) would take seconds
    p = payload()
    assert p["level"] == 2 and p["window_closed"] is True, p
    p = payload("--level", "2", "--certificate", "--oracle")
    assert p["level"] == 2 and p["status"] == "optimal" and p["certificate"]
    # at an explicit level the reported lower bound is the density average
    # alone; it must sit below the oracle value, and the upper bound above
    p = payload("--level", "4", "--oracle")
    assert p["status"] == "optimal", p
    assert p["nu_lower"] <= p["oracle_value"] <= p["nu_upper"] + 1e-8, p


def test_climb_without_closure_solves_the_schedule(monkeypatch):
    monkeypatch.setattr(cli, "gap_closed", lambda *args: False)
    code, payload = _run_json(["--poly", README_QUARTIC])
    assert code == EXIT_OK
    assert payload["levels_solved"] == [2, 4, 8, 20]
    assert payload["level"] == 20 and payload["window_closed"] is False
    # the best point found on the way still bounds the maximum from below
    assert payload["nu_lower"] == pytest.approx(1.0, abs=1e-12)
    assert payload["nu_lower"] >= payload["density_lower"]


def _deep_quartic(tmp_path):
    # the benchmark's deep-n3 quartic, as a JSON input file
    rng = np.random.default_rng(500)
    T = polymat.vector_to_poly(3, 4, rng.standard_normal(15))
    T = T.scaled(1.0 / sum(abs(c) for c in T.coeffs.values()))
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"n": 3, "terms": [
        {"coeff": c, "exps": list(e)} for e, c in T.coeffs.items()]}),
        encoding="utf-8")
    return str(path)


@pytest.mark.slow
def test_deep_quartic_without_closure_solves_the_schedule(monkeypatch,
                                                          tmp_path):
    # the level-19 benchmark quartic: the climb that never closes
    monkeypatch.setattr(cli, "gap_closed", lambda *args: False)
    code, payload = _run_json(["--input", _deep_quartic(tmp_path)])
    assert code == EXIT_OK
    assert payload["levels_solved"] == [2, 4, 8, 19]
    assert payload["level"] == 19 and payload["status"] == "optimal"


def test_climb_top_is_not_computed_when_the_base_level_closes(monkeypatch,
                                                               tmp_path):
    def refused(*args, **kwargs):
        raise AssertionError("the base level closes: no top is needed")

    monkeypatch.setattr(cli, "choose_level", refused)
    code, payload = _run_json(["--input", _deep_quartic(tmp_path)])
    assert code == EXIT_OK
    assert payload["levels_solved"] == [2] and payload["window_closed"]


def test_main_calls_share_no_state(capsys):
    argv = ["--poly", README_QUARTIC, "--level", "2", "--format", "json"]
    assert main(argv + ["--oracle", "--restarts", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["oracle_value"] is not None
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_value"] is None and payload["argmax"] is None


NON_FINITE = "sphereopt: array must not contain infs or NaNs\n"


def test_non_finite_schur_matrix_exits_3_without_output(monkeypatch):
    real = sdp._schur_matrix

    def poisoned(problem, Y, out):
        S = real(problem, Y, out)
        S[0, 1] = S[1, 0] = np.nan  # off the diagonal
        return S

    monkeypatch.setattr(sdp, "_schur_matrix", poisoned)
    code, out, err = _run(["--poly", README_QUARTIC, "--level", "2",
                           "--format", "json"])
    assert (code, out, err) == (EXIT_SOLVER, "", NON_FINITE)


def test_non_finite_schur_right_hand_side_exits_3_without_output(
        monkeypatch):
    def poisoned(T, level, **kwargs):
        problem = sdp.build_relaxation(T, level, **kwargs)
        tau = problem.tau.copy()
        tau[-1] = np.nan  # the first Schur solve is against tau
        return dataclasses.replace(problem, tau=tau)

    monkeypatch.setattr(cli, "build_relaxation", poisoned)
    code, out, err = _run(["--poly", README_QUARTIC, "--level", "2",
                           "--format", "json"])
    assert (code, out, err) == (EXIT_SOLVER, "", NON_FINITE)


@pytest.mark.parametrize("error", [ResourceGuardError, ValueError])
def test_build_refused_mid_climb_reports_last_solved_level(monkeypatch,
                                                           error):
    monkeypatch.setattr(cli, "gap_closed", lambda *args: False)

    def refusing(T, level, **kwargs):
        if level > 4:
            raise error(f"level {level} refused")
        return sdp.build_relaxation(T, level, **kwargs)

    monkeypatch.setattr(cli, "build_relaxation", refusing)
    code, payload = _run_json(["--poly", README_QUARTIC])
    assert code == EXIT_OK
    assert payload["levels_solved"] == [2, 4] and payload["level"] == 4
    assert payload["status"] == "optimal"
    assert payload["window_closed"] is False


def test_auto_text_report_lines():
    code, out, _ = _run(["--poly", README_QUARTIC])
    assert code == EXIT_OK
    lines = dict((line[:16].strip(), line[16:]) for line in out.splitlines())
    assert lines["levels solved"] == "2"
    assert lines["window closed"] == "yes"
    assert len(lines["maximizer"].split()) == 2
    assert float(lines["density bound"]) < float(lines["lower bound"])


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return [json.loads(line, parse_constant=refuse)
            for line in text.splitlines()]


def _text_fields(block):
    """label -> value text of one text report."""
    return dict((line[:16].strip(), line[16:]) for line in block.splitlines())


@pytest.mark.parametrize("poly, level", [(README_QUARTIC, "2..3"),
                                         ("x1^2*x2 - x3^3", None)])
def test_json_is_strict_and_exact(poly, level):
    argv = ["--poly", poly, "--certificate", "--oracle"]
    if level is not None:
        argv += ["--level", level]
    code, out, err = _run(argv + ["--format", "json"])
    assert code == EXIT_OK and err == ""
    payloads = _strict_json(out)
    n, terms = parse_poly(poly)
    record = reduction.canonicalize(n, terms)
    for payload in payloads:
        problem = sdp.build_relaxation(record.solve_target, payload["level"])
        report = reduction.pullback_bounds(
            record, definetti.solve_and_report(problem, max_iterations=120)[0])
        # the automatic level raises nu_lower to its point's value and
        # keeps the density bound in density_lower
        lower = "nu_lower" if level is not None else "density_lower"
        assert payload[lower] == report.nu_lower
        assert payload["nu_upper"] == report.nu_upper
        assert payload["duality_gap"] == report.duality_gap
        assert payload["eps"] == report.eps
        assert payload["gamma"] == record.gamma
        assert type(payload["eps"]) is float
        assert type(payload["gamma"]) is float
    assert len(payloads) == (2 if level is not None else 1)

    # every float of the text report parses back to the JSON value
    code, text, _ = _run(argv)
    assert code == EXIT_OK
    for payload, block in zip(payloads, text.split("\n\n"), strict=True):
        fields = _text_fields(block)
        assert float(fields["upper bound"]) == payload["nu_upper"]
        assert float(fields["lower bound"]) == payload["nu_lower"]
        assert (float(fields["window"])
                == payload["nu_upper"] - payload["nu_lower"])
        assert float(fields["a priori eps"].split()[0]) == payload["eps"]
        assert float(fields["duality gap"]) == payload["duality_gap"]
        assert float(fields["oracle value"]) == payload["oracle_value"]
        assert ([float(v) for v in fields["oracle argmax"].split()]
                == payload["argmax"])
        if payload["lifted"]:
            assert (float(fields["lifted"].split()[-1])
                    == payload["gamma"])
        if level is None:
            assert (float(fields["density bound"])
                    == payload["density_lower"])
            assert ([float(v) for v in fields["maximizer"].split()]
                    == payload["maximizer"])
        squares = payload["certificate"]
        for k, square in enumerate(squares):
            weight, body = fields[f"square {k}"].split(" * (", 1)
            assert float(weight) == square["weight"]
            coeffs = [float(part.split("*")[0])
                      for part in body[:-len(")^2")].split(" + ")]
            assert coeffs == [t["coeff"] for t in square["terms"]]


def test_value_json_cannot_carry_exits_before_any_output(monkeypatch):
    def infinite(record, report):
        return dataclasses.replace(reduction.pullback_bounds(record, report),
                                   nu_upper=math.inf)

    monkeypatch.setattr(cli, "pullback_bounds", infinite)
    argv = ["--poly", README_QUARTIC, "--level", "2..3"]
    code, out, err = _run(argv + ["--format", "json"])
    assert code == EXIT_SOLVER
    assert out == ""
    assert err.startswith("sphereopt: ")
    code, text, _ = _run(argv)
    assert code == EXIT_OK
    assert _text_fields(text.split("\n\n")[0])["upper bound"] == "inf"
