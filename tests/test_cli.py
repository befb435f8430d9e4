import io
import json
import math
import sys

import pytest

from sphereopt import cli, definetti, polymat, reduction, sdp
from sphereopt.cli import (EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_SOLVER,
                           ParseError, choose_level, load_json_input, main,
                           parse_poly)
from sphereopt.harmonics import integrate_poly
from sphereopt.polymat import homo_poly
from sphereopt.sdp import ResourceGuardError, SolverError


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


def test_choose_level_targets_half_error(monkeypatch):
    monkeypatch.delenv("SPHEREOPT_COND_RATIO", raising=False)
    # quadratics in three variables: eps = 6 / (2 level + 3) <= 1/2
    assert choose_level(3, 1, 512) == 5
    # quartics want level 39 but the conditioning floor caps n = 3 at 19
    assert choose_level(3, 2, 512) == 19
    assert choose_level(3, 2, 900) == 19
    # a tight size guard binds before the conditioning floor
    assert choose_level(3, 2, 50) == 8
    assert choose_level(2, 2, 512) == 20
    with pytest.raises(ResourceGuardError):
        choose_level(33, 2, 512)
    monkeypatch.setenv("SPHEREOPT_COND_RATIO", "0")
    assert choose_level(3, 2, 900) == 39
    # a floor above the base level's conditioning refuses it, naming the
    # ratio; one only the base level clears stops the climb there
    monkeypatch.setenv("SPHEREOPT_COND_RATIO", "0.9")
    with pytest.raises(ResourceGuardError,
                       match=r"level 2 has moment-body conditioning \d"):
        choose_level(3, 2, 512)
    assert choose_level(3, 1, 512) == 1


def test_choose_level_builds_no_matrices(monkeypatch):
    monkeypatch.delenv("SPHEREOPT_COND_RATIO", raising=False)
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


def test_exit_code_on_resource_guard(monkeypatch):
    code, _, err = _run(["--poly", "x1^4", "--n", "33"])
    assert code == EXIT_RESOURCE
    assert "guard" in err
    code, _, err = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "40"])
    assert code == EXIT_RESOURCE
    # deep two-variable level: small matrices, but past the conditioning floor
    code, _, err = _run(["--poly", "x1^4 + x2^4", "--level", "25"])
    assert code == EXIT_RESOURCE
    assert "conditioning" in err
    monkeypatch.setenv("SPHEREOPT_MAX_P", "50")
    code, _, err = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "10"])
    assert code == EXIT_RESOURCE
    code, _, _ = _run(["--poly", "x1^2*x2^2", "--n", "3", "--level", "10",
                       "--max-p", "100"])
    assert code == EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_exit_code_on_bad_conditioning_floor(monkeypatch, value):
    monkeypatch.setenv("SPHEREOPT_COND_RATIO", value)
    # automatic level: the floor is read while choosing the level
    code, out, err = _run(["--poly", "x1^2*x2^2"])
    assert code == EXIT_INPUT
    assert out == ""
    assert "SPHEREOPT_COND_RATIO" in err
    code, _, err = _run(["--poly", "x1^2*x2^2", "--level", "2"])
    assert code == EXIT_INPUT
    assert "SPHEREOPT_COND_RATIO" in err


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


def test_size_guard_fires_before_homogenization_pads(monkeypatch):
    _forbid_solving(monkeypatch)
    monkeypatch.setattr(reduction, "multiply_r2", _never)
    # base level 50 in 5 variables: p = C(54, 4) = 316251
    code, out, err = _run(["--poly", "x1^100 + x2^2 + x3^2 + x4^2 + x5^2"])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "316251" in err and "guard" in err


def test_padded_overflow_exits_before_any_solve(monkeypatch):
    # finite coefficients that overflow once padded to the auto level 19
    monkeypatch.setattr(cli, "solve_and_report", _never)
    monkeypatch.setattr(cli, "sphere_maximize", _never)
    code, out, err = _run(["--poly", "1e303*x1^2*x2^2 + x3^4", "--oracle"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("sphereopt: ") and "overflows" in err


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
    assert payload["level"] == 5
    assert payload["eps_valid"] is True
    assert payload["eps"] <= 0.5
