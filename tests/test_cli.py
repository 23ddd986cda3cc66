"""Command-line behaviour: payload shapes and the exit-code contract."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpcalc import cli
from dpcalc.boxcode import compile_walk
from dpcalc.errors import BudgetExceeded, UnsupportedFeature
from dpcalc.formula import (VfAdd, VfConst, VfMul, VfPow, VfUnif,
                            count_rf_points, parse, pretty_print)
from dpcalc.formula.parse import MAX_DEPTH
from dpcalc.symring import SymA


def out_json(stdout):
    return json.loads(stdout)


# --- parse ---

def test_parse_reports_free_variables(run_cli, fx):
    rc, out, _ = run_cli("parse", fx("ball.dp"))
    assert rc == 0
    payload = out_json(out)
    assert payload["free"] == [{"name": "x", "sort": "vf"}]
    assert payload["pretty"] == "vf x; 2 <= ord(x)"
    assert payload["ast"]["node"] == "ZzLe"


def test_parse_pretty_emission(run_cli, fx):
    rc, out, _ = run_cli("parse", fx("ball.dp"), "--emit", "pretty")
    assert rc == 0
    assert out.strip() == "vf x; 2 <= ord(x)"


def test_parse_normalizes_the_twist_fixture(run_cli, fx):
    rc, out, _ = run_cli("parse", fx("appendix2_vf.dp"))
    assert rc == 0
    payload = out_json(out)
    assert {v["name"] for v in payload["free"]} == {"a", "b", "c", "d", "eta"}


def test_parse_error_reports_position(run_cli, fx):
    rc, _, err = run_cli("parse", fx("bad_syntax.dp"))
    assert rc == 2
    assert err.startswith("dpcalc:")
    assert "line 1" in err


_FIELD = ("outside the supported fragment: field quantifiers (cell "
          "decomposition eliminates them)")
_VALUE_GROUP = ("outside the supported fragment: value-group quantifiers "
                "(write the condition with congruences, such as "
                "ord(x) == 0 mod 2)")


@pytest.mark.parametrize("text, code, message", [
    ("vf x; exists y:vf. x*y == 1", 3, _FIELD),
    ("vf x; exists m:zz. ord(x) == 2*m", 3, _VALUE_GROUP),
    ("(exists y:rf. y == 1) && y != 0", 2,
     "line 1, column 9: quantifier shadows 'y'"),
])
def test_parse_refuses_quantifiers_outside_the_fragment(run_cli, tmp_path,
                                                        text, code, message):
    path = tmp_path / "quantifier.dp"
    path.write_text(text + "\n")
    assert run_cli("parse", path) == (code, "", "dpcalc: %s\n" % message)


def test_a_field_quantifier_is_refused_before_the_missing_directive(
        run_cli, tmp_path):
    # the text is read before the directives are
    path = tmp_path / "quantifier.dp"
    path.write_text("vf x; exists y:vf. x*y == 1\n")
    assert run_cli("compare", path, "--primes", "5") == \
        (3, "", "dpcalc: %s\n" % _FIELD)


def test_missing_file(run_cli):
    rc, _, err = run_cli("parse", "no_such_file.dp")
    assert rc == 2
    assert "no_such_file.dp" in err


# --- integrate ---

def test_integrate_linear_product(run_cli):
    rc, out, _ = run_cli("integrate", "--linear-product", "0:3")
    assert rc == 0
    payload = out_json(out)
    assert payload["value"] == "(1 - L^-1)/(1 - L^-4)"
    assert payload["bad_primes"] == {}
    assert payload["derivation"]


def test_integrate_linear_product_bad_primes(run_cli):
    rc, out, _ = run_cli("integrate", "--linear-product", "0:1,1:1,3:1")
    assert rc == 0
    assert set(out_json(out)["bad_primes"]) == {"2", "3"}


def test_integrate_cells(run_cli, fx):
    rc, out, _ = run_cli("integrate", fx("cube.cells.json"))
    assert rc == 0
    payload = out_json(out)
    assert payload["parameters"] == [{"name": "acx", "sort": "rf"},
                                     {"name": "k", "sort": "zz"}]
    assert "3" in payload["bad_primes"]
    assert len(payload["derivation"]) == 6


def test_integrate_congruence_cases(run_cli, fx):
    rc, out, _ = run_cli("integrate", fx("cube.cells.json"),
                         "--param", "k=0", "--param", "acx:cube")
    assert rc == 0
    payload = out_json(out)
    cases = {c["when"]: SymA.parse(c["value"]) for c in payload["cases"]}
    assert cases["q = 1 (mod 3)"] == \
        SymA.parse("(1 - 3*L^-1 + 2*L^-2)/(1 - L^-2)")
    assert cases["q = 2 (mod 3)"] == SymA.parse("(1 - L^-1)/(1 - L^-2)")


def _one_level_cell_file(tmp_path, cls):
    """A cell file with one level cell at k whose class is cls."""
    path = tmp_path / "one_level.cells.json"
    path.write_text(json.dumps({
        "parameters": [{"name": "acx", "sort": "rf"},
                       {"name": "k", "sort": "zz"}],
        "cells": [{"kind": "OneCell", "id": "level", "center": "0",
                   "basis": "rf eta, acx; zz k; %s && 0 <= k" % cls,
                   "alpha": "k", "xi": "eta", "psi": "L^(-3*k)"}]}))
    return str(path)


def test_integrate_congruence_cases_honour_budget_env(run_cli, fx, tmp_path,
                                                     monkeypatch):
    # a class outside the binomial fragment is fitted, and the point counts
    # at its witness primes run under the one enumeration budget
    path = _one_level_cell_file(tmp_path, "eta^2 == acx + 1")
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "10")
    rc, out, err = run_cli("integrate", path,
                           "--param", "acx:cube", "--param", "k=1")
    assert rc == 5
    assert out == ""
    assert err == \
        "dpcalc: q^1 evaluations at q = 13 exceed the budget of 10\n"
    # the cube classes are counted exactly, with no enumeration, so the
    # same budget stops nothing
    rc, out, err = run_cli("integrate", fx("cube.cells.json"),
                           "--param", "acx:cube", "--param", "k=1")
    assert (rc, err) == (0, "")
    with open(os.path.join(os.path.dirname(__file__),
                           "golden_renderings.json")) as fh:
        (golden,) = [row for row in json.load(fh) if row["argv"][1:] == [
            "cube.cells.json", "--param", "acx:cube", "--param", "k=1"]]
    assert {c["when"]: c["value"] for c in out_json(out)["cases"]} == \
        golden["cases"]


def test_integrate_reports_fitted_classes(run_cli, tmp_path):
    # eta^2 == acx*eta has the roots 0 and 1, and it is not binomial: its
    # count is fitted from the witness primes, and reported as trusted
    path = _one_level_cell_file(tmp_path, "eta^2 == acx*eta")
    rc, out, err = run_cli("integrate", path,
                           "--param", "acx:cube", "--param", "k=1")
    assert (rc, err) == (0, "")
    payload = out_json(out)
    assert [c["value"] for c in payload["cases"]] == ["L^-5", "L^-5"]
    assert payload["fitted_classes"] == [{
        "class": "rf acx,eta; eta^2 == acx*eta && eta != 0",
        "witness_primes": [5, 7, 11, 13, 17, 19, 23, 31]}]


def test_integrate_gives_a_prime_off_the_fit_its_own_case(run_cli,
                                                          tmp_path):
    # eta^2 == acx has two roots at every prime of q = 2 (mod 3) but 2,
    # which the fit from 5, 11, 17, 23 does not see: 2 is counted too, and
    # the class's case names it as the exception
    path = _one_level_cell_file(tmp_path, "eta^2 == acx")
    rc, out, err = run_cli("integrate", path,
                           "--param", "acx:cube", "--param", "k=0")
    assert (rc, err) == (0, "")
    payload = out_json(out)
    assert payload["cases"] == [
        {"when": "q = 1 (mod 3)", "value": "2*L^-1"},
        {"when": "q = 2 (mod 3), q != 2", "value": "2*L^-1"},
        {"when": "q = 2", "value": "L^-1"}]
    assert payload["fitted_classes"] == [{
        "class": "rf acx,eta; eta^2 == acx && eta != 0",
        "witness_primes": [5, 11, 17, 23]}]


def test_integrate_counts_a_level_beside_a_cube_root_exactly(run_cli,
                                                            tmp_path):
    # eta != 3 beside eta^3 == acx: 3 is a cube root of 1 mod 13 and 3 = 1
    # mod 2, so those primes of their classes get their own cases, and
    # no class is fitted
    path = _one_level_cell_file(tmp_path,
                                "eta != 0 && eta != 3 && eta^3 == acx")
    rc, out, err = run_cli("integrate", path,
                           "--param", "acx:cube", "--param", "k=1")
    assert (rc, err) == (0, "")
    payload = out_json(out)
    assert payload["cases"] == [
        {"when": "q = 1 (mod 3), q != 13", "value": "3*L^-5"},
        {"when": "q = 13", "value": "2*L^-5"},
        {"when": "q = 2 (mod 3), q != 2", "value": "L^-5"},
        {"when": "q = 2", "value": "0"}]
    assert "fitted_classes" not in payload


@pytest.mark.parametrize("lines", [
    ("#! expect: %s", "vf x; ord(x) >= 0"),
    ("#! expect: 1", "vf x; ord(x - %s) >= 0"),
    ("#! expect: L^-%s", "vf x; ord(x) >= 0"),
], ids=["expect", "formula", "exponent"])
def test_an_over_long_integer_literal_is_malformed_input(run_cli, tmp_path,
                                                         lines):
    # past the interpreter's 4,300-digit conversion limit: exit 2 with one
    # line that gives the digit count, not an internal error
    path = tmp_path / "long_literal.dp"
    path.write_text("\n".join(lines).replace("%s", "1" * 5000) + "\n")
    rc, out, err = run_cli("compare", str(path), "--primes", "5")
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert "an integer literal of 5000 digits is too long" in err


def test_integrate_rejects_numeric_residue_parameter(run_cli, fx):
    rc, _, err = run_cli("integrate", fx("cube.cells.json"),
                         "--param", "acx=1")
    assert rc == 3
    assert "outside the supported fragment" in err


def test_integrate_rejects_unknown_parameter(run_cli, fx):
    rc, _, err = run_cli("integrate", fx("cube.cells.json"),
                         "--param", "bogus=1")
    assert rc == 2


def test_integrate_rejects_unknown_class_token(run_cli, fx):
    rc, _, _ = run_cli("integrate", fx("cube.cells.json"),
                       "--param", "acx:nonsense")
    assert rc == 2


def test_integrate_needs_exactly_one_input(run_cli, fx):
    rc, _, _ = run_cli("integrate")
    assert rc == 2
    rc, _, _ = run_cli("integrate", fx("cube.cells.json"),
                       "--linear-product", "0:1")
    assert rc == 2


def test_integrate_punctured_ball(run_cli, fx):
    rc, out, _ = run_cli("integrate", fx("punctured_ball.cells.json"))
    assert rc == 0
    assert out_json(out)["value"] == "[1] (x) 1"


# --- compare ---

def test_compare_formula_fixture(run_cli, fx):
    rc, out, _ = run_cli("compare", fx("ball.dp"), "--primes", "5,7")
    assert rc == 0
    payload = out_json(out)
    assert payload["ok"] is True
    for row in payload["rows"]:
        assert row["qp_contained"] is True


def test_compare_detects_corruption(run_cli, fx):
    rc, out, err = run_cli("compare", fx("corrupted_expect.dp"),
                           "--primes", "5")
    assert rc == 4
    payload = out_json(out)
    assert payload["ok"] is False
    assert payload["failing_primes"] == [5]
    assert "comparison failed" in err


def test_compare_skips_bad_primes(run_cli, fx):
    rc, out, _ = run_cli("compare", fx("linear_triple.dp"),
                         "--primes", "2,3,5")
    assert rc == 0
    rows = {r["prime"]: r for r in out_json(out)["rows"]}
    assert "bad prime" in rows[2]["skipped"]
    assert "bad prime" in rows[3]["skipped"]
    assert rows[5]["qp_contained"] is True


def test_compare_cells_both_characteristics(run_cli, fx):
    rc, out, _ = run_cli("compare", fx("cube.cells.json"),
                         "--primes", "2,5", "--both-characteristics")
    assert rc == 0
    payload = out_json(out)
    degenerate = [r for r in payload["rows"]
                  if r.get("case") == {"acx": 2, "k": 0} and r["prime"] == 2]
    assert degenerate and "vanishes mod 2" in degenerate[0]["skipped"]
    checked = [r for r in payload["rows"] if "skipped" not in r]
    assert checked
    for row in checked:
        assert row["qp_contained"] is True
        assert row["fpt_contained"] is True


def test_compare_budget_reaches_the_point_counts(run_cli, fx, monkeypatch):
    # one command line holds one limit: --budget also bounds the residue
    # point counts that specialize runs for cell data
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "1")
    rc, out, err = run_cli("compare", fx("cube.cells.json"), "--primes", "5",
                           "--budget", str(10 ** 18))
    assert (rc, err) == (0, "")
    assert out_json(out)["ok"] is True
    rc, out, err = run_cli("compare", fx("cube.cells.json"), "--primes", "5")
    assert rc == 5
    assert err == "dpcalc: q^1 evaluations at q = 5 exceed the budget of 1\n"


def test_compare_punctured_ball(run_cli, fx):
    rc, out, _ = run_cli("compare", fx("punctured_ball.cells.json"),
                         "--primes", "5")
    assert rc == 0
    assert out_json(out)["ok"] is True


def test_compare_needs_an_oracle_block(run_cli, tmp_path):
    plain = tmp_path / "no_oracle.cells.json"
    plain.write_text(json.dumps({
        "cells": [{"kind": "OneCell", "id": "shells", "center": "0",
                   "basis": "rf u; zz g; u != 0 && 0 <= g",
                   "alpha": "g", "xi": "u", "psi": "1"}],
    }))
    rc, _, err = run_cli("compare", str(plain), "--primes", "5")
    assert rc == 3
    assert "outside the supported fragment" in err


@pytest.mark.parametrize("basis, message", [
    ("rf u; zz g; u != 0 && g >= 0 && (exists m:zz. u == u && m == 0)",
     "value-group quantifiers"),
    ("rf u; zz g; u != 0 && g >= 0 && 1 <= 2",
     "neither a summation range nor a residue condition"),
], ids=["value-group-quantifier", "closed-value-group-atom"])
def test_uncountable_residue_classes_exit_3(run_cli, tmp_path, basis,
                                            message):
    """The loader refuses a residue class that the point counter cannot
    count, so `integrate` and `compare` refuse it alike."""
    path = tmp_path / "class.cells.json"
    path.write_text(json.dumps({
        "cells": [{"kind": "OneCell", "id": "shells", "center": "0",
                   "basis": basis, "alpha": "g", "xi": "u", "psi": "1"}],
        "oracle": {"domain": "vf x; ord(x) >= 0",
                   "cases": [{"precision": 5}]},
    }))
    errs = []
    for argv in (("integrate", path), ("compare", path, "--primes", "5")):
        rc, out, err = run_cli(*argv)
        assert (rc, out) == (3, "")
        assert message in err and err.count("\n") == 1
        errs.append(err)
    assert errs[0] == errs[1]


def test_compare_malformed_cells(run_cli, fx):
    rc, _, err = run_cli("compare", fx("corrupted.cells.json"))
    assert rc == 2
    assert "Banana" in err


# --- appendix2 ---

def test_appendix2_counts(run_cli):
    rc, out, _ = run_cli("appendix2")
    assert rc == 0
    payload = out_json(out)
    assert payload["symbolic"] == "1/2*L^3 - 1/2*L"
    assert payload["ok"] is True
    assert len(payload["rows"]) == 10  # 2 nonsquares at q=5, 3 at q=7, both variants
    by_q = {(r["q"], r["eta"], r["variant"]): r["count"]
            for r in payload["rows"]}
    assert by_q[(5, 2, "b2_minus_d2")] == 60
    assert by_q[(7, 3, "d2_minus_b2")] == 168


def test_appendix2_vf_rows(run_cli):
    """The valued-field locus at N = 1, in both characteristics: q * vol
    is q(q-1)(q+1)/2 points mod q over q^3."""
    rc, out, _ = run_cli("appendix2")
    payload = out_json(out)
    assert [(r["q"], r["field"], r["eta"], r["value"], r["ok"])
            for r in payload["vf_rows"]] == [
        (5, "qp", 2, "12/25", True), (5, "fpt", 2, "12/25", True),
        (7, "qp", 3, "24/49", True), (7, "fpt", 3, "24/49", True)]
    assert all(r["expected"] == r["value"] and r["N"] == 1
               for r in payload["vf_rows"])


def test_appendix2_vf_locus_is_the_fixture(fx):
    with open(fx("appendix2_vf.dp")) as fh:
        text = fh.read()
    want = parse(text.replace("a*d - b*c == 1", "ord(a*d - b*c - 1) >= 1"))
    assert parse(cli.APPENDIX2_VF_LOCUS) == want


def test_appendix2_vf_mismatch_exits_4(run_cli, monkeypatch):
    real = cli.oracle_volume

    def off_by_one_box(*args, **kwargs):
        iv = real(*args, **kwargs)
        return iv.scaled(F(626, 625))
    monkeypatch.setattr(cli, "oracle_volume", off_by_one_box)
    rc, out, err = run_cli("appendix2", "--primes", "5")
    assert rc == 4
    payload = out_json(out)
    assert payload["ok"] is False
    assert all(r["ok"] for r in payload["rows"])
    assert not any(r["ok"] for r in payload["vf_rows"])
    assert err == ("dpcalc: count mismatch at q=5 (qp locus), "
                   "q=5 (fpt locus)\n")


def test_appendix2_rejects_composite(run_cli):
    rc, _, _ = run_cli("appendix2", "--primes", "4")
    assert rc == 2


@pytest.mark.parametrize("primes", ["2", "2,5", "5,2"])
def test_appendix2_refuses_small_primes_before_counting(run_cli, monkeypatch,
                                                        primes):
    """2 has no nonsquare, so it would give no row and a vacuous ok; it is
    refused like 3, before any prime in the list is counted."""
    def no_count(*args, **kwargs):
        raise AssertionError("counted before refusing")
    monkeypatch.setattr(cli, "appendix2_volume", no_count)
    rc, out, err = run_cli("appendix2", "--primes", primes)
    assert rc == 2
    assert out == ""
    assert err == "dpcalc: need an odd prime >= 5, got 2\n"


def test_appendix2_honours_budget_env(run_cli, monkeypatch):
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "10")
    rc, out, err = run_cli("appendix2", "--primes", "5")
    assert rc == 5
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("argv", [("oracle", "ball.dp", "--prime", "5"),
                                  ("appendix2", "--primes", "5")])
@pytest.mark.parametrize("value", ["abc", "1e9", " "])
def test_malformed_budget_env_exits_2(run_cli, fx, monkeypatch, argv, value):
    monkeypatch.setenv("DPCALC_BOX_BUDGET", value)
    rc, out, err = run_cli(*(fx(a) if a.endswith(".dp") else a
                             for a in argv))
    assert rc == 2
    assert out == ""
    assert err == ("dpcalc: DPCALC_BOX_BUDGET must be an integer, got %r\n"
                   % value)


# --- oracle ---

def test_oracle_ball(run_cli, fx):
    rc, out, _ = run_cli("oracle", fx("ball.dp"), "--prime", "5",
                         "--precision", "4")
    assert rc == 0
    payload = out_json(out)
    assert payload["interval"]["lower"] == "1/25"
    assert payload["interval"]["upper"] == "1/25"
    assert payload["width"] == "0/1"


def test_oracle_equal_characteristic(run_cli, fx):
    rc, out, _ = run_cli("oracle", fx("ball.dp"), "--prime", "5",
                         "--precision", "4", "--field", "fpt")
    assert rc == 0
    assert out_json(out)["interval"]["lower"] == "1/25"


def test_oracle_budget_exit(run_cli, fx):
    # two variables at depth 9 overflow the default box budget
    rc, _, err = run_cli("oracle", fx("plane.dp"), "--prime", "3",
                         "--precision", "9")
    assert rc == 5
    assert "budget" in err


def test_oracle_budget_exit_does_not_build_the_box_count(fx):
    # 5^99999999 has ~70 million digits; deciding the budget must not
    # compute it, so the process exits 5 at once (run apart, with a timeout)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dpcalc.cli", "oracle", fx("ball.dp"),
         "--prime", "5", "--precision", "99999999"],
        capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == ("dpcalc: 5^(99999999*1) residue boxes exceed the "
                           "budget of 100000000\n")


def test_oracle_integrand_directives(run_cli, fx):
    rc, out, _ = run_cli("oracle", fx("linear_m3.dp"), "--prime", "5",
                         "--precision", "6")
    assert rc == 0
    payload = out_json(out)
    assert payload["integrand"] == "z^3"
    value = SymA.parse("(1 - L^-1)/(1 - L^-4)").nu(5)
    lo, hi = payload["interval"]["lower"], payload["interval"]["upper"]

    def frac(s):
        a, b = s.split("/")
        return int(a), int(b)

    la, lb = frac(lo)
    ha, hb = frac(hi)
    assert la * value.denominator <= value.numerator * lb
    assert value.numerator * hb <= ha * value.denominator


# --- out-of-range input exits 2 with one line ---

@pytest.mark.parametrize("argv", [
    ("integrate", "cube.cells.json", "--param", "k=-1", "--param",
     "acx:cube"),
    ("oracle", "ball.dp", "--prime", "5", "--precision", "0"),
    ("compare", "linear_m3.dp", "--primes", "5", "--precision", "0"),
    ("integrate", "--linear-product", "0:1", "--exponent", "0"),
    ("integrate", "--linear-product", "1/0:1"),
    ("compare", "ball.dp", "--primes", "x"),
], ids=["k-outside-domain", "oracle-precision-0", "compare-precision-0",
        "exponent-0", "zero-denominator", "non-integer-prime"])
def test_out_of_range_input_exits_2(run_cli, fx, argv):
    argv = [fx(a) if a.endswith((".dp", ".json")) else a for a in argv]
    rc, out, err = run_cli(*argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("dpcalc: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("name, old, new, argv", [
    ("cube.cells.json", '"e": 1', '"e": 0', ["compare"]),
    ("cube.cells.json", '"e": 1', '"e": "x"', ["compare"]),
    ("cube.cells.json", '"domain": "vf x, y; ord(y) >= 0"', '"domain": 7',
     ["compare"]),
    ("cube.cells.json", '"cases": [', '"cases": [7, ', ["compare"]),
    ("cube.cells.json", '"vf": {"x": "acx * t^(3*k)"}', '"vf": {"x": 5}',
     ["compare"]),
    ("cube.cells.json", '"bad_primes": {\n    "3": "the cube map degenerates'
     ' on units in characteristic 3"\n  }', '"bad_primes": [3]',
     ["integrate"]),
    ("linear_m1.dp", "#! integrand", "#! exponent: x\n#! integrand",
     ["compare"]),
    ("linear_m1.dp", "#! integrand", "#! exponent: 0\n#! integrand",
     ["oracle", "--prime", "5"]),
    ("linear_m1.dp", "#! integrand: z", "#! integrand: ord(z)",
     ["oracle", "--prime", "5"]),
    ("linear_m1.dp", "#! integrand: z", "#! integrand: ac(z)",
     ["oracle", "--prime", "5"]),
    ("linear_m1.dp", "#! integrand: z", "#! integrand: inf",
     ["oracle", "--prime", "5"]),
    ("cube.cells.json", '"f": "y^3 - x"', '"f": "ord(y)"', ["compare"]),
    ("cube.cells.json", '"f": "y^3 - x"', '"f": 3', ["compare"]),
    ("cube.cells.json", '"vf": {"x": "acx * t^(3*k)"}',
     '"vf": {"x": "acx * y"}', ["compare"]),
    ("cube.cells.json", '"vf": {"x": "acx * t^(3*k)"}',
     '"vf": {"x": "acx / t"}', ["compare"]),
    ("cube.cells.json", '"vf": {"x": "acx * t^(3*k)"}',
     '"vf": {"x": "acx * pi^(3*k)"}', ["compare"]),
    ("cube.cells.json", '"k": 0}', '"k": 0.5}', ["compare"]),
    ("cube.cells.json", '"precision": 7', '"precision": 7.5', ["compare"]),
    ("cube.cells.json", '"e": 1', '"e": 1.5', ["compare"]),
], ids=["integrand-exponent-0", "integrand-exponent-x", "domain-not-text",
        "case-not-object", "bind-not-text", "bad-primes-not-object",
        "exponent-directive-x", "exponent-directive-0", "integrand-ord",
        "integrand-ac", "integrand-inf", "oracle-integrand-ord",
        "oracle-integrand-not-text",
        "bind-unknown-name", "bind-division", "bind-pi", "param-float",
        "precision-float", "integrand-exponent-float"])
def test_malformed_input_files_exit_2(run_cli, fx, tmp_path, name, old, new,
                                      argv):
    with open(fx(name)) as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1))
    rc, out, err = run_cli(argv[0], path, *argv[1:])
    assert rc == 2
    assert out == ""
    assert err.startswith("dpcalc: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def _set(path, value):
    """An edit of cell data that sets the key at `path` (None deletes)."""
    def edit(data):
        *outer, key = path
        for step in outer:
            data = data[step]
        if value is None:
            del data[key]
        else:
            data[key] = value
    return edit


_ZZ_BASIS = "rf u; zz g; u != 0 && 0 <= g && %s"


@pytest.mark.parametrize("edit, code, message", [
    (_set(("cells", 0), 7), 2, "cell 0 is not an object"),
    (_set(("cells", 0, "center"), None), 2, "cell shells has no center"),
    (_set(("cells", 0, "psi"), None), 2,
     "cell shells has no psi coefficient"),
    (_set(("cells", 0, "basis"), "vf z; rf u; u != 0 && ord(z) >= 0"), 3,
     "outside the supported fragment: cell shells: basis formulas range "
     "over residue and value-group variables only"),
    (_set(("cells", 1, "xi"), "u"), 2,
     "cell origin: a 0-cell has no alpha or xi"),
    (_set(("cells", 1, "basis"), "zz g; 0 <= g"), 2,
     "cell origin: a 0-cell has no extra value-group variables"),
    (_set(("cells", 0, "xi"), None), 2,
     "cell shells: a 1-cell needs alpha and xi"),
    (_set(("cells", 0, "alpha"), "g + m"), 2,
     "cell shells: alpha uses undeclared ['m']"),
    (_set(("cells",), None), 2,
     "cell data must be an object with a 'cells' list"),
    (_set(("parameters",), [{"name": "k", "sort": "qq"}]), 2,
     "bad parameter entry {'name': 'k', 'sort': 'qq'}"),
    (_set(("cells", 0, "basis"), _ZZ_BASIS % "1 <= g"), 3,
     "outside the supported fragment: two lower bounds for 'g'"),
    (_set(("cells", 0, "basis"), _ZZ_BASIS % "2*g <= 5"), 3,
     "outside the supported fragment: cannot solve for 'g' with "
     "coefficient 2"),
], ids=["cell-not-object", "no-center", "no-psi", "vf-basis",
        "zero-cell-xi", "zero-cell-ranges", "one-cell-no-xi",
        "alpha-undeclared", "no-cells", "bad-parameter", "two-lower-bounds",
        "coefficient-2"])
def test_cell_loader_refusals(run_cli, fx, tmp_path, edit, code, message):
    with open(fx("punctured_ball.cells.json")) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(data))
    assert run_cli("integrate", path) == (code, "", "dpcalc: %s\n" % message)


def _one_range_cells(basis):
    return {"parameters": [{"name": "k", "sort": "zz"}],
            "cells": [{"kind": "OneCell", "id": "c", "center": "0",
                       "basis": basis, "alpha": "j", "xi": "u", "psi": "1"}]}


def test_a_range_that_may_be_over_empty_is_refused(run_cli, fx, tmp_path):
    """Telescoping sums a range right only where lower <= upper + 1.  At
    k = 0 the range 0 <= j <= k - 2 is empty by two points, and summed to
    the negative measure 1 - L: a range whose upper + 1 - lower may be
    negative on its cell's domain is refused.  Under 1 <= k it is not,
    and the cell files still integrate."""
    path = tmp_path / "cells.json"
    basis = "rf u; zz j, k; u != 0 && 0 <= j && j <= k - 2 && %s <= k"
    path.write_text(json.dumps(_one_range_cells(basis % 0)))
    refusal = ("dpcalc: outside the supported fragment: cell c: cannot "
               "show lower <= upper + 1 on the range 0 <= j && j <= k - 2\n")
    for extra in ((), ("--param", "k=0")):
        assert run_cli("integrate", path, *extra) == (3, "", refusal)
    path.write_text(json.dumps(_one_range_cells(basis % 1)))
    for k, value in ((1, "0"), (3, "[1] (x) 1 - L^-2")):
        rc, out, _ = run_cli("integrate", path, "--param", "k=%d" % k)
        assert rc == 0 and json.loads(out)["value"] == value
    for name in ("cube", "cube_level", "punctured_ball"):
        assert run_cli("integrate", fx(name + ".cells.json"))[0] == 0


def test_appendix2_huge_prime_stops_at_the_budget(run_cli):
    start = time.monotonic()
    rc, out, err = run_cli("appendix2", "--primes", "99999999977",
                           "--budget", "10000")
    assert rc == 5
    assert "exceed the budget of 10000" in err
    assert time.monotonic() - start < 5


def test_compare_compiles_each_walk_structure_once(run_cli, fx):
    """The classifier memo is keyed by structure, never by the prime or
    a bound constant: three oracle cases at eleven primes in two fields
    compile one classifier per field."""
    compile_walk.cache_clear()
    rc, _, _ = run_cli("compare", fx("cube.cells.json"), "--primes",
                       "2,3,5,7,11,13,17,19,23,29,31",
                       "--both-characteristics", "--budget", 10 ** 18)
    assert rc == 0
    info = compile_walk.cache_info()
    assert (info.misses, info.hits) == (2, 56)


def test_twenty_digit_prime_stops_at_the_budget(fx):
    # primality is decided by Miller-Rabin, not trial division, so a
    # 20-digit prime reaches the budget check at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "dpcalc.cli", "compare", fx("ball.dp"),
         "--primes", str(2 ** 64 - 59)],
        capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 5
    assert proc.stderr.startswith("dpcalc: ")
    assert "exceed the budget" in proc.stderr


def _run_apart(*argv, budget=None):
    """Run the command line in a fresh interpreter, at the default budget
    unless DPCALC_BOX_BUDGET is given, stopped after 5 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DPCALC_BOX_BUDGET", None)
    if budget is not None:
        env["DPCALC_BOX_BUDGET"] = str(budget)
    return subprocess.run([sys.executable, "-m", "dpcalc.cli"] + list(argv),
                          capture_output=True, text=True, env=env, timeout=5)


def test_prime_center_is_not_trial_divided():
    # factoring stops once the cofactor is prime
    p = 999999999999999989
    proc = _run_apart("integrate", "--linear-product", "0:1,%d:1" % p)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(out_json(proc.stdout)["bad_primes"]) == [str(p)]


def test_smooth_center_is_factored():
    # the square root of 10^17 is 3.2e8, past the default budget, but
    # its factors 2 and 5 are found at the first divisions
    proc = _run_apart("integrate", "--linear-product",
                      "0:1,100000000000000000:1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(out_json(proc.stdout)["bad_primes"]) == ["2", "5"]


def test_semiprime_center_is_factored_by_rho():
    # 1000000007 * 1000000009: trial division would pass 5 * 10^8
    # divisions; Pollard's rho splits it in a few ten thousand steps
    proc = _run_apart("integrate", "--linear-product",
                      "0:1,1000000016000000063:1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(out_json(proc.stdout)["bad_primes"]) == ["1000000007",
                                                         "1000000009"]


def test_a_long_denominator_builds_no_cyclotomic():
    # the shell sum is 1/(1 - L^-300001) with numerator 1: no Phi_d that
    # divides 300001 is shorter than that numerator, so none is built
    proc = _run_apart("integrate", "--linear-product", "0:300000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out_json(proc.stdout)["value"] == "(1 - L^-1)/(1 - L^-300001)"


def test_semiprime_center_stops_at_the_budget():
    # the trial divisions fit in 10^4 steps, and the rho walk does not
    proc = _run_apart("integrate", "--linear-product",
                      "0:1,1000000016000000063:1", budget=10 ** 4)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == ("dpcalc: trial divisions and rho steps "
                           "factoring 1000000016000000063 exceed the "
                           "budget of 10000\n")


def test_compare_budget_reaches_the_symbolic_factoring(tmp_path):
    # the excluded primes of the linear product factor 35, which takes
    # more than one trial division: --budget lifts the limit for that
    # factoring too, and without it the environment's limit holds
    path = tmp_path / "two_centers.dp"
    path.write_text("#! linear-product: 0:1,35:1\n"
                    "#! integrand: z*(z - 35)\n"
                    "vf z; ord(z) >= 0\n")
    argv = ("compare", str(path), "--primes", "11")
    proc = _run_apart(*argv, "--budget", str(10 ** 18), budget=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out_json(proc.stdout)["ok"] is True
    proc = _run_apart(*argv, budget=1)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == ("dpcalc: trial divisions factoring 35 exceed "
                           "the budget of 1\n")


def test_ring_indices_take_no_budget(tmp_path):
    # |z|^34 has the denominator 1 - L^-35: the ring factors the index 35,
    # the length of a coefficient list it already holds, whatever the
    # budget, so a budget of 1 stops nothing but the oracle's boxes
    path = tmp_path / "index35.dp"
    path.write_text("#! linear-product: 0:34\n"
                    "#! integrand: z^34\n"
                    "vf z; ord(z) >= 0\n")
    proc = _run_apart("compare", str(path), "--primes", "11",
                      "--budget", str(10 ** 18), budget=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out_json(proc.stdout)["ok"] is True
    proc = _run_apart("integrate", "--linear-product", "0:34", budget=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out_json(proc.stdout)["value"] == "(1 - L^-1)/(1 - L^-35)"


@pytest.mark.parametrize("argv", [
    ("--linear-product", "0:100000000000"),
    ("--linear-product", "0:1", "--exponent", "100000000000"),
])
def test_a_huge_ring_index_is_over_the_budget(argv):
    # the shell sum's denominator 1 - L^-(10^11 + 1) would need a
    # coefficient list of that length: refused before it is built
    proc = _run_apart("integrate", *argv)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == ("dpcalc: the ring index 100000000001 of a shell "
                           "sum exceeds the budget of 100000000\n")


@pytest.mark.parametrize("directive, budget, message", [
    ("expect: 1/(1 - L^-100000000000)", None,
     "the ring index 100000000000 in a ring expression"),
    ("linear-product: 0:100000000000", 10 ** 18,
     "the ring index 100000000001 of a shell sum"),
])
def test_a_compare_holds_ring_indices_to_the_default_budget(
        tmp_path, directive, budget, message):
    # neither `#! expect:` text nor a --budget above the default lets the
    # ring build a coefficient list of 10^11 entries
    path = tmp_path / "huge_index.dp"
    path.write_text("#! %s\nvf z; ord(z) >= 0\n" % directive)
    argv = ["compare", str(path), "--primes", "5"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    proc = _run_apart(*argv)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == \
        "dpcalc: %s exceeds the budget of 100000000\n" % message


@pytest.mark.parametrize("field", ["qp", "fpt"])
def test_huge_powers_compile_to_a_squaring_chain(tmp_path, field):
    path = tmp_path / "huge_power.dp"
    path.write_text("vf x; ord(x^100000000) >= 0\n")
    proc = _run_apart("oracle", str(path), "--prime", "5", "--field", field)
    assert (proc.returncode, proc.stderr) == (0, "")
    interval = out_json(proc.stdout)["interval"]
    assert [interval["lower"], interval["upper"]] == ["1/1", "1/1"]


@pytest.mark.parametrize("field", ["qp", "fpt"])
def test_huge_constant_valuations_take_few_divisions(tmp_path, field):
    # the valuation of 5^100000 is found by repeated squaring of 5, not
    # by one division per unit of valuation
    path = tmp_path / "huge_valuation.dp"
    path.write_text("vf x; ord(x - t^100000) >= 0\n")
    proc = _run_apart("oracle", str(path), "--prime", "5", "--field", field)
    assert (proc.returncode, proc.stderr) == (0, "")
    interval = out_json(proc.stdout)["interval"]
    assert [interval["lower"], interval["upper"]] == ["1/1", "1/1"]


def test_oracle_binds_are_field_terms():
    params, precision, binds = cli._oracle_case(
        {"params": {"acx": 2, "k": 1}, "precision": 7,
         "vf": {"x": "acx * t^(3*k)", "y": "1 + t"}}, 6)
    assert (params, precision) == ({"acx": 2, "k": 1}, 7)
    assert binds == {
        "x": VfMul(VfConst(F(2)), VfPow(VfUnif(), 3)),
        "y": VfAdd(VfConst(F(1)), VfUnif())}


def test_integrate_negative_first_center(run_cli):
    rc, out, err = run_cli("integrate", "--linear-product", "-3:2")
    assert (rc, err) == (0, "")
    assert out_json(out) == \
        out_json(run_cli("integrate", "--linear-product=-3:2")[1])
    assert out_json(out)["input"]["linear_product"] == "-3:2"


# --- output redirection ---

def test_output_flag_writes_file(run_cli, fx, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli("parse", fx("ball.dp"), "-o", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["pretty"] == "vf x; 2 <= ord(x)"
    # the pretty text is a report too
    target = tmp_path / "report.txt"
    rc, out, _ = run_cli("parse", fx("ball.dp"), "--emit", "pretty", "-o",
                         str(target))
    assert (rc, out) == (0, "")
    assert target.read_text() == "vf x; 2 <= ord(x)\n"


def test_repeated_main_calls_share_no_state(run_cli, fx, tmp_path):
    target = tmp_path / "bound.json"
    rc, out, _ = run_cli("integrate", fx("cube.cells.json"),
                         "--param", "k=1", "--output", str(target))
    assert (rc, out) == (0, "")
    assert json.loads(target.read_text())["assigned"] == {"k": 1}
    target.unlink()
    rc, out, _ = run_cli("integrate", fx("cube.cells.json"))
    assert rc == 0
    assert out_json(out)["assigned"] == {}
    assert not target.exists()


# --- the report writer and the command line parser ---

_JSON_SCALARS = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028",
                                "\U0001f600", "\ud800"]),
    st.integers(), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.none())
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, inner, max_size=4)), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_reports_are_laid_out_as_json_dumps_lays_them(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_the_report_writer_leaves_other_types_to_json_dumps():
    for obj in ([1.5, {"x": float("nan")}], {2.5: [float("-inf")]}):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)
    for obj in (F(1, 2), {"rows": [1, F(1, 2)]}, {F(1, 2): 1}, {(1,): 2}):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(obj)
        assert str(got.value) == str(want.value)


def test_one_argparse_pass_reads_argv_as_two_did(fx, monkeypatch):
    """A command's arguments go straight to its own parser; every argv
    ends as the top-level parser's two passes end it: the same exit code,
    output and arguments handed to the command."""
    ball = fx("ball.dp")
    argvs = [[], ["bogus"], ["-h"], ["compare", "-h"], ["compare"],
             ["compare", ball, "--bogus"], ["compare", ball, "extra"],
             ["compare", ball, "--both"], ["compare", ball, "--", "x"],
             ["integrate", "--linear-product", "-3:2"],
             ["compare", ball, "--primes", "4"],
             ["compare", ball, "--budget", "-1"]]
    seen = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda args: seen.append(vars(args)) or 0)

    def run(argv):
        del seen[:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
        return rc, out.getvalue(), err.getvalue(), list(seen)

    once = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli.build_parser().parse_args(argv))
    for argv, got in zip(argvs, once):
        assert got == run(argv), argv
    assert [rc for rc, *_ in once] == [2, 2, 0, 0, 2, 2, 2, 0, 2, 0, 2, 0]


# --- internal faults exit 1 with one line ---

def test_internal_error_exits_1(run_cli, fx, monkeypatch):
    def broken(cfg):
        raise RuntimeError("broken\nparser")
    monkeypatch.setitem(cli._COMMANDS, "parse", broken)
    rc, out, err = run_cli("parse", fx("ball.dp"))
    assert rc == 1
    assert out == ""
    assert err == "dpcalc: internal error: RuntimeError: broken parser\n"
    with pytest.raises(RuntimeError):
        run_cli("parse", fx("ball.dp"), "--debug")


# --- deep or long input exits 3 ---

# an atom, and a term context, each one nested level and three nodes deep,
# in the field and in the residue field
_ATOM = {"vf": "ord(x) >= 0", "rf": "(x^2) == 1"}
_IN_TERM = {"vf": "ord(%s) >= 0", "rf": "(%s)^2 == 1"}
# (shape, its body at n, the largest n within the bounds): the text nests
# at most 2 * MAX_DEPTH levels and the tree is at most MAX_DEPTH deep
_DEEP = [
    ("parentheses", lambda n, s: "(" * n + _ATOM[s] + ")" * n,
     2 * MAX_DEPTH - 1),
    ("conjunction", lambda n, s: " && ".join([_ATOM[s]] * n),
     MAX_DEPTH - 2),
    ("negation", lambda n, s: "!" * n + _ATOM[s], MAX_DEPTH - 3),
    ("quantifiers", lambda n, s: "".join(
        "exists s%d:rf. " % i for i in range(n)) + _ATOM[s], MAX_DEPTH - 3),
    ("term-parentheses", lambda n, s: _IN_TERM[s] % (
        "(" * n + "x" + ")" * n), 2 * MAX_DEPTH - 1),
    ("sum", lambda n, s: _IN_TERM[s] % " + ".join(["x"] * n),
     MAX_DEPTH - 2),
    ("unary-minus", lambda n, s: _IN_TERM[s] % ("-" * n + "x"),
     MAX_DEPTH - 3),
]


def _compare_and_oracle(run_cli, path):
    rc, out, err = run_cli("compare", path, "--primes", "5", "--precision",
                           "2", "--both-characteristics")
    rows = out_json(out)["rows"] if out else None
    oracle = [run_cli("oracle", path, "--prime", "5", "--precision", "2",
                      "--field", field) for field in ("qp", "fpt")]
    return (rc, rows, err), [(o[0], out_json(o[1])["interval"] if o[1]
                              else None, o[2]) for o in oracle]


@pytest.mark.parametrize("shape, body, top", _DEEP,
                         ids=[d[0] for d in _DEEP])
def test_deep_input_runs_to_the_bound_and_exits_3_past_it(
        run_cli, tmp_path, shape, body, top):
    """At the bound every command runs as on the shallowest text of the
    same shape and parity; one level past it is refused."""
    shallow = 2 - top % 2
    for sort in ("vf", "rf"):
        phi = parse("%s x; %s" % (sort, body(top, sort)))
        assert parse(pretty_print(phi)) == phi
    rf_deep, rf_low = ("rf x; " + body(n, "rf") for n in (top, shallow))
    if shape == "quantifiers":
        # q^(1 + n) evaluations
        with pytest.raises(BudgetExceeded):
            count_rf_points(rf_deep, 5)
    else:
        assert count_rf_points(rf_deep, 5) == count_rf_points(rf_low, 5)
    deep, low = (tmp_path / "deep.dp", tmp_path / "low.dp")
    for path, n in ((deep, top), (low, shallow)):
        path.write_text("#! expect: 1\nvf x; %s\n" % body(n, "vf"))
    assert run_cli("parse", deep)[0] == 0
    if shape == "quantifiers":
        # the box walk nests 19 residue quantifiers at most
        (rc, _, err), oracle = _compare_and_oracle(run_cli, deep)
        assert rc == 3 and "nested %d deep" % top in err
        assert all(o[0] == 3 for o in oracle)
    else:
        assert _compare_and_oracle(run_cli, deep) == \
            _compare_and_oracle(run_cli, low)
    deep.write_text("#! expect: 1\nvf x; %s\n" % body(top + 1, "vf"))
    for argv in (("parse", deep), ("compare", deep, "--primes", "5"),
                 ("oracle", deep, "--prime", "5")):
        rc, out, err = run_cli(*argv)
        assert (rc, out) == (3, "")
        assert err.startswith("dpcalc: outside the supported fragment: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    with pytest.raises(UnsupportedFeature):
        parse("rf x; " + body(top + 1, "rf"))


@pytest.mark.parametrize("value", [
    lambda n: "(" * n + "1" + ")" * n,
    lambda n: "-" * n + "1",
], ids=["parentheses", "unary-minus"])
def test_deep_expected_values_exit_3_past_the_bound(run_cli, tmp_path,
                                                    value):
    path = tmp_path / "deep.dp"
    for n, want in ((2 * MAX_DEPTH, 0), (2 * MAX_DEPTH + 1, 3)):
        path.write_text("#! expect: %s\nvf x; ord(x) >= 0\n" % value(n))
        rc, out, err = run_cli("compare", path, "--primes", "5")
        assert rc == want, err
    assert err == ("dpcalc: outside the supported fragment: more than %d "
                   "nested levels\n" % (2 * MAX_DEPTH))



# --- fuzzing: every input ends in a result or one documented message ---

_FIXTURE_NAMES = sorted(os.listdir(os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures")))
_PRIMES = st.sampled_from(["2", "3", "5", "2,3", "7,11", "5,5", "4", "0",
                           "-3", "x", "", "3,,5", "99999999977"])
_PRECISION = st.integers(-1, 4).map(str)
_BUDGET = ["--budget", "10000"]
_PARAMS = st.lists(st.sampled_from(["k=1", "k=0", "k=-1", "k=x", "acx:cube",
                                    "acx:0", "acx=1", "=1", "k:1", "",
                                    "k=1,acx:cube", "n=2"]), max_size=2)
_LINEAR = st.one_of(
    st.sampled_from(["0:1", "-3:2", "1/2:1,3:2", "1/0:1", "x:1", "0:0",
                     "0:-1", "", "1:1:1", ",", "0:1,0:1"]),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), min_size=1,
             max_size=3).map(lambda cs: ",".join("%d:%d" % c for c in cs)))


def _argv_for(draw, path):
    """A command line over `path`, chosen by the file's kind."""
    if path.endswith(".json"):
        command = draw(st.sampled_from(["parse", "integrate", "compare"]))
    else:
        command = draw(st.sampled_from(["parse", "compare", "oracle"]))
    if command == "parse":
        return ["parse", path, "--emit", draw(st.sampled_from(
            ["json", "pretty", "xml"]))]
    if command == "integrate":
        argv = ["integrate", path]
        for param in draw(_PARAMS):
            argv += ["--param", param]
        return argv
    if command == "compare":
        argv = ["compare", path, "--primes", draw(_PRIMES), "--precision",
                draw(_PRECISION)] + _BUDGET
        if draw(st.booleans()):
            argv.append("--both-characteristics")
        return argv
    return ["oracle", path, "--prime", draw(st.sampled_from(
        ["2", "3", "5", "4", "-5", "x"])), "--precision", draw(_PRECISION),
            "--field", draw(st.sampled_from(["qp", "fpt"]))] + _BUDGET


@st.composite
def _command_lines(draw, scratch):
    kind = draw(st.sampled_from(["fixture", "mutated", "linear",
                                 "appendix2", "junk"]))
    if kind == "linear":
        return ["integrate", "--linear-product", draw(_LINEAR),
                "--exponent", str(draw(st.integers(-1, 3)))]
    if kind == "appendix2":
        return ["appendix2", "--primes", draw(_PRIMES)] + _BUDGET
    if kind == "junk":
        return draw(st.lists(st.sampled_from(
            ["parse", "compare", "oracle", "--primes", "--prime", "5",
             "--budget", "-1", "--param", "k=1", "ball.dp",
             "--linear-product", "0:1", "--emit"]), max_size=5)) \
            + _BUDGET
    name = draw(st.sampled_from(_FIXTURE_NAMES))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        name)
    if kind == "mutated":
        with open(path) as fh:
            text = fh.read()
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(list("0123456789 ()+-*^=<>!&|;:,.#\n"
                                         "abkxz{}[]\"\\")))
        path = str(scratch / name)
        with open(path, "w") as fh:
            fh.write(text[:at] + char + text[at + 1:])
    return _argv_for(draw, path)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse's own usage errors
            rc = e.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_command_lines_end_in_one_message(fuzz_dir, data):
    argv = data.draw(_command_lines(fuzz_dir))
    rc, err = _run_in_process(argv)
    assert rc in (0, 2, 3, 4, 5), (rc, err)
    assert "Traceback" not in err
    if rc:
        assert err.endswith("\n")
        # argparse prefixes its message with the subcommand
        assert re.match(r"dpcalc( \w+)?: \S", err.splitlines()[-1]), err
