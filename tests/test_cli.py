"""Command-line behaviour: payload shapes and the exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

from dpcalc import cli
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


def test_integrate_congruence_cases_honour_budget_env(run_cli, fx,
                                                     monkeypatch):
    # the witness-prime point counts run under the one enumeration budget
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "10")
    rc, out, err = run_cli("integrate", fx("cube.cells.json"),
                           "--param", "acx:cube", "--param", "k=1")
    assert rc == 5
    assert out == ""
    assert err == \
        "dpcalc: q^1 evaluations at q = 13 exceed the budget of 10\n"


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


def test_appendix2_rejects_composite(run_cli):
    rc, _, _ = run_cli("appendix2", "--primes", "4")
    assert rc == 2


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

