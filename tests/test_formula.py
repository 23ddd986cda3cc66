"""Three-sorted formulas: parsing, printing, truth evaluation, counting."""

import importlib
import pickle
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import count_reference
import value_group_reference as zz_reference
from dpcalc import localfield as lf, motivic
from dpcalc.errors import (BudgetExceeded, InvalidArgument, InvalidPrime,
                           ParseError, SortError, UnboundVariable,
                           UnsupportedFeature)
from dpcalc.formula import (And, Exists, Formula, Not, Or, RfAc, RfAdd,
                            RfConst, RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub,
                            RfVar, Sort, Truth3, VfAdd, VfConst, VfMul, VfPow,
                            VfSub, VfUnif, VfVar, ZzConst, ZzLe, ZzOrd,
                            ZzVar, count_rf_points, free_vars, interpret,
                            parse, parse_term, pretty_print)
from dpcalc.formula.count import _compile, _Plan
from dpcalc.formula.interpret import (NINF, _zi_add, _zi_neg, _zi_scale,
                                      zz_cong, zz_eq, zz_le, zz_lt)
from dpcalc.formula.nodes import children
from dpcalc.motivic import appendix2_volume, bad_primes

T, FL, U = Truth3.TRUE, Truth3.FALSE, Truth3.UNDECIDED


# --- parsing ---

def test_free_variable_collection():
    f1 = parse("vf x; ord(x) == 0 && exists u:rf. u^3 == ac(x)")
    assert dict(f1.free) == {"x": Sort.VF}

    f2 = parse("vf a,b,c,d; a*d - b*c == 1 && exists e:rf. "
               "e != 0 && ac(d)^2 - ac(b)^2 * H == e^2")
    assert dict(f2.free) == {"a": Sort.VF, "b": Sort.VF, "c": Sort.VF,
                             "d": Sort.VF, "H": Sort.RF}


def test_integer_sort_is_linear():
    with pytest.raises(SortError):
        parse("zz n; n * n == 4")


@pytest.mark.parametrize("text", [
    "vf x; x == ",                    # dangling comparison
    "vf x; rf x; x == 0",             # duplicate declaration
    "vf x; exists x:rf. x == 0",      # shadowing
    # shadowing a name used free after the quantifier, declared or not
    "rf y; (exists y:rf. y == 1) && y != 0",
    "(exists y:rf. y == 1) && y != 0",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("header", ["", "rf y, acx; "])
def test_shadowing_is_refused_at_the_quantifier_whatever_the_header(header):
    with pytest.raises(ParseError) as raised:
        parse(header + "(exists acx:rf. acx == y) && acx != 0")
    assert str(raised.value) == ("line 1, column %d: quantifier shadows "
                                 "'acx'" % (len(header) + 9))


_FIELD = "field quantifiers (cell decomposition eliminates them)"
_VALUE_GROUP = ("value-group quantifiers (write the condition with "
                "congruences, such as ord(x) == 0 mod 2)")


@pytest.mark.parametrize("text, message", [
    ("vf x; forall y:vf. ord(x*y) <= ord(x)", _FIELD),
    ("vf x; forall m:zz. ord(x) <= m", _VALUE_GROUP),
    # nested inside a residue quantifier
    ("vf x; exists u:rf. u == ac(x) && exists y:vf. y*y == x", _FIELD),
    ("vf x; forall u:rf. u == ac(x) || exists m:zz. ord(x) == m",
     _VALUE_GROUP),
    # the first one in the text names the message
    ("vf x; (exists m:zz. ord(x) == m) || exists y:vf. y == x", _VALUE_GROUP),
    ("rf u; u == 0 && exists n:zz. n == 0", _VALUE_GROUP),
])
def test_parse_refuses_field_and_value_group_quantifiers(text, message):
    syntax = parse_module._syntax
    for _ in range(2):
        misses = syntax.cache_info().misses
        with pytest.raises(UnsupportedFeature) as raised:
            parse(text)
        assert str(raised.value) == message
        # the refusal is never memoized: each call parses the text again
        assert syntax.cache_info().misses == misses + 1
    # every path that parses the text raises the parser's refusal
    with pytest.raises(UnsupportedFeature, match=re.escape(message)):
        count_rf_points(text, 5)


@pytest.mark.parametrize("text", [
    "vf x; exists y:vf. x*y == 1 &&",           # syntax
    "vf x; exists m:zz. ord(x) == m)",          # trailing input
    "vf x; exists y:vf. ac(y) == 1 && y != 0",  # sort
    "vf x; exists y:vf. exists y:vf. y == x",   # nested shadowing
    "(exists y:vf. y == 1) && y == t",          # shadowing a free name
])
def test_syntax_and_sort_errors_come_before_the_refusal(text):
    with pytest.raises(ParseError):
        parse(text)


def test_sort_clash():
    with pytest.raises(SortError):
        parse("vf x; ac(x) == 1 && x != 0")


def test_parse_term_builds_one_term_at_its_sort():
    assert parse_term("y^3 - x", Sort.VF) == \
        VfSub(VfPow(VfVar("y"), 3), VfVar("x"))
    assert parse_term("eta3", Sort.RF) == RfVar("eta3")
    assert parse_term("ord(x)", Sort.ZZ) == ZzOrd(VfVar("x"))
    # the term a formula's atom holds
    assert parse_term("z * (z - 1)", Sort.VF) == \
        parse("(z * (z - 1)) == 0", default_sort=Sort.VF).expr.left


@pytest.mark.parametrize("text, sort", [
    ("ord(z)", Sort.VF), ("ac(z)", Sort.VF), ("inf", Sort.VF),
    ("t", Sort.RF), ("x + ac(x)", Sort.RF), ("k * m", Sort.ZZ),
])
def test_parse_term_refuses_a_term_of_another_sort(text, sort):
    with pytest.raises(SortError):
        parse_term(text, sort)


@pytest.mark.parametrize("text", ["", "root(x, eta2)", "x == 0", "x /2"])
def test_parse_term_refuses_what_is_not_one_term(text):
    with pytest.raises(ParseError):
        parse_term(text, Sort.VF)


def test_parenthesized_exponents_fold_to_integers():
    assert parse("vf x; ord(x^(2*3 - 1)) >= 0") == \
        parse("vf x; ord(x^5) >= 0")
    assert parse_term("a * pi^(3*k) + 1", Sort.VF, values={"a": 2, "k": 1}) \
        == VfAdd(VfMul(VfConst(F(2)), VfPow(VfVar("pi"), 3)), VfConst(F(1)))
    assert parse_term("t^(k)", Sort.VF, values={"k": 0}) == \
        VfPow(VfUnif(), 0)
    for text in ("x^(k)", "x^(-1)", "x^(2^2)", "x^(ord(x))", "x^(t)"):
        with pytest.raises(ParseError):
            parse_term(text, Sort.VF)


def test_substitute_replaces_free_variables_and_respects_shadowing():
    scaled = VfMul(VfConst(F(1, 2)), VfVar("x"))
    shadowed = Exists("u", RfEq(RfVar("u"), RfConst(1)))
    expr = And(RfEq(RfAc(VfVar("x")), RfVar("u")),
               And(shadowed, Exists("s", RfEq(RfVar("s"), RfVar("u")))))
    got = count_reference.substitute(expr, {"x": scaled, "u": RfConst(3)})
    assert got == And(RfEq(RfAc(scaled), RfConst(3)),
                      And(shadowed, Exists("s", RfEq(RfVar("s"), RfConst(3)))))
    assert got.right.left is shadowed
    assert count_reference.substitute(expr, {"y": RfConst(0)}) is expr


# --- the parse memo ---

parse_module = importlib.import_module("dpcalc.formula.parse")


def test_the_same_text_returns_the_same_tree():
    text = "vf x; rf u; ord(x - 1) >= 2 && ac(x) == u"
    assert parse(text) is parse(text)
    assert parse_term("y^3 - x", Sort.VF) is parse_term("y^3 - x", Sort.VF)
    # values are keyed as sorted items, so their order does not matter
    assert parse_term("a * t^(3*k)", Sort.VF, {"a": 2, "k": 1}) \
        is parse_term("a * t^(3*k)", Sort.VF, {"k": 1, "a": 2})


def test_sort_and_values_key_entries_of_their_own():
    assert parse("x == 1", Sort.RF).free == (("x", Sort.RF),)
    assert parse("x == 1", Sort.VF).free == (("x", Sort.VF),)
    assert parse("x == 1", Sort.ZZ).free == (("x", Sort.ZZ),)
    # the same text as a formula and as a term of each sort
    assert parse_term("k + 1", Sort.ZZ) != parse_term("k + 1", Sort.RF)
    assert parse_term("k + 1", Sort.ZZ).left == ZzVar("k")
    assert parse_term("k + 1", Sort.ZZ, {"k": 1}).left == ZzConst(1)
    assert parse_term("k + 1", Sort.ZZ, {"k": 2}).left == ZzConst(2)


@pytest.mark.parametrize("call", [
    lambda: parse("vf x; ord(x) >= && x == 0"),
    lambda: parse("vf x; ac(x) == 1 && x != 0"),
    lambda: parse_term("ord(x)", Sort.VF),
    lambda: parse_term("x +", Sort.VF),
])
def test_a_bad_text_raises_afresh_on_every_call(monkeypatch, call):
    lexed = []
    lex = parse_module._lex
    monkeypatch.setattr(parse_module, "_lex",
                        lambda src: lexed.append(src) or lex(src))
    seen = []
    for _ in range(3):
        with pytest.raises((ParseError, SortError)) as info:
            call()
        e = info.value
        seen.append((type(e), str(e), e.line, e.column))
    assert seen[0] == seen[1] == seen[2]
    assert len(lexed) == 3


def test_the_memo_is_bounded():
    memo = parse_module._syntax
    assert memo.cache_info().maxsize == parse_module.MEMO_SIZE
    texts = ["vf x; ord(x) >= %d" % i
             for i in range(parse_module.MEMO_SIZE + 1)]
    first = parse(texts[0])
    for text in texts[1:]:
        parse(text)
    assert memo.cache_info().currsize == parse_module.MEMO_SIZE
    # the least recently used entry went, and parses again to an equal tree
    again = parse(texts[0])
    assert again == first and again is not first


def test_a_formula_is_immutable():
    phi = parse("vf x; ord(x) >= 0")
    for name in ("expr", "free", "other"):
        with pytest.raises(AttributeError):
            setattr(phi, name, None)
    with pytest.raises(AttributeError):
        del phi.expr
    assert phi == parse("vf x; ord(x) >= 0")


def test_equal_trees_parsed_apart_hash_equal():
    a = parse("vf x; ord(x^2 - t) >= 1 && ac(x) != 0")
    b = parse("vf x;  ord(x^2 - t) >= 1 && ac(x) != 0")   # another key
    assert a.expr is not b.expr
    assert a.expr == b.expr and hash(a.expr) == hash(b.expr)
    assert a == b and hash(a) == hash(b)
    built = VfSub(VfPow(VfVar("x"), 2), VfUnif())
    assert hash(built) == hash(a.expr.left.right.operand)
    # the kept hash is not pickled: string hashes are salted per process
    copy = pickle.loads(pickle.dumps(a.expr))
    assert "_hash" in vars(a.expr) and "_hash" not in vars(copy)
    assert copy == a.expr and hash(copy) == hash(a.expr)


def test_a_repeated_compare_lexes_nothing(monkeypatch, run_cli, fx):
    """A second identical compare reads every formula and term from the
    memo, and the named center root(x, eta2), which is not a term, is
    not lexed again either."""
    argv = ("compare", fx("cube.cells.json"), "--primes", "5")
    first = run_cli(*argv)
    lexed = []
    lex = parse_module._lex
    monkeypatch.setattr(parse_module, "_lex",
                        lambda src: lexed.append(src) or lex(src))
    assert run_cli(*argv) == first
    assert first[0] == 0
    assert lexed == []


# --- printing ---

ROUND_TRIP_CORPUS = [
    "vf x; ord(x) == 0 && exists u:rf. u^3 == ac(x)",
    "vf a,b,c,d; a*d - b*c == 1 && exists e:rf. "
    "e != 0 && ac(d)^2 - ac(b)^2 * H == e^2",
    "vf x; ord(x) <= 3 || !(ord(x) == 0) && x == t*t",
    "zz n,m; 2*n - m <= 4 && n == 1 mod 3",
    "vf x,y; forall w:rf. w == 0 || exists v:rf. v*v == w*ac(x*y)",
    "vf x; ord(x - 3) == 2 mod 2 && ord(x) < inf",
    "rf u; (u == 0 || u != 1) && !(u^2 == 2)",
    "vf x; exists n:rf. n != 0 && ac(x) == n^2 && ord(x) <= 5",
    "vf x; -3*x == t - 1",
    "zz n; -n <= -2 && 1 - n == 0 mod 2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_print_round_trip(text):
    phi = parse(text)
    assert parse(pretty_print(phi)) == phi


# --- interpretation over complete fields ---

Q7 = lf.qp(7, 12)
F_ORD = parse("vf x; ord(x) == 2")


def test_ord_atoms():
    assert interpret(F_ORD, Q7, {"x": 98}) is T
    assert interpret(F_ORD, Q7, {"x": 7}) is FL
    assert interpret(F_ORD, Q7, {"x": 0}) is FL  # ord(0) = inf


def test_residue_quantifier():
    f_cbrt = parse("exists u:rf. u^3 == 1 && u != 1")
    assert interpret(f_cbrt, lf.qp(7, 6), {}) is T
    assert interpret(f_cbrt, lf.qp(5, 6), {}) is FL


def test_undecided_on_blurred_input():
    f_zero = parse("vf x; x == 0")
    blur = lf.from_digits(Q7, 12, ())
    assert interpret(f_zero, Q7, {"x": blur}) is U
    assert interpret(f_zero, Q7, {"x": 0}) is T
    assert interpret(f_zero, Q7, {"x": 49}) is FL


def test_uniformizer_constant():
    f_t = parse("ord(t) == 1")
    for spec in (lf.qp(2, 8), lf.qp(13, 8), lf.fpt(3, 8), lf.fpt(11, 8)):
        assert interpret(f_t, spec, {}) is T


def test_infinity_literal():
    assert interpret(parse("vf x; ord(x) == inf"), Q7, {"x": 0}) is T
    assert interpret(parse("vf x; ord(x) == inf"), Q7, {"x": 3}) is FL
    assert interpret(parse("vf x; ord(x) < inf"), Q7, {"x": 3}) is T


def test_kleene_absorption():
    # undecided && false = false
    f_mix = parse("vf x; x == 0 && 1 == 2")
    blur = lf.from_digits(Q7, 12, ())
    assert interpret(f_mix, Q7, {"x": blur}) is FL


def test_value_group_quantifier_refused():
    # congruences say what a value-group quantifier would, so the parser
    # refuses one, with a message that shows the congruence
    with pytest.raises(UnsupportedFeature) as raised:
        parse("vf x; exists n:zz. 0 <= n && n <= 4 && ord(x) == 2*n")
    assert str(raised.value) == _VALUE_GROUP
    f_even = parse("vf x; ord(x) == 0 mod 2 && ord(x) <= 8")
    assert interpret(f_even, Q7, {"x": 49}) is T
    assert interpret(f_even, Q7, {"x": 7 ** 3}) is FL
    f_open = parse("vf x; ord(x) == 0 mod 2")
    assert interpret(f_open, Q7, {"x": 49}) is T
    assert interpret(f_open, Q7, {"x": 7}) is FL


def test_congruence_with_indeterminate_ord():
    f_cong = parse("vf x; ord(x) == 0 mod 2")
    blur = lf.from_digits(Q7, 12, ())
    assert interpret(f_cong, Q7, {"x": blur}) is U
    assert interpret(f_cong, Q7, {"x": 49}) is T
    assert interpret(f_cong, Q7, {"x": 7}) is FL


def test_decisions_stable_under_refinement():
    f_cbrt = parse("exists u:rf. u^3 == 1 && u != 1")
    for prec in (6, 12):
        spec = lf.qp(7, prec)
        assert interpret(F_ORD, spec, {"x": 98}) is T
        assert interpret(f_cbrt, spec, {}) is T


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        interpret(F_ORD, Q7, {})


def test_vf_quantifier_refused():
    # cell decomposition eliminates field quantifiers, so the parser
    # refuses one and no witness is searched
    with pytest.raises(UnsupportedFeature) as raised:
        parse("vf x; exists w:vf. w*w == x")
    assert str(raised.value) == _FIELD


def test_equal_characteristic_values():
    f3 = lf.fpt(3, 10)
    x = f3.uniformizer() * f3.uniformizer()
    assert interpret(F_ORD, f3, {"x": x}) is T


# --- residue point counting ---

def test_count_cube_roots():
    assert count_rf_points("u^3 == 1", 7) == 3
    assert count_rf_points("u^3 == 1", 5) == 1


def test_count_units():
    for q in (3, 11, 17):
        assert count_rf_points("u != 0", q) == q - 1


def test_count_with_quantifier():
    assert count_rf_points("exists w:rf. w^2 == u && u != 0", 11) == 5


def test_count_circle():
    assert count_rf_points("u*u + v*v == 1", 7) == 8


def test_count_degenerate_formulas():
    assert count_rf_points("1 == 0", 5) == 0
    assert count_rf_points("0 == 0", 5) == 1


def test_count_rejects_nonprime():
    with pytest.raises(InvalidPrime, match="prime"):
        count_rf_points("u == 0", 10)


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_rf_points("u == 0 && v == 0 && w == 0 && x == 0", 1009)


def test_count_budget_environment_variable(monkeypatch):
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "24")
    with pytest.raises(BudgetExceeded, match="q\\^2 evaluations at q = 5 "
                                             "exceed the budget of 24"):
        count_rf_points("u == 0 && v == 0", 5)
    assert count_rf_points("u == 0 && v == 0", 5, budget=25) == 1


def test_each_counter_has_a_file_name_of_its_own():
    # profiles key functions by file name and line
    a, b = parse("rf u; u^2 == 2"), parse("rf u; u^3 == 2")
    names = set()
    for phi in (a, b):
        counter = _compile(phi.expr, phi.free, ())
        counter.count(5)  # the code is generated on the first call
        names.add(counter.count.__code__.co_filename)
    assert names == {"<count_rf_points:u^2 == 2>",
                     "<count_rf_points:u^3 == 2>"}


def test_exists_agrees_with_count():
    phi = parse("exists u:rf. u^3 == 1 && u != 1")
    for q in (5, 7, 13):
        cnt = count_rf_points("u^3 == 1 && u != 1", q)
        truth = interpret(phi, lf.qp(q, 6), {})
        assert (truth is T) == (cnt >= 1)


def test_count_eliminates_linear_variables():
    # the coefficient of x vanishes mod 7, so y alone must solve it
    assert count_rf_points("7*x + y == 1", 7) == 7
    assert count_rf_points("7*x + y == 1 && x != 2", 7) == 6
    # x = (1 - y)/2 is tested against the other conjunct
    assert count_rf_points("2*x + y == 1 && x^3 == y + 2", 11) == 2
    assert count_rf_points("2*x + y == 1 && x^3 != y + 2", 11) == 9
    assert count_rf_points("x - x == 1", 5) == 0


def test_count_unused_free_variables_multiply_by_q():
    assert count_rf_points("rf u, w; u^3 == 1", 7) == 3 * 7
    assert count_rf_points("rf w; 0 == 0", 5) == 5


# per-eta counts q(q-1)(q+1)/2 and their sum over the (q-1)/2 non-squares,
# recorded from the flat enumeration
APPENDIX2_COUNTS = {5: (60, 120), 7: (168, 504), 11: (660, 3300),
                    13: (1092, 6552)}


@pytest.mark.parametrize("variant", ["b2_minus_d2", "d2_minus_b2"])
@pytest.mark.parametrize("q", sorted(APPENDIX2_COUNTS))
def test_appendix2_counts_are_pinned(q, variant):
    per_eta, summed = APPENDIX2_COUNTS[q]
    for eta in range(1, q):
        if pow(eta, (q - 1) // 2, q) == q - 1:
            assert appendix2_volume("per_eta", q, eta, variant) * q ** 3 \
                == per_eta
    assert appendix2_volume("summed_over_nonsquares", q,
                            variant=variant) * q ** 3 == summed


@pytest.mark.parametrize("text, q, budget", [
    ("u == 0", 10, 10 ** 8),
    ("u == 0", 1, 10 ** 8),
    ("u == 0 && v == 0", 5, 24),
    ("u == 0 && exists s:rf. s == u", 5, 24),
    ("vf x; ac(x) == 1", 5, 10 ** 8),
    ("rf u; u == 0 && ac(t) == u", 5, 10 ** 8),
    ("rf u; u == 0 && 1 <= 2", 5, 10 ** 8),
    ("rf u; u == 0 && exists n:zz. n == 0", 5, 10 ** 8),
    ("rf u; u == 0 && exists n:zz. n == 0", 5, 1),
])
def test_count_errors_match_the_reference(text, q, budget):
    with pytest.raises(Exception) as want:
        count_reference.count_rf_points(text, q, budget)
    with pytest.raises(Exception) as got:
        count_rf_points(text, q, budget)
    assert got.type is want.type


_VARS = ("x", "y", "z")


@st.composite
def rf_terms(draw, q, scope, depth):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return RfVar(draw(st.sampled_from(scope)))
        return RfConst(draw(st.one_of(
            st.integers(-12, 12), st.integers(-3, 3).map(lambda k: k * q))))
    kind = draw(st.sampled_from(["add", "sub", "mul", "neg", "pow"]))
    a = draw(rf_terms(q, scope, depth - 1))
    if kind == "neg":
        return RfNeg(a)
    if kind == "pow":
        return RfPow(a, draw(st.integers(0, 4)))
    b = draw(rf_terms(q, scope, depth - 1))
    return {"add": RfAdd, "sub": RfSub, "mul": RfMul}[kind](a, b)


@st.composite
def rf_formulas(draw, q, scope, depth):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["eq", "ne", "linear"]))
        if kind == "linear":
            # c*x + rest == rhs, with c often a multiple of q
            c = draw(st.sampled_from([1, -1, 2, q, -q, 2 * q + 1]))
            lhs = RfAdd(RfMul(RfConst(c), RfVar(draw(st.sampled_from(scope)))),
                        draw(rf_terms(q, scope, 1)))
            return RfEq(lhs, draw(rf_terms(q, scope, 1)))
        cls = RfEq if kind == "eq" else RfNe
        return cls(draw(rf_terms(q, scope, 2)), draw(rf_terms(q, scope, 2)))
    kind = draw(st.sampled_from(["and", "or", "not", "exists"]))
    if kind == "not":
        return Not(draw(rf_formulas(q, scope, depth - 1)))
    if kind == "exists":
        var = "e%d" % depth  # depth-indexed so nested quantifiers never shadow
        return Exists(var, draw(rf_formulas(q, scope + (var,), depth - 1)))
    a = draw(rf_formulas(q, scope, depth - 1))
    b = draw(rf_formulas(q, scope, depth - 1))
    return (And if kind == "and" else Or)(a, b)


@st.composite
def countable_formulas(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    conjuncts = draw(st.lists(rf_formulas(q, _VARS, 2), min_size=1,
                              max_size=3))
    expr = conjuncts[0]
    for c in conjuncts[1:]:
        expr = And(expr, c)
    free = Formula(expr).free
    if draw(st.booleans()):
        free += (("w", Sort.RF),)  # declared, used by no conjunct
    return Formula(expr, free), q


@settings(max_examples=300, deadline=None)
@given(case=countable_formulas())
def test_count_matches_the_flat_enumeration(case):
    """The planned counter returns the reference's integer, or raises the
    same error, on random residue formulas."""
    phi, q = case
    budget = 20000
    try:
        want = count_reference.count_rf_points(phi, q, budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            count_rf_points(phi, q, budget)
        return
    assert count_rf_points(phi, q, budget) == want


@st.composite
def image_quantifiers(draw, q, outer, var, depth):
    """exists var. A == B(var) && C(var)..., the shape the counter decides
    by an image set (A over outer, B and each C over var alone, in either
    orientation and any order), or a near miss that must keep the scan:
    A also mentions var, a C mentions an outer variable, or the body is
    an Or.  With depth > 0 a C may be such a quantifier itself, over the
    variable var."""
    a = draw(rf_terms(q, outer, 2))
    miss = draw(st.sampled_from([None, None, "a", "c", "or"]))
    if miss == "a":
        a = RfAdd(a, RfVar(var))
    b = draw(rf_terms(q, (var,), 2))
    parts = [RfEq(a, b) if draw(st.booleans()) else RfEq(b, a)]
    parts += draw(st.lists(rf_formulas(q, (var,), 0), max_size=2))
    if miss == "c":
        parts.append(draw(rf_formulas(q, (var, draw(st.sampled_from(outer))),
                                      0)))
    if depth and draw(st.booleans()):
        parts.append(draw(image_quantifiers(q, (var,), "r%d" % depth,
                                            depth - 1)))
    parts = draw(st.permutations(parts))
    body = parts[0]
    for c in parts[1:]:
        body = (Or if miss == "or" else And)(body, c)
    quantifier = Exists(var, body)
    return Not(quantifier) if draw(st.booleans()) else quantifier


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_image_sets_match_the_flat_enumeration(data):
    """Quantifiers the planner decides by image sets, and near misses it
    scans, count exactly what the reference counts."""
    q = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    expr = data.draw(image_quantifiers(q, ("x", "y"), "s", 1))
    if data.draw(st.booleans()):
        expr = And(data.draw(rf_formulas(q, ("x", "y"), 0)), expr)
    budget = 20000
    try:
        want = count_reference.count_rf_points(expr, q, budget)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            count_rf_points(expr, q, budget)
        return
    assert count_rf_points(expr, q, budget) == want


def _plan(phi):
    return _Plan(phi.expr, tuple(sorted(dict(phi.free)))).source()


def _appendix2_plan(monkeypatch, eta_mode, variant):
    """The plan source of the formula appendix2_volume counts at q = 7."""
    seen = []
    monkeypatch.setattr(motivic, "count_rf_points",
                        lambda phi, q, budget, values: seen.append(
                            (phi, values)) or 0)
    appendix2_volume(eta_mode, 7, variant=variant)
    ((phi, values),) = seen
    params = tuple(sorted(n for n, _ in phi.free if n in values))
    names = tuple(sorted(n for n, _ in phi.free if n not in values))
    return _Plan(phi.expr, names, params).source()


@pytest.mark.parametrize("variant", ["b2_minus_d2", "d2_minus_b2"])
def test_appendix2_plans_scan_no_witnesses(monkeypatch, variant):
    assert "any(" not in _appendix2_plan(monkeypatch, "per_eta", variant)
    summed = _appendix2_plan(monkeypatch, "summed_over_nonsquares", variant)
    assert "any(" not in summed
    squares = re.findall(
        r"^ +(S\d+) = \{\(s \* s\) % q for s in range\(q\)\}$", summed, re.M)
    assert len(squares) == 1
    if variant == "b2_minus_d2":
        # h == r^2 and b^2 - d^2*h == s^2 test the one set of squares
        assert summed.count(" in %s)" % squares[0]) == 2


@pytest.mark.parametrize("text, count", [
    ("rf x; exists s:rf. x*s == 1", 6),         # B mentions x
    ("rf x; exists s:rf. x + s == s^2", 4),     # A mentions s
    ("rf x; exists s:rf. s == 1 && x*s == 2", 1),
    ("rf x; exists s:rf. x == s^2 || s == 3", 7),
])
def test_near_misses_keep_the_scan(text, count):
    phi = parse(text, default_sort=Sort.RF)
    assert "any(" in _plan(phi)
    assert count_rf_points(phi, 7) == count


# --- residue parameters ---

@st.composite
def parameter_classes(draw):
    """(class, q, values): a residue class over x and y whose one or two
    parameters stand alone in a conjunct, in a linear equation in x that
    the plan eliminates, and inside a quantifier decided by an image
    set, or scanned under one that rebinds a parameter's name, in any
    order, with values that may be negative or multiples of q."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    params = ("a", "b")[:draw(st.integers(1, 2))]
    parts = [draw(rf_formulas(q, params, 0))]
    c = draw(st.sampled_from([1, -1, 2, q + 1]))
    parts.append(RfEq(
        RfAdd(RfMul(RfConst(c), RfVar("x")), draw(rf_terms(q, params, 1))),
        draw(rf_terms(q, ("y",) + params, 1))))
    power = RfPow(RfVar("w"), draw(st.integers(2, 3)))
    image = RfEq(draw(rf_terms(q, ("y",) + params, 1)),
                 RfMul(draw(rf_terms(q, params, 1)), power))
    quantifier = Exists("w", image)
    if draw(st.booleans()):
        # a quantifier that rebinds a parameter's name hides the parameter
        quantifier = Exists(params[0], quantifier)
    parts.append(quantifier)
    parts = draw(st.permutations(parts))
    expr = parts[0]
    for part in parts[1:]:
        expr = And(expr, part)
    values = {n: draw(st.one_of(st.integers(-30, 30),
                                st.integers(-3, 3).map(lambda k: k * q)))
              for n in params}
    return expr, q, values


@settings(max_examples=300, deadline=None)
@given(case=parameter_classes())
def test_parameters_count_as_the_substituted_constants(case):
    """A parameter bound to v counts exactly what the reference counts
    with the constant v mod q written in its place."""
    expr, q, values = case
    budget = q ** 4
    for shift in (0, 1):
        moved = {n: v + shift for n, v in values.items()}
        fixed = count_reference.substitute(
            expr, {n: RfConst(v % q) for n, v in moved.items()})
        want = count_reference.count_rf_points(fixed, q, budget)
        hits = _compile.cache_info().hits
        assert count_rf_points(expr, q, budget, values=moved) == want
    # the counter made for the first values served the second
    assert _compile.cache_info().hits == hits + 1


def test_parameters_are_bound_before_any_loop():
    phi = parse("rf x, y, a; (exists w:rf. w^3 == a) && a*x + y == 1 "
                "&& (exists s:rf. y == a*s^2)", default_sort=Sort.RF)
    source = _Plan(phi.expr, ("x", "y"), ("a",)).source()
    assert source.startswith("def count(q, g0):\n    n = 0\n    g0 %= q\n")
    # the first quantifier is decided outside every loop, the second by
    # an image set whose source holds the parameter, and x is eliminated
    assert "any(" not in source and "for v0" not in source
    assert "S0 = {pow(s, 3, q) % q for s in range(q)}" in source
    assert "S1 = {(g0 * (s * s)) % q for s in range(q)}" in source
    assert "f0 = (((g0 * 0) + v1) - 1)" in source
    for q in (5, 7, 13):
        for a in (-q, -1, 0, 1, 2, q + 1):
            fixed = count_reference.substitute(phi.expr, {"a": RfConst(a % q)})
            assert count_rf_points(phi, q, values={"a": a}) == \
                count_reference.count_rf_points(fixed, q)


def test_a_quantifier_that_rebinds_a_parameter_hides_it():
    # the inner quantifier reads the quantified acx, not the parameter:
    # over F_q every y is acx * s^2 for some acx and s.  The parser
    # refuses this shadowing, so the tree is built by hand
    image = RfEq(RfVar("y"), RfMul(RfVar("acx"), RfPow(RfVar("s"), 2)))
    phi = And(Exists("acx", Exists("s", image)),
              RfNe(RfVar("acx"), RfConst(0)))
    for q in (5, 7, 11):
        assert count_rf_points(phi, q, values={"acx": 2}) == q


def test_parameter_values_are_checked_and_extra_names_ignored():
    phi = parse("rf u, a; u^2 == a", default_sort=Sort.RF)
    assert count_rf_points(phi, 7, values={"a": 2, "unused": 1.5}) == 2
    with pytest.raises(InvalidArgument, match="a"):
        count_rf_points(phi, 7, values={"a": 2.0})


def test_the_budget_is_nominal_and_checked_before_translation():
    # the parameter is not enumerated: q^1, not q^2
    phi = parse("rf u, a; u == a", default_sort=Sort.RF)
    assert count_rf_points(phi, 5, budget=5, values={"a": 3}) == 1
    with pytest.raises(BudgetExceeded):
        count_rf_points(phi, 7, budget=5, values={"a": 3})
    # 1 <= 2 cannot be translated, and the budget stops it first, also
    # once its counter is kept
    text = "rf u; u == 0 && 1 <= 2"
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            count_rf_points(text, 5, budget=1)
    with pytest.raises(UnsupportedFeature, match="ZzLe"):
        count_rf_points(text, 5)


def test_a_warm_count_walks_no_tree(monkeypatch, fx):
    """A second specialize of the cube result, at another prime, reads
    every counter, and every free-variable tuple, from what is kept."""
    data = motivic.load_cells(fx("cube.cells.json"))
    res = motivic.integrate_cell_data(data)
    assignment = {"acx": 1, "k": 1}
    motivic.specialize(res, 7, assignment)
    calls = []
    nodes = importlib.import_module("dpcalc.formula.nodes")
    children = nodes.children
    for module in list(sys.modules.values()):
        if getattr(module, "children", None) is children:
            monkeypatch.setattr(module, "children",
                                lambda n: calls.append(n) or children(n))
    got = motivic.specialize(res, 13, assignment)
    assert calls == []
    assert got == motivic.specialize(res, 13, {"acx": 14, "k": 1})


# --- kept free variables ---

def _free_reference(node, bound=frozenset(), out=None):
    """The free variables of node by a walk of the whole tree, in
    first-occurrence order."""
    out = {} if out is None else out
    sorts = {VfVar: Sort.VF, RfVar: Sort.RF, ZzVar: Sort.ZZ}
    if type(node) in sorts:
        if node.name not in bound:
            out.setdefault(node.name, sorts[type(node)])
    elif isinstance(node, Exists):
        _free_reference(node.body, bound | {node.var}, out)
    else:
        for c in children(node):
            _free_reference(c, bound, out)
    return out


@st.composite
def shadowing_trees(draw, depth=3):
    """Residue formulas whose quantifiers bind names that also occur
    free, with field and value-group variables under ac and ord."""
    names = st.sampled_from(["x", "y", "w"])
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["rf", "ac", "ord", "const"]))
        if kind == "ac":
            left = RfAc(VfVar(draw(st.sampled_from(["z", "v"]))))
        elif kind == "ord":
            return ZzLe(ZzVar("n"), ZzOrd(VfVar(draw(st.sampled_from(
                ["z", "v"])))))
        elif kind == "const":
            left = RfConst(draw(st.integers(0, 3)))
        else:
            left = RfVar(draw(names))
        return RfEq(left, RfVar(draw(names)))
    kind = draw(st.sampled_from(["and", "or", "not", "exists"]))
    if kind == "not":
        return Not(draw(shadowing_trees(depth - 1)))
    if kind == "exists":
        return Exists(draw(names), draw(shadowing_trees(depth - 1)))
    return (And if kind == "and" else Or)(draw(shadowing_trees(depth - 1)),
                                          draw(shadowing_trees(depth - 1)))


@settings(max_examples=300, deadline=None)
@given(tree=shadowing_trees())
def test_kept_free_variables_match_a_walk_of_the_tree(tree):
    want = list(_free_reference(tree).items())
    assert list(free_vars(tree).items()) == want
    assert Formula(tree).free == tuple(want)
    # asked again, and of a copy that was pickled without them
    assert list(free_vars(tree).items()) == want
    copy = pickle.loads(pickle.dumps(tree))
    assert "_free" not in vars(copy)
    assert list(free_vars(copy).items()) == want


def test_an_exists_drops_only_its_own_variable():
    inner = RfEq(RfVar("u"), RfVar("s"))
    tree = And(RfEq(RfVar("s"), RfConst(1)), Exists("s", inner))
    assert free_vars(inner) == {"u": Sort.RF, "s": Sort.RF}
    assert list(free_vars(tree)) == ["s", "u"]
    assert free_vars(tree.right) == {"u": Sort.RF}


# --- excluded primes ---

def test_bad_primes_from_coefficients():
    assert set(bad_primes(parse("vf x; 3*x == 0"))) == {3}
    assert bad_primes(parse("vf x; x == 0")) == {}
    assert set(bad_primes(parse("vf x; 6*x == 1"))) == {2, 3}


# --- property tests ---

@st.composite
def zz_expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return "%d*n <= %d" % (draw(st.integers(1, 3)),
                                   draw(st.integers(-4, 4)))
        if kind == 1:
            return "%d*n - %d*m <= %d" % (draw(st.integers(1, 3)),
                                          draw(st.integers(1, 3)),
                                          draw(st.integers(-4, 4)))
        if kind == 2:
            d = draw(st.integers(2, 5))
            return "n == %d mod %d" % (draw(st.integers(0, d - 1)), d)
        return "m <= %d" % draw(st.integers(-4, 4))
    a = draw(zz_expressions(depth=depth - 1))
    b = draw(zz_expressions(depth=depth - 1))
    op = draw(st.sampled_from(["&&", "||", "not", "exists"]))
    if op == "not":
        return "!(%s)" % a
    if op == "exists":
        j = "j%d" % depth  # depth-indexed so nested quantifiers never shadow
        return "exists %s:rf. %s != 0 && (%s)" % (j, j, a)
    return "(%s) %s (%s)" % (a, op, b)


@given(expr=zz_expressions())
def test_round_trip_property(expr):
    phi = parse("zz n, m; " + expr)
    assert parse(pretty_print(phi)) == phi


_TEXT_NAMES = {"vf": ["x", "y", "z"], "rf": ["u", "s", "w"],
               "zz": ["n", "m", "k"]}


@st.composite
def formula_texts(draw, depth=3):
    """Texts over a few names of each sort, with quantifiers of every sort
    that may shadow a name or take one of another sort's: some parse and
    some raise."""
    def name(sort):
        return draw(st.sampled_from(_TEXT_NAMES[sort]))
    if depth == 0 or draw(st.booleans()):
        atom = draw(st.sampled_from([
            "ord({vf}) <= {zz}", "ac({vf}) == {rf}^2", "{vf}*{vf} == t - 1",
            "{rf} != 2", "{zz} == 1 mod 3", "ord({vf}) == 2*{zz}",
            "-{rf} + {rf} == 0"]))
        return atom.format(vf=name("vf"), rf=name("rf"), zz=name("zz"))
    op = draw(st.sampled_from(["&&", "||", "!", "exists", "forall"]))
    a = draw(formula_texts(depth - 1))
    if op == "!":
        return "!(%s)" % a
    if op in ("exists", "forall"):
        sort = draw(st.sampled_from(["rf", "rf", "rf", "vf", "zz"]))
        return "%s %s:%s. %s" % (op, name(draw(st.sampled_from(
            [sort, sort, sort, "rf"]))), sort, a)
    return "(%s) %s (%s)" % (a, op, draw(formula_texts(depth - 1)))


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["", "vf x; ", "vf x; rf u, s; ", "zz n; "]),
       body=formula_texts())
def test_whatever_parses_prints_back(header, body):
    try:
        phi = parse(header + body)
    except (ParseError, UnsupportedFeature):
        return
    assert parse(pretty_print(phi)) == phi


MONOTONE_CORPUS = [
    parse("vf x; ord(x) >= 2"),
    parse("vf x; ord(x) == 0 mod 2"),
    parse("vf x; x == 0"),
    parse("vf x; ord(x) == 3 || ord(x) <= 1"),
    parse("vf x; !(ord(x) == 2) && ord(x) <= 5"),
    parse("vf x; ac(x) == 3"),
]


@given(idx=st.integers(0, len(MONOTONE_CORPUS) - 1),
       val=st.integers(-2, 4),
       digits=st.lists(st.integers(0, 6), max_size=6),
       keep=st.integers(0, 6))
def test_decisions_monotone_in_information(idx, val, digits, keep):
    """A verdict reached from a digit window never flips when the window
    is extended."""
    phi = MONOTONE_CORPUS[idx]
    spec = lf.qp(7, 8)
    less = lf.from_digits(spec, val, digits[:min(keep, len(digits))])
    more = lf.from_digits(spec, val, digits)
    coarse = interpret(phi, spec, {"x": less})
    fine = interpret(phi, spec, {"x": more})
    if coarse is not U:
        assert fine is coarse


# --- the value group's infinite ends ---

_ENDS = [NINF] + list(range(-3, 4)) + [lf.INF]


@st.composite
def zz_intervals(draw):
    lo = draw(st.integers(0, len(_ENDS) - 1))
    return (_ENDS[lo], _ENDS[draw(st.integers(lo, len(_ENDS) - 1))])


def _well_formed(A):
    """Each end an integer or an infinity, never nan."""
    return all(isinstance(v, int) or v in (lf.INF, NINF) for v in A)


@settings(max_examples=500, deadline=None)
@given(A=zz_intervals(), B=zz_intervals(), k=st.integers(-2, 2),
       modulus=st.integers(1, 3))
def test_value_group_intervals_follow_the_reference(A, B, k, modulus):
    """Sums, negations, multiples and the four atoms over intervals with
    +-inf ends give what the case-by-case rules give."""
    for got, want in ((_zi_add(A, B), zz_reference.zi_add(A, B)),
                      (_zi_neg(A), zz_reference.zi_neg(A)),
                      (_zi_scale(k, A), zz_reference.zi_scale(k, A))):
        assert _well_formed(got)
        assert got == want
    for mine, theirs in ((zz_le, zz_reference.zz_le),
                         (zz_lt, zz_reference.zz_lt),
                         (zz_eq, zz_reference.zz_eq)):
        assert mine(A, B) is theirs(A, B)
    assert zz_cong(A, B, modulus) is zz_reference.zz_cong(A, B, modulus)


def test_infinite_points_meet_by_the_rules():
    INF = lf.INF
    # +inf plus -inf is any value at all
    assert _zi_add((INF, INF), (NINF, NINF)) == (NINF, INF)
    assert _zi_add((NINF, NINF), (INF, INF)) == (NINF, INF)
    # an infinite point absorbs an interval open at the other end
    assert _zi_add((INF, INF), (NINF, 5)) == (INF, INF)
    assert _zi_add((NINF, NINF), (3, INF)) == (NINF, NINF)
    assert _zi_scale(0, (INF, INF)) == (0, 0)
