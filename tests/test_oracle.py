"""The point-counting oracle: exact interval brackets for volumes and
integrals over the valuation ring."""

import collections
import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import dpcalc.boxcode as boxcode
import dpcalc.localfield as lf
import dpcalc.oracle as oracle_module
import oracle_reference as reference
from dpcalc.boxcode import (_derivative, _field_ops, closed_parts,
                            compile_walk)
from dpcalc.errors import (BadPrime, BudgetExceeded, UnboundVariable,
                           UnsupportedFeature)
from dpcalc.formula import (And, Exists, Formula, Not, Or, RfAc, RfAdd,
                            RfConst, RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub,
                            RfVar, Sort, Truth3, VfAdd, VfConst, VfEq, VfMul,
                            VfNeg, VfPow, VfSub, VfUnif, VfVar, ZzAdd,
                            ZzCong, ZzConst, ZzEq, ZzInf, ZzLe, ZzLt, ZzNeg,
                            ZzOrd, ZzScale, ZzSub, ZzVar, eval_vf_term,
                            interpret, parse, parse_term)
from dpcalc.formula.interpret import _Evaluator
from dpcalc.oracle import (IntegrandSpec, fraction_str, integrate,
                           serre_oesterle_count, volume)
from dpcalc.symring import SymA
from oracle_reference import jacobian_check, overlaps

Q5 = lf.qp(5, 6)


# --- volumes ---

def test_ball_volume():
    v = volume("ord(x) >= n", Q5, assignment={"n": 2})
    assert v.lower == v.upper == F(1, 25)
    assert v.precision_used == 6
    assert v.boxes_total == 5 ** 6
    assert v.boxes_true == 5 ** 4
    assert v.boxes_undecided == 0
    assert v.undecided_mass == 0


def test_full_ring():
    v = volume("x == x", Q5)
    assert v.lower == v.upper == 1
    assert v.boxes_true == 5 ** 6


def test_annulus():
    v = volume("ord(x) == 1", Q5)
    assert v.lower == v.upper == F(1, 5) - F(1, 25)


def test_undecided_tail():
    # the set needs more digits than the working precision provides
    v = volume("ord(x) >= 7", Q5)
    assert v.lower == 0
    assert v.upper == F(1, 5 ** 6)
    assert v.boxes_undecided == 1
    assert v.undecided_mass == F(1, 5 ** 6)


def test_vf_quantifier_refused():
    # cell decomposition eliminates field quantifiers, so no walk searches
    # one: every x != 0 has an inverse, which no search over O finds
    phi = "vf x; exists y:vf. x*y == 1"
    for spec in (Q5, lf.fpt(5, 6)):
        with pytest.raises(UnsupportedFeature):
            volume(phi, spec)
        with pytest.raises(UnsupportedFeature):
            integrate(IntegrandSpec.abs_power("x"), phi, spec)


def test_residue_parameters_must_be_bound():
    with pytest.raises(UnboundVariable):
        volume("ac(x) == u", Q5)


def test_refinement_nesting():
    phi = "vf x; ord(x) == 0 mod 2"
    v3 = volume(phi, lf.qp(3, 3))
    v4 = volume(phi, lf.qp(3, 4))
    assert v3.lower <= v4.lower <= v4.upper <= v3.upper


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_value_group_quantifier_refused(make, monkeypatch):
    """A value-group quantifier is refused as `parse` refuses it; its
    congruence spelling is swept without `interpret`, which leaves only
    the boxes at full depth open (the true value is 5/6)."""
    spec = make(5, 4)
    phi = "vf x; exists m:zz. ord(x) == 2*m && m >= 0"
    with pytest.raises(UnsupportedFeature):
        volume(phi, spec)
    with pytest.raises(UnsupportedFeature):
        integrate(IntegrandSpec.abs_power("x"), phi, spec)
    calls = []
    truth = _Evaluator.truth
    monkeypatch.setattr(_Evaluator, "truth",
                        lambda self, n, env: calls.append(n)
                        or truth(self, n, env))
    iv = volume("vf x; ord(x) == 0 mod 2", spec)
    assert (iv.lower, iv.upper) == (F(104, 125), F(521, 625))
    assert iv.nodes_visited == 21
    assert calls == []


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_twenty_nested_residue_quantifiers_refused(make):
    """Each residue quantifier is a loop in the sweep, and CPython nests
    at most 20 blocks, one of them a box loop: twenty are refused before
    any code is compiled (interpret would enumerate 2^20 witnesses)."""
    names = ["s%d" % i for i in range(20)]
    phi = "vf x; %s ac(x) == %s" % (
        " ".join("exists %s:rf." % n for n in names), " + ".join(names))
    with pytest.raises(UnsupportedFeature, match="nested 20 deep"):
        volume(phi, make(2, 1))


# --- budget ---

def test_budget_argument():
    with pytest.raises(BudgetExceeded):
        volume("x == x", lf.qp(5, 6), budget=100)


def test_budget_environment_variable():
    os.environ["DPCALC_BOX_BUDGET"] = "100"
    try:
        with pytest.raises(BudgetExceeded):
            volume("x == x", lf.qp(5, 6))
    finally:
        del os.environ["DPCALC_BOX_BUDGET"]


# --- integrals ---

def test_cube_power_integral():
    target = SymA.parse("(1 - L^-1)").div_by_unit(SymA.parse("1 - L^-4")).nu(5)
    iv = integrate(IntegrandSpec.abs_power("y^3"), "ord(y) >= 0", Q5)
    assert iv.contains(target)
    assert iv.width() <= F(1, 5 ** 18)


def test_trivial_integrand_is_volume():
    iv = integrate(IntegrandSpec.one(), "ord(x) >= 2", Q5)
    assert iv.lower == iv.upper == F(1, 25)


def test_level_set_integral():
    # |y^3 - x| over 3 ord(y) = ord(x) at x = 1: exact value 27/56 for q = 7
    q7 = lf.qp(7, 6)
    expected = (SymA.from_int(3)
                * SymA.parse("(1 - L^-1) * L^-2")
                .div_by_unit(SymA.parse("1 - L^-2"))
                + SymA.parse("1 - 4*L^-1")).nu(7)
    assert expected == F(27, 56)
    iv = integrate(IntegrandSpec.abs_power("y^3 - x"),
                   "vf x, y; 3*ord(y) == ord(x)", q7, assignment={"x": 1})
    assert iv.contains(expected)


def test_equal_characteristic_transfer():
    expected = F(27, 56)
    q7 = lf.qp(7, 6)
    f7t = lf.fpt(7, 6)
    spec = IntegrandSpec.abs_power("y^3 - x")
    phi = "vf x, y; 3*ord(y) == ord(x)"
    iv = integrate(spec, phi, q7, assignment={"x": 1})
    iv2 = integrate(spec, phi, f7t, assignment={"x": 1})
    assert iv2.contains(expected)
    assert overlaps(iv, iv2)


# --- stabilized solution counts mod p^N ---

def test_conic_count_stabilizes():
    q5 = lf.qp(5, 3)
    vals = [serre_oesterle_count("x*x + y*y - 1", 1, q5, N) for N in (1, 2, 3)]
    assert vals[0] == vals[1] == vals[2] == F(4, 5)


def test_point_count():
    q5 = lf.qp(5, 3)
    assert [serre_oesterle_count("x", 0, q5, N) for N in (1, 2, 3)] == [1, 1, 1]


def test_a_zero_power_is_integral_in_a_count():
    """A zero power is the exact 1, so a base that is not integral at p
    leaves the polynomial integral, as the walk reads it."""
    q5 = lf.qp(5, 3)
    f = VfMul(VfVar("x"), VfPow(VfAdd(VfVar("x"), VfConst(F(1, 5))), 0))
    assert [serre_oesterle_count([f], 0, q5, N) for N in (1, 2)] == [1, 1]
    with pytest.raises(BadPrime):
        serre_oesterle_count([VfMul(VfVar("x"), VfConst(F(1, 5)))], 0, q5, 1)


def test_nodal_curve_does_not_stabilize():
    q5 = lf.qp(5, 3)
    vals = [serre_oesterle_count("x*y", 1, q5, N) for N in (1, 2, 3)]
    assert len(set(vals)) > 1


def test_polynomial_system():
    assert serre_oesterle_count(["x - y", "x*x - 1"], 0, lf.qp(5, 3), 2) == 2


@pytest.mark.parametrize("system, d", [("x*x + y*y - 1", 1), ("x*y", 1),
                                       (["x - y", "x*x - 1"], 0)])
def test_counts_agree_across_characteristics(system, d):
    for N in (1, 2, 3):
        assert serre_oesterle_count(system, d, lf.fpt(5, 3), N) \
            == serre_oesterle_count(system, d, lf.qp(5, 3), N)


def test_counter_runs_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert serre_oesterle_count("x*x + y*y - 1", 1, lf.qp(5, 3), 2) == F(4, 5)


def test_oracle_loads_no_ring_code():
    # the cross-check holds only while the oracle shares no code with the
    # symbolic engine
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        oracle_module.__file__)))
    code = ("import sys, dpcalc.boxcode, dpcalc.localfield, dpcalc.oracle\n"
            "dpcalc.oracle.volume('ord(x) >= 1', dpcalc.localfield.qp(5, 2))\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dpcalc.boxcode" in loaded
    assert not loaded & {"dpcalc.poly", "dpcalc.symring",
                         "dpcalc.presburger", "dpcalc.motivic"}


def test_each_classifier_has_a_file_name_of_its_own():
    # profiles key functions by file name and line
    names = {compile_walk(parse(text).expr, None, ("x",),
                          lf.FieldKind.CHAR_ZERO).make.__code__.co_filename
             for text in ("ord(x) >= 1", "ord(x) >= 2")}
    assert len(names) == 2
    assert all(n.startswith("<box classifier:") for n in names)


def test_counter_errors():
    q5 = lf.qp(5, 3)
    with pytest.raises(BudgetExceeded, match="residue boxes"):
        serre_oesterle_count("x*y", 1, q5, 2, budget=10)
    with pytest.raises(BadPrime):
        serre_oesterle_count(VfMul(VfConst(F(1, 5)), VfVar("x")), 0, q5, 1)
    with pytest.raises(ValueError):
        serre_oesterle_count([], 0, q5, 1)
    with pytest.raises(UnsupportedFeature):
        serre_oesterle_count("1 + 1", 0, q5, 1)


def _brute_count(system, names, p, N, char_p):
    """#x in (O/ϖ^N)^m on which every polynomial of the system vanishes,
    O/ϖ^N being Z/p^N, or F_p[t]/t^N in characteristic p; a polynomial
    is a list of (coefficient, exponent per name)."""
    if char_p:
        ring = list(itertools.product(range(p), repeat=N))
        zero = (0,) * N

        def const(c):
            return (c.numerator * pow(c.denominator, -1, p) % p,) + zero[1:]

        def add(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        def mul(a, b):
            return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) % p
                         for k in range(N))
    else:
        M = p ** N
        ring = range(M)
        zero = 0

        def const(c):
            return c.numerator * pow(c.denominator, -1, M) % M

        def add(a, b):
            return (a + b) % M

        def mul(a, b):
            return a * b % M
    count = 0
    for x in itertools.product(ring, repeat=len(names)):
        for poly in system:
            acc = zero
            for c, exps in poly:
                term = const(c)
                for xi, e in zip(x, exps):
                    for _ in range(e):
                        term = mul(term, xi)
                acc = add(acc, term)
            if acc != zero:
                break
        else:
            count += 1
    return count


@settings(max_examples=20, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), N=st.integers(1, 2),
       m=st.integers(1, 2), d=st.integers(0, 2), char_p=st.booleans())
def test_counter_matches_brute_force(data, p, N, m, d, char_p):
    """The counter equals a flat count over (O/ϖ^N)^m for random
    polynomials with coefficients integral at p."""
    names = ["x", "y"][:m]
    denominators = [b for b in (1, 2, 3, 7) if b % p]
    coefficient = st.builds(F, st.integers(-6, 6),
                            st.sampled_from(denominators))
    monomial = st.tuples(coefficient,
                         st.tuples(*[st.integers(0, 3)] * m))
    system = data.draw(st.lists(st.lists(monomial, min_size=1, max_size=3),
                                min_size=1, max_size=2))
    terms = []
    for poly in system:
        term = None
        for c, exps in poly:
            mono = VfConst(c)
            for name, e in zip(names, exps):
                mono = VfMul(mono, VfPow(VfVar(name), e))
            term = mono if term is None else VfAdd(term, mono)
        terms.append(term)
    spec = (lf.fpt if char_p else lf.qp)(p, N)
    assert serre_oesterle_count(terms, d, spec, N) \
        == F(_brute_count(system, names, p, N, char_p), p ** (N * d))


# --- change of variables ---

def test_jacobian_scaling():
    q5 = lf.qp(5, 5)
    a, b = jacobian_check(5, "ord(x) >= 0", q5)
    assert a.lower == a.upper == 1
    assert b.lower == b.upper == F(1, 5)

    a, b = jacobian_check(F(2, 3), "ord(x) >= 1", q5)  # unit scale
    assert (a.lower, a.upper) == (b.lower, b.upper)

    a, b = jacobian_check(25, "ord(x) == 1", q5)
    assert b.lower == b.upper == F(1, 25) * (F(1, 5) - F(1, 25))


# --- additivity within interval arithmetic ---

def test_additivity_brackets():
    p1 = "ord(x) >= 1"
    p2 = "ac(x) == u"
    va = volume("(%s) || (%s)" % (p1, p2), Q5, assignment={"u": 2})
    vb = volume("(%s) && (%s)" % (p1, p2), Q5, assignment={"u": 2})
    v1 = volume(p1, Q5)
    v2 = volume(p2, Q5, assignment={"u": 2})
    assert va.lower + vb.lower <= v1.upper + v2.upper
    assert v1.lower + v2.lower <= va.upper + vb.upper


# --- report formatting ---

def test_fraction_str():
    assert fraction_str(F(3)) == "3/1"
    assert fraction_str(F(-4, 6)) == "-2/3"


def test_interval_json():
    v = volume("ord(x) >= 2", Q5)
    d = v.to_json_dict()
    assert d["lower"] == "1/25"
    assert d["upper"] == "1/25"
    assert d["precision"] == 6
    assert d["boxes_undecided"] == 0


def test_interval_scaling():
    v = volume("ord(x) >= 2", Q5)
    w = v.scaled(F(1, 3))
    assert w.lower == w.upper == F(1, 75)


# --- property tests ---

_thresholds = st.integers(0, 4)


@settings(max_examples=25, deadline=None)
@given(c1=_thresholds, c2=_thresholds, u=st.integers(1, 4),
       n=st.integers(2, 4))
def test_refinement_property(c1, c2, u, n):
    """Brackets at higher precision nest inside lower-precision ones."""
    phi = "ord(x) >= %d || (ord(x) == %d && ac(x) == %d)" % (c1, c2, u)
    coarse = volume(phi, lf.qp(3, n))
    fine = volume(phi, lf.qp(3, n + 1))
    assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper


@settings(max_examples=25, deadline=None)
@given(c1=_thresholds, c2=_thresholds, q=st.sampled_from([2, 3, 5]))
def test_volume_additivity_property(c1, c2, q):
    """Disjoint annuli: the union's bracket agrees with the sum."""
    if c1 == c2:
        return
    spec = lf.qp(q, 5)
    v1 = volume("ord(x) == %d" % c1, spec)
    v2 = volume("ord(x) == %d" % c2, spec)
    both = volume("ord(x) == %d || ord(x) == %d" % (c1, c2), spec)
    assert both.lower == v1.lower + v2.lower
    assert both.upper == v1.upper + v2.upper


# --- the compiled sweep against the reference semantics ---

_BOX_NAMES = ["x", "y"]

_leaves = st.one_of(
    st.sampled_from([VfVar("x"), VfVar("y"), VfVar("a"), VfVar("a"),
                     VfUnif()]),
    st.builds(VfConst, st.builds(F, st.integers(-12, 12),
                                 st.sampled_from([1, 1, 2, 3, 4, 5, 25]))))

_terms = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(VfAdd, kids, kids), st.builds(VfSub, kids, kids),
    st.builds(VfMul, kids, kids), st.builds(VfNeg, kids),
    st.builds(VfPow, kids, st.integers(0, 3))), max_leaves=8)


def _monomial(spec, c, k, d=0):
    """The exact element c * pi^k + d; the CLI binds monomials the same
    way."""
    return eval_vf_term(VfAdd(VfMul(VfConst(F(c)), VfPow(VfUnif(), k)),
                              VfConst(F(d))), spec, {})


_FREE = [("x", Sort.VF), ("y", Sort.VF), ("a", Sort.VF), ("r", Sort.RF),
         ("s", Sort.RF), ("n", Sort.ZZ)]


def _sweep(expr, f, spec, assignment, prefixes, truth, free=_FREE):
    """What the walk's compiled sweep makes of the children of one box:
    (TRUE, Hensel and open children, pending children, and the exact,
    open and Hensel counts).  prefixes holds the digits of each box
    variable, of one length; its last digit is the child's, None for all
    p of them, and with no digits the child is the root box."""
    phi = Formula(expr, free)
    integrand = IntegrandSpec.one() if f is None else IntegrandSpec(f, 1)
    walk = oracle_module._BoxWalk(phi, spec, integrand, assignment)
    counts = ({}, {}, {})
    sweep = walk.sweeper(*counts)
    ops = _field_ops(spec)
    level = len(prefixes[0]) - 1
    if level < 0:
        forms, digits = ((-1, 0, None),) * len(prefixes), \
            (range(1),) * len(prefixes)
    else:
        forms = tuple(ops.form(lf.from_digits(spec, 0, tuple(d[:-1])))
                      for d in prefixes)
        digits = tuple(range(spec.prime) if d[-1] is None
                       else range(d[-1], d[-1] + 1) for d in prefixes)
    true, settled, open_, pending = sweep(forms, level, truth, digits)
    return (true, settled, open_, collections.Counter(pending)) + counts


def _child_outcome(expr, f, spec, assignment, prefixes, truth, free=_FREE):
    """The same for one child box by the reference semantics: membership
    by `interpret` unless inherited TRUE, the integrand's valuation
    bounds by `eval_vf_term`, and Hensel's delta from the bounds of its
    formal partial derivatives."""
    names = [n for n, s in free if s is Sort.VF and n not in assignment]
    boxes = {n: lf.from_digits(spec, 0, tuple(d))
             for n, d in zip(names, prefixes)}
    env = {**assignment, **boxes}
    level, depth, m = len(prefixes[0]), spec.precision, len(names)
    forms = tuple(_field_ops(spec).form(boxes[n]) for n in names)
    if truth is not Truth3.TRUE:
        truth = interpret(Formula(expr, free), spec, env)
    if truth is Truth3.FALSE:
        return 0, 0, 0, [], {}, {}, {}
    if truth is Truth3.UNDECIDED and level < depth:
        return 0, 0, 0, [(forms, truth)], {}, {}, {}
    vlo, vhi = (0, 0) if f is None \
        else eval_vf_term(f, spec, env).ord_bounds()
    if truth is Truth3.TRUE and vlo == vhi:
        return 1, 0, 0, [], {} if vlo is lf.INF else {level * m + vlo: 1}, \
            {}, {}
    if truth is Truth3.TRUE and f is not None and 1 <= level <= vlo and all(
            c.exact and c.ord() >= 0
            for c in (eval_vf_term(part, spec, assignment)
                      for part in closed_parts(f, frozenset(names)))):
        deltas = [lo for lo, hi in (
            eval_vf_term(d, spec, env).ord_bounds()
            for d in (_derivative(f, n) for n in names) if d is not None)
            if lo == hi and lo < level and level + lo <= vlo]
        if deltas:
            return 1, 1, 0, [], {}, {}, \
                {level * m + level + min(deltas): 1}
    if level == depth:
        return 0, 0, 1, [], {}, \
            {} if vlo is lf.INF else {level * m + vlo: 1}, {}
    return 0, 0, 0, [(forms, truth)], {}, {}, {}


def _swept_by_reference(expr, f, spec, assignment, prefixes, truth,
                        free=_FREE):
    """`_child_outcome` summed over the children `_sweep` classifies."""
    p = spec.prime
    last = [[d[-1]] if d and d[-1] is not None else range(p if d else 1)
            for d in prefixes]
    true = settled = open_ = 0
    pending = collections.Counter()
    counts = ({}, {}, {})
    for combo in itertools.product(*last):
        child = [list(d[:-1]) + [c] if d else [] for d, c in
                 zip(prefixes, combo)]
        got = _child_outcome(expr, f, spec, assignment, child, truth, free)
        true, settled, open_ = true + got[0], settled + got[1], \
            open_ + got[2]
        pending.update(got[3])
        for total, part in zip(counts, got[4:]):
            for x, c in part.items():
                total[x] = total.get(x, 0) + c
    return (true, settled, open_, pending) + counts


def _check_swept(expr, f, spec, assignment, prefixes, truth, free=_FREE):
    """The sweep agrees with the reference semantics on each child it
    classifies, or both raise the same error class."""
    try:
        want = _swept_by_reference(expr, f, spec, assignment, prefixes,
                                   truth, free)
    except Exception as e:  # the error class is part of the contract
        with pytest.raises(Exception) as raised:
            _sweep(expr, f, spec, assignment, prefixes, truth, free)
        assert raised.type is type(e)
        return
    assert _sweep(expr, f, spec, assignment, prefixes, truth, free) == want


def _check_compiled(term, spec, a, prefixes):
    """The sweep's integrand bounds agree with eval_vf_term on one child
    of a TRUE box, or both raise the same error class."""
    _check_swept(VfEq(VfVar("x"), VfVar("x")), term, spec, {"a": a},
                 prefixes, Truth3.TRUE, _FREE[:2])


def _bindings(spec, data):
    """A value for the field parameter a: an exact monomial, a rational
    or a truncated element."""
    p = spec.prime
    kind = data.draw(st.sampled_from(["exact", "fraction", "truncated"]))
    c, k = data.draw(st.integers(-6, 6)), data.draw(st.integers(0, 3))
    if kind == "exact":
        return _monomial(spec, c, k, data.draw(st.integers(-3, 3)))
    if kind == "fraction":
        return F(c, p ** k)
    return lf.from_digits(spec, k, data.draw(st.lists(
        st.integers(0, p - 1), max_size=spec.precision)))


def _prefixes(spec, data, names=_BOX_NAMES):
    """Digits of one child box, one list per box variable, at a level
    that is full depth half the time: leading zero digits are drawn
    often, since they move the box's valuation."""
    p, precision = spec.prime, spec.precision
    level = data.draw(st.one_of(st.just(precision),
                                st.integers(0, precision)))
    digit = st.one_of(st.just(0), st.integers(0, p - 1))
    return [data.draw(st.lists(digit, min_size=level, max_size=level))
            for _ in names]


@settings(max_examples=600, deadline=None)
@given(term=_terms, make=st.sampled_from([lf.qp, lf.fpt]),
       p=st.sampled_from([2, 3, 5]), precision=st.integers(1, 4),
       data=st.data())
def test_compiled_integrand_matches_reference(term, make, p, precision, data):
    spec = make(p, precision)
    a = _bindings(spec, data)
    _check_compiled(term, spec, a, _prefixes(spec, data))


@pytest.mark.parametrize("term,spec,a,x,y", [
    # a constant of several digits added to a box
    ("x + a", lf.fpt(5, 4), (1, 1, 1), (1, 2, 3, 4), (0, 0, 0, 0)),
    # a sum whose window runs past the precision is truncated
    ("x*x + 1", lf.fpt(3, 4), (0, 0, 1), (0, 1, 2, 1), (0, 0, 0, 0)),
    (VfSub(VfAdd(VfVar("x"), VfConst(F(1, 25))), VfConst(F(1, 25))),
     lf.qp(5, 3), (0, 0, 1), (1, 2, 3), (0, 0, 0)),
    # cancellation leaves only a valuation bound
    ("(x - y)^2", lf.qp(3, 4), (0, 0, 1), (1, 2, 0, 1), (1, 2, 0, 1)),
    ("x*y - y*x + a", lf.fpt(2, 3), (1, 2, 0), (1, 1, 0), (0, 1, 1)),
    # exact zero absorbs a box; z^0 is the exact one
    ("x*0 + y", lf.qp(5, 3), (0, 0, 1), (2, 0, 0), (0, 3, 0)),
    ("x^0*a - a", lf.fpt(2, 3), (1, 1, 1), (1, 0, 0), (0, 0, 0)),
    # a zero power is integral whatever its base holds, so Hensel may
    # settle the child
    (VfMul(VfVar("x"), VfPow(VfAdd(VfVar("x"), VfConst(F(1, 5))), 0)),
     lf.qp(5, 1), (0, 0, 0), (0,), (0,)),
    # indeterminate boxes
    ("x*y + a", lf.qp(7, 3), (1, 1, 0), (0, 0, 0), (0, 0, 0)),
    # a constant with no residue image in F_p((t))
    (VfAdd(VfVar("x"), VfConst(F(1, 3))), lf.fpt(3, 2), (0, 0, 1), (1, 0),
     (0, 0)),
], ids=["multidigit-constant", "fpt-truncation", "qp-truncation",
        "cancellation", "fpt-cancellation", "zero-absorbs", "power-zero",
        "power-zero-hensel", "indeterminate", "no-residue-image"])
def test_compiled_integrand_edge_cases(term, spec, a, x, y):
    if isinstance(term, str):
        term = parse_term(term, Sort.VF)
    _check_compiled(term, spec, _monomial(spec, *a), [x, y])


# random formulas over the whole compiled fragment: box variables x, y, a
# field parameter a, residue parameters r and s (s is also the variable
# of every residue quantifier, which shadows it) and a value-group
# parameter n
_rf_terms = st.recursive(
    st.one_of(st.builds(RfConst, st.integers(-2, 4)),
              st.sampled_from([RfVar("r"), RfVar("s"), RfVar("s")]),
              st.builds(RfAc, _terms)),
    lambda kids: st.one_of(
        st.builds(RfAdd, kids, kids), st.builds(RfSub, kids, kids),
        st.builds(RfMul, kids, kids), st.builds(RfNeg, kids),
        st.builds(RfPow, kids, st.integers(0, 3))), max_leaves=4)

_zz_terms = st.recursive(
    st.one_of(st.builds(ZzConst, st.integers(-2, 4)), st.just(ZzVar("n")),
              st.just(ZzInf()), st.builds(ZzOrd, _terms),
              st.builds(ZzOrd, _terms)),
    lambda kids: st.one_of(
        st.builds(ZzAdd, kids, kids), st.builds(ZzSub, kids, kids),
        st.builds(ZzNeg, kids), st.builds(ZzScale, st.integers(-2, 2),
                                          kids)), max_leaves=3)

_atoms = st.one_of(
    st.builds(VfEq, _terms, _terms),
    st.builds(RfEq, _rf_terms, _rf_terms), st.builds(RfNe, _rf_terms,
                                                     _rf_terms),
    st.builds(ZzLe, _zz_terms, _zz_terms), st.builds(ZzLt, _zz_terms,
                                                     _zz_terms),
    st.builds(ZzEq, _zz_terms, _zz_terms),
    st.builds(ZzCong, _zz_terms, _zz_terms, st.integers(1, 3)))

_formulas = st.recursive(_atoms, lambda kids: st.one_of(
    st.builds(And, kids, kids), st.builds(Or, kids, kids),
    st.builds(Not, kids), st.builds(Exists, st.just("s"), kids)),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(expr=_formulas, f=st.one_of(st.none(), _terms),
       make=st.sampled_from([lf.qp, lf.fpt]), p=st.sampled_from([2, 3, 5]),
       precision=st.integers(1, 3), data=st.data())
def test_classifier_matches_interpret(expr, f, make, p, precision, data):
    """On a random child box at a random level, the sweep's membership
    equals `interpret` on the from_digits box, and its integrand bounds
    and Hensel delta follow from eval_vf_term's, or both sides raise the
    same error class."""
    spec = make(p, precision)
    n = data.draw(st.one_of(st.integers(-2, 4), st.just(lf.INF)))
    assignment = {"a": _bindings(spec, data), "r": data.draw(
        st.integers(0, 6)), "s": data.draw(st.integers(0, 6)), "n": n}
    _check_swept(expr, f, spec, assignment, _prefixes(spec, data),
                 Truth3.UNDECIDED)


_SWEEP_NAMES = ["x", "y", "z"]


def _witness_text(names, data):
    """`exists s:rf` over a residue condition on a polynomial in names,
    with an ord condition on another."""
    g, h = _poly_text(names, data), _poly_text(names, data)
    cond = data.draw(st.sampled_from(["ac(%s) == s^2", "ac(%s) + s == 1",
                                      "ac(%s) * s == 1 || s == 0"]))
    return "(exists s:rf. (%s) && ord(%s) %s %d)" % (
        cond % g, h, data.draw(st.sampled_from([">=", "=="])),
        data.draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), make=st.sampled_from([lf.qp, lf.fpt]),
       data=st.data())
def test_sweep_hoists_by_variable(m, make, data):
    """A whole sweep over random domains and integrands in one to three
    box variables, with a residue witness scan that reads only some of
    them and so runs in an outer loop: every child's membership,
    integrand bounds and Hensel delta agree with the reference
    semantics, whatever the loop a subterm was hoisted to."""
    names = _SWEEP_NAMES[:m]
    p = data.draw(st.sampled_from([2, 3] if m == 3 else [2, 3, 5]))
    spec = make(p, data.draw(st.integers(1, 3)))
    seen = data.draw(st.lists(st.sampled_from(names), min_size=1,
                              max_size=m, unique=True))
    domain = "%s %s %s" % (_atom_text(names, data),
                           data.draw(st.sampled_from(["&&", "||"])),
                           _witness_text(sorted(seen), data))
    phi = parse("vf %s; %s" % (", ".join(names), domain))
    f = parse_term(_poly_text(names, data), Sort.VF) \
        if data.draw(st.booleans()) else None
    # the children of one box: the root, or all p^m below a random box
    level = data.draw(st.integers(0, spec.precision))
    digit = st.integers(0, p - 1)
    prefixes = [[] if level == 0 else data.draw(st.lists(
        digit, min_size=level - 1, max_size=level - 1)) + [None]
        for _ in names]
    truth = data.draw(st.sampled_from([Truth3.UNDECIDED, Truth3.TRUE]))
    _check_swept(phi.expr, f, spec, {}, prefixes, truth, phi.free)


@settings(max_examples=25, deadline=None)
@given(make=st.sampled_from([lf.qp, lf.fpt]), data=st.data())
def test_sweep_groups_the_variables_past_its_nested_loops(make, data):
    """Past NESTED_LOOPS box variables the rest share one loop over the
    product of their digits: a whole sweep at p = 2 still agrees with the
    reference child by child."""
    names = ["x%d" % i for i in range(boxcode.NESTED_LOOPS + 2)]
    spec = make(2, data.draw(st.integers(1, 2)))
    seen = data.draw(st.lists(st.sampled_from(names), min_size=1,
                              max_size=3, unique=True))
    phi = parse("vf %s; %s && %s" % (", ".join(names),
                                     _atom_text(names, data),
                                     _witness_text(sorted(seen), data)))
    f = parse_term(_poly_text(names, data), Sort.VF) \
        if data.draw(st.booleans()) else None
    level = data.draw(st.integers(0, spec.precision))
    prefixes = [[] if level == 0 else data.draw(st.lists(
        st.integers(0, 1), min_size=level - 1, max_size=level - 1)) + [None]
        for _ in names]
    truth = data.draw(st.sampled_from([Truth3.UNDECIDED, Truth3.TRUE]))
    _check_swept(phi.expr, f, spec, {}, prefixes, truth, phi.free)


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_many_box_variables_compile(make):
    # one loop each would pass CPython's 20 statically nested blocks
    names = ["x%d" % i for i in range(24)]
    phi = "vf %s; %s" % (", ".join(names),
                         " && ".join("ord(%s) >= 0" % n for n in names))
    iv = volume(phi, make(2, 1))
    assert iv.lower == iv.upper == 1
    # two residue loops nest inside the box loops as well
    iv = volume("%s && exists u:rf. exists v:rf. u == v && ord(x0) >= 0"
                % phi, make(2, 1))
    assert iv.lower == iv.upper == 1


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_residue_loops_fill_the_nested_blocks(make):
    """Fifteen nested residue loops inside the box loops leave five of
    CPython's 20 statically nested blocks to six box variables: no
    arithmetic template holds a loop of its own."""
    names = ["x%d" % i for i in range(6)]
    body = "ac(%s) == %s" % (" + ".join(names),
                             " + ".join("s%d" % i for i in range(15)))
    for i in reversed(range(15)):
        body = "exists s%d:rf. %s" % (i, body)
    iv = volume("vf %s; %s" % (", ".join(names), body), make(2, 1))
    # ac of the sum is decided, and some residues add up to it, exactly
    # where the sum of the first digits is odd
    assert (iv.lower, iv.upper) == (F(1, 2), 1)


@pytest.mark.parametrize("kind", list(lf.FieldKind), ids=["qp", "fpt"])
def test_sweep_source_stays_small(kind):
    """No arithmetic template holds a loop, a sum takes four lines at
    most and a value-group term one interval local, so an integrand of a
    dozen operations compiles to a sweep of at most 250 lines."""
    phi = parse("vf x, y; ord(x - y) >= 1")
    f = parse_term("(x - 2*t)*(x + 3*t^2)*(1 + t*(x^2 + 2*t - y)"
                   "*(3 - 2*t*x))", Sort.VF)
    names = ("x", "y")
    derivatives = tuple(_derivative(f, name) for name in names)
    source = boxcode._Codegen(names, boxcode._OPS[kind], phi.expr, f) \
        .source(phi.expr, f, derivatives)
    assert source.count("\n") <= 250


@pytest.mark.parametrize("kind", list(lf.FieldKind), ids=["qp", "fpt"])
def test_a_box_ord_bound_at_or_below_zero_folds_when_compiled(kind):
    """A box variable lies in O, so `c <= ord(y)` with c <= 0 is TRUE on
    every box: it compiles to no comparison, and its conjunction to the
    other side alone.  A bound above zero is still decided per child.  A
    bound on a parameter, which need not lie in O, is a folded site."""
    def source(text, names=("x", "y")):
        expr = parse(text).expr
        return boxcode._Codegen(names, boxcode._OPS[kind], expr, None) \
            .source(expr, None, ())

    for text in ("vf y; ord(y) >= 0", "vf y; -2 <= ord(y)"):
        assert "zz_le" not in source(text)
    both = source("vf x, y; ord(y) >= 0 && ord(x - y) >= 1")
    assert both.count("zz_le") == 1 and " is not F:" not in both
    assert "zz_le((1, 1)" in source("vf y; ord(y) >= 1")
    spec = (lf.qp if kind is lf.FieldKind.CHAR_ZERO else lf.fpt)(5, 3)
    a = F(1, 5) if kind is lf.FieldKind.CHAR_ZERO \
        else lf.from_digits(spec, -1, (1,))
    iv = volume("vf x, a; ord(a) >= 0 && ord(x) >= 1", spec,
                assignment={"a": a})
    assert (iv.lower, iv.upper) == (0, 0)


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_what_does_not_depend_on_the_box_is_folded_once(make):
    """A maximal subformula that reads no box variable outside a zero
    power, and no residue bound around it, is one site that the walk
    folds once by the reference semantics: the quantifier on the
    parameter compiles to no loop, and x^0 folds to the exact 1."""
    phi = parse("vf x; rf a; (exists s:rf. s^2 == a) && ord(x^0 * x - 1) "
                ">= 1")
    kind = make(5, 3).kind
    source = boxcode._Codegen(("x",), boxcode._OPS[kind], phi.expr, None) \
        .source(phi.expr, None, ())
    assert "range(p)" not in source
    for p in (5, 7):
        spec = make(p, 3)
        squares = {v * v % p for v in range(1, p)}
        nonsquare = min(set(range(1, p)) - squares)
        for a in (4, nonsquare):
            iv = volume(phi, spec, assignment={"a": a})
            assert (iv.lower, iv.upper) == reference.integrate(
                None, phi, spec, assignment={"a": a})
            assert iv.lower == iv.upper == (F(1, p) if a in squares else 0)


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_a_negated_constant_folds_to_its_negative(make):
    """x - c folds -c as one constant: x - 1 and x + 4 meet mod 5, as do
    x - 1/2 and x + 2, and the integrands repeat their constants in the
    derivatives.  In F_5((t)) -1/5 has no image, and the walk raises the
    evaluator's error, which names 1/5."""
    spec = make(5, 3)
    x = VfVar("x")

    def less(c):
        return VfSub(x, VfConst(c))

    def near(*terms):
        return Formula(And(*(ZzLe(ZzConst(1), ZzOrd(t)) for t in terms)),
                       [("x", Sort.VF)])

    plus = parse_term("x + 4", Sort.VF), parse_term("x + 2", Sort.VF)
    for phi in (near(less(F(1)), plus[0]), near(less(F(1, 2)), plus[1])):
        iv = volume(phi, spec)
        assert iv.lower == iv.upper == F(1, 5)
    for f in (VfMul(less(F(1)), plus[0]),
              VfMul(VfMul(less(F(1, 2)), less(F(3))), plus[1])):
        integrand = IntegrandSpec.abs_power(f)
        iv = integrate(integrand, "vf x; ord(x) >= 0", spec)
        lower, upper = reference.integrate(integrand, "vf x; ord(x) >= 0",
                                           spec)
        assert lower <= iv.lower <= iv.upper <= upper
    if make is lf.fpt:
        with pytest.raises(lf.InvalidPrime) as error:
            volume(Formula(ZzLe(ZzConst(0), ZzOrd(less(F(1, 5)))),
                           [("x", Sort.VF)]), spec)
        assert str(error.value) == \
            "denominator of 1/5 vanishes mod 5; no residue image"


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_an_inexact_constant_of_the_integrand_turns_hensel_off(make):
    """Hensel's lemma needs every folded constant of f itself exact and
    integral: a known only to 1 + O(p) leaves x^2 - a undecided near its
    roots, though its derivative 2x has none but exact ones."""
    spec = make(5, 3)
    a = lf.from_digits(spec, 0, (1,))
    integrand = IntegrandSpec.abs_power("x^2 - a")
    iv = integrate(integrand, "vf x, a; ord(x) >= 0", spec,
                   assignment={"a": a})
    assert iv.boxes_hensel == 0 and iv.lower < iv.upper
    assert (iv.lower, iv.upper) == reference.integrate(
        integrand, "vf x, a; ord(x) >= 0", spec, assignment={"a": a})


def test_a_zero_power_leaves_the_integrand_integral():
    """A zero power is the exact 1 whatever its base holds, so a base
    with a constant that is not integral at p leaves the integrand a
    polynomial over the valuation ring, which Hensel's lemma settles."""
    for f in ("(x + a)^0 * (x - 1)", "x - 1"):
        iv = integrate(IntegrandSpec.abs_power(f), "vf x, a; ord(x) >= 0",
                       lf.qp(5, 3), assignment={"a": F(1, 5)})
        assert (iv.lower, iv.upper, iv.boxes_hensel) == (F(5, 6), F(5, 6), 25)


# exact brackets recorded from the LFElem-per-box walk that preceded the
# compiled integrand; (lower, upper, boxes_total, boxes_true,
# boxes_undecided), the same in both characteristics.  The simple roots
# of linear_triple and of the cube are settled by Hensel's lemma, which
# makes their values exact; the brackets recorded before that stay as
# outer bounds in _OUTER.
_PINNED = {
    ("linear_triple", 5): ("1/2", "1/2", 15625, 15625, 0),
    ("linear_triple", 7): ("5/8", "5/8", 117649, 117649, 0),
    ("linear_m3", 5): ("382081056252504/476837158203125",
                       "47760132031563001/59604644775390625",
                       15625, 15624, 1),
    ("linear_m3", 7): ("478953078451416036/558545864083284007",
                       "164280905908835700349/191581231380566414401",
                       117649, 117648, 1),
    ("cube", 5): ("601/750", "601/750", 78125, 78125, 0),
    ("cube", 7): ("16469/19208", "16469/19208", 823543, 823543, 0),
}

_OUTER = {
    ("linear_triple", 5): ("24414062/48828125", "122070313/244140625"),
    ("linear_triple", 7): ("1235829214/1977326743",
                           "8650804501/13841287201"),
    ("cube", 5): ("24454752604/30517578125", "122273763021/152587890625"),
    ("cube", 7): ("4070574266308/4747561509943",
                  "28494019864159/33232930569601"),
}


def _linear_triple_value(p):
    """The integral of |z(z - 1)(z - 3)| over Z_p for p >= 5: p - 3
    residue classes where the product is a unit, and three simple roots,
    where |z - r| alone varies: each of those classes gives
    p^-1 * p^-1 * (1 - p^-1)/(1 - p^-2) = 1/(p(p + 1))."""
    return F(p - 3, p) + 3 * F(1, p * (p + 1))


def _cube_roots_of_one(p):
    return sum(1 for u in range(1, p) if pow(u, 3, p) == 1)


def _cube_value(p):
    """The integral of |y^3 - pi^3| over O for p != 3: 1 - p^-1 from the
    units and p^-2 * p^-3 from ord y >= 2.  On ord y = 1, y = pi*u with
    |y^3 - pi^3| = p^-3 |u^3 - 1|, a unit except on the classes of the r
    cube roots of 1 mod p, simple roots that each give 1/(p(p + 1)) as in
    _linear_triple_value."""
    r = _cube_roots_of_one(p)
    return (F(p - 1, p) + F(1, p ** 5)
            + F(1, p ** 4) * (F(p - 1 - r, p) + r * F(1, p * (p + 1))))


# the closed form of each exact pin, and the number of Hensel boxes with
# the level they settle at
_EXACT = {
    # the three roots, at level 1 where z - r has valuation 1
    "linear_triple": (_linear_triple_value, lambda p: 3, 1),
    # the roots y = zeta*pi, where 3y^2 has valuation 2: at level 3
    "cube": (_cube_value, _cube_roots_of_one, 3),
}


_PINNED_CASES = {
    # fixture: (domain, integrand, precision, binds x = acx * t^(3k))
    "linear_triple": ("vf z; ord(z) >= 0", "z * (z - 1) * (z - 3)", 6,
                      False),
    "linear_m3": ("vf z; ord(z) >= 0", "z^3", 6, False),
    "cube": ("vf x, y; ord(y) >= 0", "y^3 - x", 7, True),   # acx=1, k=1
}


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
@pytest.mark.parametrize("name,p", sorted(_PINNED))
def test_pinned_brackets(name, p, make):
    domain, f, precision, bind = _PINNED_CASES[name]
    spec = make(p, precision)
    assignment = {"x": _monomial(spec, 1, 3)} if bind else {}
    iv = integrate(IntegrandSpec.abs_power(f), domain, spec,
                   assignment=assignment)
    lower, upper, total, true, undecided = _PINNED[name, p]
    assert (iv.lower, iv.upper) == (F(lower), F(upper))
    assert iv.undecided_mass == F(upper) - F(lower)
    assert (iv.boxes_total, iv.boxes_true, iv.boxes_undecided) == \
        (total, true, undecided)
    if (name, p) in _OUTER:
        outer_lower, outer_upper = _OUTER[name, p]
        assert F(outer_lower) <= iv.lower == iv.upper <= F(outer_upper)
        value, roots, level = _EXACT[name]
        assert iv.lower == value(p)
        # one box per root class, each of p^(precision - level)
        assert iv.boxes_hensel == roots(p) * p ** (precision - level)
    else:
        assert iv.boxes_hensel == 0


# --- the walk against the reference walk ---

def _poly_text(names, data):
    """A random polynomial over the valuation ring, as a product of one
    to three factors, each a sum of monomials of degree <= 2 with
    coefficients c or c*t."""
    exponents = [e for e in itertools.product(range(3), repeat=len(names))
                 if sum(e) <= 2]
    monomial = st.tuples(st.integers(-3, 3), st.booleans(),
                         st.sampled_from(exponents))
    factors = []
    for terms in data.draw(st.lists(st.lists(monomial, min_size=1,
                                             max_size=3),
                                    min_size=1, max_size=3)):
        parts = []
        for c, times_t, exps in terms:
            parts.append("*".join(["(%d)" % c] + (["t"] if times_t else [])
                                  + ["%s^%d" % (n, e)
                                     for n, e in zip(names, exps) if e]))
        factors.append("(%s)" % " + ".join(parts))
    return " * ".join(factors)


_DOMAINS = {
    1: ["ord(x) >= 0", "ord(x) >= 1", "ord(x) == 0", "ac(x) == 1",
        "ord(x - 1) >= 1 || ord(x) >= 2"],
    2: ["ord(x) >= 0 && ord(y) >= 0", "ord(x) >= 1", "ord(x - y) >= 1",
        "ac(y) == 1 || ord(x) >= 1", "ord(x*y) == 0"],
}


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from([1, 2]), make=st.sampled_from([lf.qp, lf.fpt]),
       p=st.sampled_from([2, 3, 5, 7]), e=st.integers(1, 2),
       data=st.data())
def test_walk_refines_reference_walk(m, make, p, e, data):
    """Inherited membership and Hensel settlement only narrow the
    reference bracket: each interval lies inside it at the same
    precision, equals it where it is exact, and equals it outright when
    no box was settled by Hensel."""
    names = ["x", "y"][:m]
    # keep the nominal box count of the reference walk in the thousands
    top = max(n for n in range(1, 6) if p ** (n * m) <= 3000)
    spec = make(p, data.draw(st.integers(1, top)))
    f = _poly_text(names, data)
    domain = "vf %s; %s" % (", ".join(names),
                            data.draw(st.sampled_from(_DOMAINS[m])))
    integrand = IntegrandSpec.abs_power(f, e)
    iv = integrate(integrand, domain, spec)
    lower, upper = reference.integrate(integrand, domain, spec)
    assert lower <= iv.lower <= iv.upper <= upper
    if lower == upper or iv.boxes_hensel == 0:
        assert (iv.lower, iv.upper) == (lower, upper)


def _cluster_text(names, data):
    """(x - a*t^i)(x - b*t^j)(1 + t*g) with g a `_poly_text` polynomial:
    two roots in tO whose difference has valuation >= 1, so that the
    x-derivative has that valuation at each root, times a unit."""
    pair = data.draw(st.lists(st.tuples(st.integers(-3, 3),
                                        st.integers(1, 2)),
                              min_size=2, max_size=2))
    return "%s * (1 + t*%s)" % (
        " * ".join("(%s - (%d)*t^%d)" % (names[0], c, i) for c, i in pair),
        _poly_text(names, data))


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([1, 2]), make=st.sampled_from([lf.qp, lf.fpt]),
       e=st.integers(1, 2), data=st.data())
def test_deep_hensel_boxes_match_a_deeper_reference(m, make, e, data):
    """Boxes settled where the derivative has valuation delta >= 1: the
    bracket lies inside the reference walk's at the same precision, and
    when exact, inside the reference walk's at precision + 2 as well,
    which a wrong closed form would leave."""
    names = ["x", "y"][:m]
    # keep the nominal box count of the deeper reference walk small
    p = data.draw(st.sampled_from([q for q in (2, 3, 5, 7)
                                   if q ** (4 * m) <= 20000]))
    top = max(n for n in range(2, 6) if p ** ((n + 2) * m) <= 20000)
    precision = data.draw(st.integers(2, top))
    integrand = IntegrandSpec.abs_power(_cluster_text(names, data), e)
    domain = "vf %s; %s" % (", ".join(names),
                            data.draw(st.sampled_from(_DOMAINS[m])))
    deltas = []
    compiled = oracle_module._BoxWalk.sweeper

    def spy(walk, exact, open_, hensel):
        sweep = compiled(walk, exact, open_, hensel)

        def recorded(forms, level, truth, digits):
            before = dict(hensel)
            got = sweep(forms, level, truth, digits)
            # a child at level l settled at l*m + e*(l + delta)
            lv = level + 1
            deltas.extend((x - lv * walk.m) // e - lv
                          for x in hensel if hensel[x] != before.get(x))
            return got
        return recorded
    with mock.patch.object(oracle_module._BoxWalk, "sweeper", spy):
        iv = integrate(integrand, domain, make(p, precision))
    assume(any(deltas))  # a delta of 0, or None, is falsy
    lower, upper = reference.integrate(integrand, domain,
                                       make(p, precision))
    assert lower <= iv.lower <= iv.upper <= upper
    lower, upper = reference.integrate(integrand, domain,
                                       make(p, precision + 2))
    if iv.lower == iv.upper:
        assert lower <= iv.lower <= upper
    else:
        assert iv.lower <= upper and lower <= iv.upper


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
@pytest.mark.parametrize("p", [2, 5, 7, 13])
def test_hensel_settles_past_the_derivative_valuation(p, make):
    """At the roots y = zeta*pi of y^3 - pi^3 the derivative 3y^2 has
    valuation 2: a box settles at level 3, never at level 2, where the
    quadratic Taylor term is as large as the linear one."""
    iv = integrate(IntegrandSpec.abs_power("y^3 - t^3"), "vf y; ord(y) >= 0",
                   make(p, 7))
    assert iv.boxes_hensel == _cube_roots_of_one(p) * p ** (7 - 3)
    assert iv.lower == iv.upper == _cube_value(p)


def test_hensel_needs_ord_f_past_the_derivative_valuation():
    # on x = 2y, (x + 1)^2 + 3 = 4(y^2 + y + 1) has ord 2, which the
    # truncated square knows only from level 3; at level 2 the derivative
    # 2(x + 1) has valuation 1 but ord f >= 2 alone falls short of
    # level + 1, so that box is no Hensel box: 1/2 from odd x, 1/8 here
    iv = integrate(IntegrandSpec.abs_power("(x + 1)^2 + 3"),
                   "vf x; ord(x) >= 0", lf.qp(2, 4))
    assert iv.boxes_hensel == 0
    assert iv.lower == iv.upper == F(5, 8)


def test_settled_boxes_skip_the_interpreter(monkeypatch):
    """Membership is compiled, so the walk never asks the interpreter;
    children of a TRUE box inherit it; the unit integrand |z - 1| is
    closed by Hensel at level 1 on the class of its root."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return interpret(*args, **kwargs)
    monkeypatch.setattr(oracle_module, "interpret", counted)
    iv = integrate(IntegrandSpec.abs_power("z - 1"), "vf z; ord(z) >= 0",
                   Q5)
    assert len(calls) == 0
    assert iv.lower == iv.upper == F(5, 6)
    assert iv.nodes_visited == 1 + 5
    assert iv.boxes_hensel == 5 ** 5
    assert iv.boxes_true == 5 ** 6


@pytest.mark.parametrize("make", [lf.qp, lf.fpt], ids=["qp", "fpt"])
def test_hensel_needs_an_integral_unit_derivative(make):
    # z^p - z vanishes mod p everywhere, though its derivative is a unit:
    # nothing is settled at level 0, so the value keeps its full depth
    spec = make(3, 4)
    iv = integrate(IntegrandSpec.abs_power("z^3 - z"), "vf z; ord(z) >= 0",
                   spec)
    want = reference.integrate(IntegrandSpec.abs_power("z^3 - z"),
                               "vf z; ord(z) >= 0", spec)
    assert want[0] <= iv.lower <= iv.upper <= want[1]


def test_hensel_needs_an_integral_polynomial():
    # 3z + (3/4)z^2 has a unit derivative and ord >= level on boxes that
    # Hensel's lemma would close wrongly: the Taylor terms past the linear
    # one are not integral
    f = IntegrandSpec.abs_power(VfAdd(
        parse_term("3*z", Sort.VF),
        VfMul(VfConst(F(3, 4)), parse_term("z^2", Sort.VF))))
    spec = lf.qp(2, 4)
    iv = integrate(f, "vf z; ord(z) >= 0", spec)
    assert iv.boxes_hensel == 0
    assert (iv.lower, iv.upper) == \
        reference.integrate(f, "vf z; ord(z) >= 0", spec)


# --- three-valued truth refines monotonically ---

def _atom_text(names, data):
    term = _poly_text(names, data)
    if not any("%s^" % n in term for n in names):
        # a constant alone does not say which sort a comparison is over
        term = "%s + %s" % (term, data.draw(st.sampled_from(names)))
    kind = data.draw(st.sampled_from(["ord>=", "ord==", "ac", "zero"]))
    if kind == "ord>=":
        return "ord(%s) >= %d" % (term, data.draw(st.integers(0, 3)))
    if kind == "ord==":
        return "ord(%s) == %d" % (term, data.draw(st.integers(0, 3)))
    if kind == "ac":
        return "ac(%s) == %d" % (term, data.draw(st.integers(0, 4)))
    return "%s == 0" % term


def _formula_text(names, data, depth=2):
    if depth == 0 or data.draw(st.booleans()):
        return _atom_text(names, data)
    op = data.draw(st.sampled_from(["&&", "||", "!"]))
    if op == "!":
        return "!(%s)" % _formula_text(names, data, depth - 1)
    return "(%s) %s (%s)" % (_formula_text(names, data, depth - 1), op,
                             _formula_text(names, data, depth - 1))


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from([1, 2]), make=st.sampled_from([lf.qp, lf.fpt]),
       p=st.sampled_from([2, 3, 5]), precision=st.integers(1, 4),
       data=st.data())
def test_interpret_is_monotone_on_child_boxes(m, make, p, precision, data):
    """A box that interpret decides decides the same way on every child
    box, which is what lets the walk hand TRUE down without asking."""
    names = ["x", "y"][:m]
    spec = make(p, precision)
    phi = parse("vf %s; %s" % (", ".join(names), _formula_text(names, data)))
    digit = st.integers(0, p - 1)
    level = data.draw(st.integers(0, precision - 1))
    prefixes = [tuple(data.draw(st.lists(digit, min_size=level,
                                         max_size=level)))
                for _ in names]

    def truth(digits):
        return interpret(phi, spec, {
            n: lf.from_digits(spec, 0, d) for n, d in zip(names, digits)})
    parent = truth(prefixes)
    if parent is Truth3.UNDECIDED:
        return
    for combo in itertools.product(range(p), repeat=m):
        assert truth([d + (c,) for d, c in zip(prefixes, combo)]) is parent
