"""The point-counting oracle: exact interval brackets for volumes and
integrals over the valuation ring."""

import itertools
import os
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import dpcalc.localfield as lf
import dpcalc.oracle as oracle_module
import oracle_reference as reference
from dpcalc.errors import (BadPrime, BudgetExceeded, UnboundVariable,
                           UnsupportedFeature)
from dpcalc.formula import (Truth3, VfAdd, VfConst, VfMul, VfNeg, VfPow,
                            VfSub, VfUnif, VfVar, eval_vf_term, interpret,
                            parse)
from dpcalc.oracle import (IntegrandSpec, _CompiledIntegrand, fraction_str,
                           integrate, jacobian_check, parse_vf_polynomial,
                           serre_oesterle_count, volume)
from dpcalc.symring import SymA

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


def test_vf_quantifier_needs_witness_depth():
    with pytest.raises(UnsupportedFeature):
        volume("exists y:vf. x*x + y*y == 1", Q5)


def test_residue_parameters_must_be_bound():
    with pytest.raises(UnboundVariable):
        volume("ac(x) == u", Q5)


def test_refinement_nesting():
    phi = "exists y:vf. ord(y*y - x) >= 4"
    v3 = volume(phi, lf.qp(3, 3), vf_witness_depth=3)
    v4 = volume(phi, lf.qp(3, 4), vf_witness_depth=4)
    assert v3.lower <= v4.lower <= v4.upper <= v3.upper


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
    assert iv.overlaps(iv2)


# --- stabilized solution counts mod p^N ---

def test_conic_count_stabilizes():
    q5 = lf.qp(5, 3)
    vals = [serre_oesterle_count("x*x + y*y - 1", 1, q5, N) for N in (1, 2, 3)]
    assert vals[0] == vals[1] == vals[2] == F(4, 5)


def test_point_count():
    q5 = lf.qp(5, 3)
    assert [serre_oesterle_count("x", 0, q5, N) for N in (1, 2, 3)] == [1, 1, 1]


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


# --- the compiled integrand against the reference arithmetic ---

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


def _check_compiled(term, spec, a, prefixes):
    """The compiled integrand agrees with eval_vf_term on one box: the
    same error class, or the same value digit for digit and the same ord
    bounds.  Box forms are built a digit at a time, as the walk does."""
    boxes = {name: lf.from_digits(spec, 0, tuple(digs))
             for name, digs in zip(_BOX_NAMES, prefixes)}
    try:
        reference = eval_vf_term(term, spec, {"a": a, **boxes})
    except Exception as e:  # the error class is part of the contract
        with pytest.raises(Exception) as raised:
            _CompiledIntegrand(term, spec, _BOX_NAMES, {"a": a})
        assert raised.type is type(e)
        return
    integrand = _CompiledIntegrand(term, spec, _BOX_NAMES, {"a": a})
    forms = []
    for name, digs in zip(_BOX_NAMES, prefixes):
        form = (0, 0, None)
        for level, d in enumerate(digs):
            form = integrand.ops.child(form, level, d)
        assert form == integrand.ops.form(boxes[name])
        forms.append(form)
    forms = tuple(forms)
    value = integrand.evaluate(forms)
    if reference.exact:
        assert value == reference
    else:
        assert value == integrand.ops.form(reference)
    assert integrand.ord_bounds(forms) == reference.ord_bounds()


@settings(max_examples=600, deadline=None)
@given(term=_terms, make=st.sampled_from([lf.qp, lf.fpt]),
       p=st.sampled_from([2, 3, 5]), precision=st.integers(1, 4),
       bind=st.sampled_from(["exact", "fraction"]), c=st.integers(-6, 6),
       k=st.integers(0, 3), d=st.integers(-3, 3), data=st.data())
def test_compiled_integrand_matches_reference(term, make, p, precision, bind,
                                              c, k, d, data):
    spec = make(p, precision)
    a = _monomial(spec, c, k, d) if bind == "exact" else F(c, p ** k)
    # leading zero digits are drawn often: they move the box's valuation
    digit = st.one_of(st.just(0), st.integers(0, p - 1))
    prefixes = [data.draw(st.lists(digit, max_size=precision))
                for _ in _BOX_NAMES]
    _check_compiled(term, spec, a, prefixes)


@pytest.mark.parametrize("term,spec,a,x,y", [
    # a constant of several digits added to a box
    ("x + a", lf.fpt(5, 4), (1, 1, 1), (1, 2, 3, 4), ()),
    # a sum whose window runs past the precision is truncated
    ("x*x + 1", lf.fpt(3, 4), (0, 0, 1), (0, 1, 2, 1), ()),
    (VfSub(VfAdd(VfVar("x"), VfConst(F(1, 25))), VfConst(F(1, 25))),
     lf.qp(5, 3), (0, 0, 1), (1, 2, 3), ()),
    # cancellation leaves only a valuation bound
    ("(x - y)^2", lf.qp(3, 4), (0, 0, 1), (1, 2), (1, 2, 0, 1)),
    ("x*y - y*x + a", lf.fpt(2, 3), (1, 2, 0), (1, 1), (0, 1, 1)),
    # exact zero absorbs a box; z^0 is the exact one
    ("x*0 + y", lf.qp(5, 3), (0, 0, 1), (2,), (0, 3)),
    ("x^0*a - a", lf.fpt(2, 3), (1, 1, 1), (1,), ()),
    # indeterminate boxes
    ("x*y + a", lf.qp(7, 3), (1, 1, 0), (0, 0), (0,)),
    # a constant with no residue image in F_p((t))
    (VfAdd(VfVar("x"), VfConst(F(1, 3))), lf.fpt(3, 2), (0, 0, 1), (1,), ()),
], ids=["multidigit-constant", "fpt-truncation", "qp-truncation",
        "cancellation", "fpt-cancellation", "zero-absorbs", "power-zero",
        "indeterminate", "no-residue-image"])
def test_compiled_integrand_edge_cases(term, spec, a, x, y):
    if isinstance(term, str):
        term = parse_vf_polynomial(term)
    _check_compiled(term, spec, _monomial(spec, *a), [x, y])


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
    # fixture: (domain, integrand, precision, binds x = acx * pi^(3k))
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
    settle = oracle_module._BoxWalk.hensel_delta

    def spy(walk, forms, level, vlo):
        deltas.append(settle(walk, forms, level, vlo))
        return deltas[-1]
    with mock.patch.object(oracle_module._BoxWalk, "hensel_delta", spy):
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
    """Children of a TRUE box inherit it; the unit integrand |z - 1| is
    closed by Hensel at level 1 on the class of its root."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return interpret(*args, **kwargs)
    monkeypatch.setattr(oracle_module, "interpret", counted)
    iv = integrate(IntegrandSpec.abs_power("z - 1"), "vf z; ord(z) >= 0",
                   Q5)
    assert len(calls) == 1
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
        parse_vf_polynomial("3*z"),
        VfMul(VfConst(F(3, 4)), parse_vf_polynomial("z^2"))))
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
