"""The point-counting oracle: exact interval brackets for volumes and
integrals over the valuation ring."""

import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dpcalc.localfield as lf
from dpcalc.errors import BudgetExceeded, UnboundVariable, UnsupportedFeature
from dpcalc.formula import (VfAdd, VfConst, VfMul, VfNeg, VfPow, VfSub,
                            VfUnif, VfVar, eval_vf_term)
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
# boxes_undecided), the same in both characteristics
_PINNED = {
    ("linear_triple", 5): ("24414062/48828125", "122070313/244140625",
                           15625, 15622, 3),
    ("linear_triple", 7): ("1235829214/1977326743",
                           "8650804501/13841287201", 117649, 117646, 3),
    ("linear_m3", 5): ("382081056252504/476837158203125",
                       "47760132031563001/59604644775390625",
                       15625, 15624, 1),
    ("linear_m3", 7): ("478953078451416036/558545864083284007",
                       "164280905908835700349/191581231380566414401",
                       117649, 117648, 1),
    ("cube", 5): ("24454752604/30517578125", "122273763021/152587890625",
                  78125, 78124, 1),
    ("cube", 7): ("4070574266308/4747561509943",
                  "28494019864159/33232930569601", 823543, 823540, 3),
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
