"""Linear integer domains and exact geometric summation."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpcalc import presburger as P
from dpcalc.errors import NotSummable, ParseError, UnsupportedFeature
from dpcalc.presburger import (AffineForm, PresDomain, PresTerm, SymSum,
                               VarRange, parse_affine)
from dpcalc.symring import ONE, SymA
from presburger_reference import evaluate_truncated, iterate

af = AffineForm.make
var = AffineForm.var
const = AffineForm.constant

RAY = PresDomain.single("i", lower=0)
TERM = PresTerm(ONE, af({"i": -1}))

# the inner sum of the two-level shell family: m >= k+1 of L^(-2m-2k)
DOM_B = PresDomain.single("m", lower=var("k") + 1)
TERM_B = PresTerm(SymA.one_minus_l_inv(1), af({"m": -2, "k": -2}))

DOM_RECT = PresDomain((VarRange("a", lower=const(0)),
                       VarRange("b", lower=const(2))))
TERM_RECT = PresTerm(ONE, af({"a": -1, "b": -2}))


# --- affine forms ---

def test_affine_basics():
    f = af({"k": 2, "m": -1}, 3)
    assert f.render() == "2*k - m + 3"
    assert f.evaluate({"k": 1, "m": 2}) == 3
    assert f.bind({"k": 1}) == af({"m": -1}, 5)
    assert f.substitute("m", var("k") + 1) == af({"k": 1}, 2)


def test_parse_affine():
    assert parse_affine("2*k - m + 3") == af({"k": 2, "m": -1}, 3)
    assert parse_affine("-m + k") == af({"m": -1, "k": 1})
    assert parse_affine("7") == const(7)
    assert parse_affine("k - 1") == af({"k": 1}, -1)


_NAMES = st.sampled_from(["k", "m", "g", "j", "n", "acx"])
_affine_forms = st.builds(
    af, st.dictionaries(_NAMES, st.integers(-6, 6), max_size=4),
    st.integers(-20, 20))


@given(f=_affine_forms)
def test_parse_affine_reads_what_render_writes(f):
    assert parse_affine(f.render()) == f


@pytest.mark.parametrize("text", ["", "k +", "ord(x)", "inf", "k*m", "t",
                                  "2^k"])
def test_parse_affine_rejects_what_is_not_affine(text):
    with pytest.raises(ParseError):
        parse_affine(text)


# --- single rays ---

def test_geometric_ray():
    s = P.sum(RAY, TERM)
    assert s.is_closed()
    assert s.as_syma() == SymA.geom(1)


def test_congruence_ray():
    dom3 = PresDomain.single("i", lower=0, modulus=3, residue=1)
    s3 = P.sum(dom3, TERM)
    assert s3.as_syma() == SymA.l_power(-1) * SymA.geom(3)
    assert s3.as_syma().render() == "L^-1/(1 - L^-3)"


def test_divergent_rays_rejected():
    with pytest.raises(NotSummable):
        P.sum(RAY, PresTerm(ONE, af({"i": 1})))
    with pytest.raises(NotSummable):
        P.sum(RAY, PresTerm(ONE, const(0)))


def test_downward_ray():
    dom = PresDomain.single("i", upper=5)
    s = P.sum(dom, PresTerm(ONE, af({"i": 3})))
    assert s.as_syma() == SymA.l_power(15) * SymA.geom(3)


# --- symbolic bounds ---

def test_shell_family_inner_sum():
    s = P.sum(DOM_B, TERM_B)
    expect = SymSum((PresTerm(SymA.one_minus_l_inv(1) * SymA.geom(2)
                              * SymA.l_power(-2), af({"k": -4})),))
    assert s == expect
    assert s.substitute({"k": 0}).as_syma() == \
        SymA.one_minus_l_inv(1) * SymA.l_power(-2) * SymA.geom(2)


def test_finite_symbolic_telescoping():
    # 0 <= i <= n of L^-i = (1 - L^-(n+1))/(1 - L^-1)
    dom = PresDomain.single("i", lower=0, upper=var("n"))
    s = P.sum(dom, TERM)
    manual = SymSum((PresTerm(SymA.geom(1), const(0)),
                     PresTerm(SymA.geom(1) * SymA.l_power(-1) * (-1),
                              af({"n": -1}))))
    assert s == manual
    assert s.substitute({"n": 3}).as_syma() == \
        ONE + SymA.l_power(-1) + SymA.l_power(-2) + SymA.l_power(-3)


# --- finite numeric domains ---

def test_finite_congruence_sum():
    dom = PresDomain.single("i", lower=1, upper=9, modulus=2, residue=1)
    want = SymA.from_int(0)
    for v in (1, 3, 5, 7, 9):
        want = want + SymA.l_power(-v)
    assert P.sum(dom, TERM).as_syma() == want


def test_empty_range():
    dom = PresDomain.single("i", lower=5, upper=3)
    assert P.sum(dom, TERM).is_zero()


# --- several variables ---

def test_triangular_domain():
    dom2 = PresDomain((VarRange("k", lower=const(0)),
                       VarRange("m", lower=var("k") + 1)))
    closed = P.sum(dom2, TERM_B).as_syma()
    want = SymA.one_minus_l_inv(1) * SymA.l_power(-2) \
        * SymA.geom(2) * SymA.geom(4)
    assert closed == want


def test_fubini_rectangle():
    dom_ba = PresDomain((VarRange("b", lower=const(2)),
                         VarRange("a", lower=const(0))))
    assert P.sum(DOM_RECT, TERM_RECT) == P.sum(dom_ba, TERM_RECT)
    assert P.sum(DOM_RECT, TERM_RECT).as_syma() == \
        SymA.geom(1) * SymA.geom(2) * SymA.l_power(-4)


def test_shift_invariance():
    dom = PresDomain.single("i", lower=7)
    shifted = PresTerm(ONE, af({"i": -1}, 7))
    assert P.sum(dom, shifted) == P.sum(RAY, TERM)


def test_congruence_class_split():
    for d in (2, 3, 4):
        total = SymSum()
        for c in range(d):
            total = total + P.sum(
                PresDomain.single("i", lower=0, modulus=d, residue=c), TERM)
        assert total == P.sum(RAY, TERM)


# --- piecewise sums ---

def test_piecewise_partition():
    head = PresDomain.single("i", lower=0, upper=4)
    tail = PresDomain.single("i", lower=5)
    assert (P.sum(head, TERM) + P.sum(tail, TERM)).as_syma() == SymA.geom(1)


def test_piecewise_congruence_disjoint():
    even = PresDomain.single("i", lower=0, modulus=2, residue=0)
    odd = PresDomain.single("i", lower=0, modulus=2, residue=1)
    assert (P.sum(even, TERM) + P.sum(odd, TERM)).as_syma() == SymA.geom(1)


# --- truncated numeric evaluation ---

def test_truncated_geometric():
    partial, tail = evaluate_truncated(RAY, TERM, 2, 20)
    assert partial == 2 - F(1, 2 ** 20)
    assert tail == F(1, 2 ** 20)
    assert abs(P.sum(RAY, TERM).as_syma().nu(2) - partial) <= tail


def test_truncated_zero_depth():
    partial, tail = evaluate_truncated(RAY, TERM, 3, 0)
    assert partial == 1
    assert tail == F(1, 2)


def test_truncated_with_environment():
    s = P.sum(DOM_B, TERM_B)
    partial, tail = evaluate_truncated(DOM_B, TERM_B, 7, 30, env={"k": 0})
    assert abs(s.nu(7, {"k": 0}) - partial) <= tail
    partial, tail = evaluate_truncated(DOM_B, TERM_B, F(5, 2), 25,
                                       env={"k": 1})
    assert abs(s.nu(F(5, 2), {"k": 1}) - partial) <= tail


def test_truncated_two_variables():
    partial, tail = evaluate_truncated(DOM_RECT, TERM_RECT, 2, 12)
    assert abs(P.sum(DOM_RECT, TERM_RECT).as_syma().nu(2) - partial) <= tail


def test_truncated_downward_and_congruence():
    dom = PresDomain.single("i", upper=5)
    term = PresTerm(ONE, af({"i": 3}))
    partial, tail = evaluate_truncated(dom, term, 2, 10)
    assert abs(P.sum(dom, term).as_syma().nu(2) - partial) <= tail

    dom3 = PresDomain.single("i", lower=0, modulus=3, residue=1)
    partial, tail = evaluate_truncated(dom3, TERM, F(7, 2), 9)
    assert abs(P.sum(dom3, TERM).as_syma().nu(F(7, 2)) - partial) <= tail


# --- enumeration ---

def test_iterate_and_contains():
    dom2 = PresDomain((VarRange("k", lower=const(0)),
                       VarRange("m", lower=var("k") + 1)))
    pts = list(iterate(dom2, 3))
    for pt in pts:
        assert dom2.bind(pt) == PresDomain(())
    assert {(p["k"], p["m"]) for p in pts} == \
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


# --- binding an assignment ---

def test_bind_drops_assigned_variables():
    assert PresDomain.single("k", lower=0).bind({"k": 2}) == PresDomain(())
    assert PresDomain.single("k", lower=0).bind({}) == \
        PresDomain.single("k", lower=0)


def test_bind_substitutes_and_refuses_outside_points():
    dom = PresDomain((VarRange("k", lower=const(0), upper=const(6),
                               modulus=2, residue=0),
                      VarRange("m", lower=var("k") + 1,
                               upper=var("k").scale(2) + var("n"))))
    # k is checked and dropped, and its value enters the bounds of m
    assert dom.bind({"k": 2}) == PresDomain(
        (VarRange("m", lower=const(3), upper=var("n") + 4),))
    assert dom.bind({"k": 2, "n": 1, "m": 5}) == PresDomain(())
    # a wrong residue, and past either bound of k or of m
    for env in ({"k": 3}, {"k": -2}, {"k": 8},
                {"k": 2, "n": 1, "m": 2}, {"k": 2, "n": 1, "m": 6}):
        assert dom.bind(env) is None, env


def test_bind_refuses_a_bound_on_an_unassigned_name():
    dom = PresDomain((VarRange("k", lower=const(0)),
                      VarRange("m", lower=var("k") + 1)))
    with pytest.raises(UnsupportedFeature, match="range for m"):
        dom.bind({"m": 3})


# --- property tests ---

@given(lower=st.integers(-5, 5), coeff=st.integers(-4, -1),
       offset=st.integers(-3, 3), d=st.integers(2, 5))
def test_congruence_split_property(lower, coeff, offset, d):
    dom = PresDomain.single("i", lower=lower)
    term = PresTerm(ONE, af({"i": coeff}, offset))
    total = SymSum()
    for c in range(d):
        total = total + P.sum(
            PresDomain.single("i", lower=lower, modulus=d, residue=c), term)
    assert total == P.sum(dom, term)


@given(lower=st.integers(-5, 5), shift=st.integers(-6, 6),
       coeff=st.integers(-4, -1))
def test_shift_invariance_property(lower, shift, coeff):
    base = P.sum(PresDomain.single("i", lower=lower),
                 PresTerm(ONE, af({"i": coeff})))
    moved = P.sum(PresDomain.single("i", lower=lower + shift),
                  PresTerm(ONE, af({"i": coeff}, coeff * -shift)))
    assert moved == base


@given(la=st.integers(-3, 3), lb=st.integers(-3, 3),
       ca=st.integers(-3, -1), cb=st.integers(-3, -1))
def test_fubini_property(la, lb, ca, cb):
    term = PresTerm(ONE, af({"a": ca, "b": cb}))
    ab = PresDomain((VarRange("a", lower=const(la)),
                     VarRange("b", lower=const(lb))))
    ba = PresDomain((VarRange("b", lower=const(lb)),
                     VarRange("a", lower=const(la))))
    assert P.sum(ab, term) == P.sum(ba, term)


@given(lower=st.integers(-4, 4), coeff=st.integers(-4, -1),
       offset=st.integers(-2, 2), q=st.sampled_from([2, 3, F(5, 2)]),
       depth=st.integers(0, 16))
def test_truncation_bound_property(lower, coeff, offset, q, depth):
    dom = PresDomain.single("i", lower=lower)
    term = PresTerm(ONE, af({"i": coeff}, offset))
    partial, tail = evaluate_truncated(dom, term, q, depth)
    closed = P.sum(dom, term).as_syma().nu(q)
    assert abs(closed - partial) <= tail


# --- the one summation rule against the numeric reference ---

_ENDS = st.one_of(st.none(), st.integers(-4, 4).map(const),
                  st.integers(-3, 3).map(lambda c: var("k") + c))


@st.composite
def _single_ranges(draw):
    """(domain, term, k): one range whose ends are each absent, numeric
    or symbolic in the parameter k, with a modulus of 1-3, and a term
    L^(a*i + b*k + c) with a in -3..3.  A symbolic range is summed by
    telescoping, which counts its points only while lo <= up + 1, so k
    keeps it there."""
    lo, up = draw(_ENDS), draw(_ENDS)
    d = draw(st.integers(1, 3))
    c = draw(st.integers(0, d - 1))
    k = draw(st.integers(-3, 3))
    if lo is not None and up is not None:
        assume(lo.bind({"k": k}).const <= up.bind({"k": k}).const + 1)
    domain = PresDomain((VarRange("i", lo, up, d, c),))
    term = PresTerm(ONE, af({"i": draw(st.integers(-3, 3)),
                             "k": draw(st.integers(-2, 2))},
                            draw(st.integers(-2, 2))))
    return domain, term, k


def _one(lo, up, d, c, exponent, k):
    return (PresDomain((VarRange("i", lo, up, d, c),)),
            PresTerm(ONE, exponent), k)


@settings(max_examples=400, deadline=None)
@given(case=_single_ranges(), q=st.sampled_from([2, 3, F(7, 2)]))
# a downward ray, reflected with its residue, and a symbolic one
@example(case=_one(None, const(2), 3, 1, af({"i": 1}), 0), q=2)
@example(case=_one(None, var("k") + 1, 1, 0, af({"i": 2, "k": 1}), 1), q=3)
# a finite range with a > 0, an empty one, and one with a = 0
@example(case=_one(const(-2), const(3), 2, 1, af({"i": 3}), 0), q=2)
@example(case=_one(const(3), const(1), 1, 0, af({"i": -1}), 0), q=2)
@example(case=_one(const(-1), const(4), 2, 0, af({"k": 1}), 2), q=2)
def test_single_ranges_match_the_reference(case, q):
    """The closed form equals the reference's window sum plus its exact
    remainder, or both sides refuse a divergent sum; the engine alone
    refuses a congruence with a symbolic bound and the cardinality of a
    symbolic range."""
    domain, term, k = case
    (rng,) = domain.ranges
    symbolic = any(b is not None and not b.is_constant()
                   for b in (rng.lower, rng.upper))
    try:
        want = evaluate_truncated(domain, term, q, 12, {"k": k})
    except NotSummable:
        want = NotSummable
    try:
        got = P.sum(domain, term).nu(q, {"k": k})
    except NotSummable:
        got = NotSummable
    except UnsupportedFeature:
        assert symbolic and want is not NotSummable
        assert rng.modulus > 1 or (term.exponent.coeff("i") == 0
                                   and None not in (rng.lower, rng.upper))
        return
    if want is NotSummable:
        assert got is NotSummable
    else:
        partial, tail = want
        assert got == partial + tail
