"""The coefficient ring: canonical forms, arithmetic, specialization, order."""

import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import symring_reference as reference
from dpcalc import poly, symring
from dpcalc.errors import BudgetExceeded, NotInvertibleInA, ParseError
from dpcalc.symring import ONE, ZERO, L, SymA
from symring_reference import one_minus_l_inv

parse_a = SymA.parse

FLAG = one_minus_l_inv(1) * SymA.geom(4)
HALF_CUBE = SymA({3: F(1, 2), 1: F(-1, 2)})


# --- sign decisions on (1, oo), used by is_nonneg ---

@pytest.mark.parametrize("coeffs, want", [
    ([-2, 1], False),           # x - 2
    ([0, -1, 1], True),         # x^2 - x
    ([1], True),
    ([-1], False),
    ([4, -4, 1], True),         # (x-2)^2
    ([2, -3, 1], False),        # (x-1)(x-2)
    ([0, -1, 0, 1], True),      # x(x-1)(x+1)
    ([-1, 2, -1], False),       # -(x-1)^2
    ([1, -2, 1], True),         # (x-1)^2
    ([-10001, 10000], False),   # root at 1.0001
    ([-8, 12, -6, 1], False),   # (x-2)^3
    ([-12, 16, -7, 1], False),  # (x-2)^2 (x-3)
    ([12, -8, -1, 1], True),    # (x-2)^2 (x+3)
    ([0, 1], True),             # x
    ([6, -5, 1], False),        # (x-2)(x-3)
    ([-6, 11, -6, 1], False),   # (x-1)(x-2)(x-3)
    ([36, -60, 37, -10, 1], True),  # ((x-2)(x-3))^2
])
def test_nonneg_on_gt1(coeffs, want):
    assert poly.nonneg_on_gt1(list(coeffs)) == want


# --- canonical form ---

def test_flagship_normal_form():
    assert FLAG.render() == "(1 - L^-1)/(1 - L^-4)"
    assert FLAG.denominator == ((4, 1),)


def test_telescoped_partial_sum():
    acc = ZERO
    for k in range(4):
        acc = acc + one_minus_l_inv(1) * SymA.l_power(-4 * k)
    tail = one_minus_l_inv(1) * SymA.l_power(-16) * SymA.geom(4)
    assert acc + tail == FLAG


def test_canonicalization_idempotent():
    again = SymA(dict(FLAG.numerator), dict(FLAG.denominator))
    assert again == FLAG
    assert again.render() == FLAG.render()


def test_hash_follows_canonical_form():
    assert hash(FLAG) == hash(one_minus_l_inv(1) * SymA.geom(4))


# --- unit division ---

def test_div_by_unit_basic():
    w = one_minus_l_inv(1).div_by_unit(one_minus_l_inv(4))
    assert w == FLAG
    u = one_minus_l_inv(2).div_by_unit(one_minus_l_inv(1))
    assert u.render() == "1 + L^-1"
    assert ONE.div_by_unit(L) == SymA.l_power(-1)


def test_div_by_unit_with_denominator_divisor():
    # d has its own denominator; x/d = x * (1 - L^-4)/(1 - L^-1)
    r = ONE.div_by_unit(FLAG)
    assert r == one_minus_l_inv(4).div_by_unit(one_minus_l_inv(1))


@pytest.mark.parametrize("bad", [SymA.from_int(2), L + 2])
def test_div_by_unit_rejects_nonunits(bad):
    with pytest.raises(NotInvertibleInA):
        ONE.div_by_unit(bad)


def test_div_by_unit_accepts_cyclotomic_units():
    # L + 1 = Phi_2 = L (1 - L^-2)/(1 - L^-1) is a unit of A
    inverse = SymA.parse("(L^-1 - L^-2)/(1 - L^-2)")
    assert ONE.div_by_unit(L + 1) == inverse
    assert SymA.parse("1/(L + 1)") == inverse
    assert inverse * (L + 1) == ONE
    # and so is 1 + L^-1, which div_by_unit itself prints
    u = one_minus_l_inv(2).div_by_unit(one_minus_l_inv(1))
    assert u.div_by_unit(u) == ONE


# --- arithmetic identities ---

def test_geom_identities():
    assert SymA.geom(1) * one_minus_l_inv(1) == ONE
    assert SymA.geom(1) - ONE == SymA.l_power(-1) * SymA.geom(1)
    assert (L - 1) * SymA.geom(1) == L


def test_polynomial_arithmetic():
    assert HALF_CUBE.render() == "1/2*L^3 - 1/2*L"
    assert HALF_CUBE * 2 == L ** 3 - L
    assert (L ** 2) * (L ** 3) == SymA.l_power(5)
    assert (FLAG - FLAG).is_zero()


# --- specialization nu_q ---

def test_nu_values():
    assert FLAG.nu(7) == F(343, 400)
    assert FLAG.nu(F(7)) == F(6, 7) / (1 - F(1, 2401))
    assert SymA.geom(2).nu(3) == F(9, 8)
    assert HALF_CUBE.nu(5) == F(60)


# --- order facts ---

@pytest.mark.parametrize("elem, want", [
    (L - 2, False),
    (L ** 2 - L, True),
    (SymA.geom(3), True),
    (SymA.l_power(5) - SymA.l_power(2), True),
    (-(L - 1), False),
    (ZERO, True),
    ((L - 2) ** 2, True),
    (FLAG, True),
    (-FLAG, False),
])
def test_is_nonneg(elem, want):
    assert elem.is_nonneg() == want


# --- rendering and parsing ---

SAMPLES = [
    FLAG,
    HALF_CUBE,
    SymA.geom(2),
    one_minus_l_inv(2).div_by_unit(one_minus_l_inv(1)),
    ZERO,
    ONE,
    -FLAG,
    one_minus_l_inv(1) * SymA.l_power(-6) * SymA.geom(2),
    SymA({0: F(1), -1: F(-4)}) * SymA.geom(2) * SymA.geom(2),
    SymA({2: F(3, 7)}),
]


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: s.render())
def test_render_parse_round_trip(sample):
    assert SymA.parse(sample.render()) == sample


def test_parse_handwritten_forms():
    assert parse_a("(1 - L^-1)/(1 - L^-4)") == FLAG
    assert parse_a("1/2*L^3 - 1/2*L") == HALF_CUBE
    assert parse_a("L^2 - 2*L + 1") == (L - 1) ** 2
    assert parse_a("(1 - L^-1)^2/(1 - L^-2)^2") == \
        (one_minus_l_inv(1) * SymA.geom(2)) ** 2


@pytest.mark.parametrize("text, index", [
    ("1/(1 - L^-100000000000)", "100000000000"),
    ("L^100000001", "100000001"),
    ("(1 + L)^ 100000001", "100000001"),
    ("1 - L^ - 123456789012345", "123456789012345"),
])
def test_parse_holds_every_exponent_to_the_ring_index_limit(monkeypatch,
                                                            text, index):
    # checked before anything is built, and no budget lifts the limit
    monkeypatch.setenv("DPCALC_BOX_BUDGET", str(10 ** 18))
    with pytest.raises(BudgetExceeded) as info:
        parse_a(text)
    assert str(info.value) == ("the ring index %s in a ring expression "
                               "exceeds the budget of 100000000" % index)


def test_parse_takes_indices_up_to_the_limit_under_any_budget(monkeypatch):
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "1")
    assert parse_a("L^100000000 * L^-100000000") == ONE
    assert parse_a("(1 - L^-1)/(1 - L^-35)") == \
        one_minus_l_inv(1) * SymA.geom(35)


@pytest.mark.parametrize("text", ["1" * 5000, "L^" + "1" * 5000,
                                  "(L + 1)^" + "2" * 5000,
                                  "1/(1 - L^-%s)" % ("3" * 5000)])
def test_parse_refuses_an_over_long_literal(text):
    with pytest.raises(ParseError) as info:
        SymA.parse(text)
    assert str(info.value) == "an integer literal of 5000 digits is too long"


def test_truncated_level_sum_render():
    piece = one_minus_l_inv(1) * SymA.l_power(-6) * SymA.geom(2)
    assert piece.render() == "(L^-6 - L^-7)/(1 - L^-2)"


# --- property tests ---

_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_numerators = st.dictionaries(st.integers(-4, 4), _fractions, max_size=4)


@st.composite
def ring_elements(draw):
    elem = SymA(draw(_numerators))
    for i in draw(st.lists(st.integers(1, 4), max_size=3)):
        elem = elem * SymA.geom(i)
    return elem


_q_values = st.sampled_from([2, 3, 7, F(5, 2), F(7, 3), 11])


@given(a=ring_elements(), b=ring_elements(), q=_q_values)
def test_nu_is_a_ring_homomorphism(a, b, q):
    assert (a + b).nu(q) == a.nu(q) + b.nu(q)
    assert (a * b).nu(q) == a.nu(q) * b.nu(q)


@given(a=ring_elements())
def test_round_trip_property(a):
    assert SymA.parse(a.render()) == a


@given(a=ring_elements(), b=ring_elements(), c=ring_elements())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(a=ring_elements())
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=200, deadline=None)
@given(a=ring_elements(),
       c=st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
           bool),
       k=st.integers(-8, 8))
def test_an_l_power_product_is_the_dense_product(a, c, k):
    """c * L^k times a value, on either side, only scales and shifts it:
    the product is the value built afresh from the scaled, shifted
    numerator over the same denominator."""
    dense = SymA({d + k: c * x for d, x in a.numerator.items()},
                 dict(a.denominator))
    factor = SymA({k: c})
    assert a * factor == factor * a == dense
    assert (a * factor).render() == dense.render()


# --- differential tests against the reference canonicalisation ---

def _times_one_minus_l_inv(num, i):
    out = dict(num)
    for d, c in num.items():
        out[d - i] = out.get(d - i, F(0)) - c
    return out


@st.composite
def raw_forms(draw, top=12, most=4):
    """An uncanonical (numerator, denominator) pair with rational content,
    indices up to `top` and multiplicities up to `most`, whose numerator
    carries (1 - L^-i) factors that often share cyclotomics with the
    denominator."""
    den = draw(st.dictionaries(st.integers(1, top), st.integers(0, most),
                               max_size=3))
    num = draw(st.dictionaries(
        st.integers(-6, 6),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=5))
    shared = sorted({d for i in den for d in range(1, i + 1) if i % d == 0})
    indices = st.integers(1, top)
    if shared:
        indices = st.sampled_from(shared) | indices
    for i in draw(st.lists(indices, max_size=4)):
        num = _times_one_minus_l_inv(num, i)
    return num, den


@settings(max_examples=300, deadline=None)
@given(form=raw_forms())
def test_canonical_form_matches_reference(form):
    num, den = form
    elem = SymA(num, den)
    assert (tuple(elem.numerator.items()), elem.denominator) == \
        reference._canonicalize(dict(num), dict(den))


@settings(max_examples=200, deadline=None)
@given(form=raw_forms(), q=st.integers(2, 13))
def test_nu_at_an_integer_is_the_fraction_path(form, q):
    """At an int q > 1, nu runs in integers: it equals nu at the
    Fraction q and the reference's evaluation of the canonical form,
    whose shifts run negative and whose denominators hold several
    factors.  The same code at the rational q + 1/2 agrees too."""
    elem = SymA(*form)
    got = elem.nu(q)
    assert type(got) is F
    assert got == elem.nu(F(q)) == reference.nu(elem.numerator,
                                                elem.denominator, q)
    half = F(2 * q + 1, 2)
    assert elem.nu(half) == reference.nu(elem.numerator, elem.denominator,
                                         half)


_unit_shapes = st.tuples(
    st.integers(-5, 5),
    st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1, -1])),
             max_size=4),
    st.sampled_from([ONE, -ONE, SymA.from_int(2), SymA.from_fraction(F(1, 2)),
                     L + 1, L ** 2 + 1]))


def _as_cyclotomic(factorization):
    """The reference's sign * L^shift * prod (1 - L^-i)^r_i as
    sign * L^shift' * prod Phi_k^e_k, since (1 - L^-i) is L^-i times the
    product of Phi_k over k | i."""
    sign, shift, factors = factorization
    exponents = {}
    for i, r in factors.items():
        shift -= i * r
        for k in range(1, i + 1):
            if i % k == 0:
                exponents[k] = exponents.get(k, 0) + r
    return sign, shift, exponents


@settings(max_examples=200, deadline=None)
@given(shape=_unit_shapes)
def test_unit_division_matches_reference(shape):
    """Every shape is a unit except those with content 2 or 1/2.  The
    reference factors only products of (L^i - 1), so it also rejects
    cyclotomic units such as L + 1 and 1 + L^-1; where it accepts, the
    factorizations agree."""
    k, factors, extra = shape
    d = SymA.l_power(k) * extra
    for i, sign in factors:
        d = d * (one_minus_l_inv(i) if sign > 0 else SymA.geom(i))
    if extra in (SymA.from_int(2), SymA.from_fraction(F(1, 2))):
        for factor in (reference._unit_factorization,
                       symring._unit_factorization, ONE.div_by_unit):
            with pytest.raises(NotInvertibleInA):
                factor(d)
        return
    assert ONE.div_by_unit(d) * d == ONE
    try:
        want = reference._unit_factorization(d)
    except NotInvertibleInA:
        return
    assert symring._unit_factorization(d) == _as_cyclotomic(want)


# --- the integer core against naive Fraction arithmetic ---

def _form(elem):
    return tuple(elem.numerator.items()), elem.denominator


def _reference_form(raw):
    num, den = raw
    return reference._canonicalize(dict(num), dict(den))


def _naive_scale(raw, r):
    num, den = raw
    return {d: F(c) * r for d, c in num.items()}, den


def _naive_mul(a, b):
    (na, da), (nb, db) = a, b
    num = {}
    for d1, c1 in na.items():
        for d2, c2 in nb.items():
            num[d1 + d2] = num.get(d1 + d2, F(0)) + F(c1) * c2
    den = dict(da)
    for i, m in db.items():
        den[i] = den.get(i, 0) + m
    return num, den


def _naive_add(a, b):
    den = {i: max(a[1].get(i, 0), b[1].get(i, 0))
           for i in set(a[1]) | set(b[1])}
    out = {}
    for num, own in (a, b):
        for i, m in den.items():
            for _ in range(m - own.get(i, 0)):
                num = _times_one_minus_l_inv(num, i)
        for d, c in num.items():
            out[d] = out.get(d, F(0)) + c
    return out, den


_nonzero_fractions = _fractions.filter(bool)
# operands small enough that the reference's expanded denominators of
# their products stay cheap
_operands = raw_forms(top=6, most=2)


@settings(max_examples=150, deadline=None)
@given(a=_operands, b=_operands, r=_nonzero_fractions, n=st.integers(0, 2))
def test_integer_core_matches_reference(a, b, r, n):
    x, y = SymA(*a), SymA(*b)
    assert _form(x + y) == _reference_form(_naive_add(a, b))
    assert _form(x - y) == _reference_form(
        _naive_add(a, _naive_scale(b, -1)))
    assert _form(-x) == _reference_form(_naive_scale(a, -1))
    assert _form(x * y) == _reference_form(_naive_mul(a, b))
    assert _form(x.scale(r)) == _reference_form(_naive_scale(a, r))
    power = ({0: F(1)}, {})
    for _ in range(n):
        power = _naive_mul(power, a)
    assert _form(x ** n) == _reference_form(power)


@settings(max_examples=100, deadline=None)
@given(a=_operands, b=_operands, r=_nonzero_fractions, k=st.integers(-6, 6))
def test_content_and_shift_leave_the_reduction_alone(a, b, r, k):
    """x and r * L^k * x reduce the same primitive numerator over the same
    denominator, so they share one memo entry; each result must still be
    the reference's form."""
    moved = ({d + k: F(c) * r for d, c in a[0].items()}, a[1])
    x, y = SymA(*moved), SymA(*b)
    assert _form(x) == _reference_form(moved)
    assert x == SymA(*a) * SymA.l_power(k) * r
    assert _form(x + y) == _reference_form(_naive_add(moved, b))
    assert _form(x * y) == _reference_form(_naive_mul(moved, b))


@st.composite
def units_with_inverses(draw):
    """A raw unit sign * L^k * prod (1 - L^-i)^(+-1) and its inverse."""
    sign, k = draw(st.sampled_from([1, -1])), draw(st.integers(-5, 5))
    unit, inverse = ({k: F(sign)}, {}), ({-k: F(sign)}, {})
    for i, on_top in draw(st.lists(st.tuples(st.integers(1, 12),
                                             st.booleans()), max_size=3)):
        # (1 - L^-i) joins the numerator of one, the denominator of the other
        up, down = (unit, inverse) if on_top else (inverse, unit)
        up = (_times_one_minus_l_inv(up[0], i), up[1])
        down = (down[0], {**down[1], i: down[1].get(i, 0) + 1})
        unit, inverse = (up, down) if on_top else (down, up)
    return unit, inverse


@settings(max_examples=150, deadline=None)
@given(a=_operands, pair=units_with_inverses())
def test_div_by_unit_matches_reference(a, pair):
    unit, inverse = pair
    got = SymA(*a).div_by_unit(SymA(*unit))
    assert _form(got) == _reference_form(_naive_mul(a, inverse))


def test_large_unit_is_peeled_at_once():
    # L^2000 - 1 is one sparse division, not a search over cyclotomics
    start = time.perf_counter()
    value = SymA.parse("1/(1 - L^-2000)")
    assert time.perf_counter() - start < 0.5
    assert value == SymA.geom(2000)
    assert value * one_minus_l_inv(2000) == ONE
    # no product of cyclotomics has coefficients that are not symmetric
    start = time.perf_counter()
    with pytest.raises(NotInvertibleInA):
        SymA.parse("1/(L^2000 + 2)")
    assert time.perf_counter() - start < 0.5


def test_a_large_cyclotomic_is_read_off_a_root_of_unity():
    # Phi_2000 alone, of degree 800: each order k whose Phi_k is short
    # enough is ruled out by one evaluation at a root of unity mod a
    # prime, not by a division by Phi_k
    src = os.path.dirname(os.path.dirname(os.path.abspath(symring.__file__)))
    code = ("from dpcalc.symring import SymA\n"
            "print(SymA.parse('1/(L^800 - L^600 + L^400 - L^200 + 1)'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == \
        "(L^-800 + L^-1000 - L^-1800 - L^-2000)/(1 - L^-2000)\n"


@settings(max_examples=100, deadline=None)
@given(orders=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       power=st.integers(1, 2))
def test_cyclotomic_units_are_factored(orders, power):
    """A product of cyclotomics Phi_k(L)^power factors into exactly those
    k, each found whatever else the product holds."""
    d = ONE
    want = {}
    for k in orders:
        d = d * SymA({i: c for i, c in enumerate(symring.cyclotomic(k))}) \
            ** power
        want[k] = want.get(k, 0) + power
    assert symring._unit_factorization(d) == (1, 0, want)
    assert ONE.div_by_unit(d) * d == ONE
