"""Truncated field arithmetic, exact embeddings, and simple-root lifting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpcalc import localfield as lf
from dpcalc.formula import (VfAdd, VfConst, VfMul, VfNeg, VfPow, VfSub,
                            VfUnif, eval_vf_term)
from dpcalc.errors import InvalidArgument, InvalidPrime, PrecisionExhausted
from dpcalc.localfield import (INF, Fpt, embed_rational, from_digits,
                               is_prime, mul, power)
from hensel_reference import NoSimpleRoot, hensel_lift


# --- primality and spec validation ---

def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(9)
    assert is_prime(1009)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 10 ** 5))


def test_is_prime_rejects_pseudoprimes():
    # 19*199*271 is a Carmichael number and 53*157 a strong pseudoprime
    # to base 2, neither with a factor among the Miller-Rabin bases; the
    # last is a strong pseudoprime to every prime base up to 31
    for n in (19 * 199 * 271, 53 * 157, 151 * 751 * 28351,
              149491 * 747451 * 34233211):
        assert pow(2, n - 1, n) == 1
        assert not is_prime(n)
    assert is_prime(2 ** 64 - 59) and is_prime(2 ** 61 - 1)


def test_is_prime_refuses_what_its_bases_do_not_decide():
    with pytest.raises(InvalidArgument):
        is_prime(2 ** 89 - 1)
    # a base still divides this one, which decides it
    assert not is_prime(2 ** 90)


def test_spec_validation():
    with pytest.raises(InvalidPrime):
        lf.qp(4, 6)
    with pytest.raises(InvalidPrime):
        lf.fpt(1, 6)
    with pytest.raises(ValueError):
        lf.qp(5, 0)


def test_infinity_ordering():
    assert INF > 10 ** 9
    assert INF >= INF
    assert not (INF < 5)
    assert INF + 1 == INF
    assert 1 + INF == INF


@given(p=st.sampled_from([2, 3, 5, 7, 31]), v=st.integers(0, 3000),
       u=st.integers(1, 10 ** 6), sign=st.sampled_from([1, -1]))
def test_valuation_of_an_integer(p, v, u, sign):
    if u % p == 0:
        u += 1
    assert lf._val_int(sign * u * p ** v, p) == v


# --- exact embeddings ---

def test_embed_char_zero():
    q7 = lf.qp(7, 6)
    x = embed_rational(98, q7)
    assert x.ord() == 2
    assert x.ac() == 2
    assert x.digits(3) == (2, 0, 0)
    assert embed_rational(F(1, 7), q7).ord() == -1
    assert embed_rational(0, q7).ord() is INF
    assert embed_rational(0, q7).ac() == 0


def test_embed_equal_char_residue_map():
    f5 = lf.fpt(5, 6)
    x = embed_rational(F(2, 3), f5)
    # 2/3 = 2 * 3^-1 = 2 * 2 = 4 in F_5
    assert x.ord() == 0
    assert x.ac() == 4
    with pytest.raises(InvalidPrime):
        embed_rational(F(1, 5), f5)


def test_uniformizer():
    for spec in (lf.qp(3, 6), lf.fpt(3, 6)):
        pi = spec.uniformizer()
        assert pi.ord() == 1
        assert pi.ac() == 1
    assert lf.qp(3, 6).one().ord() == 0


def test_exact_arithmetic_matches_rationals():
    q5 = lf.qp(5, 6)
    a = embed_rational(F(3, 4), q5)
    b = embed_rational(F(7, 2), q5)
    assert (a + b) == embed_rational(F(3, 4) + F(7, 2), q5)
    assert (a * b) == embed_rational(F(21, 8), q5)
    assert (a - b) == embed_rational(F(3, 4) - F(7, 2), q5)


# --- digit windows ---

def test_from_digits_normalizes_leading_zeros():
    q5 = lf.qp(5, 6)
    x = from_digits(q5, 0, (0, 0, 2))
    assert x.ord() == 2
    assert x.digits(1) == (2,)


def test_indeterminate_elements():
    q5 = lf.qp(5, 6)
    x = from_digits(q5, 1, ())
    assert x.is_indeterminate()
    assert x.ord_bounds() == (1, INF)
    with pytest.raises(PrecisionExhausted):
        x.ord()
    with pytest.raises(PrecisionExhausted):
        x.ac()


def test_addition_with_cancellation():
    q5 = lf.qp(5, 6)
    x = from_digits(q5, 0, (3,))
    y = from_digits(q5, 0, (2,))
    s = x + y
    # 3 + 2 = 5: the known window cancels, only ord >= 1 survives
    assert s.is_indeterminate()
    assert s.ord_bounds() == (1, INF)


def test_addition_with_carry():
    q5 = lf.qp(5, 8)
    x = from_digits(q5, 0, (4, 1))
    y = from_digits(q5, 0, (3, 0))
    s = x + y
    # (4 + 1*5) + 3 = 12 = 2 + 2*5
    assert s.ord() == 0
    assert s.digits(2) == (2, 2)


def test_multiplication_adds_valuations():
    q7 = lf.qp(7, 6)
    x = from_digits(q7, 1, (2,))
    y = from_digits(q7, 2, (3,))
    z = x * y
    assert z.ord() == 3
    assert z.ac() == 6


def test_negation_digits():
    q5 = lf.qp(5, 6)
    x = from_digits(q5, 0, (1,))
    assert (-x).digits(1) == (4,)
    f5 = lf.fpt(5, 6)
    y = from_digits(f5, 0, (1, 2))
    assert (-y).digits(2) == (4, 3)


def test_mixed_exact_and_window():
    q5 = lf.qp(5, 8)
    exact = embed_rational(7, q5)       # digits 2, 1, 0, ...
    window = from_digits(q5, 0, (1, 1))
    s = exact + window
    assert s.ord() == 0
    assert s.digits(2) == (3, 2)


# --- formal Laurent series ---

def test_fpt_field_axioms():
    p = 7
    t = Fpt.gen(p)
    one = Fpt.const(p, 1)
    x = t.mul(t).add(Fpt.const(p, 3))        # 3 + t^2
    assert x.mul(one) == x
    assert x.add(x.neg()).is_zero()
    assert Fpt.zero(p).valuation() is INF


def test_fpt_shift_normalization():
    p = 3
    x = Fpt(p, 0, [0, 0, 2])  # 2 t^2 presented with leading zeros
    assert x.shift == 2
    assert x.num == (2,)


# --- simple-root lifting ---

def test_square_root_of_two_lift():
    q7 = lf.qp(7, 5)
    r = hensel_lift([-2, 0, 1], 3, q7)
    val = sum(d * 7 ** i for i, d in enumerate(r.digits(5)))
    assert (val * val - 2) % 7 ** 5 == 0
    other = hensel_lift([-2, 0, 1], 4, q7)
    val2 = sum(d * 7 ** i for i, d in enumerate(other.digits(5)))
    assert (val + val2) % 7 ** 5 == 0  # the two lifts are negatives


def test_no_residue_root_refused():
    with pytest.raises(NoSimpleRoot):
        hensel_lift([-2, 0, 1], 1, lf.qp(3, 5))  # 2 is not a square mod 3


def test_multiple_root_refused():
    with pytest.raises(NoSimpleRoot):
        hensel_lift([0, 0, 1], 0, lf.qp(5, 4))


def test_vanishing_polynomial_refused():
    with pytest.raises(NoSimpleRoot):
        hensel_lift([3, 6], 0, lf.qp(3, 4))


def test_cube_roots_of_unity():
    q7 = lf.qp(7, 6)
    roots = []
    for r0 in range(7):
        if (r0 ** 3 - 1) % 7 == 0:
            lifted = hensel_lift([-1, 0, 0, 1], r0, q7)
            val = sum(d * 7 ** i for i, d in enumerate(lifted.digits(6)))
            assert (val ** 3 - 1) % 7 ** 6 == 0
            roots.append(r0)
    assert roots == [1, 2, 4]
    assert [r for r in range(5) if (r ** 3 - 1) % 5 == 0] == [1]
    with pytest.raises(NoSimpleRoot):
        hensel_lift([-1, 0, 0, 1], 2, lf.qp(5, 6))


def test_equal_char_lift_is_constant():
    f7 = lf.fpt(7, 6)
    r = hensel_lift([-1, 0, 0, 1], 2, f7)
    assert r.exact
    cube = r * r * r
    assert cube == embed_rational(1, f7)


# --- property tests ---

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(a=_rationals, b=_rationals)
def test_char_zero_embedding_is_a_homomorphism(a, b):
    q7 = lf.qp(7, 6)
    ea, eb = embed_rational(a, q7), embed_rational(b, q7)
    assert ea + eb == embed_rational(a + b, q7)
    assert ea * eb == embed_rational(a * b, q7)
    assert -ea == embed_rational(-a, q7)


@given(x=st.integers(-10 ** 6, 10 ** 6).filter(lambda n: n != 0))
def test_digit_expansion_reconstructs_integers(x):
    q5 = lf.qp(5, 8)
    e = embed_rational(x, q5)
    v = e.ord()
    ds = e.digits(4)
    assert ds[0] != 0
    approx = sum(d * 5 ** (v + i) for i, d in enumerate(ds))
    assert (x - approx) % 5 ** (v + 4) == 0


@st.composite
def fpt_elements(draw, p=5):
    num = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    shift = draw(st.integers(-3, 3))
    return Fpt(p, shift, num)


@given(a=fpt_elements(), b=fpt_elements(), c=fpt_elements())
def test_fpt_ring_laws(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


# --- exact F_p((t)) against a dictionary of coefficients ---

_P = 5

_closed_terms = st.recursive(
    st.one_of(st.just(VfUnif()), st.builds(VfConst, st.builds(
        F, st.integers(-30, 30),
        st.integers(1, 30).filter(lambda d: d % _P)))),
    lambda kids: st.one_of(
        st.builds(VfAdd, kids, kids), st.builds(VfSub, kids, kids),
        st.builds(VfMul, kids, kids), st.builds(VfNeg, kids),
        st.builds(VfPow, kids, st.integers(0, 4))),
    max_leaves=8)


def _times(a, b):
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = (out.get(i + j, 0) + c * d) % _P
    return {k: c for k, c in out.items() if c}


def _coefficients(term):
    """A closed field term as {power of t: nonzero coefficient mod p}."""
    if isinstance(term, VfUnif):
        return {1: 1}
    if isinstance(term, VfConst):
        c = term.value.numerator * pow(term.value.denominator, -1, _P) % _P
        return {0: c} if c else {}
    if isinstance(term, VfNeg):
        return {k: -c % _P for k, c in _coefficients(term.operand).items()}
    if isinstance(term, VfPow):
        out, base = {0: 1}, _coefficients(term.base)
        for _ in range(term.exponent):
            out = _times(out, base)
        return out
    a, b = _coefficients(term.left), _coefficients(term.right)
    if isinstance(term, VfMul):
        return _times(a, b)
    sign = 1 if isinstance(term, VfAdd) else -1
    out = dict(a)
    for k, c in b.items():
        out[k] = (out.get(k, 0) + sign * c) % _P
    return {k: c for k, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(term=_closed_terms, n=st.integers(1, 8))
def test_exact_fpt_terms_match_their_coefficients(term, n):
    got = eval_vf_term(term, lf.fpt(_P, n), {})
    want = _coefficients(term)
    assert got.exact
    v = min(want, default=INF)
    assert got.ord() == v
    assert got.digits(n) == tuple(want.get(v + i, 0) for i in range(n))


@st.composite
def field_elements(draw):
    """An exact or a truncated element of Q_5 or F_5((t)) at precision 4,
    the truncated ones with 0 to 6 known digits."""
    spec = draw(st.sampled_from([lf.qp(5, 4), lf.fpt(5, 4)]))
    if draw(st.booleans()):
        r = draw(st.fractions(min_value=-30, max_value=30,
                              max_denominator=12))
        if spec.kind is lf.FieldKind.EQUAL_CHAR and r.denominator % 5 == 0:
            r = F(r.numerator)
        e = embed_rational(r, spec)
        return e * spec.uniformizer() if draw(st.booleans()) else e
    digits = draw(st.lists(st.integers(0, 4), max_size=6))
    return from_digits(spec, draw(st.integers(-2, 3)), digits)


@given(a=field_elements(), n=st.integers(0, 12))
def test_power_is_the_repeated_product(a, n):
    want = a.spec.one()
    for _ in range(n):
        want = mul(want, a)
    assert power(a, n) == want
