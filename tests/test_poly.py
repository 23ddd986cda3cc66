"""The polynomial core: division, interpolation, the sign on (1, oo), and
integer factoring under the budget."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpcalc import poly
from dpcalc.errors import BudgetExceeded
from dpcalc.localfield import is_prime

_INTS = st.lists(st.integers(-9, 9), max_size=7).map(poly.trim)
_NONZERO = _INTS.filter(bool)


@given(a=_INTS, b=_NONZERO)
def test_divmod_identity(a, b):
    q, r = poly.divmod(a, b)
    assert poly.add(poly.mul(q, b), r) == a
    assert len(r) < len(b)
    if b[-1] == 1:
        assert all(type(c) is int for c in q + r)


@settings(max_examples=50)
@given(a=st.lists(st.fractions(-5, 5, max_denominator=4), max_size=5),
       xs=st.lists(st.integers(-20, 20), min_size=6, max_size=8,
                   unique=True))
def test_interpolate_round_trip(a, xs):
    a = poly.trim(a)
    assert poly.interpolate([(x, poly.evaluate(a, x)) for x in xs]) == a


# roots r with multiplicity m, positive-definite quadratics x^2 + b x + c
_ROOTS = st.dictionaries(st.fractions(-3, 4, max_denominator=4),
                         st.integers(1, 3), max_size=3)
_QUADRATICS = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                       max_size=2)


@settings(max_examples=150)
@given(sign=st.sampled_from([1, -1]), scale=st.integers(1, 6),
       roots=_ROOTS, quadratics=_QUADRATICS)
def test_nonneg_on_gt1_from_a_factorisation(sign, scale, roots, quadratics):
    a = [sign * scale]
    for r, m in roots.items():
        for _ in range(m):
            a = poly.mul(a, [-r, 1])
    for b, k in quadratics:
        a = poly.mul(a, [b * b // 4 + 1 + k, b, 1])
    want = sign > 0 and not any(r > 1 and m % 2 for r, m in roots.items())
    assert poly.nonneg_on_gt1(a) == want


@given(n=st.integers(1, 10 ** 6))
def test_factor_multiplies_back(n):
    f = poly.factor(n)
    assert all(is_prime(p) for p in f)
    assert list(f) == sorted(f)
    out = 1
    for p, e in f.items():
        out *= p ** e
    assert out == n


@pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 360, 1001])
def test_divisors_and_totient(n):
    assert sorted(poly.divisors(n)) == [d for d in range(1, n + 1)
                                        if n % d == 0]
    assert poly.totient(n) == sum(1 for k in range(1, n + 1)
                                  if F(k, n).denominator == n)


def _trial_factor(n):
    """The factorization of n >= 1 by trial division up to its root."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_from(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(
    st.integers(1, 10 ** 9),
    # past the trial divisors: left to Pollard's rho
    st.tuples(st.integers(1001, 50000), st.integers(1001, 50000),
              st.integers(1, 6)).map(
        lambda t: _prime_from(t[0]) * _prime_from(t[1]) * t[2]),
    # two primes of about 20 bits
    st.tuples(st.integers(2 ** 19, 2 ** 20),
              st.integers(2 ** 19, 2 ** 20)).map(
        lambda t: _prime_from(t[0]) * _prime_from(t[1]))))
def test_factor_matches_trial_division(n):
    # the primes come in ascending order
    assert list(poly.factor(n, 10 ** 8).items()) == \
        sorted(_trial_factor(n).items())


def test_rho_steps_are_charged_to_the_budget():
    n = 1000000007 * 1000000009
    assert poly.factor(n, 10 ** 5) == {1000000007: 1, 1000000009: 1}
    with pytest.raises(BudgetExceeded,
                       match="^trial divisions and rho steps factoring "
                             "%d exceed the budget of 10000$" % n):
        poly.factor(n, 10 ** 4)
    # within the trial divisors the trial message stands
    with pytest.raises(BudgetExceeded,
                       match="^trial divisions factoring %d exceed" % n):
        poly.factor(n, 100)


def test_factor_stops_at_a_prime_cofactor(monkeypatch):
    monkeypatch.delenv("DPCALC_BOX_BUDGET", raising=False)
    p = 999999999999999989
    assert poly.factor(-p) == {p: 1}
    assert poly.factor(8 * 101 * 10007) == {2: 3, 101: 1, 10007: 1}
    assert poly.factor(2 * p) == {2: 1, p: 1}


def test_factor_charges_only_the_divisions_it_makes(monkeypatch):
    # the square roots lie far past the default budget of trial
    # divisions, but the factors are found in a few steps
    monkeypatch.delenv("DPCALC_BOX_BUDGET", raising=False)
    assert poly.factor(10 ** 17) == {2: 17, 5: 17}
    assert poly.factor(2 ** 60) == {2: 60}
    # is_prime does not decide 47^15 (above 3.3e24, no factor up to 41)
    assert poly.factor(2 * 47 ** 15) == {2: 1, 47: 15}


def test_factor_stops_at_the_budget(monkeypatch):
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "10")
    assert poly.factor(4 * 97) == {2: 2, 97: 1}
    assert poly.factor(1000) == {2: 3, 5: 3}
    with pytest.raises(BudgetExceeded, match="exceed the budget of 10"):
        poly.factor(10007 * 10009)
    monkeypatch.delenv("DPCALC_BOX_BUDGET")
    assert poly.factor(10007 * 10009) == {10007: 1, 10009: 1}
