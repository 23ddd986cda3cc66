"""Reference canonicalisation for the differential tests in test_symring.py.

This is the earlier algorithm, kept verbatim: reduce the rational function
over Q by a Fraction polynomial gcd with the expanded denominator, factor
the reduced denominator into cyclotomics by trial division, and re-cover
it by (1 - L^-i) factors, largest index first.  Canonical forms are
unique, so `SymA` must produce exactly the forms this module produces.
"""

import math
from fractions import Fraction

from dpcalc.errors import NotInvertibleInA

F0 = Fraction(0)


# --- dense integer polynomial helpers (index = degree) ---

def _ztrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _ztrim(out)


def _zdiv_maybe(a, b):
    """Exact division a/b over Q; returns (quotient_ints, True) or (None, False)."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while _ztrim(list(a)) and len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, bc in enumerate(b):
            a[i + d] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    if _ztrim(list(a)):
        return None, False
    out = []
    for c in q:
        if c.denominator != 1:
            return None, False
        out.append(int(c))
    return _ztrim(out), True


def _zdiv_exact(a, b):
    q, ok = _zdiv_maybe(a, b)
    assert ok, "inexact polynomial division"
    return q


def _zprimitive(a):
    """(content, primitive) with primitive having positive leading coefficient."""
    g = 0
    for c in a:
        g = math.gcd(g, abs(c))
    if g == 0:
        return 0, []
    if a[-1] < 0:
        g = -g
    return g, [c // g for c in a]


def _zgcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a = [Fraction(c) for c in _ztrim(list(a))]
    b = [Fraction(c) for c in _ztrim(list(b))]
    while b:
        r = list(a)
        while _ztrim(list(r)) and len(r) >= len(b):
            c = r[-1] / b[-1]
            d = len(r) - len(b)
            for i, bc in enumerate(b):
                r[i + d] -= c * bc
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _ztrim(r)
    if not a:
        return []
    l = 1
    for c in a:
        l = math.lcm(l, c.denominator)
    ints = [int(c * l) for c in a]
    return _zprimitive(ints)[1]


def _divisors(n):
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


_cyclotomic_cache = {1: [-1, 1]}


def cyclotomic(d):
    """The d-th cyclotomic polynomial as a dense integer list."""
    if d in _cyclotomic_cache:
        return _cyclotomic_cache[d]
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in sorted(_divisors(d)):
        if e < d:
            num = _zdiv_exact(num, cyclotomic(e))
    _cyclotomic_cache[d] = num
    return num


def _expand_den(den):
    """Expanded integer polynomial prod (x^i - 1)^m for a multiset dict."""
    out = [1]
    for i, m in den.items():
        base = [0] * i + [1]
        base[0] = -1
        for _ in range(m):
            out = _zmul(out, base)
    return out


def _canonicalize(num, den):
    num = {d: Fraction(c) for d, c in num.items() if c != 0}
    den = {i: m for i, m in den.items() if m > 0}
    for i in den:
        if i <= 0:
            raise ValueError("denominator index must be positive")
    if not num:
        return (), ()
    mn = min(num)
    dense = [num.get(d, F0) for d in range(mn, max(num) + 1)]
    l = 1
    g = 0
    for c in dense:
        l = math.lcm(l, c.denominator)
        g = math.gcd(g, abs(c.numerator))
    content = Fraction(g, l)
    if dense[-1] < 0:
        content = -content
    prim = [int(c / content) for c in dense]
    if not den:
        return _to_form(content, mn, prim, {})
    W = sum(i * m for i, m in den.items())
    E = _expand_den(den)
    G = _zgcd(prim, E)
    if len(G) > 1:
        R = _zdiv_exact(E, G)
        prim = _zdiv_exact(prim, G)
    else:
        R = E
    R_saved = list(R)
    mult = {}
    cand = set()
    for i in den:
        cand |= _divisors(i)
    for d in sorted(cand, reverse=True):
        phi = cyclotomic(d)
        while len(R) >= len(phi):
            q, ok = _zdiv_maybe(R, phi)
            if not ok:
                break
            R = q
            mult[d] = mult.get(d, 0) + 1
    assert R == [1], "reduced denominator is not a product of cyclotomics"
    newden = {}
    for d in sorted(mult, reverse=True):
        need = mult[d] - sum(m for i, m in newden.items() if i % d == 0)
        if need > 0:
            newden[d] = need
    W2 = sum(i * m for i, m in newden.items())
    S = _zdiv_exact(_expand_den(newden), R_saved)
    prim = _zmul(prim, S)
    return _to_form(content, mn + W - W2, prim, newden)


def _to_form(content, shift, prim, den):
    num = tuple(sorted((shift + j, content * c)
                       for j, c in enumerate(prim) if c != 0))
    return num, tuple(sorted(den.items()))


def _unit_factorization(d):
    """Factor the numerator of d as sign * L^shift * prod (1 - L^-i)^r_i.

    Raises NotInvertibleInA when the numerator has any other irreducible
    factor or a non-unit integer content.
    """
    if d.is_zero():
        raise NotInvertibleInA("zero is not invertible")
    num = d.numerator
    mn = min(num)
    dense = [num.get(k, F0) for k in range(mn, max(num) + 1)]
    if any(c.denominator != 1 for c in dense):
        raise NotInvertibleInA("non-integer content: %s" % d.render())
    ints = [int(c) for c in dense]
    content, prim = _zprimitive(ints)
    if abs(content) != 1:
        raise NotInvertibleInA("content %d is not a unit" % content)
    sign = content
    factors = {}
    shift = mn
    while prim != [1]:
        deg = len(prim) - 1
        if deg == 0:
            raise NotInvertibleInA("constant %d is not a unit" % prim[0])
        hit = False
        for i in range(deg, 0, -1):
            base = [0] * i + [1]
            base[0] = -1
            q, ok = _zdiv_maybe(prim, base)
            if ok:
                prim = q
                # (L^i - 1) = L^i (1 - L^-i)
                factors[i] = factors.get(i, 0) + 1
                shift += i
                hit = True
                break
        if not hit:
            raise NotInvertibleInA(
                "%s is not a signed product of L-powers and (1 - L^-i)"
                % d.render())
    return sign, shift, factors
