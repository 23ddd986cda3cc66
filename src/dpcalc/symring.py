"""The coefficient ring for symbolic integrals: Laurent polynomials in L
together with inverted factors (1 - L^-i), rational scalars admitted.

Every value is kept in a canonical shape: a Laurent numerator over a
denominator multiset {(i, m_i)} of (1 - L^-i) factors.  Up to a power of
L the denominator is prod (L^i - 1)^m_i = prod_d Phi_d^e_d, where e_d sums
m_i over the i that d divides.  Canonicalization divides each cyclotomic
Phi_d out of the primitive integer numerator as often as it divides, up to
e_d, re-covers the cyclotomics left over by the smallest multiset of
(1 - L^-i) factors (largest index first), and multiplies the numerator by
the cyclotomics the cover adds.  Every division is by a monic integer
polynomial, so it runs in integer arithmetic.  Two values are equal iff
their canonical forms coincide, which makes equality decidable and hashable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import NotInvertibleInA, ParseError
from . import realroots

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


def _zdiv_monic(a, b):
    """Quotient a/b for a monic integer b, or None when b does not divide a.

    Monic divisors keep every step in the integers."""
    n = len(b) - 1
    low = [(j, c) for j, c in enumerate(b[:n]) if c]
    r = list(a)
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n]
        if c:
            q[k] = c
            for j, bc in low:
                r[k + j] -= c * bc
    if any(r[:n]):
        return None
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
            num = _zdiv_monic(num, cyclotomic(e))
    _cyclotomic_cache[d] = num
    return num


class SymA:
    """One canonical ring value: Laurent numerator / prod (1 - L^-i)^m.

    `num` maps degrees to int or Fraction coefficients, `den` maps
    indices i > 0 to multiplicities."""

    __slots__ = ("_num", "_den")

    def __init__(self, num=None, den=None):
        num = dict(num or {})
        den = dict(den or {})
        cnum, cden = _canonicalize(num, den)
        self._num = cnum
        self._den = cden

    # -- constructors --

    @classmethod
    def from_int(cls, n):
        return cls({0: Fraction(n)})

    @classmethod
    def from_fraction(cls, r):
        return cls({0: Fraction(r)})

    @classmethod
    def l_power(cls, k):
        return cls({k: Fraction(1)})

    @classmethod
    def geom(cls, i):
        """1 / (1 - L^-i)."""
        if i <= 0:
            raise ValueError("geometric factor index must be positive")
        return cls({0: Fraction(1)}, {i: 1})

    @classmethod
    def one_minus_l_inv(cls, i):
        return cls({0: Fraction(1), -i: Fraction(-1)})

    # -- views --

    @property
    def numerator(self):
        """Canonical Laurent numerator as {degree: Fraction}."""
        return dict(self._num)

    @property
    def denominator(self):
        """Canonical multiset of (i, multiplicity) pairs, sorted by i."""
        return self._den

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        if not isinstance(other, SymA):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    # -- ring operations --

    def _numdict(self):
        return dict(self._num)

    def __add__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        if not isinstance(other, SymA):
            return NotImplemented
        da = dict(self._den)
        db = dict(other._den)
        merged = {i: max(da.get(i, 0), db.get(i, 0)) for i in set(da) | set(db)}
        na = _lift(self._numdict(), da, merged)
        nb = _lift(other._numdict(), db, merged)
        for d, c in nb.items():
            na[d] = na.get(d, F0) + c
        return SymA(na, merged)

    __radd__ = __add__

    def __neg__(self):
        return SymA({d: -c for d, c in self._num}, dict(self._den))

    def __sub__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return SymA.from_int(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymA({d: c * other for d, c in self._numdict().items()},
                        dict(self._den))
        if not isinstance(other, SymA):
            return NotImplemented
        na, nb = self._numdict(), other._numdict()
        out = {}
        for d1, c1 in na.items():
            for d2, c2 in nb.items():
                k = d1 + d2
                out[k] = out.get(k, F0) + c1 * c2
        den = dict(self._den)
        for i, m in other._den:
            den[i] = den.get(i, 0) + m
        return SymA(out, den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = SymA.from_int(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def scale(self, r):
        return self * Fraction(r)

    def div_by_unit(self, d):
        """Divide by d, which must be (up to sign) a product of a power of L,
        factors (1 - L^-i), and their inverses.  Raises NotInvertibleInA
        otherwise."""
        if isinstance(d, int):
            d = SymA.from_int(d)
        sign, shift, factors = _unit_factorization(d)
        # 1/d = sign * L^-shift * prod_{d's den} (1 - L^-i)^m / prod factors
        inv_num = _lift({-shift: Fraction(sign)}, {}, dict(d._den))
        return self * SymA(inv_num, factors)

    def nu(self, q):
        """Exact specialization L -> q (q rational, q > 1 for the order)."""
        q = Fraction(q)
        if q == 0:
            raise ZeroDivisionError("nu at q = 0")
        acc = F0
        for d, c in self._num:
            acc += c * q ** d
        for i, m in self._den:
            f = 1 - q ** (-i)
            if f == 0:
                raise ZeroDivisionError("denominator vanishes at q = %s" % q)
            acc /= f ** m
        return acc

    def is_nonneg(self):
        """True iff nu_q(self) >= 0 for every real q > 1.

        The denominator factors are positive there, so the sign is the sign
        of the cleared numerator polynomial, decided by Sturm sequences.
        """
        if self.is_zero():
            return True
        num = self._numdict()
        mn = min(num)
        l = 1
        for c in num.values():
            l = math.lcm(l, c.denominator)
        dense = [int(num.get(d, F0) * l) for d in range(mn, max(num) + 1)]
        return realroots.nonneg_on_gt1(dense)

    # -- rendering / parsing --

    def render(self):
        if self.is_zero():
            return "0"
        num = self._numdict()
        parts = []
        for idx, d in enumerate(sorted(num, reverse=True)):
            c = num[d]
            mag = abs(c)
            if d == 0:
                body = _fmt_fraction(mag)
            elif mag == 1:
                body = _fmt_lpow(d)
            else:
                body = "%s*%s" % (_fmt_fraction(mag), _fmt_lpow(d))
            if idx == 0:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        num_text = "".join(parts)
        if not self._den:
            return num_text
        if len(num) > 1 or any(c < 0 or c.denominator != 1 for c in num.values()):
            num_text = "(%s)" % num_text
        den_text = "*".join(
            "(1 - %s)" % _fmt_lpow(-i) + ("^%d" % m if m > 1 else "")
            for i, m in self._den)
        if len(self._den) > 1:
            den_text = "(%s)" % den_text
        return "%s/%s" % (num_text, den_text)

    __str__ = render

    def __repr__(self):
        return "SymA(%s)" % self.render()

    @classmethod
    def parse(cls, text):
        return _parse_syma(text)


def _lift(num, den, target):
    """Multiply num by the expanded missing (1 - L^-i) factors of target/den."""
    out = dict(num)
    for i, m in target.items():
        for _ in range(m - den.get(i, 0)):
            nxt = {}
            for d, c in out.items():
                nxt[d] = nxt.get(d, F0) + c
                nxt[d - i] = nxt.get(d - i, F0) - c
            out = {d: c for d, c in nxt.items() if c != 0}
    return out


def _canonicalize(num, den):
    num = {d: c for d, c in num.items() if c}
    den = {i: m for i, m in den.items() if m > 0}
    for i in den:
        if i <= 0:
            raise ValueError("denominator index must be positive")
    if not num:
        return (), ()
    # content g/l, signed so that the primitive part has a positive leading
    # coefficient
    mn, mx = min(num), max(num)
    l = math.lcm(*(c.denominator for c in num.values()))
    g = math.gcd(*(c.numerator for c in num.values()))
    if num[mx] < 0:
        g = -g
    prim = [0] * (mx - mn + 1)
    for d, c in num.items():
        prim[d - mn] = c.numerator * (l // c.denominator) // g
    if not den:
        return _to_form(g, l, mn, prim, {})
    # prod (L^i - 1)^m_i is prod_d Phi_d^e_d, e_d the sum of m_i over d | i:
    # cancel each Phi_d from the numerator as often as it divides, up to e_d
    left = {}
    for d in sorted(set().union(*map(_divisors, den)), reverse=True):
        e = sum(m for i, m in den.items() if i % d == 0)
        phi = cyclotomic(d)
        while e:
            q = _zdiv_monic(prim, phi)
            if q is None:
                break
            prim = q
            e -= 1
        if e:
            left[d] = e
    # cover what is left by (L^i - 1) factors, largest i first (left is in
    # descending order), and put the cyclotomics the cover adds on top
    newden = {}
    for d, r in left.items():
        need = r - sum(m for i, m in newden.items() if i % d == 0)
        if need > 0:
            newden[d] = need
    for d in set().union(*map(_divisors, newden)):
        extra = sum(m for i, m in newden.items() if i % d == 0)
        for _ in range(extra - left.get(d, 0)):
            prim = _zmul(prim, cyclotomic(d))
    shift = sum(i * m for i, m in den.items()) - \
        sum(i * m for i, m in newden.items())
    return _to_form(g, l, mn + shift, prim, newden)


def _to_form(g, l, shift, prim, den):
    num = tuple((shift + j, Fraction(g * c, l))
                for j, c in enumerate(prim) if c)
    return num, tuple(sorted(den.items()))


def _unit_factorization(d):
    """Factor the numerator of d as sign * L^shift * prod (1 - L^-i)^r_i.

    Raises NotInvertibleInA when the numerator has any other irreducible
    factor or a non-unit integer content.
    """
    if d.is_zero():
        raise NotInvertibleInA("zero is not invertible")
    num = d._numdict()
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
            q = _zdiv_monic(prim, base)
            if q is not None:
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


def _fmt_fraction(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _fmt_lpow(d):
    if d == 1:
        return "L"
    return "L^%d" % d


# --- tiny expression parser for the rendering grammar ---

_TOKEN = re.compile(r"\s*(?:(\d+)|(L)|(\^)|(\*)|(/)|(\+)|(-)|(\()|(\)))")


def _tokenize_syma(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError("unexpected character %r in ring expression" % rest[0])
        pos = m.end()
        tok = m.group(0).strip()
        if tok:
            out.append(tok)
    return out


class _SymAParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of ring expression")
        self.i += 1
        return t

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ParseError("trailing tokens in ring expression: %r" % self.peek())
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            w = self.unary()
            if op == "*":
                v = v * w
            else:
                v = _divide(v, w)
        return v

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            t = self.take()
            if not t.isdigit():
                raise ParseError("exponent must be an integer, got %r" % t)
            e = int(t)
            if neg:
                e = -e
            if e >= 0:
                return base ** e
            return SymA.from_int(1).div_by_unit(base ** (-e))
        return base

    def atom(self):
        t = self.take()
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise ParseError("expected ')' in ring expression")
            return v
        if t == "L":
            return SymA.l_power(1)
        if t.isdigit():
            return SymA.from_int(int(t))
        raise ParseError("unexpected token %r in ring expression" % t)


def _divide(v, w):
    # integer/rational constant divisors scale the content; unit-shaped
    # divisors go through div_by_unit
    wn = dict(w._num)
    if not w._den and set(wn) == {0}:
        return v * (1 / wn[0])
    return v.div_by_unit(w)


def _parse_syma(text):
    return _SymAParser(_tokenize_syma(text)).parse()


L = SymA.l_power(1)
ONE = SymA.from_int(1)
ZERO = SymA.from_int(0)
