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

import re
from fractions import Fraction

from . import poly
from .errors import NotInvertibleInA, ParseError

F0 = Fraction(0)


_cyclotomic_cache = {1: [-1, 1]}


def cyclotomic(d):
    """The d-th cyclotomic polynomial as a dense integer list."""
    if d in _cyclotomic_cache:
        return _cyclotomic_cache[d]
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in sorted(poly.divisors(d)):
        if e < d:
            num = poly.divmod(num, cyclotomic(e))[0]
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
        """Divide by d, which must be a unit of A: up to sign a power of L
        times cyclotomic polynomials Phi_k(L) to integer powers, which
        covers the factors (1 - L^-i) and their inverses.  Raises
        NotInvertibleInA otherwise."""
        if isinstance(d, int):
            d = SymA.from_int(d)
        sign, shift, exponents = _unit_factorization(d)
        # 1/Phi_k = L^-k * ((L^k - 1)/Phi_k) / (1 - L^-k), so
        # 1/d = sign * L^-shift * prod_{d's den} (1 - L^-i)^m
        #       * prod_k (L^-k (L^k - 1)/Phi_k)^e_k / prod_k (1 - L^-k)^e_k
        top = [1]
        for k, e in exponents.items():
            shift += k * e
            rest = poly.divmod([-1] + [0] * (k - 1) + [1], cyclotomic(k))[0]
            for _ in range(e):
                top = poly.mul(top, rest)
        inv_num = _lift({j - shift: Fraction(sign * c)
                         for j, c in enumerate(top) if c}, {}, dict(d._den))
        return self * SymA(inv_num, exponents)

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
        of the numerator polynomial, decided by `poly.nonneg_on_gt1`.
        """
        if self.is_zero():
            return True
        return poly.nonneg_on_gt1(_dense(self._numdict())[1])

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
    mn, dense = _dense(num)
    content, prim = poly.primitive(dense)
    if not den:
        return _to_form(content, mn, prim, {})
    # prod (L^i - 1)^m_i is prod_d Phi_d^e_d, e_d the sum of m_i over d | i:
    # cancel each Phi_d from the numerator as often as it divides, up to e_d
    left = {}
    for d in sorted(set().union(*map(poly.divisors, den)), reverse=True):
        e = sum(m for i, m in den.items() if i % d == 0)
        phi = cyclotomic(d)
        while e:
            q, r = poly.divmod(prim, phi)
            if r:
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
    for d in set().union(*map(poly.divisors, newden)):
        extra = sum(m for i, m in newden.items() if i % d == 0)
        for _ in range(extra - left.get(d, 0)):
            prim = poly.mul(prim, cyclotomic(d))
    shift = sum(i * m for i, m in den.items()) - \
        sum(i * m for i, m in newden.items())
    return _to_form(content, mn + shift, prim, newden)


def _dense(num):
    """(lowest degree, dense coefficient list) of a nonzero {degree:
    coefficient} numerator."""
    mn = min(num)
    return mn, [num.get(d, 0) for d in range(mn, max(num) + 1)]


def _to_form(content, shift, prim, den):
    g, l = content.numerator, content.denominator
    num = tuple((shift + j, Fraction(g * c, l))
                for j, c in enumerate(prim) if c)
    return num, tuple(sorted(den.items()))


def _unit_factorization(d):
    """Factor the numerator of d as sign * L^shift * prod_k Phi_k(L)^e_k;
    returns (sign, shift, {k: e_k}).

    Raises NotInvertibleInA when the numerator has any other irreducible
    factor or a non-unit integer content.
    """
    if d.is_zero():
        raise NotInvertibleInA("zero is not invertible")
    mn, dense = _dense(d._numdict())
    content, prim = poly.primitive(dense)
    if content.denominator != 1:
        raise NotInvertibleInA("non-integer content: %s" % d.render())
    if abs(content) != 1:
        raise NotInvertibleInA("content %d is not a unit" % content.numerator)
    exponents = {}
    k = 0
    while len(prim) > 1:
        k += 1
        deg = len(prim) - 1
        # totient(k) >= sqrt(k/2), so no Phi_k of degree <= deg is left
        if k > 2 * deg * deg:
            raise NotInvertibleInA(
                "%s is not a signed product of L-powers and cyclotomic "
                "factors" % d.render())
        if poly.totient(k) > deg:
            continue
        while True:
            q, r = poly.divmod(prim, cyclotomic(k))
            if r:
                break
            prim = q
            exponents[k] = exponents.get(k, 0) + 1
    # prim is primitive with a positive leading coefficient, so it is [1]
    return content.numerator, mn, exponents


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
