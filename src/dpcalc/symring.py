"""The coefficient ring for symbolic integrals: Laurent polynomials in L
together with inverted factors (1 - L^-i), rational scalars admitted.

A nonzero value is stored as (shift, content, prim, den), meaning

    content * L^shift * prim(L) / prod_{(i, m) in den} (1 - L^-i)^m,

with `content` a nonzero Fraction, `prim` a tuple of coprime ints with a
nonzero constant and a positive leading coefficient, and `den` the sorted
multiset of (i, m) pairs.  Zero is the empty `prim`.  Up to a power of L
the denominator is prod (L^i - 1)^m_i = prod_d Phi_d^e_d, where e_d sums
m_i over the i that d divides.  The form is canonical when each Phi_d
that divides prim has been cancelled, up to e_d, and the cyclotomics left
over are covered by the smallest multiset of (1 - L^-i) factors (largest
index first), whose extra cyclotomics multiply prim.  Two values are equal
iff their forms coincide, which makes equality decidable and hashable.

The arithmetic stays in integers.  A product multiplies the contents and
the prims, whose product is again primitive by Gauss's lemma, except that
a factor c * L^k only scales the content and shifts; a sum lifts
both prims to the merged denominator, scales them to the lcm of the two
content denominators and takes one integer gcd.  Negation and scaling by
a rational never reduce.  The cancellation depends on prim and den only,
so it is one function, `_reduce`, memoized on that pair: the values of an
integration meet a few hundred distinct pairs over and over.  Every
division in it is by a monic cyclotomic, so it runs in integer
arithmetic.  Only the views `numerator` and `nu` turn coefficients into
Fractions: `nu` evaluates content * prim and the factors q^i - 1 at q,
in integers when q is an int, and builds one Fraction; `render` reduces
each coefficient of content * prim in integers.
Division by a unit peels its factors L^i - 1 by sparse division, then
reads the cyclotomics left over off roots of unity modulo primes.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import poly
from .budget import check_index
from .errors import NotInvertibleInA, ParseError
from .formula.parse import integer_literal, nested
from .localfield import is_prime

F0 = Fraction(0)
F1 = Fraction(1)
# distinct (prim, den) pairs the reduction keeps, some 700 bytes each;
# integrating the cube families and a stream of linear products meets
# under 400
REDUCE_MEMO = 1024


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


def _new(shift, content, prim, den):
    out = object.__new__(SymA)
    out._shift = shift
    out._content = content
    out._prim = prim
    out._den = den
    return out


def _reduced(shift, content, prim, den):
    """The canonical value content * L^shift * prim / den, for a primitive
    prim with a nonzero constant and a positive leading coefficient."""
    prim = tuple(prim)
    if den:
        prim, den, s = _reduce(prim, den)
        shift += s
    return _new(shift, content, prim, den)


class SymA:
    """One canonical ring value: content * L^shift * prim(L) / prod
    (1 - L^-i)^m.

    The constructor reads `num`, a map from degrees to int or Fraction
    coefficients, and `den`, a map from indices i > 0 to multiplicities."""

    __slots__ = ("_shift", "_content", "_prim", "_den")

    def __init__(self, num=None, den=None):
        num = {d: c for d, c in (num or {}).items() if c}
        den = {i: m for i, m in (den or {}).items() if m > 0}
        if any(i <= 0 for i in den):
            raise ValueError("denominator index must be positive")
        value = ZERO
        if num:
            shift = min(num)
            content, prim = poly.primitive(
                [num.get(d, 0) for d in range(shift, max(num) + 1)])
            value = _reduced(shift, content, prim, tuple(sorted(den.items())))
        self._shift = value._shift
        self._content = value._content
        self._prim = value._prim
        self._den = value._den

    # -- constructors --

    @classmethod
    def from_int(cls, n):
        return cls.from_fraction(n)

    @classmethod
    def from_fraction(cls, r):
        r = Fraction(r)
        return _new(0, r, (1,), ()) if r else ZERO

    @classmethod
    def l_power(cls, k):
        return _new(k, F1, (1,), ())

    @classmethod
    def geom(cls, i):
        """1 / (1 - L^-i)."""
        if i <= 0:
            raise ValueError("geometric factor index must be positive")
        return _reduced(0, F1, (1,), ((i, 1),))

    # -- views --

    @property
    def numerator(self):
        """Canonical Laurent numerator as {degree: Fraction}."""
        c, s = self._content, self._shift
        return {s + j: c * a for j, a in enumerate(self._prim) if a}

    @property
    def denominator(self):
        """Canonical multiset of (i, multiplicity) pairs, sorted by i."""
        return self._den

    def is_zero(self):
        return not self._prim

    def __bool__(self):
        return bool(self._prim)

    def __eq__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        if not isinstance(other, SymA):
            return NotImplemented
        return (self._shift == other._shift and self._prim == other._prim
                and self._content == other._content
                and self._den == other._den)

    def __hash__(self):
        return hash((self._shift, self._content, self._prim, self._den))

    # -- ring operations --

    def __add__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        if not isinstance(other, SymA):
            return NotImplemented
        if not other._prim:
            return self
        if not self._prim:
            return other
        a, sa, b, sb, den = self._prim, self._shift, other._prim, \
            other._shift, self._den
        if den != other._den:
            da, db = dict(den), dict(other._den)
            merged = {i: max(da.get(i, 0), db.get(i, 0)) for i in da | db}
            a, sa = _lift(a, sa, da, merged)
            b, sb = _lift(b, sb, db, merged)
            den = tuple(sorted(merged.items()))
        # over the lcm l of the content denominators the sum is an
        # integer numerator: (ka * L^sa * a + kb * L^sb * b) / l
        ca, cb = self._content, other._content
        l = math.lcm(ca.denominator, cb.denominator)
        ka = ca.numerator * (l // ca.denominator)
        kb = cb.numerator * (l // cb.denominator)
        lo = min(sa, sb)
        out = poly.add([0] * (sa - lo) + [ka * c for c in a],
                       [0] * (sb - lo) + list(b), kb)
        if not out:
            return ZERO
        low = next(j for j, c in enumerate(out) if c)
        content, prim = poly.primitive(out[low:])
        return _reduced(lo + low, content / l, prim, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self._shift, -self._content, self._prim, self._den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = SymA.from_int(other)
        return self + (-other)

    def __mul__(self, other):
        """The product.  A factor c * L^k, prim (1,) with no denominator,
        multiplies the other's content by c and adds k to its shift, which
        keeps the form canonical; such products (a constant exponent
        folded into a coefficient, a geometric ray) are most of those an
        integration takes.  Any other product multiplies the prims and
        reduces them against the merged denominator."""
        if isinstance(other, (int, Fraction)):
            if not other or not self._prim:
                return ZERO
            return _new(self._shift, self._content * other, self._prim,
                        self._den)
        if not isinstance(other, SymA):
            return NotImplemented
        if not self._prim or not other._prim:
            return ZERO
        if self._prim == (1,) and not self._den:
            self, other = other, self
        if other._prim == (1,) and not other._den:
            return _new(self._shift + other._shift,
                        self._content * other._content, self._prim,
                        self._den)
        den = self._den
        if other._den:
            if den:
                merged = dict(den)
                for i, m in other._den:
                    merged[i] = merged.get(i, 0) + m
                den = tuple(sorted(merged.items()))
            else:
                den = other._den
        return _reduced(self._shift + other._shift,
                        self._content * other._content,
                        poly.mul(self._prim, other._prim), den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = ONE
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
        # d = sign * L^shift * P / prod_j (1 - L^-j)^n_j with P the product
        # of the Phi_k^e_k.  Cover P by prod_i (L^i - 1)^c_i, which P
        # divides with quotient Q; since L^i - 1 = L^i (1 - L^-i),
        # 1/d = sign * L^(-shift - sum i c_i - sum j n_j)
        #       * Q * prod_j (L^j - 1)^n_j / prod_i (1 - L^-i)^c_i
        cover = _cover(exponents)
        top, shift = _lift([1], -shift, {}, cover)
        top, shift = _lift(poly.divmod(top, d._prim)[0], shift, {},
                           dict(d._den))
        return self * _reduced(shift, Fraction(sign), top,
                               tuple(sorted(cover.items())))

    def nu(self, q):
        """Exact specialization L -> q (q rational, q > 1 for the order).
        At an int q it runs in integers and builds one Fraction."""
        return Fraction(*self.nu_parts(q))

    def nu_parts(self, q, shift=0):
        """(n, d) with n / d = q^shift * nu(q), at a rational q: each
        factor 1 / (1 - q^-i)^m is q^(i*m) / (q^i - 1)^m.  At an int q
        both are integers."""
        if q == 0:
            raise ZeroDivisionError("nu at q = 0")
        if not self._prim:
            return 0, 1
        top = self._content.numerator * poly.evaluate(self._prim, q)
        bottom = self._content.denominator
        shift += self._shift
        for i, m in self._den:
            shift += i * m
            bottom *= (q ** i - 1) ** m
        if shift < 0:
            return top, bottom * q ** -shift
        return top * q ** shift, bottom

    def is_nonneg(self):
        """True iff nu_q(self) >= 0 for every real q > 1.

        The denominator factors are positive there, so the sign is the sign
        of content * prim, decided by `poly.nonneg_on_gt1`.
        """
        if self._content > 0:
            return poly.nonneg_on_gt1(self._prim)
        return poly.nonneg_on_gt1([-c for c in self._prim])

    # -- rendering / parsing --

    def render(self):
        if self.is_zero():
            return "0"
        # each coefficient content * a, reduced in integers
        top, bottom = self._content.numerator, self._content.denominator
        terms = [(self._shift + j, a) for j, a in enumerate(self._prim)
                 if a]
        parts = []
        plain = True
        for idx, (d, a) in enumerate(reversed(terms)):
            n = top * a
            g = math.gcd(n, bottom)
            n, den = n // g, bottom // g
            plain = plain and n > 0 and den == 1
            mag = "%d" % abs(n) if den == 1 else "%d/%d" % (abs(n), den)
            if d == 0:
                body = mag
            elif mag == "1":
                body = _fmt_lpow(d)
            else:
                body = "%s*%s" % (mag, _fmt_lpow(d))
            if idx == 0:
                parts.append("-" + body if n < 0 else body)
            else:
                parts.append((" - " if n < 0 else " + ") + body)
        num_text = "".join(parts)
        if not self._den:
            return num_text
        if len(terms) > 1 or not plain:
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


def _lift(prim, shift, den, target):
    """(prim, shift) times the (1 - L^-i) factors target has beyond den:
    each one is L^-i (L^i - 1)."""
    for i, m in target.items():
        for _ in range(m - den.get(i, 0)):
            prim = poly.add([0] * i + list(prim), prim, -1)
            shift -= i
    return prim, shift


def _cover(left):
    """The smallest multiset {i: c_i} of (L^i - 1) factors whose product
    the cyclotomics {d: e_d} divide: each Phi_d is covered, largest d
    first, by the factors chosen so far whose index d divides."""
    cover = {}
    for d in sorted(left, reverse=True):
        need = left[d] - sum(m for i, m in cover.items() if i % d == 0)
        if need > 0:
            cover[d] = need
    return cover


@functools.lru_cache(maxsize=REDUCE_MEMO)
def _reduce(prim, den):
    """The canonical (prim, den, shift) of prim / den: divide each Phi_d
    out of prim as often as it divides, up to e_d, re-cover what is left
    and multiply prim by the cyclotomics the cover adds.  The value moves
    by L^shift, since prod (1 - L^-i)^m is L^-(sum i m) prod (L^i - 1)^m."""
    left = {}
    for d in sorted(set().union(*(poly.divisors(i) for i, _ in den)),
                    reverse=True):
        e = sum(m for i, m in den if i % d == 0)
        # Phi_d has degree totient(d): past prim's degree it cannot divide
        # prim, and is left over without being built
        if poly.totient(d) < len(prim):
            phi = cyclotomic(d)
            while e:
                q, r = poly.divmod(prim, phi)
                if r:
                    break
                prim = q
                e -= 1
        if e:
            left[d] = e
    cover = _cover(left)
    for d in set().union(*map(poly.divisors, cover)):
        extra = sum(m for i, m in cover.items() if i % d == 0)
        for _ in range(extra - left.get(d, 0)):
            prim = poly.mul(prim, cyclotomic(d))
    shift = sum(i * m for i, m in den) - sum(i * m for i, m in cover.items())
    return tuple(prim), tuple(sorted(cover.items())), shift


def _unit_factorization(d):
    """Factor the numerator of d as sign * L^shift * prod_k Phi_k(L)^e_k;
    returns (sign, shift, {k: e_k}).

    Factors L^i - 1 are peeled first, largest i first, each by one sparse
    division; each cyclotomic Phi_k they leave is read off a root of
    unity of order k modulo a prime, among the k whose Phi_k is no
    longer than what is left, and divided out.
    Raises NotInvertibleInA when the numerator has any other irreducible
    factor or a non-unit integer content.
    """
    if d.is_zero():
        raise NotInvertibleInA("zero is not invertible")
    content = d._content
    if content.denominator != 1:
        raise NotInvertibleInA("non-integer content: %s" % d.render())
    if abs(content) != 1:
        raise NotInvertibleInA("content %d is not a unit" % content.numerator)
    prim = list(d._prim)

    def not_a_unit():
        return NotInvertibleInA(
            "%s is not a signed product of L-powers and cyclotomic "
            "factors" % d.render())

    # Phi_1 = L - 1 is its own reciprocal up to sign, every other Phi_k
    # exactly, and so is any product of them
    if prim[::-1] not in (prim, [-c for c in prim]):
        raise not_a_unit()
    exponents = {}
    # L^i - 1 divides prim iff prim's coefficients sum to zero in each
    # residue class of degrees mod i
    i = len(prim) - 1
    while i:
        if any(sum(prim[r::i]) for r in range(i)):
            i -= 1
            continue
        q = prim[i:]  # prim = q * (L^i - 1): q_j = q_(j-i) - prim_j
        for j in range(len(q)):
            q[j] = (q[j - i] if j >= i else 0) - prim[j]
        prim = q
        for k in poly.divisors(i):
            exponents[k] = exponents.get(k, 0) + 1
        i = min(i, len(prim) - 1)
    # a Phi_k left over vanishes at the primitive k-th roots of unity mod
    # any prime = 1 (mod k), so one evaluation there rules k out or in
    for k, phi in _orders(len(prim) - 1):
        if len(prim) == 1:
            break
        if phi >= len(prim):
            continue
        modulus, root = _root_of_unity(k)
        acc = 0
        for c in reversed(prim):
            acc = (acc * root + c) % modulus
        if acc:
            continue
        while True:
            quotient, r = poly.divmod(prim, cyclotomic(k))
            if r:
                break
            prim = quotient
            exponents[k] = exponents.get(k, 0) + 1
    if len(prim) > 1:
        raise not_a_unit()
    # prim is primitive with a positive leading coefficient, so it is [1]
    return content.numerator, d._shift, exponents


def _orders(bound):
    """(k, totient(k)) for every k > 1 with totient(k) <= bound, k
    increasing: the orders of the roots of unity of degree at most bound
    over Q."""
    primes = [p for p in range(2, bound + 2) if is_prime(p)]
    out = []

    def extend(k, phi, start):
        for j in range(start, len(primes)):
            p = primes[j]
            kp, phip = k * p, phi * (p - 1)
            if phip > bound:
                break
            while phip <= bound:
                out.append((kp, phip))
                extend(kp, phip, j + 1)
                kp, phip = kp * p, phip * p

    extend(1, 1, 0)
    return sorted(out)


@functools.lru_cache(maxsize=1024)
def _root_of_unity(k):
    """(q, g): the least prime q = 1 (mod k) and the least g whose order
    mod q is k."""
    q = k + 1
    while not is_prime(q):
        q += k
    primes = poly.factor(k, k)
    for h in range(2, q):
        g = pow(h, (q - 1) // k, q)
        if all(pow(g, k // p, q) != 1 for p in primes):
            return q, g
    raise AssertionError(k)


def _fmt_lpow(d):
    if d == 1:
        return "L"
    return "L^%d" % d


# --- tiny expression parser for the rendering grammar ---

_TOKEN = re.compile(r"\s*(?:(\d+)|(L)|(\^)|(\*)|(/)|(\+)|(-)|(\()|(\)))")
_EXPONENT = re.compile(r"\^\s*-?\s*(\d+)")


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
        self.depth = 0  # the parentheses and unary minuses open

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
            return -nested(self, self.unary)
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
            e = integer_literal(t)
            if neg:
                e = -e
            if e >= 0:
                return base ** e
            return SymA.from_int(1).div_by_unit(base ** (-e))
        return base

    def atom(self):
        t = self.take()
        if t == "(":
            v = nested(self, self.expr)
            if self.take() != ")":
                raise ParseError("expected ')' in ring expression")
            return v
        if t == "L":
            return SymA.l_power(1)
        if t.isdigit():
            return SymA.from_int(integer_literal(t))
        raise ParseError("unexpected token %r in ring expression" % t)


def _divide(v, w):
    # integer/rational constant divisors scale the content; unit-shaped
    # divisors go through div_by_unit
    if w._prim == (1,) and not w._shift and not w._den:
        return v * (1 / w._content)
    return v.div_by_unit(w)


def _parse_syma(text):
    """text in the rendering grammar as a ring value.  Every exponent in
    it, an L-power, a geometric index or a power of a sum, is held to the
    ring index limit before anything is built."""
    for m in _EXPONENT.finditer(text):
        check_index(integer_literal(m.group(1)),
                    "the ring index %s in a ring expression" % m.group(1))
    return _SymAParser(_tokenize_syma(text)).parse()


ZERO = _new(0, F0, (), ())
ONE = SymA.from_int(1)
L = SymA.l_power(1)
