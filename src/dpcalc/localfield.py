"""Truncated arithmetic in Q_p and F_p((t)) with exact elements where possible.

Elements carry either an exact payload (a rational for Q_p, a rational
function of t over F_p for F_p((t))) or a finite digit window.  Arithmetic
propagates how many digits remain trustworthy; cancellation can leave an
element about which only a lower bound on the valuation is known.  Accessors
that need a significant digit (ord, ac, inv, digit reads) raise
PrecisionExhausted on such elements instead of guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DivisionByZero, InvalidArgument, InvalidPrime,
                     NoSimpleRoot, PrecisionExhausted)


class _Infinity:
    """The valuation of zero.  Compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("dpcalc-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self


INF = _Infinity()


def is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldKind(enum.Enum):
    CHAR_ZERO = "char_zero"    # Q_p
    EQUAL_CHAR = "equal_char"  # F_p((t))


@dataclass(frozen=True)
class LocalFieldSpec:
    kind: FieldKind
    prime: int
    precision: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise InvalidPrime("not a prime: %r" % (self.prime,))
        if not isinstance(self.precision, int) or self.precision < 1:
            raise InvalidArgument("precision must be a positive integer")

    def uniformizer(self):
        if self.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(self, Fraction(self.prime))
        return LFElem._exact(self, Fpt.gen(self.prime))

    def zero(self):
        if self.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(self, Fraction(0))
        return LFElem._exact(self, Fpt.zero(self.prime))

    def one(self):
        return embed_rational(1, self)


def qp(prime, precision):
    return LocalFieldSpec(FieldKind.CHAR_ZERO, prime, precision)


def fpt(prime, precision):
    return LocalFieldSpec(FieldKind.EQUAL_CHAR, prime, precision)


# --- polynomial helpers over F_p (coefficient lists, index = degree) ---

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _poly_trim(out)


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return _poly_trim(out)


def _poly_scale(a, c, p):
    c %= p
    return _poly_trim([x * c % p for x in a])


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        if len(a) < len(b) + i:
            continue
        c = a[len(b) + i - 1] * inv_lead % p
        if c:
            q[i] = c
            for j, d in enumerate(b):
                a[i + j] = (a[i + j] - c * d) % p
        _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        a = _poly_scale(a, pow(a[-1], -1, p), p)
    return a


def _series_inv(d, p, n):
    # inverse of d (d[0] != 0) as a power series mod t^n
    inv0 = pow(d[0], -1, p)
    out = [inv0] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc += d[j] * out[k - j]
        out[k] = (-acc * inv0) % p
    return out


class Fpt:
    """Exact element of F_p((t)): t^shift * num(t)/den(t), num(0), den(0) != 0."""

    __slots__ = ("p", "shift", "num", "den")

    def __init__(self, p, shift, num, den):
        num = _poly_trim(list(num))
        den = _poly_trim(list(den))
        if not den:
            raise ZeroDivisionError
        if not num:
            shift = 0
        else:
            while num[0] == 0:
                num.pop(0)
                shift += 1
            while den[0] == 0:
                den.pop(0)
                shift -= 1
            g = _poly_gcd(num, den, p)
            if len(g) > 1:
                num = _poly_divmod(num, g, p)[0]
                den = _poly_divmod(den, g, p)[0]
            c = pow(den[0], -1, p)
            num = _poly_scale(num, c, p)
            den = _poly_scale(den, c, p)
        self.p = p
        self.shift = shift
        self.num = tuple(num)
        self.den = tuple(den) if num else (1,)

    @classmethod
    def zero(cls, p):
        return cls(p, 0, [], [1])

    @classmethod
    def const(cls, p, c):
        return cls(p, 0, [c % p], [1])

    @classmethod
    def gen(cls, p):
        return cls(p, 1, [1], [1])

    def is_zero(self):
        return not self.num

    def valuation(self):
        return INF if self.is_zero() else self.shift

    def __eq__(self, other):
        return (isinstance(other, Fpt) and self.p == other.p
                and self.shift == other.shift and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.p, self.shift, self.num, self.den))

    def add(self, other):
        p = self.p
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        s = min(self.shift, other.shift)
        a = [0] * (self.shift - s) + list(_poly_mul(self.num, other.den, p))
        b = [0] * (other.shift - s) + list(_poly_mul(other.num, self.den, p))
        return Fpt(p, s, _poly_add(a, b, p), _poly_mul(self.den, other.den, p))

    def neg(self):
        return Fpt(self.p, self.shift, _poly_scale(self.num, -1, self.p), self.den)

    def mul(self, other):
        p = self.p
        if self.is_zero() or other.is_zero():
            return Fpt.zero(p)
        return Fpt(p, self.shift + other.shift,
                   _poly_mul(self.num, other.num, p),
                   _poly_mul(self.den, other.den, p))

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero in F_p((t))")
        return Fpt(self.p, -self.shift, self.den, self.num)

    def digits(self, n):
        # coefficients of t^shift, ..., t^(shift+n-1)
        if self.is_zero():
            return (0,) * n
        inv = _series_inv(list(self.den), self.p, n)
        out = []
        for k in range(n):
            acc = 0
            for j in range(min(k, len(self.num) - 1) + 1):
                acc += self.num[j] * inv[k - j]
            out.append(acc % self.p)
        return tuple(out)

    def __repr__(self):
        return "Fpt(p=%d, t^%d * %r / %r)" % (self.p, self.shift, self.num, self.den)


# --- rational valuation helpers ---

def _val_int(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _val_fraction(r, p):
    if r == 0:
        return INF
    return _val_int(r.numerator, p) - _val_int(r.denominator, p)


def _unit_digits(r, p, n):
    """Base-p digits of the unit part of a nonzero rational, length n."""
    v = _val_fraction(r, p)
    u = r / Fraction(p) ** v
    a, b = u.numerator, u.denominator
    s = a * pow(b, -1, p ** n) % p ** n
    out = []
    for _ in range(n):
        out.append(s % p)
        s //= p
    return tuple(out)


@dataclass(frozen=True)
class LFElem:
    """One field element.  exact=True: payload holds the value.
    exact=False: the element is ϖ^val * (digits + unknown tail); empty digits
    mean only ord >= val is known."""

    spec: LocalFieldSpec
    exact: bool
    payload: object = None
    val: int = 0
    known: tuple = ()

    @classmethod
    def _exact(cls, spec, payload):
        return cls(spec, True, payload)

    @classmethod
    def _approx(cls, spec, val, digits):
        digits = tuple(d % spec.prime for d in digits)
        # strip leading zeros into the valuation
        while digits and digits[0] == 0:
            digits = digits[1:]
            val += 1
        digits = digits[:spec.precision]
        return cls(spec, False, None, val, digits)

    # -- state predicates --

    def is_exact_zero(self):
        if not self.exact:
            return False
        if isinstance(self.payload, Fpt):
            return self.payload.is_zero()
        return self.payload == 0

    def is_indeterminate(self):
        """True when not even the leading digit is known."""
        return not self.exact and not self.known

    # -- accessors --

    def ord(self):
        """Valuation.  INF for exact zero; PrecisionExhausted if unknown."""
        if self.exact:
            if isinstance(self.payload, Fpt):
                return self.payload.valuation()
            return _val_fraction(self.payload, self.spec.prime)
        if not self.known:
            raise PrecisionExhausted(
                "valuation known only to be >= %d" % self.val)
        return self.val

    def ord_bounds(self):
        """(lower, upper) bounds on the valuation; upper is INF when open."""
        if self.exact or self.known:
            v = self.ord()
            return (v, v)
        return (self.val, INF)

    def ac(self):
        """Angular component: leading digit, or 0 for exact zero."""
        if self.is_exact_zero():
            return 0
        if self.is_indeterminate():
            raise PrecisionExhausted("leading digit undetermined")
        return self.digits(1)[0]

    def digits(self, n=None):
        """First n significant digits (from the valuation up)."""
        if n is None:
            n = self.spec.precision
        if self.exact:
            if self.is_exact_zero():
                return (0,) * n
            if isinstance(self.payload, Fpt):
                return self.payload.digits(n)
            return _unit_digits(self.payload, self.spec.prime, n)
        if not self.known:
            raise PrecisionExhausted("no significant digit determined")
        if n > len(self.known):
            raise PrecisionExhausted(
                "only %d digit(s) determined" % len(self.known))
        return self.known[:n]

    @property
    def valuation(self):
        """Spec-facing field: int, INF, or None when undetermined."""
        if self.exact or self.known:
            return self.ord()
        return None

    def __repr__(self):
        k = "Qp" if self.spec.kind is FieldKind.CHAR_ZERO else "Fpt"
        if self.exact:
            return "LFElem(%s_%d exact %r)" % (k, self.spec.prime, self.payload)
        if not self.known:
            return "LFElem(%s_%d ord>=%d ???)" % (k, self.spec.prime, self.val)
        return "LFElem(%s_%d ϖ^%d * %r...)" % (k, self.spec.prime, self.val, list(self.known))

    # -- operator sugar --

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(other))


def embed_rational(r, spec):
    """Exact image of a rational number.

    CharZero: any rational (negative valuations allowed).  EqualChar: the
    residue map a/b -> (a mod p)/(b mod p), so p must not divide b.
    """
    r = Fraction(r)
    if spec.kind is FieldKind.CHAR_ZERO:
        return LFElem._exact(spec, r)
    p = spec.prime
    if r.denominator % p == 0:
        raise InvalidPrime(
            "denominator of %s vanishes mod %d; no residue image" % (r, p))
    if r == 0:
        return LFElem._exact(spec, Fpt.zero(p))
    c = r.numerator * pow(r.denominator, -1, p) % p
    return LFElem._exact(spec, Fpt.const(p, c))


def _require_same_spec(a, b):
    if a.spec != b.spec:
        raise ValueError("elements of different fields: %r vs %r" % (a.spec, b.spec))


def _abs_known(e):
    """Absolute level below which every digit of e is known (INF if exact)."""
    if e.exact:
        return INF
    return e.val + len(e.known)


def _int_value_mod(e, low, high):
    """CharZero helper: integer congruent to e/p^low modulo p^(high-low).

    Caller guarantees low <= ord(e) and every digit of e below high is known.
    """
    p = e.spec.prime
    n = high - low
    if e.exact:
        r = e.payload
        if r == 0:
            return 0
        v = _val_fraction(r, p)
        if v >= high:
            return 0
        ds = _unit_digits(r, p, high - v)
        full = sum(d * p ** i for i, d in enumerate(ds))  # e / p^v mod p^(high-v)
        return (full * p ** (v - low)) % p ** n
    acc = 0
    for i, d in enumerate(e.known):
        pos = e.val + i
        if low <= pos < high:
            acc += d * p ** (pos - low)
    return acc % p ** n


def _digit_at(e, pos, n_ok):
    """Digit of e at absolute position pos (< n_ok known bound)."""
    p = e.spec.prime
    if e.exact:
        if e.is_exact_zero():
            return 0
        v = e.ord()
        if pos < v:
            return 0
        return e.digits(pos - v + 1)[pos - v]
    if pos < e.val:
        return 0
    idx = pos - e.val
    return e.known[idx] if idx < len(e.known) else 0


def add(a, b):
    _require_same_spec(a, b)
    spec = a.spec
    if a.exact and b.exact:
        if spec.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(spec, a.payload + b.payload)
        return LFElem._exact(spec, a.payload.add(b.payload))
    if a.is_exact_zero():
        return b
    if b.is_exact_zero():
        return a
    p = spec.prime
    bound = min(_abs_known(a), _abs_known(b))  # finite: at least one approx
    low = min(e.ord() if e.exact else e.val for e in (a, b))
    if bound <= low:
        # knowledge windows do not reach past the smaller valuation bound
        return LFElem._approx(spec, min(low, bound), ())
    n = bound - low
    if spec.kind is FieldKind.CHAR_ZERO:
        s = (_int_value_mod(a, low, bound) + _int_value_mod(b, low, bound)) % p ** n
        ds = []
        for _ in range(n):
            ds.append(s % p)
            s //= p
    else:
        ds = [( _digit_at(a, low + i, bound) + _digit_at(b, low + i, bound)) % p
              for i in range(n)]
    if all(d == 0 for d in ds):
        return LFElem._approx(spec, bound, ())
    return LFElem._approx(spec, low, ds)


def neg(a):
    spec = a.spec
    if a.exact:
        if spec.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(spec, -a.payload)
        return LFElem._exact(spec, a.payload.neg())
    if not a.known:
        return a
    p = spec.prime
    if spec.kind is FieldKind.EQUAL_CHAR:
        return LFElem._approx(spec, a.val, [(-d) % p for d in a.known])
    k = len(a.known)
    s = sum(d * p ** i for i, d in enumerate(a.known))
    s = (-s) % p ** k
    ds = []
    for _ in range(k):
        ds.append(s % p)
        s //= p
    return LFElem._approx(spec, a.val, ds)


def mul(a, b):
    _require_same_spec(a, b)
    spec = a.spec
    if a.exact and b.exact:
        if spec.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(spec, a.payload * b.payload)
        return LFElem._exact(spec, a.payload.mul(b.payload))
    if a.is_exact_zero() or b.is_exact_zero():
        return spec.zero()
    p = spec.prime

    def parts(e, k_other):
        # (val_lower, unit digit list or None) for the multiplication
        if e.exact:
            v = e.ord()
            return v, list(e.digits(min(spec.precision, k_other)))
        if not e.known:
            return e.val, None
        return e.val, list(e.known)

    ka = len(a.known) if not a.exact else spec.precision
    kb = len(b.known) if not b.exact else spec.precision
    va, da = parts(a, kb if kb else spec.precision)
    vb, db = parts(b, ka if ka else spec.precision)
    v = va + vb
    if da is None or db is None:
        return LFElem._approx(spec, v, ())
    k = min(len(da), len(db), spec.precision)
    if spec.kind is FieldKind.CHAR_ZERO:
        sa = sum(d * p ** i for i, d in enumerate(da[:k]))
        sb = sum(d * p ** i for i, d in enumerate(db[:k]))
        s = sa * sb % p ** k
        ds = []
        for _ in range(k):
            ds.append(s % p)
            s //= p
    else:
        ds = [0] * k
        for i in range(k):
            if da[i]:
                for j in range(k - i):
                    ds[i + j] = (ds[i + j] + da[i] * db[j]) % p
    return LFElem._approx(spec, v, ds)


def inv(a):
    spec = a.spec
    if a.exact:
        if a.is_exact_zero():
            raise DivisionByZero("inverse of exact zero")
        if spec.kind is FieldKind.CHAR_ZERO:
            return LFElem._exact(spec, 1 / a.payload)
        return LFElem._exact(spec, a.payload.inv())
    if not a.known:
        raise PrecisionExhausted(
            "cannot invert: element may be zero (ord >= %d)" % a.val)
    p = spec.prime
    k = len(a.known)
    if spec.kind is FieldKind.CHAR_ZERO:
        s = sum(d * p ** i for i, d in enumerate(a.known))
        s = pow(s, -1, p ** k)
        ds = []
        for _ in range(k):
            ds.append(s % p)
            s //= p
    else:
        ds = _series_inv(list(a.known), p, k)
    return LFElem._approx(spec, -a.val, ds)


def ac(a):
    return a.ac()


def from_digits(spec, val, digits):
    """Truncated element ϖ^val * (digits), digits tail unknown."""
    return LFElem._approx(spec, val, digits)


def hensel_lift(coeffs, x0, spec):
    """Lift a simple residue root x0 of f (integer coefficients, low-to-high
    degree) to spec.precision digits.  Requires f(x0) ≡ 0 and f'(x0) ≠ 0
    mod p; raises NoSimpleRoot otherwise.
    """
    p = spec.prime
    coeffs = [int(c) for c in coeffs]
    if not coeffs or all(c % p == 0 for c in coeffs):
        raise NoSimpleRoot("polynomial vanishes identically mod %d" % p)
    x0 = int(x0) % p
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    def ev(cs, x, m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    if ev(coeffs, x0, p) != 0:
        raise NoSimpleRoot("f(%d) != 0 mod %d" % (x0, p))
    if ev(dcoeffs, x0, p) == 0:
        raise NoSimpleRoot("f'(%d) == 0 mod %d: root is not simple" % (x0, p))

    n = spec.precision
    if spec.kind is FieldKind.EQUAL_CHAR:
        # coefficients lie in F_p, so the simple root is the constant x0
        return LFElem._exact(spec, Fpt.const(p, x0))
    x = x0
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p ** k
        fx = ev(coeffs, x, m)
        dfx = ev(dcoeffs, x, m)
        x = (x - fx * pow(dfx, -1, m)) % m
    assert ev(coeffs, x, p ** n) == 0
    ds = []
    s = x
    for _ in range(n):
        ds.append(s % p)
        s //= p
    if all(d == 0 for d in ds):
        return LFElem._approx(spec, n, ())
    return LFElem._approx(spec, 0, ds)
