"""Truncated arithmetic in Q_p and F_p((t)) with exact elements where possible.

Elements carry either an exact payload (a rational for Q_p, a Laurent
polynomial t^shift * num(t) over F_p for F_p((t))) or a finite digit
window.  Exact elements are closed under +, - and *, which is all that
formulas and their rational constants build; there is no division.
Arithmetic propagates how many digits remain trustworthy; cancellation can
leave an element about which only a lower bound on the valuation is known.
Accessors that need a significant digit (ord, ac, digit reads) raise
PrecisionExhausted on such elements instead of guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InvalidArgument, InvalidPrime, NoSimpleRoot,
                     PrecisionExhausted)


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


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is a rational prime, by trial division by
    the bases and then a deterministic Miller-Rabin test.  An n at or
    above 3.3e24 that no base divides raises InvalidArgument: the bases
    no longer decide there."""
    if not isinstance(n, int) or n < 2:
        return False
    for b in _MR_BASES:
        if b * b > n:
            # no prime up to the square root of n divides it
            return True
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        # a composite this small has a prime factor up to 41
        return True
    if n >= _MR_LIMIT:
        raise InvalidArgument(
            "primality of %d is not decided (it must be below %d)"
            % (n, _MR_LIMIT))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


class Fpt:
    """Exact element of F_p((t)): the Laurent polynomial t^shift * num(t),
    with num(0) != 0; num is empty for 0."""

    __slots__ = ("p", "shift", "num")

    def __init__(self, p, shift, num):
        num = _poly_trim([c % p for c in num])
        lead = 0
        while lead < len(num) and not num[lead]:
            lead += 1
        self.p = p
        self.shift = shift + lead if num else 0
        self.num = tuple(num[lead:])

    @classmethod
    def zero(cls, p):
        return cls(p, 0, [])

    @classmethod
    def const(cls, p, c):
        return cls(p, 0, [c])

    @classmethod
    def gen(cls, p):
        return cls(p, 1, [1])

    def is_zero(self):
        return not self.num

    def valuation(self):
        return INF if self.is_zero() else self.shift

    def __eq__(self, other):
        return (isinstance(other, Fpt) and self.p == other.p
                and self.shift == other.shift and self.num == other.num)

    def __hash__(self):
        return hash((self.p, self.shift, self.num))

    def add(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        s = min(self.shift, other.shift)
        a = [0] * (self.shift - s) + list(self.num)
        b = [0] * (other.shift - s) + list(other.num)
        return Fpt(self.p, s, _poly_add(a, b, self.p))

    def neg(self):
        return Fpt(self.p, self.shift, [-c for c in self.num])

    def mul(self, other):
        # _poly_mul skips zero coefficients, which keeps sparse powers
        # such as (1 + t)^(p^k) cheap
        return Fpt(self.p, self.shift + other.shift,
                   _poly_mul(self.num, other.num, self.p))

    def digits(self, n):
        # coefficients of t^shift, ..., t^(shift+n-1)
        return (self.num + (0,) * n)[:n]

    def __repr__(self):
        return "Fpt(p=%d, t^%d * %r)" % (self.p, self.shift, self.num)


# --- rational valuation helpers ---

def _val_int(n, p):
    """The valuation at p of the nonzero integer n, in O(log v) big
    divisions: by p, p^2, p^4, ... while they divide n, then back down
    through the same powers, one binary digit of v each."""
    if n % p:
        return 0
    powers = [p]
    while True:
        square = powers[-1] * powers[-1]
        if n % square:
            break
        powers.append(square)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            v += 1 << i
    return v


def _val_fraction(r, p):
    if r == 0:
        return INF
    return _val_int(r.numerator, p) - _val_int(r.denominator, p)


def _base_digits(s, p, n):
    """The n lowest base-p digits of the integer s, lowest first."""
    out = []
    for _ in range(n):
        s, d = divmod(s, p)
        out.append(d)
    return out


def _unit_mod(r, p, v, n):
    """The unit part r/p^v of a nonzero rational of valuation v, mod p^n."""
    a, b = r.numerator, r.denominator
    if v > 0:
        a //= p ** v
    elif v < 0:
        b //= p ** -v
    m = p ** n
    return a * pow(b, -1, m) % m


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
            r, p = self.payload, self.spec.prime
            return tuple(_base_digits(
                _unit_mod(r, p, _val_fraction(r, p), n), p, n))
        if not self.known:
            raise PrecisionExhausted("no significant digit determined")
        if n > len(self.known):
            raise PrecisionExhausted(
                "only %d digit(s) determined" % len(self.known))
        return self.known[:n]

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
        return _unit_mod(r, p, v, high - v) * p ** (v - low) % p ** n
    acc = 0
    for i, d in enumerate(e.known):
        pos = e.val + i
        if low <= pos < high:
            acc += d * p ** (pos - low)
    return acc % p ** n


def _digit_at(e, pos):
    """EqualChar helper: the digit of e at absolute position pos.

    Caller guarantees every digit of e at pos is known."""
    if e.exact:
        shift, digits = e.payload.shift, e.payload.num
    else:
        shift, digits = e.val, e.known
    i = pos - shift
    return digits[i] if 0 <= i < len(digits) else 0


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
        ds = _base_digits(_int_value_mod(a, low, bound)
                          + _int_value_mod(b, low, bound), p, n)
    else:
        ds = [(_digit_at(a, low + i) + _digit_at(b, low + i)) % p
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
    return LFElem._approx(spec, a.val, _base_digits(-s, p, k))


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
        ds = _base_digits(sa * sb, p, k)
    else:
        ds = [0] * k
        for i in range(k):
            if da[i]:
                for j in range(k - i):
                    ds[i + j] = (ds[i + j] + da[i] * db[j]) % p
    return LFElem._approx(spec, v, ds)


def power(a, n):
    """a^n for an integer n >= 0, by repeated squaring.  A product keeps
    at most `precision` digits of either factor, and the truncations
    commute with products, so this is the n-fold product a * ... * a
    digit for digit."""
    acc = a.spec.one()
    while n:
        if n & 1:
            acc = mul(acc, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return acc


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
    ds = _base_digits(x, p, n)
    if all(d == 0 for d in ds):
        return LFElem._approx(spec, n, ())
    return LFElem._approx(spec, 0, ds)
