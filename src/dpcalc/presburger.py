"""Iterated-affine integer domains and exact summation of c * L^alpha terms.

A domain is a triangular list of variable ranges: each variable gets a lower
and upper bound (affine in outer variables, or infinite) plus an optional
congruence restriction.  Summation runs innermost variable first; every ray
is a geometric series in L and every finite range telescopes, so results stay
exact elements of the coefficient ring, possibly with leftover parameters in
the exponent.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (NotSummable, ParseError, UnboundParameter,
                     UnsupportedFeature)
from .symring import SymA


@dataclass(frozen=True)
class AffineForm:
    """Integer affine form: sum of coeff*var plus a constant."""

    coeffs: tuple = ()
    const: int = 0

    @classmethod
    def make(cls, coeffs=None, const=0):
        items = tuple(sorted((n, int(c)) for n, c in (coeffs or {}).items()
                             if int(c) != 0))
        return cls(items, int(const))

    @classmethod
    def var(cls, name):
        return cls(((name, 1),), 0)

    @classmethod
    def constant(cls, c):
        return cls((), int(c))

    def coeff(self, name):
        return dict(self.coeffs).get(name, 0)

    def variables(self):
        return {n for n, _ in self.coeffs}

    def is_constant(self):
        return not self.coeffs

    def drop(self, name):
        return AffineForm.make({n: c for n, c in self.coeffs if n != name},
                               self.const)

    def __add__(self, other):
        if isinstance(other, int):
            return AffineForm(self.coeffs, self.const + other)
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, 0) + c
        return AffineForm.make(d, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(tuple((n, -c) for n, c in self.coeffs), -self.const)

    def __sub__(self, other):
        if isinstance(other, int):
            other = AffineForm.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return AffineForm.constant(other) + (-self)

    def scale(self, k):
        k = int(k)
        if k == 0:
            return AffineForm.constant(0)
        return AffineForm(tuple((n, c * k) for n, c in self.coeffs),
                          self.const * k)

    def substitute(self, name, form):
        """Replace a variable by another affine form."""
        c = self.coeff(name)
        if c == 0:
            return self
        return self.drop(name) + form.scale(c)

    def bind(self, env):
        """Substitute integer values for any subset of the variables."""
        if not env:
            return self
        d = {}
        const = self.const
        for n, c in self.coeffs:
            if n in env:
                const += c * int(env[n])
            else:
                d[n] = c
        return AffineForm.make(d, const)

    def evaluate(self, env):
        out = self.const
        for n, c in self.coeffs:
            if n not in env:
                raise UnboundParameter("no value for %r" % n)
            out += c * int(env[n])
        return out

    def render(self):
        parts = []
        for n, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(n)
                elif c == -1:
                    parts.append("-" + n)
                else:
                    parts.append("%d*%s" % (c, n))
            else:
                sign = " + " if c > 0 else " - "
                mag = abs(c)
                parts.append(sign + (n if mag == 1 else "%d*%s" % (mag, n)))
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                parts.append((" + %d" if self.const > 0 else " - %d")
                             % abs(self.const))
        return "".join(parts)

    __str__ = render


_AFF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*)|(\+)|(-))")


def parse_affine(text):
    """Parse forms like '2*k + 1', '-m + k', '3'."""
    pos = 0
    toks = []
    while pos < len(text):
        m = _AFF_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if not text[pos:].strip():
                break
            raise ParseError("unexpected character %r in affine form"
                             % text[pos:].strip()[0])
        pos = m.end()
        t = m.group(0).strip()
        if t:
            toks.append(t)
    coeffs = {}
    const = 0
    i = 0
    sign = 1
    expect_term = True
    while i < len(toks):
        t = toks[i]
        if t == "+" or t == "-":
            if expect_term and t == "-":
                sign = -sign
            elif expect_term:
                pass
            else:
                sign = 1 if t == "+" else -1
                expect_term = True
            i += 1
            continue
        if not expect_term:
            raise ParseError("expected '+' or '-' in affine form, got %r" % t)
        if t.isdigit():
            k = int(t)
            if i + 2 < len(toks) and toks[i + 1] == "*":
                name = toks[i + 2]
                if name.isdigit():
                    raise ParseError("expected variable after '*'")
                coeffs[name] = coeffs.get(name, 0) + sign * k
                i += 3
            else:
                const += sign * k
                i += 1
        else:
            coeffs[t] = coeffs.get(t, 0) + sign
            i += 1
        sign = 1
        expect_term = False
    if expect_term and (coeffs or const or toks):
        raise ParseError("dangling sign in affine form")
    return AffineForm.make(coeffs, const)


@dataclass(frozen=True)
class VarRange:
    """One summation variable with bounds affine in outer variables.

    lower/upper are AffineForm or None for an infinite end; the congruence
    restricts the variable to residue mod modulus.
    """

    name: str
    lower: AffineForm | None = None
    upper: AffineForm | None = None
    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")

    def bind(self, env):
        return VarRange(self.name,
                        self.lower.bind(env) if self.lower else None,
                        self.upper.bind(env) if self.upper else None,
                        self.modulus, self.residue)


class PresDomain:
    """Triangular product of VarRanges, outermost first."""

    __slots__ = ("ranges",)

    def __init__(self, ranges):
        ranges = tuple(ranges)
        seen = set()
        for r in ranges:
            if r.name in seen:
                raise ValueError("duplicate variable %r" % r.name)
            for b in (r.lower, r.upper):
                if b is not None and b.variables() & {r.name}:
                    raise ValueError("bound of %r refers to itself" % r.name)
                if b is not None:
                    later = b.variables() & ({x.name for x in ranges} - seen
                                             - {r.name})
                    if later:
                        raise ValueError(
                            "bound of %r refers to inner variable %s"
                            % (r.name, sorted(later)))
            seen.add(r.name)
        self.ranges = ranges

    @classmethod
    def single(cls, name, lower=None, upper=None, modulus=1, residue=0):
        def into(b):
            if b is None or isinstance(b, AffineForm):
                return b
            return AffineForm.constant(b)
        return cls((VarRange(name, into(lower), into(upper),
                             modulus, residue),))

    def variables(self):
        return [r.name for r in self.ranges]

    def __eq__(self, other):
        if not isinstance(other, PresDomain):
            return NotImplemented
        return self.ranges == other.ranges

    def __hash__(self):
        return hash(self.ranges)

    def bind(self, env):
        return PresDomain(tuple(r.bind(env) for r in self.ranges))

    def contains(self, point, env=None):
        """Numeric membership check; point maps every domain variable."""
        scope = dict(env or {})
        for r in self.ranges:
            v = point[r.name]
            if v % r.modulus != r.residue:
                return False
            if r.lower is not None and v < r.lower.evaluate(scope):
                return False
            if r.upper is not None and v > r.upper.evaluate(scope):
                return False
            scope[r.name] = v
        return True

    def iterate(self, cutoff, env=None):
        """Yield all points with every coordinate in [-cutoff, cutoff]."""
        def rec(i, scope):
            if i == len(self.ranges):
                yield {n: scope[n] for n in self.variables()}
                return
            r = self.ranges[i]
            lo = -cutoff if r.lower is None else max(-cutoff,
                                                     r.lower.evaluate(scope))
            up = cutoff if r.upper is None else min(cutoff,
                                                    r.upper.evaluate(scope))
            start = lo + ((r.residue - lo) % r.modulus)
            for v in range(start, up + 1, r.modulus):
                scope[r.name] = v
                yield from rec(i + 1, scope)
            scope.pop(r.name, None)
        yield from rec(0, dict(env or {}))


@dataclass(frozen=True)
class PresTerm:
    """coefficient * L^exponent with a ring coefficient and affine exponent."""

    coefficient: SymA
    exponent: AffineForm

    def render(self):
        if self.exponent.is_constant() and self.exponent.const == 0:
            return self.coefficient.render()
        coeff = self.coefficient.render()
        if " " in coeff:
            coeff = "(%s)" % coeff
        return "%s * L^(%s)" % (coeff, self.exponent.render())

    __str__ = render


class SymSum:
    """A finite sum of PresTerms, normalized so constant exponent parts are
    folded into coefficients and equal exponents are merged.  Closed results
    (no leftover parameters) convert to plain ring values via as_syma()."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for t in terms:
            coeff = t.coefficient * SymA.l_power(t.exponent.const) \
                if t.exponent.const else t.coefficient
            key = AffineForm(t.exponent.coeffs, 0)
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
        self.terms = tuple(
            PresTerm(c, e) for e, c in sorted(merged.items(),
                                              key=lambda kv: kv[0].coeffs)
            if not c.is_zero())

    @classmethod
    def of_syma(cls, value):
        return cls((PresTerm(value, AffineForm.constant(0)),))

    def is_closed(self):
        return all(t.exponent.is_constant() for t in self.terms)

    def is_zero(self):
        return not self.terms

    def as_syma(self):
        if not self.is_closed():
            free = sorted(set().union(*(t.exponent.variables()
                                        for t in self.terms)))
            raise UnboundParameter("sum still depends on %s" % free)
        acc = SymA.from_int(0)
        for t in self.terms:
            acc = acc + t.coefficient
        return acc

    def substitute(self, env):
        return SymSum(tuple(PresTerm(t.coefficient, t.exponent.bind(env))
                            for t in self.terms))

    def nu(self, q, env=None):
        q = Fraction(q)
        acc = Fraction(0)
        for t in self.terms:
            e = t.exponent.evaluate(env or {})
            acc += t.coefficient.nu(q) * q ** e
        return acc

    def __add__(self, other):
        if isinstance(other, SymA):
            other = SymSum.of_syma(other)
        return SymSum(self.terms + other.terms)

    def __neg__(self):
        return SymSum(tuple(PresTerm(-t.coefficient, t.exponent)
                            for t in self.terms))

    def __sub__(self, other):
        if isinstance(other, SymA):
            other = SymSum.of_syma(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymA)):
            return SymSum(tuple(PresTerm(t.coefficient * other, t.exponent)
                                for t in self.terms))
        if isinstance(other, PresTerm):
            return SymSum(tuple(
                PresTerm(t.coefficient * other.coefficient,
                         t.exponent + other.exponent) for t in self.terms))
        if isinstance(other, SymSum):
            out = []
            for t in self.terms:
                for s in other.terms:
                    out.append(PresTerm(t.coefficient * s.coefficient,
                                        t.exponent + s.exponent))
            return SymSum(tuple(out))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymA):
            other = SymSum.of_syma(other)
        if not isinstance(other, SymSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def render(self):
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    __str__ = render

    def __repr__(self):
        return "SymSum(%s)" % self.render()


def _inv_one_minus_lpow(m):
    """1 / (1 - L^m) for m != 0, as a ring element."""
    assert m != 0
    if m < 0:
        return SymA.geom(-m)
    # 1/(1 - L^m) = -L^-m / (1 - L^-m)
    return SymA.l_power(-m) * SymA.geom(m) * (-1)


def _finite_geom(step, n):
    """Sum of L^(step*j) for j = 0..n-1."""
    if n <= 0:
        return SymA.from_int(0)
    if step == 0:
        return SymA.from_int(n)
    return SymA({0: 1, step * n: -1}) * _inv_one_minus_lpow(step)


def _sum_over(term, rng):
    """Sum one PresTerm over one VarRange; returns a list of PresTerms."""
    a = term.exponent.coeff(rng.name)
    coeff = term.coefficient
    lo, up = rng.lower, rng.upper
    d, c = rng.modulus, rng.residue

    def subst(v):
        if isinstance(v, int):
            v = AffineForm.constant(v)
        return term.exponent.substitute(rng.name, v)

    lo_num = lo.const if lo is not None and lo.is_constant() else None
    up_num = up.const if up is not None and up.is_constant() else None

    if lo is None and up is None:
        raise NotSummable("variable %r ranges over all of Z" % rng.name)

    if up is None:
        # upward ray
        if a >= 0:
            raise NotSummable(
                "exponent coefficient %d on unbounded variable %r"
                % (a, rng.name))
        if lo_num is not None:
            v0 = lo_num + ((c - lo_num) % d)
            return [PresTerm(coeff * SymA.geom(-a * d), subst(v0))]
        if d != 1:
            raise UnsupportedFeature(
                "congruence with a symbolic bound on %r" % rng.name)
        return [PresTerm(coeff * SymA.geom(-a), subst(lo))]

    if lo is None:
        # downward ray
        if a <= 0:
            raise NotSummable(
                "exponent coefficient %d on unbounded variable %r"
                % (a, rng.name))
        if up_num is not None:
            v1 = up_num - ((up_num - c) % d)
            return [PresTerm(coeff * SymA.geom(a * d), subst(v1))]
        if d != 1:
            raise UnsupportedFeature(
                "congruence with a symbolic bound on %r" % rng.name)
        return [PresTerm(coeff * SymA.geom(a), subst(up))]

    # both ends finite
    if lo_num is not None and up_num is not None:
        v0 = lo_num + ((c - lo_num) % d)
        if v0 > up_num:
            return []
        n = (up_num - v0) // d + 1
        return [PresTerm(coeff * _finite_geom(a * d, n), subst(v0))]
    if d != 1:
        raise UnsupportedFeature(
            "congruence with a symbolic bound on %r" % rng.name)
    if a == 0:
        raise UnsupportedFeature(
            "cardinality of a symbolic range is not an L-exponential "
            "(exponent does not involve %r)" % rng.name)
    # telescoping: sum_{v=lo}^{up} L^(a v) = (L^(a lo) - L^(a (up+1)))/(1-L^a)
    inv = _inv_one_minus_lpow(a)
    return [PresTerm(coeff * inv, subst(lo)),
            PresTerm(coeff * inv * SymA.l_power(a) * (-1), subst(up))]


def sum(domain, term):
    """Exact sum of term over the domain, innermost variable first.

    Returns a SymSum; when no free parameters remain it collapses to a single
    constant term (use .as_syma()).  Raises NotSummable when an unbounded
    direction has a nonnegative exponent coefficient.
    """
    if isinstance(term, tuple):
        term = PresTerm(*term)
    terms = [term]
    for rng in reversed(domain.ranges):
        nxt = []
        for t in terms:
            nxt.extend(_sum_over(t, rng))
        terms = nxt
    return SymSum(tuple(terms))


def _ray_tail(q, a, v_start, step, count=None):
    """Exact sum of q^(a*v) over v = v_start, v_start+step, ... (count terms,
    or the full geometric series when count is None)."""
    t = q ** (a * step)
    first = q ** (a * v_start)
    if count is None:
        if t >= 1:
            raise NotSummable("divergent tail")
        return first / (1 - t)
    if count <= 0:
        return Fraction(0)
    if t == 1:
        return first * count
    return first * (1 - t ** count) / (1 - t)


def _window_and_tail(q, a, rng, cutoff):
    """(window sum, omitted remainder) of q^(a*v) over one numeric range."""
    lo = rng.lower.const if rng.lower is not None else None
    up = rng.upper.const if rng.upper is not None else None
    if (rng.lower is not None and not rng.lower.is_constant()) or \
       (rng.upper is not None and not rng.upper.is_constant()):
        raise UnboundParameter(
            "bounds of %r must be numeric after binding" % rng.name)
    d, c = rng.modulus, rng.residue
    wlo = -cutoff if lo is None else max(lo, -cutoff)
    wup = cutoff if up is None else min(up, cutoff)
    window = Fraction(0)
    start = wlo + ((c - wlo) % d)
    for v in range(start, wup + 1, d):
        window += q ** (a * v)
    tail = Fraction(0)
    # above the window
    if up is None:
        v0 = cutoff + 1
        v0 += (c - v0) % d
        if lo is not None and v0 < lo:
            v0 = lo + ((c - lo) % d)
        tail += _ray_tail(q, a, v0, d)
    elif up > cutoff:
        v0 = max(cutoff + 1, lo if lo is not None else cutoff + 1)
        v0 += (c - v0) % d
        if v0 <= up:
            tail += _ray_tail(q, a, v0, d, count=(up - v0) // d + 1)
    # below the window
    if lo is None:
        v1 = -cutoff - 1
        v1 -= (v1 - c) % d
        if up is not None and v1 > up:
            v1 = up - ((up - c) % d)
        tail += _ray_tail(q, a, v1, -d)
    elif lo < -cutoff:
        v1 = min(-cutoff - 1, up if up is not None else -cutoff - 1)
        v1 -= (v1 - c) % d
        if v1 >= lo:
            tail += _ray_tail(q, a, v1, -d, count=(v1 - lo) // d + 1)
    return window, tail


def evaluate_truncated(domain, term, q, cutoff, env=None):
    """Numeric partial sum over points with |coordinates| <= cutoff.

    Returns (partial, tail_bound), both exact rationals: |full - partial| is
    at most tail_bound.  Supports one-variable domains and rectangular
    multi-variable domains (bounds free of the other domain variables).
    """
    if isinstance(term, tuple):
        term = PresTerm(*term)
    q = Fraction(q)
    if q <= 1:
        raise ValueError("q must exceed 1")
    domain = domain.bind(env or {})
    exponent = term.exponent.bind(env or {})
    names = set(domain.variables())
    extra = exponent.variables() - names
    if extra:
        raise UnboundParameter("exponent depends on %s" % sorted(extra))
    for r in domain.ranges:
        for b in (r.lower, r.upper):
            if b is not None and b.variables() & names:
                raise UnsupportedFeature(
                    "truncated evaluation needs rectangular bounds; %r "
                    "depends on %s" % (r.name, sorted(b.variables() & names)))
    cnu = term.coefficient.nu(q)
    scale = q ** exponent.const
    windows = []
    tails = []
    for r in domain.ranges:
        w, t = _window_and_tail(q, exponent.coeff(r.name), r, cutoff)
        windows.append(w)
        tails.append(t)
    pw = math.prod(windows) if windows else Fraction(1)
    pwt = math.prod(w + t for w, t in zip(windows, tails)) if windows \
        else Fraction(1)
    partial = cnu * scale * pw
    tail = abs(cnu) * scale * (pwt - pw)
    return partial, tail
