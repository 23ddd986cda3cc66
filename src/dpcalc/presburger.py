"""Iterated-affine integer domains and exact summation of c * L^alpha terms.

A domain is a triangular list of variable ranges: each variable gets a lower
and upper bound (affine in outer variables, or infinite) plus an optional
congruence restriction.  `PresDomain.bind` is the one place an integer
assignment meets a domain: it checks the variables assigned, drops them and
substitutes into the bounds of the rest.  Summation runs innermost variable
first, by one rule: the ray v = s, s + d, ... sums c * L^(a*v) to
c * L^(a*s) / (1 - L^(a*d)), and a range with a lower bound is the ray from
its first point less the ray from its first point past the upper bound (so
an empty range sums to 0).  A range with only an upper bound is the upward
ray of -v.  Results stay exact elements of the coefficient ring, possibly
with leftover parameters in the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (NotSummable, ParseError, UnboundParameter,
                     UnsupportedFeature)
from .formula import (Sort, ZzAdd, ZzConst, ZzNeg, ZzScale, ZzSub, ZzVar,
                      parse_term)
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


def zz_affine(node):
    """A value-group term as an AffineForm, or a loud failure."""
    if isinstance(node, ZzConst):
        return AffineForm.constant(node.value)
    if isinstance(node, ZzVar):
        return AffineForm.var(node.name)
    if isinstance(node, ZzAdd):
        return zz_affine(node.left) + zz_affine(node.right)
    if isinstance(node, ZzSub):
        return zz_affine(node.left) - zz_affine(node.right)
    if isinstance(node, ZzNeg):
        return -zz_affine(node.operand)
    if isinstance(node, ZzScale):
        return zz_affine(node.operand).scale(node.factor)
    raise UnsupportedFeature(
        "value-group constraint is not affine (%s)" % type(node).__name__)


def parse_affine(text):
    """Parse forms like '2*k + 1', '-m + k', '3' as value-group terms."""
    try:
        return zz_affine(parse_term(text, Sort.ZZ))
    except UnsupportedFeature as e:
        raise ParseError("%s in %r" % (e, text)) from None


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
        """The residual domain under an integer assignment `env` of any
        names, or None when `env` lies outside the domain.

        Outermost first, each variable `env` assigns is checked against its
        congruence, then its lower and its upper bound, and dropped; `env`
        is substituted into the bounds of the rest.  A bound of an assigned
        variable that still names an unassigned one is UnsupportedFeature."""
        kept = []
        for r in self.ranges:
            lo = r.lower.bind(env) if r.lower is not None else None
            up = r.upper.bind(env) if r.upper is not None else None
            if r.name not in env:
                kept.append(VarRange(r.name, lo, up, r.modulus, r.residue))
                continue
            v = env[r.name]
            if v % r.modulus != r.residue:
                return None
            for bound, sign in ((lo, 1), (up, -1)):
                if bound is not None and not bound.is_constant():
                    raise UnsupportedFeature(
                        "the range for %s still depends on %s"
                        % (r.name, sorted(bound.variables())))
                if bound is not None and sign * (v - bound.const) < 0:
                    return None
        return PresDomain(kept)


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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymA)):
            return SymSum(tuple(PresTerm(t.coefficient * other, t.exponent)
                                for t in self.terms))
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


def _ray(term, name, step, start):
    """The sum of term over name = start, start + step, ...: the term at
    start over 1 - L^(a*step), for a the coefficient of name."""
    a = term.exponent.coeff(name)
    return PresTerm(term.coefficient * _inv_one_minus_lpow(a * step),
                    term.exponent.substitute(name, start))


def _sum_over(term, rng):
    """Sum one PresTerm over one VarRange; returns a tuple of PresTerms."""
    name, lo, up = rng.name, rng.lower, rng.upper
    d, c = rng.modulus, rng.residue
    a = term.exponent.coeff(name)
    if lo is None and up is None:
        raise NotSummable("variable %r ranges over all of Z" % name)
    if (lo is None or up is None) and a * (1 if up is None else -1) >= 0:
        raise NotSummable("exponent coefficient %d on unbounded variable %r"
                          % (a, name))
    symbolic = any(b is not None and not b.is_constant() for b in (lo, up))
    if symbolic and d != 1:
        raise UnsupportedFeature(
            "congruence with a symbolic bound on %r" % name)
    if lo is None:
        term = PresTerm(term.coefficient, term.exponent.substitute(
            name, -AffineForm.var(name)))
        lo, up, c = -up, None, -c % d
    first = lo + (c - lo.const) % d
    if up is None:
        return (_ray(term, name, d, first),)
    if not symbolic:
        n = max(0, (up.const - first.const) // d + 1)
        if a == 0:
            return (PresTerm(term.coefficient * n, term.exponent),) if n \
                else ()
        past = first + n * d
    elif a == 0:
        raise UnsupportedFeature(
            "cardinality of a symbolic range is not an L-exponential "
            "(exponent does not involve %r)" % name)
    else:
        past = up + 1
    back = PresTerm(-term.coefficient, term.exponent)
    return SymSum((_ray(term, name, d, first),
                   _ray(back, name, d, past))).terms


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
        terms = [s for t in terms for s in _sum_over(t, rng)]
    return SymSum(tuple(terms))
