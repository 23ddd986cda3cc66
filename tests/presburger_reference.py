"""Numeric references for the closed forms of `dpcalc.presburger.sum`.

`evaluate_truncated` sums a term over the points of a domain inside a
window and bounds the omitted remainder exactly; `iterate` lists the
points of a domain inside a box.  The tests hold `sum` to both.
"""

import math
from fractions import Fraction

from dpcalc.errors import NotSummable, UnboundParameter, UnsupportedFeature
from dpcalc.presburger import PresTerm


def iterate(domain, cutoff, env=None):
    """Yield all points of the domain with every coordinate in
    [-cutoff, cutoff]."""
    def rec(i, scope):
        if i == len(domain.ranges):
            yield {n: scope[n] for n in domain.variables()}
            return
        r = domain.ranges[i]
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
