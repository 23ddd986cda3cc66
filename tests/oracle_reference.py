"""The oracle's residue-box walk as it was before it inherited TRUE
membership, settled smooth boxes by Hensel's lemma and compiled its
membership: `interpret` on every box, full descent wherever the
integrand stays undecided.  The integrand's valuation bounds come from
the walk's compiled sweep, one box at a time, which the tests hold to
`eval_vf_term`.  Kept, with `run` returning the bare endpoints, as the
reference the current walk is tested against; with the interval checks
the tests make of the walk's brackets."""

import itertools
from fractions import Fraction

from count_reference import substitute
from dpcalc.boxcode import _field_ops
from dpcalc.formula import (Formula, Sort, Truth3, VfConst, VfEq, VfMul,
                            VfVar, interpret)
from dpcalc.localfield import INF, from_digits
from dpcalc.oracle import (IntegrandSpec, _as_formula, _BoxWalk as _Walk,
                           volume)


def overlaps(a, b):
    """Whether the brackets a and b share a point."""
    return a.lower <= b.upper and b.lower <= a.upper


def jacobian_check(a, phi, spec, *, assignment=None, budget=None):
    """(volume of phi, volume of phi with each field variable x read as
    x/a), i.e. of the original set and the set scaled by a.

    The second measure must equal |a|^m times the first; callers assert
    the containment on the returned intervals.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("scale factor must be nonzero")
    phi = _as_formula(phi)
    assignment = dict(assignment or {})
    names = {n for n, s in phi.free
             if s is Sort.VF and n not in assignment}
    scaled = Formula(substitute(phi.expr, {
        n: VfMul(VfConst(1 / a), VfVar(n)) for n in names}), phi.free)
    return (volume(phi, spec, assignment=assignment, budget=budget),
            volume(scaled, spec, assignment=assignment, budget=budget))


def _mass(p, counts):
    """sum(count * p^-x) over {x: count}, as one exact Fraction."""
    return sum((Fraction(c, 1) / Fraction(p) ** x for x, c in counts.items()),
               Fraction(0))


class _Unsettled(_Walk):
    """The walk with Hensel's lemma off: its sweep credits a TRUE child
    at the integrand's valuation, or leaves it open or undecided."""

    def _fold(self, *args):
        return super()._fold(*args)[:3] + (False,)


class _BoxWalk:
    """Depth-first refinement of the residue-box tree for one bracket.

    Each box contributes p^-(level*m + e*v) for an integrand valuation v,
    so the walk counts boxes per exponent and builds both endpoints once
    at the end."""

    def __init__(self, phi, spec, integrand, assignment):
        self.phi = phi
        self.spec = spec
        self.integrand = integrand
        self.assignment = assignment
        self.p = spec.prime
        self.depth = spec.precision
        self.names = [n for n, s in phi.free
                      if s is Sort.VF and n not in assignment]
        self.m = len(self.names)
        self.ops = _field_ops(spec)
        self.sweep = None
        self.lower_counts = {}
        self.upper_counts = {}
        self.boxes_true = 0
        self.boxes_undecided = 0

    def nominal_boxes(self):
        return self.p ** (self.depth * self.m)

    def run(self):
        self.walk(tuple(() for _ in self.names), 0)
        return (_mass(self.p, self.lower_counts),
                _mass(self.p, self.upper_counts))

    def integrand_bounds(self, prefixes):
        """(lower, upper) bounds on the integrand's valuation over the
        box, equal when decided, INF for the value 0, or None where it is
        undecided above full depth.  The sweep is built on first use, so
        a walk that never evaluates the integrand never raises its
        errors."""
        if self.integrand.is_one:
            return 0, 0
        if self.sweep is None:
            # a domain TRUE by reflexivity, so the sweep reads f alone
            x = VfVar(self.names[0])
            self.counts = ({}, {}, {})
            self.sweep = _Unsettled(
                Formula(VfEq(x, x), self.phi.free), self.spec, self.integrand,
                self.assignment).sweeper(*self.counts)
        for counts in self.counts:
            counts.clear()
        level = len(prefixes[0])
        if level:
            forms = tuple(self.ops.form(from_digits(self.spec, 0, d[:-1]))
                          for d in prefixes)
            digits = tuple(range(d[-1], d[-1] + 1) for d in prefixes)
        else:
            forms, digits = ((-1, 0, None),) * self.m, (range(1),) * self.m
        true, _, _, pending = self.sweep(forms, level - 1, Truth3.TRUE,
                                         digits)
        if pending:
            return None
        # the one child's exponent level*m + e*v, none for the value 0
        exact, open_, _ = self.counts
        v = INF
        for x in exact or open_:
            v = (x - level * self.m) // self.integrand.e
        return (v, v) if true else (v, INF)

    def credit(self, counts, level, v):
        if v is not INF:
            x = level * self.m + self.integrand.e * v
            counts[x] = counts.get(x, 0) + 1

    def walk(self, prefixes, level):
        env = dict(self.assignment)
        for name, digs in zip(self.names, prefixes):
            env[name] = from_digits(self.spec, 0, digs)
        membership = interpret(self.phi, self.spec, env)
        if membership is Truth3.FALSE:
            return
        weight = self.p ** ((self.depth - level) * self.m)
        if membership is Truth3.TRUE:
            bounds = self.integrand_bounds(prefixes)
            if bounds is not None and bounds[0] == bounds[1]:
                self.credit(self.lower_counts, level, bounds[0])
                self.credit(self.upper_counts, level, bounds[0])
                self.boxes_true += weight
                return
            if level == self.depth:
                self.boxes_undecided += weight
                self.credit(self.upper_counts, level, bounds[0])
                return
        elif level == self.depth:
            vlo, _ = self.integrand_bounds(prefixes)
            self.boxes_undecided += weight
            self.credit(self.upper_counts, level, vlo)
            return
        for combo in itertools.product(range(self.p), repeat=self.m):
            self.walk(tuple(digs + (d,)
                            for digs, d in zip(prefixes, combo)),
                      level + 1)


def integrate(integrand, phi, spec, *, assignment=None):
    """(lower, upper) of the reference bracket; no budget."""
    phi = _as_formula(phi)
    walk = _BoxWalk(phi, spec, integrand or IntegrandSpec.one(),
                    dict(assignment or {}))
    return walk.run()
