"""The oracle's residue-box walk as it was before it inherited TRUE
membership, settled smooth boxes by Hensel's lemma and compiled its
membership: `interpret` on every box, full descent wherever the
integrand stays undecided.  The integrand's valuation bounds come from
the walk's compiled sweep, one box at a time, which the tests hold to
`eval_vf_term`.  Kept, with `run` returning the bare endpoints, as the
reference the current walk is tested against."""

import itertools
from fractions import Fraction

from dpcalc.boxcode import _field_ops
from dpcalc.formula import Formula, Sort, Truth3, VfEq, VfVar, interpret
from dpcalc.localfield import INF, from_digits
from dpcalc.oracle import IntegrandSpec, _as_formula, _BoxWalk as _Walk


def _mass(p, counts):
    """sum(count * p^-x) over {x: count}, as one exact Fraction."""
    return sum((Fraction(c, 1) / Fraction(p) ** x for x, c in counts.items()),
               Fraction(0))


class _Unsettled(_Walk):
    """The walk with Hensel's lemma off: its sweep credits a TRUE child
    at the integrand's valuation, or leaves it open or undecided."""

    def _fold(self, sites):
        return super()._fold(sites)[:3] + (False,)


class _BoxWalk:
    """Depth-first refinement of the residue-box tree for one bracket.

    Each box contributes p^-(level*m + e*v) for an integrand valuation v,
    so the walk counts boxes per exponent and builds both endpoints once
    at the end."""

    def __init__(self, phi, spec, integrand, assignment, vf_witness_depth):
        self.phi = phi
        self.spec = spec
        self.integrand = integrand
        self.assignment = assignment
        self.vf_witness_depth = vf_witness_depth
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
                self.assignment, self.vf_witness_depth).sweeper(*self.counts)
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
        membership = interpret(self.phi, self.spec, env,
                               self.vf_witness_depth)
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


def integrate(integrand, phi, spec, *, assignment=None,
              vf_witness_depth=None):
    """(lower, upper) of the reference bracket; no budget."""
    phi = _as_formula(phi)
    walk = _BoxWalk(phi, spec, integrand or IntegrandSpec.one(),
                    dict(assignment or {}), vf_witness_depth)
    return walk.run()
