"""Numeric ground truth by exhaustive residue-box enumeration.

Volumes and integrals over the valuation ring come back as exact rational
intervals: a box mod ϖ^N that three-valued interpretation decides True
contributes its measure to both endpoints, a box it cannot decide widens
only the upper endpoint.  Three-valued truth refines monotonically as
digits are added, so a subtree can be classified the moment its root box
decides; the result is identical to flat enumeration of all p^(N*m) boxes,
which is what the box budget meters.

Each walk runs one sweep that `boxcode.compile_walk` generates from its
structure (the domain, the integrand f and the partial derivatives of f,
the box variables and the kind of field) and keeps in a memo of code.
Given a box as integer forms, (valuation, unit mod p^k) in Q_p and
(valuation, digit tuple) in F_p((t)), it enumerates the box's children
in one loop nest and classifies each in place: the three-valued
membership, the valuation bounds of f and the least Hensel valuation,
each subterm computed in the loop of the last variable it reads.  It
decides everything `interpret` decides on the corresponding
`from_digits` box, residue quantifiers included (`parse` refuses any
other), and no walk calls `interpret`.  What does not depend on the box
is folded once per walk by the reference semantics: one `interpret`
evaluator per walk reads every site in environments converted once, the
integrand's as `eval_vf_term` converts an assignment, so a site raises
their errors: those of the domain before the first box, those of the
integrand at the first box that needs it.  Each exact constant's
valuation is taken once, and its unit digits come from `LFElem.packed`
in the form a box keeps them.  `interpret`,
`eval_vf_term` and `LFElem` arithmetic stay the reference semantics,
and the tests hold the sweep to them on random formulas, terms and
boxes.  The children of a TRUE box
inherit it, and a FALSE box is pruned.  A box at depth d with integrand
valuation v contributes p^-(d*m + e*v), so the sweep counts the boxes it
decides per exponent, the walk sweeps the children of those it leaves
undecided, and each endpoint is formed as one Fraction at the end.

A TRUE box at level l >= 1 on which f is still undecided is settled by
Hensel's lemma when f is a polynomial over the valuation ring (every
folded constant exact and integral), some formal partial derivative
∂f/∂x_j has one valuation d < l on the whole box, and ord f >= l + d
there.  Along each x_j-fibre, f(x0 + ϖ^l h) - f(x0) is then
ϖ^(l+d) * (unit * h_j + ϖ * (...)), since every Taylor term past the
linear one has valuation >= 2l > l + d; so f/ϖ^(l+d) carries the box's
normalised measure onto the Haar measure of O, in Q_p and in F_p((t))
alike (Igusa, An Introduction to the Theory of Local Zeta Functions,
2000, §2-3).  Such a box contributes exactly
p^-(l*m + e*(l+d)) * (1 - p^-1)/(1 - p^-(1+e)) to both endpoints, with
d the least valuation that qualifies; the walk counts these boxes per
exponent in a table of their own.  The sweep computes the derivatives
only on a TRUE box that is still undecided.

Nothing here is symbolic.  The point is an independent check on the
symbolic engine, plus the Serre–Oesterlé solution counts mod ϖ^N, read
off the same walk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from .budget import check as check_budget
from .errors import (BadPrime, InvalidArgument, UnboundVariable,
                     UnsupportedFeature)
from .formula import (And, Formula, Node, Sort, Truth3, VfConst, VfNeg,
                      ZzConst, ZzLe, ZzOrd, eval_vf_term, free_vars, parse,
                      parse_term)
from .formula.interpret import (_Evaluator, _refuse, as_field_element,
                                as_integer, bind_assignment)
from .formula.nodes import rewrite
from .localfield import INF, LFElem, add as lf_add, mul as lf_mul
# perfbench/spans.py traces these two under this module's names; the walk
# calls from_digits for the box its sites are folded on
from .formula import interpret  # noqa: F401
from .localfield import from_digits
# it traces embed_rational in localfield, where the fold calls it
from . import localfield


def fraction_str(x):
    """Unambiguous "numerator/denominator" rendering, denominator always
    present.  A Fraction is read as it is."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class VolumeInterval:
    """Exact rational bracket [lower, upper] around a measure or integral.

    undecided_mass is the total contribution bound of the boxes the walk
    could not settle, i.e. exactly upper - lower.  Box counters
    are nominal full-depth counts (a subtree classified early counts all
    the boxes it covers).  boxes_true includes boxes_hensel, the boxes
    settled by Hensel's lemma: boxes at level l >= 1 where f is integral,
    some partial derivative has one valuation d < l and ord f >= l + d,
    each contributing its measure times p^-(e*(l+d)) times the integral
    of |z|^e over O.  nodes_visited is the work actually done: the number
    of boxes the walk classified, at every level.

    Both endpoints are exact sums of powers p^-(d*m + e*v) over the boxes
    that count, with v the integrand's valuation bound on each box (from
    the compiled sweep, which agrees with `LFElem` arithmetic); they
    are accumulated as integer counts per exponent and reduced once.
    """

    lower: Fraction
    upper: Fraction
    precision_used: int
    undecided_mass: Fraction
    boxes_total: int
    boxes_true: int
    boxes_undecided: int
    boxes_hensel: int
    nodes_visited: int

    def __post_init__(self):
        assert 0 <= self.lower <= self.upper

    def width(self):
        return self.upper - self.lower

    def contains(self, value):
        return self.lower <= value <= self.upper

    def scaled(self, c):
        """The interval for c times the quantity (c >= 0)."""
        c = Fraction(c)
        return VolumeInterval(self.lower * c, self.upper * c,
                              self.precision_used, self.undecided_mass * c,
                              self.boxes_total, self.boxes_true,
                              self.boxes_undecided, self.boxes_hensel,
                              self.nodes_visited)

    def to_json_dict(self):
        return {
            "lower": fraction_str(self.lower),
            "upper": fraction_str(self.upper),
            "precision": self.precision_used,
            "boxes_total": self.boxes_total,
            "boxes_true": self.boxes_true,
            "boxes_undecided": self.boxes_undecided,
        }


@dataclass(frozen=True)
class IntegrandSpec:
    """Either the constant 1 (plain volume) or |f|^e for a field polynomial
    f, valued p^(-e*ord f(x)) pointwise."""

    f: object = None
    e: int = 1

    @classmethod
    def one(cls):
        return cls(None, 1)

    @classmethod
    def abs_power(cls, f, e=1):
        if as_integer(e, "e") < 1:
            raise InvalidArgument("exponent must be a positive integer")
        if isinstance(f, str):
            f = parse_term(f, Sort.VF)
        elif not isinstance(f, Node):
            _refuse("f", "a term", f)
        return cls(f, e)

    @property
    def is_one(self):
        return self.f is None


def _as_formula(phi):
    if isinstance(phi, str):
        return parse(phi, default_sort=Sort.VF)
    if isinstance(phi, Formula):
        return phi
    return Formula(phi)


# ---------------------------------------------------------------------------
# the walk


_ZERO = VfConst(Fraction(0))


def _zeroed(node, targets):
    """node with every subterm in `targets` replaced by the exact 0."""
    return rewrite(node, lambda n: _ZERO if n in targets else None)


@functools.cache
def _boxcode():
    """The walk compiler, imported by the first walk, not with dpcalc."""
    from . import boxcode
    return boxcode


def _integral(term, spec, names):
    """Whether every subterm of term without a variable in `names` folds
    to an exact integral constant, so that term is a polynomial over the
    valuation ring in them."""
    values = [eval_vf_term(part, spec, {})
              for part in _boxcode().closed_parts(term, frozenset(names))]
    return all(v.exact and v.ord() >= 0 for v in values)


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
        self.names = tuple(n for n, s in phi.free
                           if s is Sort.VF and n not in assignment)
        self.m = len(self.names)
        self.boxes_true = 0
        self.boxes_undecided = 0
        self.boxes_hensel = 0
        self.nodes_visited = 0

    def nominal_boxes(self):
        return self.p ** (self.depth * self.m)

    def run(self):
        exact, open_, hensel = {}, {}, {}
        sweep = self.sweeper(exact, open_, hensel)
        p, m, depth, e = self.p, self.m, self.depth, self.integrand.e
        weights = [p ** ((depth - level) * m) for level in range(depth + 1)]
        every = (range(p),) * m
        width = p ** m
        nodes, true, undecided, settled = 1, 0, 0, 0

        def descend(forms, level, truth, digits):
            nonlocal nodes, true, undecided, settled
            ntrue, nsettled, nopen, pending = sweep(forms, level, truth,
                                                    digits)
            weight = weights[level + 1]
            true += ntrue * weight
            settled += nsettled * weight
            undecided += nopen * weight
            nodes += width * len(pending)
            for forms, truth in pending:
                descend(forms, level + 1, truth, every)

        # the root box is the one child, digit 0 in every variable, of a
        # box at level -1
        descend(((-1, 0, None),) * m, -1, Truth3.UNDECIDED, (range(1),) * m)
        self.nodes_visited = nodes
        self.boxes_true, self.boxes_undecided = true, undecided
        self.boxes_hensel = settled
        # every endpoint over p^top * (p^(e+1) - 1): a box counted at
        # exponent x weighs p^(top-x), and a Hensel box also carries the
        # integral of |z|^e over O, (1 - p^-1)/(1 - p^-(1+e))
        top = max((0, *exact, *open_, *hensel))

        def mass(counts):
            return sum(c * p ** (top - x) for x, c in counts.items())

        scale = p ** (e + 1) - 1
        known = mass(exact) * scale + mass(hensel) * (scale + 1 - p ** e)
        unknown = mass(open_) * scale
        denominator = p ** top * scale
        return VolumeInterval(Fraction(known, denominator),
                              Fraction(known + unknown, denominator),
                              self.depth, Fraction(unknown, denominator),
                              self.nominal_boxes(), self.boxes_true,
                              self.boxes_undecided, self.boxes_hensel,
                              self.nodes_visited)

    def sweeper(self, exact, open_, hensel):
        """The compiled sweep of this walk with its sites folded, crediting
        the counts per exponent exact, open_ and hensel.

        A product with a constant that folds to the exact 0 is the exact
        0, as in `localfield.mul`; such products are replaced by 0 and the
        walk recompiled.  The membership sites raise their errors here,
        where `interpret` would raise them on the first box.  When the
        integrand's raise, the walk compiles its domain alone, and the
        sweep raises that error at the first box that needs the
        integrand."""
        boxcode = _boxcode()
        compile_walk = boxcode.compile_walk
        self.ops = boxcode._field_ops(self.spec)
        self.evaluator = _Evaluator(self.spec)
        expr, f, derivs = self.phi.expr, self.integrand.f, None
        integral = envs = None
        while True:
            plan = compile_walk(expr, f, self.names, self.spec.kind, derivs)
            # bound after the first compile, as the reference binds them
            # on the first box
            envs = envs or self._envs()
            values, zeros, f_err, folded_integral = self._fold(plan.sites,
                                                               *envs)
            if integral is None:
                # the integrand's own constants, before any is replaced
                integral = folded_integral
            if not zeros:
                break
            expr = _zeroed(expr, zeros.get("m", ()))
            if f is not None:
                f = _zeroed(f, zeros.get("f", ()))
                derivs = tuple(None if d is None
                               else _zeroed(d, zeros.get("d", ()))
                               for d in plan.derivatives)
        if f_err is not None:
            plan = compile_walk(expr, None, self.names, self.spec.kind)
            values = self._fold(plan.sites, *envs)[0]
        return plan.make(values, self.p, self.depth, integral, f_err,
                         self.integrand.e, exact, open_, hensel)

    def _envs(self):
        """The environments the sites are folded in, converted once per
        walk: the membership's, as `interpret` binds it, its field values
        alone, and the integrand's, as `eval_vf_term` converts the
        assignment, or the error that conversion raises.  A site reads a
        box variable only under a zero power, the exact 1 on any box, so
        the root box stands in for each box variable."""
        spec = self.spec
        box = dict.fromkeys(self.names, from_digits(spec, 0, ()))
        if not self.assignment and self.m == len(self.phi.free):
            # every free name is a box variable: there is nothing to convert
            return box, box, None if self.integrand.is_one else box
        env = bind_assignment(
            [(n, s) for n, s in self.phi.free if n not in self.names],
            spec, self.assignment)
        env.update(box)
        member = {n: v for n, v in env.items() if isinstance(v, LFElem)}
        if self.integrand.is_one:
            return env, member, None
        try:
            # eval_vf_term converts every assigned value, used or not, so a
            # value with no image in this field raises as it would there; a
            # residue or value-group value is embedded as an integer, and
            # INF passes as given
            other = {n for n, s in self.phi.free if s is not Sort.VF}
            field = {n: v if n in other and v == INF
                     else as_field_element(v, spec, n)
                     for n, v in self.assignment.items()}
        except Exception as error:  # whatever the reference raises
            return env, member, error
        field.update(box)
        return env, member, field

    def _fold(self, sites, env, member_env, field_env):
        """(the value of each site, {section: products with a constant that
        is the exact 0}, the integrand's error or None, whether every
        folded constant of the integrand is exact and integral), in the
        environments of `_envs`.  Each exact constant's valuation is taken
        once, and a field term that the derivatives repeat from the
        integrand is folded once, in the same environment."""
        values, zeros, ords = [], {}, {}
        member = sum(1 for site in sites if site[0] == "m")
        for site in sites[:member]:
            values.append(self._site(site, values, ords, env, member_env,
                                     zeros))
        f_err, integral = None, True
        if isinstance(field_env, Exception):
            f_err = field_env
        elif field_env is not None:
            terms = {}
            try:
                for site in sites[member:]:
                    if site[0] == "d" and not integral:
                        break
                    if site[1] != "vf":
                        value = self._site(site, values, ords, env,
                                           field_env, zeros)
                    else:
                        value = terms.get(site[2])
                        if value is None:
                            value = terms[site[2]] = self._site(
                                site, values, ords, env, field_env, zeros)
                        if site[0] == "f":
                            integral = integral and value.exact \
                                and self._ord(ords, value) >= 0
                    values.append(value)
            except Exception as error:  # whatever the reference raises
                f_err = error
        values += [None] * (len(sites) - len(values))
        return values, zeros, f_err, integral

    @staticmethod
    def _ord(ords, c):
        """The valuation of the exact constant c, a site's value."""
        v = ords.get(id(c))
        if v is None:
            v = ords[id(c)] = c.ord()
        return v

    def _site(self, site, values, ords, env, vf_env, zeros):
        """Fold one site, of a kind the boxcode docstring lists, by the
        reference semantics: a field term as `eval_vf_term` evaluates it
        in the converted vf_env, anything else as `interpret` does."""
        spec = self.spec
        op, arg = site[1], site[2]
        if op == "vf":
            if type(arg) is VfNeg and type(arg.operand) is VfConst \
                    and arg.operand.value.denominator % self.p:
                # the image of -c, which negating the image of c gives; in
                # F_p((t)) a c whose denominator p divides has no image,
                # and the evaluator raises that error naming c
                return localfield.embed_rational(-arg.operand.value, spec)
            return self.evaluator.vf(arg, vf_env)
        if op in ("rf", "zz", "truth"):
            return getattr(self.evaluator, op)(arg, env)
        c = values[arg]
        if op == "ord":
            return (c.ord_bounds() if not c.exact
                    else (self._ord(ords, c),) * 2)
        if c.spec is not spec and c.spec != spec:
            # a constant from another field: the reference operation
            # raises its own error, the box side stood in by a zero
            (lf_add if op == "addk" else lf_mul)(c, spec.zero())
        v = self._ord(ords, c) if c.exact else None
        if op == "addk":
            return self.ops.summand(c, v)
        if v == INF:
            zeros.setdefault(site[0], set()).add(site[3])
            return None
        return self.ops.factor(c, v)


def _prepare(phi, spec, integrand, assignment, budget):
    phi = _as_formula(phi)
    assignment = dict(assignment or {})
    missing = [n for n, s in phi.free
               if s is not Sort.VF and n not in assignment]
    if missing:
        raise UnboundVariable(
            "residue/value-group parameters must be bound by the caller: "
            + ", ".join(sorted(missing)))
    if not integrand.is_one:
        have = set(assignment) | {n for n, s in phi.free if s is Sort.VF}
        loose = [n for n in free_vars(integrand.f) if n not in have]
        if loose:
            raise UnboundVariable(
                "integrand mentions variables outside the domain: "
                + ", ".join(sorted(loose)))
    walk = _BoxWalk(phi, spec, integrand, assignment)
    check_budget(walk.p, walk.depth * walk.m, budget,
                 "%d^(%d*%d) residue boxes" % (walk.p, walk.depth, walk.m))
    return walk


def volume(phi, spec, *, assignment=None, budget=None):
    """Exact rational bracket around the measure of the integral points
    satisfying phi.

    Free field variables range over the valuation ring; residue and
    value-group parameters must be pre-bound through `assignment`.
    Residue quantifiers, the only ones `parse` allows, are decided on
    each box as `interpret` decides them.
    """
    return _prepare(phi, spec, IntegrandSpec.one(), assignment,
                    budget).run()


def integrate(integrand, phi, field, *, assignment=None, budget=None):
    """Bracket the integral of `integrand` over the set phi cuts out of
    the valuation ring, against the normalized Haar measure."""
    return _prepare(phi, field, integrand, assignment, budget).run()


def serre_oesterle_count(system, d, spec, N, *, budget=None):
    """#solutions of the polynomial system mod ϖ^N, divided by p^(N*d).

    The caller supplies the intended dimension d; for a smooth
    d-dimensional set the value stabilizes in N at #points(residue
    field)/p^d.  For integral polynomials in m variables the count is
    p^(N*m) times the volume of {x in O^m : ord f_i(x) >= N for all i}
    (Serre, Publ. Math. IHÉS 54, 1981; Oesterlé, Invent. Math. 66, 1982),
    and the box walk decides that set exactly at depth N, in Q_p and in
    F_p((t)) alike.  A coefficient not integral at p raises BadPrime; in
    F_p((t)) one whose denominator p divides has no image and raises
    InvalidPrime, as eval_vf_term does.
    """
    if isinstance(system, (str, Node)):
        system = [system]
    terms = [parse_term(f, Sort.VF) if isinstance(f, str) else f
             for f in system]
    if not terms:
        raise ValueError("empty polynomial system")
    names = list(dict.fromkeys(n for t in terms for n in free_vars(t)))
    if not names:
        raise UnsupportedFeature("system has no variables")
    spec = replace(spec, precision=N)
    if not all(_integral(t, spec, names) for t in terms):
        raise BadPrime("a coefficient is not integral at %d" % spec.prime)
    phi = Formula(functools.reduce(And, [ZzLe(ZzConst(N), ZzOrd(t))
                                         for t in terms]),
                  [(name, Sort.VF) for name in names])
    iv = volume(phi, spec, budget=budget)
    if iv.lower != iv.upper:
        raise AssertionError("undecided boxes at full depth: %r" % (iv,))
    return iv.lower * Fraction(spec.prime) ** (N * (len(names) - d))
