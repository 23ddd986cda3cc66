"""Numeric ground truth by exhaustive residue-box enumeration.

Volumes and integrals over the valuation ring come back as exact rational
intervals: a box mod ϖ^N that the three-valued interpreter decides True
contributes its measure to both endpoints, a box it cannot decide widens
only the upper endpoint.  Three-valued truth refines monotonically as
digits are added, so a subtree can be classified the moment its root box
decides; the result is identical to flat enumeration of all p^(N*m) boxes,
which is what the box budget meters.

Domain membership is decided by `interpret` on `from_digits` boxes, but
only until it is TRUE: the children of a TRUE box inherit it without a
call, and a FALSE box is pruned.  `interpret` stays the reference for
every box it is asked about.  The integrand |f|^e is compiled once per
walk: subterms without a box variable are folded through `eval_vf_term`,
and the rest runs over plain integers, (valuation, unit mod p^k) in Q_p
and (valuation, digit tuple) in F_p((t)), copying the precision rules of
`localfield`'s add, mul and neg digit for digit.  `LFElem` arithmetic
stays the reference semantics; the tests hold the compiled evaluator to
it on random terms and boxes.  A box at depth d with integrand valuation
v contributes p^-(d*m + e*v), so the walk counts boxes per exponent and
forms each endpoint as one Fraction at the end.

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
exponent in a table of their own.  The derivatives are compiled, like f,
once per walk and only when a box needs them.

Nothing here is symbolic.  The point is an independent check on the
symbolic engine, plus the classical consistency checks: Jacobian scaling,
and Serre–Oesterlé solution counts mod ϖ^N, read off the same walk.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

from .budget import check as check_budget
from .errors import (BadPrime, InvalidArgument, UnboundVariable,
                     UnsupportedFeature)
from .formula import (And, Formula, Node, Sort, Truth3, VfAdd, VfConst,
                      VfMul, VfNeg, VfPow, VfSub, VfUnif, VfVar, ZzConst,
                      ZzLe, ZzOrd, eval_vf_term, free_vars, interpret, parse)
from .formula.nodes import children, substitute
from .localfield import INF, FieldKind, LFElem, embed_rational, from_digits
from .localfield import add as lf_add, mul as lf_mul, neg as lf_neg


def fraction_str(x):
    """Unambiguous "numerator/denominator" rendering, denominator always
    present."""
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class VolumeInterval:
    """Exact rational bracket [lower, upper] around a measure or integral.

    undecided_mass is the total contribution bound of the boxes the
    interpreter could not settle, i.e. exactly upper - lower.  Box counters
    are nominal full-depth counts (a subtree classified early counts all
    the boxes it covers).  boxes_true includes boxes_hensel, the boxes
    settled by Hensel's lemma: boxes at level l >= 1 where f is integral,
    some partial derivative has one valuation d < l and ord f >= l + d,
    each contributing its measure times p^-(e*(l+d)) times the integral
    of |z|^e over O.  nodes_visited is the work actually done: the number
    of boxes the walk classified, at every level.

    Both endpoints are exact sums of powers p^-(d*m + e*v) over the boxes
    that count, with v the integrand's valuation bound on each box (from
    the compiled integrand, which agrees with `LFElem` arithmetic); they
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

    def overlaps(self, other):
        return self.lower <= other.upper and other.lower <= self.upper

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


def parse_vf_polynomial(text):
    """Parse a valued-field polynomial term such as "y^3 - x".

    Every identifier is read at the field sort; returns the term AST."""
    phi = parse("(%s) == 0" % text, default_sort=Sort.VF)
    return phi.expr.left


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
        if int(e) < 1:
            raise InvalidArgument("exponent must be a positive integer")
        if isinstance(f, str):
            f = parse_vf_polynomial(f)
        return cls(f, int(e))

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
# the integrand, compiled once per walk
#
# A value that depends on the box is a tuple of plain integers standing for
# one truncated LFElem: (val, unit mod p^k, k) in Q_p, (val, digit tuple, k)
# in F_p((t)), and (val, 0, None) when only ord >= val is known.  Each
# operation follows localfield's add/mul/neg precision rules digit for
# digit, so the valuation bounds agree with eval_vf_term on every box.


class _ExactConstant:
    """An exact nonzero constant as the forms localfield truncates it to,
    its unit digits expanded through LFElem.digits once per length."""

    __slots__ = ("val", "_elem", "_pack", "_forms")

    def __init__(self, elem, pack):
        self.val = elem.ord()
        self._elem = elem
        self._pack = pack
        self._forms = {}

    def form(self, k):
        """The constant to k unit digits."""
        got = self._forms.get(k)
        if got is None:
            got = self._forms[k] = (self.val, self._pack(self._elem.digits(k)),
                                    k)
        return got

    def upto(self, bound):
        """The constant known below absolute precision `bound`."""
        if self.val >= bound:
            return (bound, 0, None)
        return self.form(bound - self.val)


class _FieldOps:
    """What Q_p and F_p((t)) forms share."""

    def __init__(self, p, precision):
        self.p = p
        self.precision = precision

    def form(self, elem):
        if not elem.known:
            return (elem.val, 0, None)
        return (elem.val, self.pack(elem.known), len(elem.known))


class _QpOps(_FieldOps):
    """Q_p forms (val, u, k): the element is p^val * (u + O(p^k))."""

    def pack(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def child(self, form, level, d):
        """The form of from_digits(spec, 0, digits + (d,)) for a box at
        `level` whose digits have the given form."""
        val, u, k = form
        if k is None:
            return (level + 1, 0, None) if d == 0 else (level, d, 1)
        return (val, u + d * self.p ** k, k + 1)

    def add(self, a, b):
        va, ua, ka = a
        vb, ub, kb = b
        bound = min(va + (ka or 0), vb + (kb or 0))
        low = min(va, vb)
        if bound <= low:
            return (bound, 0, None)
        p = self.p
        s = (ua * p ** (va - low) + ub * p ** (vb - low)) % p ** (bound - low)
        # the digits of s on [low, bound): strip leading zeros, truncate
        if not s:
            return (bound, 0, None)
        v = 0
        while s % p == 0:
            s //= p
            v += 1
        k = min(bound - low - v, self.precision)
        return (low + v, s % p ** k, k)

    def neg(self, a):
        va, ua, ka = a
        if ka is None:
            return a
        return (va, -ua % self.p ** ka, ka)

    def mul(self, a, b):
        va, ua, ka = a
        vb, ub, kb = b
        if ka is None or kb is None:
            return (va + vb, 0, None)
        k = min(ka, kb, self.precision)
        return (va + vb, ua * ub % self.p ** k, k)


class _FptOps(_FieldOps):
    """F_p((t)) forms (val, digits, k): t^val * (digits + O(t^k)), with
    k == len(digits)."""

    pack = staticmethod(tuple)

    def child(self, form, level, d):
        val, ds, k = form
        if k is None:
            return (level + 1, 0, None) if d == 0 else (level, (d,), 1)
        return (val, ds + (d,), k + 1)

    def add(self, a, b):
        va, da, ka = a
        vb, db, kb = b
        bound = min(va + (ka or 0), vb + (kb or 0))
        low = min(va, vb)
        if bound <= low:
            return (bound, 0, None)
        p = self.p
        out = [0] * (bound - low)
        for offset, digits in ((va - low, da), (vb - low, db)):
            if digits:
                for i in range(min(len(digits), len(out) - offset)):
                    out[offset + i] = (out[offset + i] + digits[i]) % p
        for v, d in enumerate(out):
            if d:
                kept = tuple(out[v:v + self.precision])
                return (low + v, kept, len(kept))
        return (bound, 0, None)

    def neg(self, a):
        va, da, ka = a
        if ka is None:
            return a
        p = self.p
        return (va, tuple(-d % p for d in da), ka)

    def mul(self, a, b):
        va, da, ka = a
        vb, db, kb = b
        if ka is None or kb is None:
            return (va + vb, 0, None)
        k = min(ka, kb, self.precision)
        out = [0] * k
        for i in range(k):
            x = da[i]
            if x:
                for j in range(k - i):
                    out[i + j] += x * db[j]
        p = self.p
        return (va + vb, tuple(d % p for d in out), k)


def _field_ops(spec):
    kind = _QpOps if spec.kind is FieldKind.CHAR_ZERO else _FptOps
    return kind(spec.prime, spec.precision)


class _CompiledIntegrand:
    """A field term compiled over the walk's box variables.

    Subterms without a box variable are folded once through eval_vf_term,
    the reference semantics, and so raise exactly its errors; what depends
    on the box runs over integer forms.  `ord_bounds(forms)` takes one
    form per box variable and equals eval_vf_term(...).ord_bounds() on the
    corresponding from_digits box; `evaluate(forms)` gives the value
    itself, a form or a box-independent LFElem.
    """

    def __init__(self, term, spec, names, assignment):
        self.spec = spec
        self.ops = _field_ops(spec)
        self.index = {name: i for i, name in enumerate(names)}
        # eval_vf_term converts every assigned value, used or not, so a
        # value with no image in this field raises here as it would there
        self.env = {name: embed_rational(Fraction(v), spec)
                    if isinstance(v, (int, Fraction)) else v
                    for name, v in assignment.items()}
        # whether every folded subterm is exact and integral, so that the
        # term is a polynomial over the valuation ring in the box variables
        self.integral = True
        # ids of the subterms that mention a box variable; `term` keeps
        # them alive while it is compiled
        self.boxed = set()
        self._mark(term)
        root = self._compile(term)
        self.evaluate = root if callable(root) else lambda forms: root

    def ord_bounds(self, forms):
        value = self.evaluate(forms)
        if isinstance(value, LFElem):
            return value.ord_bounds()
        val, _, k = value
        return (val, val) if k is not None else (val, INF)

    def _mark(self, node):
        """Add to self.boxed the id of every subterm of node that mentions
        a box variable, in one bottom-up pass; whether node does."""
        if isinstance(node, VfVar):
            hit = node.name in self.index
        else:
            hit = False
            for child in children(node):
                hit = self._mark(child) or hit
        if hit:
            self.boxed.add(id(node))
        return hit

    def _compile(self, node):
        """An LFElem when the value does not depend on the box, else a
        function from the box forms to a form."""
        if id(node) not in self.boxed:
            value = eval_vf_term(node, self.spec, self.env)
            self.integral = self.integral and value.exact \
                and value.ord() >= 0
            return value
        if isinstance(node, VfVar):
            return operator.itemgetter(self.index[node.name])
        if isinstance(node, (VfAdd, VfSub)):
            left = self._compile(node.left)
            right = self._compile(node.right)
            if isinstance(node, VfSub):
                right = self._neg(right)
            return self._binary(left, right, lf_add, self.ops.add)
        if isinstance(node, VfMul):
            return self._binary(self._compile(node.left),
                                self._compile(node.right), lf_mul,
                                self.ops.mul)
        if isinstance(node, VfNeg):
            return self._neg(self._compile(node.operand))
        if isinstance(node, VfPow):
            return self._pow(self._compile(node.base), node.exponent)
        raise AssertionError(node)

    def _neg(self, x):
        if isinstance(x, LFElem):
            return lf_neg(x)
        op = self.ops.neg
        return lambda forms: op(x(forms))

    def _pow(self, base, n):
        acc = embed_rational(1, self.spec)
        if isinstance(base, LFElem):
            for _ in range(n):
                acc = lf_mul(acc, base)
            return acc
        if n == 0:
            return acc
        # 1 * b is b itself, so the product starts from the base
        op = self.ops.mul

        def power(forms):
            b = base(forms)
            out = b
            for _ in range(n - 1):
                out = op(out, b)
            return out
        return power

    def _binary(self, left, right, lf_op, op):
        left_const = isinstance(left, LFElem)
        right_const = isinstance(right, LFElem)
        if left_const and right_const:
            return lf_op(left, right)
        if not (left_const or right_const):
            return lambda forms: op(left(forms), right(forms))
        c, f = (left, right) if left_const else (right, left)
        if c.spec != self.spec:
            # a constant from another field: let the reference operation
            # raise its own error, with the box side stood in by a zero
            probe = self.spec.zero()
            lf_op(left if left_const else probe,
                  right if right_const else probe)
        if c.is_exact_zero():
            return self.spec.zero() if lf_op is lf_mul else f
        if not c.exact:
            form = self.ops.form(c)
        elif lf_op is lf_mul:
            # a product keeps at most `precision` digits of either factor
            form = _ExactConstant(c, self.ops.pack).form(self.spec.precision)
        else:
            # a sum is known up to the box side's absolute precision
            k = _ExactConstant(c, self.ops.pack)

            def add_exact(forms):
                a = f(forms)
                return op(a, k.upto(a[0] + (a[2] or 0)))
            return add_exact
        return lambda forms: op(f(forms), form)


def _derivative(node, name):
    """The formal partial derivative of a field term in the variable
    `name`, or None when it is identically zero."""
    def d(n):
        return _derivative(n, name)

    def plus(a, b):
        return b if a is None else a if b is None else VfAdd(a, b)

    def times(a, b):
        return None if a is None or b is None else VfMul(a, b)

    if isinstance(node, VfVar):
        return VfConst(Fraction(1)) if node.name == name else None
    if isinstance(node, (VfConst, VfUnif)):
        return None
    if isinstance(node, VfAdd):
        return plus(d(node.left), d(node.right))
    if isinstance(node, VfSub):
        return plus(d(node.left), times(VfConst(Fraction(-1)), d(node.right)))
    if isinstance(node, VfNeg):
        return times(VfConst(Fraction(-1)), d(node.operand))
    if isinstance(node, VfMul):
        return plus(times(d(node.left), node.right),
                    times(node.left, d(node.right)))
    if isinstance(node, VfPow):
        if node.exponent == 0:
            return None
        return times(VfMul(VfConst(Fraction(node.exponent)),
                           VfPow(node.base, node.exponent - 1)),
                     d(node.base))
    raise AssertionError(node)


def _mass(p, counts):
    """sum(count * p^-x) over {x: count}, as one exact Fraction."""
    top = max(max(counts, default=0), 0)
    return Fraction(sum(c * p ** (top - x) for x, c in counts.items()),
                    p ** top)


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
        self.compiled = None
        self.derivatives = None
        self.lower_counts = {}
        self.upper_counts = {}
        self.hensel_counts = {}
        self.boxes_true = 0
        self.boxes_undecided = 0
        self.boxes_hensel = 0
        self.nodes_visited = 0

    def nominal_boxes(self):
        return self.p ** (self.depth * self.m)

    def run(self):
        self.walk(tuple(() for _ in self.names),
                  tuple((0, 0, None) for _ in self.names), 0,
                  Truth3.UNDECIDED)
        p, e = self.p, self.integrand.e
        # a Hensel box's own p^-(level*m + e*(level + delta)) times the
        # integral of |z|^e over O, (1 - p^-1)/(1 - p^-(1+e))
        settled = _mass(p, self.hensel_counts) * Fraction(
            p ** (e + 1) - p ** e, p ** (e + 1) - 1)
        lower = _mass(p, self.lower_counts) + settled
        upper = _mass(p, self.upper_counts) + settled
        return VolumeInterval(lower, upper, self.depth, upper - lower,
                              self.nominal_boxes(), self.boxes_true,
                              self.boxes_undecided, self.boxes_hensel,
                              self.nodes_visited)

    def integrand_bounds(self, forms):
        """(lower, upper) bounds on the integrand's valuation over the
        box; equal when decided, INF for the value 0.  The integrand is
        compiled on first use, so a walk that never evaluates it never
        raises its errors, just as with per-box evaluation."""
        if self.integrand.is_one:
            return 0, 0
        if self.compiled is None:
            self.compiled = _CompiledIntegrand(
                self.integrand.f, self.spec, self.names, self.assignment)
        return self.compiled.ord_bounds(forms)

    def hensel_delta(self, forms, level, vlo):
        """The least delta < level such that some partial derivative of
        the integral integrand f has valuation exactly delta on the whole
        box at this level, with ord f >= level + delta there; None when
        there is none.  The derivatives are compiled on first use, and
        only when f is integral."""
        if not 1 <= level <= vlo:  # ord f >= level + delta >= level
            return None
        if self.derivatives is None:
            self.derivatives = []
            if self.compiled.integral:
                for name in self.names:
                    term = _derivative(self.integrand.f, name)
                    if term is not None:
                        self.derivatives.append(_CompiledIntegrand(
                            term, self.spec, self.names, self.assignment))
        bounds = (d.ord_bounds(forms) for d in self.derivatives)
        return min((lo for lo, hi in bounds
                    if lo == hi and lo < level and level + lo <= vlo),
                   default=None)

    def credit(self, counts, level, v):
        if v is not INF:
            x = level * self.m + self.integrand.e * v
            counts[x] = counts.get(x, 0) + 1

    def walk(self, prefixes, forms, level, membership):
        """Classify the box with these digit prefixes; `membership` is
        its parent's, TRUE being inherited as is."""
        self.nodes_visited += 1
        if membership is not Truth3.TRUE:
            env = dict(self.assignment)
            for name, digs in zip(self.names, prefixes):
                env[name] = from_digits(self.spec, 0, digs)
            membership = interpret(self.phi, self.spec, env,
                                   self.vf_witness_depth)
            if membership is Truth3.FALSE:
                return
        weight = self.p ** ((self.depth - level) * self.m)
        if membership is Truth3.TRUE:
            vlo, vhi = self.integrand_bounds(forms)
            if vlo == vhi:
                self.credit(self.lower_counts, level, vlo)
                self.credit(self.upper_counts, level, vlo)
                self.boxes_true += weight
                return
            delta = self.hensel_delta(forms, level, vlo)
            if delta is not None:
                # Hensel: f/pi^(level + delta) carries the box's
                # normalised measure onto the Haar measure of O
                self.credit(self.hensel_counts, level, level + delta)
                self.boxes_true += weight
                self.boxes_hensel += weight
                return
            if level == self.depth:
                self.boxes_undecided += weight
                self.credit(self.upper_counts, level, vlo)
                return
        elif level == self.depth:
            vlo, _ = self.integrand_bounds(forms)
            self.boxes_undecided += weight
            self.credit(self.upper_counts, level, vlo)
            return
        children = [[self.ops.child(form, level, d) for d in range(self.p)]
                    for form in forms]
        for combo in itertools.product(range(self.p), repeat=self.m):
            self.walk(tuple(digs + (d,)
                            for digs, d in zip(prefixes, combo)),
                      tuple(row[d] for row, d in zip(children, combo)),
                      level + 1, membership)


def _prepare(phi, spec, integrand, assignment, budget, vf_witness_depth):
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
    walk = _BoxWalk(phi, spec, integrand, assignment, vf_witness_depth)
    check_budget(walk.p, walk.depth * walk.m, budget,
                 "%d^(%d*%d) residue boxes" % (walk.p, walk.depth, walk.m))
    return walk


def volume(phi, spec, *, assignment=None, budget=None,
           vf_witness_depth=None):
    """Exact rational bracket around the measure of the integral points
    satisfying phi.

    Free field variables range over the valuation ring; residue and
    value-group parameters must be pre-bound through `assignment`.
    Field quantifiers are rejected unless a witness depth is supplied.
    """
    walk = _prepare(phi, spec, IntegrandSpec.one(), assignment, budget,
                    vf_witness_depth)
    return walk.run()


def integrate(integrand, phi, field, *, assignment=None, budget=None,
              vf_witness_depth=None):
    """Bracket the integral of `integrand` over the set phi cuts out of
    the valuation ring, against the normalized Haar measure."""
    walk = _prepare(phi, field, integrand, assignment, budget,
                    vf_witness_depth)
    return walk.run()


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
    terms = [parse_vf_polynomial(f) if isinstance(f, str) else f
             for f in system]
    if not terms:
        raise ValueError("empty polynomial system")
    names = list(dict.fromkeys(n for t in terms for n in free_vars(t)))
    if not names:
        raise UnsupportedFeature("system has no variables")
    spec = replace(spec, precision=N)
    if not all(_CompiledIntegrand(t, spec, names, {}).integral for t in terms):
        raise BadPrime("a coefficient is not integral at %d" % spec.prime)
    phi = Formula(functools.reduce(And, [ZzLe(ZzConst(N), ZzOrd(t))
                                         for t in terms]),
                  [(name, Sort.VF) for name in names])
    iv = volume(phi, spec, budget=budget)
    if iv.lower != iv.upper:
        raise AssertionError("undecided boxes at full depth: %r" % (iv,))
    return iv.lower * Fraction(spec.prime) ** (N * (len(names) - d))


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
