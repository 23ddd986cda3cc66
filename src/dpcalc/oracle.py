"""Numeric ground truth by exhaustive residue-box enumeration.

Volumes and integrals over the valuation ring come back as exact rational
intervals: a box mod ϖ^N that the three-valued interpreter decides True
contributes its measure to both endpoints, a box it cannot decide widens
only the upper endpoint.  Three-valued truth refines monotonically as
digits are added, so a subtree can be classified the moment its root box
decides; the result is identical to flat enumeration of all p^(N*m) boxes,
which is what the box budget meters.

Domain membership is decided by `interpret` on `from_digits` boxes.  The
integrand |f|^e is compiled once per walk: subterms without a box
variable are folded through `eval_vf_term`, and the rest runs over plain
integers, (valuation, unit mod p^k) in Q_p and (valuation, digit tuple)
in F_p((t)), copying the precision rules of `localfield`'s add, mul and
neg digit for digit.  `LFElem` arithmetic stays the reference semantics;
the tests hold the compiled evaluator to it on random terms and boxes.
A box at depth d with integrand valuation v contributes p^-(d*m + e*v),
so the walk counts boxes per exponent and forms each endpoint as one
Fraction at the end.

Nothing here is symbolic.  The point is an independent check on the
symbolic engine, plus the classical consistency checks (Weil point-count
stabilization, Jacobian scaling).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BadPrime, BudgetExceeded, UnboundVariable,
                     UnsupportedFeature)
from .formula import (Exists, Formula, Node, Sort, Truth3, VfAdd, VfConst,
                      VfMul, VfNeg, VfPow, VfSub, VfUnif, VfVar,
                      eval_vf_term, free_vars, interpret, parse)
from .localfield import INF, FieldKind, LFElem, embed_rational, from_digits
from .localfield import add as lf_add, mul as lf_mul, neg as lf_neg

DEFAULT_BOX_BUDGET = 10 ** 8
_BUDGET_ENV = "DPCALC_BOX_BUDGET"


def _resolve_budget(budget):
    if budget is not None:
        return int(budget)
    configured = os.environ.get(_BUDGET_ENV)
    if configured:
        return int(configured)
    return DEFAULT_BOX_BUDGET


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
    the boxes it covers).

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
                              self.boxes_undecided)

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
            raise ValueError("exponent must be a positive integer")
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
        root = self._compile(term)
        self.evaluate = root if callable(root) else lambda forms: root

    def ord_bounds(self, forms):
        value = self.evaluate(forms)
        if isinstance(value, LFElem):
            return value.ord_bounds()
        val, _, k = value
        return (val, val) if k is not None else (val, INF)

    def _compile(self, node):
        """An LFElem when the value does not depend on the box, else a
        function from the box forms to a form."""
        if not any(name in self.index for name in free_vars(node)):
            return eval_vf_term(node, self.spec, self.env)
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
        self.lower_counts = {}
        self.upper_counts = {}
        self.boxes_true = 0
        self.boxes_undecided = 0

    def nominal_boxes(self):
        return self.p ** (self.depth * self.m)

    def run(self):
        self.walk(tuple(() for _ in self.names),
                  tuple((0, 0, None) for _ in self.names), 0)
        lower = _mass(self.p, self.lower_counts)
        upper = _mass(self.p, self.upper_counts)
        return VolumeInterval(lower, upper, self.depth, upper - lower,
                              self.nominal_boxes(), self.boxes_true,
                              self.boxes_undecided)

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

    def credit(self, counts, level, v):
        if v is not INF:
            x = level * self.m + self.integrand.e * v
            counts[x] = counts.get(x, 0) + 1

    def walk(self, prefixes, forms, level):
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
                      level + 1)


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
    limit = _resolve_budget(budget)
    if walk.nominal_boxes() > limit:
        raise BudgetExceeded(
            "%d^(%d*%d) = %d residue boxes exceed the budget of %d"
            % (walk.p, walk.depth, walk.m, walk.nominal_boxes(), limit))
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


def _np_pow(base, k, modulus):
    import numpy as np
    out = np.full_like(base, 1 % modulus)
    b = base % modulus
    while k:
        if k & 1:
            out = (out * b) % modulus
        b = (b * b) % modulus
        k >>= 1
    return out


def _np_source(node, index, modulus, p):
    """Polynomial term AST -> numpy expression source, reduced after every
    operation so products stay inside int64."""
    if isinstance(node, VfVar):
        return "v%d" % index[node.name]
    if isinstance(node, VfConst):
        value = Fraction(node.value)
        try:
            inv = pow(value.denominator, -1, modulus)
        except ValueError:
            raise BadPrime("coefficient %s is not integral at %d"
                           % (value, p)) from None
        return repr((value.numerator * inv) % modulus)
    if isinstance(node, VfUnif):
        return repr(p % modulus)
    binops = {VfAdd: "+", VfSub: "-", VfMul: "*"}
    op = binops.get(type(node))
    if op is not None:
        return "((%s %s %s) %% M)" % (
            _np_source(node.left, index, modulus, p), op,
            _np_source(node.right, index, modulus, p))
    if isinstance(node, VfNeg):
        return "((-%s) %% M)" % _np_source(node.operand, index, modulus, p)
    if isinstance(node, VfPow):
        return "_pw(%s, %d, M)" % (_np_source(node.base, index, modulus, p),
                                   node.exponent)
    raise UnsupportedFeature(
        "%s is not a polynomial construct" % type(node).__name__)


_CHUNK = 1 << 18


def serre_oesterle_count(system, d, spec, N, *, budget=None):
    """#solutions of the polynomial system mod ϖ^N, divided by p^(N*d).

    The caller supplies the intended dimension d; for a smooth
    d-dimensional set the value stabilizes in N at #points(residue
    field)/p^d.  Characteristic-zero fields only (the grid is Z/p^N).
    """
    # imported here rather than with the module: nothing else in dpcalc
    # uses numpy, and its import costs ~14 MB and ~0.16 s at start-up
    import numpy as np

    if spec.kind is not FieldKind.CHAR_ZERO:
        raise UnsupportedFeature(
            "the grid counter only covers the characteristic-zero case")
    if isinstance(system, (str, Node)):
        system = [system]
    terms = [parse_vf_polynomial(f) if isinstance(f, str) else f
             for f in system]
    if not terms:
        raise ValueError("empty polynomial system")
    index = {}
    for term in terms:
        for name in free_vars(term):
            index.setdefault(name, len(index))
    if not index:
        raise UnsupportedFeature("system has no variables")
    p = spec.prime
    modulus = p ** N
    total = modulus ** len(index)
    limit = _resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(
            "%d grid points exceed the budget of %d" % (total, limit))
    if modulus > 3_000_000_000:
        raise UnsupportedFeature("modulus too large for the int64 grid")
    sources = [compile(_np_source(t, index, modulus, p), "<poly>", "eval")
               for t in terms]
    consts = {"__builtins__": {}, "M": modulus, "_pw": _np_pow}
    count = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        local = {}
        rem = idx
        for j in range(len(index)):
            local["v%d" % j] = rem % modulus
            rem = rem // modulus
        ok = np.ones(idx.shape, dtype=bool)
        for src in sources:
            vals = eval(src, consts, local)
            ok &= np.asarray(vals) % modulus == 0
        count += int(np.count_nonzero(ok))
    return Fraction(count, p ** (N * d))


def _scale_vf_vars(node, names, factor):
    """Replace each free occurrence of the named field variables v by
    factor*v."""
    if isinstance(node, VfVar) and node.name in names:
        return VfMul(VfConst(factor), node)
    if isinstance(node, Exists):
        inner = names - {node.var}
        return Exists(node.var, node.sort,
                      _scale_vf_vars(node.body, inner, factor))
    if not dataclasses.is_dataclass(node):
        return node
    changed = False
    kwargs = {}
    for field in dataclasses.fields(node):
        v = getattr(node, field.name)
        if isinstance(v, Node):
            nv = _scale_vf_vars(v, names, factor)
            changed = changed or nv is not v
            kwargs[field.name] = nv
        else:
            kwargs[field.name] = v
    return type(node)(**kwargs) if changed else node


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
    scaled = Formula(_scale_vf_vars(phi.expr, names, 1 / a), phi.free)
    return (volume(phi, spec, assignment=assignment, budget=budget),
            volume(scaled, spec, assignment=assignment, budget=budget))
