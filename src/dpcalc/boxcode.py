"""Residue boxes as integer forms, and the box classifier the oracle's
walk compiles from its structure.

A value that depends on the box is a tuple of plain integers standing for
one truncated LFElem: (val, unit mod p^k, k) in Q_p, (val, digit tuple, k)
in F_p((t)), and (val, 0, None) when only ord >= val is known.  `_QpOps`
and `_FptOps` follow localfield's add, mul and neg precision rules digit
for digit, so every valuation bound agrees with `LFElem` arithmetic on
the corresponding `from_digits` box; they are the only implementation of
those rules over forms.

`compile_walk(expr, f, derivatives, names, kind)` turns a walk's domain
formula, its integrand f and the formal partial derivatives of f into the
source of one Python function per structure, as `formula/count.py` does
for point counts.  The function takes a box's forms and returns its
three-valued membership, the integrand's valuation bounds and the least
Hensel delta, with every subterm computed once as a local.  What it
covers of the formula is everything `interpret` decides on a box except
field and value-group quantifiers: And/Or/Not, value-group comparisons
and congruences, residue (in)equalities over `ac` terms and bound
residues, field equalities, and `exists x:rf` as a loop over F_p in which
whatever does not depend on x is computed once before the loop.  A field-
or value-group-quantified subformula is handed back to the walk, which
asks `interpret` about it on that box.

Subterms without a box variable are not in the code: each is a *site*,
which the walk folds once through the reference semantics and passes in
as an argument, so the source depends on structure only and never on the
prime or on bound constants.  The sites are listed in the order in which
`interpret` would evaluate them, by section: "m" for membership, "f" for
the integrand, "d" for its derivatives.  The compiled functions are kept
in a bounded LRU memo that holds code, never a value.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .formula.interpret import (_PINF_POINT, Truth3, _zi_add, _zi_neg,
                                _zi_scale, zz_cong, zz_eq, zz_le, zz_lt)
from .formula.nodes import (And, Exists, Not, Or, RfAc, RfAdd, RfConst, RfEq,
                            RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort,
                            VfAdd, VfConst, VfEq, VfMul, VfNeg, VfPow, VfSub,
                            VfUnif, VfVar, ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf,
                            ZzLe, ZzLt, ZzNeg, ZzOrd, ZzScale, ZzSub, ZzVar,
                            children, free_vars, walk)
from .formula.printer import _term, pretty_print
from .localfield import INF, FieldKind

# distinct walk structures whose classifiers are kept
MEMO_SIZE = 256


# ---------------------------------------------------------------------------
# forms


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


class _InexactConstant:
    """A truncated constant: the sum with a box keeps its own window."""

    __slots__ = ("_form",)

    def __init__(self, form):
        self._form = form

    def upto(self, bound):
        return self._form


class _FieldOps:
    """What Q_p and F_p((t)) forms share."""

    def __init__(self, p, precision):
        self.p = p
        self.precision = precision

    def form(self, elem):
        if not elem.known:
            return (elem.val, 0, None)
        return (elem.val, self.pack(elem.known), len(elem.known))

    def summand(self, c):
        """The constant c as it enters a sum with a box: an exact one, 0
        included, is known up to the box side's absolute precision, and a
        truncated one keeps its own window."""
        return _ExactConstant(c, self.pack) if c.exact \
            else _InexactConstant(self.form(c))

    def factor(self, c):
        """A constant c other than the exact 0 as it enters a product:
        it keeps at most `precision` digits of either factor."""
        return _ExactConstant(c, self.pack).form(self.precision) \
            if c.exact else self.form(c)


class _QpOps(_FieldOps):
    """Q_p forms (val, u, k): the element is p^val * (u + O(p^k))."""

    # source of the angular component of a form held in a local
    AC = "%s[1] %% p if %s[2] else None"

    def pack(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def unit_digits(self, form):
        _, u, k = form
        return [u // self.p ** i % self.p for i in range(k or 0)]

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

    AC = "%s[1][0] if %s[2] else None"

    pack = staticmethod(tuple)

    def unit_digits(self, form):
        return list(form[1]) if form[2] else []

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


_OPS = {FieldKind.CHAR_ZERO: _QpOps, FieldKind.EQUAL_CHAR: _FptOps}


def _field_ops(spec):
    return _OPS[spec.kind](spec.prime, spec.precision)


# ---------------------------------------------------------------------------
# the compiled classifier


_VF_TERMS = (VfVar, VfConst, VfUnif, VfAdd, VfSub, VfMul, VfNeg, VfPow)
_ATOMS = (VfEq, RfEq, RfNe, ZzEq, ZzLe, ZzLt, ZzCong)


def closed_parts(node, excluded):
    """The maximal field subterms of node that mention no variable in
    `excluded` and none bound inside node, left to right, skipping the
    sides of an atom that reflexivity decides unevaluated."""
    if isinstance(node, Exists):
        yield from closed_parts(node.body, excluded | {node.var})
        return
    if isinstance(node, _ATOMS) and node.left == node.right:
        return
    if isinstance(node, _VF_TERMS) and not any(
            isinstance(n, VfVar) and n.name in excluded for n in walk(node)):
        yield node
        return
    for child in children(node):
        yield from closed_parts(child, excluded)


def _derivative(node, name):
    """The formal partial derivative of a field term in the variable
    `name`, or None when it is identically zero."""
    def d(n):
        return _derivative(n, name)

    def plus(a, b):
        return b if a is None else a if b is None else VfAdd(a, b)

    def times(a, b):
        if a is None or b is None:
            return None
        # a factor 1 changes no form: every form keeps at most `precision`
        # digits, which a product with the exact 1 keeps as they are
        return a if b == _ONE else b if a == _ONE else VfMul(a, b)

    if isinstance(node, VfVar):
        return _ONE if node.name == name else None
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


_ONE = VfConst(Fraction(1))


class _Block:
    """Straight-line code with the values it has computed.  A line is a
    statement or (header, block); `loop` names the residue variable a
    loop body binds, and nothing is hoisted out of a `top` block."""

    __slots__ = ("lines", "cache", "parent", "loop", "top")

    def __init__(self, parent=None, loop=None, top=False):
        self.lines = []
        self.cache = {}
        self.parent = parent
        self.loop = loop
        self.top = top

    def render(self, indent, out):
        if not self.lines:
            out.append("    " * indent + "pass")
        for line in self.lines:
            if isinstance(line, str):
                out.append("    " * indent + line)
            else:
                header, block = line
                out.append("    " * indent + header)
                block.render(indent + 1, out)


class Plan:
    """One walk structure compiled: `sites` in binding order, each
    (section, op, *args) with args naming earlier sites by index;
    `quantified` the subformulas left to `interpret`; the partial
    `derivatives` of the integrand it computes; and
    `make(values, ops, p, depth, integral, f_err, quant)`, which returns
    the classifier `(forms, level, truth) -> (truth, vlo, vhi, delta)`.
    `truth` is the parent's membership, TRUE being inherited as is."""

    __slots__ = ("sites", "quantified", "derivatives", "make")

    def __init__(self, sites, quantified, derivatives, make):
        self.sites = sites
        self.quantified = quantified
        self.derivatives = derivatives
        self.make = make


_NAMESPACE = {
    "__builtins__": {"range": range, "pow": pow},
    "_T": Truth3.TRUE, "_F": Truth3.FALSE, "_U": Truth3.UNDECIDED,
    "INF": INF, "PINF": _PINF_POINT, "zi_add": _zi_add, "zi_neg": _zi_neg,
    "zi_scale": _zi_scale, "zz_le": zz_le, "zz_lt": zz_lt, "zz_eq": zz_eq,
    "zz_cong": zz_cong,
}


@functools.lru_cache(maxsize=MEMO_SIZE)
def compile_walk(expr, f, names, kind, derivatives=None):
    """The Plan of a walk over the box variables `names` (a tuple) with
    domain expr and integrand term f (None for the constant 1) in `kind`.
    `derivatives` are the partial derivatives of f in `names`, None where
    identically zero; by default the formal ones."""
    if derivatives is None:
        derivatives = () if f is None else tuple(
            _derivative(f, name) for name in names)
    gen = _Codegen(names, _OPS[kind].AC)
    scope = dict(_NAMESPACE)
    # a file name of its own per structure, so that profiles tell them apart
    name = "<box classifier:%s %s | %s>" % (
        kind.value, pretty_print(expr), 1 if f is None else _term(f))
    exec(compile(gen.source(expr, f, derivatives), name, "exec"), scope)
    return Plan(tuple(gen.sites), tuple(gen.quantified), derivatives,
                scope["make"])


class _Codegen:
    """The source of one walk structure's classifier factory."""

    def __init__(self, names, ac):
        self.names = frozenset(names)
        self.box = ["x%d" % i for i in range(len(names))]
        self.local = dict(zip(names, self.box))
        self.ac = ac
        self.sites = []
        self.site_index = {}
        self.section = "m"
        self.quantified = []
        self.fresh = 0
        self._boxed = {}
        # the block each local is assigned in
        self.home = {}

    def new(self, prefix):
        self.fresh += 1
        return "%s%d" % (prefix, self.fresh)

    def site(self, op, *args):
        key = (self.section, op) + args
        got = self.site_index.get(key)
        if got is None:
            got = self.site_index[key] = len(self.sites)
            self.sites.append(key)
        return got

    def source(self, expr, f, derivatives):
        body = _Block(top=True)
        if self.box:
            body.lines.append("%s, = forms" % ", ".join(self.box))
        for name in self.box:
            self.home[name] = body
        member = _Block(body, top=True)
        member.lines.append("truth = " + self.truth(expr, member, {}))
        member.lines.append("if truth is F or truth is U and level < depth:"
                            " return truth, 0, 0, None")
        body.lines.append(("if truth is not T:", member))
        self.section = "f"
        if f is None:
            body.lines.append("return truth, 0, 0, None")
        else:
            body.lines.append("if f_err is not None: raise f_err")
            body.lines.append("vlo, vhi = " + self.bounds(self.vf(f, body)))
            body.lines.append("delta = None")
            self.section = "d"
            hensel = _Block(body)
            for term in derivatives:
                if term is not None:
                    hensel.lines.append(self.candidate(
                        self.vf(term, hensel)))
            body.lines.append(("if truth is T and vlo != vhi and integral "
                               "and 1 <= level <= vlo:", hensel))
            body.lines.append("return truth, vlo, vhi, delta")
        out = ["def make(values, ops, p, depth, integral, f_err, quant):",
               "    T, F, U = _T, _F, _U",
               "    add, mul, neg = ops.add, ops.mul, ops.neg"]
        if self.sites:
            out.append("    %s, = values" % ", ".join(
                "c%d" % i for i in range(len(self.sites))))
        out.append("    def classify(forms, level, truth):")
        body.render(2, out)
        out.append("    return classify")
        return "\n".join(out) + "\n"

    # emission

    def hoist(self, block, deps, cheap=False, uses=()):
        """The outermost block, below the section's top and not above the
        blocks that assign `uses`, to which code in `block` may move: out
        of loops over variables not in deps, and when cheap, out of the
        branches of a connective too, computed where it may not be
        needed."""
        floors = {self.home[u] for u in uses if u in self.home}
        target = b = block
        while not b.top and b not in floors:
            if b.loop is not None:
                if b.loop in deps:
                    break
                target = b.parent
            elif cheap:
                target = b.parent
            b = b.parent
        return target

    def value(self, block, key, expr, deps=frozenset(), uses=(),
              cheap=True):
        """A local holding expr, which reads the locals `uses`, computed
        once where deps allow.  Field arithmetic is not cheap."""
        b = block
        while b is not None:
            got = b.cache.get(key)
            if got is not None:
                return got
            b = b.parent
        target = self.hoist(block, deps, cheap, uses)
        name = self.new("t")
        target.lines.append("%s = %s" % (name, expr))
        target.cache[key] = name
        self.home[name] = target
        return name

    def deps(self, node, scope):
        return frozenset(scope[n] for n in free_vars(node) if n in scope)

    # field terms: ("c", site) for a value the walk binds, ("f", local)
    # for a form

    def boxed(self, node):
        got = self._boxed.get(node)
        if got is None:
            got = self._boxed[node] = any(
                isinstance(n, VfVar) and n.name in self.names
                for n in walk(node))
        return got

    def vf(self, node, block):
        if not self.boxed(node):
            return ("c", self.site("eval", node))
        cls = type(node)
        if cls is VfVar:
            return ("f", self.local[node.name])
        if cls is VfAdd or cls is VfSub:
            a = self.vf(node.left, block)
            b = self.vf(node.right, block)
            if cls is VfSub:
                b = self.neg(b, block)
            return self.add(a, b, block)
        if cls is VfMul:
            a = self.vf(node.left, block)
            b = self.vf(node.right, block)
            return self.mul(a, b, block, node)
        if cls is VfNeg:
            return self.neg(self.vf(node.operand, block), block)
        if cls is VfPow:
            if node.exponent == 0:
                # the base is evaluated, and its constants folded, for
                # nothing but their errors
                for part in closed_parts(node.base, self.names):
                    self.site("eval", part)
                return ("c", self.site("one"))
            base = self.vf(node.base, block)
            if base[0] == "c":
                return ("c", self.site("pow", base[1], node.exponent))
            # repeated squaring, as in localfield.power
            out, square, n = None, base[1], node.exponent
            while True:
                if n & 1:
                    out = square if out is None \
                        else self.op("mul", out, square, block)
                n >>= 1
                if not n:
                    return ("f", out)
                square = self.op("mul", square, square, block)
        raise AssertionError(node)

    def op(self, name, a, b, block):
        a, b = sorted((a, b))  # add and mul are symmetric in their forms
        return self.value(block, (name, a, b), "%s(%s, %s)" % (name, a, b),
                          uses=(a, b), cheap=False)

    def neg(self, x, block):
        if x[0] == "c":
            return ("c", self.site("neg", x[1]))
        return ("f", self.value(block, ("neg", x[1]), "neg(%s)" % x[1],
                                uses=(x[1],), cheap=False))

    def add(self, a, b, block):
        if a[0] == "c" and b[0] == "c":
            return ("c", self.site("add", a[1], b[1]))
        if a[0] == "c" or b[0] == "c":
            c, x = (a[1], b[1]) if a[0] == "c" else (b[1], a[1])
            k = self.site("addk", c)
            expr = "add(%s, c%d.upto(%s[0] + (%s[2] or 0)))" % (x, k, x, x)
            return ("f", self.value(block, ("addk", x, k), expr, uses=(x,),
                                    cheap=False))
        return ("f", self.op("add", a[1], b[1], block))

    def mul(self, a, b, block, node):
        if a[0] == "c" and b[0] == "c":
            return ("c", self.site("mul", a[1], b[1]))
        if a[0] == "c" or b[0] == "c":
            c, x = (a[1], b[1]) if a[0] == "c" else (b[1], a[1])
            k = self.site("mulform", c, node)
            return ("f", self.value(block, ("mulform", x, k),
                                    "mul(%s, c%d)" % (x, k), uses=(x,),
                                    cheap=False))
        return ("f", self.op("mul", a[1], b[1], block))

    def bounds(self, x):
        """Source of the (lower, upper) valuation bounds of x."""
        if x[0] == "c":
            return "c%d" % self.site("ord", x[1])
        return "%s[0], %s[0] if %s[2] else INF" % ((x[1],) * 3)

    def candidate(self, x):
        """Source that lowers delta to the valuation of the derivative x
        where it is decided, below the level and at most vlo - level."""
        if x[0] == "c":
            c = "c%d" % self.site("ord", x[1])
            known, v = "%s[0] == %s[1]" % (c, c), c + "[0]"
        else:
            known, v = x[1] + "[2]", x[1] + "[0]"
        return ("if %s and %s < level and level + %s <= vlo and "
                "(delta is None or %s < delta): delta = %s"
                % (known, v, v, v, v))

    # residue terms: (source, may be None, deps)

    def rf(self, node, block, scope):
        cls = type(node)
        if cls is RfVar:
            local = scope.get(node.name)
            if local is not None:
                return local, False, frozenset([local])
            return "c%d" % self.site("rf", node.name), False, frozenset()
        if cls is RfConst:
            return "c%d" % self.site("rfc", node.value), False, frozenset()
        if cls is RfAc:
            x = self.vf(node.operand, block)
            if x[0] == "c":
                return "c%d" % self.site("ac", x[1]), True, frozenset()
            return self.value(block, ("ac", x[1]), self.ac % (x[1], x[1]),
                              uses=(x[1],)), \
                True, frozenset()
        if cls is RfNeg or cls is RfPow:
            a, null, deps = self.rf(node.operand if cls is RfNeg
                                    else node.base, block, scope)
            expr = "-%s %% p" % a if cls is RfNeg \
                else "pow(%s, %d, p)" % (a, node.exponent)
            expr = _unless_none(expr, "None", (a, null))
            return self.value(block, (cls, a, getattr(node, "exponent", 0)),
                              expr, deps, (a,)), null, deps
        a, anull, adeps = self.rf(node.left, block, scope)
        b, bnull, bdeps = self.rf(node.right, block, scope)
        expr = _unless_none("(%s %s %s) %% p" % (a, _RF_OPS[cls], b), "None",
                            (a, anull), (b, bnull))
        deps = adeps | bdeps
        return self.value(block, (cls, a, b), expr, deps, (a, b)), \
            anull or bnull, deps

    # value-group terms: ("lit", c) for a constant, ("pt", lo, hi) for
    # bounds with a finite lower end and no -inf, ("iv", local) for an
    # interval tuple of any kind

    def zz(self, node, block):
        cls = type(node)
        if cls is ZzConst:
            return ("lit", node.value)
        if cls is ZzInf:
            return ("iv", "PINF")
        if cls is ZzVar:
            return ("iv", "c%d" % self.site("zz", node.name))
        if cls is ZzOrd:
            x = self.vf(node.operand, block)
            if x[0] == "c":
                return ("iv", "c%d" % self.site("ord", x[1]))
            lo = self.value(block, ("lo", x[1]), "%s[0]" % x[1], uses=(x[1],))
            hi = self.value(block, ("hi", x[1]),
                            "%s if %s[2] else INF" % (lo, x[1]),
                            uses=(lo, x[1]))
            return ("pt", lo, hi)
        if cls is ZzAdd or cls is ZzSub:
            a = self.zz(node.left, block)
            b = self.zz(node.right, block)
            if cls is ZzSub:
                b = self.zneg(b, block)
            if a[0] == "lit" and b[0] == "lit":
                return ("lit", a[1] + b[1])
            if a[0] != "iv" and b[0] != "iv":
                (alo, ahi), (blo, bhi) = self.ends(a), self.ends(b)
                return ("pt", self.value(block, ("+", alo, blo),
                                         "%s + %s" % (alo, blo),
                                         uses=(alo, blo)),
                        self.value(block, ("+", ahi, bhi),
                                   "%s + %s" % (ahi, bhi), uses=(ahi, bhi)))
            return ("iv", self.value(block, ("zi_add", a, b), "zi_add(%s, %s)"
                                     % (self.tup(a), self.tup(b)),
                                     uses=a[1:] + b[1:]))
        if cls is ZzNeg:
            return self.zneg(self.zz(node.operand, block), block)
        if cls is ZzScale:
            a = self.zz(node.operand, block)
            k = node.factor
            if k == 0 or a[0] == "lit":
                return ("lit", k * a[1] if k else 0)
            if k > 0 and a[0] == "pt":
                return ("pt", self.value(block, ("*", k, a[1]),
                                         "%d * %s" % (k, a[1]), uses=a[1:2]),
                        self.value(block, ("*", k, a[2]),
                                   "INF if %s is INF else %d * %s"
                                   % (a[2], k, a[2]), uses=a[2:]))
            return ("iv", self.value(block, ("zi_scale", k, a),
                                     "zi_scale(%d, %s)" % (k, self.tup(a)),
                                     uses=a[1:]))
        raise AssertionError(node)

    def zneg(self, a, block):
        if a[0] == "lit":
            return ("lit", -a[1])
        return ("iv", self.value(block, ("zi_neg", a),
                                 "zi_neg(%s)" % self.tup(a), uses=a[1:]))

    @staticmethod
    def ends(a):
        return (str(a[1]), str(a[1])) if a[0] == "lit" else (a[1], a[2])

    def tup(self, a):
        return a[1] if a[0] == "iv" else "(%s, %s)" % self.ends(a)

    # formulas: a local or T/F/U holding the truth value

    def truth(self, node, block, scope):
        block = self.hoist(block, self.deps(node, scope))
        cls = type(node)
        if cls is And or cls is Or:
            a = self.truth(node.left, block, scope)
            r = self.new("r")
            block.lines.append("%s = %s" % (r, a))
            self.home[r] = block
            right = _Block(block)
            b = self.truth(node.right, right, scope)
            if cls is And:
                right.lines.append("%s = %s if %s is T else (F if %s is F "
                                   "else U)" % (r, b, r, b))
                block.lines.append(("if %s is not F:" % r, right))
            else:
                right.lines.append("%s = %s if %s is F else (T if %s is T "
                                   "else U)" % (r, b, r, b))
                block.lines.append(("if %s is not T:" % r, right))
            return r
        if cls is Not:
            a = self.truth(node.operand, block, scope)
            return self.value(block, ("not", a),
                              "F if %s is T else (T if %s is F else U)"
                              % (a, a), self.deps(node, scope), (a,))
        if cls is Exists:
            return self.exists(node, block, scope)
        return self.atom(node, block, scope)

    def exists(self, node, block, scope):
        deps = self.deps(node, scope)
        if node.sort is not Sort.RF:
            if node.sort is Sort.VF:
                self.site("vfq")
            for part in closed_parts(node, self.names):
                self.site("eval", part)
            self.quantified.append(node)
            loops = ", ".join("%r: %s" % (n, scope[n])
                              for n in free_vars(node) if n in scope)
            return self.value(block, ("quant", len(self.quantified)),
                              "quant(%d, forms, {%s})"
                              % (len(self.quantified) - 1, loops), deps,
                              cheap=False)
        e = self.new("e")
        block.lines.append("%s = F" % e)
        self.home[e] = block
        var = self.new("s")
        body = _Block(block, loop=var)
        r = self.truth(node.body, body, {**scope, node.var: var})
        body.lines.append("if %s is T: %s = T; break" % (r, e))
        body.lines.append("if %s is U: %s = U" % (r, e))
        block.lines.append(("for %s in range(p):" % var, body))
        return e

    def atom(self, node, block, scope):
        if node.left == node.right:
            # reflexivity decides syntactically identical sides unevaluated
            return "F" if isinstance(node, (RfNe, ZzLt)) else "T"
        cls = type(node)
        deps = self.deps(node, scope)
        if cls is VfEq:
            w = self.vf(VfSub(node.left, node.right), block)
            if w[0] == "c":
                return "c%d" % self.site("eq", w[1])
            return self.value(block, ("eq", w[1]),
                              "F if %s[2] else U" % w[1], uses=(w[1],))
        if cls is RfEq or cls is RfNe:
            a, anull, _ = self.rf(node.left, block, scope)
            b, bnull, _ = self.rf(node.right, block, scope)
            yes, no = ("T", "F") if cls is RfEq else ("F", "T")
            expr = _unless_none("(%s if %s == %s else %s)" % (yes, a, b, no),
                                "U", (a, anull), (b, bnull))
            return self.value(block, (cls, a, b), expr, deps, (a, b))
        a = self.zz(node.left, block)
        b = self.zz(node.right, block)
        if cls is ZzCong:
            expr = "zz_cong(%s, %s, %d)" % (self.tup(a), self.tup(b),
                                           node.modulus)
        elif a[0] == "iv" or b[0] == "iv":
            expr = "%s(%s, %s)" % (_ZZ_HELPERS[cls], self.tup(a),
                                   self.tup(b))
        else:
            (alo, ahi), (blo, bhi) = self.ends(a), self.ends(b)
            if cls is ZzLe:
                expr = "T if %s <= %s else (F if %s < %s else U)" \
                    % (ahi, blo, bhi, alo)
            elif cls is ZzLt:
                expr = "T if %s < %s else (F if %s <= %s else U)" \
                    % (ahi, blo, bhi, alo)
            else:
                expr = "T if %s == %s == %s == %s else (F if %s < %s or " \
                    "%s < %s else U)" % (alo, ahi, blo, bhi, ahi, blo, bhi,
                                        alo)
        return self.value(block, (cls, a, b), expr, deps, a[1:] + b[1:])


def _unless_none(expr, otherwise, *operands):
    """expr, or `otherwise` where an operand that may be None is None."""
    tests = ["%s is None" % x for x, nullable in operands if nullable]
    if not tests:
        return expr
    return "%s if %s else %s" % (otherwise, " or ".join(tests), expr)


_RF_OPS = {RfAdd: "+", RfSub: "-", RfMul: "*"}
_ZZ_HELPERS = {ZzLe: "zz_le", ZzLt: "zz_lt", ZzEq: "zz_eq"}
