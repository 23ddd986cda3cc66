"""Residue boxes as integer forms, and the sweep the oracle's walk
compiles from its structure.

A value that depends on the box is a *form*: three plain values standing
for one truncated LFElem, (val, unit mod p^k, k) in Q_p, (val, digit
tuple, k) in F_p((t)), and (val, 0, None) when only ord >= val is known.
The generated code keeps each form in three locals.  What the hot loops
take it does inline, from the source that `_QpOps` and `_FptOps` hold:
the child of a box, neg, the Q_p product, the F_p((t)) product with a
one-digit factor, and the sum of two forms of one valuation whose unit
digits do not cancel (of one digit each in F_p((t))).  Any other sum,
and an F_p((t)) product of several digits, is a call to `_qp_add`,
`_fpt_add` or `_fpt_mul`, bound once per walk, so no template holds a
loop.  Templates and functions follow localfield's add, mul and neg precision
rules digit for digit, so every valuation bound agrees with `LFElem`
arithmetic on the corresponding `from_digits` box; they are the only
implementation of those rules over forms.  A value-group term is an
interval tuple, put to the helpers that `interpret` uses.

`compile_walk(expr, f, names, kind, derivatives)` turns a walk's domain
formula, its integrand f and the formal partial derivatives of f into the
source of one *sweep* per structure, as `formula/count.py` does for point
counts.  A sweep takes a box's forms and level, its membership and a
digit range per variable, and enumerates the box's children in one
compiled loop nest, a loop per box variable, the most-read variable
outermost (past `NESTED_LOOPS` of them the rest share one loop over the
product of their digits).  Each subterm is computed in the loop of the
last variable it reads, the rule by which whatever does not depend on x
is computed once before an `exists x:rf` loop: a witness scan that reads
two of four box variables runs once per pair of their digits, not once
per child.  Each child is classified in place: its three-valued
membership, the integrand's valuation bounds and, on a TRUE child at
level >= 1 whose integrand is still undecided, the least Hensel delta.
A decided child is credited inside the loop, to counts per exponent; the
sweep returns how many children were TRUE, how many of those Hensel's
lemma settled and how many stay open at full depth, and the children
still undecided above it, which the walk sweeps in turn.  The code
decides everything `interpret` decides on a box: And/Or/Not, value-group
comparisons and congruences, residue (in)equalities over `ac` terms and
bound residues, field equalities, and `exists x:rf` as a loop over F_p.

Whatever does not depend on the box is not in the code: a *site* is a
maximal subterm or subformula that reads no box variable outside a zero
power (the exact 1) and no residue bound by an enclosing quantifier.
The walk folds each site once by the reference semantics and passes its
value in as an argument, so the source depends on structure only and
never on the prime or on bound constants.  A site is ("vf", term),
folded as `eval_vf_term` evaluates it; ("rf", term), ("zz", term) or
("truth", formula), folded by `interpret`'s evaluator; or ("ord", i),
("addk", i) or ("mulform", i, product): the valuation bounds of the "vf"
site i, or its form as a summand or a factor of a box form.  The sites are listed
in the order in which `interpret` would evaluate them, by section: "m"
for membership, "f" for the integrand, "d" for its derivatives.  The
compiled functions are kept in a bounded LRU memo that holds code, never
a value.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import UnsupportedFeature
from .formula.interpret import (_PINF_POINT, Truth3, _zi_add, _zi_neg,
                                _zi_scale, zz_cong, zz_eq, zz_le, zz_lt)
from .formula.nodes import (And, Exists, Not, Or, RfAc, RfAdd, RfEq, RfMul,
                            RfNe, RfNeg, RfPow, RfSub, RfVar, VfAdd, VfConst,
                            VfEq, VfMul, VfNeg, VfPow, VfSub, VfUnif, VfVar,
                            ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf, ZzLe, ZzLt,
                            ZzNeg, ZzOrd, ZzScale, ZzSub, children, free_vars,
                            walk)
from .formula.printer import _term, pretty_print
from .localfield import INF, FieldKind

# distinct walk structures whose sweeps are kept
MEMO_SIZE = 256
# box variables with a loop of their own, the most-read first
NESTED_LOOPS = 6
# the box loops that fit in CPython's 20 statically nested blocks, less
# one per nested residue quantifier: no arithmetic template holds a loop
_BOX_BLOCKS = 20


# ---------------------------------------------------------------------------
# forms


class _Summand(dict):
    """A constant as it enters a sum with a box, by the box side's
    absolute precision: an exact one, 0 included, is known up to that
    bound, its unit packed once per length; a truncated one keeps its own
    window."""

    __slots__ = ("_val", "_elem", "_fixed")

    def __init__(self, elem, val, fixed=None):
        super().__init__()
        self._val = val
        self._elem = elem
        self._fixed = fixed

    def __missing__(self, bound):
        val = self._val
        if self._fixed is not None:
            form = self._fixed
        elif val >= bound:
            form = (bound, 0, None)
        else:
            form = (val, self._elem.packed(bound - val, val), bound - val)
        self[bound] = form
        return form


class _FieldOps:
    """What Q_p and F_p((t)) forms share.  The class attributes are the
    source of the form arithmetic the sweep keeps inline, with operands
    and result named by format fields.  No box form keeps more than
    `depth` (the precision) digits, so neither a product nor a sum that
    stays inline reaches past it."""

    # per walk, before any sweep
    MAKE = ()
    # per box variable, at the start of a sweep
    SWEEP = ""

    def __init__(self, p, precision):
        self.p = p
        self.precision = precision

    def form(self, elem):
        if not elem.known:
            return (elem.val, 0, None)
        return (elem.val, self.pack(elem.known), len(elem.known))

    def summand(self, c, v):
        """The constant c as it enters a sum with a box; v is its
        valuation when c is exact."""
        if not c.exact:
            return _Summand(None, None, self.form(c))
        return _Summand(c, v)

    def factor(self, c, v):
        """A constant c other than the exact 0 as it enters a product, v
        its valuation when c is exact: it keeps at most `precision`
        digits of either factor."""
        if not c.exact:
            return self.form(c)
        return (v, c.packed(self.precision, v), self.precision)


class _QpOps(_FieldOps):
    """Q_p forms (val, u, k): the element is p^val * (u + O(p^k)).  Powers
    p^k come from the walk's table P, which runs to p^depth."""

    # source of the angular component of a form
    AC = "{u} % p if {k} else None"

    MAKE = ("P = [*map(p.__pow__, range(depth + 1))]",
            "add = partial(qp_add, p, depth)")

    # the place value of a box's next digit
    SWEEP = "{f}q = P[{f}k] if {f}k is not None else 0"

    # the form of from_digits(spec, 0, digits + (d,)) for a child of a box
    # at `level` whose digits have the form f
    CHILD = """\
if {f}k is None:
    if {d}: {x}v, {x}u, {x}k = level, {d}, 1
    else: {x}v, {x}u, {x}k = lv, 0, None
else: {x}v, {x}u, {x}k = {f}v, {f}u + {d} * {f}q, {f}k + 1"""

    # inline, the sum of two forms of one valuation whose unit digits do
    # not cancel; any other sum is a call
    ADD = """\
if {av} == {bv} and {ak} and {bk} and ({au} + {bu}) % p:
    {r}k = {ak} if {ak} < {bk} else {bk}
    {r}v, {r}u = {av}, ({au} + {bu}) % P[{r}k]
else: {r}v, {r}u, {r}k = add({av}, {au}, {ak}, {bv}, {bu}, {bk})"""

    NEG = """\
if {ak} is None: {r}v, {r}u, {r}k = {av}, {au}, None
else: {r}v, {r}u, {r}k = {av}, -{au} % P[{ak}], {ak}"""

    MUL = """\
if {ak} is None or {bk} is None: {r}v, {r}u, {r}k = {av} + {bv}, 0, None
else:
    {r}k = {ak} if {ak} < {bk} else {bk}
    {r}v, {r}u = {av} + {bv}, {au} * {bu} % P[{r}k]"""

    def pack(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))


def _qp_add(p, depth, av, au, ak, bv, bu, bk):
    """The Q_p form of the sum of two: its digits on [low, bound), leading
    zeros stripped, truncated to depth."""
    bound = min(av + (ak or 0), bv + (bk or 0))
    if av > bv:
        av, au, bv, bu = bv, bu, av, au
    n = bound - av
    s = (au + bu * p ** (bv - av)) % p ** n if n > 0 else 0
    if not s:
        return bound, 0, None
    v = 0
    while not s % p:
        s //= p
        v += 1
    k = min(n - v, depth)
    return av + v, s % p ** k, k


class _FptOps(_FieldOps):
    """F_p((t)) forms (val, digits, k): t^val * (digits + O(t^k)), with
    k == len(digits)."""

    AC = "{u}[0] if {k} else None"

    # negd(d) is -d % p
    MAKE = ("negd = [0, *range(p - 1, 0, -1)].__getitem__",
            "add = partial(fpt_add, p, depth)",
            "mul = partial(fpt_mul, p)")

    CHILD = """\
if {f}k is None:
    if {d}: {x}v, {x}u, {x}k = level, ({d},), 1
    else: {x}v, {x}u, {x}k = lv, 0, None
else: {x}v, {x}u, {x}k = {f}v, {f}u + ({d},), {f}k + 1"""

    # inline, the sum of two one-digit forms of one valuation that do not
    # cancel; any other sum is a call
    ADD = """\
if {ak} == 1 == {bk} and {av} == {bv} and ({au}[0] + {bu}[0]) % p:
    {r}v, {r}u, {r}k = {av}, (({au}[0] + {bu}[0]) % p,), 1
else: {r}v, {r}u, {r}k = add({av}, {au}, {ak}, {bv}, {bu}, {bk})"""

    NEG = """\
if {ak} is None: {r}v, {r}u, {r}k = {av}, {au}, None
else: {r}v, {r}u, {r}k = {av}, tuple(map(negd, {au})), {ak}"""

    # inline, a product with a one-digit factor; of several digits, a call
    MUL = """\
if {ak} is None or {bk} is None: {r}v, {r}u, {r}k = {av} + {bv}, 0, None
elif {ak} == 1 or {bk} == 1:
    {r}v, {r}u, {r}k = {av} + {bv}, ({au}[0] * {bu}[0] % p,), 1
else:
    {r}k = {ak} if {ak} < {bk} else {bk}
    {r}v, {r}u = {av} + {bv}, mul({au}, {bu}, {r}k)"""

    pack = staticmethod(tuple)


def _fpt_add(p, depth, av, au, ak, bv, bu, bk):
    """The F_p((t)) form of the sum of two: its digits on [low, bound),
    leading zeros stripped, truncated to depth."""
    bound = min(av + (ak or 0), bv + (bk or 0))
    low = min(av, bv)
    out = [0] * (bound - low)
    for v, u, k in ((av, au, ak), (bv, bu, bk)):
        for j in range(min(k or 0, bound - v)):
            out[v - low + j] += u[j]
    for v, d in enumerate(out):
        if d % p:
            u = tuple([d % p for d in out[v:v + depth]])
            return low + v, u, len(u)
    return bound, 0, None


def _fpt_mul(p, a, b, k):
    """The first k digits of the product of the digit tuples a and b."""
    out = [0] * k
    for i in range(k):
        x = a[i]
        if x:
            for j in range(k - i):
                out[i + j] += x * b[j]
    return tuple([c % p for c in out])


_OPS = {FieldKind.CHAR_ZERO: _QpOps, FieldKind.EQUAL_CHAR: _FptOps}


def _field_ops(spec):
    return _OPS[spec.kind](spec.prime, spec.precision)


# ---------------------------------------------------------------------------
# the compiled sweep


def closed_parts(term, excluded):
    """The maximal subterms of the field term that mention no variable in
    `excluded`, left to right.  A zero power is the exact 1 whatever its
    base holds, as `_Codegen.boxed` reads it."""
    if isinstance(term, VfPow) and term.exponent == 0:
        yield _ONE
        return
    if not any(isinstance(n, VfVar) and n.name in excluded
               for n in walk(term)):
        yield term
        return
    for child in children(term):
        yield from closed_parts(child, excluded)


def _loop_depth(node):
    """The deepest nesting of quantifiers in node: each is a loop in the
    sweep."""
    if isinstance(node, Exists):
        return 1 + _loop_depth(node.body)
    return max((_loop_depth(c) for c in children(node)), default=0)


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
    statement, several of them on lines of their own, or (header, block);
    `loop` names the variable a loop body binds, and nothing is hoisted
    out of a `top` block."""

    __slots__ = ("lines", "cache", "parent", "loop", "top")

    def __init__(self, parent=None, loop=None, top=False, lines=()):
        self.lines = list(lines)
        self.cache = {}
        self.parent = parent
        self.loop = loop
        self.top = top

    def render(self, indent, out):
        if not self.lines:
            out.append("    " * indent + "pass")
        for line in self.lines:
            if isinstance(line, str):
                out.extend("    " * indent + part
                           for part in line.split("\n"))
            else:
                header, block = line
                out.append("    " * indent + header)
                block.render(indent + 1, out)


class Plan:
    """One walk structure compiled: `sites` in binding order, each
    (section, kind, *args) as the module docstring lists them; the
    partial `derivatives` of the integrand it computes; and
    `make(values, p, depth, integral, f_err, e, exact, open_, hensel)`,
    which returns the sweep
    `(forms, level, truth, digits) -> (true, settled, open, pending)`.

    The sweep classifies the children of the box at `level` whose
    digits have the given forms, taking from `digits` (a range per box
    variable) the last digit of each.  `truth` is the box's membership,
    TRUE being inherited as is.  A child decided TRUE is counted in
    `exact` at its exponent level*m + e*v, or in `hensel` at
    level*m + e*(level + delta); one at full depth still undecided in
    `open_` at level*m + e*vlo.  `pending` lists (forms, membership) of
    the children still undecided above full depth.  With no integrand
    the sweep raises `f_err` where the integrand would be needed: the
    walk compiles its domain alone when the integrand's constants do not
    fold."""

    __slots__ = ("sites", "derivatives", "make")

    def __init__(self, sites, derivatives, make):
        self.sites = sites
        self.derivatives = derivatives
        self.make = make


_NAMESPACE = {
    "__builtins__": {"range": range, "pow": pow, "map": map,
                     "tuple": tuple},
    "_T": Truth3.TRUE, "_F": Truth3.FALSE, "_U": Truth3.UNDECIDED,
    "INF": INF, "PINF": _PINF_POINT, "zi_add": _zi_add, "zi_neg": _zi_neg,
    "zi_scale": _zi_scale, "zz_le": zz_le, "zz_lt": zz_lt, "zz_eq": zz_eq,
    "zz_cong": zz_cong, "product": itertools.product,
    "partial": functools.partial, "qp_add": _qp_add, "fpt_add": _fpt_add,
    "fpt_mul": _fpt_mul,
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
    gen = _Codegen(names, _OPS[kind], expr, f)
    scope = dict(_NAMESPACE)
    # a file name of its own per structure, so that profiles tell them apart
    name = "<box classifier:%s %s | %s>" % (
        kind.value, pretty_print(expr), 1 if f is None else _term(f))
    exec(compile(gen.source(expr, f, derivatives), name, "exec"), scope)
    return Plan(tuple(gen.sites), derivatives, scope["make"])


class _Codegen:
    """The source of one walk structure's sweep factory."""

    def __init__(self, names, field, expr, f):
        self.names = frozenset(names)
        self.box = ["x%d" % i for i in range(len(names))]
        self.local = dict(zip(names, self.box))
        reads = dict.fromkeys(names, 0)
        for node in (expr, f):
            if node is not None:
                for n in walk(node):
                    if isinstance(n, VfVar) and n.name in reads:
                        reads[n.name] += 1
        # the most-read variables outermost, ties in the given order; past
        # the loops that may nest, the rest share one loop over the
        # product of their digits
        order = sorted(range(len(names)), key=lambda i: -reads[names[i]])
        depth = _loop_depth(expr)
        if depth >= _BOX_BLOCKS:
            raise UnsupportedFeature(
                "residue quantifiers nested %d deep; the box walk nests at "
                "most %d" % (depth, _BOX_BLOCKS - 1))
        cut = max(1, min(NESTED_LOOPS, _BOX_BLOCKS - depth)) - 1
        self.loops = [[i] for i in order[:cut]]
        if order[cut:]:
            self.loops.append(order[cut:])
        # the loop that binds each box variable's last digit
        self.loopvar = {names[i]: "d%d" % group[0]
                        for group in self.loops for i in group}
        self.field = field
        self.sites = []
        self.site_index = {}
        self.section = "m"
        self.fresh = 0
        self._boxed = {}
        self._box_deps = {}
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
        m = len(self.box)
        body = _Block(top=True)
        if m:
            body.lines.append("%s, = forms" % ", ".join(
                "(f%dv, f%du, f%dk)" % (i, i, i) for i in range(m)))
            body.lines.append("%s, = digits" % ", ".join(
                "D%d" % i for i in range(m)))
        body.lines.append("lv = level + 1")
        body.lines.append("base = lv * %d" % m)
        body.lines.append("ntrue = nsettled = nopen = 0")
        body.lines.append("pending = []")
        if self.field.SWEEP:
            body.lines.extend(self.field.SWEEP.format(f="f%d" % i)
                              for i in range(m))
        self.nest(body, expr, f, derivatives)
        if f is None:
            body.lines.append("if ntrue: exact[base] = exact_get(base, 0) "
                              "+ ntrue")
            body.lines.append("if nopen: open_[base] = open_get(base, 0) "
                              "+ nopen")
        body.lines.append("return ntrue, nsettled, nopen, pending")
        out = ["def make(values, p, depth, integral, f_err, e, exact, open_,"
               " hensel):",
               "    T, F, U = _T, _F, _U",
               "    exact_get, open_get, hensel_get = exact.get, open_.get, "
               "hensel.get"]
        out.extend("    " + line for line in self.field.MAKE)
        if self.sites:
            out.append("    %s, = values" % ", ".join(
                "c%d" % i for i in range(len(self.sites))))
        out.append("    def sweep(forms, level, truth, digits):")
        body.render(2, out)
        out.append("    return sweep")
        return "\n".join(out) + "\n"

    def nest(self, top, expr, f, derivatives):
        """The loops over a box's children inside `top`, each child's
        membership, inherited when TRUE, and what each child comes to."""
        loops = []
        block = top
        for group in self.loops:
            block = _Block(block, loop="d%d" % group[0], lines=[
                self.field.CHILD.format(x="x%d" % i, f="f%d" % i,
                                        d="d%d" % i) for i in group])
            for i in group:
                self.register("x%d" % i, block)
            loops.append(("for %s in %s:" % (
                ", ".join("d%d" % i for i in group),
                "D%d" % group[0] if len(group) == 1 else "product(%s)"
                % ", ".join("D%d" % i for i in group)), block))
        if not loops:
            # no box variable: one child, the box itself a level down
            block = _Block(block, loop="d")
            loops.append(("for d in (0,):", block))
        inner = block
        forms = "(%s)" % "".join("(x%dv, x%du, x%dk), " % (i, i, i)
                                 for i in range(len(self.box)))
        inner.lines.append("mem = truth")
        # what the membership computes leaves this branch only as the
        # hoisting rule allows, computed where it may not be needed
        member = _Block(inner)
        self.section = "m"
        member.lines.append("mem = " + self.truth(expr, member, {}))
        member.lines.append("if mem is F: continue")
        member.lines.append("if mem is U and lv < depth: "
                            "pending.append((%s, U)); continue" % forms)
        inner.lines.append(("if truth is not T:", member))
        self.outcome(inner, f, derivatives, forms)
        # each loop after whatever was hoisted into the block around it
        for header, block in loops:
            block.parent.lines.append((header, block))

    def outcome(self, inner, f, derivatives, forms):
        """Credit a child whose membership `mem` is TRUE, or undecided at
        full depth, or hand it back to the walk."""
        if f is None:
            inner.lines.append("if f_err is not None: raise f_err")
            inner.lines.append("if mem is T: ntrue += 1")
            inner.lines.append("else: nopen += 1")
            return
        self.section = "f"
        inner.lines.append("vlo, vhi = " + self.bounds(self.vf(f, inner)))
        inner.lines.append(("if mem is T and vlo == vhi:", _Block(lines=[
            "ntrue += 1",
            "if vlo != INF: "
            "_e = base + e * vlo; exact[_e] = exact_get(_e, 0) + 1",
            "continue"])))
        self.section = "d"
        hensel = _Block(inner, top=True, lines=["delta = None"])
        for term in derivatives:
            if term is not None:
                hensel.lines.append(self.candidate(self.vf(term, hensel)))
        hensel.lines.append(("if delta is not None:", _Block(lines=[
            "ntrue += 1",
            "nsettled += 1",
            "_e = base + e * (lv + delta)",
            "hensel[_e] = hensel_get(_e, 0) + 1",
            "continue"])))
        inner.lines.append(("if mem is T and integral and 1 <= lv <= vlo:",
                            hensel))
        inner.lines.append(("if lv == depth:", _Block(lines=[
            "nopen += 1",
            "if vlo != INF: "
            "_e = base + e * vlo; open_[_e] = open_get(_e, 0) + 1"])))
        inner.lines.append(("else:", _Block(lines=[
            "pending.append((%s, mem))" % forms])))

    # emission

    def register(self, name, block):
        """name, and the parts of the form it names, are assigned in
        block."""
        for suffix in ("", "v", "u", "k"):
            self.home[name + suffix] = block

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

    @staticmethod
    def cached(block, key):
        while block is not None:
            got = block.cache.get(key)
            if got is not None:
                return got
            block = block.parent
        return None

    def value(self, block, key, code, deps=frozenset(), uses=(),
              cheap=True):
        """The local that the statement `code` assigns, its name filled
        in for {r}: run once, reading the locals `uses`, in the block that
        `hoist` picks for deps.  Field arithmetic is not cheap."""
        got = self.cached(block, key)
        if got is not None:
            return got
        target = self.hoist(block, deps, cheap, uses)
        name = self.new("t")
        target.lines.append(code.replace("{r}", name))
        target.cache[key] = name
        self.register(name, target)
        return name

    def deps(self, node, scope):
        """The loop variables node reads: residue loops through scope,
        box loops through the field variables it mentions."""
        got = self._box_deps.get(node)
        if got is None:
            got = self._box_deps[node] = frozenset(
                self.loopvar[n.name] for n in walk(node)
                if isinstance(n, VfVar) and n.name in self.loopvar)
        return got | frozenset(scope[n] for n in free_vars(node)
                               if n in scope)

    # field terms: ("c", site) for a value the walk binds, ("f", local)
    # for a form held in the locals local+"v", local+"u", local+"k"

    def boxed(self, node):
        """Whether node reads a box variable outside a zero power."""
        got = self._boxed.get(node)
        if got is None:
            cls = type(node)
            if cls is VfVar:
                got = node.name in self.names
            else:
                got = not (cls is VfPow and node.exponent == 0) and any(
                    self.boxed(c) for c in children(node))
            self._boxed[node] = got
        return got

    def closed(self, node, scope):
        """Whether node's value does not depend on the box: it reads no
        box variable outside a zero power and no residue bound in scope."""
        return not self.boxed(node) and scope.keys().isdisjoint(
            free_vars(node))

    def vf(self, node, block):
        if not self.boxed(node):
            return ("c", self.site("vf", node))
        cls = type(node)
        if cls is VfVar:
            return ("f", self.local[node.name])
        if cls is VfAdd or cls is VfSub:
            a = self.vf(node.left, block)
            b = self.vf(node.right if cls is VfAdd else VfNeg(node.right),
                        block)
            return self.add(a, b, block)
        if cls is VfMul:
            a = self.vf(node.left, block)
            b = self.vf(node.right, block)
            return self.mul(a, b, block, node)
        if cls is VfNeg:
            x = self.vf(node.operand, block)[1]
            return ("f", self.arith(block, ("neg", x), self.field.NEG, x))
        if cls is VfPow:
            # repeated squaring, as in localfield.power
            out, square, n = None, self.vf(node.base, block)[1], node.exponent
            while True:
                if n & 1:
                    out = square if out is None \
                        else self.op("MUL", out, square, block)
                n >>= 1
                if not n:
                    return ("f", out)
                square = self.op("MUL", square, square, block)
        raise AssertionError(node)

    def arith(self, block, key, template, a, b=None, constant=None):
        """The local form that a field template computes from the local
        form a and the local form b or the constant in the local
        `constant`, in the outermost block that holds its operands."""
        parts = {"r": "{r}", "av": a + "v", "au": a + "u", "ak": a + "k"}
        if b is not None:
            parts.update(bv=b + "v", bu=b + "u", bk=b + "k")
        elif constant is not None:
            parts.update(bv=constant + "[0]", bu=constant + "[1]",
                         bk=constant + "[2]")
        return self.value(block, key, template.format(**parts),
                          uses=(a,) if b is None else (a, b), cheap=False)

    def op(self, name, a, b, block):
        a, b = sorted((a, b))  # add and mul are symmetric in their forms
        return self.arith(block, (name, a, b), getattr(self.field, name),
                          a, b)

    def add(self, a, b, block):
        if a[0] == "c" or b[0] == "c":
            c, x = (a[1], b[1]) if a[0] == "c" else (b[1], a[1])
            k = self.site("addk", c)
            # the constant's form at the box side's bound, then the sum
            code = "_cv, _cu, _ck = c%d[{av} + ({ak} or 0)]\n" % k
            return ("f", self.arith(block, ("addk", x, k),
                                    code + self.field.ADD, x, "_c"))
        return ("f", self.op("ADD", a[1], b[1], block))

    def mul(self, a, b, block, node):
        if a[0] == "c" or b[0] == "c":
            c, x = (a[1], b[1]) if a[0] == "c" else (b[1], a[1])
            k = self.site("mulform", c, node)
            return ("f", self.arith(block, ("mulform", x, k), self.field.MUL,
                                    x, constant="c%d" % k))
        return ("f", self.op("MUL", a[1], b[1], block))

    def bounds(self, x):
        """Source of the (lower, upper) valuation bounds of x."""
        if x[0] == "c":
            return "c%d" % self.site("ord", x[1])
        return "%sv, %sv if %sk else INF" % ((x[1],) * 3)

    def candidate(self, x):
        """Source that lowers delta to the valuation of the derivative x
        where it is decided, below the level and at most vlo - level."""
        if x[0] == "c":
            c = "c%d" % self.site("ord", x[1])
            known, v = "%s[0] == %s[1]" % (c, c), c + "[0]"
        else:
            known, v = x[1] + "k", x[1] + "v"
        return ("if %s and %s < lv and lv + %s <= vlo and "
                "(delta is None or %s < delta): delta = %s"
                % (known, v, v, v, v))

    # residue terms: (source, may be None, deps)

    def rf(self, node, block, scope):
        if self.closed(node, scope):
            # None where an angular component is undetermined
            return "c%d" % self.site("rf", node), any(
                type(n) is RfAc for n in walk(node)), frozenset()
        cls = type(node)
        if cls is RfVar:
            local = scope[node.name]
            return local, False, frozenset([local])
        if cls is RfAc:
            x = self.vf(node.operand, block)
            return self.value(block, ("ac", x[1]), "{r} = " + self.field.AC
                              .format(u=x[1] + "u", k=x[1] + "k"),
                              uses=(x[1],)), True, frozenset()
        if cls is RfNeg or cls is RfPow:
            a, null, deps = self.rf(node.operand if cls is RfNeg
                                    else node.base, block, scope)
            expr = "-%s %% p" % a if cls is RfNeg \
                else "pow(%s, %d, p)" % (a, node.exponent)
            expr = _unless_none(expr, "None", (a, null))
            return self.value(block, (cls, a, getattr(node, "exponent", 0)),
                              "{r} = " + expr, deps, (a,)), null, deps
        a, anull, adeps = self.rf(node.left, block, scope)
        b, bnull, bdeps = self.rf(node.right, block, scope)
        expr = _unless_none("(%s %s %s) %% p" % (a, _RF_OPS[cls], b), "None",
                            (a, anull), (b, bnull))
        deps = adeps | bdeps
        return self.value(block, (cls, a, b), "{r} = " + expr, deps,
                          (a, b)), anull or bnull, deps

    # value-group terms: ("lit", c) for a constant, ("iv", local) for an
    # interval tuple (lower, upper)

    def zz(self, node, block):
        cls = type(node)
        if cls is ZzConst:
            return ("lit", node.value)
        if cls is ZzInf:
            return ("iv", "PINF")
        if self.closed(node, {}):
            return ("iv", "c%d" % self.site("zz", node))
        if cls is ZzOrd:
            x = self.vf(node.operand, block)
            return self.zcall(block, "{r} = (%sv, %sv if %sk else INF)"
                              % ((x[1],) * 3), x)
        if cls is ZzAdd or cls is ZzSub:
            a = self.zz(node.left, block)
            b = self.zz(node.right, block)
            if cls is ZzSub:
                b = self.zneg(b, block)
            return self.zcall(block, "{r} = zi_add(%s, %s)"
                              % (self.tup(a), self.tup(b)), a, b)
        if cls is ZzNeg:
            return self.zneg(self.zz(node.operand, block), block)
        if cls is ZzScale:
            a = self.zz(node.operand, block)
            if node.factor == 0:
                return ("lit", 0)
            return self.zcall(block, "{r} = zi_scale(%d, %s)"
                              % (node.factor, self.tup(a)), a)
        raise AssertionError(node)

    def zneg(self, a, block):
        if a[0] == "lit":
            return ("lit", -a[1])
        return self.zcall(block, "{r} = zi_neg(%s)" % self.tup(a), a)

    def zcall(self, block, code, *operands):
        """("iv", the local that code assigns from the operands' locals)."""
        return ("iv", self.value(block, code, code,
                                 uses=tuple(a[1] for a in operands)))

    @staticmethod
    def tup(a):
        return a[1] if a[0] == "iv" else "(%d, %d)" % (a[1], a[1])

    # formulas: a local or T/F/U holding the truth value

    def truth(self, node, block, scope):
        if self.closed(node, scope):
            return "c%d" % self.site("truth", node)
        block = self.hoist(block, self.deps(node, scope))
        cls = type(node)
        if cls is And or cls is Or:
            # a side that is the connective's unit (T for And, F for Or)
            # drops out
            unit = "T" if cls is And else "F"
            a = self.truth(node.left, block, scope)
            if a == unit:
                return self.truth(node.right, block, scope)
            right = _Block(block)
            b = self.truth(node.right, right, scope)
            if b == unit and not right.lines:
                return a
            r = self.new("r")
            block.lines.append("%s = %s" % (r, a))
            self.home[r] = block
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
                              "{r} = F if %s is T else (T if %s is F else U)"
                              % (a, a), self.deps(node, scope), (a,))
        if cls is Exists:
            return self.exists(node, block, scope)
        return self.atom(node, block, scope)

    def exists(self, node, block, scope):
        e = self.new("e")
        block.lines.append("%s = F" % e)
        self.home[e] = block
        var = self.new("s")
        body = _Block(block, loop=var)
        # what reads the loop variable stays in its loop
        self.home[var] = body
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
        if cls is ZzLe and type(node.left) is ZzConst \
                and node.left.value <= 0 and type(node.right) is ZzOrd \
                and type(node.right.operand) is VfVar \
                and node.right.operand.name in self.names:
            # a box variable lies in O: its ord is >= 0, and INF at 0
            return "T"
        deps = self.deps(node, scope)
        if cls is VfEq:
            w = self.vf(VfSub(node.left, node.right), block)
            return self.value(block, ("eq", w[1]),
                              "{r} = F if %sk else U" % w[1], uses=(w[1],))
        if cls is RfEq or cls is RfNe:
            a, anull, _ = self.rf(node.left, block, scope)
            b, bnull, _ = self.rf(node.right, block, scope)
            yes, no = ("T", "F") if cls is RfEq else ("F", "T")
            expr = _unless_none("(%s if %s == %s else %s)" % (yes, a, b, no),
                                "U", (a, anull), (b, bnull))
            return self.value(block, (cls, a, b), "{r} = " + expr, deps,
                              (a, b))
        a = self.zz(node.left, block)
        b = self.zz(node.right, block)
        args = self.tup(a), self.tup(b)
        expr = "zz_cong(%s, %s, %d)" % (args + (node.modulus,)) \
            if cls is ZzCong else "%s(%s, %s)" % ((_ZZ_HELPERS[cls],) + args)
        return self.value(block, (cls, a, b), "{r} = " + expr, deps,
                          (a[1], b[1]))


def _unless_none(expr, otherwise, *operands):
    """expr, or `otherwise` where an operand that may be None is None."""
    tests = ["%s is None" % x for x, nullable in operands if nullable]
    if not tests:
        return expr
    return "%s if %s else %s" % (otherwise, " or ".join(tests), expr)


_RF_OPS = {RfAdd: "+", RfSub: "-", RfMul: "*"}
_ZZ_HELPERS = {ZzLe: "zz_le", ZzLt: "zz_lt", ZzEq: "zz_eq"}
