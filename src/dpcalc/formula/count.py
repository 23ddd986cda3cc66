"""Exact point counting over prime residue fields.

A formula is compiled once, per (formula, free variables, parameter
names), into the source of one Python function count(q, g0, g1, ...) that
runs a planned loop nest at interpreter speed.  The parameters are the
free variables given values: each argument is reduced mod q when the
function starts and is bound before any loop, like a constant, so one
function serves every parameter value and every q:

* The top-level conjunction is split into conjuncts.  Variables are looped
  over in greedy order: the conjunct with the fewest variables not yet
  bound binds them next; parameters are bound already.  Each conjunct is
  tested in the outermost loop where all its variables are bound, so a
  false test there skips every loop inside it.  A free variable that no
  conjunct mentions gets no loop; it multiplies the count by q.
* The innermost variable x is eliminated when an equation conjunct tested
  there has syntactic degree exactly 1 in x.  For f = lhs - rhs, f0 = f(0)
  and k = f(1) - f0 mod q, f(x) = f0 + k*x in F_q: when k != 0 the one root
  x0 = -f0/k mod q is tested against the other innermost conjuncts, and
  when k = 0 x runs over F_q only if f0 = 0.  This is exact because q is
  checked to be prime.
* A quantifier `exists s. A == B(s) and C(s)`, in either orientation of
  the equation, where A does not mention s and B and every other conjunct
  C mention no variable but s and the parameters (a name an enclosing
  quantifier rebinds is no parameter there), is decided by one set
  lookup: A mod q is tested for membership in the image
  {B(s) mod q : s in F_q, C(s)}.  The image set is built once per call of
  the counting function, after the parameters and constants and after any
  image set C itself uses; quantifiers whose sets have the same source
  share one.  Sets are never memoized across calls.
* Inside any other quantifier tested outside the innermost loop, subterms
  that do not involve the quantified variables (they may involve
  parameters and constants) are computed once, before the quantifier's
  own loop.

Arithmetic stays in Z and reduces mod q at each comparison; integer
constants are reduced mod q when the function runs, so one compiled
function serves every q.  The counters are kept in a bounded LRU memo,
keyed by (expression, free variables with their sorts, parameter names),
which holds code and never a count.  An entry is made after the sorts
have been checked, and keeps the nominal depth it found, so a warm count
walks no tree; its code is generated on its first call.  The
budget is the one enumeration budget of `dpcalc.budget`, shared with the
oracle, and stays nominal: it bounds q^(free + quantified), the size of
the plain enumeration, whatever the plan saves.  Parameters are not
enumerated and are not counted in it.  It is checked after the sorts and
before any code is generated.
"""

from __future__ import annotations

import functools

from ..budget import check as check_budget
from ..errors import InvalidPrime, UnsupportedFeature
from ..localfield import is_prime
from .interpret import as_integer
from .nodes import (And, Exists, Formula, Not, Or, RfAdd, RfConst, RfEq,
                    RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort, children,
                    conjuncts, free_vars, walk)
from .parse import parse
from .printer import pretty_print

# distinct formulas whose compiled counters are kept
MEMO_SIZE = 256


def count_rf_points(phi, q, budget=None, values=None):
    """Number of solutions of phi in F_q^n, n = number of free variables
    not bound by values.

    phi may be source text (parsed with residue-sort defaulting), a Formula,
    or a bare expression node.  values maps residue parameters, free
    variables of phi, to integers, each read mod q; a name phi does not
    mention is ignored.  Only residue-sort formulas are countable; q must
    be a rational prime.  Raises BudgetExceeded when q^(free + quantified),
    parameters not included, exceeds `budget`, or when it is None the
    limit `dpcalc.budget.resolve` reads from the environment or its
    default.
    """
    if isinstance(phi, str):
        phi = parse(phi, default_sort=Sort.RF)
    elif not isinstance(phi, Formula):
        phi = Formula(phi)
    expr, free = phi.expr, phi.free
    if not is_prime(q):
        raise InvalidPrime("%r is not a rational prime" % (q,))
    params = tuple(sorted(n for n, _ in free if n in values)) if values \
        else ()
    counter = _compile(expr, free, params)
    check_budget(q, counter.depth, budget,
                 "q^%d evaluations at q = %d" % (counter.depth, q))
    return counter.count(q, *[as_integer(values[n], n) for n in params])


@functools.lru_cache(maxsize=MEMO_SIZE)
def _compile(expr, free, params):
    """The counter of expr over the (name, sort) pairs free, of which the
    names params are bound to its arguments.  The sorts are checked
    here, once, and the code is generated on the counter's first call,
    after the budget has passed its nominal depth."""
    bad = [n for n, s in free if s is not Sort.RF]
    if bad:
        raise UnsupportedFeature(
            "free variables %s are not residue-sort" % sorted(bad))
    nquant = sum(isinstance(node, Exists) for node in walk(expr))
    names = tuple(sorted(n for n, _ in free if n not in params))
    return _Counter(expr, names, params, len(names) + nquant)


class _Counter:
    """The nominal depth of a count and its counting function
    count(q, *params), which replaces itself by the generated one on its
    first call."""

    def __init__(self, expr, names, params, depth):
        self.depth = depth
        self._plan = expr, names, params

    def count(self, q, *values):
        expr, names, params = self._plan
        scope = {"__builtins__": {}, "range": range, "pow": pow, "any": any,
                 "sum": sum}
        # a file name of its own per formula, so that profiles tell them
        # apart
        exec(compile(_Plan(expr, names, params).source(),
                     "<count_rf_points:%s>" % pretty_print(expr), "exec"),
             scope)
        self.count = scope["count"]
        return self.count(q, *values)


def _degree(n, x):
    """Syntactic degree of the residue term n in the variable x, or None
    when n is not a polynomial in x."""
    if isinstance(n, RfVar):
        return int(n.name == x)
    if isinstance(n, RfConst):
        return 0
    if isinstance(n, RfNeg):
        return _degree(n.operand, x)
    if isinstance(n, RfPow):
        d = _degree(n.base, x)
        if d is None or (d and n.exponent < 0):
            return None
        return d * n.exponent
    if isinstance(n, (RfAdd, RfSub, RfMul)):
        a, b = _degree(n.left, x), _degree(n.right, x)
        if a is None or b is None:
            return None
        return a + b if isinstance(n, RfMul) else max(a, b)
    return None


def _linear_in(n, x):
    if not isinstance(n, RfEq):
        return False
    a, b = _degree(n.left, x), _degree(n.right, x)
    return a is not None and b is not None and max(a, b) == 1


class _Plan:
    """The loop nest counting expr over the free variables names, with the
    names params bound before any loop."""

    def __init__(self, expr, names, params=()):
        self.env = {name: "v%d" % i for i, name in enumerate(names)}
        self.args = ["g%d" % i for i in range(len(params))]
        self.env.update(zip(params, self.args))
        self.params = frozenset(params)
        self.fresh = len(names)
        self.consts = {}
        # image-set source -> name, in the order the sets are built
        self.images = {}
        self.hoisted = []
        parts = conjuncts(expr)
        uses = [set(free_vars(c)) - self.params for c in parts]
        self.order = []
        bound = set()
        while True:
            open_ = [(len(u - bound), i) for i, u in enumerate(uses)
                     if u - bound]
            if not open_:
                break
            group = uses[min(open_)[1]] - bound
            # every conjunct completed by this group is tested at its last
            # variable: make that one a variable some equation is linear in
            done = [c for c, u in zip(parts, uses) if u - bound == group]
            group = sorted(group)
            for x in group:
                if any(_linear_in(c, x) for c in done):
                    group.remove(x)
                    group.append(x)
                    break
            self.order.extend(group)
            bound.update(group)
        self.unused = len(names) - len(self.order)
        position = {x: i for i, x in enumerate(self.order, 1)}
        self.tests = [[] for _ in range(len(self.order) + 1)]
        for c, u in zip(parts, uses):
            self.tests[max((position[x] for x in u), default=0)].append(c)

    def source(self):
        body = []
        depth = 1
        if self.tests[0]:
            depth = self.guard(body, depth, self.tests[0])
        for level, x in enumerate(self.order[:-1], 1):
            body.append((depth, "for %s in range(q):" % self.env[x]))
            depth += 1
            if self.tests[level]:
                depth = self.guard(body, depth, self.tests[level])
        if self.order:
            body += [(depth + d, s) for d, s in self.innermost(self.order[-1])]
        else:
            body.append((depth, "n += 1"))
        lines = ["def count(%s):" % ", ".join(["q"] + self.args), "    n = 0"]
        lines += ["    %s %%= q" % g for g in self.args]
        lines += ["    %s = %d %% q" % (name, v)
                  for v, name in self.consts.items()]
        lines += ["    %s = %s" % (name, src)
                  for src, name in self.images.items()]
        lines += ["    " * d + s for d, s in body]
        lines.append("    return n * q ** %d" % self.unused)
        return "\n".join(lines) + "\n"

    def guard(self, body, depth, tests):
        """Append the test of the conjuncts in tests, after assigning the
        subterms it hoists; returns the indentation inside the test."""
        self.hoisted = []
        cond = self.condition(tests, frozenset())
        body += [(depth, s) for s in self.hoisted]
        body.append((depth, "if %s:" % cond))
        return depth + 1

    def condition(self, tests, inner=None):
        return " and ".join(self.translate(c, self.env, inner) for c in tests)

    def innermost(self, x):
        """(indent, statement) lines counting the innermost variable x."""
        tests = self.tests[-1]
        name = self.env[x]
        eq = next((c for c in tests if _linear_in(c, x)), None)
        if eq is None:
            return [(0, "n += sum(1 for %s in range(q) if %s)"
                     % (name, self.condition(tests)))]
        f = RfSub(eq.left, eq.right)
        f0 = self.translate(f, {**self.env, x: "0"}, None)
        f1 = self.translate(f, {**self.env, x: "1"}, None)
        out = [(0, "f0 = " + f0), (0, "k = (%s - f0) %% q" % f1),
               (0, "if k:")]
        rest = [c for c in tests if c is not eq]
        if not rest:
            return out + [(1, "n += 1"), (0, "elif f0 % q == 0:"),
                          (1, "n += q")]
        cond = self.condition(rest)
        return out + [(1, "%s = -f0 * pow(k, -1, q) %% q" % name),
                      (1, "n += %s" % cond),
                      (0, "elif f0 % q == 0:"),
                      (1, "n += sum(1 for %s in range(q) if %s)"
                       % (name, cond))]

    def translate(self, n, env, inner):
        """Python source for n.  inner holds the quantified names in
        scope, or is None where nothing may be hoisted; a compound term
        under a quantifier that involves none of them is hoisted."""
        if isinstance(n, RfVar):
            return env[n.name]
        if isinstance(n, RfConst):
            if n.value in (0, 1):
                return "%d" % n.value
            return self.consts.setdefault(n.value, "c%d" % len(self.consts))
        if inner and isinstance(n, (RfAdd, RfSub, RfMul, RfNeg, RfPow)) \
                and not inner & free_vars(n).keys():
            name = "h%d" % self.fresh
            self.fresh += 1
            self.hoisted.append(
                "%s = %s" % (name, self.translate(n, env, None)))
            return name
        if isinstance(n, Exists):
            image = self.image(n, env)
            if image is not None:
                a, name = image
                return "((%s) %% q in %s)" % (self.translate(a, env, inner),
                                              name)
            name = "v%d" % self.fresh
            self.fresh += 1
            body = self.translate(
                n.body, {**env, n.var: name},
                None if inner is None else inner | {n.var})
            return "any(%s for %s in range(q))" % (body, name)
        if isinstance(n, RfPow):
            base = self.translate(n.base, env, inner)
            if n.exponent == 2 and isinstance(n.base, RfVar):
                return "(%s * %s)" % (base, base)
            return "pow(%s, %d, q)" % (base, n.exponent)
        template = _TEMPLATES.get(type(n))
        if template is None:
            raise UnsupportedFeature(
                "%s terms cannot appear in residue point counts"
                % type(n).__name__)
        return template % tuple(self.translate(c, env, inner)
                                for c in children(n))

    def image(self, n, env):
        """(A, name of the image set) when the quantifier n, translated
        in env, is decided by testing A mod q against an image set (see
        the module docstring), else None."""
        parts = conjuncts(n.body)
        # a parameter counts only where no enclosing quantifier rebinds
        # its name
        params = {p: self.env[p] for p in self.params
                  if env.get(p) == self.env[p]}
        bound = params.keys() | {n.var}
        only_s = [not free_vars(c).keys() - bound for c in parts]
        env = {**params, n.var: "s"}
        for i, eq in enumerate(parts):
            rest = parts[:i] + parts[i + 1:]
            if not isinstance(eq, RfEq) \
                    or not all(only_s[:i] + only_s[i + 1:]):
                continue
            for a, b in ((eq.left, eq.right), (eq.right, eq.left)):
                if n.var not in free_vars(a) \
                        and not free_vars(b).keys() - bound:
                    src = "{%s %% q for s in range(q)" \
                        % self.translate(b, env, None)
                    if rest:
                        src += " if " + " and ".join(
                            self.translate(c, env, None) for c in rest)
                    src += "}"
                    return a, self.images.setdefault(
                        src, "S%d" % len(self.images))
        return None


_TEMPLATES = {
    RfAdd: "(%s + %s)", RfSub: "(%s - %s)", RfMul: "(%s * %s)",
    RfNeg: "(-%s)", RfEq: "((%s - (%s)) %% q == 0)",
    RfNe: "((%s - (%s)) %% q != 0)", And: "(%s and %s)",
    Or: "(%s or %s)", Not: "(not %s)",
}
