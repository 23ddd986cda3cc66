"""Reference point counter for the differential tests in test_formula.py.

This is the earlier `count_rf_points`, kept verbatim but for its test of
each quantifier's sort, which left with the sort of `Exists` (the parser
refuses every quantifier but a residue one): the whole formula is
compiled to one flat generator expression over every free variable, with
the quantifiers as `any(...)` loops inside it.  Counts are exact integers,
so the planned counter must return exactly what this module returns.  It
takes no parameter values: a residue parameter is substituted as a
constant first, with `substitute`, as the library once did before each
count.
"""

from __future__ import annotations

from dpcalc.errors import BudgetExceeded, InvalidPrime, UnsupportedFeature
from dpcalc.formula.nodes import (And, Exists, Formula, Not, Or, RfAdd,
                                  RfConst, RfEq, RfMul, RfNe, RfNeg, RfPow,
                                  RfSub, RfVar, Sort, VfVar, ZzVar, free_vars,
                                  rewrite, walk)
from dpcalc.formula.parse import parse
from dpcalc.localfield import is_prime

DEFAULT_BUDGET = 10 ** 8


def substitute(node, mapping):
    """node with every free variable whose name is a key of mapping
    replaced by the mapped node; an exists hides its own variable from
    the mapping.  A name has one sort throughout a formula, so matching by
    name alone is exact."""
    def replace(n):
        if isinstance(n, (VfVar, RfVar, ZzVar)):
            return mapping.get(n.name, n)
        if isinstance(n, Exists) and n.var in mapping:
            body = substitute(n.body, {k: v for k, v in mapping.items()
                                       if k != n.var})
            return n if body is n.body else Exists(n.var, body)
        return None

    return rewrite(node, replace)


def count_rf_points(phi, q, budget=DEFAULT_BUDGET):
    """Number of solutions of phi in F_q^n, n = number of free variables.

    phi may be source text (parsed with residue-sort defaulting), a Formula,
    or a bare expression node.  Only residue-sort formulas are countable;
    q must be a rational prime.  Raises BudgetExceeded when
    q^(free + quantified) exceeds the budget.
    """
    if isinstance(phi, str):
        phi = parse(phi, default_sort=Sort.RF)
    if isinstance(phi, Formula):
        expr = phi.expr
        free = dict(phi.free)
    else:
        expr = phi
        free = free_vars(phi)
    if not is_prime(q):
        raise InvalidPrime("%r is not a rational prime" % (q,))
    bad = [n for n, s in free.items() if s is not Sort.RF]
    if bad:
        raise UnsupportedFeature(
            "free variables %s are not residue-sort" % sorted(bad))
    nquant = sum(isinstance(node, Exists) for node in walk(expr))
    names = sorted(free)
    depth = len(names) + nquant
    if q ** depth > budget:
        raise BudgetExceeded(
            "q^%d = %d evaluations exceed the budget of %d"
            % (depth, q ** depth, budget))
    mangled = {name: "v%d" % i for i, name in enumerate(names)}
    counter = [len(names)]
    body = _translate(expr, q, mangled, counter)
    if names:
        loops = " ".join("for %s in range(q)" % mangled[n] for n in names)
        src = "sum(1 %s if %s)" % (loops, body)
    else:
        src = "(1 if %s else 0)" % body
    scope = {"__builtins__": {}, "range": range, "pow": pow, "any": any,
             "sum": sum, "q": q}
    return eval(compile(src, "<count_rf_points>", "eval"), scope)


def _translate(n, q, mangled, counter):
    if isinstance(n, RfVar):
        return mangled[n.name]
    if isinstance(n, RfConst):
        return "%d" % (n.value % q)
    if isinstance(n, RfAdd):
        return "(%s + %s)" % (_translate(n.left, q, mangled, counter),
                              _translate(n.right, q, mangled, counter))
    if isinstance(n, RfSub):
        return "(%s - %s)" % (_translate(n.left, q, mangled, counter),
                              _translate(n.right, q, mangled, counter))
    if isinstance(n, RfMul):
        return "(%s * %s)" % (_translate(n.left, q, mangled, counter),
                              _translate(n.right, q, mangled, counter))
    if isinstance(n, RfNeg):
        return "(-%s)" % _translate(n.operand, q, mangled, counter)
    if isinstance(n, RfPow):
        return "pow(%s, %d, q)" % (_translate(n.base, q, mangled, counter),
                                   n.exponent)
    if isinstance(n, RfEq):
        return "((%s - (%s)) %% q == 0)" % (
            _translate(n.left, q, mangled, counter),
            _translate(n.right, q, mangled, counter))
    if isinstance(n, RfNe):
        return "((%s - (%s)) %% q != 0)" % (
            _translate(n.left, q, mangled, counter),
            _translate(n.right, q, mangled, counter))
    if isinstance(n, And):
        return "(%s and %s)" % (_translate(n.left, q, mangled, counter),
                                _translate(n.right, q, mangled, counter))
    if isinstance(n, Or):
        return "(%s or %s)" % (_translate(n.left, q, mangled, counter),
                               _translate(n.right, q, mangled, counter))
    if isinstance(n, Not):
        return "(not %s)" % _translate(n.operand, q, mangled, counter)
    if isinstance(n, Exists):
        name = "v%d" % counter[0]
        counter[0] += 1
        mangled = {**mangled, n.var: name}
        return "any(%s for %s in range(q))" % (
            _translate(n.body, q, mangled, counter), name)
    raise UnsupportedFeature(
        "%s terms cannot appear in residue point counts"
        % type(n).__name__)
