"""Render an AST back to concrete syntax.

parse(pretty_print(phi)) returns a Formula equal to phi for every parseable
formula; internally-built trees using fractional coefficients fall outside
the grammar and print for humans only.
"""

from __future__ import annotations

from .nodes import (And, Exists, Formula, Not, Or, RfAc, RfAdd, RfConst,
                    RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort,
                    VfAdd, VfConst, VfEq, VfMul, VfNeg, VfPow, VfSub,
                    VfUnif, VfVar, ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf,
                    ZzLe, ZzLt, ZzNeg, ZzOrd, ZzScale, ZzSub, ZzVar)

_ADD = (VfAdd, RfAdd, ZzAdd)
_SUB = (VfSub, RfSub, ZzSub)
_MUL = (VfMul, RfMul)
_NEG = (VfNeg, RfNeg, ZzNeg)
_POW = (VfPow, RfPow)
_VARS = (VfVar, RfVar, ZzVar)
_CONSTS = (VfConst, RfConst, ZzConst)


def _wrap(s, needed):
    return "(%s)" % s if needed else s


def _term(n, prec=0):
    if isinstance(n, _VARS):
        return n.name
    if isinstance(n, _CONSTS):
        return str(n.value)
    if isinstance(n, VfUnif):
        return "t"
    if isinstance(n, ZzInf):
        return "inf"
    if isinstance(n, ZzOrd):
        return "ord(%s)" % _term(n.operand)
    if isinstance(n, RfAc):
        return "ac(%s)" % _term(n.operand)
    if isinstance(n, _ADD):
        return _wrap("%s + %s" % (_term(n.left, 1), _term(n.right, 2)),
                     prec > 1)
    if isinstance(n, _SUB):
        return _wrap("%s - %s" % (_term(n.left, 1), _term(n.right, 2)),
                     prec > 1)
    if isinstance(n, _MUL):
        return _wrap("%s*%s" % (_term(n.left, 2), _term(n.right, 3)),
                     prec > 2)
    if isinstance(n, ZzScale):
        return _wrap("%d*%s" % (n.factor, _term(n.operand, 3)), prec > 2)
    if isinstance(n, _NEG):
        return _wrap("-%s" % _term(n.operand, 3), prec > 3)
    if isinstance(n, _POW):
        base = _term(n.base, 5)
        if isinstance(n.base, _CONSTS) and str(n.base.value).startswith("-"):
            base = "(%s)" % base
        return _wrap("%s^%d" % (base, n.exponent), prec > 4)
    raise AssertionError("unknown term node %r" % (n,))


def _expr(n, prec=0):
    if isinstance(n, Or):
        return _wrap("%s || %s" % (_expr(n.left, 1), _expr(n.right, 2)),
                     prec > 1)
    if isinstance(n, And):
        return _wrap("%s && %s" % (_expr(n.left, 2), _expr(n.right, 3)),
                     prec > 2)
    if isinstance(n, Not):
        return "!%s" % _expr(n.operand, 4)
    if isinstance(n, Exists):
        # the dot swallows everything rightward, so wrap except at the root
        return _wrap("exists %s:rf. %s" % (n.var, _expr(n.body, 1)),
                     prec > 0)
    if isinstance(n, VfEq):
        return "%s == %s" % (_term(n.left), _term(n.right))
    if isinstance(n, RfEq):
        return "%s == %s" % (_term(n.left), _term(n.right))
    if isinstance(n, RfNe):
        return "%s != %s" % (_term(n.left), _term(n.right))
    if isinstance(n, ZzEq):
        return "%s == %s" % (_term(n.left), _term(n.right))
    if isinstance(n, ZzLe):
        return "%s <= %s" % (_term(n.left), _term(n.right))
    if isinstance(n, ZzLt):
        return "%s < %s" % (_term(n.left), _term(n.right))
    if isinstance(n, ZzCong):
        return "%s == %s mod %d" % (_term(n.left), _term(n.right),
                                    n.modulus)
    raise AssertionError("unknown formula node %r" % (n,))


def pretty_print(phi):
    if isinstance(phi, Formula):
        groups = {Sort.VF: [], Sort.RF: [], Sort.ZZ: []}
        for name, sort in phi.free:
            groups[sort].append(name)
        decls = "".join("%s %s; " % (sort.value, ",".join(sorted(names)))
                        for sort, names in groups.items() if names)
        return decls + _expr(phi.expr)
    return _expr(phi)
