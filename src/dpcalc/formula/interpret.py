"""Three-valued interpretation over a concrete local field at finite
precision.

Truth values refine monotonically: once an atom decides True or False at
precision N it decides the same way at every higher precision, because
element digit windows only grow.  Valuations of not-fully-determined
elements enter comparisons as intervals [lower, upper]; anything the
interval cannot settle comes back Undecided.  The ends are integers or
float infinities: INF (math.inf) is ord 0, and NINF = -INF arises from
negating it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ..errors import InvalidArgument, PrecisionExhausted, UnboundVariable
from ..localfield import INF, LFElem, embed_rational, power
# perfbench/spans.py traces from_digits under this module's name
from ..localfield import from_digits  # noqa: F401
from .nodes import (And, Exists, Formula, Not, Or, RfAc, RfAdd, RfConst,
                    RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort,
                    VfAdd, VfConst, VfEq, VfMul, VfNeg, VfPow, VfSub,
                    VfUnif, VfVar, ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf,
                    ZzLe, ZzLt, ZzNeg, ZzOrd, ZzScale, ZzSub, ZzVar,
                    free_vars)


class Truth3(Enum):
    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"


_T, _F, _U = Truth3.TRUE, Truth3.FALSE, Truth3.UNDECIDED


def t3_not(a):
    if a is _T:
        return _F
    if a is _F:
        return _T
    return _U


def t3_and(a, b):
    if a is _F or b is _F:
        return _F
    if a is _T and b is _T:
        return _T
    return _U


def t3_or(a, b):
    if a is _T or b is _T:
        return _T
    if a is _F and b is _F:
        return _F
    return _U


NINF = -INF
_PINF_POINT = (INF, INF)
_NINF_POINT = (NINF, NINF)


def _zi_neg(A):
    return (-A[1], -A[0])


def _zi_add(A, B):
    # +inf and -inf meet at one end only where a side is an infinite
    # point; every other sum of ends is a float or integer sum
    if A == _PINF_POINT or B == _PINF_POINT:
        return (NINF, INF) if _NINF_POINT in (A, B) else _PINF_POINT
    if A == _NINF_POINT or B == _NINF_POINT:
        return _NINF_POINT
    return (A[0] + B[0], A[1] + B[1])


def _zi_scale(k, A):
    if k == 0:
        return (0, 0)
    if k > 0:
        return (k * A[0], k * A[1])
    return (k * A[1], k * A[0])


# value-group atoms over intervals (lower, upper) with +-inf ends; the
# oracle's compiled sweep calls these too

def zz_le(A, B):
    if A[1] <= B[0]:
        return _T
    if B[1] < A[0]:
        return _F
    return _U


def zz_lt(A, B):
    if A[1] < B[0]:
        return _T
    if B[1] <= A[0]:
        return _F
    return _U


def zz_eq(A, B):
    if A == B and A[0] == A[1]:
        return _T
    if A[1] < B[0] or B[1] < A[0]:
        return _F
    return _U


def zz_cong(A, B, modulus):
    D = _zi_add(A, _zi_neg(B))
    if D == _PINF_POINT or D == _NINF_POINT:
        # no finite difference exists, so the congruence fails
        return _F
    lo, hi = D
    if lo == NINF or hi == INF:
        return _U
    hits = [v % modulus == 0 for v in range(lo, hi + 1)]
    if all(hits):
        return _T
    if not any(hits):
        return _F
    return _U


_ZZ_ATOMS = {ZzLe: zz_le, ZzLt: zz_lt, ZzEq: zz_eq}


class _Evaluator:
    def __init__(self, spec):
        self.spec = spec
        self.p = spec.prime

    # terms

    def vf(self, n, env):
        if isinstance(n, VfVar):
            return env[n.name]
        if isinstance(n, VfConst):
            return embed_rational(n.value, self.spec)
        if isinstance(n, VfUnif):
            return self.spec.uniformizer()
        if isinstance(n, VfAdd):
            return self.vf(n.left, env) + self.vf(n.right, env)
        if isinstance(n, VfSub):
            return self.vf(n.left, env) - self.vf(n.right, env)
        if isinstance(n, VfMul):
            return self.vf(n.left, env) * self.vf(n.right, env)
        if isinstance(n, VfNeg):
            return -self.vf(n.operand, env)
        if isinstance(n, VfPow):
            return power(self.vf(n.base, env), n.exponent)
        raise AssertionError(n)

    def rf(self, n, env):
        """Residue value as an int, or None when undetermined."""
        if isinstance(n, RfVar):
            return env[n.name] % self.p
        if isinstance(n, RfConst):
            return n.value % self.p
        if isinstance(n, RfAc):
            x = self.vf(n.operand, env)
            try:
                return x.ac() % self.p
            except PrecisionExhausted:
                return None
        if isinstance(n, (RfAdd, RfSub, RfMul)):
            a = self.rf(n.left, env)
            b = self.rf(n.right, env)
            if a is None or b is None:
                return None
            if isinstance(n, RfAdd):
                return (a + b) % self.p
            if isinstance(n, RfSub):
                return (a - b) % self.p
            return (a * b) % self.p
        if isinstance(n, RfNeg):
            a = self.rf(n.operand, env)
            return None if a is None else (-a) % self.p
        if isinstance(n, RfPow):
            a = self.rf(n.base, env)
            return None if a is None else pow(a, n.exponent, self.p)
        raise AssertionError(n)

    def zz(self, n, env):
        """Value-group interval (lower, upper) over Z with +-inf ends."""
        if isinstance(n, ZzVar):
            v = env[n.name]
            return _PINF_POINT if v == INF else (v, v)
        if isinstance(n, ZzConst):
            return (n.value, n.value)
        if isinstance(n, ZzInf):
            return _PINF_POINT
        if isinstance(n, ZzOrd):
            return self.vf(n.operand, env).ord_bounds()
        if isinstance(n, ZzAdd):
            return _zi_add(self.zz(n.left, env), self.zz(n.right, env))
        if isinstance(n, ZzSub):
            return _zi_add(self.zz(n.left, env),
                           _zi_neg(self.zz(n.right, env)))
        if isinstance(n, ZzNeg):
            return _zi_neg(self.zz(n.operand, env))
        if isinstance(n, ZzScale):
            return _zi_scale(n.factor, self.zz(n.operand, env))
        raise AssertionError(n)

    # atoms

    def atom(self, n, env):
        try:
            return self._atom(n, env)
        except PrecisionExhausted:
            return _U

    def _atom(self, n, env):
        # reflexivity decides syntactically identical sides at any precision
        if n.left == n.right:
            if isinstance(n, (VfEq, RfEq, ZzEq, ZzLe, ZzCong)):
                return _T
            if isinstance(n, (RfNe, ZzLt)):
                return _F
        if isinstance(n, VfEq):
            w = self.vf(n.left, env) - self.vf(n.right, env)
            if w.is_exact_zero():
                return _T
            if w.exact or not w.is_indeterminate():
                return _F
            return _U
        if isinstance(n, (RfEq, RfNe)):
            a = self.rf(n.left, env)
            b = self.rf(n.right, env)
            if a is None or b is None:
                return _U
            same = (a - b) % self.p == 0
            if isinstance(n, RfEq):
                return _T if same else _F
            return _F if same else _T
        if isinstance(n, ZzCong):
            return zz_cong(self.zz(n.left, env), self.zz(n.right, env),
                           n.modulus)
        if isinstance(n, (ZzLe, ZzLt, ZzEq)):
            return _ZZ_ATOMS[type(n)](self.zz(n.left, env),
                                      self.zz(n.right, env))
        raise AssertionError(n)

    # connectives and quantifiers

    def truth(self, n, env):
        if isinstance(n, And):
            return t3_and(self.truth(n.left, env), self.truth(n.right, env))
        if isinstance(n, Or):
            return t3_or(self.truth(n.left, env), self.truth(n.right, env))
        if isinstance(n, Not):
            return t3_not(self.truth(n.operand, env))
        if isinstance(n, Exists):
            return self.exists(n, env)
        return self.atom(n, env)

    def exists(self, n, env):
        saw_undecided = False
        for v in range(self.p):
            r = self.truth(n.body, {**env, n.var: v})
            if r is _T:
                return _T
            if r is _U:
                saw_undecided = True
        return _U if saw_undecided else _F


def _refuse(what, kind, value):
    # quoted as a cell file's oracle block gives it; imported here only,
    # so that the oracle loads no JSON module
    import json
    raise InvalidArgument("%s must be %s, not %s"
                          % (what, kind, json.dumps(value, default=repr)))


def as_integer(value, what):
    """value, if it is an int: a float, a bool or a string is not one,
    and none is truncated to one."""
    if type(value) is not int:
        _refuse(what, "an integer", value)
    return value


def as_field_element(value, spec, what):
    """value as an LFElem of spec: an LFElem of spec, or an int (not a
    bool) or a Fraction embedded.  A float or a string is not one, and
    none is rounded to one."""
    if isinstance(value, LFElem):
        if value.spec != spec:
            raise ValueError(
                "assignment for %r lives in a different field" % what)
        return value
    if type(value) is not int and not isinstance(value, Fraction):
        _refuse(what, "a field element or a rational", value)
    return embed_rational(Fraction(value), spec)


def bind_assignment(free, spec, assignment):
    """The values `interpret` evaluates with: for each (name, sort) in
    free, an LFElem of spec, a residue mod p, or an integer or INF
    (math.inf)."""
    env = {}
    for name, sort in free:
        if name not in assignment:
            raise UnboundVariable("no value for %r" % name)
        v = assignment[name]
        if sort is Sort.VF:
            env[name] = as_field_element(v, spec, name)
        elif sort is Sort.RF:
            env[name] = as_integer(v, name) % spec.prime
        else:
            env[name] = v if v == INF else as_integer(v, name)
    return env


def interpret(phi, spec, assignment):
    """Evaluate a formula at an assignment of its free variables.

    VF values may be LFElem (matching spec), int, or Fraction; RF values are
    integers mod p; ZZ values are integers or INF.
    Returns Truth3; finite precision surfaces as UNDECIDED, never as a
    wrong answer.  A quantifier ranges over the residues mod p.
    """
    expr = phi.expr if isinstance(phi, Formula) else phi
    free = dict(phi.free) if isinstance(phi, Formula) else free_vars(expr)
    env = bind_assignment(free.items(), spec, assignment)
    return _Evaluator(spec).truth(expr, env)


def eval_vf_term(term, spec, assignment):
    """Evaluate a valued-field term at an assignment.

    Values may be LFElem, int, or Fraction; INF, which a value-group name
    of the caller's assignment may hold, passes as given, and any other
    value raises InvalidArgument.  Returns an LFElem (possibly only
    partially determined, matching the inputs)."""
    env = {name: v if isinstance(v, LFElem) or v == INF
           else as_field_element(v, spec, name)
           for name, v in assignment.items()}
    return _Evaluator(spec).vf(term, env)
