"""Typed AST for the three-sorted first-order language.

Sorts: VF (valued field), RF (residue field), ZZ (value group).  The only
cross-sort maps are ord: VF -> ZZ and ac: VF -> RF.  ZZ terms are affine
(integer scaling only, no products of variables).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import lru_cache


class Sort(Enum):
    VF = "vf"
    RF = "rf"
    ZZ = "zz"


class Node:
    __slots__ = ()


# valued-field terms

@dataclass(frozen=True)
class VfVar(Node):
    name: str


@dataclass(frozen=True)
class VfConst(Node):
    value: Fraction


@dataclass(frozen=True)
class VfUnif(Node):
    """The uniformizer symbol t."""


@dataclass(frozen=True)
class VfAdd(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class VfSub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class VfMul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class VfNeg(Node):
    operand: Node


@dataclass(frozen=True)
class VfPow(Node):
    base: Node
    exponent: int


# residue-field terms

@dataclass(frozen=True)
class RfVar(Node):
    name: str


@dataclass(frozen=True)
class RfConst(Node):
    value: int


@dataclass(frozen=True)
class RfAdd(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class RfSub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class RfMul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class RfNeg(Node):
    operand: Node


@dataclass(frozen=True)
class RfPow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class RfAc(Node):
    """Angular component of a VF term."""
    operand: Node


# value-group terms

@dataclass(frozen=True)
class ZzVar(Node):
    name: str


@dataclass(frozen=True)
class ZzConst(Node):
    value: int


@dataclass(frozen=True)
class ZzInf(Node):
    """The value of ord at zero."""


@dataclass(frozen=True)
class ZzAdd(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzSub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzNeg(Node):
    operand: Node


@dataclass(frozen=True)
class ZzScale(Node):
    factor: int
    operand: Node


@dataclass(frozen=True)
class ZzOrd(Node):
    """Valuation of a VF term."""
    operand: Node


# atoms

@dataclass(frozen=True)
class VfEq(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class RfEq(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class RfNe(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzEq(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzLe(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzLt(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ZzCong(Node):
    left: Node
    right: Node
    modulus: int


# connectives

@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Not(Node):
    operand: Node


@dataclass(frozen=True)
class Exists(Node):
    var: str
    sort: Sort
    body: Node


_VAR_SORT = {VfVar: Sort.VF, RfVar: Sort.RF, ZzVar: Sort.ZZ}


@lru_cache(maxsize=None)
def _field_names(cls):
    """The dataclass field names of a node class, in declaration order;
    read once per class rather than through `fields` on every call."""
    return tuple(f.name for f in fields(cls))


def children(node):
    out = []
    for name in _field_names(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            out.append(v)
    return out


def walk(node):
    yield node
    for c in children(node):
        yield from walk(c)


def free_vars(node, bound=frozenset()):
    """Map of free variable name -> Sort, in first-occurrence order."""
    out = {}

    def rec(n, bound):
        cls = type(n)
        if cls in _VAR_SORT:
            if n.name not in bound and n.name not in out:
                out[n.name] = _VAR_SORT[cls]
            return
        if cls is Exists:
            rec(n.body, bound | {n.var})
            return
        for c in children(n):
            rec(c, bound)

    rec(node, frozenset(bound))
    return out


def substitute(node, mapping):
    """node with every free variable whose name is a key of mapping
    replaced by the mapped node; an exists hides its own variable from
    the mapping.  A name has one sort throughout a formula, so matching by
    name alone is exact.  Subtrees with nothing replaced are kept as they
    are."""
    cls = type(node)
    if cls in _VAR_SORT:
        return mapping.get(node.name, node)
    if cls is Exists and node.var in mapping:
        mapping = {n: v for n, v in mapping.items() if n != node.var}
    changed = False
    kwargs = {}
    for name in _field_names(cls):
        v = getattr(node, name)
        if isinstance(v, Node):
            w = substitute(v, mapping)
            changed = changed or w is not v
            v = w
        kwargs[name] = v
    return cls(**kwargs) if changed else node


class Formula:
    """A parsed formula: expression tree plus its free variables.

    The bad-prime accumulator lets downstream symbolic passes attach the
    primes their manipulations exclude (append-only, order-independent).
    """

    def __init__(self, expr, free=None):
        self.expr = expr
        if free is None:
            free = free_vars(expr).items()
        self.free = tuple(free)
        self._bad = []

    def note_bad_prime(self, prime, reason):
        self._bad.append((int(prime), str(reason)))

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self.expr == other.expr and set(self.free) == set(other.free)

    def __hash__(self):
        return hash((self.expr, frozenset(self.free)))

    def __repr__(self):
        return "Formula(%r, free=%r)" % (self.expr, self.free)


def conjuncts(node):
    """The operands of a nest of And nodes, left to right."""
    if isinstance(node, And):
        return conjuncts(node.left) + conjuncts(node.right)
    return [node]


def _prime_factors(n):
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _has_nonconstant(node):
    return any(isinstance(n, (VfVar, VfUnif, RfVar)) for n in walk(node))


def bad_primes(phi):
    """Primes the symbolic treatment of phi excludes, with reasons.

    Collected from coefficient denominators, from multiplicative integer
    coefficients (normalizing them divides by the coefficient), and from
    whatever downstream passes recorded on the formula's accumulator.
    Returns {prime: (reason, ...)} sorted by prime.
    """
    notes = []

    def note(value, reason):
        for p in _prime_factors(value):
            notes.append((p, reason))

    for n in walk(phi.expr):
        if isinstance(n, VfConst) and n.value.denominator != 1:
            note(n.value.denominator,
                 "denominator of coefficient %s" % n.value)
        elif isinstance(n, (VfMul, RfMul)):
            for side, other in ((n.left, n.right), (n.right, n.left)):
                c = None
                if isinstance(side, VfConst) and side.value.denominator == 1:
                    c = int(side.value)
                elif isinstance(side, RfConst):
                    c = side.value
                if c is not None and abs(c) > 1 and _has_nonconstant(other):
                    note(c, "coefficient %d not invertible" % c)
    notes.extend(phi._bad)
    out = {}
    for p, reason in notes:
        out.setdefault(p, [])
        if reason not in out[p]:
            out[p].append(reason)
    return {p: tuple(out[p]) for p in sorted(out)}
