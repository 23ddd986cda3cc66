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

from ..errors import SortError


class Sort(Enum):
    VF = "vf"
    RF = "rf"
    ZZ = "zz"


class Node:
    """A syntax tree node.  Every node class is a frozen dataclass whose
    hash and free variables are computed once, on first use, and kept on
    the node, so that a memo keyed by a tree, or a Formula built around
    one, costs O(1) rather than a walk of the tree.  Neither is pickled:
    string hashes are salted per process, and the free variables are read
    again from the children."""
    __slots__ = ()
    _hash = None
    _free = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_free", None)
        return state


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
    """A residue quantifier, the only kind the language has: var ranges
    over the residue field, and its nodes in body are RfVar."""
    var: str
    body: Node


def _cache_hash(cls):
    tree_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = tree_hash(self)
        return h

    cls.__hash__ = __hash__


for _cls in Node.__subclasses__():
    _cache_hash(_cls)

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


def free_vars(node):
    """Map of free variable name -> Sort, in first-occurrence order."""
    return dict(_free(node))


def _free(node):
    """The (name, sort) pairs of node's free variables, in first-occurrence
    order, kept on the node: built from the children's pairs, with an
    exists dropping its own variable, the first time they are asked for.
    A name used at two sorts, or an exists whose variable its body uses
    at a sort other than the residue field's, raises SortError."""
    free = node._free
    if free is None:
        cls = type(node)
        if cls in _VAR_SORT:
            free = ((node.name, _VAR_SORT[cls]),)
        elif cls is Exists:
            free = _free(node.body)
            sort = dict(free).get(node.var, Sort.RF)
            if sort is not Sort.RF:
                raise SortError("exists %s ranges over the residue field, "
                                "but its body uses %s at sort %s"
                                % (node.var, node.var, sort.value))
            free = tuple(p for p in free if p[0] != node.var)
        else:
            seen = {}
            for c in children(node):
                for name, sort in _free(c):
                    if seen.setdefault(name, sort) is not sort:
                        raise SortError("%s is used at sorts %s and %s"
                                        % (name, seen[name].value,
                                           sort.value))
            free = tuple(seen.items())
        node.__dict__["_free"] = free
    return free


def rewrite(node, replace):
    """node with each subtree n for which replace(n) is not None replaced
    by that value, which is not descended into.  Subtrees with nothing
    replaced are kept as they are."""
    w = replace(node)
    if w is not None:
        return w
    cls = type(node)
    changed = False
    kwargs = {}
    for name in _field_names(cls):
        v = getattr(node, name)
        if isinstance(v, Node):
            w = rewrite(v, replace)
            changed = changed or w is not v
            v = w
        kwargs[name] = v
    return cls(**kwargs) if changed else node


class Formula:
    """A parsed formula: expression tree plus its free variables.  It is
    immutable, because the parser hands one object to every caller that
    parses the same text."""

    __slots__ = ("expr", "free")

    def __init__(self, expr, free=None):
        if free is None:
            free = _free(expr)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "free", tuple(free))

    def __setattr__(self, name, value):
        raise AttributeError("a Formula is immutable")

    def __delattr__(self, name):
        raise AttributeError("a Formula is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return Formula, (self.expr, self.free)

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
