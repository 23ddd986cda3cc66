"""Cells, constructible functions, and the symbolic one-variable integrator.

A 1-cell describes the points z of a valued field with ord(z - c) = alpha,
ac(z - c) = xi, where the center c, the valuation alpha, and the angular
component xi are read off from auxiliary residue and value-group variables
constrained by the cell's basis formula.  A 0-cell is the single point
z = c.  Integrating a coefficient psi over a 1-cell pushes it forward to

    [residue class of the basis]  (x)  sum over the value-group variables
                                       of  psi * L^(-alpha - 1)

with the sum evaluated exactly by `presburger`.  0-cells carry measure
zero; their counting terms are recorded in the derivation log and only
affine centers are accepted.  Results are constructible functions: finite
sums of residue classes tensored with exact ring values, which specialize
to any concrete residue characteristic by point counting and L -> q.

Automatic decomposition is provided only for products of linear factors
|t - c_j| over the valuation ring; everything else enters as caller-built
cells or cell-data files.

Memos hold syntax, never values or counts.  A cell file is read on every
`load_cells` and parsed once per text (`CELL_MEMO`); the integer
constants whose primes `bad_primes` excludes are read once per tree; a
family of cells is checked and planned once (`PLAN_MEMO`), and a linear
product's cells are built and planned once (`LINEAR_MEMO`).  The value
is integrated, and every prime factored, on every request.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import gcd

from .budget import check as check_budget, check_index
from .errors import (BadPrime, DuplicateCenter,
                     InvalidArgument, InvalidPrime, OverlapDetected,
                     ParseError, UnboundParameter, UnsupportedFeature,
                     UnsupportedZeroCell)
from .formula import (And, Exists, Formula, Not, Or, RfAdd, RfConst, RfEq,
                      RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort, VfAdd,
                      VfConst, VfMul, VfNeg, VfPow, VfSub, VfUnif, VfVar,
                      ZzCong, ZzEq, ZzLe, ZzLt, free_vars, parse, parse_term,
                      pretty_print, walk)
from .formula.count import count_rf_points
from .formula.interpret import as_integer
from .formula.nodes import conjuncts
from .localfield import is_prime
from .poly import add as poly_add, divisors, evaluate, factor, interpolate
from .poly import mul as poly_mul, totient
from .presburger import (AffineForm, PresDomain, PresTerm, SymSum, VarRange,
                         parse_affine, zz_affine)
from .presburger import sum as pres_sum
from .symring import ONE, ZERO, L, SymA

EMPTY_DOMAIN = PresDomain(())
# distinct (class, domain) pairs whose term order is kept; the acceptance
# corpus meets five
TERM_KEY_MEMO = 1024
# distinct cell-file texts whose parsed cells are kept; the acceptance
# corpus has three
CELL_MEMO = 32
# distinct trees whose coefficient constants are kept, some 2 KB each; the
# acceptance corpus meets eleven
CONSTANTS_MEMO = 64
# distinct cell families whose plan is kept; the acceptance corpus meets
# three
PLAN_MEMO = 16
# distinct linear products whose cells and plan are kept; the acceptance
# corpus meets three
LINEAR_MEMO = 16
# witness primes past an interpolation's degree + 1 that confirm its fit
RESIDUE_FIT_CHECKS = 2
# the first prime a fit is read at; the primes of a class below it are
# counted one by one
FIRST_WITNESS = 5

ZERO_CELL = "ZeroCell"
ONE_CELL = "OneCell"
# what a cell's residue class may be built from, since count_rf_points
# counts it: residue terms and atoms, connectives and (residue) quantifiers
_CLASS_NODES = (And, Or, Not, Exists, RfEq, RfNe, RfVar, RfConst, RfAdd,
                RfSub, RfMul, RfNeg, RfPow)


def _fold_and(parts):
    out = None
    for p in parts:
        out = p if out is None else And(out, p)
    return out


def _extract_ranges(conjuncts, ordered_vars, context):
    """Pull bound and congruence constraints on ordered_vars out of a
    conjunct list.  Returns (PresDomain, leftover conjuncts).  Bounds may
    mention context names and earlier ordered_vars (triangular shape)."""
    order = {v: i for i, v in enumerate(ordered_vars)}
    table = {v: {"lower": None, "upper": None, "cong": None}
             for v in ordered_vars}
    leftover = []

    def target_of(aff):
        cands = [v for v in aff.variables() if v in order]
        tv = max(cands, key=order.get)
        if abs(aff.coeff(tv)) != 1:
            raise UnsupportedFeature(
                "cannot solve for %r with coefficient %d"
                % (tv, aff.coeff(tv)))
        return tv

    def set_bound(tv, which, value):
        if table[tv][which] is not None:
            raise UnsupportedFeature("two %s bounds for %r" % (which, tv))
        table[tv][which] = value

    for c in conjuncts:
        if not isinstance(c, (ZzEq, ZzLe, ZzLt, ZzCong)):
            leftover.append(c)
            continue
        names = set(free_vars(c))
        if not names & set(ordered_vars):
            leftover.append(c)
            continue
        aff = zz_affine(c.left) - zz_affine(c.right)
        tv = target_of(aff)
        coeff = aff.coeff(tv)
        rest = aff.drop(tv)
        if isinstance(c, ZzCong):
            if not rest.is_constant():
                raise UnsupportedFeature(
                    "congruence on %r has a symbolic offset" % tv)
            if table[tv]["cong"] is not None:
                raise UnsupportedFeature("two congruences for %r" % tv)
            table[tv]["cong"] = (c.modulus,
                                 (-coeff * rest.const) % c.modulus)
            continue
        if isinstance(c, ZzEq):
            pin = rest.scale(-coeff)
            set_bound(tv, "lower", pin)
            set_bound(tv, "upper", pin)
            continue
        bound = (-rest) + (-1 if isinstance(c, ZzLt) else 0)
        if coeff == 1:
            set_bound(tv, "upper", bound)
        else:
            set_bound(tv, "lower", -bound)

    ranges = []
    for v in ordered_vars:
        slot = table[v]
        mod, res = slot["cong"] or (1, 0)
        ranges.append(VarRange(v, slot["lower"], slot["upper"], mod, res))
    try:
        return PresDomain(tuple(ranges)), leftover
    except ValueError as e:
        raise UnsupportedFeature(str(e)) from None


_PSI_RE = re.compile(r"^\s*(?:(?P<pre>.*?)\s*\*\s*)?L\^\(\s*(?P<aff>[^()]*?)\s*\)\s*$")


def parse_psi(text):
    """A cell coefficient 'c * L^(affine)' (or a bare ring constant) as a
    PresTerm."""
    m = _PSI_RE.match(text)
    if m is None:
        return PresTerm(SymA.parse(text), AffineForm.constant(0))
    pre = m.group("pre")
    coeff = SymA.parse(pre) if pre else ONE
    return PresTerm(coeff, parse_affine(m.group("aff")))


# a call of a name the term grammar does not know, such as root(x, eta2):
# never a term, so it is not lexed
_NAMED_CENTER_RE = re.compile(
    r"\s*(?!(?:ord|ac)\b)[A-Za-z_][A-Za-z_0-9]*\s*\(")


def _term_or_none(text, sort):
    """text as a term of the sort, or None when it is not one (a center
    such as root(x, eta2) is named, not written as a term)."""
    if _NAMED_CENTER_RE.match(text):
        return None
    try:
        return parse_term(text, sort)
    except ParseError:
        return None


def _vf_degree(node):
    if isinstance(node, (VfConst, VfUnif)):
        return 0
    if isinstance(node, VfVar):
        return 1
    if isinstance(node, (VfAdd, VfSub)):
        return max(_vf_degree(node.left), _vf_degree(node.right))
    if isinstance(node, VfNeg):
        return _vf_degree(node.operand)
    if isinstance(node, VfMul):
        return _vf_degree(node.left) + _vf_degree(node.right)
    if isinstance(node, VfPow):
        return _vf_degree(node.base) * node.exponent
    return 2


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True)
class Cell:
    """One stratum of a decomposition of the valued-field line.

    For a 1-cell, z ranges over ord(z - center) = alpha, ac(z - center) =
    xi, with the extra residue variables cut out by class_formula and the
    extra value-group variables ranging over z_domain.  A 0-cell is the
    point z = center.  param_domain restricts the ambient value-group
    parameters (it survives into the integration result).
    """

    kind: str
    center_text: str
    psi: PresTerm
    cell_id: str = ""
    class_formula: Formula | None = None
    z_domain: PresDomain = EMPTY_DOMAIN
    param_domain: PresDomain = EMPTY_DOMAIN
    alpha: AffineForm | None = None
    xi_text: str | None = None
    center_term: object = None
    presentation: str = ""

    def __post_init__(self):
        if self.kind not in (ZERO_CELL, ONE_CELL):
            raise ValueError("unknown cell kind %r" % (self.kind,))
        if self.kind == ONE_CELL:
            if self.alpha is None or not self.xi_text:
                raise ValueError("a 1-cell carries both alpha and xi")
        else:
            if self.alpha is not None or self.xi_text:
                raise ValueError("a 0-cell carries neither alpha nor xi")
            if self.z_domain.ranges:
                raise ValueError(
                    "a 0-cell has no extra value-group variables")

    def __hash__(self):
        # kept once computed, as formula nodes keep theirs: the plan memo
        # is keyed by a tuple of cells
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                tuple(getattr(self, f.name) for f in fields(self)))
        return h

    def __getstate__(self):
        # string hashes are salted per process, so the kept one is not
        # pickled
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class CellData:
    """A parsed cell-data file: the cells, the declared parameter slots,
    file-level excluded primes, and an optional oracle cross-check block."""

    cells: tuple
    parameters: tuple
    bad_primes: dict
    oracle: object = None


_SORTS = {"vf": Sort.VF, "rf": Sort.RF, "zz": Sort.ZZ}


def _build_cell(raw, index, param_names, zz_params):
    if not isinstance(raw, dict):
        raise ParseError("cell %d is not an object" % index)
    kind = raw.get("kind")
    if kind not in (ZERO_CELL, ONE_CELL):
        raise ParseError("cell %d has unknown kind %r" % (index, kind))
    cell_id = str(raw.get("id", "") or "cell%d" % index)
    center_text = raw.get("center")
    if not isinstance(center_text, str) or not center_text.strip():
        raise ParseError("cell %s has no center" % cell_id)
    center_text = center_text.strip()
    psi_text = raw.get("psi")
    if not isinstance(psi_text, str):
        raise ParseError("cell %s has no psi coefficient" % cell_id)
    psi = parse_psi(psi_text)

    basis_text = raw.get("basis")
    basis_atoms = []
    zvars = []
    if basis_text:
        basis = parse(basis_text, default_sort=Sort.RF)
        for name, sort in basis.free:
            if sort is Sort.VF:
                raise UnsupportedFeature(
                    "cell %s: basis formulas range over residue and "
                    "value-group variables only" % cell_id)
            if sort is Sort.ZZ and name not in param_names:
                zvars.append(name)
        basis_atoms = conjuncts(basis.expr)

    z_domain, leftover = _extract_ranges(basis_atoms, zvars, param_names)
    own_params = [n for n in zz_params
                  if any(n in free_vars(c) for c in leftover)]
    param_domain, leftover = _extract_ranges(leftover, own_params, set())

    alpha_text = raw.get("alpha")
    xi_text = raw.get("xi")
    if kind == ZERO_CELL:
        if alpha_text or xi_text:
            raise ParseError("cell %s: a 0-cell has no alpha or xi"
                             % cell_id)
        if z_domain.ranges:
            raise ParseError(
                "cell %s: a 0-cell has no extra value-group variables"
                % cell_id)
        alpha = None
    else:
        if not alpha_text or not xi_text:
            raise ParseError("cell %s: a 1-cell needs alpha and xi"
                             % cell_id)
        alpha = parse_affine(alpha_text)
        loose = alpha.variables() - set(zvars) - set(param_names)
        if loose:
            raise ParseError("cell %s: alpha uses undeclared %s"
                             % (cell_id, sorted(loose)))
        # xi ranges over nonzero residues by definition; make the literal
        # constraint part of the class when xi is a bare variable
        term = _term_or_none(xi_text.strip(), Sort.RF)
        if isinstance(term, RfVar):
            atom = RfNe(term, RfConst(0))
            if atom not in basis_atoms:
                leftover = leftover + [atom]

    for c in leftover:
        for node in walk(c):
            if not isinstance(node, _CLASS_NODES):
                raise UnsupportedFeature(
                    "cell %s: constraint %s is neither a summation range "
                    "nor a residue condition" % (cell_id, pretty_print(
                        Formula(c))))

    class_formula = Formula(_fold_and(leftover)) if leftover else None
    return Cell(kind=kind,
                center_text=center_text,
                psi=psi,
                cell_id=cell_id,
                class_formula=class_formula,
                z_domain=z_domain,
                param_domain=param_domain,
                alpha=alpha,
                xi_text=xi_text.strip() if xi_text else None,
                center_term=_term_or_none(center_text, Sort.VF),
                presentation=str(raw.get("presentation", "") or ""))


def load_cells(source):
    """Read a cell-data file (path, file object, or parsed dict).

    Format: {"cells": [{kind, basis, center, alpha, xi, psi, id?,
    presentation?}], "parameters": [{name, sort}], "bad_primes"?:
    {prime: reason(s)}, "oracle"?: anything}.  Sorts are vf/rf/zz.

    A path is read on every call, and its text parsed once: every load
    of the same text returns one `CellData`, whose `bad_primes` and
    `oracle` refuse writes.  A malformed text raises on every load.
    """
    if isinstance(source, dict):
        return _cell_data(source)
    if hasattr(source, "read"):
        return _cell_data(json.load(source))
    with open(os.fspath(source)) as fh:
        text = fh.read()
    return _load_text(text)


@functools.lru_cache(maxsize=CELL_MEMO)
def _load_text(text):
    """The cell data of a file's text, shared by every load of it."""
    data = _cell_data(json.loads(text))
    return replace(data, bad_primes=_frozen(data.bad_primes),
                   oracle=_frozen(data.oracle))


class _Frozen(dict):
    """A dict that refuses every write: the memo shares one per text."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("loaded cell data cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # copy and pickle would refill a dict subclass item by item
        return dict, (dict(self),)


def _frozen(value):
    """A JSON value with every dict frozen and every list a tuple."""
    if isinstance(value, dict):
        return _Frozen((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


def _cell_data(data):
    if not isinstance(data, dict) or "cells" not in data:
        raise ParseError("cell data must be an object with a 'cells' list")

    parameters = []
    for raw in data.get("parameters", ()):
        try:
            name, sort = raw["name"], _SORTS[raw["sort"]]
        except (TypeError, KeyError):
            raise ParseError("bad parameter entry %r" % (raw,)) from None
        parameters.append((name, sort))
    param_names = {n for n, _ in parameters}
    zz_params = [n for n, s in parameters if s is Sort.ZZ]

    cells = [_build_cell(raw, i, param_names, zz_params)
             for i, raw in enumerate(data["cells"])]

    bad = {}
    for key, reasons in (data.get("bad_primes") or {}).items():
        p = int(key)
        if isinstance(reasons, str):
            reasons = [reasons]
        bad[p] = tuple(str(r) for r in reasons)

    return CellData(cells=tuple(cells), parameters=tuple(parameters),
                    bad_primes=bad, oracle=data.get("oracle"))


# ---------------------------------------------------------------------------
# constructible functions


@dataclass(frozen=True)
class CTerm:
    """One summand: a residue class, residual value-group constraints, and
    an exact coefficient."""

    rf_class: Formula | None
    domain: PresDomain
    coeff: SymSum

    def render(self):
        cls = "1" if self.rf_class is None else pretty_print(self.rf_class)
        out = "[%s] (x) %s" % (cls, self.coeff.render())
        if self.domain.ranges:
            out += "  for " + ", ".join(_render_range(r)
                                        for r in self.domain.ranges)
        return out


def _render_range(r):
    parts = []
    if r.lower is not None:
        parts.append("%s <= %s" % (r.lower.render(), r.name))
    if r.upper is not None:
        parts.append("%s <= %s" % (r.name, r.upper.render()))
    if r.modulus != 1:
        parts.append("%s == %d mod %d" % (r.name, r.residue, r.modulus))
    return " && ".join(parts) or r.name + " free"


@functools.lru_cache(maxsize=TERM_KEY_MEMO)
def _term_key(rf_class, domain):
    """The order of a term among a function's terms, by the text of its
    class and of its ranges; kept per (class, domain), which every sum of
    functions meets again."""
    return ("" if rf_class is None else pretty_print(rf_class),
            tuple((r.name, str(r.lower), str(r.upper), r.modulus, r.residue)
                  for r in domain.ranges))


class ConstructibleFn:
    """A finite sum of residue classes tensored with exact ring values.

    Terms with the same class and residual domain merge; zero coefficients
    drop.  Once no value-group parameters remain, every coefficient is a
    plain ring constant and as_syma() collapses the class-free part.
    """

    __slots__ = ("terms", "params")

    def __init__(self, terms=(), params=()):
        self.params = tuple((n, s) for n, s in params)
        merged = {}
        for t in terms:
            if isinstance(t, CTerm):
                cls, dom, coeff = t.rf_class, t.domain, t.coeff
            else:
                cls, dom, coeff = t
            if isinstance(coeff, SymA):
                coeff = SymSum.of_syma(coeff)
            elif isinstance(coeff, PresTerm):
                coeff = SymSum((coeff,))
            key = (cls, dom)
            merged[key] = merged[key] + coeff if key in merged else coeff
        out = [CTerm(cls, dom, coeff)
               for (cls, dom), coeff in merged.items()
               if not coeff.is_zero()]
        out.sort(key=lambda t: _term_key(t.rf_class, t.domain))
        self.terms = tuple(out)

    @classmethod
    def zero(cls, params=()):
        return cls((), params)

    @classmethod
    def constant(cls, value, params=()):
        return cls(((None, EMPTY_DOMAIN, value),), params)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, ConstructibleFn):
            return NotImplemented
        params = self.params
        if self.params != other.params:
            if not self.terms:
                params = other.params
            elif not other.terms:
                params = self.params
            else:
                raise ValueError("cannot add functions over different "
                                 "parameter lists")
        return ConstructibleFn(self.terms + other.terms, params)

    def __eq__(self, other):
        if not isinstance(other, ConstructibleFn):
            return NotImplemented
        return self.terms == other.terms and self.params == other.params

    def __hash__(self):
        return hash((self.terms, self.params))

    def as_syma(self):
        """Collapse to a ring constant; requires every class trivial."""
        acc = SymA.from_int(0)
        for t in self.terms:
            if t.rf_class is not None or t.domain.ranges:
                raise UnsupportedFeature(
                    "the function still carries a residue class or a "
                    "parameter domain: %s" % t.render())
            acc = acc + t.coeff.as_syma()
        return acc

    def render(self):
        if not self.terms:
            return "0"
        return "  +  ".join(t.render() for t in self.terms)

    __str__ = render

    def __repr__(self):
        return "ConstructibleFn(%s)" % self.render()


class IntegrationResult:
    """The value of a cell integration, the primes it excludes (with the
    recorded reasons), and the per-cell audit trail `derivation`: one
    (cell id, contribution, note) entry per cell, a tuple.

    An integration keeps only the parts of each entry that it computes
    anyway (see `_integrate`).  The entries and their notes are built the
    first time `derivation` is read and kept, so a caller that never
    reads the trail, such as `compare`, never builds it.  A result built
    from a given trail holds that tuple."""

    __slots__ = ("value", "bad_primes", "_trail")

    def __init__(self, value, bad_primes, derivation=()):
        self.value = value
        self.bad_primes = bad_primes
        self._trail = derivation if isinstance(derivation, _Parts) \
            else tuple(derivation)

    @property
    def derivation(self):
        if isinstance(self._trail, _Parts):
            self._trail = self._trail.entries()
        return self._trail

    def as_syma(self):
        return self.value.as_syma()


class _Parts:
    """What a trail is built from: the parameters of the integration and,
    per cell, (cell id, class, domain, summed, detail).  A 1-cell's summed
    is its sum, class factors included, and its detail the (text, size)
    of each collapsed class factor; a 0-cell has summed None and its
    counting term psi as detail."""

    __slots__ = ("params", "cells")

    def __init__(self, params, cells):
        self.params = params
        self.cells = cells

    def entries(self):
        out = []
        for cell_id, cls, domain, summed, detail in self.cells:
            if summed is None:
                out.append((cell_id, ConstructibleFn.zero(self.params),
                            "measure zero; counting term %s recorded only"
                            % SymSum((detail,)).render()))
                continue
            note = "; ".join("class factor [%s] collapsed to %s"
                             % (text, size.render()) for text, size in detail)
            out.append((cell_id, ConstructibleFn(((cls, domain, summed),),
                                                 self.params), note))
        return tuple(out)


# ---------------------------------------------------------------------------
# class-size collapse (conjunctions of linear disequalities)


def _linear_residue_parts(node):
    """node as ({var: int coeff}, int const), or None if not linear."""
    if isinstance(node, RfConst):
        return {}, node.value
    if isinstance(node, RfVar):
        return {node.name: 1}, 0
    if isinstance(node, RfNeg):
        r = _linear_residue_parts(node.operand)
        if r is None:
            return None
        return {v: -c for v, c in r[0].items()}, -r[1]
    if isinstance(node, (RfAdd, RfSub)):
        a = _linear_residue_parts(node.left)
        b = _linear_residue_parts(node.right)
        if a is None or b is None:
            return None
        sign = 1 if isinstance(node, RfAdd) else -1
        coeffs = dict(a[0])
        for v, c in b[0].items():
            coeffs[v] = coeffs.get(v, 0) + sign * c
        return coeffs, a[1] + sign * b[1]
    if isinstance(node, RfMul):
        for const, other in ((node.left, node.right),
                             (node.right, node.left)):
            if isinstance(const, RfConst):
                r = _linear_residue_parts(other)
                if r is None:
                    return None
                return ({v: c * const.value for v, c in r[0].items()},
                        r[1] * const.value)
        return None
    return None


def _split_components(phi):
    """Conjuncts of phi grouped into connected components by shared free
    variables; parts that share nothing can be sized independently."""
    groups = []
    for c in conjuncts(phi.expr):
        vs = set(free_vars(c))
        if not vs:
            groups.append([vs, [c]])
            continue
        hit = [g for g in groups if g[0] & vs]
        if hit:
            first = hit[0]
            for g in hit[1:]:
                first[0] |= g[0]
                first[1].extend(g[1])
                groups.remove(g)
            first[0] |= vs
            first[1].append(c)
        else:
            groups.append([vs, [c]])
    return groups


def _class_factor(phi, reserved):
    """The syntax of an exact class size, for a conjunction of linear
    disequalities over non-parameter residue variables: each variable
    contributes L minus its number of excluded residues.  Returns (counts,
    pairs), or None when the class has to stay a formula.  counts holds
    the number of excluded residues of each free variable in order, or is
    None when a conjunct is false; pairs lists, in the order they are to
    be factored, the (integer, reason) pairs whose primes are where the
    excluded residues degenerate."""
    names = [n for n, _ in phi.free]
    if any(n in reserved for n in names):
        return None
    if any(s is not Sort.RF for _, s in phi.free):
        return None
    excluded = {n: set() for n in names}
    pairs = []
    for conj in conjuncts(phi.expr):
        if not isinstance(conj, RfNe):
            return None
        left = _linear_residue_parts(conj.left)
        right = _linear_residue_parts(conj.right)
        if left is None or right is None:
            return None
        coeffs = dict(left[0])
        for v, c in right[0].items():
            coeffs[v] = coeffs.get(v, 0) - c
        coeffs = {v: c for v, c in coeffs.items() if c}
        const = left[1] - right[1]
        if not coeffs:
            if const == 0:
                return None, tuple(pairs)
            continue
        if len(coeffs) != 1:
            return None
        (v, c), = coeffs.items()
        value = Fraction(-const, c)
        if abs(c) != 1:
            pairs.append((c, "coefficient %d on %s is not invertible"
                          % (c, v)))
        if value.denominator != 1:
            pairs.append((value.denominator,
                          "excluded residue %s is not integral" % value))
        excluded[v].add(value)
    for v in names:
        vals = sorted(excluded[v])
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                pairs.append(((vals[j] - vals[i]).numerator,
                              "residues %s and %s of %s collide"
                              % (vals[i], vals[j], v)))
    return tuple(len(excluded[v]) for v in names), tuple(pairs)


# ---------------------------------------------------------------------------
# signature disjointness


def _alpha_interval(cell):
    """The range of alpha over the cell's value-group variables, as a pair
    of AffineForms over the parameters (None for an open end), or None when
    it cannot be read off."""
    alpha = cell.alpha
    zvars = {r.name: r for r in cell.z_domain.ranges}
    inside = [v for v in alpha.variables() if v in zvars]
    if not inside:
        return alpha, alpha
    if len(inside) > 1:
        return None
    v = inside[0]
    c = alpha.coeff(v)
    rest = alpha.drop(v)
    rng = zvars[v]

    def compose(bound):
        if bound is None:
            return None
        out = rest + bound.scale(c)
        if out.variables() & set(zvars):
            return None
        return out

    lo, up = compose(rng.lower), compose(rng.upper)
    if c > 0:
        return lo, up
    return up, lo


def _provably_disjoint(i1, i2):
    if i1 is None or i2 is None:
        return False

    def separated(hi, lo):
        if hi is None or lo is None:
            return False
        d = lo - hi
        return d.is_constant() and d.const >= 1

    return separated(i1[1], i2[0]) or separated(i2[1], i1[0])


def _complementary(f1, f2):
    if f1 is None or f2 is None:
        return False
    a = set(conjuncts(f1.expr))
    b = set(conjuncts(f2.expr))
    for x in a:
        if Not(x) in b:
            return True
        if isinstance(x, Not) and x.operand in b:
            return True
        if isinstance(x, RfEq) and RfNe(x.left, x.right) in b:
            return True
        if isinstance(x, RfNe) and RfEq(x.left, x.right) in b:
            return True
    for y in b:
        if isinstance(y, Not) and y.operand in a:
            return True
    return False


def _check_disjoint(cells):
    """Signature-level disjointness per shared center: same-center 1-cells
    must have provably separated alpha ranges or contradictory residue
    classes.  Cells with different centers are trusted."""
    by_center = {}
    points = {}
    for cell in cells:
        if cell.kind == ZERO_CELL:
            if cell.center_text in points:
                raise OverlapDetected(
                    "0-cells %s and %s share the center %s"
                    % (points[cell.center_text], cell.cell_id,
                       cell.center_text))
            points[cell.center_text] = cell.cell_id
            continue
        by_center.setdefault(cell.center_text, []).append(cell)
    for center, group in by_center.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                if _provably_disjoint(_alpha_interval(a),
                                      _alpha_interval(b)):
                    continue
                if _complementary(a.class_formula, b.class_formula):
                    continue
                raise OverlapDetected(
                    "cells %s and %s share center %s with overlapping "
                    "(alpha, xi) signatures" % (a.cell_id, b.cell_id,
                                                center))


# ---------------------------------------------------------------------------
# integration


def _note(bad, prime, reason):
    reasons = bad.setdefault(int(prime), [])
    if reason not in reasons:
        reasons.append(reason)


def _freeze_bad(bad):
    return {p: tuple(bad[p]) for p in sorted(bad)}


def _has_nonconstant(node):
    return any(isinstance(n, (VfVar, VfUnif, RfVar)) for n in walk(node))


@functools.lru_cache(maxsize=CONSTANTS_MEMO)
def _constants(node):
    """What the symbolic treatment of node divides by, in the order of a
    walk: ("denominator", c) for each coefficient c that is not an
    integer, and ("coefficient", c) for each integer coefficient |c| > 1
    of a product whose other factor is not constant.  Kept per tree, so
    a warm request walks none; the factoring, which the budget charges,
    runs on every request."""
    out = []
    for n in walk(node):
        if isinstance(n, VfConst) and n.value.denominator != 1:
            out.append(("denominator", n.value))
        elif isinstance(n, (VfMul, RfMul)):
            for side, other in ((n.left, n.right), (n.right, n.left)):
                c = None
                if isinstance(side, VfConst) and side.value.denominator == 1:
                    c = int(side.value)
                elif isinstance(side, RfConst):
                    c = side.value
                if c is not None and abs(c) > 1 and _has_nonconstant(other):
                    out.append(("coefficient", c))
    return tuple(out)


def bad_primes(phi, budget=None):
    """Primes the symbolic treatment of phi excludes, with reasons.

    Collected from coefficient denominators and from multiplicative
    integer coefficients (normalizing them divides by the coefficient).
    Returns {prime: (reason, ...)} sorted by prime.
    """
    bad = {}
    for kind, c in _constants(phi.expr):
        if kind == "denominator":
            value, reason = c.denominator, "denominator of coefficient %s" % c
        else:
            value, reason = c, "coefficient %d not invertible" % c
        for p in factor(value, budget):
            _note(bad, p, reason)
    return _freeze_bad(bad)


def _center_notes(cell, bad, budget):
    if cell.center_term is None:
        return
    for kind, c in _constants(cell.center_term):
        if kind == "denominator":
            for p in factor(c.denominator, budget):
                _note(bad, p, "center %s is not integral" % cell.center_text)


def _check_room(cell):
    """Refuse a summation range of the 1-cell with a symbolic bound unless
    lower <= upper + 1 wherever the cell's parameters and outer variables
    lie in their ranges, since telescoping sums it right only there.  The
    least value of upper + 1 - lower takes each variable at its numeric
    lower bound where its coefficient is positive, at its upper one where
    negative."""
    ranges = {r.name: r for r in cell.param_domain.ranges}
    for r in cell.z_domain.ranges:
        if r.lower is not None and r.upper is not None and not (
                r.lower.is_constant() and r.upper.is_constant()):
            room = r.upper + 1 - r.lower
            least = room.const
            for name, c in room.coeffs:
                outer = ranges.get(name)
                bound = None if outer is None \
                    else outer.lower if c > 0 else outer.upper
                if bound is None or not bound.is_constant():
                    least = None
                    break
                least += c * bound.const
            if least is None or least < 0:
                raise UnsupportedFeature(
                    "cell %s: cannot show lower <= upper + 1 on the range %s"
                    % (cell.cell_id, _render_range(r)))
        ranges[r.name] = r


def _plan_cells(cells, reserved):
    """The syntax work of integrating a family of cells, given the names
    of its parameters: the disjointness, room and 0-cell checks, and per
    cell (cell, summand, class, factors).  A 0-cell has no summand.  A
    1-cell sums psi * L^(-alpha - 1); its class is what stays a formula;
    and factors holds (text, counts, pairs) for each component that
    collapses to its size (see `_class_factor`).  No value is built, and
    nothing is factored."""
    _check_disjoint(cells)
    out = []
    for cell in cells:
        if cell.kind == ZERO_CELL:
            if cell.center_term is None or _vf_degree(cell.center_term) > 1:
                raise UnsupportedZeroCell(
                    "cell %s: only affine centers are supported, got %s"
                    % (cell.cell_id, cell.center_text))
            out.append((cell, None, None, ()))
            continue
        _check_room(cell)
        psi = cell.psi
        summand = PresTerm(psi.coefficient, psi.exponent - cell.alpha - 1)
        cls = cell.class_formula
        factors = []
        if cls is not None:
            kept = []
            for _, nodes in _split_components(cls):
                sub = Formula(_fold_and(nodes))
                found = _class_factor(sub, reserved)
                if found is None:
                    kept.extend(nodes)
                else:
                    factors.append((pretty_print(sub),) + found)
            if factors:
                cls = Formula(_fold_and(kept)) if kept else None
        out.append((cell, summand, cls, tuple(factors)))
    return tuple(out)


# a family's plan, kept per family and names of parameters; a family that
# fails a check raises on every call, since a memo keeps no exception
_plan = functools.lru_cache(maxsize=PLAN_MEMO)(_plan_cells)


def integrate_cells(cells, params=(), budget=None):
    """Integrate the coefficients over a disjoint family of cells.

    Every 1-cell contributes its residue class tensored with the
    exact sum of psi * L^(-alpha - 1) over its value-group variables;
    parameter-free classes cut out by linear disequalities collapse to
    their ring cardinality.  0-cells contribute nothing to the value; their
    counting terms go to the derivation log, and non-affine centers are
    rejected.  The checks and the class syntax come from the family's
    plan; the sums, the class sizes and the factoring of every excluded
    prime run on each call."""
    return _integrate(_plan(tuple(cells), frozenset(n for n, _ in params)),
                      params, budget)


def _integrate(plan, params, budget):
    """The value, excluded primes and derivation of a planned family.

    Each cell keeps the parts of its derivation entry that the value
    needs anyway: its id, its class and domain, its sum with the class
    factors multiplied in and each factor's size, or for a 0-cell its
    counting term.  The value's terms are merged from them in one
    `ConstructibleFn`; the entries are built only when read."""
    bad = {}
    parts = []
    terms = []

    for cell, summand, cls, factors in plan:
        _center_notes(cell, bad, budget)
        if cell.class_formula is not None:
            for p, reasons in bad_primes(cell.class_formula,
                                         budget).items():
                for r in reasons:
                    _note(bad, p, r)

        if summand is None:
            parts.append((cell.cell_id, None, None, None, cell.psi))
            continue
        summed = pres_sum(cell.z_domain, summand)
        sizes = []
        for text, counts, pairs in factors:
            for n, reason in pairs:
                for p in factor(n, budget):
                    _note(bad, p, reason)
            size = ZERO
            if counts is not None:
                size = ONE
                for count in counts:
                    size = size * (L - SymA.from_int(count))
            summed = summed * size
            sizes.append((text, size))
        terms.append((cls, cell.param_domain, summed))
        parts.append((cell.cell_id, cls, cell.param_domain, summed,
                      tuple(sizes)))

    return IntegrationResult(ConstructibleFn(terms, params), _freeze_bad(bad),
                             _Parts(params, tuple(parts)))


def integrate_cell_data(data, budget=None):
    """Integrate a loaded cell-data file, folding in its declared excluded
    primes."""
    result = integrate_cells(data.cells, params=data.parameters,
                             budget=budget)
    bad = {p: list(rs) for p, rs in result.bad_primes.items()}
    for p, reasons in data.bad_primes.items():
        for r in reasons:
            _note(bad, p, r)
    return IntegrationResult(result.value, _freeze_bad(bad), result._trail)


def integrate_linear_product(centers, multiplicities, exponent=1,
                             budget=None):
    """Integral of prod_j |t - c_j|^(e*m_j) over the valuation ring.

    The decomposition is built automatically: one cell for the residues
    away from every center, one shell family around each center, and the
    centers themselves as 0-cells.  Primes where the centers collide or
    fail to be integral are excluded and recorded.

    The shell sum around a center of multiplicity m has the ring index
    1 + e*m, the length of a coefficient list the ring builds.  An index
    past the default budget raises BudgetExceeded before any cell is
    built, whatever `budget` says (see `dpcalc.budget.check_index`)."""
    centers = tuple(Fraction(c) for c in centers)
    mults = tuple(as_integer(m, "multiplicity") for m in multiplicities)
    e = as_integer(exponent, "exponent")
    if len(mults) != len(centers):
        raise InvalidArgument("need one multiplicity per center")
    if any(m < 1 for m in mults):
        raise InvalidArgument("multiplicities must be >= 1")
    if e < 1:
        raise InvalidArgument("the exponent must be >= 1")
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if centers[i] == centers[j]:
                raise DuplicateCenter("centers %s and %s coincide"
                                      % (centers[i], centers[j]))
    index = 1 + e * max(mults, default=0)
    check_index(index, "the ring index %d of a shell sum" % index)
    return _integrate(_linear_plan(centers, mults, e), (), budget)


@functools.lru_cache(maxsize=LINEAR_MEMO)
def _linear_plan(centers, mults, e):
    """The plan of a linear product's cells, built once per product and
    kept under the product, so that a fresh product hashes no cell."""
    return _plan_cells(_linear_cells(centers, mults, e), frozenset())


def _linear_cells(centers, mults, e):
    """The cells of prod_j |t - c_j|^(e*m_j)."""
    u, g = "u", "g"
    one_term = PresTerm(ONE, AffineForm.constant(0))
    cells = []
    if not centers:
        cells.append(Cell(kind=ONE_CELL, cell_id="everything",
                          center_text="0", center_term=VfConst(Fraction(0)),
                          class_formula=Formula(RfNe(RfVar(u), RfConst(0))),
                          z_domain=PresDomain.single(g, lower=0),
                          alpha=AffineForm.var(g), xi_text=u, psi=one_term))
        cells.append(Cell(kind=ZERO_CELL, cell_id="origin", center_text="0",
                          center_term=VfConst(Fraction(0)), psi=one_term))
    else:
        anchor = centers[0]
        atoms = [RfNe(RfVar(u), RfConst(0))]
        for cj in centers[1:]:
            d = cj - anchor
            scaled = RfVar(u) if d.denominator == 1 else \
                RfMul(RfConst(d.denominator), RfVar(u))
            atoms.append(RfNe(scaled, RfConst(d.numerator)))
        cells.append(Cell(kind=ONE_CELL, cell_id="away_from_centers",
                          center_text=str(anchor),
                          center_term=VfConst(anchor),
                          class_formula=Formula(_fold_and(atoms)),
                          alpha=AffineForm.constant(0), xi_text=u,
                          psi=one_term))
        for j, (cj, mj) in enumerate(zip(centers, mults)):
            shell_psi = PresTerm(ONE, AffineForm.var(g).scale(-e * mj))
            cells.append(Cell(kind=ONE_CELL, cell_id="near_center_%d" % j,
                              center_text=str(cj), center_term=VfConst(cj),
                              class_formula=Formula(
                                  RfNe(RfVar(u), RfConst(0))),
                              z_domain=PresDomain.single(g, lower=1),
                              alpha=AffineForm.var(g), xi_text=u,
                              psi=shell_psi))
            cells.append(Cell(kind=ZERO_CELL, cell_id="point_%d" % j,
                              center_text=str(cj), center_term=VfConst(cj),
                              psi=PresTerm(ZERO, AffineForm.constant(0))))
    return tuple(cells)


# ---------------------------------------------------------------------------
# specialization


def specialize(value, q, assignment=None, budget=None):
    """Evaluate a constructible function (or a whole IntegrationResult) at
    residue characteristic q under a parameter assignment.

    Residue-sort parameters take integer representatives; value-group
    parameters take integers.  Classes become point counts over F_q and
    ring coefficients evaluate at L = q, every term summed into one
    integer fraction.  The point counts are held to `budget` (see
    `dpcalc.budget`)."""
    if isinstance(value, IntegrationResult):
        if int(q) in value.bad_primes:
            raise BadPrime("%d is excluded: %s"
                           % (q, "; ".join(value.bad_primes[int(q)])))
        fn = value.value
    else:
        fn = value
    if not is_prime(q):
        raise InvalidPrime("%r is not a rational prime" % (q,))
    assignment = dict(assignment or {})
    missing = [n for n, _ in fn.params if n not in assignment]
    if missing:
        raise UnboundParameter("no value for parameter(s) %s"
                               % sorted(missing))
    rf_values = {n: as_integer(assignment[n], n)
                 for n, s in fn.params if s is Sort.RF}
    zz_env = {n: as_integer(assignment[n], n)
              for n, s in fn.params if s is Sort.ZZ}

    top, bottom = 0, 1
    for t in fn.terms:
        if not t.domain.admits(zz_env):
            raise _outside(zz_env, t.domain)
        count = 1
        if t.rf_class is not None:
            count = count_rf_points(t.rf_class, int(q), budget=budget,
                                    values=rf_values)
        n, d = t.coeff.nu_parts(q, zz_env)
        top, bottom = top * d + count * n * bottom, bottom * d
    return Fraction(top, bottom)


# ---------------------------------------------------------------------------
# partial parameter binding and congruence-case evaluation


def _outside(env, domain):
    """The refusal of an integer assignment outside a term's residual
    domain: the function is only represented there."""
    return InvalidArgument(
        "assignment %s leaves the residual domain %s"
        % (env, ", ".join(_render_range(r) for r in domain.ranges)))


def bind_parameters(value, assignment):
    """Substitute integers for value-group parameters, keeping everything
    else symbolic.  Residue-sort parameters stay free.  Accepts and returns
    either a ConstructibleFn or a whole IntegrationResult; of a result only
    the value is bound, and its derivation, the audit trail of what each
    cell gave, is kept as integrated.

    An assignment outside some term's residual domain is an error, exactly
    as in specialize: the function is only represented there.  A result's
    derivation entries are checked so too, after its value.  An assignment
    that names no value-group parameter returns value itself."""
    if isinstance(value, IntegrationResult):
        bound = bind_parameters(value.value, assignment)
        if bound is value.value:
            return value
        for _, fn, _ in value.derivation:
            _bound_domains(fn, assignment)
        return IntegrationResult(bound, value.bad_primes, value.derivation)
    if not any(s is Sort.ZZ and n in assignment for n, s in value.params):
        return value
    env, domains = _bound_domains(value, assignment)
    params = tuple((n, s) for n, s in value.params if n not in env)
    return ConstructibleFn(
        [(t.rf_class, dom, t.coeff.substitute(env))
         for t, dom in zip(value.terms, domains)], params)


def _bound_domains(fn, assignment):
    """The integers `assignment` gives fn's value-group parameters, and
    each term's residual domain under them; an assignment outside one
    raises."""
    env = {n: as_integer(assignment[n], n) for n, s in fn.params
           if s is Sort.ZZ and n in assignment}
    domains = []
    for t in fn.terms:
        dom = t.domain.bind(env)
        if dom is None:
            raise _outside(env, t.domain)
        domains.append(dom)
    return env, domains


def residue_cases(value, modulus, rf_witness, zz_assignment=None,
                  fitted=None, exceptions=None):
    """Evaluate a constructible function as an exact ring element on each
    invertible congruence class of q mod `modulus`.

    rf_witness binds each residue-sort parameter to an integer that lands
    in the intended class at every prime (1 for "a nonzero cube").
    Value-group parameters must all be bound by zz_assignment.

    A class in the binomial fragment (see `_binomial_atoms`) is counted
    exactly, as a polynomial in q on each congruence class.  Any other
    class is fitted: its counts at witness primes of the congruence class
    are interpolated as a polynomial in L, and the fit is confirmed on
    RESIDUE_FIT_CHECKS further witnesses (a mismatch raises
    UnsupportedFeature).  Point counts of residue classes are not
    polynomial in q in general, so a fit is trusted, not proved: when
    `fitted` is a dict, each fitted class's text is entered in it, mapped
    to the witness primes of its fits in increasing order.  A fit is also
    counted at each prime of its class below the first witness (2 and 3,
    unless excluded).  Where such a count differs from the fit, the
    prime's value is counted exactly, every term at that prime, and
    entered in `exceptions` (when a dict) under the prime; the class's
    value then holds at its other primes.

    Returns [(residue, SymA)] sorted by residue.
    """
    fn = value.value if isinstance(value, IntegrationResult) else value
    bad = value.bad_primes if isinstance(value, IntegrationResult) else {}
    fn = bind_parameters(fn, zz_assignment or {})
    still_zz = [n for n, s in fn.params if s is Sort.ZZ]
    if still_zz:
        raise UnboundParameter("no value for parameter(s) %s"
                               % sorted(still_zz))
    rf_env = {}
    for n, s in fn.params:
        if s is Sort.RF:
            if n not in rf_witness:
                raise UnboundParameter("no witness for parameter %r" % n)
            rf_env[n] = as_integer(rf_witness[n], n)

    residues = [r for r in range(1, modulus) if gcd(r, modulus) == 1]
    totals = dict.fromkeys(residues, ZERO)
    off = set()
    for t in fn.terms:
        coeff = t.coeff.as_syma()
        if t.rf_class is None:
            for residue in residues:
                totals[residue] = totals[residue] + coeff
            continue
        atoms = _binomial_atoms(t.rf_class, rf_env)
        for residue in residues:
            count = None
            if atoms is not None:
                count = _binomial_count(atoms, residue, modulus, bad)
            if count is None:
                count, primes = _fit_count(t.rf_class, rf_env, residue,
                                           modulus, bad)
                if fitted is not None:
                    fitted.setdefault(pretty_print(t.rf_class),
                                      []).extend(primes)
                off.update(_off_fit(t.rf_class, rf_env, count, residue,
                                    modulus, bad))
            totals[residue] = totals[residue] + \
                SymA(dict(enumerate(count))) * coeff
    if fitted is not None:
        for primes in fitted.values():
            primes.sort()
    if exceptions is not None:
        for q in sorted(off):
            exceptions[q] = _case_at(fn, q, rf_env)
    return sorted(totals.items())


def _off_fit(phi, rf_env, fit, residue, modulus, bad):
    """The primes q = residue (mod modulus) below the first witness, bad
    ones aside, where phi's point count is not the fit's value."""
    return [q for q in range(2, FIRST_WITNESS)
            if q % modulus == residue and q not in bad and is_prime(q)
            and count_rf_points(phi, q, values=rf_env) != evaluate(fit, q)]


def _case_at(fn, q, rf_env):
    """fn's value at the one prime q, a ring value: each class counted at
    q."""
    total = ZERO
    for t in fn.terms:
        count = 1 if t.rf_class is None else count_rf_points(
            t.rf_class, q, values=rf_env)
        total = total + t.coeff.as_syma() * count
    return total


def _fit_count(phi, rf_env, residue, modulus, bad):
    """The point count of phi on the primes q = residue (mod modulus) as
    the polynomial in q that its counts at witness primes fit, and those
    primes."""
    degree = len([n for n, _ in phi.free if n not in rf_env])
    primes = _case_witnesses(residue, modulus, bad,
                             degree + 1 + RESIDUE_FIT_CHECKS)
    counts = [count_rf_points(phi, q, values=rf_env) for q in primes]
    fit = interpolate(list(zip(primes, counts))[:degree + 1])
    for q, c in zip(primes, counts):
        if evaluate(fit, q) != c:
            raise UnsupportedFeature(
                "the point count of [%s] is not polynomial over q = %d "
                "mod %d" % (pretty_print(phi), residue, modulus))
    return fit, primes


def _case_witnesses(residue, modulus, avoid, need):
    out = []
    n = FIRST_WITNESS
    while len(out) < need:
        if is_prime(n) and n % modulus == residue and n not in avoid:
            out.append(n)
        n += 1
    return out


def _binomial_atoms(phi, rf_env):
    """phi's conjuncts as {x: [(n, level, equal)]}, each the atom
    x^n == level (or != level when equal is False), n >= 1, for every
    free variable x that rf_env does not bind; a variable without an atom
    maps to []. False when a closed conjunct is false at every q, and None
    when some conjunct lies outside the binomial fragment.

    A level is 0 or 1: a constant, or a residue parameter whose witness is
    one of them, the same residue at every q.  The fragment is the
    one-variable atoms x^n ==/!= level, in either orientation, and the
    closed atoms that no q decides differently: level ==/!= level, and
    `exists w. w^n == level` (true, with w = level) and its negation.
    This reads syntax only."""
    atoms = {n: [] for n, _ in phi.free if n not in rf_env}
    for c in conjuncts(phi.expr):
        negated = isinstance(c, Not)
        if negated:
            c = c.operand
        if isinstance(c, Exists):
            atom = None if c.var in rf_env else _binomial_atom(c.body,
                                                               rf_env)
            if atom is None or atom[0] != c.var or not atom[3]:
                return None
            if negated:
                return False
            continue
        if negated or not isinstance(c, (RfEq, RfNe)):
            return None
        left, right = _level(c.left, rf_env), _level(c.right, rf_env)
        if left is not None and right is not None:
            if (left == right) != isinstance(c, RfEq):
                return False
            continue
        atom = _binomial_atom(c, rf_env)
        if atom is None:
            return None
        atoms[atom[0]].append(atom[1:])
    return atoms


def _binomial_atom(node, rf_env):
    """(x, n, level, equal) when node is x^n == level or x^n != level, in
    either orientation, for a variable x that rf_env does not bind."""
    if not isinstance(node, (RfEq, RfNe)):
        return None
    for power, other in ((node.left, node.right), (node.right, node.left)):
        n = 1
        if isinstance(power, RfPow):
            power, n = power.base, power.exponent
        level = _level(other, rf_env)
        if isinstance(power, RfVar) and power.name not in rf_env \
                and n >= 1 and level is not None:
            return power.name, n, level, isinstance(node, RfEq)
    return None


def _level(node, rf_env):
    """0 or 1 when node is that constant or a parameter witnessed by it."""
    if isinstance(node, RfConst):
        value = node.value
    elif isinstance(node, RfVar) and node.name in rf_env:
        value = rf_env[node.name]
    else:
        return None
    return value if value in (0, 1) else None


def _binomial_count(atoms, residue, modulus, bad):
    """The point count of a class that `_binomial_atoms` read, as a
    polynomial in q on the primes q = residue (mod modulus), or None where
    some gcd(k, q - 1) it needs is not one number there.

    The count is a product over the variables.  For one variable x, the
    point 0 meets x^n == 0 and x^n != 1 only.  The units meet no atom
    x^n == 0, and the others cut a group out of F_q^*, which is cyclic of
    order q - 1: its elements with x^a == 1 for each root atom form the
    group of order d = gcd(a, q - 1), a the gcd of those n (d = q - 1
    when there is none).  From it each atom x^n != 1 takes away the
    group of order gcd(n, d), and their union has totient(e) elements of
    each order e that divides one of those orders."""
    if atoms is False:
        return []
    out = [1]
    for found in atoms.values():
        zero = int(all((level == 0) == equal for _, level, equal in found))
        roots = [n for n, level, equal in found if level and equal]
        avoid = [n for n, level, equal in found if level and not equal]
        if any(not level and equal for _, level, equal in found):
            units = [0]
        elif roots:
            d = _gcd_on_class(gcd(*roots), residue, modulus, bad)
            if d is None:
                return None
            units = [d - _union_order([gcd(n, d) for n in avoid])]
        else:
            orders = [_gcd_on_class(n, residue, modulus, bad) for n in avoid]
            if None in orders:
                return None
            units = [-1 - _union_order(orders), 1]
        out = poly_mul(out, poly_add(units, [zero]))
    return out


def _union_order(orders):
    """The size of the union of the subgroups of those orders in a cyclic
    group: totient(e) for each e that divides one of them."""
    return sum(map(totient, set().union(*map(divisors, orders))))


def _gcd_on_class(k, residue, modulus, bad):
    """gcd(k, q - 1) when it is one number at every prime q = residue
    (mod modulus) that bad does not exclude, else None.

    It depends on q mod k alone.  By Dirichlet's theorem the primes of the
    class meet every unit mod lcm(k, modulus) that is residue mod modulus,
    and the only other primes of the class divide k.  Those units are
    k / gcd(k, modulus) classes, charged to the one budget."""
    step = k // gcd(k, modulus)
    check_budget(step, 1, None, "the %d classes of q mod %d"
                 % (step, step * modulus))
    seen = {gcd(k, u - 1)
            for u in range(residue, residue + step * modulus, modulus)
            if gcd(u, k) == 1}
    seen.update(gcd(k, p - 1) for p in divisors(k)
                if p % modulus == residue and p not in bad and is_prime(p))
    return seen.pop() if len(seen) == 1 else None


# ---------------------------------------------------------------------------
# the split-torus volume worked end to end


def nonsquares(q):
    """The non-squares mod an odd prime q, smallest first and lazily, so
    a q over the point-count budget stops at its first count."""
    return (n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)


def appendix2_steps():
    """The symbolic volume of the quadratic-twist locus in SL2 of the
    valuation ring, assembled step by step with exact ring bookkeeping.

    The plane splits into the cone t^2 = s^2, the locus where t^2 - s^2 is
    a nonzero square, and the locus where it is a nonsquare; the nonsquare
    locus times a free unit scale gives the unit-determinant slice, which
    is halved by the nonzero-square-test fibre, spread over the nonsquare
    twists, and completed by the positive-valuation branch."""
    half = Fraction(1, 2)
    cone = 2 * (L - ONE) + ONE
    nonzero_square = (L - ONE) * (L - ONE) * half
    nonsquare = L * L - nonzero_square - cone
    anisotropic_slice = nonsquare * (L - ONE)
    unit_b_half_fibre = L * anisotropic_slice * half
    unit_b_per_eta = (unit_b_half_fibre * 2).div_by_unit(L - ONE)
    positive_b_part = L * (L - ONE)
    total = unit_b_per_eta + positive_b_part
    return {
        "cone": cone,
        "nonzero_square_locus": nonzero_square,
        "nonsquare_locus": nonsquare,
        "anisotropic_slice": anisotropic_slice,
        "unit_b_half_fibre": unit_b_half_fibre,
        "unit_b_per_eta": unit_b_per_eta,
        "positive_b_part": positive_b_part,
        "total": total,
    }


def appendix2_symbolic():
    """The volume as an exact ring element: (1/2) L (L-1) (L+1)."""
    return appendix2_steps()["total"]


def appendix2_volume(eta_mode, q, eta=None, variant="b2_minus_d2",
                     budget=None):
    """The same volume numerically, by counting over F_q at level zero.

    eta_mode 'per_eta' counts {ad - bc = 1 and b^2 - d^2*eta a square} for
    one non-square integer eta (the smallest when not given) and divides
    by q^3;
    'summed_over_nonsquares' lets eta range over all non-squares.  variant
    'd2_minus_b2' tests d^2 - b^2*eta for a nonzero square instead; the
    two variants agree (the quadratic form is anisotropic either way)."""
    q = int(q)
    if not is_prime(q) or q < 5:
        raise InvalidPrime("need an odd prime >= 5, got %r" % (q,))
    if variant == "b2_minus_d2":
        tmpl = "(exists s:rf. b^2 - d^2*%s == s^2)"
    elif variant == "d2_minus_b2":
        tmpl = "(exists s:rf. s != 0 && d^2 - b^2*%s == s^2)"
    else:
        raise ValueError("unknown variant %r" % (variant,))

    if eta_mode == "per_eta":
        if eta is None:
            eta = next(nonsquares(q))
        eta = as_integer(eta, "eta") % q
        if eta == 0 or pow(eta, (q - 1) // 2, q) != q - 1:
            raise ValueError("%d is not a non-square mod %d" % (eta, q))
        text = ("rf a, b, c, d, eta; a*d - b*c == 1 && " + tmpl % "eta")
    elif eta_mode == "summed_over_nonsquares":
        text = ("rf a, b, c, d, h; a*d - b*c == 1 && "
                "!(exists r:rf. h == r^2) && " + tmpl % "h")
    else:
        raise ValueError("unknown eta_mode %r" % (eta_mode,))

    count = count_rf_points(parse(text, default_sort=Sort.RF), q,
                            budget=budget, values={"eta": eta})
    return Fraction(count, q ** 3)
