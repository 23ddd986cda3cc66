"""Concrete syntax.

    formula := decls expr
    decls   := (('vf'|'rf'|'zz') ident (',' ident)* ';')*
    expr    := expr '||' expr | expr '&&' expr | '!' expr
             | ('exists'|'forall') ident ':' sort '.' expr
             | term cmp term | '(' expr ')'
    cmp     := '==' | '!=' | '<=' | '<' | '>=' | '>' | '==' ... 'mod' nat
    term    := sums/products/powers over idents, integers, 't' (uniformizer),
               'inf', 'ord(term)', 'ac(term)'
    power   := atom '^' (nat | '(' term ')')

A parenthesized exponent is a value-group term that folds to an integer
n >= 0; its names must be bound by `parse_term`'s values, which also read
those names as integer constants in the term itself.

A quantifier's body extends as far right as possible.  'forall' is rewritten
to !exists! while parsing.  '>' and '>=' are sugar for the flipped '<'/'<='.
Variables may be declared up front or have their sort inferred from use;
inference failures raise SortError at the offending position.  '#' comments
run to end of line.

Quantifiers range over the residue field, so `Exists` keeps no sort.  A
quantifier may not reuse the name of an enclosing quantifier or of a free
variable, wherever that is declared or used.  Once the whole text has
parsed, and so after any syntax or sort error, a quantifier whose name is
free raises ParseError, and then a field or value-group quantifier
raises UnsupportedFeature: cell decomposition
eliminates the first (Pas, J. reine angew. Math. 399, 1989), and
congruences express the second (Cooper, Machine Intelligence 7, 1972).

Past MAX_DEPTH levels of tree, or twice that of nesting in the text
(parentheses, '!', unary '-', quantifiers, ord, ac and '^('), the parser
raises UnsupportedFeature.  The printer spends at most two levels of
nesting on a node, so every parsed tree prints to text that parses.

Parsed trees are shared: `parse` and `parse_term` keep the tree of each
(text, sort, values) key in one bounded LRU memo, so every caller that
reads the same text gets the same object.  That is safe because the trees
are immutable (frozen node dataclasses, and an immutable Formula).  The
memo holds syntax only.  A raised ParseError, SortError or
UnsupportedFeature is never memoized: a bad text is parsed again on every
call and raises the same error, with the same message and position.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from ..errors import ParseError, SortError, UnsupportedFeature
from .nodes import (And, Exists, Formula, Not, Or, RfAc, RfAdd, RfConst,
                    RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar, Sort,
                    VfAdd, VfConst, VfEq, VfMul, VfNeg, VfPow, VfSub,
                    VfUnif, VfVar, ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf,
                    ZzLe, ZzLt, ZzNeg, ZzOrd, ZzScale, ZzSub, ZzVar,
                    Node, children)

# distinct (text, sort, values) keys whose trees are kept
MEMO_SIZE = 256
# the deepest tree the parser builds, a leaf counting one, which keeps
# every recursive walk of a tree far inside the interpreter's limit
MAX_DEPTH = 50

_KEYWORDS = {"vf", "rf", "zz", "exists", "forall", "mod", "inf", "ord",
             "ac", "t"}

_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>&&|\|\||==|!=|<=|>=|[!<>+\-*^().:;,])
""", re.VERBOSE)


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def integer_literal(digits, line=None, column=None):
    """The value of a literal of decimal digits.  One longer than the
    interpreter converts (`sys.get_int_max_str_digits()`, 4,300 by
    default) raises ParseError with its digit count."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("an integer literal of %d digits is too long"
                         % len(digits), line, column) from None


def _lex(src):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ParseError("unexpected character %r" % src[pos], line, col)
        kind = m.lastgroup
        text = m.group(0)
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        elif kind == "int":
            toks.append(_Tok("int", integer_literal(text, line, col), line,
                             col))
            col += len(text)
        elif kind == "ident":
            k = text if text in _KEYWORDS else "ident"
            toks.append(_Tok(k, text, line, col))
            col += len(text)
        else:
            toks.append(_Tok(text, text, line, col))
            col += len(text)
        pos = m.end()
    if not toks:
        raise ParseError("empty input")
    return toks


_CMP_OPS = ("==", "!=", "<=", "<", ">=", ">")

_SORT_KW = {"vf": Sort.VF, "rf": Sort.RF, "zz": Sort.ZZ}


class _Parser:
    def __init__(self, toks, default_sort=None, values=None):
        self.toks = toks
        self.values = values or {}  # name -> int, read as a constant
        self.i = 0
        self.env = {}        # name -> Sort (declared, quantified, inferred)
        self.declared = []   # declaration order
        self.inferred = []   # inference order
        self.quantified = []  # (name token, Sort) of each quantifier
        self.default_sort = default_sort
        self.depth = 0       # the levels open

    # token plumbing

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def at(self, kind, k=0):
        t = self.peek(k)
        return t is not None and t.kind == kind

    def take(self, kind=None):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        if kind is not None and t.kind != kind:
            raise ParseError("expected %r, got %r" % (kind, t.value),
                             t.line, t.col)
        self.i += 1
        return t

    # declarations

    def parse_formula(self):
        while self.peek() is not None and self.peek().kind in _SORT_KW:
            sort = _SORT_KW[self.take().kind]
            while True:
                t = self.take("ident")
                if t.value in self.env:
                    raise ParseError("duplicate declaration of %r" % t.value,
                                     t.line, t.col)
                self.env[t.value] = sort
                self.declared.append(t.value)
                if self.at(","):
                    self.take()
                else:
                    break
            self.take(";")
        expr = self.parse_or()
        self.end()
        _check_depth(expr)
        names = self.declared + self.inferred
        for t, _ in self.quantified:
            if t.value in names:
                raise ParseError("quantifier shadows %r" % t.value,
                                 t.line, t.col)
        for _, sort in self.quantified:
            if sort is not Sort.RF:
                refuse_quantifier(sort)
        return Formula(expr, [(n, self.env[n]) for n in names])

    def end(self):
        t = self.peek()
        if t is not None:
            raise ParseError("trailing input starting at %r" % t.value,
                             t.line, t.col)

    # boolean layer

    def parse_or(self):
        v = self.parse_and()
        while self.at("||"):
            self.take()
            v = Or(v, self.parse_and())
        return v

    def parse_and(self):
        v = self.parse_not()
        while self.at("&&"):
            self.take()
            v = And(v, self.parse_not())
        return v

    def parse_not(self):
        if self.at("!"):
            self.take()
            return Not(nested(self, self.parse_not))
        if self.at("exists") or self.at("forall"):
            return self.parse_quant()
        return self.parse_atom()

    def parse_quant(self):
        kw = self.take()
        name_tok = self.take("ident")
        name = name_tok.value
        if name in self.env:
            raise ParseError("quantifier shadows %r" % name,
                             name_tok.line, name_tok.col)
        self.take(":")
        t = self.peek()
        if t is None or t.kind not in _SORT_KW:
            if t is None:
                raise ParseError("expected a sort after ':'")
            raise ParseError("expected a sort after ':'", t.line, t.col)
        sort = _SORT_KW[self.take().kind]
        self.take(".")
        self.quantified.append((name_tok, sort))
        self.env[name] = sort
        body = nested(self, self.parse_or)
        del self.env[name]
        if kw.kind == "forall":
            return Not(Exists(name, Not(body)))
        return Exists(name, body)

    def parse_atom(self):
        # a parenthesis may open either a subformula or a term; try the
        # relational reading first and fall back when the input starts
        # with '(' (sort errors mean the structure was understood: no retry)
        mark = self.i
        starts_paren = self.at("(")
        try:
            lhs = self.parse_term()
            t = self.peek()
            if t is None or t.kind not in _CMP_OPS:
                raise ParseError("expected a comparison operator"
                                 if t is None else
                                 "expected a comparison operator, got %r"
                                 % t.value,
                                 t.line if t else None,
                                 t.col if t else None)
            return self.parse_relation(lhs)
        except SortError:
            raise
        except ParseError:
            if not starts_paren:
                raise
        self.i = mark
        self.take("(")
        v = nested(self, self.parse_or)
        self.take(")")
        return v

    def parse_relation(self, lhs):
        op_tok = self.take()
        op = op_tok.kind
        rhs = self.parse_term()
        if op in (">=", ">"):
            lhs, rhs = rhs, lhs
            op = "<=" if op == ">=" else "<"
        modulus = None
        if op == "==" and self.at("mod"):
            self.take()
            m = self.take("int")
            if m.value < 1:
                raise ParseError("modulus must be positive", m.line, m.col)
            modulus = m.value
        return self.resolve(lhs, rhs, op, modulus, op_tok)

    # term layer (sort-neutral trees)

    def parse_term(self):
        v = self.parse_tprod()
        while self.at("+") or self.at("-"):
            op = self.take().kind
            w = self.parse_tprod()
            v = ("add", v, w) if op == "+" else ("sub", v, w)
        _check_depth(v)
        return v

    def parse_tprod(self):
        v = self.parse_tunary()
        while self.at("*"):
            self.take()
            v = ("mul", v, self.parse_tunary())
        return v

    def parse_tunary(self):
        if self.at("-"):
            tok = self.take()
            sub = nested(self, self.parse_tunary)
            if sub[0] == "int":
                return ("int", -sub[1], sub[2])
            return ("neg", sub, (tok.line, tok.col))
        return self.parse_tpow()

    def parse_tpow(self):
        base = self.parse_tatom()
        if not self.at("^"):
            return base
        self.take()
        if not self.at("("):
            e = self.take("int")
            return ("pow", base, e.value, (e.line, e.col))
        e = self.take("(")
        n = _fold(nested(self, self.parse_term))
        self.take(")")
        if n is None or n < 0:
            raise ParseError("an exponent must fold to an integer >= 0",
                             e.line, e.col)
        return ("pow", base, n, (e.line, e.col))

    def parse_tatom(self):
        t = self.take()
        pos = (t.line, t.col)
        if t.kind == "int":
            return ("int", t.value, pos)
        if t.kind == "ident":
            if t.value in self.values:
                return ("int", self.values[t.value], pos)
            return ("var", t.value, pos)
        if t.kind == "t":
            return ("t", pos)
        if t.kind == "inf":
            return ("inf", pos)
        if t.kind in ("ord", "ac"):
            self.take("(")
            sub = nested(self, self.parse_term)
            self.take(")")
            return (t.kind, sub, pos)
        if t.kind == "(":
            sub = nested(self, self.parse_term)
            self.take(")")
            return sub
        raise ParseError("expected a term, got %r" % t.value, t.line, t.col)

    # sort resolution

    def possible(self, t):
        tag = t[0]
        if tag == "int":
            return {Sort.VF, Sort.RF, Sort.ZZ}
        if tag == "var":
            s = self.env.get(t[1])
            return {s} if s else {Sort.VF, Sort.RF, Sort.ZZ}
        if tag == "t":
            return {Sort.VF}
        if tag == "inf":
            return {Sort.ZZ}
        if tag == "ord":
            return {Sort.ZZ}
        if tag == "ac":
            return {Sort.RF}
        if tag in ("add", "sub"):
            return self.possible(t[1]) & self.possible(t[2])
        if tag == "neg":
            return self.possible(t[1])
        if tag == "mul":
            a, b = t[1], t[2]
            if a[0] == "int":
                return self.possible(b)
            if b[0] == "int":
                return self.possible(a)
            return (self.possible(a) & self.possible(b)) - {Sort.ZZ}
        if tag == "pow":
            return self.possible(t[1]) - {Sort.ZZ}
        raise AssertionError(tag)

    def resolve(self, lhs, rhs, op, modulus, op_tok):
        allowed = {"==": {Sort.VF, Sort.RF, Sort.ZZ}, "!=": {Sort.RF},
                   "<=": {Sort.ZZ}, "<": {Sort.ZZ}}[op]
        if modulus is not None:
            allowed = {Sort.ZZ}
        cands = allowed & self.possible(lhs) & self.possible(rhs)
        if not cands:
            raise SortError("no sort admits this comparison",
                            op_tok.line, op_tok.col)
        if len(cands) > 1:
            if self.default_sort in cands:
                cands = {self.default_sort}
            elif Sort.ZZ in cands and not (_mentions_var(lhs)
                                           or _mentions_var(rhs)):
                # variable-free and unanchored: read as plain integers
                cands = {Sort.ZZ}
            else:
                raise SortError(
                    "ambiguous comparison (could be %s); declare the "
                    "variables" % "/".join(sorted(s.value for s in cands)),
                    op_tok.line, op_tok.col)
        sort = cands.pop()
        a = self.build(lhs, sort)
        b = self.build(rhs, sort)
        if modulus is not None:
            return ZzCong(a, b, modulus)
        if sort is Sort.VF:
            return VfEq(a, b)
        if sort is Sort.RF:
            return RfEq(a, b) if op == "==" else RfNe(a, b)
        return {"==": ZzEq, "<=": ZzLe, "<": ZzLt}[op](a, b)

    def build(self, t, sort):
        tag = t[0]
        pos = t[-1] if isinstance(t[-1], tuple) else None
        if tag == "var":
            name = t[1]
            have = self.env.get(name)
            if have is None:
                self.env[name] = sort
                self.inferred.append(name)
            elif have is not sort:
                raise SortError(
                    "variable %r has sort %s, used as %s"
                    % (name, have.value, sort.value), t[2][0], t[2][1])
            return {Sort.VF: VfVar, Sort.RF: RfVar, Sort.ZZ: ZzVar}[sort](name)
        if tag == "int":
            if sort is Sort.VF:
                return VfConst(Fraction(t[1]))
            if sort is Sort.RF:
                return RfConst(t[1])
            return ZzConst(t[1])
        if tag == "t":
            return VfUnif()
        if tag == "inf":
            return ZzInf()
        if tag == "ord":
            return ZzOrd(self.build(t[1], Sort.VF))
        if tag == "ac":
            return RfAc(self.build(t[1], Sort.VF))
        if tag in ("add", "sub"):
            a = self.build(t[1], sort)
            b = self.build(t[2], sort)
            table = {"add": {Sort.VF: VfAdd, Sort.RF: RfAdd, Sort.ZZ: ZzAdd},
                     "sub": {Sort.VF: VfSub, Sort.RF: RfSub, Sort.ZZ: ZzSub}}
            return table[tag][sort](a, b)
        if tag == "neg":
            table = {Sort.VF: VfNeg, Sort.RF: RfNeg, Sort.ZZ: ZzNeg}
            return table[sort](self.build(t[1], sort))
        if tag == "mul":
            a, b = t[1], t[2]
            if sort is Sort.ZZ:
                if a[0] == "int":
                    return ZzScale(a[1], self.build(b, Sort.ZZ))
                if b[0] == "int":
                    return ZzScale(b[1], self.build(a, Sort.ZZ))
                raise SortError("value-group terms admit no products",
                                pos[0] if pos else 0, pos[1] if pos else 0)
            cls = VfMul if sort is Sort.VF else RfMul
            return cls(self.build(a, sort), self.build(b, sort))
        if tag == "pow":
            if sort is Sort.ZZ:
                raise SortError("value-group terms admit no powers",
                                t[3][0], t[3][1])
            cls = VfPow if sort is Sort.VF else RfPow
            return cls(self.build(t[1], sort), t[2])
        raise AssertionError(tag)


def refuse_quantifier(sort):
    """Raise UnsupportedFeature for a quantifier of sort VF or ZZ."""
    if sort is Sort.VF:
        raise UnsupportedFeature(
            "field quantifiers (cell decomposition eliminates them)")
    raise UnsupportedFeature(
        "value-group quantifiers (write the condition with congruences, "
        "such as ord(x) == 0 mod 2)")


def nested(parser, rule):
    """rule() with parser.depth, the levels open, one deeper: the text of
    a formula or a ring value nests at most 2 * MAX_DEPTH levels."""
    if parser.depth == 2 * MAX_DEPTH:
        raise UnsupportedFeature("more than %d nested levels"
                                 % (2 * MAX_DEPTH))
    parser.depth += 1
    try:
        return rule()
    finally:
        parser.depth -= 1


def _check_depth(tree):
    """Refuse a tree, of nodes or of the parser's term tuples, deeper than
    MAX_DEPTH, found without recursion."""
    stack = [(tree, 1)]
    while stack:
        t, d = stack.pop()
        if d > MAX_DEPTH:
            raise UnsupportedFeature("a tree more than %d deep" % MAX_DEPTH)
        # a tuple's subterms are the tuples past its tag but its position
        kids = children(t) if isinstance(t, Node) else [
            c for c in t[1:] if isinstance(c, tuple) and isinstance(c[0], str)]
        stack.extend((c, d + 1) for c in kids)


def _fold(t):
    """The integer a term tree of integers, sums, differences and
    products stands for, or None when it has anything else."""
    tag = t[0]
    if tag == "int":
        return t[1]
    if tag == "neg":
        n = _fold(t[1])
        return None if n is None else -n
    if tag in ("add", "sub", "mul"):
        a, b = _fold(t[1]), _fold(t[2])
        if a is not None and b is not None:
            return a + b if tag == "add" else a - b if tag == "sub" \
                else a * b
    return None


def _mentions_var(t):
    if t[0] == "var":
        return True
    return any(isinstance(c, tuple) and _mentions_var(c) for c in t[1:])


def parse(src, default_sort=None):
    """Parse a formula.  default_sort settles otherwise-ambiguous atoms
    (count_rf_points uses Sort.RF).  A field or value-group quantifier
    raises UnsupportedFeature."""
    return _syntax(src, default_sort, None)


def parse_term(src, sort, values=None):
    """Parse one term and build it at `sort`, such as a valued-field
    polynomial "y^3 - x" or a value-group form "2*k - 1".  Every
    variable takes that sort; the names in `values` are read as those
    integers instead.  A term of another sort raises SortError."""
    return _syntax(src, sort, tuple(sorted(values.items())) if values
                   else ())


@functools.lru_cache(maxsize=MEMO_SIZE)
def _syntax(src, sort, values):
    """The tree of one text: a Formula when values is None, else a term
    built at sort with the names in values, a tuple of (name, integer)
    pairs, read as constants.  A raised error is never kept."""
    if values is None:
        return _Parser(_lex(src), sort).parse_formula()
    parser = _Parser(_lex(src), values=dict(values))
    tree = parser.parse_term()
    parser.end()
    if sort not in parser.possible(tree):
        t = parser.toks[0]
        raise SortError("%r is not a %s term" % (src, sort.value),
                        t.line, t.col)
    return parser.build(tree, sort)
