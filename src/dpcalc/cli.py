"""Command-line front end.

Subcommands:

  parse      parse a definable-set file, print the AST (or pretty text)
  integrate  evaluate a symbolic integral (cell data or a linear product)
  compare    symbolic value vs. the point-counting oracle, prime by prime
  appendix2  the split-torus volume: exact count checks at listed primes
  oracle     run the box-counting oracle on one fixture

Exit codes are a stable contract:

  0  success
  2  unreadable input: parse or sort errors, bad flags, malformed data,
     out-of-range values
  3  the input is outside the supported fragment
  4  a comparison failed (symbolic value not contained in an oracle bracket)
  5  a box or point budget was exceeded
  1  unexpected internal failure (--debug shows its traceback)

All numeric output is exact: integers, "numerator/denominator" strings, or
ring elements rendered in normal form.  Nothing is ever printed as a float.

Fixture files are plain text.  Lines starting with "#" are comments; lines
starting with "#!" carry key: value directives (expect, linear-product,
integrand, exponent) that describe what the formula in the file is for.
Cell-data files are JSON; their optional "oracle" block gives a domain
formula, an integrand, and per-case parameter values and field values
so the same integral can be run numerically.  Every term in the inputs,
integrands and binds included, is read by the formula grammar's
`parse_term` at its sort; a bind such as "acx * t^(3*k)" is a field
term in the case's parameters and the uniformizer t.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import fields as dataclass_fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .budget import ENV as BUDGET_ENV
from .errors import (BudgetExceeded, DpcalcError, InvalidPrime, NotSummable,
                     ParseError, SortError, UnsupportedFeature,
                     UnsupportedZeroCell)
from .formula import (Formula, Sort, eval_vf_term, free_vars, parse,
                      parse_term, pretty_print)
from .formula.interpret import as_integer
from .localfield import fpt, is_prime, qp
from .motivic import (ConstructibleFn, IntegrationResult, bad_primes,
                      bind_parameters, integrate_cell_data,
                      integrate_linear_product, load_cells, residue_cases,
                      specialize)
from .motivic import appendix2_symbolic, appendix2_volume, nonsquares
from .oracle import IntegrandSpec, fraction_str
from .oracle import integrate as oracle_integrate
from .oracle import volume as oracle_volume
from .symring import SymA


# ---------------------------------------------------------------------------
# small shared helpers


class _Unwritten(Exception):
    """A value `_json_chunks` leaves to json.dumps."""


def _json_chunks(obj, newline, out):
    """Append to out the text of obj as json.dumps(obj, indent=2) lays it
    out, `newline` being the line break and indent obj starts after."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _json_key(key) + ": ")
            _json_chunks(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise _Unwritten


def _json_key(key):
    """A dict key as json.dumps writes it: a str as it is, a bool, None or
    an int converted first."""
    if isinstance(key, str):
        return _json_str(key)
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"%s"' % int.__repr__(key)
    raise _Unwritten


def _json_text(obj):
    """json.dumps(obj, indent=2).  CPython serves an indented dump with
    its pure-Python encoder, so the layout is written here, every string
    through the C string encoder; a value or key of any type but str,
    int, bool, None, list, tuple and dict leaves the whole dump to
    json.dumps, which raises its own error for one it cannot encode."""
    out = []
    try:
        _json_chunks(obj, "\n", out)
    except _Unwritten:
        return json.dumps(obj, indent=2)
    return "".join(out)


def _write(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload):
    _write(args, _json_text(payload) + "\n")


def _say(msg):
    sys.stderr.write("dpcalc: %s\n" % msg)


def _read_dp(path):
    """A formula fixture: comment lines stripped, directives collected."""
    with open(path) as fh:
        raw = fh.read()
    body = []
    directives = {}
    for line in raw.splitlines():
        stripped = line.strip()
        if stripped.startswith("#!"):
            key, sep, value = stripped[2:].partition(":")
            if not sep:
                raise ParseError("bad directive line %r" % stripped)
            directives[key.strip()] = value.strip()
        elif stripped.startswith("#"):
            continue
        else:
            body.append(line)
    text = "\n".join(body).strip()
    if not text:
        raise ParseError("%s contains no formula" % path)
    return text, directives


def _load_cells_path(path):
    try:
        return load_cells(path)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError("malformed cell data in %s: %s" % (path, e))


def _integer(text, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s %r is not an integer" % (what, text)) from None


def _parse_primes(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        p = _integer(piece, "prime")
        if not is_prime(p):
            raise InvalidPrime("%d is not a prime" % p)
        out.append(p)
    if not out:
        raise InvalidPrime("no primes given")
    return tuple(sorted(set(out)))


def _parse_param_list(pieces):
    """--param values: "k=0", "acx:cube", or comma-joined mixtures."""
    numeric = {}
    tokens = {}
    for chunk in pieces:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                name, _, value = piece.partition("=")
                numeric[name.strip()] = _integer(value, "parameter value")
            elif ":" in piece:
                name, _, token = piece.partition(":")
                tokens[name.strip()] = token.strip()
            else:
                raise ParseError("bad parameter setting %r (use name=value "
                                 "or name:class)" % piece)
    return numeric, tokens


def _parse_linear_product(text):
    centers = []
    mults = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        c, sep, m = piece.partition(":")
        if not sep:
            raise ParseError("linear product terms look like center:"
                             "multiplicity, got %r" % piece)
        try:
            centers.append(Fraction(c))
            mults.append(int(m))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad linear product term %r" % piece) from None
    if not centers:
        raise ParseError("empty linear product")
    return centers, mults


_NODE_SCALARS = (bool, int, str)


def _node_json(n):
    if isinstance(n, Formula):
        return {"free": [{"name": name, "sort": sort.value}
                         for name, sort in n.free],
                "expr": _node_json(n.expr)}
    if is_dataclass(n):
        out = {"node": type(n).__name__}
        for f in dataclass_fields(n):
            out[f.name] = _node_json(getattr(n, f.name))
        return out
    if isinstance(n, Sort):
        return n.value
    if isinstance(n, Fraction):
        return fraction_str(n)
    if isinstance(n, _NODE_SCALARS):
        return n
    raise TypeError("cannot serialize %r" % (n,))


def _bad_json(bad):
    return {str(p): list(reasons) for p, reasons in sorted(bad.items())}


def _derivation_json(result):
    return [{"cell": cid, "value": fn.render(), "note": note}
            for cid, fn, note in result.derivation]


def _integrand_from(directives):
    if "integrand" in directives:
        return IntegrandSpec.abs_power(
            directives["integrand"],
            _integer(directives.get("exponent", "1"), "exponent"))
    return IntegrandSpec.one()


# ---------------------------------------------------------------------------
# parse


def cmd_parse(args):
    body, _ = _read_dp(args.path)
    phi = parse(body)
    pretty = pretty_print(phi)
    if parse(pretty) != phi:
        raise AssertionError("pretty text failed to round-trip")
    if args.emit == "pretty":
        _write(args, pretty + "\n")
        return 0
    _emit(args, {
        "file": args.path,
        "free": [{"name": n, "sort": s.value} for n, s in phi.free],
        "pretty": pretty,
        "ast": _node_json(phi.expr),
    })
    return 0


# ---------------------------------------------------------------------------
# integrate


_CLASS_TOKENS = {"cube": (3, 1)}


def cmd_integrate(args):
    if args.linear_product is not None:
        if args.path:
            raise ParseError("give either a cell-data file or "
                             "--linear-product, not both")
        centers, mults = _parse_linear_product(args.linear_product)
        result = integrate_linear_product(centers, mults, args.exponent)
        _emit(args, {
            "input": {"linear_product": args.linear_product,
                      "exponent": args.exponent},
            "value": result.as_syma().render(),
            "bad_primes": _bad_json(result.bad_primes),
            "derivation": _derivation_json(result),
        })
        return 0

    if not args.path:
        raise ParseError("integrate needs a cell-data file or "
                         "--linear-product")
    data = _load_cells_path(args.path)
    result = integrate_cell_data(data)
    numeric, tokens = _parse_param_list(args.param)
    declared = dict(data.parameters)
    for name in list(numeric) + list(tokens):
        if name not in declared:
            raise ParseError("unknown parameter %r (file declares %s)"
                             % (name, sorted(declared) or "none"))
    for name in numeric:
        if declared[name] is not Sort.ZZ:
            raise UnsupportedFeature(
                "residue parameter %r takes a class token here (such as "
                "%s:cube); numeric values belong to compare or oracle runs"
                % (name, name))
    for name, token in tokens.items():
        if declared[name] is not Sort.RF:
            raise ParseError("parameter %r is not residue-sorted" % name)
        if token not in _CLASS_TOKENS:
            raise ParseError("unknown residue class token %r (supported: %s)"
                             % (token, ", ".join(sorted(_CLASS_TOKENS))))

    bound = bind_parameters(result, numeric)
    out = {
        "file": args.path,
        "parameters": [{"name": n, "sort": s.value}
                       for n, s in data.parameters],
        "assigned": {n: v for n, v in sorted(numeric.items())},
        "value": bound.value.render(),
        "bad_primes": _bad_json(result.bad_primes),
        "derivation": _derivation_json(result),
    }

    rf_names = {n for n, s in data.parameters if s is Sort.RF}
    zz_names = {n for n, s in data.parameters if s is Sort.ZZ}
    if tokens:
        if set(tokens) != rf_names or not zz_names <= set(numeric):
            raise UnsupportedFeature(
                "congruence cases need a class token for every residue "
                "parameter and a value for every value-group parameter")
        moduli = {_CLASS_TOKENS[t][0] for t in tokens.values()}
        if len(moduli) != 1:
            raise UnsupportedFeature("mixed class tokens are not supported")
        modulus = moduli.pop()
        witness = {n: _CLASS_TOKENS[t][1] for n, t in tokens.items()}
        fitted, exceptions = {}, {}
        out["cases"] = []
        for r, v in residue_cases(bound, modulus, witness, fitted=fitted,
                                  exceptions=exceptions):
            # a prime of the class where the fit is off, or where the
            # exact count degenerates, has its own case
            off = [q for q in exceptions if q % modulus == r]
            out["cases"].append({
                "when": "q = %d (mod %d)" % (r, modulus)
                + "".join(", q != %d" % q for q in off),
                "value": v.render()})
            out["cases"] += [{"when": "q = %d" % q,
                              "value": exceptions[q].render()} for q in off]
        if fitted:
            out["fitted_classes"] = [
                {"class": c, "witness_primes": primes}
                for c, primes in fitted.items()]
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# compare


def _bracket(args, row, sym, integrand, phi, p, precision, binds):
    """Put the oracle's bracket at p into row for each field args asks
    for, the binds evaluated in that field; whether all contain sym."""
    ok = True
    for kind in ("qp", "fpt") if args.both_characteristics else ("qp",):
        spec = (qp if kind == "qp" else fpt)(p, precision)
        assignment = {name: eval_vf_term(term, spec, {})
                      for name, term in binds.items()}
        iv = oracle_integrate(integrand, phi, spec, assignment=assignment,
                              budget=args.budget)
        contained = iv.contains(sym)
        row[kind] = [fraction_str(iv.lower), fraction_str(iv.upper)]
        row[kind + "_contained"] = contained
        ok = ok and contained
    return ok


def _read_formula(args):
    """(value text, result, domain, integrand, cases) of a .dp fixture,
    whose value a directive gives and whose one case has no parameters."""
    body, directives = _read_dp(args.path)
    phi = parse(body)
    if "linear-product" in directives:
        centers, mults = _parse_linear_product(directives["linear-product"])
        result = integrate_linear_product(
            centers, mults,
            _integer(directives.get("exponent", "1"), "exponent"),
            budget=args.budget)
        value = result.as_syma()
    elif "expect" in directives:
        value = SymA.parse(directives["expect"])
        result = IntegrationResult(ConstructibleFn.constant(value),
                                   bad_primes(phi, budget=args.budget), ())
    else:
        raise ParseError(
            "%s carries no symbolic value: add a '#! expect:' or "
            "'#! linear-product:' directive" % args.path)
    return (value.render(), result, phi, _integrand_from(directives),
            [(None, args.precision, {})])


def _oracle_case(case, precision):
    """(params, precision, {name: term}) of one oracle case.  A bind is a
    field term in the case's parameters, which are JSON integers, and the
    uniformizer t, such as "acx * t^(3*k)"."""
    params = {k: as_integer(v, k)
              for k, v in (case.get("params") or {}).items()}
    binds = {}
    for name, text in (case.get("vf") or {}).items():
        term = parse_term(text, Sort.VF, values=params)
        loose = free_vars(term)
        if loose:
            raise ParseError("unknown name %r in the bind %r"
                             % (next(iter(loose)), text))
        binds[name] = term
    return params, as_integer(case.get("precision", precision),
                              "precision"), binds


def _read_cells(args):
    """(value text, result, domain, integrand, cases) of a cell-data
    file: the file is integrated, then its oracle block is read."""
    data = _load_cells_path(args.path)
    result = integrate_cell_data(data, budget=args.budget)
    block = data.oracle
    if not isinstance(block, dict) or "domain" not in block:
        raise UnsupportedFeature(
            "%s has no oracle block, so there is nothing to compare against"
            % args.path)
    try:
        phi = parse(block["domain"])
        spec_f = block.get("integrand") or {}
        if spec_f:
            integrand = IntegrandSpec.abs_power(spec_f["f"],
                                                spec_f.get("e", 1))
        else:
            integrand = IntegrandSpec.one()
        cases = [_oracle_case(case, args.precision)
                 for case in block.get("cases") or [{}]]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParseError("malformed oracle block in %s: %s"
                         % (args.path, e)) from None
    return result.value.render(), result, phi, integrand, cases


def cmd_compare(args):
    read = _read_cells if args.path.endswith(".json") else _read_formula
    value, result, phi, integrand, cases = read(args)
    rf_params = {n for n, s in result.value.params if s is Sort.RF}
    rows = []
    failing = []
    for params, precision, binds in cases:
        for p in args.primes:
            row = {"prime": p}
            rows.append(row)
            if p in result.bad_primes:
                row["skipped"] = ("bad prime (%s)"
                                  % "; ".join(result.bad_primes[p]))
                continue
            if params is not None:
                row["case"] = dict(sorted(params.items()))
                # a residue parameter names a unit residue, which a value
                # that vanishes mod p does not
                zero = [n for n in sorted(rf_params & set(params))
                        if params[n] % p == 0]
                if zero:
                    row["skipped"] = ("parameter %s = %d vanishes mod %d"
                                      % (zero[0], params[zero[0]], p))
                    continue
            sym = specialize(result, p, params, budget=args.budget)
            row["symbolic"] = fraction_str(sym)
            if not _bracket(args, row, sym, integrand, phi, p, precision,
                            binds):
                failing.append(p)
    out = {"file": args.path, "value": value, "rows": rows,
           "ok": not failing}
    if failing:
        out["failing_primes"] = sorted(set(failing))
    _emit(args, out)
    if failing:
        _say("comparison failed at prime(s) %s"
             % ", ".join(str(p) for p in sorted(set(failing))))
        return 4
    return 0


# ---------------------------------------------------------------------------
# appendix2


# the valued-field locus of fixtures/appendix2_vf.dp with its unit
# determinant read mod the uniformizer: q * vol = #points mod q / q^3
APPENDIX2_VF_LOCUS = """vf a, b, c, d; rf eta;
ord(a*d - b*c - 1) >= 1
&& ord(a) >= 0 && ord(b) >= 0 && ord(c) >= 0 && ord(d) >= 0
&& (exists s:rf.
      (ord(b) == 0 && ord(d) == 0 && ac(b)^2 - ac(d)^2 * eta == s^2)
   || (ord(b) == 0 && ord(d) >= 1 && ac(b)^2 == s^2)
   || (ord(b) >= 1 && ord(d) == 0 && 0 - ac(d)^2 * eta == s^2)
   || (ord(b) >= 1 && ord(d) >= 1 && 0 == s^2))"""


def _appendix2_vf_rows(primes, budget):
    """The locus volume at N = 1 in both characteristics, one row per
    prime and field, for the smallest nonsquare eta."""
    locus = parse(APPENDIX2_VF_LOCUS)
    rows = []
    for q in primes:
        eta = next(nonsquares(q))
        expected = Fraction((q - 1) * (q + 1), 2 * q * q)
        for field, make in (("qp", qp), ("fpt", fpt)):
            iv = oracle_volume(locus, make(q, 1), assignment={"eta": eta},
                               budget=budget)
            rows.append({"q": q, "field": field, "N": 1, "eta": eta,
                         "value": fraction_str(q * iv.lower),
                         "expected": fraction_str(expected),
                         "ok": iv.lower == iv.upper
                         and q * iv.lower == expected})
    return rows


def cmd_appendix2(args):
    # the counts need q >= 5, and 2, with no nonsquare, would give no row
    # at all: refuse such a q before counting anything
    small = [q for q in args.primes if q < 5]
    if small:
        raise InvalidPrime("need an odd prime >= 5, got %d" % small[0])
    symbolic = appendix2_symbolic()
    rows = []
    failing = []
    for q in args.primes:
        expected = q * (q - 1) * (q + 1) // 2
        for eta in nonsquares(q):
            for variant in ("b2_minus_d2", "d2_minus_b2"):
                vol = appendix2_volume("per_eta", q, eta=eta,
                                       variant=variant, budget=args.budget)
                count = vol * q ** 3
                ok = count == expected
                rows.append({"q": q, "eta": eta, "variant": variant,
                             "count": int(count), "expected": expected,
                             "ok": ok})
                if not ok:
                    failing.append("q=%d eta=%d (%s)" % (q, eta, variant))
    vf_rows = _appendix2_vf_rows(args.primes, args.budget)
    failing += ["q=%d (%s locus)" % (r["q"], r["field"])
                for r in vf_rows if not r["ok"]]
    _emit(args, {
        "symbolic": symbolic.render(),
        "count_formula": "q*(q-1)*(q+1)/2",
        "rows": rows,
        "vf_formula": "(q-1)*(q+1)/(2*q^2)",
        "vf_rows": vf_rows,
        "ok": not failing,
    })
    if failing:
        _say("count mismatch at %s" % ", ".join(failing))
        return 4
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args):
    body, directives = _read_dp(args.path)
    phi = parse(body)
    integrand = _integrand_from(directives)
    make = qp if args.field == "qp" else fpt
    spec = make(args.prime, args.precision)
    iv = oracle_integrate(integrand, phi, spec, budget=args.budget)
    _emit(args, {
        "file": args.path,
        "field": args.field,
        "prime": args.prime,
        "precision": args.precision,
        "integrand": directives.get("integrand", "1"),
        "interval": iv.to_json_dict(),
        "width": fraction_str(iv.width()),
    })
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common(p):
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--debug", action="store_true",
                   help="let an internal error raise with its traceback "
                        "instead of exiting 1")


def build_parser():
    """The top-level parser, whose subparsers parse each command."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(the top-level parser, {command: its parser})."""
    ap = argparse.ArgumentParser(
        prog="dpcalc",
        description="symbolic integration over complete discretely valued "
                    "fields, with an exhaustive numeric cross-check")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a definable-set file")
    p.add_argument("path")
    p.add_argument("--emit", choices=("json", "pretty"), default="json",
                   help="full AST as JSON, or just the normalized text")
    _add_common(p)

    p = sub.add_parser("integrate", help="evaluate a symbolic integral")
    p.add_argument("path", nargs="?",
                   help="cell-data file (JSON)")
    p.add_argument("--linear-product", metavar="C:M,...",
                   help="integrate |(x-c1)^m1 ... (x-cn)^mn| over the "
                        "valuation ring instead of reading a file")
    p.add_argument("--exponent", type=int, default=1,
                   help="raise the linear-product integrand to this power")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=INT|NAME:CLASS",
                   help="bind a parameter; repeatable or comma-joined")
    _add_common(p)

    p = sub.add_parser("compare",
                       help="check the symbolic value against the oracle")
    p.add_argument("path", help=".dp fixture or cell-data JSON")
    p.add_argument("--primes", default="2,3,5,7,11,13",
                   help="comma-separated primes (default 2,3,5,7,11,13)")
    p.add_argument("--precision", type=int, default=6,
                   help="oracle digit depth (default 6)")
    p.add_argument("--both-characteristics", action="store_true",
                   help="also run the equal-characteristic oracle")
    p.add_argument("--budget", type=int,
                   help="box budget override (or %s)" % BUDGET_ENV)
    _add_common(p)

    p = sub.add_parser("appendix2",
                       help="split-torus volume count checks")
    p.add_argument("--primes", default="5,7",
                   help="comma-separated primes (default 5,7)")
    p.add_argument("--budget", type=int,
                   help="point budget override (or %s)" % BUDGET_ENV)
    _add_common(p)

    p = sub.add_parser("oracle", help="run the numeric oracle on a fixture")
    p.add_argument("path", help=".dp fixture")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--precision", type=int, default=4)
    p.add_argument("--field", choices=("qp", "fpt"), default="qp",
                   help="mixed characteristic (qp) or equal (fpt)")
    p.add_argument("--budget", type=int,
                   help="box budget override (or %s)" % BUDGET_ENV)
    _add_common(p)

    return ap, sub.choices


_COMMANDS = {
    "parse": cmd_parse,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
    "appendix2": cmd_appendix2,
    "oracle": cmd_oracle,
}


def _attach_negative_values(argv):
    """argparse reads a value starting with "-" as an option, so a
    linear product with a negative first center ("-3:2") is attached to
    its flag ("--linear-product=-3:2")."""
    out = []
    for arg in argv:
        if out and out[-1] == "--linear-product" and \
                re.match(r"-[\d./]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_args(argv):
    """build_parser().parse_args(argv) in one argparse pass: the
    arguments of a command go straight to its own parser, and what that
    leaves over is refused by the top-level parser, as it refuses it."""
    top, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, extra = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        top.error("unrecognized arguments: %s" % " ".join(extra))
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(_attach_negative_values(argv))
    try:
        if "primes" in args:
            args.primes = _parse_primes(args.primes)
        if "prime" in args and not is_prime(args.prime):
            raise InvalidPrime("%d is not a prime" % args.prime)
        return _COMMANDS[args.command](args)
    except (ParseError, SortError) as e:
        _say(str(e))
        return 2
    except (UnsupportedFeature, UnsupportedZeroCell, NotSummable) as e:
        _say("outside the supported fragment: %s" % e)
        return 3
    except BudgetExceeded as e:
        _say(str(e))
        return 5
    except DpcalcError as e:
        _say(str(e))
        return 2
    except OSError as e:
        _say(str(e))
        return 2
    except Exception as e:
        if args.debug:
            raise
        _say("internal error: %s: %s"
             % (type(e).__name__, str(e).replace("\n", " ")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
