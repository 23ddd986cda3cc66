"""The benchmark's three workloads.

Each workload is one client in one process that sends a request, waits for
the answer and sends the next (a closed loop).  Requests come in passes: a
pass is a fixed mix of requests in an order drawn from the seed, so runs of
different lengths measure the same mix.  The program is driven only through
its public calls, `dpcalc.cli.main` and `dpcalc.motivic.appendix2_volume`,
and receives only the generated inputs.

Every answer is checked after the timed region against a value computed
here, independently of the symbolic engine: closed forms in exact rational
arithmetic, brute-force root counts, and the integer count formula.  A
rendered ring value is read with Python's own expression parser and
evaluated at L = p in Fractions, so no dpcalc code takes part in a check.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import operator
import os
import random
from fractions import Fraction

from dpcalc import cli, motivic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# the acceptance corpus of tests/test_acceptance.py (criterion 9)
CORPUS = (
    "ball.dp",
    "plane.dp",
    "linear_m1.dp",
    "linear_m3.dp",
    "linear_triple.dp",
    "punctured_ball.cells.json",
    "cube.cells.json",
    "cube_level.cells.json",
)

BUDGET = str(10 ** 18)


def fixture(name):
    return os.path.join(FIXTURES, name)


def require_fixtures(names):
    missing = [n for n in names if not os.path.isfile(fixture(n))]
    if missing:
        raise FileNotFoundError("missing fixtures: %s" % ", ".join(missing))


def run_cli(argv):
    """(exit code, stdout, stderr) of one `dpcalc` invocation in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# independent values


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def ring_values(text, primes):
    """{p: value of the rendered ring element at L = p}.  The rendering
    ("(1 - L^-1)/(1 - L^-4)") is Python syntax once ^ becomes **."""
    tree = ast.parse(text.replace("^", "**"), mode="eval").body
    return {p: _evaluate(tree, Fraction(p)) for p in primes}


def _evaluate(node, L):
    if isinstance(node, ast.BinOp):
        a, b = _evaluate(node.left, L), _evaluate(node.right, L)
        if isinstance(node.op, ast.Pow) and b.denominator == 1:
            return a ** int(b)
        return _BINARY[type(node.op)](a, b)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand, L)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id == "L":
        return L
    raise ValueError("unexpected %s in a ring value" % ast.dump(node))


def linear_product_value(centers, mults, e, p):
    """Integral of prod |z - c_j|^(e*m_j) over Z_p at a prime where the
    centers are integral and pairwise distinct mod p: the units away from
    every center, plus one geometric shell series per center."""
    q = Fraction(p)
    value = (q - len(centers)) / q
    for m in mults:
        x = q ** -(1 + e * m)
        value += (1 - 1 / q) * x / (1 - x)
    return value


def linear_product_bad_primes(centers):
    """Primes where a center is not integral or two centers collide."""
    values = [c.denominator for c in centers]
    values += [(a - b).numerator for i, a in enumerate(centers)
               for b in centers[i + 1:]]
    return {p for v in values for p in _prime_factors(abs(v))}


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def cube_roots(a, p):
    """Number of w in F_p with w^3 = a, by brute force."""
    return sum(1 for w in range(p) if (w ** 3 - a) % p == 0)


def level_value(p, k, c):
    """The cube_level family at a unit acx with c cube roots mod p: the
    criterion-2 split (c = 3) and inert (c = 1) forms times p^(-4k)."""
    q = Fraction(p)
    return q ** (-4 * k) * (c * (1 - 1 / q) * q ** -2 / (1 - q ** -2)
                            + 1 - (1 + c) / q)


def cube_value(p, k, c):
    """The cube family: the shells below and above level k plus the
    level term."""
    q = Fraction(p)
    below = (1 - 1 / q) * (1 - q ** (-4 * k)) / (1 - q ** -4)
    above = q ** (-4 * k - 1)
    return below + above + level_value(p, k, c)


def corpus_value(name, p, case):
    """The integral a corpus fixture describes, at prime p."""
    q = Fraction(p)
    if name == "ball.dp":
        return q ** -2
    if name in ("plane.dp", "punctured_ball.cells.json"):
        return Fraction(1)
    if name == "linear_m1.dp":
        return linear_product_value([0], [1], 1, p)
    if name == "linear_m3.dp":
        return linear_product_value([0], [3], 1, p)
    if name == "linear_triple.dp":
        return linear_product_value([0, 1, 3], [1, 1, 1], 1, p)
    c = cube_roots(case["acx"], p)
    if name == "cube.cells.json":
        return cube_value(p, case["k"], c)
    if name == "cube_level.cells.json":
        return level_value(p, case["k"], c)
    raise KeyError(name)


def expected_rows(name, p):
    """(checked, skipped) rows of one compare request, as at the commit
    that defined this benchmark.  A row that becomes skipped fails the
    request, so skipping work cannot pass for speed."""
    if name == "linear_triple.dp" and p in (2, 3):
        return 0, 1
    if name.startswith("cube"):
        # three oracle cases; p = 3 is excluded, acx = 2 vanishes mod 2
        return {2: (2, 1), 3: (0, 3)}.get(p, (3, 0))
    return 1, 0


# ---------------------------------------------------------------------------
# workloads


class TransferCorpus:
    """`compare F --primes p --both-characteristics` for every corpus
    fixture F and prime p <= 31: 88 requests a pass."""

    name = "transfer_corpus"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        require_fixtures(CORPUS)
        self.pairs = [(name, p) for name in CORPUS for p in PRIMES_TO_31]

    def next_pass(self):
        batch = list(self.pairs)
        self.rng.shuffle(batch)
        return batch

    def call(self, request):
        name, p = request
        return run_cli(["compare", fixture(name), "--primes", str(p),
                        "--both-characteristics", "--budget", BUDGET])

    def check(self, request, answer):
        name, p = request
        rc, out, err = answer
        if rc != 0:
            return "exit %d: %s" % (rc, err.strip())
        rows = json.loads(out)["rows"]
        checked = [r for r in rows if "skipped" not in r]
        got = (len(checked), len(rows) - len(checked))
        if got != expected_rows(name, p):
            return "(checked, skipped) rows %s, expected %s" \
                % (got, expected_rows(name, p))
        for row in checked:
            want = corpus_value(name, p, row.get("case", {}))
            if Fraction(row["symbolic"]) != want:
                return "symbolic %s, expected %s" % (row["symbolic"], want)
            for kind in ("qp", "fpt"):
                lo, hi = (Fraction(x) for x in row[kind])
                if not (row[kind + "_contained"] and lo <= want <= hi):
                    return "%s bracket [%s, %s] misses %s" \
                        % (kind, lo, hi, want)
        return None


class SymbolicFamilies:
    """`integrate --linear-product=...` on seeded products, mixed with
    `integrate` of the two cube cell families at k = 0..3.

    Each pass holds three products for every (number of centers 1..4,
    exponent 1..3) pair, so the pass cost varies little with the seed, plus
    the eight cell-family requests.  No product repeats within a run; every
    cell-family request repeats the same cell data.

    Centers lie in -8..8, except a lone center: -8..8 holds only 65 of
    them, 260 products per exponent with the multiplicities, which a fast
    run uses up within 90 passes.  A lone center changes neither the value
    nor the work beyond its denominator, so it is drawn from
    -SINGLE_SPAN..SINGLE_SPAN, which no run of a minute can use up."""

    name = "symbolic_families"
    PER_STRATUM = 3
    SPAN = 8
    SINGLE_SPAN = 8000
    CELL_FILES = ("cube.cells.json", "cube_level.cells.json")

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()
        require_fixtures(self.CELL_FILES)
        self.first = self._make_pass()

    def _product(self, n, e):
        span = self.SINGLE_SPAN if n == 1 else self.SPAN
        while True:
            centers = set()
            while len(centers) < n:
                d = self.rng.choice((1, 1, 2, 3))
                centers.add(Fraction(self.rng.randint(-span * d, span * d),
                                     d))
            centers = tuple(sorted(centers))
            mults = tuple(self.rng.randint(1, 4) for _ in centers)
            key = (centers, mults, e)
            if key not in self.seen:
                self.seen.add(key)
                return ("product",) + key

    def _make_pass(self):
        batch = [self._product(n, e)
                 for n in range(1, 5) for e in range(1, 4)
                 for _ in range(self.PER_STRATUM)]
        batch += [("cells", name, k) for name in self.CELL_FILES
                  for k in range(4)]
        self.rng.shuffle(batch)
        return batch

    def next_pass(self):
        if self.first is not None:
            batch, self.first = self.first, None
            return batch
        return self._make_pass()

    def call(self, request):
        if request[0] == "product":
            _, centers, mults, e = request
            return run_cli(["integrate",
                            "--linear-product=" + product_spec(centers,
                                                               mults),
                            "--exponent", str(e)])
        _, name, k = request
        return run_cli(["integrate", fixture(name), "--param", "k=%d" % k,
                        "--param", "acx:cube"])

    def check(self, request, answer):
        rc, out, err = answer
        if rc != 0:
            return "exit %d: %s" % (rc, err.strip())
        payload = json.loads(out)
        if request[0] == "product":
            _, centers, mults, e = request
            bad = {int(p) for p in payload["bad_primes"]}
            if bad != linear_product_bad_primes(centers):
                return "excluded primes %s, expected %s" \
                    % (sorted(bad), sorted(linear_product_bad_primes(centers)))
            good = [p for p in PRIMES_TO_31 if p not in bad]
            for p, got in ring_values(payload["value"], good).items():
                if got != linear_product_value(centers, mults, e, p):
                    return "value %s wrong at p = %d" % (payload["value"], p)
            return None
        _, name, k = request
        cases = {c["when"]: c["value"] for c in payload.get("cases", ())}
        family = cube_value if name == "cube.cells.json" else level_value
        want_cases = {"q = 1 (mod 3)": (1, 3), "q = 2 (mod 3)": (2, 1)}
        if set(cases) != set(want_cases):
            return "cases %s" % sorted(cases)
        for when, (r, c) in want_cases.items():
            primes = [p for p in PRIMES_TO_31 if p % 3 == r]
            for p, got in ring_values(cases[when], primes).items():
                if got != family(p, k, c):
                    return "case %s: %s wrong at p = %d" \
                        % (when, cases[when], p)
        return None


def product_spec(centers, mults):
    return ",".join("%s:%d" % (c, m) for c, m in zip(centers, mults))


class ResidueCounts:
    """`appendix2_volume("per_eta", q, eta, variant)` for every nonsquare
    eta mod q and both variants, q prime in 5..23: 88 requests a pass."""

    name = "residue_counts"
    FIELDS = (5, 7, 11, 13, 17, 19, 23)

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.requests = []
        for q in self.FIELDS:
            squares = {x * x % q for x in range(1, q)}
            for eta in range(1, q):
                if eta not in squares:
                    for variant in ("b2_minus_d2", "d2_minus_b2"):
                        self.requests.append((q, eta, variant))

    def next_pass(self):
        batch = list(self.requests)
        self.rng.shuffle(batch)
        return batch

    def call(self, request):
        q, eta, variant = request
        return motivic.appendix2_volume("per_eta", q, eta, variant)

    def check(self, request, answer):
        q = request[0]
        if not isinstance(answer, Fraction) \
                or answer * q ** 3 != q * (q - 1) * (q + 1) // 2:
            return "volume %s, expected q(q-1)(q+1)/2 / q^3" % (answer,)
        return None


WORKLOADS = {w.name: w for w in (TransferCorpus, SymbolicFamilies,
                                 ResidueCounts)}
