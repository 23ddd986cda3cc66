"""Dense polynomials with rational coefficients, and integer factoring.

A polynomial is a list of coefficients, index = degree, with no trailing
zeros; [] is the zero polynomial.  Coefficients are ints or Fractions:
integer inputs stay in int wherever the arithmetic allows, which is what
the ring's canonical forms (exact division by monic cyclotomics) rely on.
The order on the ring is decided here too: `nonneg_on_gt1` reads the sign
of a polynomial on the ray (1, oo) from Yun's square-free decomposition
and Sturm chains.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .budget import resolve as resolve_budget
from .errors import BudgetExceeded, InvalidArgument
from .localfield import is_prime

# the divisors trial division tests before Pollard's rho takes over
TRIAL_DIVISORS = 1000


def trim(a):
    """Drop a's trailing zeros in place; returns a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b, k=1):
    """a + k*b."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += k * c
    return trim(out)


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return trim(out)


def divmod(a, b):
    """(q, r) with a == q*b + r and deg r < deg b, for b nonzero.

    With a monic b, integer coefficients stay ints; otherwise each
    quotient coefficient is a Fraction."""
    n = len(b) - 1
    lead = None if b[-1] == 1 else b[-1]
    low = [(j, c) for j, c in enumerate(b[:n]) if c]
    r = list(a)
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n]
        if c:
            if lead:
                c = Fraction(c) / lead
            q[k] = c
            for j, bc in low:
                r[k + j] -= c * bc
    return trim(q), trim(r[:n])


def derivative(a):
    return trim([i * c for i, c in enumerate(a)][1:])


def evaluate(a, x):
    """a(x) by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def gcd(a, b):
    """The monic greatest common divisor over Q; [] when both are zero."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def primitive(a):
    """(content, part) with a == content * part, where part has coprime
    integer coefficients and a positive leading one; (0, []) for a = []."""
    if not a:
        return 0, []
    nums = [c.numerator for c in a]
    dens = [c.denominator for c in a]
    l = math.lcm(*dens)
    g = math.gcd(*nums)
    if nums[-1] < 0:
        g = -g
    return Fraction(g, l), [n * (l // d) // g for n, d in zip(nums, dens)]


def interpolate(points):
    """The polynomial of least degree through the points (x, y), by
    Lagrange's formula; the x are distinct."""
    out = []
    for i, (xi, yi) in enumerate(points):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = mul(basis, [-xj, 1])
                denom *= xi - xj
        out = add(out, basis, Fraction(yi) / denom)
    return out


def nonneg_on_gt1(a):
    """Whether a(x) >= 0 for every real x > 1.

    It is when a is zero, or when its leading coefficient is positive and
    no factor of odd multiplicity in a's square-free decomposition changes
    sign on (1, oo), that is, has a root there."""
    a = trim(list(a))
    if not a:
        return True
    if a[-1] < 0:
        return False
    return not any(_roots_above_one(f)
                   for f in _squarefree_factors(a)[::2])


def _squarefree_factors(a):
    """Yun's decomposition of a nonzero a over Q: [a_1, a_2, ...] with
    a = c * a_1 * a_2^2 * ..., the a_i monic, square-free and coprime."""
    out = []
    da = derivative(a)
    g = gcd(a, da)
    b = divmod(a, g)[0]
    d = add(divmod(da, g)[0], derivative(b), -1)
    while len(b) > 1:
        f = gcd(b, d)
        out.append(f)
        b = divmod(b, f)[0]
        d = add(divmod(d, f)[0], derivative(b), -1)
    return out


def _roots_above_one(f):
    """The number of roots of the square-free f in (1, oo): with a root
    at 1 divided out, Sturm's theorem counts them as the sign variations
    of the chain at 1 less those at +oo."""
    q, r = divmod(f, [-1, 1])
    if not r:
        f = q
    chain = [f, derivative(f)]
    while chain[-1]:
        chain.append([-c for c in divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return (_variations([evaluate(p, 1) for p in chain])
            - _variations([p[-1] for p in chain]))


def _variations(values):
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def factor(n, budget=None):
    """The prime factorization of |n| as {p: e}, primes ascending.

    Trial division stops once the cofactor is prime, and past
    TRIAL_DIVISORS once `is_prime` calls it composite: Pollard's rho
    splits what is left.  The trial divisions that fail and the rho steps
    raise BudgetExceeded once together they pass `budget.resolve(budget)`."""
    n = abs(n)
    out = {}
    limit = resolve_budget(budget)
    d, tries = 2, 0
    while n > 1:
        try:
            if is_prime(n):
                break
            top = min(math.isqrt(n), TRIAL_DIVISORS)
        except InvalidArgument:
            # undecided above 3.3e24: trial division goes on
            top = math.isqrt(n)
        while n % d and d <= top:
            tries += 1
            if tries > limit:
                raise BudgetExceeded(
                    "trial divisions factoring %d exceed the budget of %d"
                    % (n, limit))
            d += 1 if d == 2 else 2
        if d > top:
            break
        out[d] = 0
        while n % d == 0:
            n //= d
            out[d] += 1
    # no prime below d divides what is left, so an m < d^2 is prime
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if d * d > m or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f, tries = _rho(m, tries, limit)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def _rho(n, tries, limit):
    """(a proper divisor of the composite n, tries), by Pollard's rho on
    x -> x^2 + c with Floyd's cycle finding, for c = 1, 2, ... until a
    walk splits n; each step is charged to tries."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            tries += 1
            if tries > limit:
                raise BudgetExceeded(
                    "trial divisions and rho steps factoring %d exceed the "
                    "budget of %d" % (n, limit))
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g, tries
        c += 1


# The ring factors only its denominator indices, each an exponent the
# input wrote; the trial divisions and rho steps on n stay far below n, so
# a limit of n, which they never reach, leaves them unbudgeted.

@functools.lru_cache(maxsize=1024)
def divisors(n):
    """The positive divisors of n >= 1 as a tuple, in no fixed order.

    Kept per n: the ring asks for the same few indices on every value."""
    out = [1]
    for p, e in factor(n, n).items():
        out = [x * p ** k for x in out for k in range(e + 1)]
    return tuple(out)


def totient(n):
    """Euler's phi of n >= 1."""
    out = n
    for p in factor(n, n):
        out -= out // p
    return out
