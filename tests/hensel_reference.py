"""Simple-root lifting by Newton's iteration, which the tests use to
check Hensel's lemma on concrete roots in Q_p and F_p((t))."""

from dpcalc.errors import DpcalcError
from dpcalc.localfield import FieldKind, embed_rational, from_digits


class NoSimpleRoot(DpcalcError):
    pass


def hensel_lift(coeffs, x0, spec):
    """Lift a simple residue root x0 of f (integer coefficients, low-to-high
    degree) to spec.precision digits.  Requires f(x0) ≡ 0 and f'(x0) ≠ 0
    mod p; raises NoSimpleRoot otherwise.
    """
    p = spec.prime
    coeffs = [int(c) for c in coeffs]
    if not coeffs or all(c % p == 0 for c in coeffs):
        raise NoSimpleRoot("polynomial vanishes identically mod %d" % p)
    x0 = int(x0) % p
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    def ev(cs, x, m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    if ev(coeffs, x0, p) != 0:
        raise NoSimpleRoot("f(%d) != 0 mod %d" % (x0, p))
    if ev(dcoeffs, x0, p) == 0:
        raise NoSimpleRoot("f'(%d) == 0 mod %d: root is not simple" % (x0, p))

    n = spec.precision
    if spec.kind is FieldKind.EQUAL_CHAR:
        # coefficients lie in F_p, so the simple root is the constant x0
        return embed_rational(x0, spec)
    x = x0
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p ** k
        fx = ev(coeffs, x, m)
        dfx = ev(dcoeffs, x, m)
        x = (x - fx * pow(dfx, -1, m)) % m
    assert ev(coeffs, x, p ** n) == 0
    ds = [x // p ** i % p for i in range(n)]
    if all(d == 0 for d in ds):
        return from_digits(spec, n, ())
    return from_digits(spec, 0, ds)
