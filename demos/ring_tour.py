"""A short tour of the coefficient ring and the symbolic summation layer.

Run from anywhere after installing the package:

    python3 demos/ring_tour.py
"""

from fractions import Fraction

from dpcalc import presburger as P
from dpcalc.presburger import AffineForm, PresDomain, PresTerm
from dpcalc.symring import SymA


def main():
    # Elements of Z[L, L^-1, (1 - L^-i)^-1] have a canonical form, so
    # equality is plain ==.
    a = SymA.parse("(1 - L^-1)/(1 - L^-4)")
    b = (SymA.from_int(1) - SymA.l_power(-1)) * SymA.geom(4)
    print("parse and rebuild agree:", a == b)
    print("canonical render:       ", a.render())

    # nu_q evaluates at L = q, exactly.
    for q in (2, 5, Fraction(7, 2)):
        print("nu_%s = %s" % (q, a.nu(q)))

    # The ring is ordered: x >= 0 iff nu_q(x) >= 0 for every real q > 1.
    print("L - 2 nonneg?", (SymA.l_power(1) - SymA.from_int(2)).is_nonneg())
    print("L - L^-1 nonneg?",
          (SymA.l_power(1) - SymA.l_power(-1)).is_nonneg())

    # Geometric sums over integer cones come out in closed form.  Here:
    # sum over m >= k+1 of (1 - L^-1) L^(-2m - 2k).
    dom = PresDomain.single("m", lower=AffineForm.var("k") + 1)
    term = PresTerm(SymA.from_int(1) - SymA.l_power(-1),
                    AffineForm.make({"m": -2, "k": -2}))
    s = P.sum(dom, term)
    print("shell sum:", s.render())

    # The closed form can be checked against a partial sum: at k = 0 the
    # terms are (1 - q^-1) q^(-2m) for m >= 1, so the rest after m = 40 is
    # below q^-80.
    q = 7
    partial = sum((1 - Fraction(1, q)) * Fraction(1, q ** (2 * m))
                  for m in range(1, 41))
    exact = s.nu(q, env={"k": 0})
    print("partial sum to m = 40 within 7^-80?",
          0 < exact - partial < Fraction(1, q ** 80))


if __name__ == "__main__":
    main()
