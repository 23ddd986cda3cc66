"""End-to-end acceptance checks.

One test per delivered guarantee; `pytest -v tests/test_acceptance.py`
prints one pass/fail line for each.  Everything here is exact: symbolic
equalities hold in canonical form, numeric cross-checks are rational
interval containments, and the stated runtime ceilings are asserted.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

import dpcalc.localfield as lf
from dpcalc import oracle
from dpcalc import presburger as P
from dpcalc.formula import count_rf_points
from dpcalc.motivic import (appendix2_symbolic, appendix2_volume,
                            integrate_cell_data, integrate_cells,
                            integrate_linear_product, load_cells,
                            residue_cases, specialize)
from dpcalc.oracle import (IntegrandSpec, integrate, serre_oesterle_count,
                           volume)
from dpcalc.presburger import AffineForm, PresDomain, PresTerm, SymSum
from dpcalc.symring import ONE, L, SymA
from hensel_reference import NoSimpleRoot, hensel_lift
from oracle_reference import jacobian_check, overlaps
from symring_reference import one_minus_l_inv

parse_a = SymA.parse


# --- 1. one cubed coordinate over the unit ball -----------------------------

def test_criterion_01_cube_norm_integral():
    result = integrate_linear_product([0], [3], 1)
    value = result.as_syma()
    assert value == parse_a("(1 - L^-1)/(1 - L^-4)")
    assert value.render() == "(1 - L^-1)/(1 - L^-4)"

    integrand = IntegrandSpec.abs_power("z^3")
    domain = "vf z; ord(z) >= 0"
    for p in (5, 7, 11, 13):
        start = time.monotonic()
        for make in (lf.qp, lf.fpt):
            iv = integrate(integrand, domain, make(p, 6))
            assert iv.width() <= F(1, p ** 4)
            assert iv.contains(value.nu(p))
        assert time.monotonic() - start < 10


# --- 2. the parametric level family -----------------------------------------

def _split_value(p, k):
    q = F(p)
    return 3 * (1 - 1 / q) * q ** (-4 * k - 2) / (1 - q ** -2) \
        + q ** (-4 * k) - 4 * q ** (-4 * k - 1)


def _inert_value(p, k):
    q = F(p)
    return (1 - 1 / q) * q ** (-4 * k - 2) / (1 - q ** -2) \
        + q ** (-4 * k) - 2 * q ** (-4 * k - 1)


@pytest.fixture(scope="module")
def level_family(fixture_dir):
    data = load_cells(fixture_dir + "/cube_level.cells.json")
    return integrate_cell_data(data)


def test_criterion_02_parametric_level_family(level_family):
    res = level_family

    # symbolic congruence cases, exact in the ring
    for k in (0, 1):
        cases = dict(residue_cases(res, 3, {"acx": 1}, {"k": k}))
        shift = SymA.l_power(-4 * k)
        assert cases[1] == \
            parse_a("(1 - 4*L^-1 + 2*L^-2 + L^-3)/(1 - L^-2)") * shift
        assert cases[2] == parse_a("(1 - 2*L^-1 + L^-3)/(1 - L^-2)") * shift

    # numeric specializations at a cube argument
    for p, closed in ((7, _split_value), (13, _split_value),
                      (5, _inert_value), (11, _inert_value)):
        for k in (0, 1):
            assert specialize(res, p, {"acx": 1, "k": k}) == closed(p, k)

    # oracle containment at depth 6 + 3k
    domain = "vf x, y; 3*ord(y) == ord(x)"
    integrand = IntegrandSpec.abs_power("y^3 - x")
    for p in (5, 7, 11, 13):
        for k in (0, 1):
            spec = lf.qp(p, 6 + 3 * k)
            iv = integrate(integrand, domain, spec,
                           assignment={"x": p ** (3 * k)}, budget=10 ** 11)
            assert iv.contains(specialize(res, p, {"acx": 1, "k": k})), (p, k)


@pytest.mark.xfail(strict=True, reason="the level factor carries exponent "
                   "4k, not 6k: each level multiplies the value by L^-4, "
                   "and the point-counting oracle confirms it")
def test_criterion_02_literal_6k_display(level_family):
    p, k = 7, 1
    q = F(p)
    literal = 3 * (1 - 1 / q) * q ** (-4 * k - 2) / (1 - q ** -2) \
        + q ** (-6 * k) - 4 * q ** (-6 * k - 1)
    assert specialize(level_family, p, {"acx": 1, "k": k}) == literal


# --- 3. the inner shell sum in closed form -----------------------------------

def test_criterion_03_shell_sum_normal_form():
    domain = PresDomain.single("m", lower=AffineForm.var("k") + 1)
    term = PresTerm(one_minus_l_inv(1), AffineForm.make({"m": -2, "k": -2}))
    got = P.sum(domain, term)
    # (1 - L^-1) L^(-2k) L^(-2(k+1)) (1 - L^-2)^-1
    coeff = one_minus_l_inv(1) * SymA.l_power(-2) * SymA.geom(2)
    want = SymSum((PresTerm(coeff, AffineForm.make({"k": -4})),))
    assert got == want


# --- 4. the split-torus volume -----------------------------------------------

def test_criterion_04_split_torus_counts():
    assert appendix2_symbolic() == F(1, 2) * (L ** 3 - L)
    start = time.monotonic()
    for q in (5, 7, 11, 13, 17):
        expected = F(q * (q - 1) * (q + 1), 2)
        nonsquares = [n for n in range(2, q)
                      if pow(n, (q - 1) // 2, q) == q - 1]
        assert len(nonsquares) == (q - 1) // 2
        for eta in nonsquares:
            for variant in ("b2_minus_d2", "d2_minus_b2"):
                vol = appendix2_volume("per_eta", q, eta=eta, variant=variant)
                assert vol * q ** 3 == expected, (q, eta, variant)
    assert time.monotonic() - start < 60


def test_criterion_04_twist_locus_in_the_local_field(fx):
    """The valued-field locus of appendix 2, with its unit determinant
    read mod ϖ as ord(a*d - b*c - 1) >= 1: 5^4 * vol solutions mod 5 over
    a 3-dimensional set, so 5 * vol is q(q-1)(q+1)/2 / q^3 at q = 5."""
    with open(fx("appendix2_vf.dp")) as fh:
        text = fh.read()
    assert "a*d - b*c == 1" in text
    text = text.replace("a*d - b*c == 1", "ord(a*d - b*c - 1) >= 1")
    for spec in (lf.qp(5, 1), lf.fpt(5, 1)):
        v = volume(text, spec, assignment={"eta": 2})
        assert v.lower == v.upper
        assert 5 * v.lower == F(12, 25)


# --- 5. stabilized solution counts -------------------------------------------

def test_criterion_05_stabilized_counts():
    for p in (5, 13):
        spec = lf.qp(p, 3)
        vals = [serre_oesterle_count("x*x + y*y - 1", 1, spec, N)
                for N in (1, 2, 3)]
        residue = count_rf_points("u*u + v*v == 1", p)
        assert vals[0] == vals[1] == vals[2] == F(residue, p)

    # negative control: the nodal curve x y = 0 is not smooth at the origin
    spec = lf.qp(5, 3)
    vals = [serre_oesterle_count("x*y", 1, spec, N) for N in (1, 2, 3)]
    assert len(set(vals)) > 1


# --- 6. Haar measure and change of variables ---------------------------------

def test_criterion_06_haar_and_jacobian():
    for p in (5, 7):
        spec = lf.qp(p, 6)
        for n in range(6):
            v = volume("ord(x) >= n", spec, assignment={"n": n})
            assert v.lower == v.upper == F(1, p ** n)

    rng = random.Random(77)
    for trial in range(10):
        p = rng.choice((5, 7))
        spec = lf.qp(p, 6)
        atoms = []
        for _ in range(rng.randint(1, 3)):
            c = rng.randrange(p)
            r = rng.randint(1, 2)
            op = rng.choice((">=", "=="))
            atoms.append("ord(x - %d) %s %d" % (c, op, r))
        phi = " || ".join(atoms)
        for a in (p, p * p, F(2, 3)):
            va, vb = jacobian_check(a, phi, spec)
            scale = F(1, p) ** _val(F(a), p)
            sv = va.scaled(scale)
            assert overlaps(sv, vb), (phi, a)
            if sv.width() == 0 and vb.width() == 0:
                assert sv.lower == vb.lower


def _val(r, p):
    v = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = r.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# --- 7. the coefficient ring -------------------------------------------------

def _random_ring_element(rng):
    num = {}
    for _ in range(rng.randint(0, 3)):
        num[rng.randint(-4, 4)] = F(rng.randint(-6, 6), rng.randint(1, 4))
    elem = SymA(num)
    for _ in range(rng.randint(0, 2)):
        elem = elem * SymA.geom(rng.randint(1, 4))
    return elem


def test_criterion_07_ring_homomorphism_and_order():
    rng = random.Random(2026)
    qs = (2, 7, F(5, 2), F(22, 7))
    for _ in range(500):
        a = _random_ring_element(rng)
        b = _random_ring_element(rng)
        for q in qs:
            assert (a + b).nu(q) == a.nu(q) + b.nu(q)
            assert (a * b).nu(q) == a.nu(q) * b.nu(q)

    assert not (L - 2).is_nonneg()
    for i in range(-3, 4):
        for j in range(-3, i):
            assert (SymA.l_power(i) - SymA.l_power(j)).is_nonneg(), (i, j)
    for i in range(1, 7):
        assert SymA.geom(i).is_nonneg()


# --- 8. simple-root lifting --------------------------------------------------

def test_criterion_08_simple_root_lifting():
    r = hensel_lift([-2, 0, 1], 3, lf.qp(7, 5))
    val = sum(d * 7 ** i for i, d in enumerate(r.digits(5)))
    assert (val * val - 2) % 7 ** 5 == 0

    with pytest.raises(NoSimpleRoot):
        hensel_lift([-2, 0, 1], 1, lf.qp(3, 5))

    assert count_rf_points("u^3 == 1", 7) == 3
    assert count_rf_points("u^3 == 1", 5) == 1
    for r0 in (1, 2, 4):
        lifted = hensel_lift([-1, 0, 0, 1], r0, lf.qp(7, 6))
        v = sum(d * 7 ** i for i, d in enumerate(lifted.digits(6)))
        assert (v ** 3 - 1) % 7 ** 6 == 0
    hensel_lift([-1, 0, 0, 1], 1, lf.qp(5, 6))
    with pytest.raises(NoSimpleRoot):
        hensel_lift([-1, 0, 0, 1], 2, lf.qp(5, 6))


# --- 9. transfer across characteristics at desk scale ------------------------

CORPUS = [
    "ball.dp",
    "plane.dp",
    "linear_m1.dp",
    "linear_m3.dp",
    "linear_triple.dp",
    "punctured_ball.cells.json",
    "cube.cells.json",
    "cube_level.cells.json",
]

PRIMES_TO_31 = "2,3,5,7,11,13,17,19,23,29,31"


@pytest.mark.parametrize("name", CORPUS)
def test_criterion_09_transfer_corpus(run_cli, fx, name):
    rc, out, err = run_cli("compare", fx(name), "--primes", PRIMES_TO_31,
                           "--both-characteristics", "--budget", 10 ** 18)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["ok"] is True
    checked = [r for r in payload["rows"] if "skipped" not in r]
    assert checked
    for row in checked:
        assert row["qp_contained"] and row["fpt_contained"], row


def test_criterion_09_negative_control(run_cli, fx):
    rc, out, err = run_cli("compare", fx("corrupted_expect.dp"),
                           "--primes", "5,7")
    assert rc == 4
    assert json.loads(out)["ok"] is False
    assert "comparison failed" in err


# --- 10. structural property suites ------------------------------------------

def test_criterion_10_fubini():
    rng = random.Random(10)
    for _ in range(20):
        la, lb = rng.randint(-3, 3), rng.randint(-3, 3)
        ca, cb = rng.randint(-3, -1), rng.randint(-3, -1)
        term = PresTerm(ONE, AffineForm.make({"a": ca, "b": cb}))
        ab = P.sum(PresDomain((P.VarRange("a", lower=AffineForm.constant(la)),
                               P.VarRange("b", lower=AffineForm.constant(lb)))),
                   term)
        ba = P.sum(PresDomain((P.VarRange("b", lower=AffineForm.constant(lb)),
                               P.VarRange("a", lower=AffineForm.constant(la)))),
                   term)
        assert ab == ba


def test_criterion_10_oracle_refinement():
    phi = "ord(x) >= 3 || (ord(x) == 1 && ac(x) == 2)"
    for p in (3, 5):
        previous = None
        for n in (2, 3, 4, 5):
            iv = volume(phi, lf.qp(p, n))
            if previous is not None:
                assert previous.lower <= iv.lower
                assert iv.upper <= previous.upper
            previous = iv


def test_criterion_10_additivity():
    spec = lf.qp(5, 5)
    v1 = volume("ord(x) == 1", spec)
    v2 = volume("ord(x) == 3", spec)
    both = volume("ord(x) == 1 || ord(x) == 3", spec)
    assert both.lower == v1.lower + v2.lower
    assert both.upper == v1.upper + v2.upper

    # split the shipped parametric family and integrate the halves
    import os
    here = os.path.dirname(__file__)
    cube = load_cells(os.path.join(here, os.pardir, "fixtures",
                                   "cube.cells.json"))
    full = integrate_cells(cube.cells, params=cube.parameters)
    part1 = integrate_cells(cube.cells[:3], params=cube.parameters)
    part2 = integrate_cells(cube.cells[3:], params=cube.parameters)
    assert full.value == part1.value + part2.value
