"""Cell-by-cell symbolic integration and its specializations."""

import copy
import glob
import importlib
import json
import os
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dpcalc.localfield as lf
from dpcalc import motivic, oracle, poly
from dpcalc.errors import (BadPrime, BudgetExceeded, DuplicateCenter,
                           InvalidArgument, InvalidPrime, OverlapDetected,
                           ParseError, UnboundParameter, UnsupportedFeature,
                           UnsupportedZeroCell)
from dpcalc.formula import (Formula, RfConst, RfNe, RfVar, Sort, interpret,
                            parse, parse_term, pretty_print)
from dpcalc.motivic import (Cell, ConstructibleFn, EMPTY_DOMAIN,
                            appendix2_steps, appendix2_symbolic,
                            appendix2_volume, bind_parameters,
                            integrate_cell_data, integrate_cells,
                            integrate_linear_product, load_cells, parse_psi,
                            residue_cases, specialize)
from dpcalc.presburger import AffineForm, PresDomain, PresTerm, SymSum
from dpcalc.symring import ONE, L, SymA
import count_reference
import motivic_reference
from presburger_reference import evaluate_truncated

parse_a = SymA.parse


# --- level-weight parsing ---

def test_parse_psi():
    assert parse_psi("L^(-3*j)") == PresTerm(ONE, AffineForm.make({"j": -3}))
    assert parse_psi("2 * L^(-k)") == PresTerm(SymA.from_int(2),
                                               AffineForm.make({"k": -1}))
    assert parse_psi("1") == PresTerm(ONE, AffineForm.constant(0))
    assert parse_psi("L^-2") == PresTerm(SymA.l_power(-2),
                                         AffineForm.constant(0))


_COEFFICIENTS = st.builds(
    lambda a, b, i: SymA.from_int(a) * SymA.l_power(b) + SymA.geom(i),
    st.integers(-3, 3), st.integers(-4, 4), st.integers(1, 3))
_EXPONENTS = st.builds(
    AffineForm.make,
    st.dictionaries(st.sampled_from(["k", "g", "j"]), st.integers(-4, 4),
                    max_size=2),
    st.integers(-5, 5))


@given(term=st.builds(PresTerm, _COEFFICIENTS, _EXPONENTS))
def test_parse_psi_reads_what_render_writes(term):
    assert parse_psi(term.render()) == term


# --- products of linear factors ---

def test_single_center_multiplicity_three():
    r = integrate_linear_product([0], [3], 1)
    assert r.as_syma() == parse_a("(1 - L^-1)").div_by_unit(
        parse_a("1 - L^-4"))
    assert r.bad_primes == {}


def test_single_center_multiplicity_one():
    r = integrate_linear_product([0], [1], 1)
    assert r.as_syma() == parse_a("1 - L^-1").div_by_unit(
        parse_a("1 - L^-2"))


def test_three_centers():
    r = integrate_linear_product([0, 1, 3], [1, 1, 1], 1)
    expected = (L - 3) * SymA.l_power(-1) \
        + 3 * (ONE - SymA.l_power(-1)) * SymA.l_power(-2) * SymA.geom(2)
    assert r.as_syma() == expected
    # center differences 1, 2, 3 rule out 2 and 3
    assert sorted(r.bad_primes) == [2, 3]


def test_three_centers_oracle_containment():
    expected = (L - 3) * SymA.l_power(-1) \
        + 3 * (ONE - SymA.l_power(-1)) * SymA.l_power(-2) * SymA.geom(2)
    dom = oracle.parse("vf z; ord(z) >= 0")
    f = oracle.IntegrandSpec.abs_power(
        parse_term("z * (z - 1) * (z - 3)", Sort.VF), 1)
    for p in (5, 7, 11, 13):
        got = oracle.integrate(f, dom, lf.qp(p, 6))
        want = expected.nu(p)
        assert got.lower <= want <= got.upper, (p, got, want)


def test_empty_product_is_total_measure():
    assert integrate_linear_product([], [], 1).as_syma() == ONE


def test_fractional_center_flags_denominator_prime():
    r = integrate_linear_product([F(1, 2)], [1], 1)
    assert 2 in r.bad_primes


def test_duplicate_centers_rejected():
    with pytest.raises(DuplicateCenter):
        integrate_linear_product([1, 1], [1, 1])


# --- single cells ---

def punctured_ball_cell(cell_id="shells", lower=0):
    return Cell(kind="OneCell", cell_id=cell_id, center_text="0",
                class_formula=Formula(RfNe(RfVar("u"), RfConst(0))),
                z_domain=PresDomain.single("g", lower=lower),
                alpha=AffineForm.var("g"), xi_text="u",
                psi=PresTerm(ONE, AffineForm.constant(0)))


def test_punctured_ball_integrates_to_one():
    r = integrate_cells([punctured_ball_cell()])
    assert r.as_syma() == ONE


def test_empty_family_is_zero():
    assert integrate_cells([]).value == ConstructibleFn.zero()


def _shells(basis):
    return {"cells": [{"kind": "OneCell", "id": "shells", "center": "0",
                       "basis": basis, "alpha": "g", "xi": "u",
                       "psi": "1"}]}


def test_a_basis_without_the_unit_atom_gains_it_from_xi():
    (bare,) = load_cells(_shells("rf u; zz g; 0 <= g")).cells
    (written,) = load_cells(_shells("rf u; zz g; u != 0 && 0 <= g")).cells
    assert bare.class_formula == Formula(RfNe(RfVar("u"), RfConst(0)))
    assert bare == written


def test_a_pinned_and_congruent_cell_sums_as_the_reference():
    """g is pinned to the parameter k and h runs over the odd values in
    [1, 7]: the integral is the class size L - 1 times the sum of
    L^(-g - h - 1), which the reference sums point by point."""
    data = load_cells({
        "parameters": [{"name": "k", "sort": "zz"}],
        "cells": [{"kind": "OneCell", "id": "pinned", "center": "0",
                   "basis": "rf u; zz g, h, k; u != 0 && 0 <= k && g == k "
                            "&& 1 <= h && h <= 7 && h == 1 mod 2",
                   "alpha": "g + h", "xi": "u", "psi": "1"}]})
    (cell,) = data.cells
    assert [(r.name, str(r.lower), str(r.upper), r.modulus, r.residue)
            for r in cell.z_domain.ranges] == [("g", "k", "k", 1, 0),
                                               ("h", "1", "7", 2, 1)]
    result = integrate_cell_data(data)
    term = PresTerm(cell.psi.coefficient,
                    cell.psi.exponent - cell.alpha - 1)
    for q in (2, 3, 5):
        for k in range(4):
            partial, tail = evaluate_truncated(cell.z_domain, term, q, 12,
                                               {"k": k})
            assert tail == 0
            assert specialize(result, q, {"k": k}) == (q - 1) * partial


# --- the worked parametric family ---

CUBE = {
    "parameters": [{"name": "acx", "sort": "rf"}, {"name": "k", "sort": "zz"}],
    "bad_primes": {"3": "triple root splitting"},
    "cells": [
        {"kind": "OneCell", "id": "below", "center": "0",
         "basis": "rf eta; zz j, k; eta != 0 && 0 <= j && j <= k - 1 && 0 <= k",
         "alpha": "j", "xi": "eta", "psi": "L^(-3*j)"},
        {"kind": "OneCell", "id": "above", "center": "0",
         "basis": "rf eta; zz j, k; eta != 0 && k + 1 <= j && 0 <= k",
         "alpha": "j", "xi": "eta", "psi": "L^(-3*k)"},
        {"kind": "OneCell", "id": "level_no_root", "center": "0",
         "basis": "rf eta, acx; zz k; !(exists w:rf. w^3 == acx) && eta != 0 "
                  "&& 0 <= k",
         "alpha": "k", "xi": "eta", "psi": "L^(-3*k)"},
        {"kind": "OneCell", "id": "level_off_root", "center": "0",
         "basis": "rf eta, acx; zz k; (exists w:rf. w^3 == acx) && eta != 0 "
                  "&& eta^3 != acx && 0 <= k",
         "alpha": "k", "xi": "eta", "psi": "L^(-3*k)"},
        {"kind": "OneCell", "id": "level_near_root", "center": "root(x, eta2)",
         "basis": "rf eta2, eta3, acx; zz g, k; eta2^3 == acx && eta3 != 0 "
                  "&& k + 1 <= g && 0 <= k",
         "alpha": "g", "xi": "eta3", "psi": "L^(-2*k - g)",
         "presentation": "z maps to (z, ac(z - c), ord(z - c))"},
        {"kind": "ZeroCell", "id": "origin", "center": "0",
         "basis": "rf acx; zz k; acx != 0 && 0 <= k", "psi": "L^(-3*k)"},
    ],
}


@pytest.fixture(scope="module")
def cube_result():
    data = load_cells(CUBE)
    return data, integrate_cell_data(data)


def test_cube_family_loads(cube_result):
    data, res = cube_result
    assert len(data.cells) == 6
    assert data.parameters == (("acx", Sort.RF), ("k", Sort.ZZ))
    assert 3 in res.bad_primes


def test_near_root_coefficient(cube_result):
    # the xi-class u != 0 collapses to a factor (L - 1); the surviving class
    # counts cube roots and the coefficient is (L - 1) L^(-4k-3)/(1 - L^-2)
    _, res = cube_result
    near = [t for t in res.value.terms
            if t.rf_class is not None and "eta2" in str(t.rf_class.expr)]
    assert len(near) == 1
    assert "eta3" not in str(near[0].rf_class.expr)
    want = SymSum((PresTerm((L - SymA.from_int(1)) * SymA.geom(2)
                            * SymA.l_power(-3),
                            AffineForm.make({"k": -4})),))
    assert near[0].coeff == want


def test_cube_specializations(cube_result):
    _, res = cube_result
    assert specialize(res, 7, {"acx": 1, "k": 0}) == F(35, 56)

    # k = 1, split case: shells + origin tail + off-root + near-root
    q, k = F(7), 1
    h1 = (1 - 1 / q) * (1 - q ** (-4 * k)) / (1 - q ** -4)
    h2 = q ** (-4 * k - 1)
    far = (q - 4) * q ** (-4 * k - 1)
    near = 3 * (q - 1) * q ** (-4 * k - 3) / (1 - q ** -2)
    assert specialize(res, 7, {"acx": 1, "k": 1}) == h1 + h2 + far + near

    # q = 2 mod 3: cubing is a bijection, exactly one root
    q = F(5)
    assert specialize(res, 5, {"acx": 1, "k": 0}) == \
        q ** -1 + (q - 2) * q ** -1 + (q - 1) * q ** -3 / (1 - q ** -2)

    # a non-cube residue never meets the near-root branch
    q = F(7)
    assert specialize(res, 7, {"acx": 2, "k": 0}) == q ** -1 + (q - 1) * q ** -1


def test_cube_oracle_containment(cube_result):
    _, res = cube_result
    dom = oracle.parse("vf x, y; ord(y) >= 0")
    f = oracle.IntegrandSpec.abs_power(parse_term("y^3 - x", Sort.VF), 1)
    for p, acx in ((7, 1), (7, 2), (5, 1), (11, 3), (13, 1)):
        for k in (0, 1):
            spec = lf.qp(p, 8 if p < 11 else 6)
            x = oracle.eval_vf_term(
                parse_term(str(acx * p ** (3 * k)), Sort.VF), spec, {})
            got = oracle.integrate(f, dom, spec, assignment={"x": x})
            want = specialize(res, p, {"acx": acx, "k": k})
            assert got.lower <= want <= got.upper, (p, acx, k, got, want)


def test_cube_equal_characteristic_transfer(cube_result):
    _, res = cube_result
    spec = lf.fpt(7, 8)
    x = oracle.eval_vf_term(parse_term("t^3", Sort.VF), spec, {})
    dom = oracle.parse("vf x, y; ord(y) >= 0")
    f = oracle.IntegrandSpec.abs_power(parse_term("y^3 - x", Sort.VF), 1)
    got = oracle.integrate(f, dom, spec, assignment={"x": x})
    want = specialize(res, 7, {"acx": 1, "k": 1})
    assert got.lower <= want <= got.upper


def test_near_root_pushforward():
    # per class point the sum is L^(-2n-1) L^(-2(n+1)) / (1 - L^-2); the
    # nonzero-xi factor (L - 1) folds into the coefficient, turning
    # L^(-2n-1) into (1 - L^-1) L^(-2n)
    solo = load_cells({
        "parameters": [{"name": "acx", "sort": "rf"},
                       {"name": "n", "sort": "zz"}],
        "cells": [
            {"kind": "OneCell", "id": "near", "center": "root(x, eta2)",
             "basis": "rf eta2, eta3, acx; zz g, n; eta2^3 == acx "
                      "&& eta3 != 0 && n + 1 <= g",
             "alpha": "g", "xi": "eta3", "psi": "L^(-2*n - g)"},
        ],
    })
    r = integrate_cells(solo.cells, params=solo.parameters)
    t, = r.value.terms
    per_point = SymA.geom(2) * SymA.l_power(-3)
    assert t.coeff == SymSum((PresTerm((L - SymA.from_int(1)) * per_point,
                                       AffineForm.make({"n": -4})),))
    assert "eta3" not in str(t.rf_class.expr)


@pytest.mark.parametrize("text", [
    "root(x, eta2)", " root (x)", "acx(y)", "ac_1(x)", "t(x)", "inf(x)",
    "x*(y)", "ac(x)", "ac (x) + 1", "(x)", "0", "x - 1", "x +",
])
@pytest.mark.parametrize("sort", [Sort.VF, Sort.RF])
def test_a_named_center_is_what_the_parser_refuses(text, sort):
    # the named-center check answers exactly as a parse would
    try:
        want = parse_term(text, sort)
    except ParseError:
        want = None
    assert motivic._term_or_none(text, sort) == want


# --- the cell-file memo ---

def _copy_cube(fx, tmp_path, name="cube.cells.json", edit=None):
    data = json.loads(open(fx("cube.cells.json")).read())
    if edit:
        edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_the_same_text_loads_as_one_object(fx, tmp_path):
    """The memo is keyed by the text: another path with the same bytes
    gets the same CellData, and a dict source is read afresh."""
    first = load_cells(fx("cube.cells.json"))
    assert load_cells(fx("cube.cells.json")) is first
    copy = tmp_path / "copy.json"
    copy.write_text(open(fx("cube.cells.json")).read())
    assert load_cells(str(copy)) is first
    as_dict = json.loads(copy.read_text())
    assert load_cells(as_dict) is not load_cells(as_dict)
    assert load_cells(as_dict).cells == first.cells


def test_an_edited_file_is_read_again(fx, tmp_path):
    path = _copy_cube(fx, tmp_path)
    before = integrate_cell_data(load_cells(path)).value

    def edit(data):
        data["cells"][1]["psi"] = "L^(-2*k)"
    _copy_cube(fx, tmp_path, edit=edit)
    after = integrate_cell_data(load_cells(path)).value
    assert after != before
    with open(path) as fh:
        assert after == integrate_cell_data(load_cells(fh)).value


@pytest.mark.parametrize("text", [
    '{"cells": [{"kind": "OneCell", "psi": "1"}]}',
    '{"cells": [',
    '{"cells": [], "parameters": [{"name": "k"}]}',
])
def test_a_malformed_file_fails_on_every_load(run_cli, tmp_path, text):
    path = tmp_path / "bad.cells.json"
    path.write_text(text)
    motivic._load_text.cache_clear()
    cold = run_cli("integrate", path)
    assert cold[0] == 2 and cold[2]
    assert run_cli("integrate", path) == cold


def test_the_memo_keeps_at_most_its_size(tmp_path):
    motivic._load_text.cache_clear()
    for i in range(motivic.CELL_MEMO + 5):
        path = tmp_path / ("c%d.json" % i)
        path.write_text(json.dumps({"cells": [], "bad_primes": {"7": "r%d"
                                                                % i}}))
        assert load_cells(str(path)).bad_primes == {7: ("r%d" % i,)}
    info = motivic._load_text.cache_info()
    assert info.maxsize == motivic.CELL_MEMO
    assert info.currsize == motivic.CELL_MEMO


def test_a_loaded_file_cannot_be_changed(fx):
    data = load_cells(fx("cube.cells.json"))
    with pytest.raises(TypeError):
        data.bad_primes[2] = ("two",)
    with pytest.raises(TypeError):
        data.bad_primes.pop(3)
    with pytest.raises(TypeError):
        data.oracle["domain"] = "vf x; ord(x) >= 0"
    with pytest.raises(TypeError):
        data.oracle["cases"][0]["params"].update(k=5)
    with pytest.raises(AttributeError):
        data.oracle["cases"].append({})
    again = load_cells(fx("cube.cells.json"))
    with open(fx("cube.cells.json")) as fh:
        fresh = load_cells(fh)
    assert again.bad_primes == fresh.bad_primes == {
        3: ("the cube map degenerates on units in characteristic 3",)}
    assert json.dumps(again.oracle) == json.dumps(fresh.oracle)
    assert isinstance(again.oracle, dict)


def test_a_loaded_file_copies_and_pickles_as_plain_dicts(fx):
    """The refusing dicts of a path load copy and pickle into plain
    dicts holding the same values; the shared load is left as it was."""
    data = load_cells(fx("cube.cells.json"))
    assert copy.copy(data) == data
    for part in (data.bad_primes, data.oracle):
        for twin in (copy.copy(part), copy.deepcopy(part),
                     pickle.loads(pickle.dumps(part))):
            assert type(twin) is dict and twin == part
    mine = copy.deepcopy(data.oracle)
    mine["cases"] = []
    assert load_cells(fx("cube.cells.json")).oracle["cases"]


@settings(max_examples=60, deadline=None)
@given(centers=st.lists(st.fractions(min_value=-6, max_value=6,
                                     max_denominator=3),
                        min_size=0, max_size=3, unique=True),
       data=st.data())
def test_one_merge_equals_the_cell_by_cell_fold(centers, data):
    """The total of integrate_cells, merged once, is the left fold of
    its per-cell contributions."""
    mults = [data.draw(st.integers(1, 3)) for _ in centers]
    result = integrate_linear_product(centers, mults,
                                      data.draw(st.integers(1, 2)))
    fold = ConstructibleFn.zero()
    for _, contribution, _ in result.derivation:
        fold = fold + contribution
    assert result.value == fold
    assert result.value.render() == fold.render()


def test_a_warm_compare_walks_no_tree_for_its_primes(monkeypatch, fx,
                                                     run_cli):
    """The constants bad_primes and the center notes read are kept per
    tree: a second compare of linear_triple.dp walks none, though its
    cells are built afresh."""
    nodes = importlib.import_module("dpcalc.formula.nodes")
    children = nodes.children
    calls = []

    def counted(node):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in ("bad_primes", "_center_notes"):
                calls.append(node)
                break
            frame = frame.f_back
        return children(node)
    for module in list(sys.modules.values()):
        if getattr(module, "children", None) is children:
            monkeypatch.setattr(module, "children", counted)
    argv = ("compare", fx("linear_triple.dp"), "--primes", "5")
    motivic._constants.cache_clear()
    cold = run_cli(*argv)
    assert cold[0] == 0 and calls
    del calls[:]
    assert run_cli(*argv) == cold
    assert calls == []


# --- the plan of a family ---

CELL_FILES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures",
    "*.cells.json")))


def _loadable(path):
    try:
        return load_cells(path)
    except ParseError:
        return None


def _summary(result):
    return (result.value.render(), result.bad_primes,
            [(cid, fn.render(), note) for cid, fn, note in result.derivation])


def _clear_plans():
    motivic._plan.cache_clear()
    motivic._linear_plan.cache_clear()


def test_shared_cells_deep_copy_and_pickle():
    """The plan hands out shared cells, so a caller that wants its own
    copies deep-copies them: every loaded cell file and a linear product's
    result copy and pickle into equal values with equal hashes."""
    loaded = [data for data in map(_loadable, CELL_FILES) if data]
    assert len(loaded) == 3
    result = integrate_linear_product([0, F(1, 2), 3], [1, 2, 1], 2)
    for data in loaded:
        for twin in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert twin == data
            assert twin.cells == data.cells
            assert hash(twin.cells) == hash(data.cells)
    for twin in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
        assert _summary(twin) == _summary(result)
        assert twin.value == result.value
        assert twin.derivation == result.derivation
        assert hash((twin.value, twin.derivation)) == \
            hash((result.value, result.derivation))


@settings(max_examples=60, deadline=None)
@given(centers=st.lists(st.fractions(min_value=-8, max_value=8,
                                     max_denominator=3),
                        min_size=1, max_size=4, unique=True),
       data=st.data())
def test_the_plan_integrates_as_the_reference(centers, data):
    """A linear product integrates, cold and then warm, exactly as the
    earlier integrator does on the same cells, derivation included; so
    does a result pickled before its derivation is read, which carries
    the trail's parts."""
    mults = [data.draw(st.integers(1, 4)) for _ in centers]
    e = data.draw(st.integers(1, 3))
    cells = motivic._linear_cells(tuple(centers), tuple(mults), e)
    reference = motivic_reference.integrate_cells(cells)
    want = _summary(reference)
    _clear_plans()
    assert _summary(integrate_linear_product(centers, mults, e)) == want
    warm = integrate_linear_product(centers, mults, e)
    twin = pickle.loads(pickle.dumps(warm))
    assert _summary(warm) == _summary(twin) == want
    assert twin.derivation == warm.derivation == reference.derivation
    assert hash(twin.derivation) == hash(reference.derivation)


def test_a_warm_compare_builds_no_derivation_entry(monkeypatch, fx,
                                                   run_cli):
    """compare never prints the audit trail, so it never builds it: a
    cold and a warm compare of a linear product and of a cell file build
    no derivation entry, while integrate, which prints the trail, builds
    it once."""
    built = []
    entries = motivic._Parts.entries

    def counted(parts):
        built.append(parts)
        return entries(parts)
    monkeypatch.setattr(motivic._Parts, "entries", counted)
    for name in ("linear_triple.dp", "cube.cells.json"):
        argv = ("compare", fx(name), "--primes", "5,7",
                "--both-characteristics")
        cold = run_cli(*argv)
        assert cold[0] == 0
        assert run_cli(*argv) == cold
    assert built == []
    assert run_cli("integrate", fx("cube.cells.json"), "--param", "k=1")[0] \
        == 0
    assert len(built) == 1


@pytest.mark.parametrize("path", CELL_FILES, ids=os.path.basename)
def test_every_cell_file_integrates_as_the_reference(path, run_cli,
                                                     monkeypatch):
    """Every cell file, plain, with acx:cube and at k = 0..3, prints the
    same cold, warm, and through the earlier integrator."""
    argvs = [("integrate", path)] + [
        ("integrate", path, "--param", "k=%d" % k) + cube
        for k in range(4) for cube in ((), ("--param", "acx:cube"))]
    argvs.append(("integrate", path, "--param", "acx:cube"))
    data = _loadable(path)
    if data:
        _clear_plans()
        got = _summary(integrate_cell_data(data))
        assert _summary(integrate_cell_data(data)) == got
        with monkeypatch.context() as m:
            m.setattr(motivic, "integrate_cells",
                      motivic_reference.integrate_cells)
            assert _summary(integrate_cell_data(data)) == got
    for argv in argvs:
        _clear_plans()
        cold = run_cli(*argv)
        assert run_cli(*argv) == cold
        with monkeypatch.context() as m:
            m.setattr(motivic, "integrate_cells",
                      motivic_reference.integrate_cells)
            assert run_cli(*argv) == cold


def test_a_family_that_fails_a_check_fails_on_every_call(fx):
    """The plan keeps no refusal: an overlapping family and a non-affine
    0-cell raise on every call."""
    raw = json.loads(open(fx("cube.cells.json")).read())
    raw["cells"].append(dict(raw["cells"][0], id="below_again"))
    overlapping = load_cells(raw)
    point = [Cell(kind="ZeroCell", cell_id="bad", center_text="x^2",
                  psi=PresTerm(ONE, AffineForm.constant(0)))]
    for _ in range(3):
        with pytest.raises(OverlapDetected, match="below_again"):
            integrate_cell_data(overlapping)
        with pytest.raises(UnsupportedZeroCell):
            integrate_cells(point)


def test_a_warm_product_is_still_charged_its_factoring(run_cli,
                                                      monkeypatch):
    argv = ("integrate", "--linear-product", "0:1,35:1")
    assert run_cli(*argv)[0] == 0
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "1")
    rc, out, err = run_cli(*argv)
    assert (rc, out) == (5, "")
    assert err == ("dpcalc: trial divisions factoring 35 exceed the budget "
                   "of 1\n")


def test_the_plan_memos_keep_at_most_their_size():
    """Distinct families fill the plan memo and distinct products the
    product memo, each to its size; a product plans no family."""
    _clear_plans()
    for i in range(motivic.PLAN_MEMO + 5):
        integrate_cell_data(load_cells(_shells("rf u; zz g; %d <= g" % i)))
    for i in range(motivic.LINEAR_MEMO + 5):
        integrate_linear_product([0, i + 1], [1, 1])
    for memo, bound in ((motivic._plan, motivic.PLAN_MEMO),
                        (motivic._linear_plan, motivic.LINEAR_MEMO)):
        info = memo.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
    assert motivic._plan.cache_info().misses == motivic.PLAN_MEMO + 5


@pytest.mark.parametrize("name", ["linear_triple.dp", "cube.cells.json"])
def test_a_warm_compare_plans_nothing(monkeypatch, fx, run_cli, name):
    """A second compare splits, sizes and checks no cell, and factors as
    often as the first: the budget still charges every factorisation."""
    calls = {}

    def counted(fn):
        def spy(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return spy
    for fn in ("_split_components", "_check_disjoint",
               "_linear_residue_parts", "_check_room", "factor"):
        monkeypatch.setattr(motivic, fn, counted(getattr(motivic, fn)))
    argv = ("compare", fx(name), "--primes", "5", "--budget", str(10 ** 18))
    _clear_plans()
    cold = run_cli(*argv)
    assert cold[0] == 0
    assert calls["_split_components"] and calls["_check_disjoint"]
    assert calls["_check_room"]
    cold_factor = calls.get("factor", 0)
    calls.clear()
    assert run_cli(*argv) == cold
    assert calls.get("factor", 0) == cold_factor
    assert set(calls) <= {"factor"}


# --- family hygiene ---

def test_overlapping_cells_rejected():
    with pytest.raises(OverlapDetected):
        integrate_cells([punctured_ball_cell("a", lower=0),
                         punctured_ball_cell("b", lower=2)])


def test_nonaffine_zero_cell_rejected():
    with pytest.raises(UnsupportedZeroCell):
        integrate_cells([Cell(kind="ZeroCell", cell_id="bad",
                              center_text="x^2",
                              psi=PresTerm(ONE, AffineForm.constant(0)))])


def test_additivity_over_subfamilies(cube_result):
    data, _ = cube_result
    full = integrate_cells(data.cells, params=data.parameters)
    part1 = integrate_cells(data.cells[:2], params=data.parameters)
    part2 = integrate_cells(data.cells[2:], params=data.parameters)
    assert full.value == part1.value + part2.value


# --- numeric specialization guards ---

def test_specialize_constants():
    assert specialize(ConstructibleFn.constant(ONE), 11) == 1
    cls = parse("u != 0", default_sort=Sort.RF)
    fn = ConstructibleFn(((cls, EMPTY_DOMAIN,
                           SymSum.of_syma(SymA.l_power(-1))),))
    assert specialize(fn, 7) == F(6, 7)


def test_specialize_guards(cube_result):
    _, res = cube_result
    with pytest.raises(UnboundParameter):
        specialize(res, 7, {"acx": 1})
    with pytest.raises(BadPrime):
        specialize(res, 3, {"acx": 1, "k": 0})
    with pytest.raises(ValueError):
        specialize(res, 7, {"acx": 1, "k": -1})


# --- partial parameter binding ---

def test_bind_parameters_keeps_residue_parameters(cube_result):
    _, res = cube_result
    bound = bind_parameters(res, {"k": 0})
    assert bound.value.params == (("acx", Sort.RF),)
    for p, acx in ((7, 1), (7, 2), (5, 1)):
        assert specialize(bound, p, {"acx": acx}) == \
            specialize(res, p, {"acx": acx, "k": 0})


def test_bind_parameters_trivial_and_partial(cube_result):
    _, res = cube_result
    assert bind_parameters(res.value, {}) == res.value
    bound = bind_parameters(res.value, {"k": 2, "ignored": 9})
    assert bound.params == (("acx", Sort.RF),)


def test_bind_parameters_returns_its_input_when_it_binds_nothing(
        cube_result):
    _, res = cube_result
    for assignment in ({}, {"acx": 1}, {"ignored": 9}):
        assert bind_parameters(res, assignment) is res
        assert bind_parameters(res.value, assignment) is res.value
    bound = bind_parameters(res, {"k": 1})
    assert bind_parameters(bound, {"k": 1}) is bound
    # residue_cases binds what it is given, and a bound result needs no
    # assignment
    assert residue_cases(bound, 3, {"acx": 1}) == \
        residue_cases(res, 3, {"acx": 1}, {"k": 1})


def test_bind_parameters_outside_domain(cube_result):
    _, res = cube_result
    with pytest.raises(ValueError):
        bind_parameters(res, {"k": -1})


def test_bind_parameters_binds_a_result_s_value_and_checks_its_derivation(
        cube_result):
    _, res = cube_result
    bound = bind_parameters(res, {"k": 2})
    assert bound.value == bind_parameters(res.value, {"k": 2})
    assert bound.derivation is res.derivation
    assert bound.bad_primes is res.bad_primes
    # a derivation entry outside its domain is refused though the value,
    # where the entries cancel, has no term left to refuse it
    params = (("k", Sort.ZZ),)
    entry = ConstructibleFn(
        ((None, PresDomain.single("k", lower=AffineForm.constant(0)), ONE),),
        params)
    cancelled = motivic.IntegrationResult(
        ConstructibleFn.zero(params), {}, (("c", entry, ""),))
    with pytest.raises(InvalidArgument) as info:
        bind_parameters(cancelled, {"k": -1})
    assert str(info.value) == \
        "assignment {'k': -1} leaves the residual domain 0 <= k"
    assert bind_parameters(cancelled, {"k": 0}).derivation == \
        cancelled.derivation


# --- parameter values are integers, never truncated to one ---

_FIELDS = [lf.qp, lf.fpt]


@pytest.mark.parametrize("call, shown", [
    *[pytest.param(lambda res, make=make: interpret(
        parse("zz n; n == 2"), make(5, 4), {"n": 2.5}), "n ... 2.5",
        id="interpret-zz-" + make.__name__) for make in _FIELDS],
    *[pytest.param(lambda res, make=make: interpret(
        parse("rf u; u == 1"), make(5, 4), {"u": 1.7}), "u ... 1.7",
        id="interpret-rf-" + make.__name__) for make in _FIELDS],
    *[pytest.param(lambda res, make=make: oracle.volume(
        "vf x; zz n; ord(x) >= n", make(5, 2), assignment={"n": 0.5}),
        "n ... 0.5", id="volume-" + make.__name__) for make in _FIELDS],
    *[pytest.param(lambda res, make=make: oracle.volume(
        "vf x; rf u; ac(x) == u", make(5, 2), assignment={"u": True}),
        "u ... true", id="volume-bool-" + make.__name__) for make in _FIELDS],
    pytest.param(lambda res: oracle.IntegrandSpec.abs_power("x", 1.5),
                 "e ... 1.5", id="abs_power"),
    pytest.param(lambda res: oracle.IntegrandSpec.abs_power("x", True),
                 "e ... true", id="abs_power-bool"),
    pytest.param(lambda res: specialize(res, 7, {"acx": 1, "k": 1.9}),
                 "k ... 1.9", id="specialize-zz"),
    pytest.param(lambda res: specialize(res, 7, {"acx": 1.5, "k": 1}),
                 "acx ... 1.5", id="specialize-rf"),
    pytest.param(lambda res: bind_parameters(res, {"k": 0.9}),
                 "k ... 0.9", id="bind_parameters"),
    pytest.param(lambda res: integrate_linear_product([0], [1.5]),
                 "multiplicity ... 1.5", id="linear_product-multiplicity"),
    pytest.param(lambda res: integrate_linear_product([0], [1], 2.7),
                 "exponent ... 2.7", id="linear_product-exponent"),
    pytest.param(lambda res: integrate_linear_product([0], [1], True),
                 "exponent ... true", id="linear_product-exponent-bool"),
    pytest.param(lambda res: residue_cases(res, 3, {"acx": 1.9}, {"k": 0}),
                 "acx ... 1.9", id="residue_cases-witness"),
    pytest.param(lambda res: appendix2_volume("per_eta", 7, eta=3.7),
                 "eta ... 3.7", id="appendix2_volume-eta-float"),
    pytest.param(lambda res: appendix2_volume("per_eta", 7, eta="3"),
                 'eta ... "3"', id="appendix2_volume-eta-text"),
    *[pytest.param(lambda res, make=make, v=v: oracle.volume(
        "vf x, a; ord(x - a) >= 1", make(5, 3), assignment={"a": v}),
        "a ... %s ... a field element or a rational" % shown,
        id="volume-vf-%s-%s" % (type(v).__name__, make.__name__))
      for make in _FIELDS for v, shown in ((0.5, "0.5"), ("1/3", '"1/3"'))],
    *[pytest.param(lambda res, make=make, v=v: oracle.integrate(
        oracle.IntegrandSpec.abs_power("x - a"), "vf x; ord(x) >= 0",
        make(5, 3), assignment={"a": v}),
        "a ... %s ... a field element or a rational" % shown,
        id="integrate-vf-%s-%s" % (type(v).__name__, make.__name__))
      for make in _FIELDS for v, shown in ((0.5, "0.5"), ("1/3", '"1/3"'))],
    *[pytest.param(lambda res, make=make, v=v: oracle.eval_vf_term(
        parse_term("x - a", Sort.VF), make(5, 3), {"x": 1, "a": v}),
        "a ... %s ... a field element or a rational" % shown,
        id="eval_vf_term-%s-%s" % (type(v).__name__, make.__name__))
      for make in _FIELDS for v, shown in ((0.5, "0.5"), ("1/3", '"1/3"'))],
])
def test_parameter_values_must_be_integers(cube_result, call, shown):
    _, res = cube_result
    name, value, *kind = shown.split(" ... ")
    with pytest.raises(InvalidArgument) as info:
        call(res)
    assert str(info.value) == "%s must be %s, not %s" % (
        name, kind[0] if kind else "an integer", value)


# --- exact congruence-class evaluation ---

def test_residue_cases_cube(cube_result):
    _, res = cube_result
    cases = residue_cases(res, 3, {"acx": 1}, {"k": 0})
    assert [r for r, _ in cases] == [1, 2]
    split = dict(cases)[1]
    inert = dict(cases)[2]
    assert split == parse_a("(1 - 3*L^-1 + 2*L^-2)/(1 - L^-2)")
    assert inert == parse_a("(1 - L^-1)/(1 - L^-2)")
    # the case values agree with direct specialization on each class
    assert split.nu(7) == specialize(res, 7, {"acx": 1, "k": 0})
    assert inert.nu(5) == specialize(res, 5, {"acx": 1, "k": 0})


def test_residue_cases_scale_with_level(cube_result):
    _, res = cube_result
    base = dict(residue_cases(res, 3, {"acx": 1}, {"k": 0}))
    deeper = dict(residue_cases(res, 3, {"acx": 1}, {"k": 1}))
    # each extra level multiplies the level-set part by L^-4; check the
    # totals against specialization instead of a closed form
    assert deeper[1].nu(7) == specialize(res, 7, {"acx": 1, "k": 1})
    assert deeper[2].nu(5) == specialize(res, 5, {"acx": 1, "k": 1})
    assert base[1] != deeper[1]


def test_residue_cases_requires_all_bindings(cube_result):
    _, res = cube_result
    with pytest.raises(UnboundParameter):
        residue_cases(res, 3, {"acx": 1})  # k unbound
    with pytest.raises(UnboundParameter):
        residue_cases(res, 3, {}, {"k": 0})  # acx has no witness


# --- congruence cases by exact count ---

def _one_atom(var, n, level, op, flip):
    power = var if n == 1 else "%s^%d" % (var, n)
    sides = (level, power) if flip else (power, level)
    return "%s %s %s" % (sides[0], op, sides[1])


# z is the residue parameter, witnessed by 1
_LEVELS = st.sampled_from(["0", "1", "z"])
_OPS = st.sampled_from(["==", "!="])
_CLOSED = st.one_of(
    st.builds("(exists w:rf. {}) ".format,
              st.builds(_one_atom, st.just("w"), st.integers(1, 6), _LEVELS,
                        st.just("=="), st.booleans())),
    st.builds("!(exists w:rf. {})".format,
              st.builds(_one_atom, st.just("w"), st.integers(1, 6), _LEVELS,
                        st.just("=="), st.booleans())),
    st.builds(_one_atom, st.just("z"), st.just(1), st.sampled_from("01"),
              _OPS, st.booleans()))


@st.composite
def _binomial_classes(draw):
    names = ["x", "y"][:draw(st.integers(1, 2))]
    atoms = draw(st.lists(
        st.builds(_one_atom, st.sampled_from(names), st.integers(1, 6),
                  _LEVELS, _OPS, st.booleans()), min_size=1, max_size=3))
    # one closed atom at most, so that the reference's enumeration stays
    # small
    closed = draw(st.lists(_CLOSED, max_size=1))
    i = draw(st.integers(0, len(atoms)))
    atoms[i:i] = closed
    return parse("rf %s, z; %s" % (", ".join(names), " && ".join(atoms)),
                 default_sort=Sort.RF)


def _brute(phi, q, env):
    """The count of count_reference, with each parameter substituted."""
    expr = count_reference.substitute(
        phi.expr, {n: RfConst(v) for n, v in env.items()})
    free = [(n, s) for n, s in phi.free if n not in env]
    return count_reference.count_rf_points(Formula(expr, free), q)


_SMALL_PRIMES = [q for q in range(2, 61) if lf.is_prime(q)]


@settings(max_examples=150, deadline=None)
@given(phi=_binomial_classes(), modulus=st.integers(2, 12))
def test_the_exact_count_is_the_brute_count_and_the_fit(phi, modulus):
    env = {"z": 1}
    atoms = motivic._binomial_atoms(phi, env)
    assert atoms is not None
    for residue in range(1, modulus):
        if F(residue, modulus).denominator != modulus:
            continue
        count = motivic._binomial_count(atoms, residue, modulus, {})
        if count is None:
            continue
        # exact at every prime of the class, the smallest ones included
        for q in _SMALL_PRIMES:
            if q % modulus == residue:
                assert poly.evaluate(count, q) == _brute(phi, q, env), q
        try:
            fit, _ = motivic._fit_count(phi, env, residue, modulus, {})
        except UnsupportedFeature:
            continue
        assert SymA(dict(enumerate(fit))) == SymA(dict(enumerate(count)))


def _counted(monkeypatch):
    calls = []
    count = motivic.count_rf_points

    def counting(*args, **kwargs):
        calls.append(args[1])
        return count(*args, **kwargs)
    monkeypatch.setattr(motivic, "count_rf_points", counting)
    return calls


def _single_class(text, params=(("z", Sort.RF),)):
    phi = parse(text, default_sort=Sort.RF)
    return ConstructibleFn(((phi, EMPTY_DOMAIN, ONE),), params)


def test_near_misses_of_the_fragment_reach_the_fit(monkeypatch):
    calls = _counted(monkeypatch)
    # not binomial: fitted, and reported as such
    fitted = {}
    cases = residue_cases(_single_class("rf x; x^2 == x + 1", ()), 5, {},
                          fitted=fitted)
    assert [c.nu(11) for _, c in cases] == [2, 0, 0, 2]
    assert list(fitted) == ["rf x; x^2 == x + 1"]
    # the witnesses, and the primes of the classes below the first one,
    # where the fit holds (no root at 2 or 3)
    assert sorted(calls) == sorted(fitted["rf x; x^2 == x + 1"] + [2, 3])
    # a witness of 2, which is a cube at some primes of the class only
    del calls[:]
    with pytest.raises(UnsupportedFeature):
        residue_cases(_single_class("rf x, z; x^3 == z"), 3, {"z": 2})
    assert calls
    # gcd(4, q - 1) is 2 or 4 on each class of q mod 3
    del calls[:]
    phi = parse("rf x, z; x^4 == z", default_sort=Sort.RF)
    atoms = motivic._binomial_atoms(phi, {"z": 1})
    assert atoms == {"x": [(4, 1, True)]}
    assert motivic._binomial_count(atoms, 1, 3, {}) is None
    assert motivic._binomial_count(atoms, 2, 3, {}) is None
    with pytest.raises(UnsupportedFeature):
        residue_cases(_single_class("rf x, z; x^4 == z"), 3, {"z": 1})
    assert calls


def test_a_fit_off_at_a_prime_below_the_witnesses_gives_it_a_case(
        monkeypatch):
    # eta^2 == 1 has two roots at every prime of q = 2 (mod 3) but 2,
    # where it has one: the fit is read at 5, 11, 17, 23 and checked at 2
    phi = parse("rf eta, z; eta^2 == z && eta != 0", default_sort=Sort.RF)
    fn = ConstructibleFn(((phi, EMPTY_DOMAIN, L ** 2),), (("z", Sort.RF),))
    calls = _counted(monkeypatch)
    fitted, exceptions = {}, {}
    cases = residue_cases(fn, 3, {"z": 1}, fitted=fitted,
                          exceptions=exceptions)
    assert cases == [(1, 2 * L ** 2), (2, 2 * L ** 2)]
    assert exceptions == {2: L ** 2}
    assert fitted == {pretty_print(phi): [5, 11, 17, 23]}
    # the check at 2, then the exact case's count at 2
    assert calls == [5, 11, 17, 23, 2, 2]
    # a bad prime is neither checked nor given a case
    del calls[:]
    exceptions = {}
    bad = motivic.IntegrationResult(fn, {2: ("even",)})
    assert residue_cases(bad, 3, {"z": 1}, exceptions=exceptions) == cases
    assert exceptions == {} and 2 not in calls


def test_a_bad_prime_is_not_asked_to_meet_the_rule():
    # 2 = 2 mod 3 divides 2, and gcd(2, 2 - 1) = 1 where the other primes
    # of the class give 2; excluding 2 leaves one number
    atoms = motivic._binomial_atoms(
        parse("rf x, z; x^2 == z", default_sort=Sort.RF), {"z": 1})
    assert motivic._binomial_count(atoms, 2, 3, {}) is None
    assert motivic._binomial_count(atoms, 2, 3, {2: ("even",)}) == [2]


def test_the_classes_the_rule_scans_are_charged_to_the_budget(monkeypatch):
    # gcd(n, q - 1) is read off the n / gcd(n, 3) units mod lcm(n, 3)
    # above each class, and that scan is an enumeration like any other
    with pytest.raises(BudgetExceeded) as info:
        residue_cases(_single_class("rf x, z; x^1000000007 == z"), 3,
                      {"z": 1})
    assert str(info.value) == ("the 1000000007 classes of q mod 3000000021 "
                               "exceed the budget of 100000000")
    monkeypatch.setenv("DPCALC_BOX_BUDGET", "10")
    with pytest.raises(BudgetExceeded) as info:
        residue_cases(_single_class("rf x, z; x^33 == z"), 3, {"z": 1})
    assert str(info.value) == \
        "the 11 classes of q mod 33 exceed the budget of 10"


def test_cube_cases_count_no_points(monkeypatch, fx, capsys):
    from dpcalc.cli import main
    calls = _counted(monkeypatch)
    for name in ("cube.cells.json", "cube_level.cells.json"):
        for k in range(4):
            assert main(["integrate", fx(name), "--param", "acx:cube",
                         "--param", "k=%d" % k]) == 0
            assert "fitted_classes" not in json.loads(capsys.readouterr().out)
    assert calls == []


# --- split-torus volume ---

def test_split_torus_steps():
    half = F(1, 2)
    steps = appendix2_steps()
    assert steps["cone"] == parse_a("2*L - 1")
    assert steps["nonzero_square_locus"] == parse_a("1/2*L^2 - L + 1/2")
    assert steps["nonsquare_locus"] == parse_a("1/2*L^2 - L + 1/2")
    assert steps["anisotropic_slice"] == half * (L - ONE) ** 3
    assert steps["total"] == parse_a("1/2*L^3 - 1/2*L")


def test_split_torus_symbolic():
    half = F(1, 2)
    assert appendix2_symbolic() == half * (L ** 3 - L)
    assert appendix2_symbolic() == half * L * (L - ONE) * (L + ONE)
    assert specialize(ConstructibleFn.constant(appendix2_symbolic()), 7) \
        == F(168)


@pytest.mark.parametrize("q", [5, 7])
def test_split_torus_counts(q):
    want = F(q * (q - 1) * (q + 1), 2) / q ** 3
    assert appendix2_volume("per_eta", q) == want
    assert appendix2_volume("per_eta", q, variant="d2_minus_b2") == want
    nonsquares = [n for n in range(1, q)
                  if pow(n, (q - 1) // 2, q) == q - 1]
    counts = {appendix2_volume("per_eta", q, eta=n) for n in nonsquares}
    assert counts == {want}
    assert appendix2_volume("summed_over_nonsquares", q) \
        == want * len(nonsquares)


def test_split_torus_fixed_values():
    assert appendix2_volume("per_eta", 7) == F(168, 343)
    assert appendix2_volume("per_eta", 5) == F(60, 125)


def test_split_torus_rejects_bad_q():
    with pytest.raises(InvalidPrime):
        appendix2_volume("per_eta", 3)
    with pytest.raises(InvalidPrime):
        appendix2_volume("per_eta", 4)


def test_anisotropic_slice_count():
    # the nonsquare-value locus of t^2 - s^2 has (q-1)^2/2 points
    for q in (5, 7, 11):
        n = sum(1 for t in range(q) for s in range(q)
                if (t * t - s * s) % q != 0
                and pow((t * t - s * s) % q, (q - 1) // 2, q) == 1)
        assert n == (q - 1) ** 2 // 2
