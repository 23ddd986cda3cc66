"""Random cell files against the box-counting oracle.

Each draw writes a cell file and, from the same draw, its own oracle
block, so the library holds no oracle code for it: the domain reads the
cell's set off ord(x) and ac(x), and psi = L^(-c*g) is the integrand
|x|^c.  `compare` must exit 0 with the symbolic value inside the
bracket of every prime, in both fields.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from dpcalc.cli import main

# a class atom on the angular component u, and the same atom on ac(x)
_CLASSES = [(None, None),
            ("u != 1", "ac(x) != 1"),
            ("u != 3", "ac(x) != 3"),
            ("(exists w:rf. w^2 == u)", "(exists w:rf. w^2 == ac(x))")]


@st.composite
def one_center_cell_files(draw):
    """A cell file of one 1-cell about 0, u = ac(x) and g = ord(x) over
    lo <= g, or lo <= g <= hi, with its oracle block."""
    cls, on_x = draw(st.sampled_from(_CLASSES))
    lo = draw(st.integers(0, 3))
    hi = draw(st.none() | st.integers(lo, lo + 3))
    c = draw(st.integers(0, 2))
    basis = ["u != 0", "%d <= g" % lo]
    domain = ["ord(x) >= %d" % lo]
    if hi is not None:
        basis.append("g <= %d" % hi)
        domain.append("ord(x) <= %d" % hi)
    if cls:
        basis.append(cls)
        domain.append(on_x)
    oracle = {"domain": "vf x; " + " && ".join(domain),
              "cases": [{"precision": draw(st.integers(3, 5))}]}
    if c:
        oracle["integrand"] = {"f": "x", "e": c}
    return {"cells": [{"kind": "OneCell", "id": "shells", "center": "0",
                       "basis": "rf u; zz g; " + " && ".join(basis),
                       "alpha": "g", "xi": "u", "psi": "L^(-%d*g)" % c}],
            "oracle": oracle}


@settings(max_examples=100, deadline=None)
@given(data=one_center_cell_files())
def test_a_one_center_cell_file_meets_its_oracle(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "one_center.cells.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["compare", str(path), "--primes", "5,7",
                   "--both-characteristics"])
    assert rc == 0, data
    rows = json.loads(out.getvalue())["rows"]
    assert [r["prime"] for r in rows] == [5, 7]
    for row in rows:
        assert row["qp_contained"] and row["fpt_contained"], (data, row)
