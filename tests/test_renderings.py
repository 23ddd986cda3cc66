"""Pinned renderings: `integrate` output recorded before the ring stored
its values as integer numerators, so that no change to the ring alters a
rendered value unnoticed.

The cube families are integrated at k = 0..3 with their congruence cases;
the linear products have negative and fractional centers and exponents
1 to 4.  To re-record after a deliberate change of the output, run each
`argv` and store its `value` (and `cases`, keyed by `when`)."""

import json
import os

import pytest

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_renderings.json")

with open(_GOLDEN) as fh:
    ROWS = json.load(fh)


@pytest.mark.parametrize("row", ROWS, ids=lambda r: " ".join(r["argv"][1:]))
def test_rendering_is_pinned(run_cli, fx, row):
    argv = list(row["argv"])
    if argv[1].endswith(".cells.json"):
        argv[1] = fx(argv[1])
    rc, out, err = run_cli(*argv)
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["value"] == row["value"]
    cases = {c["when"]: c["value"] for c in payload.get("cases", ())}
    assert cases == row.get("cases", {})
