"""Pinned corpus brackets: the symbolic value and the Q_p and F_p((t))
oracle brackets of every `compare` row on the acceptance corpus, at the
primes 2 to 31 in both characteristics and budget 10^18, recorded before
exact F_p((t)) elements became Laurent polynomials, so that no change to
the field arithmetic or the walk moves a bracket unnoticed.

To re-record after a deliberate change of the output, run from the
repository root:

    PYTHONPATH=src python -c "import tests.test_corpus_brackets as t; t.record()"
"""

import contextlib
import io
import json
import os

import pytest

from dpcalc.cli import main

_HERE = os.path.dirname(os.path.abspath(__file__))
_GOLDEN = os.path.join(_HERE, "golden_corpus_brackets.json")
_FIXTURES = os.path.join(_HERE, os.pardir, "fixtures")
CORPUS = ["ball.dp", "plane.dp", "linear_m1.dp", "linear_m3.dp",
          "linear_triple.dp", "punctured_ball.cells.json", "cube.cells.json",
          "cube_level.cells.json"]
ARGV = ["--primes", "2,3,5,7,11,13,17,19,23,29,31", "--both-characteristics",
        "--budget", str(10 ** 18)]
_KEYS = ("prime", "case", "skipped", "symbolic", "qp", "fpt")


def brackets(name):
    """The pinned fields of each `compare` row of one corpus fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["compare", os.path.join(_FIXTURES, name), *ARGV])
    assert rc == 0
    return [{k: row[k] for k in _KEYS if k in row}
            for row in json.loads(out.getvalue())["rows"]]


def record():
    with open(_GOLDEN, "w") as fh:
        json.dump({name: brackets(name) for name in CORPUS}, fh, indent=1)
        fh.write("\n")


with open(_GOLDEN) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_brackets_are_pinned(name):
    assert brackets(name) == GOLDEN[name]
